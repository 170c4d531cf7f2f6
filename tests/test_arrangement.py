import itertools

import pytest

from realwonder import gradedpoly as gp
from realwonder.arrangement import (
    AMBIENT_ID,
    Stratum,
    check_event_prefixes,
    close_under_intersection,
    order_building_set,
    validate_building_set,
)
from realwonder.errors import InputError
from realwonder.flags import CONJUGATION_SPACE, replace
from realwonder.models import _linear_factory, build_dcp, build_fm, SpaceData
from realwonder.subspaces import intersect, rnc_points, span_points


def linear_ambient(n):
    return Stratum(
        sid=AMBIENT_ID,
        dim_c=n,
        betti_c=gp.projective_betti(n, 2),
        betti_r=gp.projective_betti(n, 1),
        flags=CONJUGATION_SPACE,
    )


def close_linear(n, generators):
    return close_under_intersection(linear_ambient(n), generators, _linear_factory)


def test_closure_four_points():
    pts = rnc_points(2, [0, 1, 2, 3])
    arr = close_linear(2, [(f"p{i}", p) for i, p in enumerate(pts)])
    assert len(arr.strata) == 4
    assert all(arr.raw_meet(a, b) is None for a in arr.strata for b in arr.strata if a != b)


def test_closure_two_planes_adds_point():
    pts = rnc_points(4, [0, 1, 2, 3, 4, 5])
    u = span_points(pts[:3])
    v = span_points(pts[3:])
    arr = close_linear(4, [("u", u), ("v", v)])
    assert len(arr.strata) == 3
    assert "x1" in arr.strata
    assert arr.strata["x1"].dim_c == 0
    assert arr.meet("u", "v") == "x1"


def test_closure_diagonals_cube():
    space = SpaceData.projective_space(1)
    arr = build_fm(3, space)
    labels = set(arr.strata)
    assert labels == {"12", "13", "23", "123"}  # pairwise meets = small diagonal
    assert arr.meet("12", "13") == "123"


def test_closure_rejects_missing_conjugate():
    from realwonder.exact import GaussianRational as gq

    imag = rnc_points(2, [gq(0, 1)])[0]
    with pytest.raises(InputError):
        close_linear(2, [("p", imag)])


@pytest.mark.parametrize(
    "generators, namer, match",
    [
        ([("a", (1, 2))], None, "unsupported geometry tuple"),
        ([("a", (1, 2)), ("b", (3, 4))], None, "unsupported geometry tuple"),
        ([("a^b", "pt")], None, r"a\^b contains '\^'"),
        ([("u", "u"), ("v", "v")], lambda k, g: f"x^{k}", r"x\^1 contains '\^'"),
    ],
    ids=["lone-tuple", "two-tuples", "generator-id", "namer-id"],
)
def test_closure_rejects_bad_ids_and_geometries(generators, namer, match):
    """A generator id or namer result with '^' (the mark of a piece id)
    and a geometry of no supported type raise InputError, and nothing
    else, at the closure itself."""
    pts = rnc_points(4, [0, 1, 2, 3, 4, 5])
    named = {"pt": pts[0], "u": span_points(pts[:3]), "v": span_points(pts[3:])}
    generators = [(sid, named.get(g, g)) for sid, g in generators]
    with pytest.raises(InputError, match=match):
        close_under_intersection(linear_ambient(4), generators, _linear_factory, namer)


def test_validate_building_set_examples():
    pts = rnc_points(2, [0, 1, 2, 3])
    arr = close_linear(2, [(f"p{i}", p) for i, p in enumerate(pts)])
    arr = replace(arr, building_set=tuple(arr.strata))
    assert validate_building_set(arr) == []

    pts4 = rnc_points(4, [0, 1, 2, 3, 4, 5])
    u = span_points(pts4[:3])
    v = span_points(pts4[3:])
    arr = close_linear(4, [("u", u), ("v", v)])
    assert validate_building_set(arr, ["u", "v"]) == []  # 2+2 = 4 = codim of x

    # two planes meeting in a line: codim additivity fails
    w1 = span_points([pts4[0], pts4[1], pts4[2]])
    w2 = span_points([pts4[0], pts4[1], pts4[3]])
    arr = close_linear(4, [("w1", w1), ("w2", w2)])
    problems = validate_building_set(arr, ["w1", "w2"])
    assert problems and "transversal" in problems[0]


def test_order_building_set_nested():
    pts = rnc_points(4, [0, 1, 2, 3, 4])
    point = pts[0]
    line = span_points(pts[:2])
    plane = span_points(pts[:3])
    arr = close_linear(4, [("pt", point), ("line", line), ("plane", plane)])
    arr = replace(arr, building_set=("plane", "line", "pt"))
    ordered = check_event_prefixes(order_building_set(arr))
    assert ordered.events == (("pt",), ("line",), ("plane",))


def test_check_event_prefixes_rejects_a_bad_order():
    """Two lines through a point of P^3: the point comes first.  Put
    last, the prefix of the two lines lacks their meet, and the check
    names it."""
    p0, p1, p2 = rnc_points(3, [0, 1, 2])
    arr = build_dcp(3, [("l1", span_points([p0, p1])), ("l2", span_points([p0, p2]))])
    assert arr.events == (("x1",), ("l1",), ("l2",))
    assert check_event_prefixes(arr) is arr
    bad = replace(arr, events=(("l1",), ("l2",), ("x1",)))
    with pytest.raises(InputError) as exc:
        check_event_prefixes(bad)
    assert str(exc.value) == (
        "prefix 2 of the event order is not a building set: "
        "x1: not transversal (codims 4 != 3)"
    )


def test_order_groups_conjugate_pairs():
    from realwonder.exact import GaussianRational as gq

    pts = rnc_points(2, [gq(0), gq(0, 1), gq(0, -1)])
    arr = close_linear(2, [("a", pts[0]), ("b", pts[1]), ("c", pts[2])])
    arr = replace(arr, building_set=("a", "b", "c"))
    ordered = order_building_set(arr)
    assert ordered.events == (("a",), ("b", "c"))
    assert arr.strata["b"].partner == "c"


def test_meet_associativity_against_geometry():
    pts = rnc_points(3, [0, 1, 2, 3, 4])
    gens = [
        ("l01", span_points(pts[:2])),
        ("l02", span_points([pts[0], pts[2]])),
        ("l34", span_points(pts[3:])),
        ("plane", span_points(pts[:3])),
    ]
    arr = close_linear(3, gens)
    assert len(arr.strata) <= 12
    geom = {sid: s.geometry for sid, s in arr.strata.items()}
    for a, b, c in itertools.product(arr.strata, repeat=3):
        ab = arr.meet(a, b)
        bc = arr.meet(b, c)
        left = arr.meet(ab, c) if ab else None
        right = arr.meet(a, bc) if bc else None
        assert left == right
        # table meets agree with the geometry
        honest = intersect(geom[a], geom[b])
        if honest.is_empty:
            assert ab is None
        else:
            assert geom[ab] == honest
    for a in arr.strata:
        assert arr.meet(a, a) == a
        assert arr.meet(a, AMBIENT_ID) == a


def test_stratum_validate():
    s = Stratum(
        sid="s",
        dim_c=1,
        betti_c=gp.BettiVector([1, 0, 1]),
        betti_r=gp.BettiVector([1, 1]),
    )
    assert s.validate() == []
    bad = Stratum(
        sid="s",
        dim_c=1,
        betti_c=gp.BettiVector([1]),
        betti_r=gp.BettiVector([1, 1, 1]),
    )
    assert any("Smith" in p for p in bad.validate())
    lopsided = Stratum(
        sid="s",
        dim_c=1,
        betti_c=gp.BettiVector([1, 1]),
        betti_r=gp.BettiVector([1, 1]),
    )
    assert any("palindromic" in p for p in lopsided.validate())
