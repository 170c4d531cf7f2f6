import random

import pytest

from realwonder import gradedpoly as gp
from realwonder.arrangement import check_event_prefixes
from realwonder.engine import wonderful_run
from realwonder.errors import InputError
from realwonder.exact import GaussianRational as gq
from realwonder.models import (
    ModuliSpec,
    SpaceData,
    build_braid,
    build_dcp,
    build_fm,
    build_kt,
    build_moduli,
    build_ulyanov,
    moduli_parameters,
    parse_sigma,
)
from realwonder.subspaces import rnc_points, span_points
from realwonder.verification import _all_involutions_with_fix, _sigma_samples


# ---- sigma parsing and moduli specs ----------------------------------


def test_parse_sigma():
    assert parse_sigma("id", 5).sigma == (1, 2, 3, 4, 5)
    assert parse_sigma("(1 2)", 5).sigma == (2, 1, 3, 4, 5)
    assert parse_sigma("(1,2)(3 4)", 5).sigma == (2, 1, 4, 3, 5)
    for bad in ["(1 2 3)", "(1 2)(2 3)", "(0 1)", "nope", "(1 1)"]:
        with pytest.raises(InputError):
            parse_sigma(bad, 5)


def test_all_involutions_with_fix_makes_each_sigma_once():
    counts = []
    for n in range(3, 10):
        sigmas = [spec.sigma for spec in _all_involutions_with_fix(n)]
        assert sigmas[0] == tuple(range(1, n + 1))
        assert len(set(sigmas)) == len(sigmas)
        counts.append(len(sigmas))
    # involutions of 1..n with a fixed point: all of them, less the
    # fixed-point-free ones at even n
    assert counts == [4, 7, 26, 61, 232, 659, 2620]


def test_sigma_samples_are_unchanged():
    """The seeded picks of verify --suite full."""
    picked = [spec.sigma for spec in _sigma_samples(6, random.Random(4), 2)]
    assert picked == [
        (1, 2, 3, 4, 5, 6),
        (2, 1, 3, 4, 5, 6),
        (6, 2, 3, 4, 5, 1),
        (2, 1, 4, 3, 5, 6),
        (5, 6, 3, 4, 1, 2),
    ]


def test_moduli_spec_validation():
    with pytest.raises(InputError):
        ModuliSpec(n=4, sigma=(2, 1, 4, 3))  # no fixed point
    with pytest.raises(InputError):
        ModuliSpec(n=3, sigma=(2, 3, 1))  # not an involution
    with pytest.raises(InputError):
        ModuliSpec(n=2, sigma=(1, 2))


def test_moduli_parameters_pairing():
    spec, params = moduli_parameters(parse_sigma("(1 2)", 5))
    assert params[0].conjugate() == params[1]
    assert params[2].im == 0 and params[3].im == 0
    # a sigma moving the last marked point is relabeled first
    spec2, _ = moduli_parameters(parse_sigma("(4 5)", 5))
    assert spec2.sigma[4] == 5


def test_relabel_fixing_last_chooses_the_fixed_point():
    from realwonder.models import _relabel_fixing_last

    spec = parse_sigma("(1 5)", 5)
    assert _relabel_fixing_last(spec) == _relabel_fixing_last(spec, 2)
    assert _relabel_fixing_last(spec, 3).sigma == (3, 2, 1, 4, 5)
    fixing = parse_sigma("(1 2)", 5)
    assert _relabel_fixing_last(fixing, 3) == fixing  # swaps two fixed points
    with pytest.raises(InputError, match="not fixed"):
        _relabel_fixing_last(spec, 1)


def test_moduli_n5_structure():
    arr = build_moduli(parse_sigma("(1 2)", 5))
    assert arr.strata["s1"].partner == "s2"
    assert arr.strata["s3"].partner is None
    assert arr.events == (("s1", "s2"), ("s3",), ("s4",))


def test_moduli_n6_event_counts():
    arr = build_moduli(parse_sigma("id", 6))
    dims = [arr.strata[ev[0]].dim_c for ev in arr.events]
    assert dims.count(0) == 5 and dims.count(1) == 10  # points then lines
    assert dims == sorted(dims)


def test_moduli_param_independence():
    spec = parse_sigma("id", 5)
    a = wonderful_run(build_moduli(spec, backend="linear", real_params=[0, 1, 2, 3]))
    b = wonderful_run(build_moduli(spec, backend="linear", real_params=[7, -2, 5, 9]))
    assert a.betti_c == b.betti_c and a.betti_r == b.betti_r


def test_moduli_rejects_degenerate_params():
    with pytest.raises(InputError):
        build_moduli(parse_sigma("id", 5), backend="linear", real_params=[0, 1, 2, 2])


def test_moduli_backend_boundary():
    spec = parse_sigma("(1 2)", 5)
    with pytest.raises(InputError, match="unknown moduli backend"):
        build_moduli(spec, backend="numeric")
    with pytest.raises(InputError, match="real_params"):
        build_moduli(spec, real_params=[0, 1])
    with pytest.raises(InputError, match="real_params"):
        build_moduli(spec, backend="partition", real_params=[0, 1])


def test_moduli_default_path_has_no_linear_algebra(monkeypatch):
    import realwonder.models as models
    import realwonder.subspaces as subspaces

    calls = {"rref": 0, "rnc_points": 0, "linear_rank": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(subspaces, name))
        monkeypatch.setattr(subspaces, name, wrapped)
        if hasattr(models, name):
            monkeypatch.setattr(models, name, wrapped)
    res = wonderful_run(build_moduli(parse_sigma("id", 7)))
    assert list(res.betti_r) == [1, 42, 127, 42, 1]  # Keel's recursion
    assert calls == {"rref": 0, "rnc_points": 0, "linear_rank": 0}
    # the counters see the linear path
    wonderful_run(build_moduli(parse_sigma("id", 6), backend="linear"))
    assert all(count > 0 for count in calls.values())


def test_moduli_tiny_n():
    res3 = wonderful_run(build_moduli(parse_sigma("id", 3)))
    assert res3.betti_c == [1] and res3.betti_r == [1]  # a point
    res4 = wonderful_run(build_moduli(parse_sigma("(1 2)", 4)))
    assert res4.betti_c == [1, 0, 1] and res4.betti_r == [1, 1]


@pytest.mark.parametrize("n", [3, 4])
def test_moduli_small_n_on_the_general_path(n):
    """M̅0,3 and M̅0,4 are P^0 and P^1 blown up nowhere: for every sigma
    with a fixed point both backends give the same arrangement, with no
    strata and no events."""
    for spec in _all_involutions_with_fix(n):
        arr = build_moduli(spec)
        assert arr == build_moduli(spec, backend="linear")
        assert arr.ambient.dim_c == n - 3
        assert arr.strata == {} and arr.table == {} and arr.events == ()
        assert arr.stretched.value == "yes"
        assert arr.flag_axioms == (("ambient", "projective space with standard conjugation"),)


def test_moduli_n4_rejects_repeated_params():
    with pytest.raises(InputError, match="repeated rational normal curve parameter 0"):
        build_moduli(parse_sigma("id", 4), backend="linear", real_params=[0, 0, 1])


# ---- DCP --------------------------------------------------------------


def test_dcp_four_points_matches_moduli():
    pts = rnc_points(2, [0, 1, 2, 3])
    arr = build_dcp(2, [(f"p{i}", p) for i, p in enumerate(pts)])
    res = wonderful_run(arr)
    assert gp.total(res.betti_r) == 7
    assert res.verdict == "ConjugationSpace"


def test_dcp_nested_line_and_point():
    pts = rnc_points(3, [0, 1, 2, 3])
    arr = build_dcp(3, [("pt", pts[0]), ("line", span_points(pts[:2]))])
    res = wonderful_run(arr)
    assert res.verdict == "ConjugationSpace"
    assert res.deficiency == 0


def test_dcp_single_conjugate_pair_in_p3():
    pts = rnc_points(3, [gq(0, 1), gq(0, -1)])
    arr = build_dcp(3, [("p", pts[0]), ("q", pts[1])])
    res = wonderful_run(arr)
    # Eq. deficiency-blowup with d = 3: a = (3-1) * 2 = 4
    assert res.deficiency == 4
    assert res.flags.maximal.value == "no"
    assert res.verdict == "EffectiveGaloisMaximal"
    assert res.betti_r == gp.projective_betti(3, 1)


def test_dcp_completes_building_set():
    # two planes meeting in a line: the line is added before the planes
    pts = rnc_points(4, [0, 1, 2, 3, 4])
    w1 = span_points([pts[0], pts[1], pts[2]])
    w2 = span_points([pts[0], pts[1], pts[3]])
    arr = check_event_prefixes(build_dcp(4, [("w1", w1), ("w2", w2)]))
    assert len(arr.building_set) > 2
    assert arr.events[0] not in (("w1",), ("w2",))
    res = wonderful_run(arr)
    assert res.verdict == "ConjugationSpace"


def test_dcp_rejects_bad_generators():
    pts = rnc_points(2, [0, 1])
    with pytest.raises(InputError):
        build_dcp(2, [("a", pts[0]), ("b", pts[0])])
    with pytest.raises(InputError):
        build_dcp(3, [("a", pts[0])])  # ambient mismatch


# ---- configuration models ---------------------------------------------


def test_space_data_validation():
    with pytest.raises(InputError):
        SpaceData(name="bad", dim_c=1, betti_c=gp.BettiVector([1, 0, 1]),
                  betti_r=gp.BettiVector([1, 1, 1, 1]))
    with pytest.raises(InputError):
        SpaceData(name="bad", dim_c=1, betti_c=gp.BettiVector([1, 1]),
                  betti_r=gp.BettiVector([1, 1]))  # complex not palindromic
    s = SpaceData.from_dict(SpaceData.ellipsoid().to_dict())
    assert s == SpaceData.ellipsoid()


def test_fm_values():
    res = wonderful_run(build_fm(2, SpaceData.projective_space(2)))
    assert gp.total(res.betti_c) == 12 == gp.total(res.betti_r)
    assert res.verdict == "ConjugationSpace"
    res = wonderful_run(check_event_prefixes(build_fm(3, SpaceData.projective_space(1))))
    assert gp.total(res.betti_c) == 10 == gp.total(res.betti_r)


def test_fm_codim_one_diagonals_excluded():
    arr = build_fm(3, SpaceData.projective_space(1))
    assert set(arr.building_set) == {"12", "13", "23", "123"}
    assert arr.events == (("123",),)  # pairwise diagonals have codim 1


def test_ulyanov_building_is_all_polydiagonals():
    arr = build_ulyanov(3, SpaceData.projective_space(1))
    assert set(arr.building_set) == {"12", "13", "23", "123"}
    arr4 = build_ulyanov(4, SpaceData.projective_space(1))
    assert "12|34" in arr4.building_set


def test_ulyanov_dominates_fm_degreewise():
    x = SpaceData.projective_space(1)
    fm = wonderful_run(build_fm(4, x))
    ul = wonderful_run(build_ulyanov(4, x))
    for i in range(len(fm.betti_c)):
        assert fm.betti_c[i] <= ul.betti_c[i]
    for i in range(len(fm.betti_r)):
        assert fm.betti_r[i] <= ul.betti_r[i]


def test_theorem_c_flag_transfer():
    ell = SpaceData.ellipsoid()
    for build in (build_fm, build_ulyanov):
        res = wonderful_run(build(2, ell))
        assert res.flags.effective.value == "yes"
        assert res.flags.galois_maximal.value == "yes"
        assert res.flags.maximal.value == "no"
        assert res.verdict == "EffectiveGaloisMaximal"


def test_empty_real_locus_space():
    no_real = SpaceData(
        name="pointless",
        dim_c=1,
        betti_c=gp.BettiVector([1, 0, 1]),
        betti_r=gp.ZERO,
        real_nonempty=False,
    )
    res = wonderful_run(build_fm(3, no_real))
    assert gp.total(res.betti_r) == 0
    assert res.deficiency == gp.total(res.betti_c)


def test_kt_user_building_set():
    x = SpaceData.projective_space(1)
    arr = build_kt(3, x, [[[1, 2, 3]]])
    assert arr.events == (("123",),)
    with pytest.raises(InputError):
        # the small diagonal is the non-transversal meet of these two
        build_kt(4, x, [[[1, 2, 3]], [[1, 2, 4]]])


def test_kt_valid_polydiagonal_choice():
    x = SpaceData.projective_space(2)
    arr = build_kt(3, x, [[[1, 2]], [[1, 2, 3]]])
    res = wonderful_run(arr)
    assert res.verdict == "ConjugationSpace"


def test_dcp_random_mixed_pairs():
    """Randomized arrangements mixing real spans and conjugate pairs:
    every run either completes with the exact identities or trips the
    honest guard.  Also a regression for building-set completion when a
    violator and its partner are both violating."""
    import random
    from realwonder.errors import RealWonderError, UnsupportedExcessIntersection
    from realwonder.subspaces import rnc_points, span_points

    rng = random.Random(123)
    completed = 0
    for trial in range(60):
        ambient_dim = rng.choice([3, 4])
        params = [gq(t) for t in rng.sample(range(-9, 10), rng.randint(2, ambient_dim + 2))]
        for k in range(rng.randint(0, 2)):
            a = rng.randint(1, 5)
            params += [gq(a, k + 1), gq(a, -(k + 1))]
        pts = rnc_points(ambient_dim, params)
        subsets = set()
        for _ in range(rng.randint(2, 5)):
            size = min(rng.randint(1, ambient_dim - 1), len(pts))
            subsets.add(tuple(sorted(rng.sample(range(len(pts)), size))))
        gens = {}
        for s in sorted(subsets):
            gens["g" + ".".join(map(str, s))] = span_points([pts[i] for i in s])
        for name, subspace in list(gens.items()):
            cj = subspace.conjugate()
            if cj not in set(gens.values()):
                gens[name + "c"] = cj
        try:
            res = wonderful_run(build_dcp(ambient_dim, sorted(gens.items())))
        except UnsupportedExcessIntersection:
            continue
        completed += 1
        assert res.deficiency == gp.total(res.betti_c) - gp.total(res.betti_r)
        assert gp.is_palindromic(res.betti_c, 2 * ambient_dim)
    assert completed >= 50


# ---- braid twins -------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_braid_twins_agree(n):
    rp = wonderful_run(build_braid(n, "partition"))
    rl = wonderful_run(build_braid(n, "linear"))
    assert rp.betti_c == rl.betti_c
    assert rp.betti_r == rl.betti_r
    assert len(rp.traces) == len(rl.traces)
    for tp, tl in zip(rp.traces, rl.traces):
        assert tp == tl


def test_braid_backend_validation():
    with pytest.raises(InputError):
        build_braid(4, "numeric")
    with pytest.raises(InputError):
        build_braid(2, "partition")
