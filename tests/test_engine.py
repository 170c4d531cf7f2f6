from dataclasses import replace

import pytest

from realwonder import gradedpoly as gp
from realwonder.arrangement import AMBIENT_ID, UNRESOLVED, RetiredRow
from realwonder.engine import (
    CENTER,
    CONTAINS,
    DISJOINT,
    INSIDE,
    PROPER,
    _case_of_meet,
    blow_up_step,
    wonderful_run,
)
from realwonder.errors import (
    EngineError,
    InternalCheckError,
    UnsupportedExcessIntersection,
)
from realwonder.exact import GaussianRational as gq
from realwonder.models import SpaceData, build_dcp, build_fm, build_moduli, parse_sigma
from realwonder.report import build_report, to_v1
from realwonder.subspaces import rnc_points, span_points

from conftest import check_born_retired, fixed_dcp, point, reference_step


def classify_case(arr, sid, cid):
    """Position of stratum sid relative to the blow-up center cid, read
    from the full intersection table: the dense reference for the
    sparse classification of a step."""
    if sid == cid:
        return CENTER
    return _case_of_meet(sid, cid, arr.meet(sid, cid))


def dcp(ambient_dim, named_subsets, params=None, **kwargs):
    params = params if params is not None else list(range(ambient_dim + 2))
    pts = rnc_points(ambient_dim, params)
    gens = [
        (name, span_points([pts[i] for i in subset]))
        for name, subset in named_subsets
    ]
    return build_dcp(ambient_dim, gens, **kwargs)


def test_classify_examples():
    arr = dcp(4, [("pt", [0]), ("line", [0, 1]), ("plane2", [2, 3, 4])])
    assert classify_case(arr, "line", "pt") == CONTAINS
    assert classify_case(arr, "pt", "line") == INSIDE
    assert classify_case(arr, "pt", "pt") == "Center"
    assert classify_case(arr, "plane2", "pt") == DISJOINT
    arr2 = dcp(4, [("plane", [0, 1, 2]), ("line", [0, 3])])
    # line not inside the plane, meeting it in one point
    assert classify_case(arr2, "line", "plane") == PROPER


def test_blowup_real_point_in_p2():
    arr = dcp(2, [("pt", [0])])
    out, trace = blow_up_step(arr)
    assert out.ambient.betti_c == [1, 0, 2, 0, 1]
    assert out.ambient.betti_r == [1, 2, 1]
    assert trace.deficiency_after == 0
    assert gp.euler(out.ambient.betti_c) == 4


def test_blowup_conjugate_pair_in_p2():
    pts = rnc_points(2, [gq(0, 1), gq(0, -1)])
    arr = build_dcp(2, [("p", pts[0]), ("q", pts[1])])
    assert arr.events == (("p", "q"),)
    out, trace = blow_up_step(arr)
    assert out.ambient.betti_c == [1, 0, 3, 0, 1]
    assert out.ambient.betti_r == [1, 1, 1]  # real locus untouched
    assert trace.deficiency_after == 2  # 0 + (2-1)*2


def test_lines_through_point_separate():
    arr = dcp(3, [("pt", [0]), ("l1", [0, 1]), ("l2", [0, 2])])
    assert arr.meet("l1", "l2") == "pt"
    out, _ = blow_up_step(arr)  # blow up the point
    assert out.meet("l1", "l2") is None
    # and the exceptional pieces over the point are disjoint too
    assert out.meet("l1^pt", "l2^pt") is None
    assert out.meet("l1^pt", "pt") == "l1^pt"


def test_center_becomes_projectivized_bundle():
    arr = dcp(3, [("line", [0, 1])])
    out, trace = blow_up_step(arr)
    e = out.strata["line"]
    assert e.dim_c == 2
    assert e.betti_c == gp.kunneth([1, 0, 1], gp.bundle_factor(2, 2))
    assert e.betti_r == gp.kunneth([1, 1], gp.bundle_factor(2, 1))


def test_nested_planes_run_with_hand_recursion():
    """Two transversal planes through a non-building point in P^4; the
    expected vectors are recomputed here by the degree-shift recursion."""
    arr = dcp(4, [("u", [0, 1, 2]), ("v", [3, 4, 5])])
    assert set(arr.building_set) == {"u", "v"}  # the point is covered
    res = wonderful_run(arr)

    p4 = gp.projective_betti(4, 2)
    pu = gp.projective_betti(2, 2)
    after_u = gp.add(p4, gp.blowup_terms(pu, 2, 2))
    pv = gp.add(pu, gp.blowup_terms(gp.POINT, 2, 2))  # v picks up the point
    expected_c = gp.add(after_u, gp.blowup_terms(pv, 2, 2))
    assert res.betti_c == expected_c

    r4 = gp.projective_betti(4, 1)
    qu = gp.projective_betti(2, 1)
    after_u_r = gp.add(r4, gp.blowup_terms(qu, 2, 1))
    qv = gp.add(qu, gp.blowup_terms(gp.POINT, 2, 1))
    expected_r = gp.add(after_u_r, gp.blowup_terms(qv, 2, 1))
    assert res.betti_r == expected_r
    assert res.verdict == "ConjugationSpace"
    assert res.deficiency == 0


def test_moduli_n6_hand_recursion():
    """P^3 + 5 points * t^2(1+t^2) + 10 lines * t^2(1+t^2)."""
    res = wonderful_run(build_moduli(parse_sigma("id", 6)))
    expected = gp.projective_betti(3, 2)
    for _ in range(5):
        expected = gp.add(expected, gp.blowup_terms(gp.POINT, 3, 2))
    for _ in range(10):
        expected = gp.add(expected, gp.blowup_terms(gp.BettiVector([1, 0, 1]), 2, 2))
    assert res.betti_c == expected == [1, 0, 16, 0, 16, 0, 1]

    expected_r = gp.projective_betti(3, 1)
    for _ in range(5):
        expected_r = gp.add(expected_r, gp.blowup_terms(gp.POINT, 3, 1))
    for _ in range(10):
        expected_r = gp.add(expected_r, gp.blowup_terms(gp.BettiVector([1, 1]), 2, 1))
    assert res.betti_r == expected_r == [1, 16, 16, 1]


def test_moduli_n7_combinatorial_totals():
    """Independent count: total grows by (d-1)*total(center) per event.
    Points contribute 6*3*1; lines 15*2*2; each plane carries P^2 blown
    at its 3 points plus one extra class per earlier disjoint plane
    (the 10 transversal plane pairs contribute once each):
    5 + 18 + 60 + (20*6 + 10) = 213."""
    res = wonderful_run(build_moduli(parse_sigma("id", 7)))
    assert gp.total(res.betti_c) == 5 + 18 + 60 + 130 == 213
    # second Betti number of the moduli space: 2^(n-1) - 1 - n(n-1)/2
    assert res.betti_c[2] == 2 ** 6 - 1 - 21 == 42
    assert res.verdict == "ConjugationSpace"


def test_moduli_n8_literature_values():
    """Deep-stack validation: the 8-pointed moduli space has total
    F2-Betti number 1630 and b2 = 2^7 - 1 - 28 = 99 (classical values);
    the run involves ~3500 strata over 98 events."""
    res = wonderful_run(build_moduli(parse_sigma("id", 8)))
    assert res.betti_c == [1, 0, 99, 0, 715, 0, 715, 0, 99, 0, 1]
    assert gp.total(res.betti_c) == 1630 == gp.total(res.betti_r)
    assert res.verdict == "ConjugationSpace"


def test_moduli_n7_intersecting_pair_real_locus():
    """sigma with three 2-cycles: the conjugate plane pairs meet at
    invariant points, and the real locus gains one degree-2 class per
    such event.  Hand count: RP^4 (5) + three invariant lines (2*2 each)
    + four touching plane pairs (1 each) = 21."""
    res = wonderful_run(build_moduli(parse_sigma("(1 2)(3 4)(5 6)", 7)))
    assert gp.total(res.betti_c) == 213
    assert gp.total(res.betti_r) == 5 + 12 + 4 == 21
    assert res.deficiency == 192
    assert res.verdict == "Indeterminate"  # paper rules do not cover it
    assert gp.is_palindromic(res.betti_r, 4)


def test_unsupported_excess_raises():
    """Two planes through q blown along a line through q they do not
    contain: the transforms share a direction, which the table rules
    reject honestly.  The invalid building set is forced by hand."""
    pts = rnc_points(4, list(range(6)))
    gens = [
        ("b", span_points([pts[0], pts[5]])),
        ("u", span_points([pts[0], pts[1], pts[2]])),
        ("v", span_points([pts[0], pts[3], pts[4]])),
    ]
    from realwonder.arrangement import close_under_intersection, Stratum
    from realwonder.models import _linear_factory
    from realwonder.flags import CONJUGATION_SPACE

    ambient = Stratum(
        sid=AMBIENT_ID,
        dim_c=4,
        betti_c=gp.projective_betti(4, 2),
        betti_r=gp.projective_betti(4, 1),
        flags=CONJUGATION_SPACE,
    )
    arr = close_under_intersection(ambient, gens, _linear_factory)
    arr = replace(arr, building_set=("b",), events=(("b",),))
    with pytest.raises(
        UnsupportedExcessIntersection,
        match=r"^transforms of u and v at center b: transforms still meet "
        r"after the blow-up \(excess cone dim 1\)$",
    ):
        blow_up_step(arr)


def test_unsupported_excess_raises_on_partitions():
    """The partition analogue: the diagonals 12 and 234 of (P^1)^4 both
    meet the center 134 properly, in the small diagonal, and their
    transforms keep a shared direction.  The event is forced by hand."""
    from realwonder.models import _config_arrangement
    from realwonder.partitions import SetPartition

    gens = [SetPartition(4, [b]) for b in ([1, 2], [1, 3, 4], [2, 3, 4])]
    arr = _config_arrangement(4, SpaceData.projective_space(1), gens)
    arr = replace(arr, building_set=("134",), events=(("134",),))
    assert classify_case(arr, "12", "134") == PROPER
    assert classify_case(arr, "234", "134") == PROPER
    with pytest.raises(
        UnsupportedExcessIntersection,
        match=r"^transforms of 12 and 234 at center 134: transforms still "
        r"meet after the blow-up \(excess cone dim 1\)$",
    ):
        blow_up_step(arr)


def test_separation_without_geometry_raises():
    """The planes of test_unsupported_excess_raises with the geometry of
    v dropped by hand: the transforms of u and v meet inside the center
    and no shadow is left to decide whether they separate."""
    pts = rnc_points(4, list(range(6)))
    gens = [
        ("b", span_points([pts[0], pts[5]])),
        ("u", span_points([pts[0], pts[1], pts[2]])),
        ("v", span_points([pts[0], pts[3], pts[4]])),
    ]
    arr = _manual_linear_arrangement(4, gens)
    strata = dict(arr.strata)
    strata["v"] = replace(strata["v"], geometry=None)
    arr = replace(arr, strata=strata, building_set=("b",), events=(("b",),))
    with pytest.raises(
        UnsupportedExcessIntersection,
        match=r"^transforms u and v meet inside center b and no geometry is "
        r"available to separate them$",
    ):
        blow_up_step(arr)


def _manual_linear_arrangement(ambient_dim, gens):
    from realwonder.arrangement import Stratum, close_under_intersection
    from realwonder.flags import CONJUGATION_SPACE
    from realwonder.models import _linear_factory

    ambient = Stratum(
        sid=AMBIENT_ID,
        dim_c=ambient_dim,
        betti_c=gp.projective_betti(ambient_dim, 2),
        betti_r=gp.projective_betti(ambient_dim, 1),
        flags=CONJUGATION_SPACE,
    )
    return close_under_intersection(ambient, gens, _linear_factory)


def test_touching_pair_guard_invariant_bystander():
    """A conjugate pair of planes meeting at a real point, with an
    invariant line through that point: outside the analyzed scope."""
    def pt(*coords):
        return point([gq(*c) if isinstance(c, tuple) else gq(c) for c in coords])

    w = pt(1, 0, 0, 0, 0)
    u = span_points([w, pt(0, 1, 0, (0, 1), 0), pt(0, 0, 1, 0, (0, 1))])
    ubar = u.conjugate()
    line = span_points([w, pt(0, 1, 0, 0, 0)])
    arr = _manual_linear_arrangement(4, [("u", u), ("ubar", ubar), ("l", line)])
    arr = replace(arr, building_set=("u", "ubar"), events=(("u", "ubar"),))
    with pytest.raises(UnsupportedExcessIntersection):
        blow_up_step(arr)


def test_touching_pair_guard_nontransversal():
    """Conjugate planes through a common real line meet
    non-transversally; the real correction does not apply."""
    def pt(*coords):
        return point([gq(*c) if isinstance(c, tuple) else gq(c) for c in coords])

    a = pt(1, 0, 0, 0, 0, 0)
    b = pt(0, 1, 0, 0, 0, 0)
    u = span_points([a, b, pt(0, 0, 1, (0, 1), 0, 0)])
    arr = _manual_linear_arrangement(5, [("u", u), ("ubar", u.conjugate())])
    arr = replace(arr, building_set=("u", "ubar"), events=(("u", "ubar"),))
    with pytest.raises(UnsupportedExcessIntersection):
        blow_up_step(arr)


def test_minimality_enforced():
    arr = dcp(3, [("pt", [0]), ("line", [0, 1])])
    broken = type(arr)(
        ambient=arr.ambient,
        strata=arr.strata,
        table=arr.table,
        building_set=arr.building_set,
        events=(("line",), ("pt",)),
        stretched=arr.stretched,
    )
    with pytest.raises(EngineError):
        wonderful_run(broken)


def test_minimality_enforced_at_the_step():
    """blow_up_step itself rejects a center that contains a remaining
    event stratum, and a center whose meet with one is unresolved."""
    arr = dcp(3, [("pt", [0]), ("line", [0, 1])])
    broken = replace(arr, events=(("line",), ("pt",)))
    with pytest.raises(EngineError, match="line is not minimal: contains pt"):
        blow_up_step(broken)
    table = {sid: dict(row) for sid, row in arr.table.items()}
    table["line"]["pt"] = table["pt"]["line"] = UNRESOLVED
    with pytest.raises(UnsupportedExcessIntersection, match="pt and line is not representable"):
        blow_up_step(replace(broken, table=table))


def test_trace_contents():
    arr = dcp(2, [("pt", [0])])
    res = wonderful_run(arr)
    (trace,) = res.traces
    assert trace.event == ("pt",)
    assert trace.codim == 2
    assert trace.cases["pt"] == ("Center",)
    assert trace.event_defi == 0
    assert trace.betti_c_before == [1, 0, 1, 0, 1]
    assert trace.betti_c_after == [1, 0, 2, 0, 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_moduli(parse_sigma("(1 2)", 6)),
        lambda: build_fm(4, SpaceData.projective_space(1)),
        fixed_dcp,
    ],
    ids=["moduli-n6-(1 2)", "fm-n4-P1", "dcp-fixed"],
)
def test_trace_cases_are_the_canonical_tuples(build):
    """Each StepTrace.cases value is one of the 30 label tuples the
    engine builds at import, so a run holds one copy of each."""
    from realwonder import engine

    assert len(engine._CASES) == 5 + 5 * 5
    labels = [lab for trace in wonderful_run(build()).traces for lab in trace.cases.values()]
    assert labels and all(lab is engine._CASES[lab] for lab in labels)


@pytest.mark.parametrize(
    "build, has_pairs",
    [
        (lambda: build_moduli(parse_sigma("(1 2)", 6)), True),
        (lambda: build_fm(4, SpaceData.projective_space(1)), False),
        (fixed_dcp, True),
    ],
    ids=["moduli-n6-(1 2)", "fm-n4-P1", "dcp-fixed"],
)
def test_sparse_cases_match_classification(build, has_pairs):
    """The v1 report's dense cases equal classify_case on every stratum
    present before each event (for a pair, against the second center
    on the arrangement after the first), and the trace records no
    stratum that every center of its event missed.  A piece the bare
    chain retired at birth is Disjoint from every later center: its
    reference row names no later event stratum (check_born_retired)."""
    from realwonder import engine

    res = wonderful_run(build())
    steps = to_v1(build_report({}, res))["steps"]
    assert len(steps) == len(res.traces)
    arr = build()
    pairs = 0
    dead = set()

    def case(a, sid, cid):
        return DISJOINT if sid in dead else classify_case(a, sid, cid)

    for k, trace in enumerate(res.traces):
        event = arr.events[0]
        expected = {sid: [case(arr, sid, event[0])] for sid in arr.strata}
        if len(event) == 2:
            pairs += 1
            mid, _, _ = engine._elementary(arr, event[0], set(arr.strata))
            for sid in mid.strata:
                expected.setdefault(sid, []).append(case(mid, sid, event[1]))
        assert steps[k]["cases"] == expected
        assert all(set(labels) != {DISJOINT} for labels in trace.cases.values())
        assert all(len(labels) == len(event) for labels in trace.cases.values())
        reference, _ = reference_step(arr)
        arr, step_trace = blow_up_step(arr)
        dead |= check_born_retired(arr, step_trace, reference)
    assert bool(pairs) == has_pairs


def _touching_dcp(ambient_dim, reals, zs):
    """span(reals + zs) and its conjugate, which meet transversally in
    the real span(reals); the engine resolves the pair."""
    pts = rnc_points(ambient_dim, [gq(r) for r in reals] + [gq(*z) for z in zs])
    a = span_points(pts)
    return build_dcp(ambient_dim, [("A", a), ("Abar", a.conjugate())])


def _record_footprint(before, after, trace):
    """The strata a step's records name: the centers, the strata they
    touched, the pieces they made and a pair's meet, with the partners
    of all of these before and after the step."""
    event = trace.event
    named = set(event).union(trace.cases, trace.new_strata)
    wid = before.raw_meet(*event) if len(event) == 2 else None
    if wid is not None:
        named.add(wid)
    linked = set(named)
    for sid in named:
        for s in (before.strata.get(sid), after.strata[sid]):
            if s is not None and s.partner is not None:
                linked.add(s.partner)
    return linked


@pytest.mark.parametrize(
    "build, touching",
    [
        (lambda: build_moduli(parse_sigma("(1 2)", 6)), False),
        (lambda: build_fm(4, SpaceData.projective_space(1)), False),
        (fixed_dcp, False),
        (lambda: _touching_dcp(4, [0], [(1, 1), (2, 1)]), True),
        (lambda: _touching_dcp(5, [0, 1], [(1, 1), (3, 2)]), True),
    ],
    ids=["moduli-n6-(1 2)", "fm-n4-P1", "dcp-fixed", "touch-p4", "touch-p5"],
)
def test_step_records_equal_changed_strata(build, touching):
    """A step's records name exactly the strata it replaced or made, with
    their partners: the set the step check finds by comparing every
    stratum with the one before the step.  A schema-v2 report, which
    keeps only these records, therefore loses nothing."""
    from realwonder import engine

    arr = build()
    pairs_met = 0
    while arr.events:
        event = arr.events[0]
        if len(event) == 2 and arr.raw_meet(*event) is not None:
            pairs_met += 1
        after, trace = blow_up_step(arr)
        assert set(engine._changed_strata(arr, after)) == _record_footprint(arr, after, trace)
        arr = after
    assert bool(pairs_met) == touching


def test_empty_run():
    res = wonderful_run(build_moduli(parse_sigma("id", 4)))
    assert res.traces == ()
    assert res.betti_c == [1, 0, 1]
    assert res.verdict == "ConjugationSpace"


def test_separation_memo_is_per_run(monkeypatch):
    """Each run decides its separations afresh: a second identical run in
    the same process decides as many separation outcomes as the first."""
    from realwonder import engine
    from realwonder.models import SpaceData, build_fm

    calls = []
    original = engine._separation_outcome

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, "_separation_outcome", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        wonderful_run(build_fm(4, SpaceData.projective_space(1)))
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_payload_memo_is_per_run(monkeypatch):
    """Each run computes its payload transitions and stratum checks
    afresh: a second identical run in the same process does the same
    payload work as the first, and the run's result carries no memo."""
    from collections import Counter

    from realwonder import arrangement

    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("add", "kunneth", "blowup_terms", "bundle_factor"):
        monkeypatch.setattr(gp, name, counted(name, getattr(gp, name)))
    monkeypatch.setattr(
        arrangement,
        "payload_problems",
        counted("payload_problems", arrangement.payload_problems),
    )
    counts = []
    for _ in range(2):
        calls.clear()
        res = wonderful_run(build_moduli(parse_sigma("(1 2)", 6)))
        counts.append(Counter(calls))
        assert res.arrangement.memo is None
    assert set(counts[0]) == {
        "add", "kunneth", "blowup_terms", "bundle_factor", "payload_problems"
    }
    assert counts[0] == counts[1]


def test_payload_memo_computes_each_value_once():
    from realwonder.arrangement import PayloadMemo, Stratum

    memo = PayloadMemo()
    calls = []

    def kunneth(p, q):
        calls.append((p, q))
        return gp.kunneth(p, q)

    fiber = gp.bundle_factor(3, 2)
    first = memo.call(kunneth, gp.BettiVector([1, 0, 1]), fiber)
    again = memo.call(kunneth, gp.BettiVector([1, 0, 1]), fiber)
    assert first is again and len(calls) == 1
    good = Stratum("a", 1, gp.BettiVector([1, 0, 1]), gp.BettiVector([1, 1]))
    bad = replace(good, sid="b", betti_c=gp.BettiVector([1, 0, 3]), betti_r=gp.BettiVector([5]))
    for s in (good, bad, replace(bad, sid="c"), replace(good, sid="d")):
        assert memo.validate(s) == s.validate()
    assert memo.validate(bad) == [
        "b: Smith inequality violated (5 > 4)",
        "b: total Betti parity violated",
        "b: complex Betti not palindromic",
        "b: real Betti not palindromic",
    ]
    assert len(memo.problems) == 2


def _corrupt_at_step(monkeypatch, arr, k, pick, corrupt):
    """Run arr with stratum pick(out, cls, cid) replaced by
    corrupt(stratum) inside step k; return the error and the arrangement
    the failing step check saw."""
    from realwonder import engine

    steps = []
    checked = []
    picked = []
    step, elementary, check = engine.blow_up_step, engine._elementary, engine._check_step

    def counting_step(a):
        steps.append(a.events[0])
        return step(a)

    def corrupting(a, cid, later):
        out, cls, created = elementary(a, cid, later)
        if len(steps) == k and not picked:
            sid = pick(out, cls, cid)
            picked.append(sid)
            strata = dict(out.strata)
            strata[sid] = corrupt(strata[sid])
            out = replace(out, strata=strata)
        return out, cls, created

    def capturing(before, after, trace):
        checked.append(after)
        return check(before, after, trace)

    monkeypatch.setattr(engine, "blow_up_step", counting_step)
    monkeypatch.setattr(engine, "_elementary", corrupting)
    monkeypatch.setattr(engine, "_check_step", capturing)
    with pytest.raises(InternalCheckError) as info:
        wonderful_run(arr)
    assert len(steps) == k and len(checked) == k and picked
    return str(info.value), checked[-1], picked[0]


@pytest.mark.parametrize("k", [1, 4, 9])
def test_changed_strata_check_catches_corrupt_payload(monkeypatch, k):
    """A payload broken at step k stops the run at step k, with the
    problems a full validate_strata finds."""

    def off_by_two(s):
        return replace(s, betti_c=gp.add(s.betti_c, gp.BettiVector([2])))

    message, arr, sid = _corrupt_at_step(
        monkeypatch,
        build_moduli(parse_sigma("id", 6)),
        k,
        lambda out, cls, cid: cid,
        off_by_two,
    )
    full = arr.validate_strata()
    assert full == [f"{sid}: complex Betti not palindromic"]
    assert message.split("; ") == full


def test_changed_strata_check_rechecks_partner(monkeypatch):
    """A paired stratum changed at a step it is otherwise untouched by
    is caught through the partner-payload check, which reads its
    unchanged mate as well."""

    def untouched_pair_member(out, cls, cid):
        return min(
            sid
            for sid, s in out.strata.items()
            if sid not in cls
            and s.partner is not None
            and s.partner not in cls
        )

    def doubled(s):
        return replace(s, betti_c=gp.BettiVector([2 * c for c in s.betti_c]))

    message, arr, sid = _corrupt_at_step(
        monkeypatch,
        build_moduli(parse_sigma("(1 2)", 6)),
        2,
        untouched_pair_member,
        doubled,
    )
    mate = arr.strata[sid].partner
    full = arr.validate_strata()
    assert sorted(full) == sorted(
        [f"{sid}: partner payload mismatch", f"{mate}: partner payload mismatch"]
    )
    assert message.split("; ") == full


def _table_models():
    """Small runs of every model kind: moduli n <= 6 for each number of
    2-cycles of sigma, fm and ulyanov n=4 on P^1, the kt chain, 10
    seeded DCP inputs and the DCP input with conjugate pairs."""
    import random

    from realwonder.models import build_kt, build_ulyanov
    from realwonder.verification import _sigma_types, random_dcp_arrangement

    p1 = SpaceData.projective_space(1)
    models = [
        (f"moduli n={n} {spec.sigma}", lambda spec=spec: build_moduli(spec))
        for n in (4, 5, 6)
        for spec in _sigma_types(n)
    ]
    models += [
        ("fm n=4 P1", lambda: build_fm(4, p1)),
        ("ulyanov n=4 P1", lambda: build_ulyanov(4, p1)),
        ("kt n=3 P1 chain", lambda: build_kt(3, p1, [[[1, 2, 3]]])),
        ("dcp-fixed", fixed_dcp),
    ]
    for i in range(10):
        dim = 3 if i % 2 == 0 else 4
        models.append(
            (
                f"dcp seed {i} P^{dim}",
                lambda i=i, dim=dim: random_dcp_arrangement(random.Random(i), dim)[1],
            )
        )
    return models


def _reference_piece_rows(before, after, cid, cls, created):
    """The rows of a center's exceptional pieces by the reference
    formula NEW(S)∧X = (T(S)∧X)∧E: the source's final value against
    each touched stratum, in touched order, then against each other
    piece's source, in piece order, each cut down to E."""
    center_row = before.table.get(cid, {})
    touched = [cid] + sorted(center_row)
    source = {nid: nid.rsplit("^", 1)[0] for nid in created}

    def and_e(v):
        if v is UNRESOLVED or v in source:
            return v
        label = cls.get(v, DISJOINT)
        if label in (INSIDE, CENTER):
            return v
        if label == DISJOINT:
            return None
        piece = f"{v}^{cid}"
        return piece if piece in source else center_row[v]  # transversal alias

    rows = {}
    for nid in created:
        final = after.table[source[nid]]
        row = {source[nid]: nid}
        partners = [(other, other) for other in touched]
        partners += [(nid2, source[nid2]) for nid2 in created if nid2 != nid]
        for key, partner in partners:
            v = final.get(partner)
            on = None if v is None else and_e(v)
            if on is not None:
                row[key] = on
        rows[nid] = list(row.items())
    return rows


_TABLE_MODELS = _table_models()


@pytest.mark.parametrize(
    "build", [b for _, b in _TABLE_MODELS], ids=[n for n, _ in _TABLE_MODELS]
)
def test_table_invariants_every_center(build):
    """At every center of every step, with no piece retired at birth:
    the table is symmetric with no self entries, names only live strata
    (or UNRESOLVED), gives each new piece the row of the reference
    formula, in the same order, and shares with the arrangement before
    the center every row outside the center and its row.  The step
    itself equals that chain of centers up to the pieces it retired at
    birth (check_born_retired)."""
    from realwonder import engine

    arr = build()
    centers = 0
    while arr.events:
        cur = arr
        for cid in arr.events[0]:
            after, cls, created = engine._elementary(cur, cid, set(cur.strata))
            centers += 1
            table = after.table
            assert set(table) == set(after.strata)
            for a, row in table.items():
                if isinstance(row, RetiredRow):
                    continue  # retired at birth in an earlier step
                assert a not in row
                for b, v in row.items():
                    assert b in after.strata
                    assert v is UNRESOLVED or v in after.strata
                    assert table[b][a] == v
            reference = _reference_piece_rows(cur, after, cid, cls, created)
            assert {nid: list(table[nid].items()) for nid in created} == reference
            touched = {cid}.union(cur.table.get(cid, ()))
            for sid, row in cur.table.items():
                if sid not in touched:
                    assert table[sid] is row
            cur = after
        arr, trace = blow_up_step(arr)
        assert set(arr.table) == set(cur.table)
        check_born_retired(arr, trace, cur)
    assert centers == sum(len(ev) for ev in build().events)


def test_unresolved_touched_pair_keeps_its_marker():
    """A pair of touched strata holding UNRESOLVED keeps it through the
    step, and the pieces read it by the reference formula: their entries
    against that pair are UNRESOLVED too."""
    from realwonder import engine

    arr = build_fm(4, SpaceData.projective_space(1))
    while True:
        cid = arr.events[0][0]
        row = arr.table[cid]
        pairs = [(a, b) for a in sorted(row) for b in arr.table[a] if b in row and a < b]
        if pairs:
            break
        arr, _ = blow_up_step(arr)
    a, b = pairs[0]
    table = {sid: dict(r) for sid, r in arr.table.items()}
    table[a][b] = table[b][a] = UNRESOLVED
    before = replace(arr, table=table)
    after, cls, created = engine._elementary(before, cid, set(before.strata))
    assert after.table[a][b] is UNRESOLVED and after.table[b][a] is UNRESOLVED
    pieces = [nid for nid in created if nid.rsplit("^", 1)[0] in (a, b)]
    assert pieces
    assert all(UNRESOLVED in after.table[nid].values() for nid in pieces)
    reference = _reference_piece_rows(before, after, cid, cls, created)
    assert {nid: list(after.table[nid].items()) for nid in created} == reference
