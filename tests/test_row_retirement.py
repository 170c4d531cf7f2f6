"""Row retirement and row packing in the wonderful run.

A run retires each table row that no later blow-up can read: its
stratum is in no remaining event and it names no remaining event
stratum.  A step retires at birth the rows of the pieces no later
event can meet.  A run packs each other row that none of the next
PACK_AHEAD events reads into two tuples.  These tests step a plain
blow_up_step chain, which keeps every other row as a dict, beside the
run's retiring loop, and check that a retired row is final, that a
packed row is cold when packed and reads as its dict, and that reading
a retired row is an internal error.
"""

import re

import pytest

from realwonder import cli, engine
from realwonder.arrangement import UNRESOLVED, PackedRow, RetiredRow
from realwonder.engine import blow_up_step, wonderful_run
from realwonder.errors import InternalCheckError, UnsupportedExcessIntersection
from realwonder.exact import GaussianRational as gq
from realwonder.models import (
    SpaceData,
    build_braid,
    build_dcp,
    build_fm,
    build_kt,
    build_moduli,
    build_ulyanov,
    parse_sigma,
)
from realwonder.subspaces import rnc_points, span_points

from conftest import check_born_retired, fixed_dcp, reference_step

P1 = SpaceData.projective_space(1)


def _touch_p4():
    """A plane of P^4 through a real point and its conjugate, which meet
    transversally in that point; the engine resolves the pair."""
    a = span_points(rnc_points(4, [gq(0), gq(1, 1), gq(2, 1)]))
    return build_dcp(4, [("A", a), ("Abar", a.conjugate())])


MODELS = {
    "fm-n4-P1": lambda: build_fm(4, P1),
    "fm-n5-P1": lambda: build_fm(5, P1),
    "moduli-n6-id": lambda: build_moduli(parse_sigma("id", 6)),
    "moduli-n6-(1 2)": lambda: build_moduli(parse_sigma("(1 2)", 6)),
    "moduli-n7-id": lambda: build_moduli(parse_sigma("id", 7)),
    "moduli-n7-(1 2)(3 4)": lambda: build_moduli(parse_sigma("(1 2)(3 4)", 7)),
    "kt-n3-P1-chain": lambda: build_kt(3, P1, [[[1, 2, 3]]]),
    "ulyanov-n3-P1": lambda: build_ulyanov(3, P1),
    "ulyanov-n5-P1": lambda: build_ulyanov(5, P1),
    "braid-n4-partition": lambda: build_braid(4, "partition"),
    "braid-n4-linear": lambda: build_braid(4, "linear"),
    "dcp-fixed": fixed_dcp,
    "touch-p4": _touch_p4,
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_retiring_run_matches_full_chain(name):
    """After each event k: a row retired so far is in no event after k
    and names no stratum of one in the full chain's table, where it is
    the very row it was when retired; every live row equals the full
    chain's row, dict or packed, with the same items in the same order;
    a row packed after event k is not in events k+1..k+PACK_AHEAD and
    names no stratum of theirs, and the rows of event k+1's centers are
    not packed; the traces are equal; and at the end no row is live.  The full chain retires the rows of the pieces dead at
    birth too: for those, the row a step that retires nothing makes
    names no later event stratum (check_born_retired)."""
    arr = MODELS[name]()
    initial = {sid: list(row.items()) for sid, row in arr.table.items()}
    steps = engine._retiring_steps(arr)
    cur, _ = next(steps)
    full = arr
    frozen = {}  # retired sid -> the full chain's row at retirement
    born = set()  # the pieces retired at birth
    retired_mid_run = 0
    before = {}  # the run's table after the event before
    for k in range(len(arr.events) + 1):
        if k:
            cur, trace = next(steps)
            reference, _ = reference_step(full)
            full, full_trace = blow_up_step(full)
            assert trace == full_trace
            born |= check_born_retired(full, full_trace, reference)
        later = {sid for ev in arr.events[k:] for sid in ev}
        window = {sid for ev in arr.events[k : k + engine.PACK_AHEAD] for sid in ev}
        assert cur.strata == full.strata
        assert list(cur.table) == list(full.table)
        for sid in cur.events[0] if cur.events else ():
            assert not isinstance(cur.table[sid], PackedRow)
        for sid, row in cur.table.items():
            if isinstance(row, PackedRow) and before.get(sid) is not row:
                assert sid not in window and window.isdisjoint(row)
            if isinstance(row, RetiredRow):
                assert row.sid == sid
                if sid not in frozen:
                    frozen[sid] = full.table[sid]
                    retired_mid_run += bool(later)
                assert full.table[sid] is frozen[sid]
                assert sid not in later
                if sid not in born:
                    assert later.isdisjoint(frozen[sid])
            else:
                assert sid not in frozen
                assert list(row.items()) == list(full.table[sid].items())
        before = dict(cur.table)
    assert next(steps, None) is None
    assert not cur.events
    assert set(frozen) == set(cur.strata)
    assert {sid: list(row.items()) for sid, row in arr.table.items()} == initial
    if name.startswith("fm-"):
        assert retired_mid_run and born


def test_packed_row_reads_as_its_dict():
    """Every read the package makes of a row answers on a PackedRow as on
    the dict it packs, in the same order: iteration, items, get with and
    without a default, in and len; a step's dict is rebuilt from items."""
    row = {"b": "m1", "a": "a", "c": "m1", "d": UNRESOLVED}
    packed = PackedRow(row)
    assert list(packed) == list(row)
    assert list(packed.items()) == list(row.items())
    assert len(packed) == len(row)
    for sid in [*row, "x", ""]:
        assert (sid in packed) is (sid in row)
        assert packed.get(sid) is row.get(sid)
        assert packed.get(sid, "none") is row.get(sid, "none")
    assert dict(packed.items()) == row and list(dict(packed.items())) == list(row)
    empty = PackedRow({})
    assert len(empty) == 0 and list(empty) == [] and empty.get("a") is None


@pytest.mark.parametrize("name", ["moduli-n7-id", "fm-n5-P1", "ulyanov-n5-P1"])
def test_cold_rows_are_packed(name):
    """A run packs rows on models with more events than PACK_AHEAD,
    and a bare blow_up_step packs none."""
    arr = MODELS[name]()
    assert len(arr.events) > engine.PACK_AHEAD
    packed = 0
    for cur, _ in engine._retiring_steps(arr):
        packed = max(packed, sum(isinstance(row, PackedRow) for row in cur.table.values()))
    assert packed > 0
    while arr.events:
        arr, _ = blow_up_step(arr)
        assert not any(isinstance(row, PackedRow) for row in arr.table.values())


@pytest.mark.parametrize("name", ["dcp-fixed", "touch-p4", "braid-n4-linear"])
def test_no_row_packed_within_the_window(name):
    """With at most PACK_AHEAD events, every event still to come is in
    the window, so each row is either final or read again: none is
    packed."""
    arr = MODELS[name]()
    assert len(arr.events) <= engine.PACK_AHEAD
    for cur, _ in engine._retiring_steps(arr):
        assert not any(isinstance(row, PackedRow) for row in cur.table.values())


def test_first_center_of_a_pair_passes_the_second_as_later(monkeypatch):
    """Each center's later set holds the strata of the events after its
    event and, for the first center of a pair, the second center, which
    may meet the first center's pieces."""
    calls = []
    elementary = engine._elementary

    def recording(a, cid, later):
        calls.append((a.events, cid, set(later)))
        return elementary(a, cid, later)

    monkeypatch.setattr(engine, "_elementary", recording)
    assert cli.main(["moduli", "--n", "6", "--sigma", "(1 2)"]) == 0
    firsts = 0
    for events, cid, later in calls:
        event = events[0]
        rest = {sid for ev in events[1:] for sid in ev}
        if len(event) == 2 and cid == event[0]:
            firsts += 1
            assert later == rest | {event[1]}
        else:
            assert later == rest
    assert firsts and len(calls) == sum(len(ev) for ev in calls[0][0])


def test_retired_row_read_raises():
    """A run's final arrangement keeps its strata, and every row of its
    table is retired: len() of a row is 0, and a read through raw_meet,
    meet or leq, or inside a step, raises InternalCheckError naming the
    row, never None."""
    arr = build_fm(4, P1)
    a = next(sid for sid, row in arr.table.items() if row)
    b = next(iter(arr.table[a]))
    final = wonderful_run(arr).arrangement
    assert set(arr.strata) <= set(final.strata)
    assert sum(len(row) for row in final.table.values()) == 0
    message = re.escape(f"read of the retired table row {a}")
    for read in (final.raw_meet, final.meet, final.leq):
        with pytest.raises(InternalCheckError, match=message):
            read(a, b)
    with pytest.raises(InternalCheckError, match=message):
        dict(final.table[a])
    center = arr.events[0][0]
    stepped = type(final)(
        ambient=final.ambient,
        strata=final.strata,
        table=final.table,
        events=((center,),),
    )
    with pytest.raises(InternalCheckError, match=re.escape(f"retired table row {center}")):
        blow_up_step(stepped)


def test_cli_retired_row_read_exits_3(tmp_path, monkeypatch, capsys):
    """A read of a retired row after the run is an internal error: the
    CLI exits 3 and names the row."""
    space = tmp_path / "p1.json"
    space.write_text(
        '{"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1], "betti_r": [1, 1], '
        '"real_nonempty": true}',
        encoding="utf-8",
    )
    build_report = cli.build_report

    def reading(model, result):
        result.arrangement.meet("12", "34")
        return build_report(model, result)

    monkeypatch.setattr(cli, "build_report", reading)
    code = cli.main(["config", "--model", "fm", "--n", "4", "--space", str(space)])
    assert code == 3
    assert "engine guard: read of the retired table row 12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ambient_dim, real, plus, minus, hyperplane",
    [
        (4, ["0"], ["1+i", "2+i"], ["1-i", "2-i"], ["2", "3", "4", "5"]),
        (5, ["0", "1"], ["1+i", "3+2i"], ["1-i", "3-2i"], ["2", "3", "4", "5", "6"]),
    ],
    ids=["touch-p4-hyperplane", "touch-p5-hyperplane"],
)
def test_touching_pair_guard_first_offender(ambient_dim, real, plus, minus, hyperplane):
    """The touching-pair guard reads the strata that meet the pair from
    the center's row, and stops at the same first offender, with the
    same message, as a walk of every stratum in strata order."""
    data = {
        "ambient_dim": ambient_dim,
        "generators": [
            {"name": "A", "rnc_span": real + plus},
            {"name": "Abar", "rnc_span": real + minus},
            {"name": "B0", "rnc_span": hyperplane},
        ],
    }
    arr = cli.build_dcp(*cli._parse_generators(data))
    full = arr
    while full.events[0] != ("A", "Abar"):
        full, _ = blow_up_step(full)
    event = full.events[0]
    wid = full.raw_meet(*event)
    offenders = [
        sid
        for sid in full.strata
        if sid not in event and sid != wid and full.raw_meet(sid, event[0]) is not None
    ]
    assert len(offenders) > 1
    first = offenders[0]
    assert full.strata[first].partner is None
    expected = (
        f"invariant stratum {first} meets the intersecting conjugate pair {event}; "
        "real bookkeeping not supported"
    )
    with pytest.raises(UnsupportedExcessIntersection) as stop:
        wonderful_run(arr)
    assert str(stop.value) == expected
    k = arr.events.index(event) + 1
    assert stop.value.step == f"step {k} (A+Abar)"
