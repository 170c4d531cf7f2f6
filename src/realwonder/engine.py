"""One G-equivariant blow-up step and the iterated wonderful run.

Per step, every stratum falls into one case relative to the center C
(codim d in the ambient):

  Disjoint       unchanged.
  InsideCenter   full preimage, a projectivized-normal-bundle: Kunneth
                 with the rank-d fiber factor (the center itself becomes
                 its exceptional divisor this way).
  ContainsCenter proper transform Bl_C A: degree-shift corrections from
                 the center's payload, plus a new stratum A~∩E, the
                 projectivized normal bundle of C inside A.
  ProperMeet     same with C replaced by M = A∧C.

Only the center and the strata of its table row (those that meet it)
are classified, updated and recorded, so a step costs in proportion to
that row, not to the arrangement: a stratum absent from a step's
classification, or from StepTrace.cases, is Disjoint.

The intersection table is updated by id-level rules; the only geometric
input is the clean-sum separation test when two transforms met inside
the center.  Its outcome depends only on the shadows A, B of the two
strata and C of the center, so each center decides it once per pair of
shadows.  Most pairs need no rank: once A∩B ⊆ C is checked, C ⊆ A
gives (A+C)∩(B+C) = A∩(B+C) = (A∩B)+C = C by the modular law, so the
transforms are separated (likewise for C ⊆ B); only the rest reach the
rank count of excess_dim.  Exceptional pieces that coincide with full
preimage fibers (transversal proper meets, dim A - dim M = d) are
aliased to the fiber stratum so later InsideCenter classifications stay
exact.  Pairs the rules cannot express are marked unresolved and abort
the run only if actually consulted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, product
from operator import is_not

from . import gradedpoly as gp
from .arrangement import (
    Arrangement,
    PackedRow,
    PayloadMemo,
    REAL,
    RetiredRow,
    Stratum,
    UNRESOLVED,
    clean_sum_side,
    excess_dim,
    geom_meet,
)
from .errors import EngineError, InternalCheckError, UnsupportedExcessIntersection
from .flags import (
    FlagSet,
    YES,
    NO,
    bundle_flags,
    deficiency_update,
    DeficiencyLedger,
    pair_event_flags,
    propagate_blowup_flags,
    verdict as flag_verdict,
)

DISJOINT = "Disjoint"
INSIDE = "InsideCenter"
CONTAINS = "ContainsCenter"
PROPER = "ProperMeet"
CENTER = "Center"

# Every labels tuple a StepTrace.cases value can be: one label per
# center of an event of one or two.  A step maps each stratum it
# touched to the tuple here, so a run holds one copy of each of these
# 30 tuples however many strata its steps touch.  Never mutated.
_CASES = {
    labels: labels
    for k in (1, 2)
    for labels in product((DISJOINT, INSIDE, CONTAINS, PROPER, CENTER), repeat=k)
}

# The events a packed row is not read within: a run packs the row of a
# stratum when neither it nor any key of its row is a stratum of the
# next PACK_AHEAD events (see _retire).  Sized by measurement (see
# BENCH_row_tiers.json): a row packed sooner is read, rebuilt and packed
# again more often, so engine CPU falls as PACK_AHEAD grows, while the
# engine peak on M̅0,8 barely moves from 5 to 14; fm-n5, with 16
# events, packs no row from 15 on.
PACK_AHEAD = 12


def _row(table: dict, sid: str, copy: bool = False) -> dict:
    """sid's table row as a dict, for reads by key, and a missing one
    empty: a packed row is unpacked into a new dict, and a dict row is
    copied only when copy is set."""
    row = table.get(sid, {})
    if type(row) is PackedRow:
        return dict(row.items())
    return dict(row) if copy else row


def _names_none(row, sids: set) -> bool:
    """Whether a live row, a dict or packed, names no stratum of sids."""
    if type(row) is PackedRow:
        return sids.isdisjoint(row)
    return row.keys().isdisjoint(sids)


def _case_of_meet(sid: str, cid: str, m) -> str:
    """Case of stratum sid != cid given its meet m with the center."""
    if m is None:
        return DISJOINT
    if m == sid:
        return INSIDE
    if m == cid:
        return CONTAINS
    return PROPER


@dataclass(frozen=True)
class StepTrace:
    """Per-event record; all reported numbers are recomputable from it:
    complex totals and Euler characteristics change by (d-1) times those
    of event_betti_c, real totals by (d-1) times event_betti_r, and
    event_defi = total(event_betti_c) - total(event_betti_r).

    cases is sparse: it maps each stratum some center of the event
    touched to its labels, one per center (Disjoint where that center
    missed it); a stratum absent from cases is Disjoint from every
    center.  created holds the exceptional pieces each center made, in
    event order; a piece made by the first center of a pair exists
    only for the second."""

    event: tuple
    codim: int
    cases: dict
    created: tuple
    event_betti_c: gp.BettiVector
    event_betti_r: gp.BettiVector
    betti_c_before: gp.BettiVector
    betti_c_after: gp.BettiVector
    betti_r_before: gp.BettiVector
    betti_r_after: gp.BettiVector
    deficiency_before: int
    deficiency_after: int

    @property
    def new_strata(self) -> tuple:
        return tuple(nid for created in self.created for nid in created)

    @property
    def event_defi(self) -> int:
        return gp.total(self.event_betti_c) - gp.total(self.event_betti_r)


@dataclass(frozen=True)
class RunResult:
    arrangement: Arrangement
    traces: tuple
    ledger: DeficiencyLedger
    verdict: str

    @property
    def betti_c(self) -> gp.BettiVector:
        return self.arrangement.ambient.betti_c

    @property
    def betti_r(self) -> gp.BettiVector:
        return self.arrangement.ambient.betti_r

    @property
    def flags(self) -> FlagSet:
        return self.arrangement.ambient.flags

    @property
    def deficiency(self) -> int:
        return self.ledger.value


def _shadow_id(arr: Arrangement, sid: str):
    """The stratum whose geometry is the shadow of sid, the original
    geometry of that stratum, or None; exceptional pieces descend to
    their source (tangent data of linear/polydiagonal shadows is
    position-independent, so the downstairs clean-sum test decides
    separation along whatever part of the meet the tower retained).
    The closure gives distinct strata distinct geometries, so the id
    names the shadow."""
    s = arr.strata.get(sid)
    if s is not None and s.geometry is not None:
        return sid
    if "^" in sid:
        return _shadow_id(arr, sid.rsplit("^", 1)[0])
    return None


_UNSEEN = object()  # a stratum whose shadow is not looked up yet
_SHADOW_INSIDE = "shadow inside the center shadow; outside the supported analysis"


def _separation_outcome(ga, gb, gc, sides=None) -> str:
    """The separation verdict for shadows A = ga, B = gb at center shadow
    C = gc; sides is the caller's per-center dict of clean-sum sides.

    After the two inside checks and the shared-directions check, A∩B
    lies in C.  If C also lies in A (or in B), the modular law settles
    the pair without a rank: (A+C)∩(B+C) = A∩(B+C) = (A∩B)+C = C, so
    the excess is 0.  The test reads the side's meet A∧C, which
    clean_sum_side already holds, and compares it with C by equality.
    It holds for ProjSubspace, SetPartition and FramePartition alike,
    as every shadow is a linear subspace (a polydiagonal is the span of
    its block indicators).  Only the other pairs reach excess_dim, the
    rank oracle."""
    if sides is None:
        sides = {}
    ac, a_inside = clean_sum_side(ga, gc, sides)[:2]
    if a_inside:
        return _SHADOW_INSIDE
    bc, b_inside = clean_sum_side(gb, gc, sides)[:2]
    if b_inside:
        return _SHADOW_INSIDE
    mm = geom_meet(ga, gb)
    if mm is not None and not clean_sum_side(mm, gc, sides)[1]:
        return "shared directions outside the center; transforms still meet"
    if ac == gc or bc == gc:
        return "separated"
    excess = excess_dim(ga, gb, gc, ac, bc, sides)
    if excess:
        return f"transforms still meet after the blow-up (excess cone dim {excess})"
    return "separated"


def _elementary(arr: Arrangement, cid: str, later):
    """Blow up along one invariant-or-pair-member center; returns the
    new arrangement (flags untouched), the case labels and the
    exceptional pieces made, in id order.  later holds the strata of
    the events still to come after this center.

    Only the center and the strata of its table row, the touched
    strata, change.  T(S) is the transform of S and E the exceptional
    divisor; a ContainsCenter or ProperMeet stratum S makes the piece
    NEW(S) = T(S)∧E (or is aliased to its fiber stratum when the meet
    is transversal).  One pass visits each unordered pair of touched
    strata that met before the step, once:
    - it sets the pair's new value v = T(S)∧T(S') by the case rules
      below (a pair holding UNRESOLVED keeps it);
    - from v it fills the rows of the pieces, since
      NEW(S)∧X = (T(S)∧X)∧E for X = T(S') and X = NEW(S'), so
      NEW(S)∧T(S') = NEW(S)∧NEW(S') = v∧E; a pair that does not meet
      gives no entry, and a piece meets no untouched stratum.
    The pass walks the old row of each touched stratum filtered to the
    touched strata after it in [center] + sorted(center row), so pairs
    without the center come in the same order as a walk of a < b over
    the rows, and the first pair the rules reject is the same.  A pair
    of InsideCenter strata keeps its value and fills no piece row, so
    an InsideCenter stratum walks only to the others.  Two transforms
    that met inside the center are checked for separation in the pass,
    by one lookup in the center's memo of outcomes by pair of shadows.
    Rows are copied on their first change, and a packed row (see
    _retire) is walked as its two tuples and becomes a dict then;
    untouched rows stay shared with the arrangement before the step.

    A piece NEW(S) is dead at birth when S is not in later and S's row
    before the step names no stratum of ahead = later ∩ touched: its
    row is RetiredRow from the start, and the pass writes none of its
    entries, in its own row, in another piece's or in a touched row.
    No later blow-up can read them.  NEW(S)'s row names only S, the
    pieces of this step (never events) and touched strata that met S;
    a later step reads only its center's row and the rows of the
    strata in it, and S lies in row(C) exactly when C lies in row(S);
    and once made, a row gains only piece keys.  So no later center
    ever meets NEW(S)."""
    strata = arr.strata
    old_table = arr.table
    center = strata[cid]
    d = arr.codim(cid)
    if d < 2:
        raise EngineError(f"blow-up center {cid} has codimension {d} < 2")
    center_real = center.real_status == REAL
    call = (PayloadMemo() if arr.memo is None else arr.memo).call

    # strata disjoint from the center keep their payload AND their whole
    # table row verbatim (any pair involving a Disjoint stratum meets in
    # an untouched stratum), so only the center and its table row, the
    # "touched" strata, are classified and recomputed; a stratum absent
    # from cls is Disjoint
    center_row = _row(old_table, cid)
    cls = {cid: CENTER}
    for sid, m in center_row.items():
        if m is UNRESOLVED:
            raise UnsupportedExcessIntersection(
                f"intersection of {sid} and center {cid} is unresolved"
            )
        cls[sid] = _case_of_meet(sid, cid, m)

    # ambient: always ContainsCenter
    amb = arr.ambient
    amb_c = call(gp.add, amb.betti_c, call(gp.blowup_terms, center.betti_c, d, 2))
    if center_real:
        amb_r = call(gp.add, amb.betti_r, call(gp.blowup_terms, center.betti_r, d, 1))
    else:
        amb_r = amb.betti_r
    new_ambient = replace(amb, betti_c=amb_c, betti_r=amb_r)

    fiber_c = call(gp.bundle_factor, d, 2)
    fiber_r = call(gp.bundle_factor, d, 1)
    new_strata = dict(strata)  # Disjoint strata keep their payload
    on_e = {UNRESOLVED: UNRESOLVED}  # touched stratum or piece v -> v∧E
    new_defs = []  # exceptional pieces of ContainsCenter / ProperMeet strata
    for sid, c in cls.items():
        s = strata[sid]
        if c is CENTER or c is INSIDE:
            new_strata[sid] = Stratum(
                sid,
                s.dim_c + d - 1,
                call(gp.kunneth, s.betti_c, fiber_c),
                call(gp.kunneth, s.betti_r, fiber_r),
                s.flags,
                s.partner,
                s.real_nonempty,
                s.geometry,
            )
            on_e[sid] = sid
            continue
        mid = center_row[sid]  # the center itself when ContainsCenter
        m = strata[mid]
        d_s = s.dim_c - m.dim_c
        bc = call(gp.add, s.betti_c, call(gp.blowup_terms, m.betti_c, d_s, 2))
        if s.real_status == REAL and m.real_status == REAL:
            br = call(gp.add, s.betti_r, call(gp.blowup_terms, m.betti_r, d_s, 1))
        else:
            br = s.betti_r
        new_strata[sid] = Stratum(
            sid, s.dim_c, bc, br, s.flags, s.partner, s.real_nonempty, s.geometry
        )
        if c is PROPER and d_s == d:
            # transversal meet: A~∩E is the whole fiber preimage of M
            on_e[sid] = mid
        else:
            nid = f"{sid}^{cid}"
            on_e[sid] = on_e[nid] = nid
            new_defs.append((nid, sid, mid, d_s))

    # the live pieces by source; a dead piece's row is retired at birth
    ahead = later.intersection(cls)
    new_table = dict(old_table)  # untouched rows are shared, never mutated
    piece = {}
    new_defs.sort()
    for nid, sid, mid, d_s in new_defs:
        if sid in later or not _names_none(old_table[sid], ahead):
            piece[sid] = nid
        else:
            new_table[nid] = RetiredRow(nid)
        s, m = strata[sid], strata[mid]
        invariant = s.partner is None and center.partner is None
        bc = call(gp.kunneth, m.betti_c, call(gp.bundle_factor, d_s, 2))
        real_nonempty = invariant and m.real_status == REAL
        if real_nonempty:
            br = call(gp.kunneth, m.betti_r, call(gp.bundle_factor, d_s, 1))
        else:
            br = gp.ZERO
        new_strata[nid] = Stratum(
            sid=nid,
            dim_c=s.dim_c - 1,
            betti_c=bc,
            betti_r=br,
            flags=bundle_flags(m.flags) if invariant else pair_event_flags(),
            partner=None,  # resolved at event level
            real_nonempty=real_nonempty if invariant else True,
            geometry=None,
        )

    # ---- intersection table -----------------------------------------
    inside = {sid for sid, c in cls.items() if c is INSIDE}
    restrictions = {}  # exceptional_restriction by (m, big), this step only
    # separation data, for this center only: each stratum's shadow id,
    # the outcome by shadow id by shadow id (stored both ways, so keyed
    # by the unordered pair), and the clean-sum side by shadow
    ic = _shadow_id(arr, cid)
    gc = None if ic is None else strata[ic].geometry
    shadows = {}
    separations = {}
    sides = {}

    # the strata by their meet with the center and their dimension
    by_center_meet = {(cid, center.dim_c): [cid]}
    for sid, m in center_row.items():
        by_center_meet.setdefault((m, strata[sid].dim_c), []).append(sid)

    def exceptional_restriction(m, big):
        """T(a)∧T(big) for a inside the center and big in
        ContainsCenter/ProperMeet position, with old meet m: the
        restriction of big's exceptional bundle over m, kept in
        restrictions under (m, big).  It equals NEW(A') for the
        arrangement member A' ⊆ big with A'∧C = m of complementary
        dimension (clean intersections make the normal bundles agree);
        anything else stays unresolved.  Whether s lies in big is read
        from big's row when it is a dict (the table is symmetric), and
        from s's row otherwise: a packed row is scanned."""
        target = strata[m].dim_c + strata[big].dim_c - strata[center_row[big]].dim_c
        big_row = old_table[big]
        same = by_center_meet.get((m, target), ())
        if type(big_row) is dict:
            candidates = [s for s in same if s == big or big_row.get(s) == s]
        else:
            candidates = [s for s in same if s == big or old_table[s].get(big) == s]
        value = on_e[candidates[0]] if len(candidates) == 1 else UNRESOLVED
        restrictions[(m, big)] = value
        return value

    touched = [cid] + sorted(center_row)
    edited = {}

    def edit_row(sid):
        row = edited.get(sid)
        if row is None:
            row = edited[sid] = new_table[sid] = _row(old_table, sid, copy=True)
        return row

    piece_touched = {nid: {} for nid in piece.values()}  # NEW(S)∧T(S')
    piece_pieces = {nid: {} for nid in piece.values()}  # NEW(S)∧NEW(S')
    rest = set(touched)
    rest_outer = rest - inside  # a pair of InsideCenter strata keeps its value
    for a in touched:
        rest.discard(a)
        rest_outer.discard(a)
        ca = cls[a]
        row = old_table.get(a, {})
        packed = type(row) is PackedRow
        if packed:  # walked by position: b's meet is at b's index
            keys, meets, i = row.sids, row.meets, -1
        row_a = edited.get(a)
        na = piece.get(a)
        if na is not None:
            touched_a, pieces_a = piece_touched[na], piece_pieces[na]
        ia = sep_a = None  # a's shadow and outcome row, on a's first separation
        walk = rest_outer if ca is INSIDE else rest
        for b in filter(walk.__contains__, keys if packed else row):
            if packed:
                i = keys.index(b, i + 1)
                m = meets[i]
            else:
                m = row[b]
            if m is UNRESOLVED:
                value = m
            elif ca is CENTER:
                value = on_e[b]  # b itself when InsideCenter
            elif ca is INSIDE:
                value = restrictions.get((m, b))
                if value is None:
                    value = exceptional_restriction(m, b)
            elif b in inside:
                value = restrictions.get((m, a))
                if value is None:
                    value = exceptional_restriction(m, a)
            elif m == cid:
                value = None  # normal directions along C are disjoint (clean)
            elif m not in inside:
                value = m
            else:
                # both ContainsCenter / ProperMeet, meeting inside the
                # center: the transforms must be separated
                if sep_a is None:
                    ia = _shadow_id(arr, a)
                    sep_a = separations.setdefault(ia, {})
                ib = shadows.get(b, _UNSEEN)
                if ib is _UNSEEN:
                    ib = shadows[b] = _shadow_id(arr, b)
                outcome = sep_a.get(ib)
                if outcome is None:
                    if ia is None or ib is None or gc is None:
                        raise UnsupportedExcessIntersection(
                            f"transforms {a} and {b} meet inside center {cid} "
                            "and no geometry is available to separate them"
                        )
                    outcome = _separation_outcome(
                        strata[ia].geometry, strata[ib].geometry, gc, sides
                    )
                    sep_a[ib] = separations.setdefault(ib, {})[ia] = outcome
                if outcome != "separated":
                    raise UnsupportedExcessIntersection(
                        f"transforms of {a} and {b} at center {cid}: {outcome}"
                    )
                value = None
            if value != m:
                if row_a is None:
                    row_a = edit_row(a)
                row_b = edited.get(b)
                if row_b is None:
                    row_b = edit_row(b)
                if value is None:
                    del row_a[b]
                    del row_b[a]
                    continue
                row_a[b] = value
                row_b[a] = value
            # NEW(S)∧T(S') = NEW(S)∧NEW(S') = (T(S)∧T(S'))∧E
            nb = piece.get(b)
            if na is None and nb is None:
                continue
            on = on_e.get(value)
            if on is None:
                continue
            if nb is not None:
                piece_touched[nb][a] = on
                if na is not None:
                    pieces_a[nb] = on
                    piece_pieces[nb][na] = on
            if na is not None:
                touched_a[b] = on

    # rows in the order of the reference formula: the source, the
    # touched strata in touched order, then the pieces in id order
    position = {sid: i for i, sid in enumerate(touched)}
    created = [nd[0] for nd in new_defs]
    for sid, nid in piece.items():
        nrow = {sid: nid}
        with_touched = piece_touched[nid]
        for other in sorted(with_touched, key=position.__getitem__):
            nrow[other] = with_touched[other]
        nrow.update(sorted(piece_pieces[nid].items()))
        new_table[nid] = nrow
        edit_row(sid)[nid] = nid
        for other, value in with_touched.items():
            row = edited.get(other)
            if row is None:
                row = edit_row(other)
            row[nid] = value

    out = replace(
        arr,
        ambient=new_ambient,
        strata=new_strata,
        table=new_table,
    )
    return out, cls, created


def _conj_id(strata: dict, sid: str) -> str:
    """The id of the conjugate of sid, a stratum of strata or a piece
    made from them: a piece's conjugate is the piece of the conjugate
    source at the conjugate center.  (A module function: a recursive
    closure would hold strata in a reference cycle, alive until the
    next garbage collection.)"""
    s = strata.get(sid)
    if s is not None:
        return sid if s.partner is None else s.partner
    src, c = sid.rsplit("^", 1)
    return f"{_conj_id(strata, src)}^{_conj_id(strata, c)}"


def _with_flags(s: Stratum, flags) -> Stratum:
    """s with other flags, through the constructor, which costs a
    fraction of dataclasses.replace."""
    return Stratum(
        s.sid, s.dim_c, s.betti_c, s.betti_r, flags, s.partner, s.real_nonempty, s.geometry
    )


def blow_up_step(arr: Arrangement):
    """Execute the first remaining building event (one invariant center
    or a conjugate pair of centers) and return (arrangement', trace)."""
    if not arr.events:
        raise EngineError("no building events remain")
    event = tuple(arr.events[0])

    strata = arr.strata
    centers = [strata[cid] for cid in event]
    if len(event) == 2:
        c1, c2 = centers
        if c1.partner != c2.sid or c2.partner != c1.sid:
            raise EngineError(f"event {event} is not a conjugate pair")
        if c1.dim_c != c2.dim_c:
            raise EngineError(f"pair event {event} with unequal dimensions")
    elif centers[0].partner is not None:
        raise EngineError(f"single event {event} on a paired stratum")

    d = arr.codim(event[0])
    # a remaining event stratum inside the center meets it, so it is in
    # the center's table row, which holds their meet (the table is
    # symmetric); an unresolved meet raises in Arrangement.meet
    remaining = {sid for ev in arr.events[1:] for sid in ev}
    center_row = _row(arr.table, event[0])
    for b, m in center_row.items():
        if b in remaining:
            if m is UNRESOLVED:
                arr.meet(b, event[0])  # raises the representability error
            if m == b:
                raise EngineError(f"center {event[0]} is not minimal: contains {b}")

    is_pair = len(event) == 2
    center0 = centers[0]
    pair_meet = arr.meet(event[0], event[1]) if is_pair else None
    touching_pair = (
        pair_meet is not None and strata[pair_meet].real_status == REAL
    )
    if touching_pair:
        _guard_touching_pair(arr, event, pair_meet, d, center_row)
    if is_pair:
        if touching_pair:
            # the centers carry real points of W on them, so neither the
            # empty-fixed-locus effectivity transfer nor the GM transfer
            # applies; the deficiency still strictly grows
            event_flags = FlagSet(maximal=NO)
            event_real_empty = False
            event_br = strata[pair_meet].betti_r
        else:
            event_flags = pair_event_flags()
            event_real_empty = True
            event_br = gp.ZERO
    else:
        event_flags = center0.flags
        event_real_empty = center0.real_status != REAL
        event_br = center0.betti_r if not event_real_empty else gp.ZERO

    before_c, before_r = arr.ambient.betti_c, arr.ambient.betti_r
    defi_before = gp.total(before_c) - gp.total(before_r)

    cur = arr
    case_record = {}  # touched strata only: the rest are Disjoint throughout
    created_by = []
    event_bc = gp.ZERO
    for i, cid in enumerate(event):
        event_bc = gp.add(event_bc, cur.strata[cid].betti_c)
        # a piece of the first center of a pair exists for the second
        cur, cls, created = _elementary(cur, cid, remaining.union(event[i + 1 :]))
        created_by.append(tuple(created))
        for sid, label in cls.items():
            case_record.setdefault(sid, [DISJOINT] * len(event))[i] = label
    created_all = [nid for created in created_by for nid in created]

    if touching_pair:
        cur = _apply_touching_pair_correction(cur, arr, pair_meet, d)

    # ---- event-level flags ------------------------------------------
    # into the strata dict the last center made, which nothing else holds
    stretched = arr.stretched
    new_strata = cur.strata
    for sid, labels in case_record.items():
        if sid not in strata:
            continue  # created mid-event; flags set at creation
        s_old = strata[sid]
        s_new = new_strata[sid]
        if s_old.partner is not None:
            continue  # swapped pairs keep their static event flags
        if sid == pair_meet and touching_pair:
            continue  # real structure overridden by the pair correction
        if any(lab in (INSIDE, CENTER) for lab in labels):
            new_strata[sid] = _with_flags(s_new, bundle_flags(s_old.flags))
        elif any(lab in (CONTAINS, PROPER) for lab in labels):
            mid = center_row[sid]  # resolved: the first center read it
            m_old = strata[mid]
            d_s = s_old.dim_c - m_old.dim_c
            if is_pair:
                m_flags, m_empty = pair_event_flags(), True
            else:
                m_flags, m_empty = m_old.flags, m_old.real_status != REAL
            new_strata[sid] = _with_flags(
                s_new,
                propagate_blowup_flags(s_old.flags, m_flags, m_empty, stretched, d_s),
            )

    # partner links among exceptional pieces
    for nid in created_all:
        mate = _conj_id(strata, nid)
        if mate == nid:
            continue
        if mate not in new_strata:
            raise InternalCheckError(f"conjugate piece {mate} of {nid} missing")
        new_strata[nid] = replace(new_strata[nid], partner=mate)

    amb_flags = propagate_blowup_flags(
        arr.ambient.flags, event_flags, event_real_empty, stretched, d
    )
    ambient = replace(cur.ambient, flags=amb_flags)

    out = replace(cur, ambient=ambient, events=arr.events[1:])

    after_c, after_r = ambient.betti_c, ambient.betti_r
    defi_after = gp.total(after_c) - gp.total(after_r)
    trace = StepTrace(
        event=event,
        codim=d,
        cases={sid: _CASES[tuple(labels)] for sid, labels in sorted(case_record.items())},
        created=tuple(created_by),
        event_betti_c=event_bc,
        event_betti_r=event_br,
        betti_c_before=before_c,
        betti_c_after=after_c,
        betti_r_before=before_r,
        betti_r_after=after_r,
        deficiency_before=defi_before,
        deficiency_after=defi_after,
    )

    _check_step(arr, out, trace)
    return out, trace


def _guard_touching_pair(arr: Arrangement, event, wid: str, d: int, center_row: dict):
    """Scope guard for a conjugate-pair event whose members intersect in
    an invariant stratum W with real points; center_row is the row of
    the first center, which holds W.  The real-locus correction below is
    derived for the transversal case with nothing else (real) in the
    way; any other configuration is rejected honestly."""
    c1 = arr.strata[event[0]]
    w = arr.strata[wid]
    if c1.dim_c - w.dim_c != d:
        raise UnsupportedExcessIntersection(
            f"conjugate centers {event} meet non-transversally in {wid}"
        )
    # the strata that meet the first center are those of its row, walked
    # in strata order so that the first offender is the same
    for sid in filter(center_row.__contains__, arr.strata):
        if sid in event or sid == wid:
            continue
        if arr.strata[sid].partner is None:
            raise UnsupportedExcessIntersection(
                f"invariant stratum {sid} meets the intersecting conjugate "
                f"pair {event}; real bookkeeping not supported"
            )
        if arr.leq(sid, wid):
            raise UnsupportedExcessIntersection(
                f"stratum {sid} inside the pair intersection {wid}"
            )


def _apply_touching_pair_correction(
    cur: Arrangement, before: Arrangement, wid: str, d: int
) -> Arrangement:
    """Real-locus correction for a conjugate-pair event with transversal
    invariant intersection W.

    Locally at a real point of W the composite fixed locus is a
    complex-type blow-up of F(X) along F(W) with exceptional CP^{d-1}
    fibers, so the ambient real vector gains degree-2k shifts of W's
    real vector, and the twice-projectivized fiber over W carries the
    swap real structure with fixed locus a CP^{d-1}-bundle over F(W).
    """
    w_old = before.strata[wid]
    amb = cur.ambient
    amb_r = gp.add(amb.betti_r, gp.blowup_terms(w_old.betti_r, d, 2))
    strata = dict(cur.strata)
    fiber = strata[wid]
    strata[wid] = replace(
        fiber,
        betti_r=gp.kunneth(w_old.betti_r, gp.bundle_factor(d, 2)),
        flags=FlagSet(maximal=NO),
    )
    return replace(cur, ambient=replace(amb, betti_r=amb_r), strata=strata)


def _changed_strata(before: Arrangement, after: Arrangement) -> list:
    """Ids of the strata a step may have invalidated, in arrangement
    order: those that are new or not the same object as before the step
    (strata are immutable, so the others were checked already), and the
    partners of these before and after the step."""
    old, new = before.strata, after.strata
    changed = list(compress(new, map(is_not, new.values(), map(old.get, new))))
    linked = set(changed)
    for sid in changed:
        for s in (old.get(sid), new[sid]):
            if s is not None and s.partner is not None:
                linked.add(s.partner)
    return list(filter(linked.__contains__, new))


def _check_step(before: Arrangement, arr: Arrangement, trace: StepTrace):
    """Always-on exact identities after a step: the deficiency ledger
    and Euler recursions, complex/real total recursions, Smith and
    duality constraints for the ambient and every stratum the step
    changed (with their partners), and flag/ledger agreement."""
    d = trace.codim
    expected_defi = trace.deficiency_before + (d - 1) * trace.event_defi
    if trace.deficiency_after != expected_defi:
        raise InternalCheckError(
            f"deficiency ledger identity failed at {trace.event}: "
            f"{trace.deficiency_after} != {expected_defi}"
        )
    eu_expected = gp.euler(trace.betti_c_before) + (d - 1) * gp.euler(
        trace.event_betti_c
    )
    if gp.euler(trace.betti_c_after) != eu_expected:
        raise InternalCheckError(f"Euler recursion failed at {trace.event}")
    if gp.total(trace.betti_c_after) != gp.total(trace.betti_c_before) + (
        d - 1
    ) * gp.total(trace.event_betti_c):
        raise InternalCheckError(f"complex total recursion failed at {trace.event}")
    if gp.total(trace.betti_r_after) != gp.total(trace.betti_r_before) + (
        d - 1
    ) * gp.total(trace.event_betti_r):
        raise InternalCheckError(f"real total recursion failed at {trace.event}")
    problems = arr.ambient.validate() + arr.validate_ids(_changed_strata(before, arr))
    if problems:
        raise InternalCheckError("; ".join(problems))
    if arr.ambient.flags.maximal is YES and trace.deficiency_after != 0:
        raise InternalCheckError("maximal flag with positive deficiency")
    if arr.ambient.flags.maximal is NO and trace.deficiency_after == 0:
        raise InternalCheckError("non-maximal flag with zero deficiency")


def _retire(table: dict, sids, remaining: set, events) -> None:
    """Sort in place the row of each of sids into its tier; events are
    the events still to come, remaining holds their strata, and window
    those of the next PACK_AHEAD of them.
    - A row whose stratum is in no remaining event and that names no
      remaining event stratum is final: it becomes RetiredRow.
    - Otherwise a dict row whose stratum is not in window and that names
      no stratum of window is cold: it becomes PackedRow.
    - Any other row stays as it is.
    Both rules rest on the same facts.  A step reads row(S) only when S
    is its center or lies in the center's row, that is, when the center
    lies in row(S) (the table is symmetric).  A row no step touches is
    shared verbatim, and a row gains only piece keys (the pieces of a
    step meet only touched strata), and pieces are never events.  So a
    final row is never read again, and a packed row is not read for
    PACK_AHEAD events.  Correctness never depends on PACK_AHEAD: a
    packed row that is read sooner is only slower to read.  A packed row
    a step read but did not change stays packed until it is final.
    Rows already retired (pieces dead at birth) stay.
    Last, a packed row of a stratum of the next event becomes a dict
    again, here and once: that step reads its centers' rows by key and
    changes them."""
    window = {sid for ev in events[:PACK_AHEAD] for sid in ev}
    for sid in sids:
        row = table[sid]
        if type(row) is RetiredRow:
            continue
        if sid not in remaining and _names_none(row, remaining):
            table[sid] = RetiredRow(sid)
        elif type(row) is dict and sid not in window and row.keys().isdisjoint(window):
            table[sid] = PackedRow(row)
    for sid in events[0] if events else ():
        if type(table.get(sid)) is PackedRow:
            table[sid] = _row(table, sid)


def _retiring_steps(arr: Arrangement):
    """Blow up the events of arr in order, retiring every table row that
    no later event reads and packing every row that none of the next
    PACK_AHEAD events reads (see _retire); yields (arrangement, trace),
    first (arr with its rows sorted before any event, None), then once
    per event.

    The first sweep works on a copy of arr's table, which stays whole.
    After an event only the rows it touched or made can have changed
    tier (a stratum whose row names an event stratum C lies in row(C),
    so the event touched it), so the sweep looks at those alone, in the
    table dict the step made.
    Steps stay pure: a bare blow_up_step packs no row and keeps every
    row but those of the pieces it retires at birth (see _elementary),
    and nothing mutates a packed row."""
    remaining = {sid for ev in arr.events for sid in ev}
    table = dict(arr.table)
    _retire(table, arr.table, remaining, arr.events)
    cur = replace(arr, table=table)
    yield cur, None
    while cur.events:
        cur, trace = blow_up_step(cur)
        remaining.difference_update(trace.event)
        changed = trace.cases.keys() | trace.new_strata
        _retire(cur.table, changed, remaining, cur.events)
        yield cur, trace


def wonderful_run(arr: Arrangement) -> RunResult:
    """Blow up all building events in order, check every stratum once
    more at the end, and report the verdict.  The final arrangement
    keeps every stratum, but every row of its table is retired."""
    dims = [arr.strata[ev[0]].dim_c for ev in arr.events]
    if dims != sorted(dims):
        raise EngineError("building events are not in nondecreasing dimension order")
    ledger = DeficiencyLedger(arr.ambient.defi)
    traces = []
    steps = _retiring_steps(replace(arr, memo=PayloadMemo()))  # this run's payload memo
    cur, _ = next(steps)
    try:
        for cur, trace in steps:
            label = "+".join(trace.event)
            ledger = deficiency_update(ledger, trace.codim, trace.event_defi, label=label)
            if ledger.value != trace.deficiency_after:
                raise InternalCheckError("ledger diverged from Betti payloads")
            traces.append(trace)
    except EngineError as exc:
        exc.step = f"step {len(traces) + 1} ({'+'.join(arr.events[len(traces)])})"
        raise
    problems = cur.validate_strata()
    if problems:
        raise InternalCheckError("; ".join(problems))
    final_verdict = flag_verdict(cur.ambient.flags, cur.ambient.betti_c)
    return RunResult(
        arrangement=replace(cur, memo=None),
        traces=tuple(traces),
        ledger=ledger,
        verdict=final_verdict,
    )
