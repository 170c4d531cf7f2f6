"""Strata, arrangements, intersection tables, building-set validation.

An Arrangement is a value: the blow-up engine consumes one and produces
a new one.  The intersection table is sparse (only nonempty meets are
stored) and may contain UNRESOLVED markers for pairs the incremental
rules cannot express; reading such an entry aborts the run honestly.
A run retires the rows no later blow-up reads (RetiredRow), and reading
one of those aborts too; it packs the rows no blow-up reads within the
next few events into two tuples (PackedRow), read and walked as dicts.
"""

from __future__ import annotations

from collections import namedtuple

from . import gradedpoly as gp
from . import partitions as pt
from . import subspaces as sub
from .errors import InputError, InternalCheckError, UnsupportedExcessIntersection
from .flags import FlagSet, UNKNOWN, replace
from .partitions import FramePartition, SetPartition
from .subspaces import ProjSubspace, intersect as sub_intersect

AMBIENT_ID = "ambient"

REAL = "real"          # Conj-invariant with nonempty real locus
NO_REAL = "empty"      # Conj-invariant with empty real locus
PAIRED = "paired"      # swapped with a partner stratum


class _Unresolved:
    def __repr__(self):
        return "UNRESOLVED"


UNRESOLVED = _Unresolved()


class RetiredRow:
    """The table row of a stratum that no later blow-up can read, in
    place of its dict: a run retires the rows that are final (see
    engine._retire) so their entries can be freed.  It holds no entries,
    so len() is 0, and any read of it raises InternalCheckError naming
    the row rather than answer that nothing meets it."""

    __slots__ = ("sid",)

    def __init__(self, sid: str):
        self.sid = sid

    def __len__(self):
        return 0

    def __getitem__(self, *_):
        raise InternalCheckError(f"read of the retired table row {self.sid}")

    get = keys = values = items = __iter__ = __contains__ = __getitem__


class PackedRow:
    """The table row of a stratum that no blow-up reads within the next
    few events, in place of its dict: a run packs those rows (see
    engine._retire) into two tuples, the keys and the meets, in the
    row's own order.  The tuples hold one key and one meet per entry; a
    dict keeps up to half its slots spare, and an index.  It answers the
    reads the package makes of a row as the dict it packs did, in the
    same order: iteration, items, get, in and len; get and in scan the
    keys.  A step walks it through items(), as a dict row, and nothing
    mutates it: a step that changes the row builds a dict from items()."""

    __slots__ = ("sids", "meets")

    def __init__(self, row: dict):
        self.sids = tuple(row)
        self.meets = tuple(row.values())

    def __len__(self):
        return len(self.sids)

    def __iter__(self):
        return iter(self.sids)

    def __contains__(self, sid):
        return sid in self.sids

    def items(self):
        return zip(self.sids, self.meets)

    def get(self, sid, default=None):
        try:
            return self.meets[self.sids.index(sid)]
        except ValueError:
            return default


class Stratum(namedtuple(
    "Stratum", "sid dim_c betti_c betti_r flags partner real_nonempty geometry",
    defaults=(FlagSet(), None, True, None),
)):
    __slots__ = ()

    @property
    def real_status(self) -> str:
        if self.partner is not None:
            return PAIRED
        return REAL if self.real_nonempty else NO_REAL

    @property
    def defi(self) -> int:
        return gp.total(self.betti_c) - gp.total(self.betti_r)

    def validate(self) -> list[str]:
        """Smith inequality, mod-2 parity, Poincare duality (see
        payload_problems)."""
        found = payload_problems(self.dim_c, self.betti_c, self.betti_r, self.real_status)
        return [f"{self.sid}: {p}" for p in found]


def payload_problems(dim_c, betti_c, betti_r, real_status) -> tuple:
    """The problems of a stratum payload, without the stratum id.

    Smith and parity are G-space statements, so they apply to invariant
    strata; a conj-swapped pair satisfies them as a pair automatically
    (2*total vs 0)."""
    problems = []
    tc, tr = gp.total(betti_c), gp.total(betti_r)
    if real_status != PAIRED:
        if tr > tc:
            problems.append(f"Smith inequality violated ({tr} > {tc})")
        if (tc - tr) % 2:
            problems.append("total Betti parity violated")
    if betti_c.is_zero:
        problems.append("empty complex Betti vector")
    elif not gp.is_palindromic(betti_c, 2 * dim_c):
        problems.append("complex Betti not palindromic")
    if real_status == REAL:
        if betti_r.is_zero:
            problems.append("empty real Betti vector with real points")
        elif not gp.is_palindromic(betti_r, dim_c):
            problems.append("real Betti not palindromic")
    elif not betti_r.is_zero:
        problems.append("nonzero real Betti without real points")
    return tuple(problems)


class PayloadMemo:
    """The pure payload functions of a blow-up run, memoized by value.

    A run applies few distinct payload transitions to many strata: the
    3,465 final strata of M̅0,8 carry 9 distinct payloads, and the run's
    60,342 gradedpoly calls have 493 distinct argument tuples.

    - call(fn, *args) returns fn(*args) for a pure gradedpoly function
      (add, kunneth, blowup_terms, bundle_factor), computing each
      distinct call once, so equal results are one shared object.
    - validate(s) is Stratum.validate keyed by the payload value
      (dim_c, betti_c, betti_r, real status; the status says invariant
      or paired), with the stratum id put into each message at lookup.
      It drops no check: a corrupt payload is a new key, checked in
      full.

    wonderful_run makes one for the run and carries it on its
    arrangements (Arrangement.memo); an arrangement outside a run has
    none, and a step on it starts from a fresh memo, so nothing carries
    from one run or bare step to the next."""

    __slots__ = ("values", "problems")

    def __init__(self):
        self.values = {}
        self.problems = {}

    def call(self, fn, *args):
        key = (fn, args)
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = fn(*args)
        return value

    def validate(self, s: Stratum) -> list[str]:
        key = (s.dim_c, s.betti_c, s.betti_r, s.real_status)
        found = self.problems.get(key)
        if found is None:
            found = self.problems[key] = payload_problems(*key)
        return [f"{s.sid}: {p}" for p in found]


class Arrangement(namedtuple(
    "Arrangement", "ambient strata table building_set events stretched flag_axioms memo",
    defaults=((), (), UNKNOWN, (), None),
)):
    # table: sid -> {other_sid: meet_sid | UNRESOLVED}, PackedRow or
    # RetiredRow; symmetric, sparse.  memo: the run's PayloadMemo, or None
    __slots__ = ()

    def codim(self, sid: str) -> int:
        return self.ambient.dim_c - self.strata[sid].dim_c

    def raw_meet(self, a: str, b: str):
        if a == b:
            return a
        row = self.table.get(a)
        return None if row is None else row.get(b)

    def meet(self, a: str, b: str):
        """Stratum id of the intersection, or None when empty."""
        if a == b:
            return a
        if a == AMBIENT_ID:
            return b
        if b == AMBIENT_ID:
            return a
        value = self.raw_meet(a, b)
        if value is UNRESOLVED:
            raise UnsupportedExcessIntersection(
                f"intersection of {a} and {b} is not representable by the "
                "dominant-transform rules"
            )
        return value

    def leq(self, a: str, b: str) -> bool:
        """Whether stratum a is contained in stratum b."""
        return self.meet(a, b) == a

    def validate_strata(self) -> list[str]:
        """Smith, parity, duality and partner checks of the ambient and
        of every stratum."""
        return self.ambient.validate() + self.validate_ids(self.strata)

    def validate_ids(self, sids) -> list[str]:
        """The per-stratum checks of validate_strata for the given ids.
        The partner-payload check reads both strata of a pair, so a
        stratum must be rechecked when its partner changes."""
        validate = Stratum.validate if self.memo is None else self.memo.validate
        problems = []
        for sid in sids:
            s = self.strata[sid]
            problems += validate(s)
            if s.partner is not None:
                p = self.strata.get(s.partner)
                if p is None or p.partner != s.sid:
                    problems.append(f"{s.sid}: broken partner link")
                elif p.betti_c != s.betti_c or not s.betti_r.is_zero:
                    problems.append(f"{s.sid}: partner payload mismatch")
        return problems


# ----------------------------------------------------------------------
# geometry dispatch


def geom_meet(g1, g2):
    """Intersection of concrete geometries; None when empty."""
    if isinstance(g1, FramePartition) and isinstance(g2, FramePartition):
        return g1.join(g2)
    if isinstance(g1, ProjSubspace) and isinstance(g2, ProjSubspace):
        m = sub_intersect(g1, g2)
        return None if m.is_empty else m
    if isinstance(g1, SetPartition) and isinstance(g2, SetPartition):
        return g1.join(g2)
    raise InputError("mixed or abstract geometry in intersection closure")


def clean_sum_side(g, gc, sides: dict, meet=None) -> tuple:
    """What the clean-sum test reads of one shadow g against the center
    shadow gc, kept in sides under g and computed on the first lookup:
    (g∧gc, whether g lies inside gc, b(g) - b(g∨gc), the block masks of
    g).  The last two are None on ProjSubspace.  meet is g∧gc when the
    caller has it.

    A blow-up keeps one sides dict per center, so each shadow costs one
    meet with the center and one mask list per center instead of one
    per separation triple.  The key is the geometry itself, whose
    equality includes its width (n, or the frame's sigma)."""
    side = sides.get(g)
    if side is None:
        if meet is None:
            meet = geom_meet(g, gc)
        inside = meet == g
        if isinstance(g, ProjSubspace):
            side = (meet, inside, None, None)
        else:
            gain = g.num_blocks - (1 if meet is None else meet.num_blocks)
            side = (meet, inside, gain, g.block_masks())
        sides[g] = side
    return side


def excess_dim(ga, gb, gc, ac=None, bc=None, sides=None) -> int:
    """Clean-sum separation rule: the excess cone dimension
    rank(A+C) + rank(B+C) - rank(A+B+C) - rank(C) of (A+C)∩(B+C) over C.

    For A∩B ⊆ C with neither inside C, the dominant transforms of A and
    B are disjoint after blowing up C exactly when this is 0.

    On the partition backends, ranks are of block-indicator spans:
    polydiagonal P has rank b(P), its number of blocks.  Two
    polydiagonals meet in the polydiagonal of their join, so
    rank(A+C) = b(A) + b(C) - b(A∨C), and likewise for B; the excess
    is therefore
        (b(A) - b(A∨C)) + (b(B) - b(B∨C)) + b(C) - rank(A+B+C),
    where the brackets come from clean_sum_side and rank(A+B+C), which
    no join gives (the partition lattice is not modular), is
    partitions.span_rank of the three shadows' block masks.  ac and bc
    are the joins A∨C and B∨C when the caller has them, and sides the
    caller's per-center dict of clean_sum_side values.  A
    FramePartition join is None for the one-block partition, which
    counts as 1 block; its shared diagonal adds 1 to each of the four
    ranks and cancels.  The ProjSubspace branch counts ranks by linear
    algebra and is the oracle for the partition one."""
    if isinstance(ga, ProjSubspace):
        return (
            sub.linear_rank(ga, gc)
            + sub.linear_rank(gb, gc)
            - sub.linear_rank(ga, gb, gc)
            - len(gc.int_basis()[0])
        )
    if sides is None:
        sides = {}
    _, _, a_gain, a_masks = clean_sum_side(ga, gc, sides, ac)
    _, _, b_gain, b_masks = clean_sum_side(gb, gc, sides, bc)
    c_masks = clean_sum_side(gc, gc, sides, gc)[3]
    return (
        a_gain
        + b_gain
        + len(c_masks)
        - pt.span_rank(gc.width, a_masks + b_masks + c_masks)
    )


def close_under_intersection(
    ambient: Stratum,
    generators,
    stratum_factory,
    namer=None,
) -> Arrangement:
    """Close concrete generators under pairwise intersection and build
    the full table.

    generators: list of (sid, geometry).  stratum_factory(sid, geometry,
    partner_sid_or_None) -> Stratum supplies payloads and flags.
    Discovered intersections are named by namer(k, geometry) (default
    "x1", "x2", ...) in deterministic discovery order.  A geometry is
    identified by its own equality and hash, and conjugate() gives the
    geometry of its conjugate stratum.  Ids with '^' (piece ids S^C) and
    unsupported geometries raise InputError.
    """
    if namer is None:
        namer = lambda k, g: f"x{k}"
    ids = []
    geoms = {}
    by_geom = {}
    for sid, g in generators:
        if not isinstance(g, (ProjSubspace, SetPartition, FramePartition)):
            raise InputError(f"unsupported geometry {type(g).__name__}")
        if sid in geoms:
            raise InputError(f"duplicate generator id {sid}")
        if g in by_geom:
            raise InputError(f"duplicate generator geometry for {sid}")
        ids.append(sid)
        geoms[sid] = g
        by_geom[g] = sid

    # round by round, each pair (known[i], known[j]) with i < j and j in
    # the previous round's discoveries, in (i, j) order
    meets = []  # (a, b, meet id) with a < b, for the nonempty meets
    counter = 0
    known = list(ids)
    start = 0
    while start < len(known):
        end = len(known)
        for i in range(end):
            a = known[i]
            ga = geoms[a]
            for b in known[max(i + 1, start):end]:
                m = geom_meet(ga, geoms[b])
                if m is None:
                    continue
                sid = by_geom.get(m)
                if sid is None:
                    counter += 1
                    sid = namer(counter, m)
                    if sid in geoms:
                        raise InputError(f"intersection name clash at {sid}")
                    geoms[sid] = m
                    by_geom[m] = sid
                    known.append(sid)
                meets.append((a, b, sid) if a < b else (b, a, sid))
        start = end

    # conj structure: the closure of a conj-closed set is conj-closed
    partner = {}
    for sid in known:
        other = by_geom.get(geoms[sid].conjugate())
        if other is None:
            raise InputError(
                f"conjugate of {sid} missing: generators must be invariant "
                "or given in conjugate pairs"
            )
        partner[sid] = None if other == sid else other

    strata = {}
    for sid in known:
        if "^" in sid:  # the engine reads a piece S^C1^...^Ck by its parts
            raise InputError(f"stratum id {sid} contains '^', which marks a piece")
        strata[sid] = stratum_factory(sid, geoms[sid], partner[sid])

    table = {sid: {} for sid in known}
    for a, b, v in meets:
        table[a][b] = v
        table[b][a] = v
    return Arrangement(ambient=ambient, strata=strata, table=table)


# ----------------------------------------------------------------------
# building sets


def building_violations(arr: Arrangement, members, building):
    """Check the G-building-set condition over the given member ids: the
    minimal building elements containing each member must intersect
    transversally (codimension additivity) with intersection the member
    itself.  Returns (member_id, reason) pairs.  Containment is read
    from the member's table row, which a closure fills with no
    UNRESOLVED entry."""
    problems = []
    building = list(dict.fromkeys(building))
    for a in members:
        row = arr.table.get(a, {})
        containers = [b for b in building if b == a or row.get(b) == a]
        minimal = [
            b
            for b in containers
            if not any(c != b and arr.leq(c, b) for c in containers)
        ]
        if not minimal:
            problems.append((a, "no building element contains it"))
            continue
        meet = minimal[0]
        for b in minimal[1:]:
            meet = arr.meet(meet, b)
            if meet is None:
                break
        if meet != a:
            problems.append((a, f"minimal building elements meet in {meet}, not {a}"))
            continue
        codim_sum = sum(arr.codim(b) for b in minimal)
        if codim_sum != arr.codim(a):
            problems.append(
                (a, f"not transversal (codims {codim_sum} != {arr.codim(a)})")
            )
    return problems


def validate_building_set(arr: Arrangement, building=None) -> list[str]:
    """Violation report as strings; empty means ok (reports, never
    throws)."""
    building = arr.building_set if building is None else tuple(building)
    problems = []
    for b in building:
        if b not in arr.strata:
            problems.append(f"{b}: building element is not a stratum")
    if problems:
        return problems
    for b in building:
        s = arr.strata[b]
        if s.partner is not None and s.partner not in building:
            problems.append(f"{b}: conjugate partner missing from building set")
    problems += [
        f"{sid}: {reason}"
        for sid, reason in building_violations(arr, list(arr.strata), building)
    ]
    return problems


def _close_ids(arr: Arrangement, ids) -> set:
    closure = set(ids)
    frontier = set(ids)
    while frontier:
        new = set()
        for a in frontier:
            for b in closure:
                m = arr.meet(a, b)
                if m is not None and m not in closure and m not in new:
                    new.add(m)
        closure |= new
        frontier = new
    return closure


def order_building_set(arr: Arrangement) -> Arrangement:
    """Designate blow-up events: building members of codim >= 2, grouped
    into conjugate-pair events, sorted by nondecreasing complex
    dimension (ties by id)."""
    eligible = [b for b in arr.building_set if arr.codim(b) >= 2]
    events = []
    seen = set()
    for b in sorted(eligible, key=lambda s: (arr.strata[s].dim_c, s)):
        if b in seen:
            continue
        s = arr.strata[b]
        if s.partner is not None:
            if s.partner not in arr.building_set:
                raise InputError(f"building set not conj-invariant at {b}")
            pair = tuple(sorted((b, s.partner)))
            events.append(pair)
            seen.update(pair)
        else:
            events.append((b,))
            seen.add(b)
    events.sort(key=lambda ev: (arr.strata[ev[0]].dim_c, ev[0]))
    return replace(arr, events=tuple(events))


def check_event_prefixes(arr: Arrangement) -> Arrangement:
    """Re-validate that every prefix of the event order is a building
    set of its induced closure, the condition the iterated blow-up
    relies on (De Concini-Procesi 1995; Li Li 2009).  Returns arr;
    raises InputError at the first prefix that is not."""
    flat = []
    for i, ev in enumerate(arr.events):
        flat += list(ev)
        problems = building_violations(arr, _close_ids(arr, flat), flat)
        if problems:
            raise InputError(
                f"prefix {i + 1} of the event order is not a building set: "
                + "; ".join(f"{sid}: {reason}" for sid, reason in problems)
            )
    return arr
