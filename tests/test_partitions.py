import random
from fractions import Fraction

import pytest

from realwonder.arrangement import excess_dim
from realwonder.engine import _separation_outcome
from realwonder.exact import GaussianRational
from realwonder.models import _braid_subspace
from realwonder.subspaces import ProjSubspace, intersect
from realwonder.partitions import (
    FramePartition,
    SetPartition,
    all_partitions,
    diagonals,
    int_rank,
)


def fraction_rank(rows):
    """Independent rank oracle over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        mat[rank] = [x / mat[rank][c] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def union_find_join(a: SetPartition, b: SetPartition) -> SetPartition:
    """Reference join: union-find over the blocks of both partitions."""
    parent = list(range(a.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (a, b):
        for block in part.blocks:
            root = find(block[0])
            for x in block[1:]:
                parent[find(x)] = root
    groups = {}
    for x in range(1, a.n + 1):
        groups.setdefault(find(x), []).append(x)
    return SetPartition(a.n, groups.values())


def three_rank_excess(ga, gb, gc) -> int:
    """The clean-sum excess with all four ranks by elimination."""
    ru, rv, rc = ga.indicator_rows(), gb.indicator_rows(), gc.indicator_rows()
    return int_rank(ru + rc) + int_rank(rv + rc) - int_rank(ru + rv + rc) - len(rc)


def test_canonicalization():
    p = SetPartition(4, [[2, 1], [4]])
    assert p.blocks == ((1, 2), (3,), (4,))
    assert p.label() == "12"
    assert SetPartition(3, []).is_discrete
    assert SetPartition(3, [[1, 2, 3]]).label() == "123"
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition(3, [[0, 1]])


def test_join_examples():
    a = SetPartition(4, [[1, 2]])
    b = SetPartition(4, [[2, 3]])
    assert a.join(b) == SetPartition(4, [[1, 2, 3]])
    c = SetPartition(4, [[3, 4]])
    assert a.join(c) == SetPartition(4, [[1, 2], [3, 4]])


def test_join_against_rank_oracle():
    # cone dim of L_pi ∩ L_rho equals |pi| + |rho| - rank(stacked indicators)
    rng = random.Random(5)
    parts = list(all_partitions(5))
    for _ in range(100):
        a, b = rng.choice(parts), rng.choice(parts)
        j = a.join(b)
        stacked = a.indicator_rows() + b.indicator_rows()
        assert (
            j.num_blocks
            == a.num_blocks + b.num_blocks - int_rank(stacked)
        )


def test_int_rank_against_fraction_oracle():
    rng = random.Random(6)
    for _ in range(100):
        rows = [
            [rng.randint(-3, 3) for _ in range(5)]
            for _ in range(rng.randint(1, 6))
        ]
        assert int_rank(rows) == fraction_rank(rows)


def test_diagonals():
    ds = diagonals(3)
    labels = {d.label() for d in ds}
    assert labels == {"12", "13", "23", "123"}
    assert len(diagonals(4)) == 6 + 4 + 1


def test_indicator_rows():
    p = SetPartition(3, [[1, 2]])
    assert p.indicator_rows() == [(1, 1, 0), (0, 0, 1)]
    assert p.indicator_rows(projective=True) == [
        (1, 0, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 0, 1),
    ]


def test_separation_fm_small_diagonal():
    # blowing up the small diagonal of X^3 separates the pairwise ones
    u = SetPartition(3, [[1, 2]])
    v = SetPartition(3, [[1, 3]])
    b = SetPartition(3, [[1, 2, 3]])
    assert excess_dim(u, v, b) == 0
    # the projective-closure profile, through the linear backend
    linear = [_braid_subspace(3, p) for p in (u, v, b)]
    assert excess_dim(*linear) == 0


def test_separation_nonmodular_pair():
    # {12|34} and {13|24} meet only at the small diagonal and separate,
    # even though the partition lattice is non-modular here
    u = SetPartition(4, [[1, 2], [3, 4]])
    v = SetPartition(4, [[1, 3], [2, 4]])
    b = SetPartition(4, [[1, 2, 3, 4]])
    assert excess_dim(u, v, b) == 0


def test_separation_preconditions():
    u = SetPartition(3, [[1, 2]])
    b = SetPartition(3, [[1, 2, 3]])
    outcome = _separation_outcome(b, u, u)
    assert outcome.startswith("shadow inside the center shadow")


def test_all_partitions_count():
    # Bell numbers
    assert sum(1 for _ in all_partitions(4)) == 15
    assert sum(1 for _ in all_partitions(5)) == 52


# ---- frame partitions (the moduli backend) ----------------------------


def _frame(part: SetPartition, sigma) -> FramePartition:
    masks = [sum(1 << (x - 1) for x in b) for b in part.blocks if len(b) > 1]
    return FramePartition(masks, sigma)


def _frame_subspace(part: SetPartition) -> ProjSubspace:
    """D_P in V = C^m / C·(1,…,1), in the coordinates x_i - x_m."""
    m = part.n
    rows = [
        tuple(GaussianRational((i + 1 in b) - (m in b)) for i in range(m - 1))
        for b in part.blocks
    ]
    return ProjSubspace.from_basis_rows(m - 2, rows)


def test_frame_join_matches_set_partition_join():
    # both bitmask joins against the union-find join, including the
    # one-block partition that the frame join reports as empty
    rng = random.Random(8)
    m = 6
    sigma = FramePartition.point_sigma(range(1, m + 1))
    parts = [p for p in all_partitions(m) if p.num_blocks > 1]
    for _ in range(300):
        a, b = rng.choice(parts), rng.choice(parts)
        joined = _frame(a, sigma).join(_frame(b, sigma))
        expected = union_find_join(a, b)
        assert a.join(b) == expected
        assert a.join(b).blocks == expected.blocks
        if expected.num_blocks == 1:
            assert joined is None
        else:
            assert joined == _frame(expected, sigma)
            assert joined.num_blocks == expected.num_blocks


def test_frame_partitions_against_linear_algebra():
    # dimension, meet and clean-sum excess of the frame polydiagonals
    # against exact linear algebra in the quotient by the diagonal
    rng = random.Random(9)
    m = 5
    sigma = FramePartition.point_sigma(range(1, m + 1))
    parts = [p for p in all_partitions(m) if p.num_blocks > 1]
    for p in parts:
        assert _frame(p, sigma).proj_dim == _frame_subspace(p).proj_dim
    for _ in range(150):
        a, b, c = (rng.choice(parts) for _ in range(3))
        fa, fb, fc = (_frame(p, sigma) for p in (a, b, c))
        la, lb, lc = (_frame_subspace(p) for p in (a, b, c))
        joined = fa.join(fb)
        meet = intersect(la, lb)
        if joined is None:
            assert meet.is_empty
        else:
            assert meet == _frame_subspace(a.join(b))
        assert excess_dim(fa, fb, fc) == excess_dim(la, lb, lc)


def test_frame_span_and_conjugate():
    m = 5
    sigma = FramePartition.point_sigma([2, 1, 4, 3, 5])  # (1 2)(3 4)
    line = FramePartition.span(m, [1, 3], sigma)  # block {2, 4, 5}
    assert line.blocks == (0b11010,)
    assert line.proj_dim == 1
    assert line.conjugate() == FramePartition.span(m, [2, 4], sigma)
    point = FramePartition.span(m, [5], sigma)
    assert point.proj_dim == 0 and point.conjugate() == point
    assert line.conjugate().conjugate() == line
    assert line.indicator_rows() == [(0, 1, 0, 1, 1), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)]
    with pytest.raises(AttributeError):
        line.blocks = ()


def test_set_partition_join_and_refines_against_union_find():
    parts = list(all_partitions(5))
    for a in parts:
        for b in parts:
            joined = a.join(b)
            assert joined == union_find_join(a, b)
            assert hash(joined) == hash(union_find_join(a, b))
            assert joined.blocks == union_find_join(a, b).blocks
            assert joined.label() == union_find_join(a, b).label()


def test_pair_rank_from_join():
    # rank(A+B) = b(A) + b(B) - b(A∨B): every pair of partitions of [5],
    # and every pair of frame partitions with m = 5 (the one-block join,
    # None, counts as 1 block)
    parts = list(all_partitions(5))
    for a in parts:
        for b in parts:
            rank = int_rank(a.indicator_rows() + b.indicator_rows())
            assert a.num_blocks + b.num_blocks - a.join(b).num_blocks == rank
    sigma = FramePartition.point_sigma(range(1, 6))
    frames = [_frame(p, sigma) for p in parts if p.num_blocks > 1]
    for fa in frames:
        for fb in frames:
            joined = fa.join(fb)
            rank = int_rank(fa.indicator_rows() + fb.indicator_rows())
            assert fa.num_blocks + fb.num_blocks - (1 if joined is None else joined.num_blocks) == rank


def test_excess_dim_matches_three_ranks():
    rng = random.Random(10)
    parts = list(all_partitions(5))
    sigma = FramePartition.point_sigma(range(1, 6))
    frames = [_frame(p, sigma) for p in parts if p.num_blocks > 1]
    for pool in (parts, frames):
        for _ in range(300):
            a, b, c = (rng.choice(pool) for _ in range(3))
            expected = three_rank_excess(a, b, c)
            assert excess_dim(a, b, c) == expected
            assert excess_dim(a, b, c, a.join(c), b.join(c)) == expected


def test_constructor_messages_and_surface():
    with pytest.raises(ValueError, match="^element 4 outside 1..3$"):
        SetPartition(3, [[1, 4]])
    with pytest.raises(ValueError, match="^element 2 in two blocks$"):
        SetPartition(3, [[1, 2], [3, 2]])
    p = SetPartition(10, [[10, 1], [3, 2, 9], [], [5]])
    assert p.blocks == ((1, 10), (2, 3, 9), (4,), (5,), (6,), (7,), (8,))
    assert p.label() == "1.10|2.3.9"
    assert p.num_blocks == 7
    assert SetPartition(4, [[2, 3], [1, 4]]).label() == "14|23"
    with pytest.raises(AttributeError):
        p.n = 3


def test_span_rank_matches_int_rank():
    # 2,000 seeded 0/1 matrices of widths 0-10, with repeated rows,
    # one-point rows and zero rows mixed in
    from realwonder.partitions import span_rank

    rng = random.Random(11)
    for trial in range(2000):
        width = trial % 11
        masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
        if masks and rng.random() < 0.5:
            masks.append(rng.choice(masks))
        if width:
            masks += [1 << rng.randrange(width) for _ in range(rng.randint(0, 3))]
        rng.shuffle(masks)
        rows = [tuple((m >> i) & 1 for i in range(width)) for m in masks]
        assert span_rank(width, masks) == int_rank(rows), (width, masks)
    assert span_rank(0, []) == 0
    assert span_rank(0, [0, 0]) == 0
    assert span_rank(3, [0b011, 0b011, 0b110, 0b101]) == 3


def test_excess_dim_every_triple():
    # every triple of partitions of [4] and of frame partitions with
    # m = 5 against the four ranks of three_rank_excess, each rank by
    # int_rank of the distinct rows; each center's sides are shared
    # across its triples, as in a blow-up
    sigma = FramePartition.point_sigma(range(1, 6))
    frames = [_frame(p, sigma) for p in all_partitions(5) if p.num_blocks > 1]
    for pool in (list(all_partitions(4)), frames):
        rows = {g: frozenset(g.indicator_rows()) for g in pool}
        ranks = {}

        def rank(*gs):
            key = frozenset().union(*(rows[g] for g in gs))
            if key not in ranks:
                ranks[key] = int_rank(sorted(key))
            return ranks[key]

        for c in pool:
            sides = {}
            over_c = {a: rank(a, c) - rank(c) for a in pool}
            for a in pool:
                for b in pool:
                    expected = over_c[a] + over_c[b] + rank(c) - rank(a, b, c)
                    assert excess_dim(a, b, c, sides=sides) == expected
        a, b, c = pool[1], pool[-1], pool[len(pool) // 2]
        assert three_rank_excess(a, b, c) == rank(a, c) + rank(b, c) - rank(a, b, c) - rank(c)


SHADOW_INSIDE = "shadow inside the center shadow; outside the supported analysis"
SHARED = "shared directions outside the center; transforms still meet"


def rank_only_outcome(ga, gb, gc, rank, meet) -> str:
    """The separation verdict by ranks alone, with no modular-law
    shortcut: g lies in gc exactly when rank(g + gc) = rank(gc)."""
    rc = rank(gc)
    if rank(ga, gc) == rc or rank(gb, gc) == rc:
        return SHADOW_INSIDE
    mm = meet(ga, gb)
    if mm is not None and rank(mm, gc) != rc:
        return SHARED
    excess = rank(ga, gc) + rank(gb, gc) - rank(ga, gb, gc) - rc
    if excess:
        return f"transforms still meet after the blow-up (excess cone dim {excess})"
    return "separated"


def _memo(fn):
    values = {}

    def memoized(*args):
        if args not in values:
            values[args] = fn(*args)
        return values[args]

    return memoized


def _check_separation_triples(pool, rank, meet, centers) -> int:
    """On every triple of shadows A, B in pool and center C in centers:
    the modular law (A∩B ⊆ C and C ⊆ A or C ⊆ B give excess_dim 0), and
    _separation_outcome equal to the rank-only verdict and symmetric in
    (A, B), with each center's sides shared across its triples as in a
    blow-up.  Returns how many triples the modular law covers."""
    rank, meet = _memo(rank), _memo(meet)
    settled = 0
    for c in centers:
        sides = {}
        for i, a in enumerate(pool):
            for b in pool[i:]:
                expected = rank_only_outcome(a, b, c, rank, meet)
                assert _separation_outcome(a, b, c, sides) == expected, (a, b, c)
                assert _separation_outcome(b, a, c, sides) == expected, (a, b, c)
                mm = meet(a, b)
                shared_in_c = mm is None or rank(mm, c) == rank(c)
                if shared_in_c and (rank(a, c) == rank(a) or rank(b, c) == rank(b)):
                    settled += 1
                    assert excess_dim(a, b, c) == excess_dim(b, a, c) == 0, (a, b, c)
    return settled


def test_separation_modular_law_every_partition_triple():
    # every triple of partitions of [4] and of frame partitions with
    # m = 5, each rank by int_rank of the distinct indicator rows
    sigma = FramePartition.point_sigma(range(1, 6))
    frames = [_frame(p, sigma) for p in all_partitions(5) if p.num_blocks > 1]
    for pool in (list(all_partitions(4)), frames):
        rows = _memo(lambda g: frozenset(g.indicator_rows()))
        rank_of_rows = _memo(lambda key: int_rank(sorted(key)))
        rank = lambda *gs: rank_of_rows(frozenset().union(*map(rows, gs)))
        meet = lambda g, h: g.join(h)
        assert _check_separation_triples(pool, rank, meet, pool) > 0


def test_separation_modular_law_subspace_triples():
    # seeded spans of points of the rational normal curve in P^4 against
    # a dozen of them as centers, with ranks by linear algebra
    from realwonder.subspaces import linear_rank, rnc_points, span_points

    rng = random.Random(12)
    pts = rnc_points(4, list(range(7)))
    pool = {span_points(rng.sample(pts, rng.randint(1, 4))) for _ in range(30)}
    pool = sorted(pool, key=lambda g: g.key())

    def meet(g, h):
        m = intersect(g, h)
        return None if m.is_empty else m

    assert _check_separation_triples(pool, linear_rank, meet, pool[:12]) > 0


def test_modular_law_settles_without_ranks(monkeypatch):
    """A pair one of whose shadows contains the center's is separated
    with no rank count, in either order: the diagonals 12 and 134 of X^4
    at the center 123, and a line through a point and a line missing
    both, at the point."""
    from realwonder import engine
    from realwonder.subspaces import rnc_points, span_points

    def no_ranks(*args):
        raise AssertionError("excess_dim called")

    monkeypatch.setattr(engine, "excess_dim", no_ranks)
    u, v = SetPartition(4, [[1, 2]]), SetPartition(4, [[1, 3, 4]])
    c = SetPartition(4, [[1, 2, 3]])
    p, q, r, s = rnc_points(3, [0, 1, 2, 3])
    for ga, gb, gc in ((u, v, c), (span_points([p, q]), span_points([r, s]), p)):
        assert _separation_outcome(ga, gb, gc) == "separated"
        assert _separation_outcome(gb, ga, gc) == "separated"
