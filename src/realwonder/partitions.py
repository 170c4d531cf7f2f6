"""Set partitions of {1..n} as the combinatorial backend for
(poly)diagonal arrangements.

The polydiagonal of a partition pi consists of points whose coordinates
agree on each block; intersections are partition joins, and tangent
spaces are spanned by block indicator vectors, so the separation test
reduces to integer rank computations.
"""

from __future__ import annotations

from itertools import combinations


def _merge_masks(blocks, other) -> list:
    """The blocks of two or more points of the join of two partitions,
    each given by the bit masks of such blocks: every block of other
    absorbs the blocks it meets.  Singletons never merge anything, so
    they need no mask."""
    for b in other:
        merged = b
        rest = []
        for c in blocks:
            if c & b:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        blocks = rest
    return blocks


def _with_singletons(masks, width) -> tuple:
    """The given block masks followed by one single-bit mask for each of
    the width points they do not cover."""
    covered = 0
    for mask in masks:
        covered |= mask
    return tuple(masks) + tuple(1 << i for i in range(width) if not (covered >> i) & 1)


class SetPartition:
    """A set partition of {1..n}, held as the sorted bit masks of its
    blocks of two or more points (point x is bit x - 1).

    The polydiagonal D_P of X^n is the set of points whose coordinates
    agree on each block of P.  Its tangent space is spanned by the block
    indicators (tensored with the tangent space of X), so it has rank
    b(P), the number of blocks, per dimension of X.  D_P ∩ D_Q = D_{P∨Q}
    for the join P∨Q: coordinates constant on the blocks of P and of Q
    are constant on the connected components of the union of the two
    relations, which are the blocks of the join.  Hence
        rank(D_P + D_Q) = b(P) + b(Q) - b(P∨Q),
    so a pair rank costs one join and no elimination (see
    arrangement.excess_dim)."""

    __slots__ = ("n", "masks", "_blocks")

    def __init__(self, n: int, blocks):
        seen = set()
        masks = []
        for block in blocks:
            block = tuple(sorted(block))
            for x in block:
                if not 1 <= x <= n:
                    raise ValueError(f"element {x} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} in two blocks")
                seen.add(x)
            if len(block) > 1:
                masks.append(sum(1 << (x - 1) for x in block))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(sorted(masks)))
        object.__setattr__(self, "_blocks", None)

    @classmethod
    def _from_masks(cls, n: int, masks) -> "SetPartition":
        """A partition from already valid block masks, unchecked."""
        part = object.__new__(cls)
        object.__setattr__(part, "n", n)
        object.__setattr__(part, "masks", tuple(sorted(masks)))
        object.__setattr__(part, "_blocks", None)
        return part

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @classmethod
    def merged(cls, n: int, subset) -> "SetPartition":
        """The diagonal partition with the given subset as one block."""
        return cls(n, [tuple(subset)])

    @property
    def blocks(self) -> tuple:
        """Every block, singletons included, as sorted int tuples in
        order of their least element; computed once."""
        if self._blocks is None:
            points = range(1, self.n + 1)
            covered = 0
            out = []
            for mask in self.masks:
                covered |= mask
                out.append(tuple(x for x in points if (mask >> (x - 1)) & 1))
            out += [(x,) for x in points if not (covered >> (x - 1)) & 1]
            out.sort()
            object.__setattr__(self, "_blocks", tuple(out))
        return self._blocks

    @property
    def num_blocks(self) -> int:
        return self.n - sum(m.bit_count() - 1 for m in self.masks)

    @property
    def is_discrete(self) -> bool:
        return not self.masks

    @property
    def width(self) -> int:
        return self.n

    def block_masks(self) -> tuple:
        """The indicator rows as bit masks: every block, singletons
        included."""
        return _with_singletons(self.masks, self.n)

    def join(self, other: "SetPartition") -> "SetPartition":
        """Finest common coarsening; polydiagonal intersection
        corresponds to the join."""
        if self.n != other.n:
            raise ValueError("mixed partition sizes")
        return SetPartition._from_masks(self.n, _merge_masks(self.masks, other.masks))

    def conjugate(self) -> "SetPartition":
        """The polydiagonal itself: the real structure of X^n acts on
        each factor and moves no point, so it maps each polydiagonal to
        itself."""
        return self

    def indicator_rows(self, projective: bool = False):
        """Integer rows spanning the (cone over the) polydiagonal: one
        block indicator per block, plus the extra homogenizing
        coordinate for the projective-closure profile."""
        rows = []
        width = self.n + 1 if projective else self.n
        if projective:
            row = [0] * width
            row[0] = 1
            rows.append(tuple(row))
        for block in self.blocks:
            row = [0] * width
            for x in block:
                row[x if projective else x - 1] = 1
            rows.append(tuple(row))
        return rows

    def label(self) -> str:
        sep = "." if self.n > 9 else ""
        nontrivial = [b for b in self.blocks if len(b) > 1]
        if not nontrivial:
            return "discrete"
        return "|".join(sep.join(str(x) for x in b) for b in nontrivial)

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self):
        return hash((self.n, self.masks))

    def __repr__(self):
        return f"SetPartition({self.n}, {self.label()!r})"


class FramePartition:
    """A polydiagonal of the frame model of P^{m-2}, with the real
    structure of a point permutation sigma.

    Put m points at the images of e_1..e_m in V = C^m / C·(1,…,1).  Any
    m-1 of the e_i together with (1,…,1) form a basis of C^m, so any m-1
    of the points are independent: the m points are in general position
    in P(V) = P^{m-2}.  Points are numbered 1..m; point i is bit i-1 of
    a block mask.

    - **Spans are polydiagonals.**  span{e_i : i in S} + C·(1,…,1) is the
      set of vectors constant on [m]∖S, so span(S) is the polydiagonal of
      the partition with block [m]∖S and singletons S.  Every
      polydiagonal D_P = {x constant on each block of P} contains the
      diagonal, so meets in V are meets in C^m: D_P ∩ D_Q = D_{P∨Q}, the
      join.
    - **One block is empty.**  D_P has dimension #blocks in C^m, hence
      #blocks - 1 in V and projective dimension #blocks - 2.  The
      one-block partition is the diagonal, 0 in V: projectively empty,
      so `join` returns None for it.
    - **Conjugation permutes points.**  The real structure is
      f ↦ conj(f∘sigma); it fixes real vectors and sends e_i to
      e_sigma(i), so conj(D_P) = D_sigma(P).  Points given as a
      conjugation-closed set (real points, and conjugate pairs swapped
      by sigma) in general position form a projective frame, and the
      projective map onto this frame carries their real structure to
      this one: the two antiholomorphic involutions differ by a
      projective map fixing the frame, which is the identity.
    - **The excess formula.**  The cone over span(A) in V has rank
      rank(block indicators of A) - 1, and so does every sum of such
      cones, since each contains the diagonal.  The four -1 cancel in
      rank(A+C) + rank(B+C) - rank(A+B+C) - rank(C), so the clean-sum
      test reads block-indicator ranks as for configuration models.

    The m points spanning P^{m-2} in general position are Kapranov's
    n-1 = m points of M̅0,n, so the closure of their spans is the
    braid arrangement A_{m-1} modulo its centre.
    """

    __slots__ = ("blocks", "sigma")

    def __init__(self, blocks, sigma):
        """blocks: disjoint bit masks of two or more points each (the
        other points are singletons); sigma: the bit mask of the image of
        each point, one entry per point."""
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))
        object.__setattr__(self, "sigma", sigma)

    def __setattr__(self, name, value):
        raise AttributeError("FramePartition is immutable")

    @classmethod
    def span(cls, m: int, subset, sigma) -> "FramePartition":
        """span(S) for the points of subset (1-based, fewer than m - 1):
        the other points form one block."""
        rest = (1 << m) - 1
        for i in subset:
            rest &= ~(1 << (i - 1))
        return cls([rest], sigma)

    @staticmethod
    def point_sigma(images) -> tuple:
        """The sigma argument for a permutation given as 1-based images
        of the points 1..m."""
        return tuple(1 << (j - 1) for j in images)

    @property
    def num_blocks(self) -> int:
        return len(self.sigma) - sum(b.bit_count() - 1 for b in self.blocks)

    @property
    def proj_dim(self) -> int:
        return self.num_blocks - 2

    @property
    def width(self) -> int:
        return len(self.sigma)

    def join(self, other: "FramePartition"):
        """D_self ∩ D_other; None for the projectively empty diagonal."""
        blocks = _merge_masks(self.blocks, other.blocks)
        if len(blocks) == 1 and blocks[0] == (1 << len(self.sigma)) - 1:
            return None
        return FramePartition(blocks, self.sigma)

    def conjugate(self) -> "FramePartition":
        """sigma(P): each point of each block moved to its image."""
        sigma = self.sigma
        blocks = []
        for b in self.blocks:
            image = 0
            while b:
                low = b & -b
                image |= sigma[low.bit_length() - 1]
                b ^= low
            blocks.append(image)
        return FramePartition(blocks, sigma)

    def block_masks(self) -> tuple:
        """The indicator rows as bit masks: every block, singletons
        included."""
        return _with_singletons(self.blocks, len(self.sigma))

    def indicator_rows(self):
        """One 0/1 row per block, singletons included, spanning D_P in
        C^m."""
        m = len(self.sigma)
        return [tuple((b >> i) & 1 for i in range(m)) for b in self.block_masks()]

    def __eq__(self, other):
        if not isinstance(other, FramePartition):
            return NotImplemented
        return self.blocks == other.blocks and self.sigma == other.sigma

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"FramePartition({[bin(b) for b in self.blocks]})"


def all_partitions(n: int):
    """All set partitions of {1..n} (restricted-growth enumeration)."""

    def rec(assigned, nblocks):
        k = len(assigned)
        if k == n:
            blocks = {}
            for x, b in enumerate(assigned, start=1):
                blocks.setdefault(b, []).append(x)
            yield SetPartition(n, blocks.values())
            return
        for b in range(nblocks + 1):
            yield from rec(assigned + [b], max(nblocks, b + 1))

    yield from rec([], 0)


def diagonals(n: int):
    """The diagonal partitions: one merged block of each subset."""
    out = []
    for size in range(2, n + 1):
        for subset in combinations(range(1, n + 1), size):
            out.append(SetPartition.merged(n, subset))
    return out


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    Deliberately independent of the Gaussian-rational kernel in
    subspaces.py so the two backends cross-check each other.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        src = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if src is None:
            continue
        mat[rank], mat[src] = mat[src], mat[rank]
        piv = mat[rank][c]
        for i in range(rank + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c]
                mat[i] = [piv * x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def span_rank(width: int, masks) -> int:
    """Rank of the 0/1 rows given as bit masks over width columns (bit i
    is column i), for the block indicators of partitions.

    Each step below keeps the rank:
    - zero rows and repeated rows do not change the span;
    - for a one-point row e_x, subtracting it from every other row with
      a 1 at x is a row operation, so the span is unchanged, the other
      rows stay 0/1, and afterwards e_x is the only row with support at
      x.  The span is then span(e_x) ⊕ span(the other rows), a direct
      sum because the supports are disjoint, so the rank is 1 plus the
      rank of the other rows.
    Every one-point row of a round splits off at once (distinct rows,
    so distinct columns), and clearing their columns may make new ones.
    When none is left, one nonzero row has rank 1 and two distinct ones
    rank 2 (distinct nonzero 0/1 rows are never proportional); anything
    larger goes to int_rank, the oracle for this function."""
    rows = set(masks)
    rows.discard(0)
    rank = 0
    while True:
        points = 0
        for row in rows:
            if not row & (row - 1):
                points |= row
                rank += 1
        if not points:
            break
        rows = {row & ~points for row in rows}
        rows.discard(0)
    if len(rows) <= 2:
        return rank + len(rows)
    return rank + int_rank([tuple((row >> i) & 1 for i in range(width)) for row in rows])
