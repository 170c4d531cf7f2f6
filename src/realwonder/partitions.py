"""Set partitions of {1..n} as the combinatorial backend for
(poly)diagonal arrangements.

The polydiagonal of a partition pi consists of points whose coordinates
agree on each block; intersections are partition joins, and tangent
spaces are spanned by block indicator vectors, so the separation test
reduces to integer rank computations.
"""

from __future__ import annotations

from itertools import combinations


class SetPartition:
    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks):
        seen = set()
        canon = []
        for block in blocks:
            block = tuple(sorted(block))
            if not block:
                continue
            for x in block:
                if not 1 <= x <= n:
                    raise ValueError(f"element {x} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} in two blocks")
                seen.add(x)
            canon.append(block)
        for x in range(1, n + 1):
            if x not in seen:
                canon.append((x,))
        canon.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @classmethod
    def discrete(cls, n: int) -> "SetPartition":
        return cls(n, [])

    @classmethod
    def merged(cls, n: int, subset) -> "SetPartition":
        """The diagonal partition with the given subset as one block."""
        return cls(n, [tuple(subset)])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_discrete(self) -> bool:
        return self.num_blocks == self.n

    def join(self, other: "SetPartition") -> "SetPartition":
        """Finest common coarsening (union-find merge); polydiagonal
        intersection corresponds to the join."""
        if self.n != other.n:
            raise ValueError("mixed partition sizes")
        parent = list(range(self.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for part in (self, other):
            for block in part.blocks:
                root = find(block[0])
                for x in block[1:]:
                    parent[find(x)] = root
        groups = {}
        for x in range(1, self.n + 1):
            groups.setdefault(find(x), []).append(x)
        return SetPartition(self.n, groups.values())

    def refines(self, other: "SetPartition") -> bool:
        """True when every block of self sits inside a block of other."""
        if self.n != other.n:
            raise ValueError("mixed partition sizes")
        owner = {}
        for i, block in enumerate(other.blocks):
            for x in block:
                owner[x] = i
        return all(len({owner[x] for x in block}) == 1 for block in self.blocks)

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
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"SetPartition({self.n}, {self.label()!r})"


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


def diagonals(n: int, min_size: int = 2):
    """The diagonal partitions: one merged block of each subset."""
    out = []
    for size in range(min_size, n + 1):
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
