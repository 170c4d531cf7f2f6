"""Closed-form Betti numbers, computed without the program.

* Keel's recursion (Keel 1992, Trans. AMS 330) for the Poincare
  polynomial of M̅0,n in q = t^2:
      P_3 = 1,
      P_{n+1} = (1+q) P_n + (q/2) sum_{j=2}^{n-2} C(n,j) P_{j+1} P_{n-j+1}.
* The Fulton-MacPherson nested-set formula for X[n]: the sum over
  laminar families T of subsets I of {1..n} with |I| >= 2 of
      P(X)^blocks(T) * prod_{I in T} (q + q^2 + ... + q^(r_I - 1)),
  where blocks(T) counts the top-level blocks (maximal members of T and
  uncovered points), and r_I = dim X * (blocks of I - 1), the blocks of
  I being its maximal proper members in T and its uncovered points.
  q = t^2 with complex Betti numbers of X gives the complex vector,
  q = t with real ones gives the real vector.

Polynomials are coefficient lists, lowest degree first.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def padd(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def keel(n: int) -> list:
    """Coefficients of P_n(q) for M̅0,n, n >= 3: b_{2k}(M̅0,n; C)."""
    if n < 3:
        raise ValueError("M̅0,n needs n >= 3")
    polys = {3: [1]}
    for m in range(3, n):
        total = pmul([1, 1], polys[m])
        acc = []
        for j in range(2, m - 1):
            acc = padd(acc, [comb(m, j) * c for c in pmul(polys[j + 1], polys[m - j + 1])])
        if any(c % 2 for c in acc):
            raise ArithmeticError("odd sum in Keel's recursion")
        total = padd(total, [0] + [c // 2 for c in acc])
        polys[m + 1] = total
    return polys[n]


def _laminar_families(n: int):
    """Every laminar family of subsets of {0..n-1} with at least two
    elements (the empty family included), as lists of frozensets."""
    subsets = [
        frozenset(c) for size in range(n, 1, -1) for c in combinations(range(n), size)
    ]

    def compatible(a, b):
        return a <= b or b <= a or not (a & b)

    def extend(start, chosen):
        yield chosen
        for k in range(start, len(subsets)):
            s = subsets[k]
            if all(compatible(s, c) for c in chosen):
                yield from extend(k + 1, chosen + [s])

    yield from extend(0, [])


def _blocks(members, ground, strict: bool) -> int:
    """Blocks of `ground` under the maximal members of `members` inside
    it (strictly inside when `strict`): each maximal member counts once,
    each uncovered point once."""
    inside = [m for m in members if (m < ground if strict else m <= ground)]
    maximal = [m for m in inside if not any(m < o for o in inside)]
    covered = set().union(*maximal) if maximal else set()
    return len(maximal) + len(ground - covered)


def fm_nested(n: int, dim_x: int, betti_x, step: int) -> list:
    """Betti vector of X[n] by the nested-set formula.

    betti_x: Betti vector of X indexed by degree; step 2 for complex
    vectors (q = t^2), 1 for real ones (q = t).  The result is indexed
    by degree too.
    """
    if any(betti_x[d] for d in range(len(betti_x)) if d % step):
        raise ValueError("odd-degree classes with step 2")
    px = [betti_x[d] for d in range(0, len(betti_x), step)]
    ground = frozenset(range(n))
    total = []
    for family in _laminar_families(n):
        term = [1]
        for _ in range(_blocks(family, ground, strict=False)):
            term = pmul(term, px)
        for member in family:
            r = dim_x * (_blocks(family, member, strict=True) - 1)
            term = pmul(term, [0] + [1] * (r - 1))
        total = padd(total, term)
    while total and total[-1] == 0:
        total.pop()
    out = [0] * ((len(total) - 1) * step + 1)
    for k, c in enumerate(total):
        out[k * step] = c
    return out


def even_entries(vector) -> list:
    return [vector[d] for d in range(0, len(vector), 2)]
