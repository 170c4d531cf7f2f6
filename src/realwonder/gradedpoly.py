"""Graded dimension vectors (mod-2 Poincare polynomials) and the blow-up
and bundle update primitives.

A BettiVector stores the F2-Betti numbers of a space by cohomological
degree.  Coefficients are plain Python ints, so they are arbitrary
precision by construction.  Trailing zeros are trimmed so equal
polynomials compare equal; the all-zero vector is the empty space
(distinct from the point, which is [1]).
"""

from __future__ import annotations


class BettiVector:
    """Immutable, so its hash (that of coeffs) is computed once, in
    __init__: a run's payload memo hashes the same few vectors many
    times."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        coeffs = tuple(int(c) for c in coeffs)
        if any(c < 0 for c in coeffs):
            raise ValueError(f"negative Betti number in {coeffs}")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", hash(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("BettiVector is immutable")

    @property
    def top(self) -> int:
        """Highest nonzero degree; -1 for the zero vector (empty space)."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, BettiVector):
            return self.coeffs == other.coeffs
        if isinstance(other, (tuple, list)):
            return self == BettiVector(other)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return kunneth(self, other)

    def __repr__(self):
        return f"BettiVector({list(self.coeffs)})"


ZERO = BettiVector()
POINT = BettiVector([1])


def _bv(p) -> BettiVector:
    return p if isinstance(p, BettiVector) else BettiVector(p)


def add(p, q) -> BettiVector:
    """Degreewise sum."""
    p, q = _bv(p), _bv(q)
    n = max(len(p), len(q))
    return BettiVector([p[i] + q[i] for i in range(n)])


def shift(p, k: int) -> BettiVector:
    """Multiply by t^k: result[i+k] = p[i]."""
    p = _bv(p)
    if k < 0:
        raise ValueError("shift degree must be >= 0")
    if p.is_zero:
        return ZERO
    return BettiVector((0,) * k + p.coeffs)


def kunneth(*ps) -> BettiVector:
    """Polynomial product of any number of factors."""
    if not ps:
        return POINT
    out = _bv(ps[0])
    for q in ps[1:]:
        q = _bv(q)
        if out.is_zero or q.is_zero:
            return ZERO
        res = [0] * (len(out) + len(q) - 1)
        for i, a in enumerate(out.coeffs):
            if a:
                for j, b in enumerate(q.coeffs):
                    res[i + j] += a * b
        out = BettiVector(res)
    return out


def bundle_factor(d: int, step: int) -> BettiVector:
    """Fiber factor 1 + t^step + ... + t^{step*(d-1)} of a projectivized
    rank-d bundle; step=2 for complex loci, step=1 for real loci."""
    if d < 1:
        raise ValueError("bundle rank must be >= 1")
    if step not in (1, 2):
        raise ValueError("step must be 1 or 2")
    res = [0] * (step * (d - 1) + 1)
    for k in range(d):
        res[step * k] = 1
    return BettiVector(res)


def blowup_terms(center, d: int, step: int) -> BettiVector:
    """Additive correction sum_{k=1}^{d-1} t^{step*k} * center for blowing
    up along a codimension-d center; empty sum when d <= 1."""
    center = _bv(center)
    out = ZERO
    for k in range(1, d):
        out = add(out, shift(center, step * k))
    return out


def total(p) -> int:
    return sum(_bv(p).coeffs)


def euler(p) -> int:
    return sum(c if i % 2 == 0 else -c for i, c in enumerate(_bv(p).coeffs))


def odd_part(p) -> int:
    return sum(c for i, c in enumerate(_bv(p).coeffs) if i % 2 == 1)


def is_palindromic(p, top: int) -> bool:
    """Poincare duality check: p[i] == p[top-i] for all i."""
    p = _bv(p)
    if p.is_zero:
        return True
    if p.top > top:
        return False
    return all(p[i] == p[top - i] for i in range(top + 1))


def projective_betti(k: int, step: int = 2) -> BettiVector:
    """Betti vector of P^k (step 2) or RP^k (step 1)."""
    return bundle_factor(k + 1, step)
