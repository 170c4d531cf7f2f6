"""Exact projective linear algebra over the Gaussian rationals.

A ProjSubspace of P^N is identified by the reduced row echelon form of
its defining linear equations (equivalently of its basis); equal
subspaces therefore compare and hash equal.  All elimination is
fraction-free over Gaussian integers, with rational normalization only
at the boundary, so rank decisions are exact by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError
from .exact import GaussianRational

# ----------------------------------------------------------------------
# fraction-free elimination over Gaussian integers
#
# Rows are lists of (a, b) int pairs meaning a + b*i.  Row scaling does
# not change the row space, so every Gaussian-rational matrix can be
# integerized row by row.


def _int_rows(rows):
    out = []
    for row in rows:
        den = 1
        for z in row:
            den = den * z.re.denominator // gcd(den, z.re.denominator)
            den = den * z.im.denominator // gcd(den, z.im.denominator)
        if den == 1:
            out.append([(z.re.numerator, z.im.numerator) for z in row])
        else:
            out.append([(int(z.re * den), int(z.im * den)) for z in row])
    return out


def _row_reduce_content(row):
    g = 0
    for a, b in row:
        g = gcd(g, abs(a))
        g = gcd(g, abs(b))
        if g == 1:
            return row
    if g > 1:
        return [(a // g, b // g) for a, b in row]
    return row


def _jordan_int(mat, ncols, full=True):
    """In-place Gauss(-Jordan) elimination by cross-multiplication.

    Returns the list of pivot columns.  With full=True rows above the
    pivot are cleared too, so normalizing each row by its leading entry
    afterwards yields the canonical RREF.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        src = None
        for i in range(r, len(mat)):
            if mat[i][c] != (0, 0):
                src = i
                break
        if src is None:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        pa, pb = mat[r][c]
        rng = range(len(mat)) if full else range(r + 1, len(mat))
        for i in rng:
            if i == r:
                continue
            ua, ub = mat[i][c]
            if (ua, ub) == (0, 0):
                continue
            row = mat[i]
            prow = mat[r]
            new = []
            for j in range(ncols):
                xa, xb = row[j]
                ya, yb = prow[j]
                # pivot*row - entry*pivot_row
                na = pa * xa - pb * xb - (ua * ya - ub * yb)
                nb = pa * xb + pb * xa - (ua * yb + ub * ya)
                new.append((na, nb))
            mat[i] = _row_reduce_content(new)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    del mat[r:]
    return pivots


_raw = GaussianRational._raw
_FRAC = {k: Fraction(k) for k in range(-8, 9)}


def _frac(n, d=1):
    if d == 1:
        f = _FRAC.get(n)
        return f if f is not None else Fraction(n)
    return Fraction(n, d)


def _normalize(mat, pivots, ncols):
    """Divide each row by its leading entry; emit GaussianRational rows."""
    out = []
    for row, c in zip(mat, pivots):
        pa, pb = row[c]
        grow = []
        if (pa, pb) == (1, 0):
            for a, b in row:
                grow.append(_raw(_frac(a), _frac(b)))
        else:
            norm = pa * pa + pb * pb
            for a, b in row:
                # (a+bi) / (pa+pb*i)
                grow.append(
                    _raw(_frac(a * pa + b * pb, norm), _frac(b * pa - a * pb, norm))
                )
        out.append(tuple(grow))
    return tuple(out)


def rref(rows, ncols):
    """Canonical reduced row echelon form of Gaussian-rational rows."""
    mat = _int_rows(rows)
    pivots = _jordan_int(mat, ncols, full=True)
    return _normalize(mat, pivots, ncols), pivots


def rank_of_rows(rows, ncols) -> int:
    mat = _int_rows(rows)
    return len(_jordan_int(mat, ncols, full=False))


def kernel_basis(rref_rows, pivots, ncols):
    """Basis of {x : R x = 0} from an RREF matrix R."""
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [GaussianRational(0)] * ncols
        vec[f] = GaussianRational(1)
        for i, p in enumerate(pivots):
            vec[p] = -rref_rows[i][f]
        basis.append(tuple(vec))
    return basis


# ----------------------------------------------------------------------


class ProjSubspace:
    """A projective-linear subspace of P^N (possibly empty).

    Canonically represented by the RREF of its defining equations; the
    basis (also in RREF) is derived lazily.  proj_dim of the empty
    subspace is -1.
    """

    __slots__ = (
        "ambient_dim",
        "constraints",
        "_basis",
        "_key",
        "_int_basis",
        "_hash",
    )

    def __init__(self, ambient_dim: int, constraints):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "_basis", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_int_basis", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProjSubspace is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_constraints(cls, ambient_dim: int, rows) -> "ProjSubspace":
        cons, _ = rref(rows, ambient_dim + 1)
        return cls(ambient_dim, cons)

    @classmethod
    def from_basis_rows(cls, ambient_dim: int, rows) -> "ProjSubspace":
        basis, pivots = rref(rows, ambient_dim + 1)
        cons = kernel_basis(basis, pivots, ambient_dim + 1)
        cons_rref, _ = rref(cons, ambient_dim + 1) if cons else ((), [])
        sub = cls(ambient_dim, cons_rref)
        object.__setattr__(sub, "_basis", basis)
        return sub

    @classmethod
    def point(cls, coords) -> "ProjSubspace":
        coords = tuple(
            c if isinstance(c, GaussianRational) else GaussianRational(c)
            for c in coords
        )
        if all(c.is_zero for c in coords):
            raise ValueError("zero vector is not a projective point")
        return cls.from_basis_rows(len(coords) - 1, [coords])

    @classmethod
    def whole(cls, ambient_dim: int) -> "ProjSubspace":
        return cls(ambient_dim, ())

    @classmethod
    def empty(cls, ambient_dim: int) -> "ProjSubspace":
        rows = [ProjSubspace._unit(ambient_dim + 1, j) for j in range(ambient_dim + 1)]
        return cls(ambient_dim, tuple(rows))

    @staticmethod
    def _unit(n, j):
        row = [GaussianRational(0)] * n
        row[j] = GaussianRational(1)
        return tuple(row)

    # -- structure -----------------------------------------------------

    @property
    def proj_dim(self) -> int:
        return self.ambient_dim - len(self.constraints)

    @property
    def is_empty(self) -> bool:
        return self.proj_dim < 0

    @property
    def basis(self):
        """Canonical RREF basis rows of the underlying linear cone."""
        if self._basis is None:
            cons = self.constraints
            if not cons:
                b = tuple(
                    self._unit(self.ambient_dim + 1, j)
                    for j in range(self.ambient_dim + 1)
                )
            else:
                crows, pivots = rref(cons, self.ambient_dim + 1)
                ker = kernel_basis(crows, pivots, self.ambient_dim + 1)
                b, _ = rref(ker, self.ambient_dim + 1) if ker else ((), [])
            object.__setattr__(self, "_basis", b)
        return self._basis

    def key(self):
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                (
                    self.ambient_dim,
                    tuple(
                        tuple((z.re, z.im) for z in row) for row in self.constraints
                    ),
                ),
            )
        return self._key

    def int_basis(self):
        """Integerized basis rows, cached for rank computations."""
        if self._int_basis is None:
            object.__setattr__(self, "_int_basis", _int_rows(self.basis))
        return self._int_basis

    def __eq__(self, other):
        if not isinstance(other, ProjSubspace):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.key()))
        return self._hash

    def __repr__(self):
        return f"<ProjSubspace dim {self.proj_dim} in P^{self.ambient_dim}>"

    def conjugate(self) -> "ProjSubspace":
        """Entrywise complex conjugation; RREF is preserved."""
        cons = tuple(tuple(z.conjugate() for z in row) for row in self.constraints)
        sub = ProjSubspace(self.ambient_dim, cons)
        if self._basis is not None:
            object.__setattr__(
                sub,
                "_basis",
                tuple(tuple(z.conjugate() for z in row) for row in self._basis),
            )
        return sub

    @property
    def is_real(self) -> bool:
        return all(z.is_real for row in self.constraints for z in row)


# ----------------------------------------------------------------------
# operations


def _common_ambient(*subs) -> int:
    dims = {s.ambient_dim for s in subs}
    if len(dims) != 1:
        raise ValueError(f"mixed ambient dimensions {sorted(dims)}")
    return dims.pop()


def span_points(points) -> ProjSubspace:
    points = list(points)
    if not points:
        raise ValueError("span of an empty point list")
    n = _common_ambient(*points)
    rows = [row for p in points for row in p.basis]
    return ProjSubspace.from_basis_rows(n, rows)


def span_sum(u: ProjSubspace, v: ProjSubspace) -> ProjSubspace:
    n = _common_ambient(u, v)
    return ProjSubspace.from_basis_rows(n, list(u.basis) + list(v.basis))


def intersect(u: ProjSubspace, v: ProjSubspace) -> ProjSubspace:
    n = _common_ambient(u, v)
    return ProjSubspace.from_constraints(n, list(u.constraints) + list(v.constraints))


def contains(u: ProjSubspace, v: ProjSubspace) -> bool:
    """Whether v is a subset of u (empty v is contained in anything)."""
    n = _common_ambient(u, v)
    if v.is_empty:
        return True
    # v <= u  iff  constraints(u) lie in the row space of constraints(v)
    cv = list(v.constraints)
    return rank_of_rows(cv + list(u.constraints), n + 1) == len(cv)


def linear_rank(*subs) -> int:
    """Rank of the stacked basis rows (cone dimension of the span)."""
    n = _common_ambient(*subs)
    mat = [list(row) for s in subs for row in s.int_basis()]
    return len(_jordan_int(mat, n + 1, full=False))


def rnc_points(ambient_dim: int, params) -> list[ProjSubspace]:
    """Points [1 : t : t^2 : ... : t^N] on the rational normal curve.

    Distinct parameters guarantee (Vandermonde) that any <= N+1 of the
    points are in general position; conjugate parameters give conjugate
    points.  Repeated parameters are rejected.
    """
    params = [
        t if isinstance(t, GaussianRational) else GaussianRational(t) for t in params
    ]
    seen = set()
    for t in params:
        k = (t.re, t.im)
        if k in seen:
            raise InputError(f"repeated rational normal curve parameter {t}")
        seen.add(k)
    pts = []
    for t in params:
        coords = [GaussianRational(1)]
        for _ in range(ambient_dim):
            coords.append(coords[-1] * t)
        pts.append(ProjSubspace.point(coords))
    return pts
