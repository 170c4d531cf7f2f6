"""Exact projective linear algebra over the Gaussian rationals.

A ProjSubspace of P^N is identified by the canonical Gaussian-integer
form of its defining linear equations: the reduced row echelon form,
each row multiplied by the least positive integer that makes every entry
integral.  Such a row has a positive integer pivot, zeros in the other
pivot columns and integer content 1, and the RREF is unique, so equal
subspaces have equal rows and compare and hash equal.  The rows are int
tuples: `rows` holds their real parts and `im_rows` their imaginary
parts, or None when the subspace is real (its RREF is then rational).

All the work (intersections, sums, containment, ranks and kernels) is
fraction-free elimination over the Gaussian integers, so rank decisions
are exact by construction.  GaussianRational appears only at the
boundary: input rows are integerized once, in from_constraints and
from_basis_rows (rational-normal-curve points are built as integer rows
directly, in _rnc_rows), and the GaussianRational constraints/basis
rows are views built on demand for callers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError
from .exact import GaussianRational

# ----------------------------------------------------------------------
# fraction-free elimination over Gaussian integers
#
# A matrix is a pair (re, im) of row lists: row i is re[i] + im[i]*i,
# and im is None when every imaginary part is 0.  Row scaling does not
# change the row space, so every Gaussian-rational matrix is integerized
# row by row, and rows are reduced by their integer content as they go.
# Real matrices, the common case (M0,n with the standard real structure,
# real DCP inputs), take an elimination on plain ints: sending them
# through the Gaussian one with zero imaginary parts makes an M0,8 job
# about 43% slower (8.3 s instead of 5.8 s on a 2-CPU host).


def _int_rows(rows):
    """Integer (re, im) matrix of Gaussian-rational rows."""
    re_rows, im_rows = [], []
    for row in rows:
        den = 1
        for z in row:
            den = lcm(den, z.re.denominator, z.im.denominator)
        re_rows.append([z.re.numerator * (den // z.re.denominator) for z in row])
        im_rows.append([z.im.numerator * (den // z.im.denominator) for z in row])
    if not any(any(row) for row in im_rows):
        return re_rows, None
    return re_rows, im_rows


def _jordan_real(mat, ncols, full):
    """In-place elimination of integer rows by cross-multiplication.

    Returns the pivot columns and drops the zero rows.  With full=True
    the rows above each pivot are cleared too (Gauss-Jordan), so every
    row is zero in the other rows' pivot columns."""
    pivots = []
    r = 0
    nrows = len(mat)
    for c in range(ncols):
        for src in range(r, nrows):
            if mat[src][c]:
                break
        else:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(0 if full else r + 1, nrows):
            row = mat[i]
            u = row[c]
            if not u or i == r:
                continue
            new = [p * x - u * y for x, y in zip(row, prow)]
            g = gcd(*new)
            mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    del mat[r:]
    return pivots


def _jordan_gauss(mat, ncols, full):
    """_jordan_real for Gaussian-integer rows given as (re, im) pairs."""
    pivots = []
    r = 0
    nrows = len(mat)
    for c in range(ncols):
        for src in range(r, nrows):
            if mat[src][0][c] or mat[src][1][c]:
                break
        else:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        pr, pi = mat[r]
        pa, pb = pr[c], pi[c]
        for i in range(0 if full else r + 1, nrows):
            xr, xi = mat[i]
            ua, ub = xr[c], xi[c]
            if not (ua or ub) or i == r:
                continue
            # (pa + pb*i) * row - (ua + ub*i) * pivot_row
            quads = list(zip(xr, xi, pr, pi))
            nr = [pa * a - pb * b - ua * y + ub * z for a, b, y, z in quads]
            ni = [pa * b + pb * a - ua * z - ub * y for a, b, y, z in quads]
            g = gcd(*nr, *ni)
            if g > 1:
                nr = [x // g for x in nr]
                ni = [x // g for x in ni]
            mat[i] = (nr, ni)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    del mat[r:]
    return pivots


def rref(re, im, ncols):
    """Canonical rows of the row space of an integer matrix (re, im).

    Returns (re_rows, im_rows or None).  The RREF row with pivot 1 is
    the fraction-free row divided by its pivot p; the fraction-free row
    times conj(p) has the positive integer pivot |p|^2, and dividing it
    by its integer content gives the least integral multiple of the RREF
    row.  The input rows are not changed.
    """
    if im is None:
        mat = list(re)
        pivots = _jordan_real(mat, ncols, True)
        out = []
        for row, c in zip(mat, pivots):
            g = gcd(*row)
            if row[c] < 0:
                g = -g
            out.append(tuple(row) if g == 1 else tuple(x // g for x in row))
        return tuple(out), None
    mat = list(zip(re, im))
    pivots = _jordan_gauss(mat, ncols, True)
    out_re, out_im = [], []
    for (xr, xi), c in zip(mat, pivots):
        pa, pb = xr[c], xi[c]
        if pb:
            xr, xi = (
                [a * pa + b * pb for a, b in zip(xr, xi)],
                [b * pa - a * pb for a, b in zip(xr, xi)],
            )
        g = gcd(*xr, *xi)
        if xr[c] < 0:
            g = -g
        out_re.append(tuple(x // g for x in xr))
        out_im.append(tuple(x // g for x in xi))
    if not any(any(row) for row in out_im):
        return tuple(out_re), None
    return tuple(out_re), tuple(out_im)


def _rank(re, im, ncols) -> int:
    if im is None:
        return len(_jordan_real(list(re), ncols, False))
    return len(_jordan_gauss(list(zip(re, im)), ncols, False))


def _stack(parts, ncols):
    """One (re, im) matrix from the rows of several."""
    re = [row for part_re, _ in parts for row in part_re]
    if all(part_im is None for _, part_im in parts):
        return re, None
    zero = (0,) * ncols
    im = [
        row
        for part_re, part_im in parts
        for row in (part_im if part_im is not None else [zero] * len(part_re))
    ]
    return re, im


def _kernel(re, im, ncols):
    """Integer basis of {x : R x = 0} for canonical rows R.

    Each free column f gives the vector with L at f and -R_i[f]*L/d_i at
    the pivot of row i, where d_i is that row's pivot and L the lcm of
    all pivots, so no entry needs a fraction."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in re]
    big = lcm(*(row[c] for row, c in zip(re, pivots)))
    scale = [big // row[c] for row, c in zip(re, pivots)]
    free = sorted(set(range(ncols)) - set(pivots))
    out_re, out_im = [], []
    for f in free:
        vec = [0] * ncols
        vec[f] = big
        for row, c, s in zip(re, pivots, scale):
            vec[c] = -row[f] * s
        out_re.append(tuple(vec))
        if im is not None:
            vec = [0] * ncols
            for row, c, s in zip(im, pivots, scale):
                vec[c] = -row[f] * s
            out_im.append(tuple(vec))
    return tuple(out_re), (tuple(out_im) if im is not None else None)


def _gaussian_rows(re, im):
    """GaussianRational view of canonical rows: each divided by its pivot."""
    out = []
    for k, row in enumerate(re):
        d = next(x for x in row if x)
        imag = im[k] if im is not None else (0,) * len(row)
        out.append(
            tuple(GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in zip(row, imag))
        )
    return tuple(out)


def _conj_rows(im):
    return None if im is None else tuple(tuple(-x for x in row) for row in im)


# ----------------------------------------------------------------------


class ProjSubspace:
    """A projective-linear subspace of P^N (possibly empty).

    Canonically represented by the Gaussian-integer form of the RREF of
    its defining equations (see the module docstring): real parts in
    rows, imaginary parts in im_rows (None when the subspace is real).
    The key, equality, hash, realness and conjugation read these int
    tuples directly.  An integer basis of the underlying linear cone is
    derived lazily; the GaussianRational constraints and basis rows are
    views for callers.  proj_dim of the empty subspace is -1.
    """

    __slots__ = (
        "ambient_dim",
        "rows",
        "im_rows",
        "_key",
        "_hash",
        "_int_basis",
        "_constraints",
        "_basis",
    )

    def __init__(self, ambient_dim: int, rows, im_rows=None):
        """rows, im_rows: canonical rows, as produced by rref."""
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "im_rows", im_rows)
        object.__setattr__(self, "_key", (ambient_dim, rows, im_rows))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int_basis", None)
        object.__setattr__(self, "_constraints", None)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProjSubspace is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_constraints(cls, ambient_dim: int, rows) -> "ProjSubspace":
        re, im = rref(*_int_rows(rows), ambient_dim + 1)
        return cls(ambient_dim, re, im)

    @classmethod
    def from_basis_rows(cls, ambient_dim: int, rows) -> "ProjSubspace":
        return cls._from_int_basis(ambient_dim, *_int_rows(rows))

    @classmethod
    def _from_int_basis(cls, ambient_dim: int, re, im) -> "ProjSubspace":
        ncols = ambient_dim + 1
        basis_re, basis_im = rref(re, im, ncols)
        cons_re, cons_im = rref(*_kernel(basis_re, basis_im, ncols), ncols)
        sub = cls(ambient_dim, cons_re, cons_im)
        object.__setattr__(sub, "_int_basis", (basis_re, basis_im))
        return sub

    @classmethod
    def whole(cls, ambient_dim: int) -> "ProjSubspace":
        return cls(ambient_dim, ())

    @classmethod
    def empty(cls, ambient_dim: int) -> "ProjSubspace":
        n = ambient_dim + 1
        return cls(
            ambient_dim, tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        )

    # -- structure -----------------------------------------------------

    @property
    def proj_dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    @property
    def is_empty(self) -> bool:
        return self.proj_dim < 0

    def int_basis(self):
        """Integer basis rows (re, im) of the underlying linear cone."""
        if self._int_basis is None:
            object.__setattr__(
                self, "_int_basis", _kernel(self.rows, self.im_rows, self.ambient_dim + 1)
            )
        return self._int_basis

    @property
    def constraints(self):
        """RREF rows of the defining equations, as GaussianRationals."""
        if self._constraints is None:
            object.__setattr__(
                self, "_constraints", _gaussian_rows(self.rows, self.im_rows)
            )
        return self._constraints

    @property
    def basis(self):
        """Canonical RREF basis rows of the underlying linear cone, as
        GaussianRationals."""
        if self._basis is None:
            re, im = rref(*self.int_basis(), self.ambient_dim + 1)
            object.__setattr__(self, "_basis", _gaussian_rows(re, im))
        return self._basis

    def key(self):
        return self._key

    def __eq__(self, other):
        if not isinstance(other, ProjSubspace):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key))
        return self._hash

    def __repr__(self):
        return f"<ProjSubspace dim {self.proj_dim} in P^{self.ambient_dim}>"

    def conjugate(self) -> "ProjSubspace":
        """Entrywise complex conjugation; the canonical form is kept
        (pivots are real), so only the imaginary parts change sign."""
        if self.im_rows is None:
            return self
        sub = ProjSubspace(self.ambient_dim, self.rows, _conj_rows(self.im_rows))
        if self._int_basis is not None:
            re, im = self._int_basis
            object.__setattr__(sub, "_int_basis", (re, _conj_rows(im)))
        return sub


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
    return ProjSubspace._from_int_basis(
        n, *_stack([p.int_basis() for p in points], n + 1)
    )


def intersect(u: ProjSubspace, v: ProjSubspace) -> ProjSubspace:
    n = _common_ambient(u, v)
    re, im = _stack([(u.rows, u.im_rows), (v.rows, v.im_rows)], n + 1)
    return ProjSubspace(n, *rref(re, im, n + 1))


def contains(u: ProjSubspace, v: ProjSubspace) -> bool:
    """Whether v is a subset of u (empty v is contained in anything)."""
    n = _common_ambient(u, v)
    if v.is_empty:
        return True
    # v <= u  iff  the equations of u lie in the row space of those of v
    stacked = _stack([(v.rows, v.im_rows), (u.rows, u.im_rows)], n + 1)
    return _rank(*stacked, n + 1) == len(v.rows)


def linear_rank(*subs) -> int:
    """Rank of the stacked basis rows (cone dimension of the span)."""
    n = _common_ambient(*subs)
    return _rank(*_stack([s.int_basis() for s in subs], n + 1), n + 1)


def _rnc_rows(ambient_dim: int, params):
    """Integer rows (re, im or None) of the points [1 : t : ... : t^N]
    of the rational normal curve, one per parameter.

    For t = p/q, with p a Gaussian integer and q the lcm of the two
    denominators, the point times q^N is (q^N, q^(N-1) p, ..., p^N).
    Repeated parameters are rejected.
    """
    seen = set()
    rows = []
    for t in params:
        if not isinstance(t, GaussianRational):
            t = GaussianRational(t)
        if (t.re, t.im) in seen:
            raise InputError(f"repeated rational normal curve parameter {t}")
        seen.add((t.re, t.im))
        q = lcm(t.re.denominator, t.im.denominator)
        a = t.re.numerator * (q // t.re.denominator)
        b = t.im.numerator * (q // t.im.denominator)
        re, im = [], []
        pa, pb = 1, 0  # p^(N-k), as re + im*i
        for k in range(ambient_dim, -1, -1):
            qk = q**k
            re.append(pa * qk)
            im.append(pb * qk)
            pa, pb = pa * a - pb * b, pa * b + pb * a
        rows.append((re, im if b else None))
    return rows


def rnc_span(ambient_dim: int, params) -> ProjSubspace:
    """The span of the rational-normal-curve points of the parameters."""
    rows = [([re], im and [im]) for re, im in _rnc_rows(ambient_dim, params)]
    return ProjSubspace._from_int_basis(ambient_dim, *_stack(rows, ambient_dim + 1))


def rnc_points(ambient_dim: int, params) -> list[ProjSubspace]:
    """Points [1 : t : t^2 : ... : t^N] on the rational normal curve.

    Distinct parameters guarantee (Vandermonde) that any <= N+1 of the
    points are in general position; conjugate parameters give conjugate
    points.  Repeated parameters are rejected.
    """
    return [
        ProjSubspace._from_int_basis(ambient_dim, [re], im and [im])
        for re, im in _rnc_rows(ambient_dim, params)
    ]
