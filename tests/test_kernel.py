"""The integer exact kernel of subspaces against an independent oracle.

The oracle is plain Gauss-Jordan elimination over Q(i), written here on
pairs of Fractions; it shares no code with realwonder.  The matrices are
random Gaussian-rational matrices in P^3..P^5, seeded, about a third of
them rank-deficient by construction.
"""

import random
from fractions import Fraction

import pytest

from realwonder.exact import GaussianRational
from realwonder.subspaces import ProjSubspace, intersect

from conftest import span_sum

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def oracle_rref(rows, ncols):
    """Reduced row echelon form: pivots 1, zeros above and below them."""
    mat = [list(row) for row in rows]
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(mat)) if mat[i][c] != ZERO), None)
        if src is None:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        pivot = mat[r][c]
        mat[r] = [c_div(x, pivot) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != ZERO:
                f = mat[i][c]
                mat[i] = [c_add(x, c_mul((-f[0], -f[1]), y)) for x, y in zip(mat[i], mat[r])]
        r += 1
    return [tuple(row) for row in mat[:r]]


def random_scalar(rng, real):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(0) if real else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return (re, im)


def random_matrix(rng):
    """(ambient dim, rows as Fraction pairs): full rank or deficient."""
    n = rng.randint(3, 5)
    ncols = n + 1
    real = rng.random() < 0.3
    nrows = rng.randint(1, ncols)
    rows = []
    for _ in range(nrows):
        row = [random_scalar(rng, real) if rng.random() < 0.8 else ZERO for _ in range(ncols)]
        rows.append(row)
    if rng.random() < 0.35 and nrows >= 2:
        # a row that is a combination of others, or zero
        k = rng.randrange(nrows)
        combo = [ZERO] * ncols
        for i in range(nrows):
            if i != k and rng.random() < 0.7:
                f = random_scalar(rng, real)
                combo = [c_add(x, c_mul(f, y)) for x, y in zip(combo, rows[i])]
        rows[k] = combo
    if all(x == ZERO for row in rows for x in row):
        rows[0][0] = ONE
    return n, [tuple(row) for row in rows]


def to_gaussian(rows):
    return [tuple(GaussianRational(re, im) for re, im in row) for row in rows]


def as_pairs(rows):
    return [tuple((z.re, z.im) for z in row) for row in rows]


def conj_pairs(rows):
    return [tuple((re, -im) for re, im in row) for row in rows]


def matrices(seed, count=60):
    rng = random.Random(seed)
    return [random_matrix(rng) for _ in range(count)]


@pytest.mark.parametrize("seed", [1, 2])
def test_constraints_view_is_the_oracle_rref(seed):
    for n, rows in matrices(seed):
        sub = ProjSubspace.from_constraints(n, to_gaussian(rows))
        expected = oracle_rref(rows, n + 1)
        assert as_pairs(sub.constraints) == expected
        assert sub.proj_dim == n - len(expected)
        assert (sub.im_rows is None) == all(im == 0 for row in expected for _, im in row)


@pytest.mark.parametrize("seed", [3, 4])
def test_basis_view_is_the_oracle_rref_and_spans_the_kernel(seed):
    for n, rows in matrices(seed):
        sub = ProjSubspace.from_basis_rows(n, to_gaussian(rows))
        basis = oracle_rref(rows, n + 1)
        assert as_pairs(sub.basis) == basis
        cons = as_pairs(sub.constraints)
        assert cons == oracle_rref(cons, n + 1)
        assert len(cons) + len(basis) == n + 1
        for eq in cons:
            for vec in basis:
                total = ZERO
                for x, y in zip(eq, vec):
                    total = c_add(total, c_mul(x, y))
                assert total == ZERO


@pytest.mark.parametrize("seed", [5, 6])
def test_key_ignores_row_order_and_scaling(seed):
    rng = random.Random(seed + 100)
    for n, rows in matrices(seed):
        for build in (ProjSubspace.from_constraints, ProjSubspace.from_basis_rows):
            key = build(n, to_gaussian(rows)).key()
            moved = list(rows)
            rng.shuffle(moved)
            scaled = []
            for row in moved:
                f = random_scalar(rng, rng.random() < 0.5)
                if f == ZERO:
                    f = ONE
                scaled.append(tuple(c_mul(f, x) for x in row))
            other = build(n, to_gaussian(scaled))
            assert other.key() == key
            assert other == build(n, to_gaussian(rows))
            assert hash(other) == hash(build(n, to_gaussian(rows)))


@pytest.mark.parametrize("seed", [7, 8])
def test_conjugate_key_is_the_key_of_the_conjugated_input(seed):
    for n, rows in matrices(seed):
        for build in (ProjSubspace.from_constraints, ProjSubspace.from_basis_rows):
            sub = build(n, to_gaussian(rows))
            mirror = build(n, to_gaussian(conj_pairs(rows)))
            assert sub.conjugate().key() == mirror.key()
            assert as_pairs(sub.conjugate().basis) == as_pairs(mirror.basis)
            assert sub.conjugate().conjugate() == sub


@pytest.mark.parametrize("seed", [9, 10])
def test_meet_and_sum_dimensions(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n, rows = random_matrix(rng)
        _, other = random_matrix(rng)
        other = [row[: n + 1] + (ZERO,) * (n + 1 - len(row)) for row in other]
        if all(x == ZERO for row in other for x in row):
            other[0] = (ONE,) + other[0][1:]
        u = ProjSubspace.from_basis_rows(n, to_gaussian(rows))
        v = ProjSubspace.from_basis_rows(n, to_gaussian(other))
        meet, total = intersect(u, v), span_sum(u, v)
        assert meet.proj_dim + total.proj_dim == u.proj_dim + v.proj_dim
        assert total.proj_dim == len(oracle_rref(rows + other, n + 1)) - 1
