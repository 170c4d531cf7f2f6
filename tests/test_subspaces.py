import random
from itertools import combinations

import pytest

from realwonder.arrangement import excess_dim
from realwonder.engine import _separation_outcome
from realwonder.errors import InputError
from realwonder.exact import GaussianRational as gq
from realwonder.subspaces import (
    ProjSubspace,
    contains,
    intersect,
    linear_rank,
    rnc_points,
    rnc_span,
    span_points,
)

from conftest import point, span_sum


def brute_rank(rows):
    """Independent rank oracle: exhaustive square-minor determinants."""

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        out = gq(0)
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            out = out + term if j % 2 == 0 else out - term
        return out

    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    for size in range(min(len(rows), ncols), 0, -1):
        for ridx in combinations(range(len(rows)), size):
            for cidx in combinations(range(ncols), size):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                if not det(sub).is_zero:
                    return size
    return 0


def test_rnc_points_examples():
    pts = rnc_points(2, [0, 1, 2, 3])
    assert all(p.proj_dim == 0 for p in pts)
    for triple in combinations(pts, 3):
        assert span_points(triple).proj_dim == 2  # Vandermonde
    mixed = rnc_points(2, [gq(0), gq(1), gq(0, 1), gq(0, -1)])
    real = [p for p in mixed if p.conjugate() == p]
    assert len(real) == 2
    assert mixed[2].conjugate() == mixed[3]
    assert rnc_points(1, [0])[0].proj_dim == 0
    with pytest.raises(InputError):
        rnc_points(2, [1, 1])


def _rnc_reference(ambient_dim, params):
    """The rational-normal-curve points from GaussianRational powers."""
    return [
        ProjSubspace.from_basis_rows(ambient_dim, [tuple(t**k for k in range(ambient_dim + 1))])
        for t in params
    ]


def test_rnc_rows_match_gaussian_reference():
    """rnc_points and rnc_span, built from integer rows, equal the
    points built from GaussianRational powers and their span_points, in
    key and integer basis, on seeded real and complex parameters."""
    rng = random.Random(14)

    def param():
        re = gq(rng.randint(-9, 9)) / rng.randint(1, 4)
        im = gq(rng.randint(-5, 5)) / rng.randint(1, 3) if rng.random() < 0.5 else gq(0)
        return re + im * gq(0, 1)

    for _ in range(150):
        n = rng.randint(1, 7)
        size = rng.randint(1, n + 2)
        params = []
        while len(params) < size:
            t = param()
            if t not in params:
                params.append(t)
        ref = _rnc_reference(n, params)
        pts = rnc_points(n, params)
        assert [p.key() for p in pts] == [p.key() for p in ref]
        assert [p.int_basis() for p in pts] == [p.int_basis() for p in ref]
        span, ref_span = rnc_span(n, params), span_points(ref)
        assert span.key() == ref_span.key()
        assert span.int_basis() == ref_span.int_basis()
    with pytest.raises(InputError, match="repeated rational normal curve parameter 1/2"):
        rnc_span(3, [gq(1, 0) / 2, gq(0, 1), gq(1, 0) / 2])


def test_span_points_examples():
    pts = rnc_points(3, [0, 1, 2, 3])
    assert span_points(pts[:2]).proj_dim == 1
    assert span_points(pts[:1]) == pts[0]
    with pytest.raises(ValueError):
        span_points([])
    # span dims agree with the brute-force determinant oracle
    rows = [row for p in pts[:3] for row in p.basis]
    assert span_points(pts[:3]).proj_dim == brute_rank(rows) - 1


def test_intersect_examples():
    pts = rnc_points(3, [0, 1, 2])
    l1 = span_points(pts[:2])
    l2 = span_points([pts[0], pts[2]])
    assert intersect(l1, l2) == pts[0]  # two lines through a common point

    pts4 = rnc_points(4, [0, 1, 2, 3, 4, 5])
    u = span_points(pts4[:3])
    v = span_points(pts4[3:])
    m = intersect(u, v)
    stacked = [row for s in (u, v) for row in s.basis]
    assert brute_rank(stacked) == 5  # planes together span P^4
    assert m.proj_dim == 0

    pts3 = rnc_points(3, [0, 1, 2, 3])
    l1 = span_points(pts3[:2])
    l2 = span_points(pts3[2:])
    assert brute_rank([row for s in (l1, l2) for row in s.basis]) == 4
    assert intersect(l1, l2).is_empty  # generic disjoint lines in P^3


def test_span_sum_examples():
    pts = rnc_points(4, [0, 1, 2, 3, 4])
    assert span_sum(pts[0], pts[1]).proj_dim == 1
    u = span_points(pts[:2])
    assert span_sum(u, u) == u
    line = span_points(pts[:2])
    plane = span_points(pts[1:4])  # transverse: meets the line in one point
    assert span_sum(line, plane).proj_dim == 3


def test_dimension_formula_random():
    rng = random.Random(3)
    pts = rnc_points(4, list(range(-4, 5)))
    for _ in range(60):
        u = span_points(rng.sample(pts, rng.randint(1, 4)))
        v = span_points(rng.sample(pts, rng.randint(1, 4)))
        m = intersect(u, v)
        s = span_sum(u, v)
        assert m.proj_dim + s.proj_dim == u.proj_dim + v.proj_dim


def test_separation_separated():
    # two lines through p separate after blowing up p
    p, q, r = rnc_points(3, [0, 1, 2])
    u = span_points([p, q])
    v = span_points([p, r])
    assert excess_dim(u, v, p) == 0


def test_separation_identical_transforms():
    p, q, r = rnc_points(3, [0, 1, 2])
    u = span_points([p, q])
    b = p
    # the excess space (U+B)∩(U+B) is U itself
    assert span_sum(u, b) == u
    assert excess_dim(u, u, b) == u.proj_dim - b.proj_dim > 0


def test_separation_true_excess():
    # planes through q, blown up along a line through q they do not contain
    pts = rnc_points(4, [0, 1, 2, 3, 4, 5])
    q = pts[0]
    u = span_points([q, pts[1], pts[2]])
    v = span_points([q, pts[3], pts[4]])
    b = span_points([q, pts[5]])
    assert intersect(u, v) == q
    excess = intersect(span_sum(u, b), span_sum(v, b))
    assert excess_dim(u, v, b) == excess.proj_dim - b.proj_dim > 0
    assert contains(excess, b)


def test_separation_preconditions():
    pts = rnc_points(3, [0, 1, 2, 3])
    u = span_points(pts[:2])
    outcome = _separation_outcome(u, span_points(pts[1:3]), u)  # u inside the center
    assert outcome.startswith("shadow inside the center shadow")
    v = span_points(pts[2:])
    # u∧v = empty is fine, but meet not inside b fails when nonempty
    outcome = _separation_outcome(u, span_points([pts[0], pts[2]]), pts[1])
    assert outcome.startswith("shared directions outside the center")


def test_separation_generic_rank_property():
    # Separated whenever rank(U∪V∪B) = rank U + rank V - rank B
    rng = random.Random(9)
    pts = rnc_points(4, list(range(6)))
    for _ in range(40):
        b = span_points(rng.sample(pts, rng.randint(1, 2)))
        u = span_sum(b, span_points(rng.sample(pts, 1)))
        v = span_sum(b, span_points(rng.sample(pts, 1)))
        if contains(b, u) or contains(b, v):
            continue
        ru, rv, rb = len(u.basis), len(v.basis), len(b.basis)
        if linear_rank(u, v, b) == ru + rv - rb:
            assert excess_dim(u, v, b) == 0


def test_conjugate_examples():
    real = span_points(rnc_points(2, [0, 1]))
    assert real.conjugate() == real
    p = point([gq(1), gq(0, 1)])
    assert p.conjugate() == point([gq(1), gq(0, -1)])
    assert p.conjugate().conjugate() == p


def test_conjugate_commutes_with_operations():
    pts = rnc_points(3, [gq(0), gq(1), gq(1, 1), gq(1, -1)])
    u = span_points(pts[:2])
    v = span_points(pts[2:])
    for a, b in [(u, v), (v, u)]:
        assert intersect(a, b).conjugate() == intersect(a.conjugate(), b.conjugate())
        assert span_sum(a, b).conjugate() == span_sum(a.conjugate(), b.conjugate())
        assert a.conjugate().proj_dim == a.proj_dim


def test_canonical_representation():
    # equal subspaces built from different spanning sets compare equal
    pts = rnc_points(3, [0, 1, 5])
    u = span_points(pts)
    rows = [
        tuple(gq(2) * z for z in pts[0].basis[0]),
        pts[1].basis[0],
        pts[2].basis[0],
    ]
    v = ProjSubspace.from_basis_rows(3, rows)
    assert u == v and hash(u) == hash(v)
    assert all(z.re.denominator >= 1 for row in u.basis for z in row)


def test_point_rejects_zero():
    with pytest.raises(ValueError):
        point([gq(0), gq(0)])


def test_empty_and_whole():
    e = ProjSubspace.empty(3)
    assert e.is_empty and e.proj_dim == -1
    w = ProjSubspace.whole(3)
    assert w.proj_dim == 3
    assert contains(w, e)
