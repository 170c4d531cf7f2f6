import random

import pytest

from realwonder import gradedpoly as gp
from realwonder.gradedpoly import BettiVector


def test_trim_and_equality():
    assert BettiVector([1, 0, 1, 0, 0]) == BettiVector([1, 0, 1])
    assert BettiVector([]) == gp.ZERO
    assert BettiVector([1]).top == 0
    assert gp.ZERO.top == -1  # the empty space, distinct from the point



def test_hash_is_that_of_the_coefficients():
    """The hash is computed once and equals that of the trimmed
    coefficient tuple, so equal vectors hash alike however built."""
    rng = random.Random(3)
    for _ in range(200):
        coeffs = [rng.randint(0, 3) for _ in range(rng.randint(0, 6))]
        v = BettiVector(coeffs)
        assert hash(v) == hash(v.coeffs)
        for other in (BettiVector(tuple(coeffs)), BettiVector(coeffs + [0, 0])):
            assert other == v and hash(other) == hash(v)
    assert hash(gp.ZERO) == hash(()) == hash(BettiVector([0, 0]))
    assert hash(gp.add([1, 1], [0, 1])) == hash(BettiVector((1, 2)))

def test_negative_rejected():
    with pytest.raises(ValueError):
        BettiVector([1, -1])


def test_add_examples():
    assert gp.add([1], [0]) == [1]
    assert gp.add([1, 0, 1], [0, 2]) == [1, 2, 1]


def test_blowup_of_plane_at_point():
    # classical blow-up of P^2 at a point, cross-checked by Euler 3+1=4
    p2 = gp.projective_betti(2, 2)
    result = gp.add(p2, gp.shift([1], 2))
    assert result == [1, 0, 2, 0, 1]
    assert gp.euler(result) == gp.euler(p2) + gp.euler([1]) == 4


def test_shift_examples():
    assert gp.shift([1], 2) == [0, 0, 1]
    assert gp.shift([1, 1], 1) == [0, 1, 1]
    assert gp.shift([1, 0, 1], 4) == [0, 0, 0, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        gp.shift([1], -1)


def test_bundle_factor_examples():
    assert gp.bundle_factor(1, 2) == [1]
    assert gp.bundle_factor(2, 2) == [1, 0, 1]
    assert gp.bundle_factor(3, 1) == [1, 1, 1]
    with pytest.raises(ValueError):
        gp.bundle_factor(0, 2)


def test_kunneth_examples():
    assert gp.kunneth([1, 0, 1], [1, 0, 1]) == [1, 0, 2, 0, 1]
    p = BettiVector([2, 3, 1])
    assert gp.kunneth(p, [1]) == p
    assert gp.kunneth([1, 1], [1, 1], [1, 1]) == [1, 3, 3, 1]


def test_totals_examples():
    assert gp.total([1, 0, 5, 0, 1]) == 7  # P^2 blown up at four points
    assert gp.euler([1, 1]) == 0  # circle
    assert gp.odd_part([1, 0, 5, 0, 1]) == 0


def test_palindromic_examples():
    assert gp.is_palindromic([1, 0, 5, 0, 1], 4)
    assert gp.is_palindromic([1, 5, 1], 2)
    assert not gp.is_palindromic([1, 2], 1)
    assert gp.is_palindromic(gp.ZERO, 3)


def _random_vector(rng):
    return BettiVector([rng.randint(0, 6) for _ in range(rng.randint(0, 7))])


def test_ring_properties_random():
    rng = random.Random(1)
    for _ in range(200):
        p, q, r = (_random_vector(rng) for _ in range(3))
        assert gp.add(p, q) == gp.add(q, p)
        assert gp.add(gp.add(p, q), r) == gp.add(p, gp.add(q, r))
        assert gp.kunneth(p, q) == gp.kunneth(q, p)
        assert gp.kunneth(gp.kunneth(p, q), r) == gp.kunneth(p, gp.kunneth(q, r))
        assert gp.total(gp.kunneth(p, q)) == gp.total(p) * gp.total(q)
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        assert gp.shift(p, a + b) == gp.shift(gp.shift(p, a), b)


@pytest.mark.parametrize("d", range(1, 8))
def test_bundle_factor_totals(d):
    assert gp.total(gp.bundle_factor(d, 2)) == d
    assert gp.total(gp.bundle_factor(d, 1)) == d
    assert gp.euler(gp.bundle_factor(d, 2)) == d
    assert gp.euler(gp.bundle_factor(d, 1)) == d % 2


def test_blowup_terms():
    # sum_{k=1}^{d-1} shift(center, 2k); empty for codim <= 1
    assert gp.blowup_terms([1], 1, 2) == gp.ZERO
    assert gp.blowup_terms([1], 3, 2) == [0, 0, 1, 0, 1]
    assert gp.blowup_terms([1, 1], 2, 1) == [0, 1, 1]
