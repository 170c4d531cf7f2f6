from fractions import Fraction

import pytest

from realwonder.exact import GaussianRational, ONE
from realwonder.exact import GaussianRational as gq

I = GaussianRational(0, 1)


def test_arithmetic():
    z = gq(1, 2)
    w = gq(3, -1)
    assert z + w == gq(4, 1)
    assert z - w == gq(-2, 3)
    assert z * w == gq(5, 5)
    assert (z * w) / w == z
    assert I * I == -1
    assert z ** 3 == z * z * z
    assert -z == gq(-1, -2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / gq(0, 0)


def test_conjugation_and_predicates():
    z = gq(Fraction(1, 2), Fraction(-3, 4))
    assert z.conjugate() == gq(Fraction(1, 2), Fraction(3, 4))
    assert z.conjugate().conjugate() == z
    assert z.im != 0
    assert gq(5).im == 0
    assert not gq(0, 0)
    assert gq(0, 1)


@pytest.mark.parametrize(
    "text,re,im",
    [
        ("3", 3, 0),
        ("1/2", Fraction(1, 2), 0),
        ("i", 0, 1),
        ("-i", 0, -1),
        ("2*i", 0, 2),
        ("1/2-3/4*i", Fraction(1, 2), Fraction(-3, 4)),
        ("1+i", 1, 1),
        ("-2/3+5*i", Fraction(-2, 3), 5),
    ],
)
def test_parse(text, re, im):
    assert GaussianRational.parse(text) == gq(re, im)


def test_parse_roundtrip():
    for z in [gq(0), gq(1, 1), gq(Fraction(-2, 7), Fraction(5, 3)), gq(0, -2)]:
        assert GaussianRational.parse(str(z)) == z


def test_parse_rejects():
    for bad in ["", "1+2", "i+i", "1+2+3*i"]:
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)
