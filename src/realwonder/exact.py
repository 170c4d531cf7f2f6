"""Exact Gaussian-rational scalars a + b*i with Fraction components."""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """An exact complex number whose real and imaginary parts are rationals.

    Immutable; supports field arithmetic, conjugation, and the string
    round-trip format "a/b+c/d*i" used by the input/output schema.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not needed")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ---------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({str(self)!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}*i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse "a/b", "c/d*i", "a/b+c/d*i", "i", "-i", "1-i"."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty GaussianRational literal")
        # split into at most two signed terms
        terms = []
        start = 0
        for pos in range(1, len(s)):
            if s[pos] in "+-" and s[pos - 1] not in "+-/*":
                terms.append(s[start:pos])
                start = pos
        terms.append(s[start:])
        if len(terms) > 2:
            raise ValueError(f"cannot parse GaussianRational {text!r}")
        re = Fraction(0)
        im = Fraction(0)
        seen_im = seen_re = False
        for term in terms:
            if term.endswith("i"):
                if seen_im:
                    raise ValueError(f"two imaginary terms in {text!r}")
                seen_im = True
                body = term[:-1]
                if body.endswith("*"):
                    body = body[:-1]
                if body in ("", "+"):
                    im = Fraction(1)
                elif body == "-":
                    im = Fraction(-1)
                else:
                    im = _fraction(body, text)
            else:
                if seen_re:
                    raise ValueError(f"two real terms in {text!r}")
                seen_re = True
                re = _fraction(term, text)
        return GaussianRational(re, im)


def _fraction(term: str, text: str) -> Fraction:
    """Fraction(term) for a term of the literal text; a zero denominator
    is a ValueError naming the literal, like any other bad literal."""
    try:
        return Fraction(term)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in GaussianRational {text!r}") from None


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")


ONE = GaussianRational(1)
