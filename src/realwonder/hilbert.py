"""Smith-Thom deficiency of Hilbert squares.

The connecting-homomorphism ranks delta_k and rank mu* need chain-level
data that is out of scope here, so they are inputs; consistency() guards
against garbage.  Both deficiency formulas require the caller to attest
the 2-torsion-freeness hypothesis (and the specialized one additionally
effectivity + Galois maximality + vanishing odd homology).
"""

from __future__ import annotations

from collections import namedtuple

from . import schema
from .errors import InputError, InternalCheckError
from .flags import replace

# the "smith" object of a `hilb2 --file` input
SMITH = {
    "n": int,
    "beta_total": int,
    "beta_fixed": int,
    "beta_odd": (int, 0),
    "delta": ([int], []),
    "rank_mu": (int, None),
}


class SmithData(namedtuple("SmithData", "n beta_total beta_fixed beta_odd delta rank_mu")):
    """Rank bookkeeping around the Smith exact sequence of an
    n-dimensional variety with real structure."""

    __slots__ = ()

    def __new__(cls, n, beta_total, beta_fixed, beta_odd=0, delta=(), rank_mu=None):
        delta = tuple(int(x) for x in delta)
        return tuple.__new__(cls, (n, beta_total, beta_fixed, beta_odd, delta, rank_mu))

    @property
    def a(self) -> int:
        """Smith-Thom deficiency beta_total - beta_fixed."""
        return self.beta_total - self.beta_fixed

    @classmethod
    def from_dict(cls, d) -> "SmithData":
        """The Smith data of a JSON object (SMITH)."""
        return cls(**schema.read(d, SMITH, "bad Smith data: "))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "beta_total": self.beta_total,
            "beta_fixed": self.beta_fixed,
            "beta_odd": self.beta_odd,
            "delta": list(self.delta),
            "rank_mu": self.rank_mu,
        }


def consistency(s: SmithData, effective_gm: bool = False) -> list[str]:
    """Rank accounting around the Smith sequence; empty list when ok."""
    problems = []
    if s.n < 1:
        problems.append("dimension n must be >= 1")
    if s.beta_total < 0 or s.beta_fixed < 0 or s.beta_odd < 0:
        problems.append("negative Betti totals")
    if s.beta_odd > s.beta_total:
        problems.append("beta_odd exceeds beta_total")
    if s.a < 0:
        problems.append("deficiency a = beta_total - beta_fixed is negative")
    if s.a % 2:
        problems.append("deficiency a must be even")
    if len(s.delta) != 2 * s.n:
        problems.append(f"delta must have length 2n = {2 * s.n}")
    if any(x < 0 for x in s.delta):
        problems.append("delta ranks must be non-negative")
    if s.a != 2 * sum(s.delta):
        problems.append(
            f"exact-sequence rank count a = 2*sum(delta) fails "
            f"({s.a} != {2 * sum(s.delta)})"
        )
    if s.rank_mu is not None and s.rank_mu < 0:
        problems.append("rank_mu must be non-negative")
    if effective_gm and (s.n * s.beta_fixed) % 2:
        problems.append("effective+GM requires n*beta_fixed even (rank mu* integral)")
    return problems


def _weighted_delta(s: SmithData) -> int:
    return sum((2 * k - 1) * dk for k, dk in enumerate(s.delta, start=1))


def deficiency_general(s: SmithData, *, attest_tors2_free: bool = False) -> int:
    """defi(X^[2]) = 2 rank mu* + sum (2k-1) delta_k + a beta_*
    + a(a-1)/2 - n beta_*(F) - beta_odd."""
    if not attest_tors2_free:
        raise InputError(
            "deficiency_general requires attesting Tors_2 H_*(X,Z) = 0"
        )
    if s.rank_mu is None:
        raise InputError("deficiency_general requires rank_mu")
    problems = consistency(s)
    if problems:
        raise InputError("inconsistent Smith data: " + "; ".join(problems))
    a = s.a
    value = (
        2 * s.rank_mu
        + _weighted_delta(s)
        + a * s.beta_total
        + a * (a - 1) // 2
        - s.n * s.beta_fixed
        - s.beta_odd
    )
    if value < 0:
        raise InputError(
            f"negative Hilbert-square deficiency {value}: inputs do not "
            "describe a real variety"
        )
    return value


def deficiency_effective_gm(
    s: SmithData,
    *,
    attest_effective_gm: bool = False,
    attest_tors2_free: bool = False,
) -> int:
    """defi(X^[2]) = sum (2k-1) delta_k + a beta_* + a(a-1)/2 for an
    effective Galois-maximal X with vanishing odd homology; internally
    rank mu* = (n/2) beta_*(F)."""
    if not attest_effective_gm:
        raise InputError(
            "deficiency_effective_gm requires attesting that X is effective, "
            "Galois maximal, and H_odd(X) = 0"
        )
    if not attest_tors2_free:
        raise InputError(
            "deficiency_effective_gm requires attesting Tors_2 H_*(X,Z) = 0"
        )
    problems = consistency(s, effective_gm=True)
    if problems:
        raise InputError("inconsistent Smith data: " + "; ".join(problems))
    a = s.a
    value = _weighted_delta(s) + a * s.beta_total + a * (a - 1) // 2
    general = deficiency_general(
        replace(s, beta_odd=0, rank_mu=s.n * s.beta_fixed // 2),
        attest_tors2_free=True,
    )
    if value != general:
        raise InternalCheckError(
            "specialized and general Hilbert-square formulas disagree"
        )
    return value


def smith_data(n: int, total_c: int, total_r: int, verdict: str) -> SmithData:
    """SmithData of an n-dimensional run with the given Betti totals.
    Only conjugation spaces pin all the inputs (a = 0 forces delta = 0,
    and no-odd gives beta_odd = 0 with rank mu* = (n/2) beta_*(F))."""
    if verdict != "ConjugationSpace":
        raise InputError(
            "only ConjugationSpace runs determine Smith data automatically; "
            f"got verdict {verdict}"
        )
    return SmithData(
        n=n,
        beta_total=total_c,
        beta_fixed=total_r,
        beta_odd=0,
        delta=(0,) * (2 * n),
        rank_mu=n * total_r // 2,
    )


def smith_data_from_run(result) -> SmithData:
    """Wire a wonderful-run result into SmithData."""
    from . import gradedpoly as gp

    return smith_data(
        result.arrangement.ambient.dim_c,
        gp.total(result.betti_c),
        gp.total(result.betti_r),
        result.verdict,
    )
