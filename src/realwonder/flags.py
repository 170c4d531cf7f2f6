"""Tri-state verdict flags and their blow-up / bundle / product
propagation rules, plus the Smith-Thom deficiency ledger.

Propagation is deliberately conservative: Yes is emitted only when one
of the established implications applies, No only when forced, and
Unknown absorbs forward.  Galois maximality is never propagated to No
(blowing up a non-GM center does not decide it either way).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import gradedpoly as gp
from . import schema
from .errors import InputError, InternalCheckError


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __repr__(self):
        return f"Tri.{self.name}"


YES, NO, UNKNOWN = Tri.YES, Tri.NO, Tri.UNKNOWN


@dataclass(frozen=True, slots=True)
class FlagSet:
    effective: Tri = UNKNOWN
    maximal: Tri = UNKNOWN
    galois_maximal: Tri = UNKNOWN

    def __post_init__(self):
        # collapse at page 1 implies collapse at page 2
        if self.maximal is YES and self.galois_maximal is NO:
            raise ValueError("maximal=yes forces galois_maximal=yes")
        if self.maximal is YES and self.galois_maximal is UNKNOWN:
            object.__setattr__(self, "galois_maximal", YES)

    def as_dict(self):
        return {
            "effective": self.effective.value,
            "maximal": self.maximal.value,
            "galois_maximal": self.galois_maximal.value,
        }


CONJUGATION_SPACE = FlagSet(YES, YES, YES)

# a flags object; each value is yes, no or unknown, in any case
FLAGS = {key: (str, "unknown") for key in ("effective", "maximal", "galois_maximal")}


def read_flags(data, where: str) -> FlagSet:
    """The FlagSet of a JSON flags object (FLAGS), read strictly."""
    fields = schema.read(data, FLAGS, where)
    try:
        return FlagSet(*(Tri(fields[key].lower()) for key in FLAGS))
    except ValueError as exc:
        raise InputError(f"{where}{exc}") from exc


def maximal_problem(flags: FlagSet, defi: int) -> str | None:
    """Why a declared maximal flag contradicts the Smith-Thom deficiency
    defi (maximal means deficiency 0), or None."""
    if flags.maximal is YES and defi != 0:
        return f"declared maximal with deficiency {defi}"
    if flags.maximal is NO and defi == 0:
        return "declared non-maximal with deficiency 0"
    return None


def pair_event_flags() -> FlagSet:
    """Flags of a conj-swapped pair of centers: trivially effective
    (empty fixed locus), never maximal, always Galois maximal (the swap
    makes H^1(G; H*) vanish together with H*(F))."""
    return FlagSet(effective=YES, maximal=NO, galois_maximal=YES)


def propagate_blowup_flags(
    ambient: FlagSet,
    center: FlagSet,
    center_real_empty: bool,
    stretched: Tri,
    codim: int,
) -> FlagSet:
    """Flags of the blow-up of an ambient space along a center event.

    codim <= 1 blow-ups are isomorphisms and change nothing.  A center
    with empty real locus strictly grows the deficiency, so maximality
    is lost; effectivity survives it unconditionally, and survives a
    real center exactly under stretchedness.
    """
    if codim <= 1:
        return ambient

    if ambient.effective is YES and center_real_empty:
        eff = YES
    elif stretched is YES and ambient.effective is YES and center.effective is YES:
        eff = YES
    else:
        eff = UNKNOWN

    if ambient.maximal is NO or center.maximal is NO:
        mx = NO
    elif center_real_empty:
        mx = NO
    elif ambient.maximal is YES and center.maximal is YES:
        mx = YES
    else:
        mx = UNKNOWN

    if ambient.galois_maximal is YES and center.galois_maximal is YES:
        gm = YES
    elif mx is YES:
        gm = YES
    else:
        gm = UNKNOWN

    return FlagSet(eff, mx, gm)


def bundle_flags(base: FlagSet) -> FlagSet:
    """Flags of a projectivized (flag) bundle over a base: equivalence
    for maximal and Galois maximal, implication for effective."""
    eff = YES if base.effective is YES else UNKNOWN
    return FlagSet(eff, base.maximal, base.galois_maximal)


def product_flags(factors) -> FlagSet:
    """Componentwise conjunction over finitely many factors.  For
    maximality the converse also holds (Kunneth makes deficiencies of
    factors add up), so one No factor forces No."""
    factors = list(factors)
    if not factors:
        return CONJUGATION_SPACE

    def conj(values, no_propagates):
        if all(v is YES for v in values):
            return YES
        if no_propagates and any(v is NO for v in values):
            return NO
        return UNKNOWN

    return FlagSet(
        conj([f.effective for f in factors], no_propagates=False),
        conj([f.maximal for f in factors], no_propagates=True),
        conj([f.galois_maximal for f in factors], no_propagates=False),
    )


def verdict(flags: FlagSet, betti_c) -> str:
    """Strongest verdict consistent with the flags.

    A ConjugationSpace verdict asserts vanishing odd cohomology; a
    violation means the engine is internally inconsistent, not that the
    input was bad.
    """
    if flags.effective is YES and flags.maximal is YES:
        if gp.odd_part(betti_c) != 0:
            raise InternalCheckError(
                "conjugation space verdict with nonzero odd Betti numbers"
            )
        return "ConjugationSpace"
    if flags.effective is YES and flags.galois_maximal is YES:
        return "EffectiveGaloisMaximal"
    if flags.maximal is YES:
        return "Maximal"
    if flags.effective is YES:
        return "Effective"
    if flags.galois_maximal is YES:
        return "GaloisMaximal"
    return "Indeterminate"


@dataclass(frozen=True)
class DeficiencyLedger:
    """Running total(betti_c) - total(betti_r) of the ambient, updated
    multiplicatively by blow-up events and cross-checked against the
    Betti payloads after every step."""

    value: int = 0
    contributions: tuple = ()

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("deficiency must be non-negative")
        if self.value % 2:
            raise ValueError("deficiency must be even")


def deficiency_update(ledger: DeficiencyLedger, d: int, center_defi: int,
                      label: str = "") -> DeficiencyLedger:
    """Ledger update a' = a + (d-1) * defi(center) for a codim-d event."""
    if d < 2:
        raise ValueError("deficiency_update requires codim >= 2")
    added = (d - 1) * center_defi
    return DeficiencyLedger(
        ledger.value + added,
        ledger.contributions + ((label, d, center_defi, added),),
    )
