import itertools

import pytest

from realwonder.errors import InternalCheckError
from realwonder.flags import (
    CONJUGATION_SPACE,
    DeficiencyLedger,
    FlagSet,
    NO,
    UNKNOWN,
    YES,
    bundle_flags,
    deficiency_update,
    pair_event_flags,
    product_flags,
    propagate_blowup_flags,
    verdict,
)

TRIS = (YES, NO, UNKNOWN)


def test_flagset_normalization():
    fs = FlagSet(maximal=YES)
    assert fs.galois_maximal is YES  # collapse at page 1 implies page 2
    with pytest.raises(ValueError):
        FlagSet(maximal=YES, galois_maximal=NO)


def test_conjugation_space_preserved():
    # real-point conjugation-space center on a conjugation-space ambient
    out = propagate_blowup_flags(
        CONJUGATION_SPACE, CONJUGATION_SPACE, False, YES, 2
    )
    assert out == CONJUGATION_SPACE


def test_empty_real_center_keeps_effectivity():
    out = propagate_blowup_flags(
        FlagSet(effective=YES, maximal=YES, galois_maximal=YES),
        pair_event_flags(),
        True,
        YES,
        2,
    )
    assert out.effective is YES
    assert out.maximal is NO  # deficiency strictly grows
    assert out.galois_maximal is YES


def test_maximal_rules():
    maxes = FlagSet(maximal=YES)
    out = propagate_blowup_flags(maxes, FlagSet(maximal=NO), False, UNKNOWN, 2)
    assert out.maximal is NO
    out = propagate_blowup_flags(maxes, FlagSet(maximal=YES), True, UNKNOWN, 2)
    assert out.maximal is NO  # empty real locus with d >= 2
    out = propagate_blowup_flags(maxes, FlagSet(maximal=YES), False, UNKNOWN, 2)
    assert out.maximal is YES


def test_codim_one_is_isomorphism():
    fs = FlagSet(effective=YES, maximal=NO)
    assert propagate_blowup_flags(fs, FlagSet(), True, YES, 1) == fs


def test_gm_never_no():
    for center in (FlagSet(), FlagSet(galois_maximal=NO)):
        out = propagate_blowup_flags(FlagSet(galois_maximal=YES), center, False, YES, 2)
        assert out.galois_maximal is not NO


def test_monotonicity_exhaustive():
    """Refining an Unknown input never flips a determinate output."""

    def refinements(t):
        return (YES, NO) if t is UNKNOWN else (t,)

    def leq(a, b):  # information order
        return a is UNKNOWN or a is b

    cases = itertools.product(TRIS, repeat=7)
    for e1, m1, g1, e2, m2, g2, s in cases:
        try:
            amb = FlagSet(e1, m1, g1)
            cen = FlagSet(e2, m2, g2)
        except ValueError:
            continue
        for empty in (False, True):
            base = propagate_blowup_flags(amb, cen, empty, s, 2)
            for s2 in refinements(s):
                try:
                    refined = propagate_blowup_flags(amb, cen, empty, s2, 2)
                except ValueError:
                    continue
                assert leq(base.effective, refined.effective)
                assert leq(base.maximal, refined.maximal)
                assert leq(base.galois_maximal, refined.galois_maximal)


def test_bundle_flags():
    assert bundle_flags(CONJUGATION_SPACE) == FlagSet(YES, YES, YES)
    out = bundle_flags(FlagSet(effective=NO, maximal=NO, galois_maximal=NO))
    assert out.effective is UNKNOWN  # implication only
    assert out.maximal is NO  # equivalence
    assert out.galois_maximal is NO


def test_product_flags():
    assert product_flags([CONJUGATION_SPACE, CONJUGATION_SPACE]).maximal is YES
    mixed = product_flags([CONJUGATION_SPACE, FlagSet()])
    assert mixed.effective is UNKNOWN
    assert product_flags([FlagSet(maximal=NO), CONJUGATION_SPACE]).maximal is NO
    assert product_flags([]).maximal is YES


def test_verdicts():
    assert verdict(FlagSet(YES, YES, YES), [1, 0, 1]) == "ConjugationSpace"
    assert (
        verdict(FlagSet(YES, NO, YES), [1, 1, 1]) == "EffectiveGaloisMaximal"
    )
    assert verdict(FlagSet(), [1]) == "Indeterminate"
    assert verdict(FlagSet(effective=YES), [1, 1]) == "Effective"
    assert verdict(FlagSet(galois_maximal=YES), [1, 1]) == "GaloisMaximal"
    assert verdict(FlagSet(UNKNOWN, YES, YES), [1, 0, 1]) == "Maximal"
    with pytest.raises(InternalCheckError):
        verdict(FlagSet(YES, YES, YES), [1, 1, 1])  # odd classes forbidden


def test_inconsistent_verdict_exits_3(monkeypatch, capsys):
    """A conjugation-space verdict with odd classes is an internal fault:
    the CLI maps it to exit 3, not a traceback."""
    from realwonder import cli
    from realwonder import flags

    monkeypatch.setattr(flags.gp, "odd_part", lambda betti: 1)
    assert cli.main(["moduli", "--n", "5"]) == 3
    assert "conjugation space verdict" in capsys.readouterr().err


def test_deficiency_ledger():
    ledger = DeficiencyLedger()
    ledger = deficiency_update(ledger, 2, 0)
    assert ledger.value == 0
    ledger = deficiency_update(ledger, 2, 2, label="pair of points")
    assert ledger.value == 2
    ledger = DeficiencyLedger(2)
    ledger = deficiency_update(ledger, 3, 2)
    assert ledger.value == 6
    with pytest.raises(ValueError):
        deficiency_update(ledger, 1, 2)
    with pytest.raises(ValueError):
        DeficiencyLedger(-2)
    with pytest.raises(ValueError):
        DeficiencyLedger(3)
