import itertools

import pytest

from realwonder import gradedpoly as gp
from realwonder.arrangement import Stratum
from realwonder.engine import wonderful_run
from realwonder.errors import InputError, InternalCheckError
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
    replace,
    verdict,
)
from realwonder.hilbert import SmithData
from realwonder.models import ModuliSpec, SpaceData, build_moduli, parse_sigma

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


def test_replace_runs_the_record_checks():
    """replace builds the record again through its class, so the checks
    of its __new__ run on the result (a named tuple's own _replace
    would skip them)."""
    assert replace(FlagSet(), maximal=YES).galois_maximal is YES
    for value in (3, -2):
        with pytest.raises(ValueError):
            replace(DeficiencyLedger(2), value=value)
    with pytest.raises(InputError):  # Smith inequality: 4 > 2
        replace(SpaceData.projective_space(1), betti_r=gp.BettiVector([1, 1, 1, 1]))
    with pytest.raises(InputError):  # no fixed marked point
        replace(ModuliSpec(4, (2, 1, 3, 4)), sigma=(2, 1, 4, 3))
    smith = replace(SmithData(2, 4, 2), delta=[1, 0])
    assert type(smith.delta) is tuple and smith.delta == (1, 0)


def test_records_are_immutable_values():
    """Every record refuses a new value for any field, and compares,
    hashes and prints by its fields."""
    result = wonderful_run(build_moduli(parse_sigma("id", 5)))
    arr = result.arrangement
    records = (
        arr.ambient.flags, result.ledger, SmithData(2, 4, 2), arr.ambient, arr,
        result.traces[0], result, SpaceData.projective_space(1), ModuliSpec(3, (1, 2, 3)),
    )
    assert len({type(r) for r in records}) == 9
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    assert FlagSet(maximal=YES) == FlagSet(UNKNOWN, YES, YES)
    assert hash(FlagSet(maximal=YES)) == hash(FlagSet(UNKNOWN, YES, YES))
    assert repr(Stratum("a", 0, gp.POINT, gp.POINT)).startswith("Stratum(sid='a', dim_c=0, ")
