import random

import pytest

from realwonder.engine import wonderful_run
from realwonder.errors import InputError, InternalCheckError
from realwonder.hilbert import (
    SmithData,
    consistency,
    deficiency_effective_gm,
    deficiency_general,
    smith_data_from_run,
)
from realwonder.models import SpaceData, build_fm, build_moduli, parse_sigma


def test_general_formula_values():
    # maximal X: 2 rank mu* - n beta*
    s = SmithData(n=2, beta_total=4, beta_fixed=4, delta=(0, 0, 0, 0), rank_mu=5)
    assert deficiency_general(s, attest_tors2_free=True) == 2 * 5 - 2 * 4

    p1 = SmithData(n=1, beta_total=2, beta_fixed=2, delta=(0, 0), rank_mu=1)
    assert deficiency_general(p1, attest_tors2_free=True) == 0  # (P^1)^[2] = P^2

    s = SmithData(
        n=2, beta_total=4, beta_fixed=2, beta_odd=0, delta=(0, 1, 0, 0), rank_mu=2
    )
    assert deficiency_general(s, attest_tors2_free=True) == 4 + 3 + 8 + 1 - 4 - 0 == 12


def test_effective_gm_formula_values():
    conj = SmithData(n=3, beta_total=10, beta_fixed=10, delta=(0,) * 6)
    assert (
        deficiency_effective_gm(conj, attest_effective_gm=True, attest_tors2_free=True)
        == 0
    )
    ellipsoid = SmithData(n=2, beta_total=4, beta_fixed=2, delta=(0, 1, 0, 0))
    assert (
        deficiency_effective_gm(
            ellipsoid, attest_effective_gm=True, attest_tors2_free=True
        )
        == 3 + 8 + 1
        == 12
    )
    s = SmithData(n=3, beta_total=10, beta_fixed=6, delta=(2, 0, 0, 0, 0, 0))
    assert (
        deficiency_effective_gm(s, attest_effective_gm=True, attest_tors2_free=True)
        == 2 + 40 + 6
        == 48
    )


def test_attestations_required():
    s = SmithData(n=1, beta_total=2, beta_fixed=2, delta=(0, 0), rank_mu=1)
    with pytest.raises(InputError):
        deficiency_general(s)
    with pytest.raises(InputError):
        deficiency_effective_gm(s, attest_tors2_free=True)
    with pytest.raises(InputError):
        deficiency_effective_gm(s, attest_effective_gm=True)
    no_mu = SmithData(n=1, beta_total=2, beta_fixed=2, delta=(0, 0))
    with pytest.raises(InputError):
        deficiency_general(no_mu, attest_tors2_free=True)


def test_consistency_examples():
    ok = SmithData(n=1, beta_total=4, beta_fixed=2, delta=(1, 0))
    assert consistency(ok) == []  # a = 2, sum delta = 1
    bad = SmithData(n=1, beta_total=4, beta_fixed=2, delta=(0, 0))
    assert any("2*sum" in p for p in consistency(bad))
    parity = SmithData(n=1, beta_total=5, beta_fixed=2, delta=(1, 0))
    assert any("even" in p for p in consistency(parity))
    neg = SmithData(n=1, beta_total=2, beta_fixed=4, delta=(0, 0))
    assert any("negative" in p for p in consistency(neg))
    odd_mu = SmithData(n=1, beta_total=3, beta_fixed=3, delta=(0, 0))
    assert any("integral" in p for p in consistency(odd_mu, effective_gm=True))
    short = SmithData(n=2, beta_total=2, beta_fixed=2, delta=(0,))
    assert any("length" in p for p in consistency(short))


def test_negative_deficiency_rejected():
    s = SmithData(n=3, beta_total=10, beta_fixed=10, delta=(0,) * 6, rank_mu=0)
    with pytest.raises(InputError):
        deficiency_general(s, attest_tors2_free=True)


def test_formulas_agree_on_random_valid_data():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 4)
        delta = tuple(rng.randint(0, 3) for _ in range(2 * n))
        a = 2 * sum(delta)
        beta_fixed = rng.randint(0, 9)
        if (n * beta_fixed) % 2:
            beta_fixed += 1
        s = SmithData(n=n, beta_total=beta_fixed + a, beta_fixed=beta_fixed, delta=delta)
        special = deficiency_effective_gm(
            s, attest_effective_gm=True, attest_tors2_free=True
        )
        general = deficiency_general(
            SmithData(
                n=n,
                beta_total=s.beta_total,
                beta_fixed=s.beta_fixed,
                delta=delta,
                rank_mu=n * beta_fixed // 2,
            ),
            attest_tors2_free=True,
        )
        assert special == general >= 0


def test_pipeline_from_runs():
    for result in (
        wonderful_run(build_moduli(parse_sigma("id", 5))),
        wonderful_run(build_fm(2, SpaceData.projective_space(2))),
    ):
        s = smith_data_from_run(result)
        assert s.a == 0 and sum(s.delta) == 0
        assert (
            deficiency_effective_gm(
                s, attest_effective_gm=True, attest_tors2_free=True
            )
            == 0
        )
    not_conj = wonderful_run(build_moduli(parse_sigma("(1 2)", 5)))
    with pytest.raises(InputError):
        smith_data_from_run(not_conj)


def test_formula_disagreement_is_internal(monkeypatch, tmp_path, capsys):
    """If the specialized and general formulas ever disagree, that is an
    internal fault: InternalCheckError, and exit 3 through the CLI."""
    import json

    from realwonder import cli, hilbert

    general = hilbert.deficiency_general
    monkeypatch.setattr(
        hilbert, "deficiency_general", lambda s, **kw: general(s, **kw) + 2
    )
    s = SmithData(n=2, beta_total=4, beta_fixed=2, delta=(0, 1, 0, 0))
    with pytest.raises(InternalCheckError):
        deficiency_effective_gm(s, attest_effective_gm=True, attest_tors2_free=True)
    path = tmp_path / "smith.json"
    path.write_text(
        json.dumps(
            {"smith": s.to_dict(), "attest": {"tors2_free": True, "effective_gm": True}}
        )
    )
    assert cli.main(["hilb2", "--file", str(path)]) == 3
    assert "formulas disagree" in capsys.readouterr().err


def test_from_dict_roundtrip():
    s = SmithData(n=2, beta_total=4, beta_fixed=2, delta=(0, 1, 0, 0), rank_mu=2)
    assert SmithData.from_dict(s.to_dict()) == s
    with pytest.raises(InputError):
        SmithData.from_dict({"n": 1})
