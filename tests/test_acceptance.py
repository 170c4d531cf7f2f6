"""Acceptance criteria, one test per criterion, at full stated scale.

All equalities are exact (integer arithmetic, zero tolerance).  Each
test prints a single pass line; `realwonder verify --suite full` runs
the same battery from the command line.
"""

import pytest

from realwonder import verification as vf


def _announce(number, name, ok, detail):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_moduli_n4():
    ok, detail = vf.check_moduli_n4()
    _announce(1, "M̅0,4 all sigma", ok, detail)


def test_criterion_02_moduli_n5_id():
    ok, detail = vf.check_moduli_n5_id()
    _announce(2, "M̅0,5 sigma=id", ok, detail)


def test_criterion_03_moduli_n5_transposition():
    ok, detail = vf.check_moduli_n5_transposition()
    _announce(3, "M̅0,5 sigma=(12)", ok, detail)


def test_criterion_04_moduli_n5_double_pair():
    ok, detail = vf.check_moduli_n5_double_pair()
    _announce(4, "M̅0,5 sigma=(12)(34)", ok, detail)


def test_criterion_05_moduli_n6_id():
    ok, detail = vf.check_moduli_n6_id()
    _announce(5, "M̅0,6 sigma=id cross-check 34=34", ok, detail)


def test_criterion_06_sigma_independence():
    ok, detail = vf.check_sigma_independence(nmax=7)
    _announce(6, "complex output independent of sigma (n<=7)", ok, detail)


@pytest.fixture(scope="module")
def corpus():
    """Criteria 7 and 12 read one pass of the corpus."""
    return vf.check_corpus(count=100, nmax=6)


def test_criterion_07_step_identities(corpus):
    ok, detail = corpus
    _announce(7, "ledger and Euler identities every step", ok, detail)


def test_criterion_08_dcp_conjugation_spaces():
    ok, detail = vf.check_dcp_conjugation(count=25)
    _announce(8, "random real DCP are conjugation spaces", ok, detail)


def test_criterion_09_config_models():
    ok, detail = vf.check_config_models()
    _announce(9, "configuration models", ok, detail)


def test_criterion_10_braid_oracle():
    ok, detail = vf.check_braid_oracle(nmax=6)
    _announce(10, "partition vs linear backend (n<=6)", ok, detail)


def test_criterion_11_hilbert_squares():
    ok, detail = vf.check_hilbert_squares(samples=1000)
    _announce(11, "Hilbert square formulas", ok, detail)


def test_criterion_12_global_properties(corpus):
    ok, detail = corpus
    _announce(12, "Smith/parity/duality for all strata every step", ok, detail)


def test_criterion_13_moduli_keel():
    ok, detail = vf.check_moduli_keel(nmax=7)
    _announce(13, "M̅0,n sigma=id against Keel's recursion (n<=7)", ok, detail)


def test_criterion_14_moduli_backends():
    ok, detail = vf.check_moduli_backends(nmax=7)
    _announce(14, "M̅0,n partition backend against the linear oracle (n<=7)", ok, detail)


def test_criterion_15_moduli_fixed_point():
    ok, detail = vf.check_moduli_fixed_point(nmax=6)
    _announce(15, "every distinguished fixed point gives M̅0,n (n<=6)", ok, detail)


def test_moduli_fixed_point_catches_a_wrong_relabelling():
    """A relabelling that forgets sigma's 2-cycles for every choice but
    the first changes the real vector, and the check must say so."""

    def forgetful(spec, fixed):
        if fixed == spec.fixed[0]:
            return vf._relabel_fixing_last(spec, fixed)
        return vf.ModuliSpec(n=spec.n, sigma=tuple(range(1, spec.n + 1)))

    ok, detail = vf.check_moduli_fixed_point(nmax=5, relabel=forgetful)
    assert not ok
    assert "n=5" in detail and "fixed point" in detail


def test_keel_recursion_values():
    """The recursion itself, against the published totals beyond the
    engine's routine reach: n=9 and n=10."""
    assert vf.keel_poincare(9) == [1, 219, 3292, 7723, 3292, 219, 1]
    assert sum(vf.keel_poincare(10)) == 153946
