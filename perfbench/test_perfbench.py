"""Tests of the benchmark's own oracles, generator and trace arithmetic,
against published or hand-derived values; none of them runs realwonder.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import unittest
from fractions import Fraction

import checks
import dcpgen
import oracles
from tracer import self_times


class KeelTest(unittest.TestCase):
    def test_totals_n4_to_n10(self):
        # total Betti numbers of M̅0,n (Keel 1992)
        totals = [sum(oracles.keel(n)) for n in range(4, 11)]
        self.assertEqual(totals, [2, 7, 34, 213, 1630, 14747, 153946])

    def test_vectors(self):
        self.assertEqual(oracles.keel(3), [1])
        self.assertEqual(oracles.keel(5), [1, 5, 1])
        self.assertEqual(oracles.keel(6), [1, 16, 16, 1])
        self.assertEqual(oracles.keel(8), [1, 99, 715, 715, 99, 1])
        self.assertEqual(oracles.keel(9), [1, 219, 3292, 7723, 3292, 219, 1])


class NestedSetTest(unittest.TestCase):
    P1_C, P1_R = [1, 0, 1], [1, 1]

    def test_p1_complex_and_real(self):
        expected = {
            2: [1, 2, 1],  # the diagonal is a divisor: X[2] = P1 x P1
            3: [1, 4, 4, 1],
            4: [1, 9, 16, 9, 1],
            5: [1, 21, 67, 67, 21, 1],
            6: [1, 48, 280, 466, 280, 48, 1],
        }
        for n, vector in expected.items():
            complex_vector = oracles.fm_nested(n, 1, self.P1_C, 2)
            self.assertEqual(oracles.even_entries(complex_vector), vector, n)
            self.assertFalse(any(complex_vector[1::2]), n)
            self.assertEqual(oracles.fm_nested(n, 1, self.P1_R, 1), vector, n)

    def test_p2_two_points(self):
        # Bl_diag(P2 x P2): (1+q+q^2)^2 + q (1+q+q^2)
        self.assertEqual(
            oracles.fm_nested(2, 2, [1, 0, 1, 0, 1], 2), [1, 0, 3, 0, 4, 0, 3, 0, 1]
        )

    def test_laminar_family_count(self):
        # the empty family, {12}, {13}, {23}, {123}, and {ij} < {123}
        self.assertEqual(len(list(oracles._laminar_families(3))), 8)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_batch(self):
        self.assertEqual(dcpgen.seeded_batch(7, 30), dcpgen.seeded_batch(7, 30))
        self.assertNotEqual(dcpgen.seeded_batch(7, 30), dcpgen.seeded_batch(8, 30))

    def test_make_up_does_not_depend_on_the_seed(self):
        def make_up(seed):
            return [
                (a["ambient_dim"], dcpgen.is_all_real(a))
                for a in dcpgen.seeded_batch(seed, 60)
            ]

        self.assertEqual(make_up(1), make_up(2))
        self.assertEqual(sum(real for _, real in make_up(1)), 24)

    def test_conjugate_pairs_cannot_touch(self):
        for n, spans in dcpgen.seeded_draws(3, 300):
            sets = [frozenset(s) for s in spans]
            self.assertEqual(len(set(sets)), len(sets))
            for s in sets:
                self.assertTrue(1 <= len(s) <= n)
                conj = frozenset((a, -b) for a, b in s)
                self.assertIn(conj, sets)
                if conj != s:
                    # no real point, no z with conj(z), independent union
                    self.assertFalse(s & conj)
                    self.assertLessEqual(2 * len(s), n + 1)

    def test_touching_cases_are_transversal(self):
        for name, arrangement, stops in dcpgen.touching_pair_cases():
            a = arrangement["generators"][0]["rnc_span"]
            reals = [t for t in a if "i" not in t]
            self.assertEqual(len(reals) + 2 * (len(a) - len(reals)), arrangement["ambient_dim"] + 1)
            self.assertEqual(stops, len(arrangement["generators"]) > 2, name)

    def test_fmt_round_trips_the_input_format(self):
        self.assertEqual(dcpgen.fmt(Fraction(1, 2), Fraction(-3)), "1/2-3*i")
        self.assertEqual(dcpgen.fmt(Fraction(0), Fraction(-1, 2)), "-1/2*i")
        self.assertEqual(dcpgen.fmt(Fraction(-2)), "-2")


class ChecksTest(unittest.TestCase):
    def report(self, betti_c, betti_r, n, verdict="ConjugationSpace"):
        return {
            "ambient_dim": n,
            "final": {
                "betti_c": betti_c,
                "betti_r": betti_r,
                "deficiency": sum(betti_c) - sum(betti_r),
                "verdict": verdict,
            },
            "checks": [["x", True]],
        }

    def test_good_report_passes(self):
        r = self.report([1, 0, 5, 0, 1], [1, 5, 1], 2)
        self.assertEqual(checks.generic(r) + checks.conjugation_space(r), [])

    def test_each_violation_is_found(self):
        self.assertTrue(checks.generic(self.report([1, 1, 5, 0, 1], [1, 5, 1], 2)))
        self.assertTrue(checks.generic(self.report([1, 0, 5, 0, 2], [1, 5, 1], 2)))
        self.assertTrue(checks.generic(self.report([1, 0, 1], [1, 1, 1], 1)))
        self.assertTrue(checks.conjugation_space(self.report([1, 0, 5, 0, 1], [1, 3, 1], 2)))
        bad = self.report([1, 0, 1], [1, 1], 1)
        bad["checks"] = [["x", False]]
        self.assertTrue(checks.generic(bad))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        trace = {
            "names": ["job", "a", "b"],
            # job [0,100] > a [10,60] > b [20,30], b [40,45]; a [70,80]
            "spans": [
                (0, 0, 100, -1, 0),
                (1, 10, 60, 0, 0),
                (2, 20, 30, 1, 0),
                (2, 40, 45, 1, 0),
                (1, 70, 80, 0, 0),
            ],
        }
        got = self_times(trace)
        self.assertEqual(got[(0, "job")], [1, 40])
        self.assertEqual(got[(0, "a")], [2, 35 + 10])
        self.assertEqual(got[(0, "b")], [2, 15])


if __name__ == "__main__":
    unittest.main()
