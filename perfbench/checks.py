"""Checks on --machine reports, made apart from the program's engine.

The report's own structure is read as plain JSON; the expected Betti
vectors come from oracles.py.  Each check returns a list of problems,
empty when the report passes.
"""

from __future__ import annotations

from oracles import even_entries


def palindromic(vector, top: int) -> bool:
    padded = list(vector) + [0] * (top + 1 - len(vector))
    return len(padded) == top + 1 and padded == padded[::-1]


def generic(report: dict) -> list:
    """Every job: odd complex Betti numbers vanish, both vectors satisfy
    Poincare duality, the Smith inequality and parity hold, and the
    report's own checks are all true."""
    problems = []
    final = report["final"]
    n = report["ambient_dim"]
    bc, br = final["betti_c"], final["betti_r"]
    if any(bc[1::2]):
        problems.append(f"odd complex Betti numbers in {bc}")
    if not palindromic(bc, 2 * n):
        problems.append(f"complex vector {bc} breaks Poincare duality in dimension {n}")
    if sum(br) and not palindromic(br, n):
        problems.append(f"real vector {br} breaks Poincare duality in dimension {n}")
    tc, tr = sum(bc), sum(br)
    if tr > tc or (tc - tr) % 2:
        problems.append(f"Smith inequality or parity fails: total_c {tc}, total_r {tr}")
    if final["deficiency"] != tc - tr:
        problems.append(f"deficiency {final['deficiency']} != {tc} - {tr}")
    failed = [name for name, ok in report["checks"] if ok is not True]
    if failed:
        problems.append(f"report checks failed: {failed}")
    return problems


def conjugation_space(report: dict) -> list:
    """Verdict ConjugationSpace, deficiency 0, and the real vector equal
    to the even-degree complex entries."""
    final = report["final"]
    problems = []
    if final["verdict"] != "ConjugationSpace":
        problems.append(f"verdict {final['verdict']}, expected ConjugationSpace")
    if final["deficiency"] != 0:
        problems.append(f"deficiency {final['deficiency']}, expected 0")
    if final["betti_r"] != even_entries(final["betti_c"]):
        problems.append(
            f"real vector {final['betti_r']} != even complex entries {even_entries(final['betti_c'])}"
        )
    return problems


def expect_vectors(report: dict, complex_even=None, real=None) -> list:
    final = report["final"]
    problems = []
    if complex_even is not None and even_entries(final["betti_c"]) != complex_even:
        problems.append(f"complex vector {final['betti_c']} != oracle {complex_even}")
    if real is not None and final["betti_r"] != real:
        problems.append(f"real vector {final['betti_r']} != oracle {real}")
    return problems


def round_trip(text: str, from_json, to_json) -> list:
    """Parsing the report and writing it again gives the same text."""
    return [] if to_json(from_json(text)) == text else ["parse/re-emit changes the report"]

