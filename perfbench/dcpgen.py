"""Seeded generator of small De Concini-Procesi arrangements (the
``dcp-batch`` workload).

Every generator is the span of points [1 : t : ... : t^N] of the
rational normal curve in P^N, N in 3..5, with distinct parameters t, so
any N+1 of the points are independent.  A draw mixes

* invariant generators: spans whose parameter set is closed under
  conjugation (real parameters and conjugate pairs z, conj(z)), of every
  dimension from points to hyperplanes;
* conjugate pairs of generators span(S), span(conj S), where S holds
  non-real parameters only, no z together with conj(z), and
  2|S| <= N+1.

The last rule is what keeps every seeded draw clear of the engine's
touching-pair guard: the 2|S| points of S and conj S are independent,
so span(S) and its conjugate are disjoint, and every non-invariant
member A of the intersection closure lies inside such a generator, so
A and conj(A) are disjoint too.  No conjugate-pair event of a seeded
draw can meet its partner.

Touching pairs, both the ones the engine resolves and the ones it stops
on, come from ``touching_pair_cases``: fixed inputs that do not depend
on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

DIMENSIONS = (3, 4, 5)


def fmt(re: Fraction, im: Fraction = Fraction(0)) -> str:
    """Scalar literal in the program's input format "a/b+c/d*i"."""
    if im == 0:
        return str(re)
    imag = f"{abs(im)}*i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def _real_pool(rng: random.Random, count: int) -> list:
    values = set()
    while len(values) < count:
        values.add(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))))
    return sorted(values)


def _complex_pool(rng: random.Random, count: int) -> list:
    """count parameters with positive imaginary part; their conjugates
    are implied."""
    values = set()
    while len(values) < count:
        values.add(
            (Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
             Fraction(rng.randint(1, 3), rng.choice((1, 1, 2))))
        )
    return sorted(values)


def draw(rng: random.Random, n: int, all_real: bool) -> list:
    """Generators of one arrangement in P^n, each a list of parameters
    (re, im)."""
    reals = _real_pool(rng, n + 2)
    zs = [] if all_real else _complex_pool(rng, n)
    spans = []

    def add(params):
        if sorted(params) not in [sorted(p) for p in spans]:
            spans.append(params)

    for _ in range(rng.randint(2, 3) if all_real else rng.randint(1, 2)):
        k = rng.randint(1, n)
        # an invariant set of k points: conjugate pairs, then reals
        pairs = rng.randint(0, min(len(zs), k // 2))
        params = []
        for a, b in rng.sample(zs, pairs):
            params += [(a, b), (a, -b)]
        params += [(r, Fraction(0)) for r in rng.sample(reals, k - 2 * pairs)]
        add(params)
    if zs:
        k = rng.randint(1, (n + 1) // 2)
        params = [(a, b if rng.random() < 0.5 else -b) for a, b in rng.sample(zs, k)]
        add(params)
        add([(a, -b) for a, b in params])
    return spans


def seeded_draws(seed: int, count: int) -> list:
    """count (n, generators) draws; the make-up (ambient dimension,
    all-real or not) cycles in a fixed pattern, so that only the
    geometry depends on the seed."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = DIMENSIONS[i % len(DIMENSIONS)]
        out.append((n, draw(rng, n, (i // len(DIMENSIONS)) % 5 < 2)))
    return out


def to_input(n: int, spans) -> dict:
    """The program's ``dcp`` input schema."""
    generators = [
        {"name": f"g{i}", "rnc_span": [fmt(a, b) for a, b in params]}
        for i, params in enumerate(spans)
    ]
    return {"ambient_dim": n, "generators": generators}


def seeded_batch(seed: int, count: int) -> list:
    return [to_input(n, spans) for n, spans in seeded_draws(seed, count)]


def is_all_real(arrangement: dict) -> bool:
    return all("i" not in t for g in arrangement["generators"] for t in g["rnc_span"])


def _touching(n: int, reals, zs, extra=()) -> dict:
    """span(reals + zs) and its conjugate, which meet in span(reals);
    2|zs| + |reals| = N+1 makes that meet transversal.  extra: more
    invariant spans, each a tuple of real parameters."""
    def params(sign):
        return [fmt(Fraction(r)) for r in reals] + [
            fmt(Fraction(a), sign * Fraction(b)) for a, b in zs
        ]

    gens = [{"name": "A", "rnc_span": params(1)}, {"name": "Abar", "rnc_span": params(-1)}]
    gens += [
        {"name": f"B{i}", "rnc_span": [fmt(Fraction(t)) for t in ts]}
        for i, ts in enumerate(extra)
    ]
    return {"ambient_dim": n, "generators": gens}


def touching_pair_cases() -> list:
    """(name, arrangement, stops) for the fixed touching-pair inputs.

    In each, a conjugate pair of centres meets transversally in a real
    stratum W.  Alone, the pair is resolved by the engine's real-locus
    correction.  With a real hyperplane added, an invariant stratum
    meets the pair and the engine stops with exit code 3 ("invariant
    stratum ... meets the intersecting conjugate pair"), although the
    paper proves such models effective.
    """
    p4 = (4, (0,), [(1, 1), (2, 1)])
    p5 = (5, (0, 1), [(1, 1), (3, 2)])
    return [
        ("touch-p4", _touching(*p4), False),
        ("touch-p5", _touching(*p5), False),
        ("touch-p4-hyperplane", _touching(*p4, extra=[(2, 3, 4, 5)]), True),
        ("touch-p5-hyperplane", _touching(*p5, extra=[(2, 3, 4, 5, 6)]), True),
    ]
