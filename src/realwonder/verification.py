"""Verification suites: the acceptance criteria as runnable checks.

Shared between `realwonder verify` and the test suite.  Every check is
deterministic (seeded randomness) and exact (integer equalities, no
tolerances).
"""

from __future__ import annotations

import random
import time
from math import comb

from . import gradedpoly as gp
from .arrangement import check_event_prefixes
from .engine import wonderful_run
from .errors import RealWonderError
from .hilbert import (
    SmithData,
    consistency,
    deficiency_effective_gm,
    deficiency_general,
    smith_data_from_run,
)
from .models import (
    ModuliSpec,
    SpaceData,
    build_braid,
    build_dcp,
    build_fm,
    build_kt,
    build_moduli,
    build_ulyanov,
    parse_sigma,
    _relabel_fixing_last,
)
from .report import build_report
from .subspaces import rnc_points, span_points


def _all_involutions_with_fix(n: int):
    """All order-<=2 permutations of 1..n with a fixed point, each made
    once: the identity, then every set of disjoint 2-cycles depth first,
    each cycle (a b) followed by its extensions on the points after a."""
    out = [ModuliSpec(n=n, sigma=tuple(range(1, n + 1)))]

    def rec(points, sigma, moved):
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                images = list(sigma)
                images[a - 1], images[b - 1] = b, a
                if moved + 2 < n:  # some point is left fixed
                    out.append(ModuliSpec(n=n, sigma=tuple(images)))
                rec([x for x in points[i + 1:] if x != b], images, moved + 2)

    identity = range(1, n + 1)
    rec(identity, identity, 0)
    return out


def _sigma_samples(n: int, rng: random.Random, per_type: int = 2):
    """Representatives of every 2-cycle count, plus random relabelings."""
    by_cycles = {}
    for spec in _all_involutions_with_fix(n):
        k = sum(1 for i in range(n) if spec.sigma[i] > i + 1)
        by_cycles.setdefault(k, []).append(spec)
    picked = []
    for k in sorted(by_cycles):
        group = by_cycles[k]
        picked.append(group[0])
        extra = rng.sample(group[1:], min(per_type - 1, len(group) - 1))
        picked.extend(extra)
    return picked


def _sigma_types(n: int):
    """One involution with a fixed point per number k of 2-cycles:
    (1 2)…(2k-3 2k-2)(2k-1 n), so every k >= 1 moves the last point and
    build_moduli relabels it."""
    out = []
    for k in range((n - 1) // 2 + 1):
        sigma = list(range(1, n + 1))
        pairs = [(2 * i - 1, 2 * i) for i in range(1, k)]
        if k:
            pairs.append((2 * k - 1, n))
        for i, j in pairs:
            sigma[i - 1], sigma[j - 1] = j, i
        out.append(ModuliSpec(n=n, sigma=tuple(sigma)))
    return out


def _stop_or_value(compute, *args):
    """compute(*args) or, when it stops, ("stop", exception type, step,
    message)."""
    try:
        return compute(*args)
    except RealWonderError as exc:
        return ("stop", type(exc).__name__, getattr(exc, "step", None), str(exc))


def random_dcp_arrangement(rng: random.Random, ambient_dim: int):
    """Spans of random subsets of rational-normal-curve points in
    P^3 / P^4, the randomized real linear corpus."""
    npts = ambient_dim + 2
    params = rng.sample(range(-9, 10), npts)
    pts = rnc_points(ambient_dim, params)
    count = rng.randint(2, 4 + (ambient_dim - 3))
    subsets = set()
    while len(subsets) < count:
        size = rng.randint(1, ambient_dim - 1)
        subsets.add(tuple(sorted(rng.sample(range(npts), size))))
    generators = []
    for subset in sorted(subsets):
        name = "g" + ".".join(str(i) for i in subset)
        generators.append((name, span_points([pts[i] for i in subset])))
    desc = f"dcp P^{ambient_dim} {sorted(subsets)} params {params}"
    return desc, build_dcp(ambient_dim, generators)


def corpus_runs(seed: int = 20260808, count: int = 100, nmax: int = 6):
    """The test corpus: randomized real DCP arrangements plus all the
    moduli and configuration runs; yields (description, RunResult)."""
    rng = random.Random(seed)
    for i in range(count):
        ambient_dim = 3 if i % 2 == 0 else 4
        desc, arr = random_dcp_arrangement(rng, ambient_dim)
        yield desc, wonderful_run(arr)
    for n in range(4, nmax + 1):
        for spec in _sigma_samples(n, rng, per_type=1):
            yield f"moduli n={n} sigma={spec.sigma}", wonderful_run(
                build_moduli(spec)
            )
    p1 = SpaceData.projective_space(1)
    p2 = SpaceData.projective_space(2)
    for desc, arr in [
        ("fm n=2 P2", build_fm(2, p2)),
        ("fm n=3 P1", build_fm(3, p1)),
        ("fm n=4 P1", build_fm(4, p1)),
        ("fm n=3 P2", build_fm(3, p2)),
        ("ulyanov n=3 P1", build_ulyanov(3, p1)),
        ("ulyanov n=4 P1", build_ulyanov(4, p1)),
        ("ulyanov n=3 P2", build_ulyanov(3, p2)),
        ("fm n=2 ellipsoid", build_fm(2, SpaceData.ellipsoid())),
        ("kt n=3 P1 chain", build_kt(3, p1, [[[1, 2, 3]]])),
    ]:
        yield desc, wonderful_run(arr)


# ----------------------------------------------------------------------
# acceptance criteria


def check_moduli_n4():
    """Criterion 1: every real structure on the 4-pointed moduli space
    gives P^1 with its standard real structure."""
    for spec in _all_involutions_with_fix(4):
        res = wonderful_run(build_moduli(spec))
        if list(res.betti_c) != [1, 0, 1] or list(res.betti_r) != [1, 1]:
            return False, f"sigma={spec.sigma}: {list(res.betti_c)}/{list(res.betti_r)}"
    return True, "complex (1,0,1), real (1,1) for all sigma"


def check_moduli_n5_id():
    res = wonderful_run(check_event_prefixes(build_moduli(parse_sigma("id", 5))))
    ok = (
        list(res.betti_c) == [1, 0, 5, 0, 1]
        and list(res.betti_r) == [1, 5, 1]
        and res.verdict == "ConjugationSpace"
        and res.deficiency == 0
    )
    return ok, f"{list(res.betti_c)}/{list(res.betti_r)} {res.verdict} defi {res.deficiency}"


def check_moduli_n5_transposition():
    res = wonderful_run(build_moduli(parse_sigma("(1 2)", 5)))
    ok = (
        gp.total(res.betti_c) == 7
        and gp.total(res.betti_r) == 5
        and res.deficiency == 2
        and res.verdict == "EffectiveGaloisMaximal"
    )
    return ok, f"totals {gp.total(res.betti_c)}/{gp.total(res.betti_r)} {res.verdict}"


def check_moduli_n5_double_pair():
    res = wonderful_run(build_moduli(parse_sigma("(1 2)(3 4)", 5)))
    ok = gp.total(res.betti_r) == 3 and res.deficiency == 4
    return ok, f"real total {gp.total(res.betti_r)} defi {res.deficiency}"


def check_moduli_n6_id():
    """Criterion 5: the degree-2 and degree-1 recursions are independent
    computations whose totals must agree (maximality)."""
    res = wonderful_run(check_event_prefixes(build_moduli(parse_sigma("id", 6))))
    ok = (
        list(res.betti_c) == [1, 0, 16, 0, 16, 0, 1]
        and list(res.betti_r) == [1, 16, 16, 1]
        and gp.total(res.betti_c) == 34 == gp.total(res.betti_r)
    )
    return ok, f"{list(res.betti_c)} / {list(res.betti_r)}"


def check_sigma_independence(nmax: int = 7, per_type: int = 2):
    """Criterion 6: the complex output depends only on n.  Exhaustive
    over sigma for n <= 5; every 2-cycle count with random relabelings
    for n = 6, 7 (the complex path is label-independent by symmetry of
    the construction)."""
    rng = random.Random(4)
    for n in range(4, nmax + 1):
        specs = (
            _all_involutions_with_fix(n)
            if n <= 5
            else _sigma_samples(n, rng, per_type=per_type)
        )
        reference = None
        for spec in specs:
            res = wonderful_run(build_moduli(spec))
            if reference is None:
                reference = res.betti_c
            elif res.betti_c != reference:
                return False, f"n={n} sigma={spec.sigma} differs"
    # independence of the real parameter choice as well
    res_a = wonderful_run(
        build_moduli(
            ModuliSpec(n=5, sigma=(1, 2, 3, 4, 5)),
            backend="linear",
            real_params=[0, 1, 2, 3],
        )
    )
    res_b = wonderful_run(
        build_moduli(
            ModuliSpec(n=5, sigma=(1, 2, 3, 4, 5)),
            backend="linear",
            real_params=[-5, 1, 7, 11],
        )
    )
    if res_a.betti_c != res_b.betti_c or res_a.betti_r != res_b.betti_r:
        return False, "parameter choice changed the answer"
    return True, f"complex output identical across sigma for n <= {nmax}"


def check_corpus(count: int = 100, nmax: int = 6):
    """Criteria 7 and 12 over one pass of the corpus.

    7: ledger and Euler identities after every step of every run,
    re-derived from the traces.
    12: Smith inequality, parity and duality for every ambient and
    stratum after every step.  The engine asserts these after each step
    for the ambient and every stratum the step changed, and for all
    strata at the end of a run, and aborts on violation, so completion
    of the whole corpus is the check; the final arrangements are
    re-validated here."""
    runs = 0
    steps = 0
    for desc, result in corpus_runs(count=count, nmax=nmax):
        report = build_report({"desc": desc}, result)
        for name, ok in report["checks"]:
            if not ok:
                return False, f"{desc}: {name} failed"
        problems = result.arrangement.validate_strata()
        if problems:
            return False, f"{desc}: {problems[0]}"
        runs += 1
        steps += len(result.traces)
    return True, (
        f"{runs} runs, {steps} steps, all identities exact, "
        "per-step property checks on"
    )


def check_dcp_conjugation(count: int = 25, seed: int = 7):
    """Criterion 8: randomized real linear DCP arrangements are
    conjugation spaces with zero deficiency and no odd cohomology."""
    rng = random.Random(seed)
    for i in range(count):
        desc, arr = random_dcp_arrangement(rng, 3 if i % 2 == 0 else 4)
        res = wonderful_run(arr)
        if (
            res.verdict != "ConjugationSpace"
            or res.deficiency != 0
            or gp.odd_part(res.betti_c) != 0
        ):
            return False, f"{desc}: {res.verdict} defi {res.deficiency}"
    return True, f"{count} random real arrangements, all ConjugationSpace"


def check_config_models():
    """Criterion 9: FM values, Ulyanov >= FM degreewise, and the flag
    transfer from the input space."""
    p1, p2 = SpaceData.projective_space(1), SpaceData.projective_space(2)
    res = wonderful_run(build_fm(2, p2))
    if not (
        gp.total(res.betti_c) == 12 == gp.total(res.betti_r)
        and res.verdict == "ConjugationSpace"
    ):
        return False, f"fm(2, P2): {gp.total(res.betti_c)}/{gp.total(res.betti_r)}"
    res = wonderful_run(build_fm(3, p1))
    if not (gp.total(res.betti_c) == 10 == gp.total(res.betti_r)):
        return False, f"fm(3, P1): {gp.total(res.betti_c)}/{gp.total(res.betti_r)}"
    for n, x in [(3, p1), (3, p2), (4, p1)]:
        fm = wonderful_run(build_fm(n, x))
        ul = wonderful_run(build_ulyanov(n, x))
        pairs = [(fm.betti_c, ul.betti_c), (fm.betti_r, ul.betti_r)]
        for small, big in pairs:
            if any(small[i] > big[i] for i in range(len(small))):
                return False, f"ulyanov < fm degreewise at n={n} {x.name}"
    ell = wonderful_run(build_fm(2, SpaceData.ellipsoid()))
    if ell.verdict != "EffectiveGaloisMaximal":
        return False, f"ellipsoid transfer: {ell.verdict}"
    return True, "fm/ulyanov values, degreewise domination, flag transfer"


def check_braid_oracle(nmax: int = 6):
    """Criterion 10: the partition and linear backends produce the same
    strata, identical step traces and final Betti vectors.  Traces list
    only the strata a center touched, so the stratum ids are compared
    on their own, before and after the run."""
    for n in range(3, nmax + 1):
        ap = build_braid(n, "partition")
        al = build_braid(n, "linear")
        if set(ap.strata) != set(al.strata):
            return False, f"n={n}: initial strata differ"
        rp = wonderful_run(ap)
        rl = wonderful_run(al)
        if set(rp.arrangement.strata) != set(rl.arrangement.strata):
            return False, f"n={n}: final strata differ"
        if rp.betti_c != rl.betti_c or rp.betti_r != rl.betti_r:
            return False, f"n={n}: final Betti differ"
        if len(rp.traces) != len(rl.traces):
            return False, f"n={n}: different step counts"
        for tp, tl in zip(rp.traces, rl.traces):
            if tp != tl:
                return False, f"n={n}: trace at {tp.event} differs"
    return True, f"same strata, identical traces and Betti vectors for n <= {nmax}"


def _backend_outcome(spec: ModuliSpec, backend: str):
    arr = build_moduli(spec, backend=backend)
    res = wonderful_run(arr)
    return (
        set(arr.strata),
        set(res.arrangement.strata),
        list(res.traces),
        res.betti_c,
        res.betti_r,
        res.verdict,
    )


_BACKEND_FIELDS = (
    "initial strata", "final strata", "traces", "complex Betti", "real Betti", "verdict"
)


def check_moduli_backends(nmax: int = 7):
    """The linear moduli path is the oracle of the partition path: for
    every sigma type, the same stratum ids before and after the run,
    identical step traces, Betti vectors and verdict; or the same stop
    (exception type, step and message) on both."""
    stops = 0
    for n in range(4, nmax + 1):
        for spec in _sigma_types(n):
            part = _stop_or_value(_backend_outcome, spec, "partition")
            lin = _stop_or_value(_backend_outcome, spec, "linear")
            if part[0] == "stop" or lin[0] == "stop":
                if part != lin:
                    return False, f"n={n} sigma={spec.sigma}: {part[:3]} vs {lin[:3]}"
                stops += 1
                continue
            for name, p, q in zip(_BACKEND_FIELDS, part, lin):
                if p != q:
                    return False, f"n={n} sigma={spec.sigma}: {name} differ"
    return True, (
        f"partition and linear backends agree for every sigma type, n <= {nmax}"
        f" ({stops} equal stops)"
    )


def _vectors_and_verdict(spec: ModuliSpec):
    res = wonderful_run(build_moduli(spec))
    return list(res.betti_c), list(res.betti_r), res.verdict


def check_moduli_fixed_point(nmax: int = 6, relabel=_relabel_fixing_last):
    """Metamorphic oracle: relabelling so that another sigma-fixed point
    is the distinguished one gives the same variety, so every choice
    must give the same complex and real vectors and verdict, or a stop
    of the same exception type (its message names relabelled strata)."""
    choices = 0
    for n in range(4, nmax + 1):
        for spec in _sigma_types(n):
            outcomes = {}
            for m in spec.fixed:
                found = _stop_or_value(_vectors_and_verdict, relabel(spec, m))
                outcomes[m] = found[:2] if found[0] == "stop" else found
            choices += len(outcomes)
            first = outcomes[spec.fixed[0]]
            for m, found in outcomes.items():
                if found != first:
                    return False, (
                        f"n={n} sigma={spec.sigma}: fixed point {m} gives {found}, "
                        f"{spec.fixed[0]} gives {first}"
                    )
    return True, f"{choices} choices of the distinguished point agree for n <= {nmax}"


def _poly_mul(p, r) -> list:
    """Product of integer coefficient lists, lowest degree first."""
    out = [0] * (len(p) + len(r) - 1) if p and r else []
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def _poly_add(p, r) -> list:
    out = [0] * max(len(p), len(r))
    for poly in (p, r):
        for i, c in enumerate(poly):
            out[i] += c
    return out


def keel_poincare(n: int) -> list:
    """Coefficients of the Poincare polynomial of M̅0,n in q = t^2
    (n >= 3), by Keel's recursion (Keel 1992, Trans. AMS 330):
        P_3 = 1,
        P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}.
    Plain integer lists, independent of the blow-up engine."""
    polys = {3: [1]}
    for m in range(3, n):
        acc = [0]
        for j in range(2, m - 1):
            acc = _poly_add(
                acc, [comb(m, j) * c for c in _poly_mul(polys[j + 1], polys[m - j + 1])]
            )
        # the sum is symmetric in j <-> m-j and C(m, m/2) is even, so halving is exact
        polys[m + 1] = _poly_add(_poly_mul([1, 1], polys[m]), [0] + [c // 2 for c in acc])
    return polys[n]


def fm_nested_betti(n: int, dim_x: int, betti_x, step: int) -> list:
    """Betti vector of the Fulton-MacPherson space X[n] by the nested-set
    formula (Fulton-MacPherson 1994): the sum over nested sets T
    (laminar families of subsets of [n] with two or more points) of
        P(X)^(top blocks of T) * prod_{I in T} (q + q^2 + ... + q^(r_I - 1)),
    with r_I = dim X * (blocks of I - 1); the blocks of a set are its
    maximal proper members in T and its points in none of them.
    q = t^step: step 2 with the complex Betti numbers of X gives the
    complex vector, step 1 with the real ones the real vector.

    The sum is taken by the exponential formula, not by listing nested
    sets.  With y marking blocks, D_s sums over the set partitions of an
    s-set into top blocks; a block of j >= 2 points is a member, weighted
    by c(j), the sum over everything nested inside it.  Splitting off
    the block of the first point,
        D_s = sum_{j=1}^{s} C(s-1, j-1) * w_j * D_{s-j},  D_0 = 1,
    with w_1 = y and w_j = y * c(j).  The j = s term is the s-set as one
    member, y * c(s), and the other terms split it into k >= 2 blocks,
    so c(s) = sum_k [y^k](D_s - y * c(s)) * (q + ... + q^(dim X (k-1) - 1)).
    X[n] is D_n at y = P(X).  Plain integer lists, independent of the
    blow-up engine."""

    def y_mul(u, v):  # polynomials in y with coefficients in q: {k: coeffs}
        out = {}
        for i, p in u.items():
            for j, r in v.items():
                out[i + j] = _poly_add(out.get(i + j, []), _poly_mul(p, r))
        return out

    px = [betti_x[d] for d in range(0, len(betti_x), step)]
    d_polys = [{0: [1]}]
    member = {}  # c(j)
    for s in range(1, n + 1):
        split = {}  # D_s - y * c(s): the s-set in two or more blocks
        for j in range(1, s):
            w = {1: [1] if j == 1 else member[j]}
            for k, p in y_mul(w, d_polys[s - j]).items():
                split[k] = _poly_add(split.get(k, []), [comb(s - 1, j - 1) * c for c in p])
        if s == 1:
            d_polys.append({1: [1]})
            continue
        member[s] = []
        for k, p in split.items():
            member[s] = _poly_add(member[s], _poly_mul(p, [0] + [1] * (dim_x * (k - 1) - 1)))
        split[1] = _poly_add(split.get(1, []), member[s])
        d_polys.append(split)
    total = []
    for k, p in d_polys[n].items():
        power = [1]
        for _ in range(k):
            power = _poly_mul(power, px)
        total = _poly_add(total, _poly_mul(p, power))
    out = [0] * ((len(total) - 1) * step + 1)
    out[::step] = total
    while out and out[-1] == 0:
        out.pop()
    return out


def check_moduli_keel(nmax: int = 8):
    """Keel's recursion against the engine for M̅0,n with sigma = id:
    the complex vector carries the recursion's coefficients in even
    degrees (zeros in odd ones), and the real vector equals them."""
    for n in range(4, nmax + 1):
        q = keel_poincare(n)
        res = wonderful_run(build_moduli(parse_sigma("id", n)))
        complex_expected = [0] * (2 * len(q) - 1)
        complex_expected[::2] = q
        if list(res.betti_c) != complex_expected or list(res.betti_r) != q:
            return False, f"n={n}: {list(res.betti_c)}/{list(res.betti_r)}, Keel {q}"
    return True, f"complex and real vectors match Keel's recursion for n <= {nmax}"


def _fm_vectors(n: int, x: SpaceData):
    res = wonderful_run(build_fm(n, x))
    return list(res.betti_c), list(res.betti_r)


def check_fm_nested_set(nmax: int = 6):
    """The nested-set formula against the engine for FM(X, n) on P^1 and
    P^2: the complex and the real Betti vectors."""
    for x in (SpaceData.projective_space(1), SpaceData.projective_space(2)):
        for n in range(2, nmax + 1):
            found = _stop_or_value(_fm_vectors, n, x)
            expected = (
                fm_nested_betti(n, x.dim_c, list(x.betti_c), 2),
                fm_nested_betti(n, x.dim_c, list(x.betti_r), 1),
            )
            if found != expected:
                return False, f"fm({n}, {x.name}): {found}, nested sets {expected}"
    return True, f"complex and real vectors match nested sets on P1, P2 for n <= {nmax}"


def check_hilbert_squares(samples: int = 1000, seed: int = 11):
    """Criterion 11: conjugation-space inputs give 0; the P^1 case
    matches beta(P^2) - beta(RP^2); the two formulas agree on random
    valid Smith data."""
    for builder in (
        build_moduli(parse_sigma("id", 5)),
        build_fm(2, SpaceData.projective_space(2)),
    ):
        res = wonderful_run(builder)
        s = smith_data_from_run(res)
        if deficiency_effective_gm(s, attest_effective_gm=True, attest_tors2_free=True) != 0:
            return False, "conjugation-space input with nonzero Hilbert deficiency"
    p1 = SmithData(n=1, beta_total=2, beta_fixed=2, beta_odd=0, delta=(0, 0), rank_mu=1)
    value = deficiency_general(p1, attest_tors2_free=True)
    p2_defect = (1 + 1 + 1) - (1 + 1 + 1)  # beta(P^2) - beta(RP^2)
    if value != p2_defect:
        return False, f"P1 Hilbert square: {value} != {p2_defect}"
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, 4)
        delta = tuple(rng.randint(0, 3) for _ in range(2 * n))
        a = 2 * sum(delta)
        beta_fixed = rng.randint(0, 10)
        if (n * beta_fixed) % 2:
            beta_fixed += 1
        s = SmithData(
            n=n,
            beta_total=beta_fixed + a,
            beta_fixed=beta_fixed,
            beta_odd=0,
            delta=delta,
            rank_mu=None,
        )
        if consistency(s, effective_gm=True):
            return False, f"generated inconsistent data {s}"
        special = deficiency_effective_gm(
            s, attest_effective_gm=True, attest_tors2_free=True
        )
        general = deficiency_general(
            SmithData(
                n=n,
                beta_total=s.beta_total,
                beta_fixed=s.beta_fixed,
                beta_odd=0,
                delta=delta,
                rank_mu=n * beta_fixed // 2,
            ),
            attest_tors2_free=True,
        )
        if special != general:
            return False, f"formulas disagree on {s}"
    return True, f"{samples} random Smith data, formulas agree; P1 case 0"


SUITES = ("core", "full")

# (name, check, core kwargs, full kwargs)
CHECKS = [
    ("moduli-n4", check_moduli_n4, {}, {}),
    ("moduli-n5-id", check_moduli_n5_id, {}, {}),
    ("moduli-n5-transposition", check_moduli_n5_transposition, {}, {}),
    ("moduli-n5-double-pair", check_moduli_n5_double_pair, {}, {}),
    ("moduli-n6-id", check_moduli_n6_id, {}, {}),
    ("moduli-keel", check_moduli_keel, {"nmax": 7}, {"nmax": 8}),
    ("sigma-independence", check_sigma_independence,
     {"nmax": 6, "per_type": 1}, {"nmax": 7}),
    ("corpus", check_corpus, {"count": 20, "nmax": 5}, {"count": 100, "nmax": 6}),
    ("dcp-conjugation-spaces", check_dcp_conjugation, {"count": 8}, {"count": 25}),
    ("config-models", check_config_models, {}, {}),
    ("braid-oracle", check_braid_oracle, {"nmax": 5}, {"nmax": 6}),
    ("moduli-backends", check_moduli_backends, {"nmax": 7}, {"nmax": 8}),
    ("moduli-fixed-point", check_moduli_fixed_point, {"nmax": 6}, {"nmax": 7}),
    ("fm-nested-set", check_fm_nested_set, {"nmax": 5}, {"nmax": 6}),
    ("hilbert-squares", check_hilbert_squares, {"samples": 200}, {"samples": 1000}),
]


def run_suite(name: str):
    """Run a named suite; yields (check_name, ok, detail, seconds)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    for check_name, fn, core, full in CHECKS:
        start = time.perf_counter()
        ok, detail = fn(**(core if name == "core" else full))
        yield check_name, ok, detail, time.perf_counter() - start
