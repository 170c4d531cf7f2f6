"""Builders for the supported families: De Concini-Procesi subspace
models, Kapranov's moduli of stable rational curves with the real
structures Conj_sigma, configuration-space compactifications
(Fulton-MacPherson, Ulyanov, Kuperberg-Thurston), and the braid twins
used as a cross-backend oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from . import gradedpoly as gp
from . import schema
from .arrangement import (
    AMBIENT_ID,
    Arrangement,
    NO_REAL,
    REAL,
    Stratum,
    building_violations,
    close_under_intersection,
    order_building_set,
    payload_problems,
    validate_building_set,
)
from .errors import InputError
from .exact import GaussianRational
from .flags import (
    CONJUGATION_SPACE,
    FlagSet,
    Tri,
    YES,
    maximal_problem,
    pair_event_flags,
    product_flags,
    read_flags,
)
from .partitions import FramePartition, SetPartition, diagonals
from .subspaces import (
    ProjSubspace,
    linear_rank,
    rnc_points,
    span_points,
)


# ----------------------------------------------------------------------
# abstract factors for configuration models


# a space file of `config --space`
SPACE = {
    "name": (str, "space"),
    "dim_c": int,
    "betti_c": [int],
    "betti_r": ([int], []),
    "real_nonempty": (bool, True),
    "flags": (dict, {}),
}


@dataclass(frozen=True)
class SpaceData:
    """A closed nonsingular complex variety with a real structure, given
    by its exact Betti data plus declared verdict flags (axioms)."""

    name: str
    dim_c: int
    betti_c: gp.BettiVector
    betti_r: gp.BettiVector
    real_nonempty: bool = True
    flags: FlagSet = field(default_factory=FlagSet)

    def __post_init__(self):
        problems = payload_problems(
            self.dim_c, self.betti_c, self.betti_r, REAL if self.real_nonempty else NO_REAL
        )
        if problems:
            raise InputError(f"{self.name}: " + "; ".join(problems))
        problem = maximal_problem(self.flags, gp.total(self.betti_c) - gp.total(self.betti_r))
        if problem:
            raise InputError(f"{self.name}: {problem}")

    @classmethod
    def projective_space(cls, k: int) -> "SpaceData":
        return cls(
            name=f"P{k}",
            dim_c=k,
            betti_c=gp.projective_betti(k, 2),
            betti_r=gp.projective_betti(k, 1),
            flags=CONJUGATION_SPACE,
        )

    @classmethod
    def ellipsoid(cls) -> "SpaceData":
        """The quadric ellipsoid (P1 x P1 with fixed locus S^2): a
        declared effective Galois-maximal, non-maximal surface."""
        return cls(
            name="ellipsoid",
            dim_c=2,
            betti_c=gp.BettiVector([1, 0, 2, 0, 1]),
            betti_r=gp.BettiVector([1, 0, 1]),
            flags=FlagSet(effective=YES, maximal=Tri.NO, galois_maximal=YES),
        )

    @classmethod
    def from_dict(cls, d) -> "SpaceData":
        """The space of a JSON space file (SPACE)."""
        d = schema.read(d, SPACE, "bad space data: ")
        flags = read_flags(d["flags"], "bad space data: flags: ")
        try:
            betti = [gp.BettiVector(d[key]) for key in ("betti_c", "betti_r")]
        except ValueError as exc:
            raise InputError(f"bad space data: {exc}") from exc
        return cls(d["name"], d["dim_c"], *betti, d["real_nonempty"], flags)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dim_c": self.dim_c,
            "betti_c": list(self.betti_c),
            "betti_r": list(self.betti_r),
            "real_nonempty": self.real_nonempty,
            "flags": self.flags.as_dict(),
        }


# ----------------------------------------------------------------------
# linear (De Concini-Procesi) backend


def _projective_ambient(k: int) -> Stratum:
    """P^k with its standard conjugation, the ambient of the linear and
    braid models."""
    return Stratum(
        sid=AMBIENT_ID,
        dim_c=k,
        betti_c=gp.projective_betti(k, 2),
        betti_r=gp.projective_betti(k, 1),
        flags=CONJUGATION_SPACE,
    )


_PROJECTIVE_AXIOM = (AMBIENT_ID, "projective space with standard conjugation")


def _finalize_building(arr: Arrangement, building, what: str, **fields) -> Arrangement:
    """The common tail of every builder: validate the building set
    (InputError naming `what` on violation), store it sorted by
    (dim_c, id) together with the given fields, and order the events."""
    problems = validate_building_set(arr, building)
    if problems:
        raise InputError(f"{what} invalid: " + "; ".join(problems))
    arr = replace(
        arr,
        building_set=tuple(sorted(building, key=lambda s: (arr.strata[s].dim_c, s))),
        **fields,
    )
    return order_building_set(arr)


def _linear_factory(sid, geom, partner):
    """Payload of a linear subspace (a ProjSubspace or a FramePartition)."""
    k = geom.proj_dim
    invariant = partner is None
    return Stratum(
        sid=sid,
        dim_c=k,
        betti_c=gp.projective_betti(k, 2),
        betti_r=gp.projective_betti(k, 1) if invariant else gp.ZERO,
        flags=CONJUGATION_SPACE if invariant else pair_event_flags(),
        partner=partner,
        real_nonempty=invariant,
        geometry=geom,
    )


def _linear_axioms(arr: Arrangement):
    axioms = [_PROJECTIVE_AXIOM]
    for sid, s in sorted(arr.strata.items()):
        if s.partner is None:
            axioms.append((sid, "real linear subspace: conjugation space"))
        elif sid < s.partner:
            axioms.append((sid, "conj-swapped pair: effective, Galois maximal"))
    return tuple(axioms)


def _complete_building(arr: Arrangement, building) -> list:
    """Add violating intersection strata to the building set until the
    G-building-set condition holds ("generators plus closure
    requirements")."""
    building = list(dict.fromkeys(building))
    while True:
        violators = {
            sid
            for sid, _ in building_violations(arr, list(arr.strata), building)
            if sid not in building
        }
        if not violators:
            break
        for sid in sorted(violators):
            if sid in building:
                continue  # added as a partner earlier this round
            if arr.codim(sid) < 2:
                raise InputError(
                    f"building set cannot be completed: {sid} has codim < 2"
                )
            building.append(sid)
            partner = arr.strata[sid].partner
            if partner and partner not in building:
                building.append(partner)
    return building


def build_dcp(ambient_dim: int, generators) -> Arrangement:
    """Wonderful model of an arrangement of Conj-invariant (or
    conj-paired) linear subspaces of P^N.

    generators: list of (name, ProjSubspace).  The building set is the
    generator set completed by whatever closure members the G-building
    condition demands; events are its codim >= 2 members in dimension
    order.
    """
    seen = set()
    for name, g in generators:
        if g.ambient_dim != ambient_dim:
            raise InputError(f"{name}: ambient mismatch")
        if g.is_empty or g.proj_dim >= ambient_dim:
            raise InputError(f"{name}: generators must be proper nonempty subspaces")
        if g in seen:
            raise InputError(f"{name}: duplicate generator")
        seen.add(g)

    return _dcp_model(ambient_dim, generators)


def _dcp_model(ambient_dim: int, generators) -> Arrangement:
    """The wonderful model of valid generators: linear subspaces, or the
    frame polydiagonals of the partition moduli path, which carry the
    same payloads (`proj_dim`, real or paired)."""
    arr = close_under_intersection(
        _projective_ambient(ambient_dim), generators, _linear_factory
    )
    return _finalize_building(
        arr,
        _complete_building(arr, [name for name, _ in generators]),
        "completed building set",
        stretched=YES,
        flag_axioms=_linear_axioms(arr),
    )


# ----------------------------------------------------------------------
# Kapranov's moduli model


@dataclass(frozen=True)
class ModuliSpec:
    """Moduli of n-pointed stable rational curves with the real
    structure induced by an order-2 permutation sigma (as a 1-indexed
    tuple of images) fixing at least one marked point."""

    n: int
    sigma: tuple

    def __post_init__(self):
        n, s = self.n, self.sigma
        if n < 3:
            raise InputError("need n >= 3 marked points")
        if sorted(s) != list(range(1, n + 1)):
            raise InputError(f"sigma is not a permutation of 1..{n}")
        if any(s[s[i] - 1] != i + 1 for i in range(n)):
            raise InputError("sigma must be an involution")
        if all(s[i] != i + 1 for i in range(n)):
            raise InputError(
                "sigma must have a fixed marked point (the free case is out of scope)"
            )

    @property
    def fixed(self):
        return [i + 1 for i in range(self.n) if self.sigma[i] == i + 1]

    @property
    def cycles(self):
        return [
            (i + 1, self.sigma[i])
            for i in range(self.n)
            if self.sigma[i] > i + 1
        ]


def parse_sigma(text: str, n: int) -> ModuliSpec:
    """Cycle notation: "id" or e.g. "(1 2)(3 4)"; commas also accepted."""
    text = text.strip()
    images = list(range(1, n + 1))
    if text not in ("id", "", "()"):
        if not (text.startswith("(") and text.endswith(")")):
            raise InputError(f"cannot parse permutation {text!r}")
        for chunk in text[1:-1].split(")("):
            parts = [p for p in chunk.replace(",", " ").split() if p]
            try:
                cycle = [int(p) for p in parts]
            except ValueError as exc:
                raise InputError(f"cannot parse cycle ({chunk})") from exc
            if len(cycle) != 2:
                raise InputError("only order-2 permutations are allowed")
            i, j = cycle
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise InputError(f"bad transposition ({i} {j})")
            if images[i - 1] != i or images[j - 1] != j:
                raise InputError("cycles must be disjoint")
            images[i - 1], images[j - 1] = j, i
    return ModuliSpec(n=n, sigma=tuple(images))


def _relabel_fixing_last(spec: ModuliSpec, fixed: int | None = None) -> ModuliSpec:
    """Kapranov's model distinguishes one sigma-fixed marked point;
    relabel so it is the n-th.  fixed chooses the point (default: n when
    sigma fixes it, else the smallest fixed point); a relabelling is an
    isomorphism of real varieties, so every choice gives the same
    answer."""
    n = spec.n
    if fixed is None:
        fixed = n if spec.sigma[n - 1] == n else spec.fixed[0]
    elif fixed not in spec.fixed:
        raise InputError(f"marked point {fixed} is not fixed by sigma")
    if fixed == n:
        return spec
    tau = list(range(1, n + 1))
    tau[fixed - 1], tau[n - 1] = n, fixed

    def t(x):
        return tau[x - 1]

    new = [0] * n
    for i in range(1, n + 1):
        new[t(i) - 1] = t(spec.sigma[i - 1])
    return ModuliSpec(n=n, sigma=tuple(new))


def moduli_parameters(spec: ModuliSpec, real_params=None):
    """Rational-normal-curve parameters for the n-1 points: one real
    value per sigma-fixed marked point (except the distinguished one),
    one conjugate pair per 2-cycle."""
    spec = _relabel_fixing_last(spec)
    n = spec.n
    fixed = [i for i in spec.fixed if i != n]
    if real_params is None:
        real_params = list(range(len(fixed)))
    if len(real_params) != len(fixed):
        raise InputError("wrong number of real parameters")
    params = {}
    for i, t in zip(fixed, real_params):
        params[i] = GaussianRational(t)
    for k, (i, j) in enumerate(spec.cycles, start=1):
        params[i] = GaussianRational(k, 1)
        params[j] = GaussianRational(k, -1)
    return spec, [params[i] for i in range(1, n)]


def build_moduli(
    spec: ModuliSpec,
    *,
    backend: str = "partition",
    real_params=None,
) -> Arrangement:
    """Kapranov's iterated blow-up model: P^{n-3} and the spans of
    subsets of n-1 points in general position, blown up in dimension
    order.

    backend "partition" puts the points at the frame e_1..e_{n-1} of
    C^{n-1}/C·(1,…,1), where spans are polydiagonals and meets are
    partition joins (FramePartition); "linear" puts them on a rational
    normal curve (real_params for the real ones) and intersects spans
    by exact linear algebra.  Both give the same strata ids, in the
    same order, with the same payloads; the linear path is kept as the
    oracle of the partition path."""
    if backend not in ("partition", "linear"):
        raise InputError(f"unknown moduli backend {backend!r}")
    if backend == "linear":
        spec, params = moduli_parameters(spec, real_params)
    elif real_params is not None:
        raise InputError(
            "real_params need backend 'linear': the partition backend has no "
            "curve parameters"
        )
    else:
        spec = _relabel_fixing_last(spec)
    n = spec.n
    big_n = n - 3

    if backend == "linear":
        points = rnc_points(big_n, params)
        # verified genericity: every small subset of the points is independent
        for size in range(2, min(big_n + 1, n - 1) + 1):
            for subset in combinations(range(n - 1), size):
                if linear_rank(*[points[i] for i in subset]) != size:
                    raise InputError("rational normal curve points are not generic")

        def span(subset):
            return span_points([points[i - 1] for i in subset])

    else:
        sigma = FramePartition.point_sigma(spec.sigma[: n - 1])

        def span(subset):
            return FramePartition.span(n - 1, subset, sigma)

    generators = [
        ("s" + ".".join(str(i) for i in subset), span(subset))
        for size in range(1, n - 3)
        for subset in combinations(range(1, n), size)
    ]
    if backend == "linear":
        return build_dcp(big_n, generators)
    return _dcp_model(big_n, generators)


# ----------------------------------------------------------------------
# configuration-space models (partition backend)


def _power_factory(space: SpaceData):
    def factory(sid, part: SetPartition, partner):
        k = part.num_blocks
        bc = gp.kunneth(*([space.betti_c] * k))
        br = (
            gp.kunneth(*([space.betti_r] * k))
            if space.real_nonempty
            else gp.ZERO
        )
        return Stratum(
            sid=sid,
            dim_c=space.dim_c * k,
            betti_c=bc,
            betti_r=br,
            flags=product_flags([space.flags] * k),
            partner=None,
            real_nonempty=space.real_nonempty,
            geometry=part,
        )

    return factory


def config_ambient_dim(n: int, space: SpaceData) -> int:
    """The ambient dimension n · dim_c of the configuration models of n
    points of space; an InputError when no such model exists."""
    if n < 2:
        raise InputError("configuration models need n >= 2 points")
    if space.dim_c < 1:
        raise InputError(f"configuration models need a space of dim_c >= 1, got {space.dim_c}")
    return space.dim_c * n


def _config_arrangement(n: int, space: SpaceData, generators) -> Arrangement:
    ambient = Stratum(
        sid=AMBIENT_ID,
        dim_c=config_ambient_dim(n, space),
        betti_c=gp.kunneth(*([space.betti_c] * n)),
        betti_r=gp.kunneth(*([space.betti_r] * n)) if space.real_nonempty else gp.ZERO,
        flags=product_flags([space.flags] * n),
        real_nonempty=space.real_nonempty,
    )
    named = [(p.label(), p) for p in generators]
    arr = close_under_intersection(
        ambient, named, _power_factory(space), namer=lambda k, g: g.label()
    )
    axiom = (AMBIENT_ID, f"product of {n} copies of declared space {space.name}")
    return replace(arr, stretched=YES, flag_axioms=(axiom,))


def build_fm(n: int, space: SpaceData) -> Arrangement:
    """Fulton-MacPherson compactification: building set = all diagonals."""
    gens = diagonals(n)
    arr = _config_arrangement(n, space, gens)
    return _finalize_building(arr, [p.label() for p in gens], "diagonal building set")


def build_ulyanov(n: int, space: SpaceData) -> Arrangement:
    """Ulyanov's compactification: building set = all polydiagonals."""
    arr = _config_arrangement(n, space, diagonals(n))
    return _finalize_building(arr, sorted(arr.strata), "polydiagonal building set")


def build_kt(n: int, space: SpaceData, building) -> Arrangement:
    """Kuperberg-Thurston style compactification for a user-supplied
    polydiagonal building set (list of block lists); the set is
    validated, never auto-completed."""
    parts = []
    for i, blocks in enumerate(building):
        try:
            part = SetPartition(n, blocks)
        except ValueError as exc:
            raise InputError(f"building entry {i}: {exc}") from exc
        if part.is_discrete:
            raise InputError(
                f"building entry {i}: {blocks!r} is the discrete partition, "
                f"the whole of X^{n} rather than a diagonal"
            )
        parts.append(part)
    if not parts:
        raise InputError("empty building set")
    arr = _config_arrangement(n, space, parts)
    return _finalize_building(arr, [p.label() for p in parts], "user building set")


# ----------------------------------------------------------------------
# braid twins: the same wonderful model through both backends


def _braid_partition_factory(sid, part: SetPartition, partner):
    k = part.num_blocks
    return Stratum(
        sid=sid,
        dim_c=k,
        betti_c=gp.projective_betti(k, 2),
        betti_r=gp.projective_betti(k, 1),
        flags=CONJUGATION_SPACE,
        partner=None,
        geometry=part,
    )


def _braid_subspace(n: int, part: SetPartition) -> ProjSubspace:
    rows = []
    for row in part.indicator_rows(projective=True):
        rows.append(tuple(GaussianRational(x) for x in row))
    return ProjSubspace.from_basis_rows(n, rows)


def build_braid(n: int, backend: str) -> Arrangement:
    """The braid diagonal arrangement z_i = z_j inside the projective
    closure P^n of n points on an affine line, built either through the
    partition backend or through honest linear algebra; runs of the two
    twins must agree step by step."""
    if n < 3:
        raise InputError("braid models need n >= 3")
    gens = diagonals(n)
    ambient = _projective_ambient(n)
    if backend == "partition":
        named = [(p.label(), p) for p in gens]
        arr = close_under_intersection(
            ambient, named, _braid_partition_factory, namer=lambda k, g: g.label()
        )
    elif backend == "linear":
        from .partitions import all_partitions

        label_by_subspace = {}
        subspace_by_label = {}
        for part in all_partitions(n):
            if part.is_discrete:
                continue
            subspace = _braid_subspace(n, part)
            label_by_subspace[subspace] = part.label()
            subspace_by_label[part.label()] = subspace

        def namer(counter, geom):
            # every honest meet of polydiagonals must be a polydiagonal
            label = label_by_subspace.get(geom)
            if label is None:
                raise InputError("discovered braid intersection is not a polydiagonal")
            return label

        named = [(p.label(), subspace_by_label[p.label()]) for p in gens]
        arr = close_under_intersection(ambient, named, _linear_factory, namer=namer)
    else:
        raise InputError(f"unknown braid backend {backend!r}")

    return _finalize_building(
        arr,
        [p.label() for p in gens],
        f"braid building set ({backend})",
        stretched=YES,
        flag_axioms=(_PROJECTIVE_AXIOM,),
    )
