"""Command-line interface.

Subcommands: dcp, moduli, config, hilb2, verify.  Reports go to stdout
as a human table; --machine writes the canonical JSON report.  Exit
codes: 0 success, 2 input error, 3 internal guard (e.g. an unsupported
excess intersection).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, schema
from .arrangement import AMBIENT_ID, check_event_prefixes
from .engine import wonderful_run
from .errors import EngineError, InputError, RealWonderError
from .exact import GaussianRational
from .flags import maximal_problem, read_flags, replace
from .hilbert import (
    SmithData,
    consistency,
    deficiency_effective_gm,
    deficiency_general,
    smith_data,
)
from .models import (
    SpaceData,
    build_dcp,
    build_fm,
    build_kt,
    build_moduli,
    build_ulyanov,
    config_ambient_dim,
    parse_sigma,
)
from .report import build_report, from_json, render_text, to_json
from .subspaces import ProjSubspace, rnc_span
from .verification import SUITES, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Largest ambient dimension of a model, checked before it is built.  A
# rational-normal-curve point of P^N has N+1 coordinates whose powers
# grow with N, the dcp models in use live in P^3 to P^5, and M̅0,n, of
# dimension n - 3, needs about 3 GB at n = 10.  A larger dimension is a
# typo that would run without end or overflow.
MAX_AMBIENT_DIM = 64

# a dcp arrangement and one of its generators (see _parse_generators)
DCP = {"ambient_dim": range(1, MAX_AMBIENT_DIM + 1), "generators": list}
GENERATOR = {"basis": (list, None), "rnc_span": (list, None)}

# a `hilb2 --file` input and its attestations
HILB2 = {"smith": dict, "attest": (dict, {})}
ATTEST = {"tors2_free": (bool, False), "effective_gm": (bool, False)}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: bad JSON: {exc}") from exc


def _check_machine(path) -> None:
    """Refuse a --machine path that cannot name a new file, before any
    run: an empty path, a directory, or a file in a directory that does
    not exist."""
    if path is None:
        return
    if not path:
        raise InputError("--machine needs a file path, got an empty one")
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise InputError(f"cannot write {path}: no directory {folder}")


def _write_machine(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _literals(values, name: str) -> list:
    try:
        return [GaussianRational.parse(str(x)) for x in values]
    except ValueError as exc:
        raise InputError(f"generator {name}: {exc}") from exc


def _parse_generators(data) -> tuple:
    data = schema.read(data, DCP)
    ambient_dim = data["ambient_dim"]
    generators = []
    for i, g in enumerate(data["generators"]):
        name = g.get("name", f"g{i}") if type(g) is dict else None
        where = f"generator {name if type(name) is str else i}: "
        g = schema.read(g, {"name": (str, f"g{i}"), **GENERATOR}, where)
        # a stratum id: not the ambient's, nor a piece's (S^C), nor taken
        if not name or name == AMBIENT_ID or "^" in name or name in dict(generators):
            rule = f"must be non-empty, unique, not {AMBIENT_ID!r} and without '^'"
            raise InputError(f"generator {i}: name {name!r} {rule}")
        if (g["basis"] is None) == (g["rnc_span"] is None):
            raise InputError(f"{where}give exactly one of 'basis' and 'rnc_span'")
        if g["basis"] is not None:
            for row in g["basis"]:
                schema.check(row, list, f"{where}a basis row")
                if len(row) != ambient_dim + 1:
                    raise InputError(f"{where}basis rows need {ambient_dim + 1} entries")
            rows = [tuple(_literals(row, name)) for row in g["basis"]]
            sub = ProjSubspace.from_basis_rows(ambient_dim, rows)
        elif g["rnc_span"]:
            sub = rnc_span(ambient_dim, _literals(g["rnc_span"], name))
        else:
            raise InputError(f"{where}rnc_span needs at least one parameter")
        generators.append((name, sub))
    return ambient_dim, generators


def _apply_seed_flags(arr, path: str):
    data = schema.check(_load_json(path), dict, "seed-flags file")
    ambient, strata, axioms = arr.ambient, dict(arr.strata), list(arr.flag_axioms)
    for sid, flags in sorted(data.items()):
        fs = read_flags(flags, f"seed-flags {sid}: ")
        if sid == "ambient":
            ambient = s = replace(ambient, flags=fs)
        elif sid in strata:
            strata[sid] = s = replace(strata[sid], flags=fs)
        else:
            raise InputError(f"seed-flags: unknown stratum {sid!r}")
        problem = maximal_problem(fs, s.defi)
        if problem:
            raise InputError(f"seed-flags {sid}: {problem}")
        axioms.append((sid, f"user axiom: {json.dumps(flags, sort_keys=True)}"))
    return replace(arr, ambient=ambient, strata=strata, flag_axioms=tuple(axioms))


def _check_ambient_dim(dim: int, rule: str) -> None:
    if dim > MAX_AMBIENT_DIM:
        raise InputError(
            f"ambient dimension {rule} = {dim} is above the bound {MAX_AMBIENT_DIM}"
        )


def _run(arr, model: dict, args) -> int:
    """The tail shared by the model commands: check the event prefixes
    (--validate-prefixes), apply --seed-flags, run the blow-ups, print
    the table and write the --machine report."""
    if args.validate_prefixes:
        check_event_prefixes(arr)
    if args.seed_flags:
        arr = _apply_seed_flags(arr, args.seed_flags)
    report = build_report(model, wonderful_run(arr))
    sys.stdout.write(render_text(report, trace=args.trace))
    if args.machine:
        _write_machine(args.machine, to_json(report))
    return EXIT_OK


def cmd_dcp(args) -> int:
    ambient_dim, generators = _parse_generators(_load_json(args.file))
    arr = build_dcp(ambient_dim, generators)
    model = {"kind": "dcp", "file": args.file, "ambient_dim": ambient_dim}
    return _run(arr, model, args)


def cmd_moduli(args) -> int:
    _check_ambient_dim(args.n - 3, "n - 3")
    spec = parse_sigma(args.sigma, args.n)
    arr = build_moduli(spec)
    return _run(arr, {"kind": "moduli", "n": args.n, "sigma": args.sigma}, args)


def cmd_config(args) -> int:
    space = SpaceData.from_dict(_load_json(args.space))
    _check_ambient_dim(config_ambient_dim(args.n, space), "n * dim_c")
    if args.model == "kt":
        if not args.building:
            raise InputError("the kt model needs --building (JSON list of partitions)")
        building = schema.check(_load_json(args.building), [[[int]]], "building set")
        arr = build_kt(args.n, space, building)
    else:
        build = build_fm if args.model == "fm" else build_ulyanov
        arr = build(args.n, space)
    model = {"kind": "config", "model": args.model, "n": args.n, "space": space.to_dict()}
    return _run(arr, model, args)


def cmd_hilb2(args) -> int:
    if args.report:
        try:
            with open(args.report, "r", encoding="utf-8") as handle:
                report = from_json(handle.read())
        except OSError as exc:
            raise InputError(f"cannot read {args.report}: {exc}") from exc
        where = f"{args.report}: report "
        dim = schema.check(report.get("ambient_dim"), int, f"{where}'ambient_dim'")
        final = schema.check(report.get("final"), dict, f"{where}'final'")
        kinds = {"total_c": int, "total_r": int, "verdict": str}
        data = smith_data(
            dim, *(schema.check(final.get(k), kinds[k], f"{where}'final.{k}'") for k in kinds)
        )
        attest = {"tors2_free": True, "effective_gm": True}
    else:
        payload = schema.read(_load_json(args.file), HILB2, f"{args.file}: ", "'")
        data = SmithData.from_dict(payload["smith"])
        attest = schema.read(payload["attest"], ATTEST, f"{args.file}: 'attest': ")

    problems = consistency(data, effective_gm=attest["effective_gm"])
    if problems:
        raise InputError("inconsistent Smith data: " + "; ".join(problems))
    lines = [f"smith data: {json.dumps(data.to_dict(), sort_keys=True)}"]
    out = {"schema_version": 1, "smith": data.to_dict(), "deficiency": {}}
    if data.rank_mu is not None and attest["tors2_free"]:
        value = deficiency_general(data, attest_tors2_free=True)
        lines.append(f"deficiency of the Hilbert square (general formula): {value}")
        out["deficiency"]["general"] = value
    if attest["effective_gm"] and attest["tors2_free"]:
        value = deficiency_effective_gm(
            data, attest_effective_gm=True, attest_tors2_free=True
        )
        lines.append(f"deficiency of the Hilbert square (effective+GM formula): {value}")
        out["deficiency"]["effective_gm"] = value
    if not out["deficiency"]:
        raise InputError(
            "nothing to compute: provide rank_mu and/or attest "
            '{"tors2_free": true, "effective_gm": true}'
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.machine:
        _write_machine(args.machine, to_json(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail, seconds in run_suite(args.suite):
        status = "pass" if ok else "FAIL"
        sys.stdout.write(f"[{status}] {name}: {detail} ({seconds:.2f} s)\n")
        if not ok:
            failures += 1
    sys.stdout.write(
        f"suite {args.suite}: {'all checks passed' if not failures else f'{failures} failures'}\n"
    )
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true", help="print per-step tables")
    parser.add_argument("--machine", metavar="PATH", help="write the JSON report")
    parser.add_argument(
        "--seed-flags", metavar="FILE", help="known-space flag axioms to apply"
    )
    parser.add_argument(
        "--validate-prefixes",
        action="store_true",
        help="re-validate the building-set condition for every event prefix",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realwonder",
        description="Betti data of real wonderful compactifications by "
        "exact iterated blow-up.",
    )
    parser.add_argument("--version", action="version", version=f"realwonder {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dcp", help="De Concini-Procesi model of linear subspaces")
    p.add_argument("file", help="JSON arrangement description")
    _add_common(p)

    p = subs.add_parser("moduli", help="moduli of stable rational curves (Kapranov)")
    p.add_argument("--n", type=int, required=True, help="number of marked points")
    p.add_argument(
        "--sigma", default="id", help='real structure, cycle notation: "id", "(1 2)(3 4)"'
    )
    _add_common(p)

    p = subs.add_parser("config", help="configuration-space compactifications")
    p.add_argument("--model", required=True, choices=["fm", "ulyanov", "kt"])
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--space", required=True, help="JSON space data for the factor")
    p.add_argument("--building", help="JSON building set (kt only)")
    _add_common(p)

    p = subs.add_parser("hilb2", help="Smith-Thom deficiency of the Hilbert square")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="JSON Smith data with attestations")
    src.add_argument("--report", help="machine report of a ConjugationSpace run")
    p.add_argument("--machine", metavar="PATH", help="write the JSON result")

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="core", choices=SUITES)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use and kept:
    parse_args does not change it, and building it takes about a quarter
    of a small dcp job."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    commands = {
        "dcp": cmd_dcp,
        "moduli": cmd_moduli,
        "config": cmd_config,
        "hilb2": cmd_hilb2,
        "verify": cmd_verify,
    }
    try:
        _check_machine(getattr(args, "machine", None))
        return commands[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except EngineError as exc:
        where = f"{exc.step}: " if exc.step else ""
        sys.stderr.write(f"engine guard: {where}{exc}\n")
        return EXIT_INTERNAL
    except RealWonderError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
