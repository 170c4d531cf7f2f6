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
import sys
from dataclasses import replace

from . import __version__
from .engine import wonderful_run
from .errors import EngineError, InputError, RealWonderError
from .exact import GaussianRational
from .flags import FlagSet
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
    parse_sigma,
)
from .report import build_report, from_json, render_text, to_json
from .subspaces import ProjSubspace, rnc_span
from .verification import SUITES, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Largest dcp ambient_dim: a rational-normal-curve point of P^N has N+1
# coordinates whose powers grow with N, and the models in use live in
# P^3 to P^5, so a larger N is a typo that would run without end.
MAX_AMBIENT_DIM = 64


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: bad JSON: {exc}") from exc


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def _literals(values, name: str) -> list:
    try:
        return [GaussianRational.parse(str(x)) for x in values]
    except ValueError as exc:
        raise InputError(f"generator {name}: {exc}") from exc


def _parse_generators(data) -> tuple:
    try:
        ambient_dim = data["ambient_dim"]
        raw = data["generators"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad dcp schema: {exc}") from exc
    if type(ambient_dim) is not int or not 1 <= ambient_dim <= MAX_AMBIENT_DIM:
        raise InputError(
            f"ambient_dim must be an integer from 1 to {MAX_AMBIENT_DIM}, got {ambient_dim!r}"
        )
    generators = []
    for i, g in enumerate(_json_list(raw, "generators")):
        if not isinstance(g, dict):
            raise InputError(f"generator {i}: expected an object, got {g!r}")
        name = str(g.get("name", f"g{i}"))
        if "basis" in g:
            rows = [
                _json_list(row, f"generator {name}: a basis row")
                for row in _json_list(g["basis"], f"generator {name}: basis")
            ]
            if any(len(row) != ambient_dim + 1 for row in rows):
                raise InputError(
                    f"generator {name}: basis rows need {ambient_dim + 1} entries"
                )
            rows = [tuple(_literals(row, name)) for row in rows]
            sub = ProjSubspace.from_basis_rows(ambient_dim, rows)
        elif "rnc_span" in g:
            params = _json_list(g["rnc_span"], f"generator {name}: rnc_span")
            if not params:
                raise InputError(f"generator {name}: rnc_span needs at least one parameter")
            sub = rnc_span(ambient_dim, _literals(params, name))
        else:
            raise InputError(f"generator {name}: need 'basis' or 'rnc_span'")
        generators.append((name, sub))
    return ambient_dim, generators


def _apply_seed_flags(arr, path: str):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError("seed-flags file must map stratum ids to flag objects")
    ambient = arr.ambient
    strata = dict(arr.strata)
    axioms = list(arr.flag_axioms)
    for sid, flags in sorted(data.items()):
        if not isinstance(flags, dict):
            raise InputError(f"seed-flags {sid}: expected a flag object, got {flags!r}")
        try:
            fs = FlagSet.from_dict(flags)
        except ValueError as exc:
            raise InputError(f"seed-flags {sid}: {exc}") from exc
        if sid == "ambient":
            ambient = replace(ambient, flags=fs)
        elif sid in strata:
            strata[sid] = replace(strata[sid], flags=fs)
        else:
            raise InputError(f"seed-flags: unknown stratum {sid!r}")
        axioms.append((sid, f"user axiom: {json.dumps(flags, sort_keys=True)}"))
    return replace(arr, ambient=ambient, strata=strata, flag_axioms=tuple(axioms))


def _run(arr, model: dict, args) -> int:
    """The tail shared by the model commands: apply --seed-flags, run
    the blow-ups, print the table and write the --machine report."""
    if args.seed_flags:
        arr = _apply_seed_flags(arr, args.seed_flags)
    report = build_report(model, wonderful_run(arr))
    sys.stdout.write(render_text(report, trace=args.trace))
    if args.machine:
        with open(args.machine, "w", encoding="utf-8") as handle:
            handle.write(to_json(report))
    return EXIT_OK


def cmd_dcp(args) -> int:
    ambient_dim, generators = _parse_generators(_load_json(args.file))
    arr = build_dcp(ambient_dim, generators, validate_prefixes=args.validate_prefixes)
    model = {"kind": "dcp", "file": args.file, "ambient_dim": ambient_dim}
    return _run(arr, model, args)


def cmd_moduli(args) -> int:
    spec = parse_sigma(args.sigma, args.n)
    arr = build_moduli(spec, validate_prefixes=args.validate_prefixes)
    return _run(arr, {"kind": "moduli", "n": args.n, "sigma": args.sigma}, args)


def cmd_config(args) -> int:
    space = SpaceData.from_dict(_load_json(args.space))
    if args.model == "fm":
        arr = build_fm(args.n, space, validate_prefixes=args.validate_prefixes)
    elif args.model == "ulyanov":
        arr = build_ulyanov(args.n, space, validate_prefixes=args.validate_prefixes)
    elif args.model == "kt":
        if not args.building:
            raise InputError("the kt model needs --building (JSON list of partitions)")
        building = _load_json(args.building)
        arr = build_kt(args.n, space, building, validate_prefixes=args.validate_prefixes)
    else:
        raise InputError(f"unknown configuration model {args.model!r}")
    model = {"kind": "config", "model": args.model, "n": args.n, "space": space.to_dict()}
    return _run(arr, model, args)


def _report_final(report: dict, path: str) -> dict:
    """The "final" block of a machine report, after checking the keys
    hilb2 reads and their types."""
    final = report.get("final")
    if not isinstance(final, dict):
        raise InputError(f"{path}: report has no 'final' object")
    wanted = {"verdict": str, "total_c": int, "total_r": int}
    for key, kind in wanted.items():
        value = final.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InputError(f"{path}: report 'final.{key}' must be a {kind.__name__}")
    dim = report.get("ambient_dim")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError(f"{path}: report 'ambient_dim' must be an int")
    return final


def cmd_hilb2(args) -> int:
    if args.report:
        try:
            with open(args.report, "r", encoding="utf-8") as handle:
                report = from_json(handle.read())
        except OSError as exc:
            raise InputError(f"cannot read {args.report}: {exc}") from exc
        final = _report_final(report, args.report)
        data = smith_data(
            report["ambient_dim"], final["total_c"], final["total_r"], final["verdict"]
        )
        attest = {"tors2_free": True, "effective_gm": True}
    else:
        payload = _load_json(args.file)
        if not isinstance(payload, dict):
            raise InputError(f"{args.file}: Smith data must be a JSON object")
        data = SmithData.from_dict(payload.get("smith", payload))
        attest = payload.get("attest", {})
        if not isinstance(attest, dict):
            raise InputError(f"{args.file}: 'attest' must be a JSON object, got {attest!r}")

    problems = consistency(data, effective_gm=bool(attest.get("effective_gm")))
    if problems:
        raise InputError("inconsistent Smith data: " + "; ".join(problems))
    lines = [f"smith data: {json.dumps(data.to_dict(), sort_keys=True)}"]
    out = {"schema_version": 1, "smith": data.to_dict(), "deficiency": {}}
    if data.rank_mu is not None and attest.get("tors2_free"):
        value = deficiency_general(data, attest_tors2_free=True)
        lines.append(f"deficiency of the Hilbert square (general formula): {value}")
        out["deficiency"]["general"] = value
    if attest.get("effective_gm") and attest.get("tors2_free"):
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
        with open(args.machine, "w", encoding="utf-8") as handle:
            handle.write(to_json(out))
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
