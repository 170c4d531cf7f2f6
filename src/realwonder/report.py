"""Run reports: deterministic machine schema and the human rendering.

Reports are plain dicts serialized as canonical JSON (sorted keys), so
identical inputs give byte-identical files and parse/re-emit is the
identity.  Every reported number is recomputable from the step traces.

Schema v2, the one written, keeps the traces sparse: a step's cases list
only the strata some center touched (an absent stratum is Disjoint),
created lists the pieces each center made, and initial_strata lists the
ids before the first step once.  to_v1 rebuilds the dense schema v1 from
these, byte for byte; from_json reads both.
"""

from __future__ import annotations

import json

from . import gradedpoly as gp
from . import schema
from .engine import CENTER, CONTAINS, DISJOINT, INSIDE, PROPER, RunResult
from .errors import InputError

SCHEMA_VERSION = 2
_LABELS = frozenset((DISJOINT, INSIDE, CONTAINS, PROPER, CENTER))


def trace_to_dict(trace) -> dict:
    """The v2 record of a step.  Its cases are sparse, as in the trace:
    only the strata some center touched, with one label per center, so
    an absent stratum is Disjoint from every center; created lists the
    pieces each center made, in event order.  Entries with the same
    labels share one list, as the trace shares one tuple: a step touches
    up to thousands of strata, with at most 30 label combinations."""
    lists = {labels: list(labels) for labels in set(trace.cases.values())}
    return {
        "event": list(trace.event),
        "codim": trace.codim,
        "cases": {sid: lists[labels] for sid, labels in trace.cases.items()},
        "created": [list(created) for created in trace.created],
        "event_betti_c": list(trace.event_betti_c),
        "event_betti_r": list(trace.event_betti_r),
        "betti_c_before": list(trace.betti_c_before),
        "betti_c_after": list(trace.betti_c_after),
        "betti_r_before": list(trace.betti_r_before),
        "betti_r_after": list(trace.betti_r_after),
        "deficiency_before": trace.deficiency_before,
        "deficiency_after": trace.deficiency_after,
    }


def verify_trace_identities(report: dict) -> list:
    """Re-derive the ledger / Euler / total recursions from the recorded
    traces; returns [name, ok] pairs."""
    checks = []
    ok_ledger = ok_euler = ok_totals = True
    for step in report["steps"]:
        d = step["codim"]
        ec, er = step["event_betti_c"], step["event_betti_r"]
        if step["deficiency_after"] != step["deficiency_before"] + (d - 1) * (
            sum(ec) - sum(er)
        ):
            ok_ledger = False
        if gp.euler(step["betti_c_after"]) != gp.euler(
            step["betti_c_before"]
        ) + (d - 1) * gp.euler(ec):
            ok_euler = False
        if sum(step["betti_c_after"]) != sum(step["betti_c_before"]) + (d - 1) * sum(
            ec
        ) or sum(step["betti_r_after"]) != sum(step["betti_r_before"]) + (
            d - 1
        ) * sum(er):
            ok_totals = False
    checks.append(["ledger-identity-every-step", ok_ledger])
    checks.append(["euler-recursion-every-step", ok_euler])
    checks.append(["total-recursions-every-step", ok_totals])
    final = report["final"]
    n = report["ambient_dim"]
    checks.append(
        [
            "final-complex-poincare-duality",
            gp.is_palindromic(final["betti_c"], 2 * n),
        ]
    )
    if final["total_r"] > 0:
        checks.append(
            ["final-real-poincare-duality", gp.is_palindromic(final["betti_r"], n)]
        )
    checks.append(
        [
            "final-smith-inequality-and-parity",
            final["total_r"] <= final["total_c"]
            and (final["total_c"] - final["total_r"]) % 2 == 0,
        ]
    )
    checks.append(
        ["deficiency-equals-totals", final["deficiency"] == final["total_c"] - final["total_r"]]
    )
    return checks


def build_report(model: dict, result: RunResult) -> dict:
    """The v2 report of a run.  Strata are never removed, so the initial
    ids are the final ones less those some step made."""
    arr = result.arrangement
    made = {nid for trace in result.traces for nid in trace.new_strata}
    final = {
        "betti_c": list(result.betti_c),
        "betti_r": list(result.betti_r),
        "total_c": gp.total(result.betti_c),
        "total_r": gp.total(result.betti_r),
        "euler_c": gp.euler(result.betti_c),
        "deficiency": result.deficiency,
        "verdict": result.verdict,
        "flags": result.flags.as_dict(),
        "flags_provenance": "propagated" if result.traces else "input axiom",
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": model,
        "ambient_dim": arr.ambient.dim_c,
        "final": final,
        "flag_axioms": [list(ax) for ax in arr.flag_axioms],
        "stratum_count": len(arr.strata),
        "initial_strata": [sid for sid in arr.strata if sid not in made],
        "steps": [trace_to_dict(trace) for trace in result.traces],
        "ledger": {
            "value": result.ledger.value,
            "contributions": [list(c) for c in result.ledger.contributions],
        },
    }
    report["checks"] = verify_trace_identities(report)
    return report


def to_json(report: dict) -> str:
    """The bytes of json.dumps(report, sort_keys=True, indent=2) + "\\n".

    That call takes the stdlib's pure-Python encoder (indent forces it);
    this writer does the same in one pass over the plain values a report
    holds, and rejects anything else."""
    out = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii

# The pieces a list item or dict member may leave in the writer's list
# before they are joined into one string.  A piece is a str object of
# about 50 bytes besides its text, and most pieces hold a few bytes of
# text, so a list of every piece would be about four times the file;
# joined at this size, the writer holds about twice the file at its
# peak (M̅0,8: 1.7 MB traced for a 0.87 MB file, against 3.6 MB with
# one list of every piece).  The joins copy each byte once more per
# level of nesting, about 1.5 ms on that report.
_JOIN_AT = 64


def _write_json(value, newline: str, out: list) -> None:
    """Append the indented JSON of value; newline is the line break
    plus the indentation of value's own line.  The pieces of each list
    item or dict member that took more than _JOIN_AT of them are joined
    into one, so out stays short."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            start = len(out)
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(value[key], inner, out)
            if len(out) - start > _JOIN_AT:
                out[start:] = ["".join(out[start:])]
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            start = len(out)
            out.append(sep)
            _write_json(item, inner, out)
            if len(out) - start > _JOIN_AT:
                out[start:] = ["".join(out[start:])]
            sep = comma
        out.append(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


def from_json(text: str) -> dict:
    """Parse a v1 or v2 report and return it unchanged; the step records
    of a v2 report are checked as to_v1 reads them."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad report JSON: {exc}") from exc
    schema.check(report, dict, "a report")
    if _version(report) == SCHEMA_VERSION:
        for _ in _v2_steps(report):
            pass
    return report


def to_v1(report: dict) -> dict:
    """The schema-v1 form of a report, whose cases are dense: every
    stratum present before a step gets one label per center, and a piece
    the first center of a pair made gets the second's label.  The
    Disjoint ones v2 leaves out share one list per length.  A v1 report
    is returned as it is."""
    if _version(report) == 1:
        return report
    steps = []
    for step, present, first in _v2_steps(report):
        disjoint = [DISJOINT] * len(step["event"])
        cases = dict.fromkeys(present, disjoint)
        cases.update(dict.fromkeys(first, disjoint[1:]))
        for sid, labels in step["cases"].items():
            cases[sid] = labels[1:] if sid in first else list(labels)
        v1_step = {key: value for key, value in step.items() if key != "created"}
        v1_step["cases"] = cases
        v1_step["new_strata"] = [nid for created in step["created"] for nid in created]
        steps.append(v1_step)
    v1 = {key: value for key, value in report.items() if key != "initial_strata"}
    v1["schema_version"] = 1
    v1["steps"] = steps
    return v1


def _version(report: dict) -> int:
    versions = range(1, SCHEMA_VERSION + 1)
    return schema.check(report.get("schema_version"), versions, "report schema version")


def _v2_steps(report: dict):
    """Check the step records of a v2 report and yield each with the ids
    present before it (a list that grows after each yield) and the set of
    pieces the first center of a pair made."""
    present = list(schema.check(report.get("initial_strata"), [str], "report 'initial_strata'"))
    known = set(present)
    for k, step in enumerate(schema.check(report.get("steps"), [dict], "report 'steps'"), 1):
        where = f"report step {k}: "
        event = schema.check(step.get("event"), [str], f"{where}'event'")
        cases = schema.check(step.get("cases"), dict, f"{where}'cases'")
        created = schema.check(step.get("created"), [[str]], f"{where}'created'")
        if len(event) not in (1, 2):
            raise InputError(f"{where}'event' must list one or two centers")
        if len(created) != len(event):
            raise InputError(
                f"{where}'created' has {len(created)} lists for an event of {len(event)} centers"
            )
        first = set(created[0]) if len(event) == 2 else set()
        for sid, labels in cases.items():
            schema.check(labels, [str], f"{where}case {sid!r}")
            if len(labels) != len(event) or not _LABELS.issuperset(labels):
                raise InputError(f"{where}case {sid!r} needs one label per center")
            if sid in first:
                if labels[0] != DISJOINT:
                    raise InputError(
                        f"{where}piece {sid!r} has a label for the center that made it"
                    )
            elif sid not in known:
                raise InputError(
                    f"{where}case id {sid!r} is neither an initial stratum nor created earlier"
                )
        yield step, present, first
        for nid in (nid for c in created for nid in c):
            if nid in known:
                raise InputError(f"{where}stratum {nid!r} created twice")
            known.add(nid)
            present.append(nid)


def render_text(report: dict, trace: bool = False) -> str:
    final = report["final"]
    lines = []
    lines.append(f"model: {json.dumps(report['model'], sort_keys=True)}")
    lines.append(f"ambient complex dimension: {report['ambient_dim']}")
    lines.append(f"complex Betti: {final['betti_c']}   total {final['total_c']}")
    lines.append(f"real    Betti: {final['betti_r']}   total {final['total_r']}")
    lines.append(
        f"deficiency: {final['deficiency']}   euler: {final['euler_c']}   "
        f"steps: {len(report['steps'])}"
    )
    flags = final["flags"]
    lines.append(
        "flags: effective={effective} maximal={maximal} "
        "galois_maximal={galois_maximal}".format(**flags)
    )
    lines.append(f"verdict: {final['verdict']}")
    if report["flag_axioms"]:
        lines.append("flag axioms (inputs):")
        for sid, note in report["flag_axioms"]:
            lines.append(f"  {sid}: {note}")
    if trace:
        lines.append("steps:")
        for i, step in enumerate(report["steps"], start=1):
            lines.append(
                f"  {i:3d}. blow up {'+'.join(step['event'])} (codim {step['codim']}): "
                f"c {step['betti_c_before']} -> {step['betti_c_after']}, "
                f"r {step['betti_r_before']} -> {step['betti_r_after']}, "
                f"defi {step['deficiency_before']} -> {step['deficiency_after']}"
            )
    lines.append("checks:")
    for name, ok in report["checks"]:
        lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}")
    return "\n".join(lines) + "\n"
