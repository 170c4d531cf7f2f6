import json
import os

import pytest

from realwonder import cli
from realwonder.engine import wonderful_run
from realwonder.errors import EngineError
from realwonder.models import SpaceData, build_moduli, parse_sigma
from realwonder.report import build_report, from_json, render_text, to_json

from conftest import fuzz_mutate


def run_report(sigma="(1 2)", n=5):
    result = wonderful_run(build_moduli(parse_sigma(sigma, n)))
    return build_report({"kind": "moduli", "n": n, "sigma": sigma}, result)


def test_reports_are_deterministic():
    assert to_json(run_report()) == to_json(run_report())


def test_report_roundtrip_identity():
    text = to_json(run_report())
    assert to_json(from_json(text)) == text


def test_to_v1_expands_sparse_cases():
    """Absent strata are Disjoint for every center, through one shared
    list; a piece the first center of a pair made has one label."""
    from realwonder import gradedpoly as gp
    from realwonder.engine import CENTER, CONTAINS, DISJOINT, INSIDE, StepTrace
    from realwonder.report import to_v1, trace_to_dict

    zero = gp.ZERO
    trace = StepTrace(
        event=("c", "cbar"),
        codim=2,
        cases={
            "a": (CONTAINS, DISJOINT),
            "a^c": (DISJOINT, INSIDE),
            "c": (CENTER, DISJOINT),
            "cbar": (DISJOINT, CENTER),
        },
        created=(("a^c", "b^c"), ("abar^cbar",)),
        event_betti_c=zero,
        event_betti_r=zero,
        betti_c_before=zero,
        betti_c_after=zero,
        betti_r_before=zero,
        betti_r_after=zero,
        deficiency_before=0,
        deficiency_after=0,
    )
    step = trace_to_dict(trace)
    assert step["cases"] == {sid: list(labels) for sid, labels in trace.cases.items()}
    assert step["created"] == [["a^c", "b^c"], ["abar^cbar"]]
    report = {
        "schema_version": 2,
        "initial_strata": ["a", "abar", "b", "c", "cbar"],
        "steps": [step],
    }
    v1 = to_v1(report)
    assert v1 == {"schema_version": 1, "steps": v1["steps"]}
    (v1_step,) = v1["steps"]
    assert v1_step["cases"] == {
        "a": [CONTAINS, DISJOINT],
        "abar": [DISJOINT, DISJOINT],
        "b": [DISJOINT, DISJOINT],
        "c": [CENTER, DISJOINT],
        "cbar": [DISJOINT, CENTER],
        "a^c": [INSIDE],
        "b^c": [DISJOINT],
    }
    assert v1_step["cases"]["abar"] is v1_step["cases"]["b"]
    assert v1_step["new_strata"] == ["a^c", "b^c", "abar^cbar"]
    assert "created" not in v1_step
    assert to_v1(v1) is v1


@pytest.mark.parametrize("sigma, n", [("(1 2)", 5), ("(1 2)(3 4)", 6), ("id", 6)])
def test_from_json_reads_both_versions(sigma, n):
    """The written report is v2; it and its v1 form parse back unchanged,
    and the trace identities hold on both."""
    from realwonder.report import to_v1, verify_trace_identities

    report = run_report(sigma, n)
    assert report["schema_version"] == 2
    v1 = to_v1(report)
    for version in (report, v1):
        text = to_json(version)
        assert from_json(text) == version
        assert to_json(from_json(text)) == text
        assert verify_trace_identities(version) == report["checks"]
        assert all(ok for _, ok in verify_trace_identities(version))
    assert len(to_json(report)) < len(to_json(v1))


def _pair_report():
    """The v2 report of M0,6 with sigma (1 2), and the index of its first
    step: the pair event s1+s2, whose first center makes four pieces."""
    report = run_report("(1 2)", 6)
    assert report["steps"][0]["event"] == ["s1", "s2"]
    assert report["steps"][0]["created"][0] == ["s1.2^s1", "s1.3^s1", "s1.4^s1", "s1.5^s1"]
    return report, 0


def _corrupt(mutate):
    report, k = _pair_report()
    mutate(report, report["steps"][k])
    return report


MALFORMED_V2 = {
    "version-3": lambda r, s: r.update(schema_version=3),
    "version-str": lambda r, s: r.update(schema_version="2"),
    "version-float": lambda r, s: r.update(schema_version=2.0),
    "no-version": lambda r, s: r.pop("schema_version"),
    "cases-list": lambda r, s: s.update(cases=[]),
    "created-arity": lambda r, s: s.update(created=s["created"][:1]),
    "created-not-lists": lambda r, s: s.update(created=["x", "y"]),
    "unknown-case-id": lambda r, s: s["cases"].update({"nowhere": ["Disjoint", "Center"]}),
    "later-case-id": lambda r, s: s["cases"].update({"s1.3^s3": ["Disjoint", "Center"]}),
    "second-center-piece": lambda r, s: s["cases"].update({"s1.2^s2": ["Disjoint", "Center"]}),
    "first-piece-labelled": lambda r, s: s["cases"].update({"s1.2^s1": ["Center", "Disjoint"]}),
    "created-twice": lambda r, s: s["created"][1].append("s1.2^s1"),
    "label-arity": lambda r, s: s["cases"].update({s["event"][0]: ["Center"]}),
    "label-unknown": lambda r, s: s["cases"].update({s["event"][0]: ["Center", 7]}),
    "event-arity": lambda r, s: s.update(event=[]),
    "initial-missing": lambda r, s: r.pop("initial_strata"),
    "steps-not-list": lambda r, s: r.update(steps={}),
    "step-not-object": lambda r, s: r["steps"].append(5),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_V2))
def test_from_json_rejects_malformed_v2(name):
    from realwonder.errors import InputError

    text = json.dumps(_corrupt(MALFORMED_V2[name]))
    with pytest.raises(InputError):
        from_json(text)


@pytest.mark.parametrize("name", ["cases-list", "created-arity", "unknown-case-id"])
def test_to_v1_rejects_malformed_v2(name):
    from realwonder.errors import InputError
    from realwonder.report import to_v1

    with pytest.raises(InputError):
        to_v1(_corrupt(MALFORMED_V2[name]))


def test_to_v1_names_the_unknown_case_id():
    from realwonder.errors import InputError
    from realwonder.report import to_v1

    report, k = _pair_report()
    report["steps"][k]["cases"]["nowhere"] = ["Disjoint", "Center"]
    with pytest.raises(InputError, match=f"step {k + 1}: case id 'nowhere' is neither"):
        to_v1(report)


def _reference_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "sigma, n", [("id", 4), ("(1 2)", 5), ("(1 2)(3 4)", 6), ("id", 6)]
)
def test_to_json_matches_stdlib_on_reports(sigma, n):
    report = run_report(sigma, n)
    assert to_json(report) == _reference_json(report)


def test_to_json_matches_stdlib_on_edge_values():
    report = run_report("id", 4)  # no steps: "steps": [], "flag_axioms" lists
    report["model"] = {
        "kind": "dcp",
        "file": "k\u00e4hler/\u0394 \"quoted\"\n\ttab\\.json",
        "empty_dict": {},
        "empty_list": [],
        "nested": [[], {}, [[]], {"z": None, "a": [True, False, -7, 0]}],
        "big": 10**40,
        "\u00e9t\u00e9": "\U0001d54a",
    }
    assert report["steps"] == []
    assert to_json(report) == _reference_json(report)
    for value in ({}, [], "", 0, None):
        assert to_json(value) == _reference_json(value)


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1: "x"}, {"a": {2}}])
def test_to_json_rejects_non_report_values(bad):
    with pytest.raises(TypeError):
        to_json(bad)


def test_to_json_matches_stdlib_around_the_join_threshold():
    """The writer joins the pieces of a list item or dict member that
    took more than _JOIN_AT of them.  Items and members on both sides
    of that size, flat and nested, give the stdlib's bytes."""
    from realwonder.report import _JOIN_AT

    sizes = range(_JOIN_AT + 4)
    escapes = ["k\u00e4hler \u0394", "\"quoted\"\n\t\\", "\x00\x1f\x7f", "\U0001d54a", ""]
    deep = []
    for depth in range(40):
        deep = [deep, list(range(depth)), {"x": depth, "e": [], "s": escapes[depth % 5]}]
    value = {
        "flat": list(range(5 * _JOIN_AT)),
        "lists": [[k if k % 2 else str(k) for k in range(size)] for size in sizes],
        "dicts": {str(size): {f"m{k}": [k] for k in range(size)} for size in sizes},
        "deep": deep,
        "empties": [[], {}, [[], {}] * _JOIN_AT, {"": [], "{}": {}}],
        "strings": escapes * _JOIN_AT,
        escapes[0]: {key: escapes for key in escapes},
    }
    assert to_json(value) == _reference_json(value)
    for size in sizes:
        assert to_json(value["lists"][size]) == _reference_json(value["lists"][size])


def test_to_json_peak_is_about_twice_the_text():
    """Joining the pieces of each large member keeps the writer's
    traced peak, above its input, within 2.5 times the text it returns
    (the text itself counts once).  One list of every piece took four
    times the text on M̅0,8."""
    import hashlib
    import tracemalloc

    report = run_report("id", 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = to_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2.5 * len(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "3f2371022abf5423c80dbf8f875f257a6b65c7b0ad9a1a5572c7dacde61d2900"


@pytest.mark.parametrize("sigma, n", [("(1 2)", 6), ("(1 2)(3 4)", 7)])
def test_report_cases_share_one_list_per_labels(sigma, n):
    """Within a step record, the cases with equal labels are one list."""
    report = run_report(sigma, n)
    assert any(len(step["event"]) == 2 for step in report["steps"])
    for step in report["steps"]:
        lists = {}
        for labels in step["cases"].values():
            assert lists.setdefault(tuple(labels), labels) is labels


def test_report_readers_leave_shared_labels_alone(tmp_path, monkeypatch, capsys):
    """No reader of a report mutates it, so none changes a label list
    that other cases share: each leaves the report deep-equal to a copy
    taken before the call."""
    import copy

    from realwonder.report import to_v1, verify_trace_identities

    report = run_report("id", 6)
    before = copy.deepcopy(report)
    to_v1(report)
    from_json(to_json(report))
    render_text(report, trace=True)
    verify_trace_identities(report)
    assert report == before

    path = tmp_path / "report.json"
    path.write_text(to_json(report))
    read = []

    def reading(text):
        read.append(from_json(text))
        read.append(copy.deepcopy(read[0]))
        return read[0]

    monkeypatch.setattr(cli, "from_json", reading)
    assert cli.main(["hilb2", "--report", str(path)]) == 0
    assert read[0] == read[1] == before


def test_report_schema_guard():
    report = run_report()
    report["schema_version"] = 99
    with pytest.raises(Exception):
        from_json(to_json(report))


def test_report_checks_all_pass():
    report = run_report("id", 6)
    assert report["checks"] and all(ok for _, ok in report["checks"])
    assert report["final"]["total_c"] == 34


def test_render_text_mentions_verdict():
    text = render_text(run_report(), trace=True)
    assert "EffectiveGaloisMaximal" in text
    assert "blow up" in text
    assert "pass" in text


def test_cli_moduli(tmp_path, capsys):
    machine = tmp_path / "report.json"
    code = cli.main(
        ["moduli", "--n", "5", "--sigma", "(1 2)", "--machine", str(machine)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: EffectiveGaloisMaximal" in out
    assert "total 7" in out and "total 5" in out
    report = json.loads(machine.read_text())
    assert report["final"]["deficiency"] == 2


def test_cli_byte_identical_reports(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert cli.main(["moduli", "--n", "5", "--machine", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_dcp(tmp_path, capsys):
    spec = {
        "ambient_dim": 2,
        "generators": [
            {"name": "p", "rnc_span": ["0"]},
            {"name": "q", "rnc_span": ["1"]},
            {"name": "r", "rnc_span": ["i"]},
            {"name": "rbar", "rnc_span": ["-i"]},
        ],
    }
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["dcp", str(path)]) == 0
    out = capsys.readouterr().out
    assert "total 7" in out and "total 5" in out


def test_cli_dcp_basis_input(tmp_path, capsys):
    spec = {
        "ambient_dim": 3,
        "generators": [
            {"name": "line", "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}
        ],
    }
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["dcp", str(path), "--validate-prefixes"]) == 0
    assert "ConjugationSpace" in capsys.readouterr().out


def test_cli_config(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps(
            {
                "name": "P2",
                "dim_c": 2,
                "betti_c": [1, 0, 1, 0, 1],
                "betti_r": [1, 1, 1],
                "flags": {"effective": "yes", "maximal": "yes", "galois_maximal": "yes"},
            }
        )
    )
    assert cli.main(["config", "--model", "fm", "--n", "2", "--space", str(space)]) == 0
    out = capsys.readouterr().out
    assert "total 12" in out and "ConjugationSpace" in out
    # kt needs a building set
    assert (
        cli.main(["config", "--model", "kt", "--n", "2", "--space", str(space)]) == 2
    )


def test_cli_seed_flags(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps(
            {
                "name": "mystery",
                "dim_c": 1,
                "betti_c": [1, 0, 1],
                "betti_r": [1, 1],
                "flags": {},
            }
        )
    )
    flags = tmp_path / "flags.json"
    flags.write_text(json.dumps({"ambient": {"effective": "yes"}}))
    assert (
        cli.main(
            [
                "config",
                "--model",
                "fm",
                "--n",
                "3",
                "--space",
                str(space),
                "--seed-flags",
                str(flags),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "user axiom" in out


def test_cli_hilb2_file(tmp_path, capsys):
    payload = {
        "smith": {
            "n": 2,
            "beta_total": 4,
            "beta_fixed": 2,
            "delta": [0, 1, 0, 0],
            "rank_mu": 2,
        },
        "attest": {"tors2_free": True, "effective_gm": True},
    }
    path = tmp_path / "smith.json"
    path.write_text(json.dumps(payload))
    out_path = tmp_path / "out.json"
    assert cli.main(["hilb2", "--file", str(path), "--machine", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "12" in out
    data = json.loads(out_path.read_text())
    assert data["deficiency"] == {"general": 12, "effective_gm": 12}


def test_cli_hilb2_from_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["moduli", "--n", "5", "--machine", str(report)]) == 0
    capsys.readouterr()
    assert cli.main(["hilb2", "--report", str(report)]) == 0
    assert "0" in capsys.readouterr().out
    # non-conjugation-space reports are refused
    assert (
        cli.main(["moduli", "--n", "5", "--sigma", "(1 2)", "--machine", str(report)])
        == 0
    )
    capsys.readouterr()
    assert cli.main(["hilb2", "--report", str(report)]) == 2
    assert "got verdict EffectiveGaloisMaximal" in capsys.readouterr().err


@pytest.mark.parametrize("attest", [5, [], None], ids=["int", "list", "null"])
def test_cli_hilb2_attest_not_object(tmp_path, capsys, attest):
    path = tmp_path / "smith.json"
    smith = {"n": 2, "beta_total": 4, "beta_fixed": 2}
    path.write_text(json.dumps({"smith": smith, "attest": attest}))
    assert cli.main(["hilb2", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "'attest' must be a JSON object" in err


def test_cli_dcp_ambient_dim_bound(tmp_path, capsys):
    """An ambient_dim above the bound is refused before any point is
    built; a typo such as 1000000 would otherwise run without end."""
    path = tmp_path / "big.json"
    spec = {
        "ambient_dim": cli.MAX_AMBIENT_DIM + 1,
        "generators": [{"name": "p", "rnc_span": ["1"]}],
    }
    path.write_text(json.dumps(spec))
    assert cli.main(["dcp", str(path)]) == 2
    assert str(cli.MAX_AMBIENT_DIM) in capsys.readouterr().err


_HUGE_N = "99999999999999999999"


def _run_cli(*argv):
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    command = [sys.executable, "-m", "realwonder", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True)


def test_cli_moduli_n_bound(capsys):
    """An n whose M̅0,n has ambient dimension n - 3 above the bound is
    refused before sigma is parsed: a huge n overflowed there."""
    done = _run_cli("moduli", "--n", _HUGE_N)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    dim = int(_HUGE_N) - 3
    assert done.stderr == (
        f"input error: ambient dimension n - 3 = {dim} is above the bound {cli.MAX_AMBIENT_DIM}\n"
    )
    assert cli.main(["moduli", "--n", str(cli.MAX_AMBIENT_DIM + 4)]) == 2
    assert f"n - 3 = {cli.MAX_AMBIENT_DIM + 1} is above" in capsys.readouterr().err


def test_cli_config_n_bound(tmp_path, capsys):
    """A configuration model whose ambient dimension n * dim_c is above
    the bound is refused before its diagonals are built: a huge n
    overflowed there."""
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(_P1))
    done = _run_cli("config", "--model", "fm", "--n", _HUGE_N, "--space", str(path))
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert done.stderr == (
        f"input error: ambient dimension n * dim_c = {_HUGE_N} is above the bound "
        f"{cli.MAX_AMBIENT_DIM}\n"
    )
    for model in ("fm", "ulyanov", "kt"):
        argv = ["config", "--model", model, "--n", str(cli.MAX_AMBIENT_DIM + 1)]
        assert cli.main([*argv, "--space", str(path)]) == 2
        assert f"n * dim_c = {cli.MAX_AMBIENT_DIM + 1} is above" in capsys.readouterr().err


def test_cli_input_error_exit_codes(tmp_path):
    assert cli.main(["moduli", "--n", "5", "--sigma", "(1 2 3)"]) == 2
    assert cli.main(["dcp", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["dcp", str(bad)]) == 2


@pytest.mark.parametrize(
    "name, payload",
    [
        ("dcp-generator-not-object", {"ambient_dim": 2, "generators": [5]}),
        (
            "dcp-basis-row-length",
            {"ambient_dim": 2, "generators": [{"basis": [["1", "0"]]}]},
        ),
        ("dcp-basis-not-list", {"ambient_dim": 2, "generators": [{"basis": 5}]}),
    ],
)
def test_cli_dcp_malformed_generators(tmp_path, capsys, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["dcp", str(path)]) == 2
    assert "input error:" in capsys.readouterr().err


_AMBIENT_RANGE = f"ambient_dim must be an integer from 1 to {cli.MAX_AMBIENT_DIM}"
_POINT = [{"name": "a", "rnc_span": ["1"]}]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"ambient_dim": -1, "generators": _POINT}, f"{_AMBIENT_RANGE}, got -1"),
        ({"ambient_dim": 0, "generators": _POINT}, f"{_AMBIENT_RANGE}, got 0"),
        ({"ambient_dim": 3.7, "generators": _POINT}, f"{_AMBIENT_RANGE}, got 3.7"),
        ({"ambient_dim": True, "generators": _POINT}, f"{_AMBIENT_RANGE}, got True"),
        ({"ambient_dim": "3", "generators": _POINT}, f"{_AMBIENT_RANGE}, got '3'"),
        (
            {"ambient_dim": 2, "generators": [{"name": "a", "rnc_span": []}]},
            "generator a: rnc_span needs at least one parameter",
        ),
        (
            {"ambient_dim": 2, "generators": [{"name": "a", "rnc_span": "12"}]},
            "generator a: rnc_span must be a JSON list, got '12'",
        ),
        (
            {"ambient_dim": 1, "generators": [{"name": "a", "basis": ["10"]}]},
            "generator a: a basis row must be a JSON list, got '10'",
        ),
        (
            {"ambient_dim": 1, "generators": [{"name": "a", "basis": "10"}]},
            "generator a: basis must be a JSON list, got '10'",
        ),
        (
            {"ambient_dim": 1, "generators": "ab"},
            "generators must be a JSON list, got 'ab'",
        ),
    ],
    ids=[
        "ambient-negative",
        "ambient-zero",
        "ambient-float",
        "ambient-bool",
        "ambient-string",
        "rnc-span-empty",
        "rnc-span-string",
        "basis-row-string",
        "basis-string",
        "generators-string",
    ],
)
def test_cli_dcp_schema_messages(tmp_path, capsys, payload, message):
    """ambient_dim is a JSON integer in range, and rnc_span, basis and
    each basis row are JSON lists (a string would be read one character
    at a time); anything else is an input error naming the field."""
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["dcp", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


_FUZZ_BASES = [
    {
        "ambient_dim": 2,
        "generators": [
            {"name": "p", "rnc_span": ["0"]},
            {"name": "q", "rnc_span": ["1"]},
            {"name": "r", "rnc_span": ["i"]},
            {"name": "rbar", "rnc_span": ["-i"]},
        ],
    },
    {
        "ambient_dim": 3,
        "generators": [
            {"name": "line", "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
            {"name": "pt", "rnc_span": ["1/2"]},
            {"name": "l2", "rnc_span": ["2", "1+i", "1-i"]},
        ],
    },
]


def test_cli_dcp_fuzz(tmp_path, capsys):
    """Seeded small mutations of valid dcp inputs exit 0, 2 or 3 and
    never raise; the named malformed shapes are among them."""
    import copy
    import random

    rng = random.Random(20261019)
    cases = [
        {"ambient_dim": 2, "generators": [{"name": "a", "rnc_span": []}]},
        {"ambient_dim": -1, "generators": _POINT},
        {"ambient_dim": 3.7, "generators": _POINT},
        {"ambient_dim": True, "generators": _POINT},
        {"ambient_dim": 2, "generators": [{"name": "a", "rnc_span": "12"}]},
        {"ambient_dim": 1, "generators": [{"name": "a", "basis": ["10"]}]},
    ]
    named = len(cases)
    for _ in range(200):
        data = copy.deepcopy(rng.choice(_FUZZ_BASES))
        for _ in range(rng.randint(1, 3)):
            data = fuzz_mutate(rng, data)
        cases.append(data)
    path = tmp_path / "arr.json"
    codes = {}
    for k, data in enumerate(cases):
        path.write_text(json.dumps(data))
        try:
            code = cli.main(["dcp", str(path)])
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{data!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (data, code, err)
        assert "Traceback" not in err, data
        if k < named:
            assert code == 2, (data, err)
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0) and codes.get(2), codes


def test_cli_parser_reused_across_calls(tmp_path, capsys):
    """main keeps one parser per process: the same argv gives the same
    output and exit code before and after an argparse error."""
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(_FUZZ_BASES[0]))
    seen = []
    for argv in (["dcp", str(path)], ["dcp"], ["dcp", str(path)]):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        seen.append((code, *capsys.readouterr()))
    assert seen[1][0] == 2 and "required: file" in seen[1][2]
    assert seen[0] == seen[2] and seen[0][0] == 0


def test_cli_import_builds_no_parser():
    """Importing the CLI constructs no argparse parser; main builds its
    one on first use."""
    import subprocess
    import sys

    code = (
        "import argparse\n"
        "def refuse(*args, **kwargs):\n"
        "    raise SystemExit('a parser was built at import')\n"
        "argparse.ArgumentParser.__init__ = refuse\n"
        "import realwonder.cli\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr


_P1 = {"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1], "betti_r": [1, 1]}


@pytest.mark.parametrize(
    "space, message",
    [
        ([1], "bad space data: expected a JSON object, got [1]"),
        ({**_P1, "flags": None}, "bad space data: flags must be a JSON object, got None"),
        ({**_P1, "flags": 1.5}, "bad space data: flags must be a JSON object, got 1.5"),
        ({**_P1, "flags": "x"}, "bad space data: flags must be a JSON object, got 'x'"),
        ({**_P1, "flags": []}, "bad space data: flags must be a JSON object, got []"),
    ],
    ids=["top-level-list", "flags-null", "flags-float", "flags-string", "flags-list"],
)
def test_cli_config_space_not_object(tmp_path, capsys, space, message):
    """A space file whose top level or flags is not a JSON object is an
    input error, not a crash."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    assert cli.main(["config", "--model", "fm", "--n", "3", "--space", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("literal", ["1/0", "1/0*i"])
def test_cli_dcp_zero_denominator(tmp_path, capsys, literal):
    """A Gaussian-rational literal with a zero denominator is an input
    error naming the literal."""
    spec = {"ambient_dim": 3, "generators": [{"name": "g", "rnc_span": ["0", literal]}]}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["dcp", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"input error: generator g: zero denominator in GaussianRational {literal!r}\n"
    )


def test_cli_hilb2_file_not_object(tmp_path, capsys):
    path = tmp_path / "smith.json"
    path.write_text(json.dumps([1, 2, 3]))
    assert cli.main(["hilb2", "--file", str(path)]) == 2
    assert "input error:" in capsys.readouterr().err


def test_cli_engine_error_maps_to_3(monkeypatch):
    def boom(args):
        raise EngineError("guard tripped")

    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_moduli", boom)
    parser_main = cli.main
    assert parser_main(["moduli", "--n", "5"]) == 3


def test_cli_verify_core_smoke(capsys):
    assert cli.main(["verify", "--suite", "core"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("[pass]") == 15


def test_cli_verify_prints_check_times(capsys, monkeypatch):
    import re

    from realwonder import verification

    monkeypatch.setattr(
        verification,
        "CHECKS",
        [("moduli-n4", verification.check_moduli_n4, {}, {})],
    )
    assert cli.main(["verify", "--suite", "core"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"\[pass\] moduli-n4: .+ \(\d+\.\d\d s\)", line)


def test_cli_seed_flags_value_not_object(tmp_path, capsys):
    flags = tmp_path / "flags.json"
    flags.write_text(json.dumps({"ambient": 5}))
    assert cli.main(["moduli", "--n", "5", "--seed-flags", str(flags)]) == 2
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "building",
    [[[[1, 2, 3]], 5], [[[1, 2, "a"]]], [[[1, 2, 9]]], 7],
    ids=["entry-not-list", "point-not-int", "point-out-of-range", "not-list"],
)
def test_cli_kt_malformed_building(tmp_path, capsys, building):
    space = tmp_path / "p1.json"
    space.write_text(
        json.dumps({"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1], "betti_r": [1, 1]})
    )
    path = tmp_path / "building.json"
    path.write_text(json.dumps(building))
    argv = ["config", "--model", "kt", "--n", "3", "--space", str(space)]
    assert cli.main(argv + ["--building", str(path)]) == 2
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "building, message",
    [
        ([[[1, 2, 9]]], "building entry 0: element 9 outside 1..3"),
        ([[[1, 2]], [[1, 2], [2, 3]]], "building entry 1: element 2 in two blocks"),
        ([[[1], [2]], [[1, 2]]], "building entry 0: "),
        ([[[1, 2]], []], "building entry 1: "),
        ([[[1, 2]], [[]]], "building entry 1: "),
    ],
    ids=["out-of-range", "overlapping", "singletons", "no-blocks", "empty-block"],
)
def test_cli_kt_building_messages(tmp_path, capsys, building, message):
    """Malformed partitions and the discrete partition (the whole of X^n,
    not a diagonal) exit 2 naming the building entry."""
    space = tmp_path / "p1.json"
    space.write_text(
        json.dumps({"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1], "betti_r": [1, 1]})
    )
    path = tmp_path / "building.json"
    path.write_text(json.dumps(building))
    argv = ["config", "--model", "kt", "--n", "3", "--space", str(space)]
    assert cli.main(argv + ["--building", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


@pytest.mark.parametrize(
    "report",
    [
        {"schema_version": 1},
        {"schema_version": 1, "final": [], "ambient_dim": 2},
        {
            "schema_version": 1,
            "ambient_dim": 2,
            "final": {"verdict": "ConjugationSpace", "total_c": "9", "total_r": 3},
        },
        {
            "schema_version": 1,
            "final": {"verdict": "ConjugationSpace", "total_c": 9, "total_r": 3},
        },
        [],
        5,
    ],
    ids=[
        "no-final",
        "final-not-object",
        "total-not-int",
        "no-ambient-dim",
        "top-level-list",
        "top-level-int",
    ],
)
def test_cli_hilb2_report_missing_keys(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert cli.main(["hilb2", "--report", str(path)]) == 2
    assert "input error:" in capsys.readouterr().err


def test_cli_hilb2_report_reads_v1_and_v2(tmp_path, capsys):
    from realwonder.report import to_v1

    v2 = tmp_path / "v2.json"
    assert cli.main(["moduli", "--n", "5", "--machine", str(v2)]) == 0
    report = from_json(v2.read_text())
    assert report["schema_version"] == 2
    v1 = tmp_path / "v1.json"
    v1.write_text(to_json(to_v1(report)))
    capsys.readouterr()
    outputs = []
    for path in (v2, v1):
        assert cli.main(["hilb2", "--report", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "deficiency of the Hilbert square" in outputs[0]


@pytest.mark.parametrize(
    "name", ["version-3", "cases-list", "created-arity", "unknown-case-id"]
)
def test_cli_hilb2_report_malformed_v2(tmp_path, capsys, name):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_corrupt(MALFORMED_V2[name])))
    assert cli.main(["hilb2", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_cli_engine_guard_names_the_step(monkeypatch, capsys):
    """A payload broken inside step 4 exits 3 with a message that names
    the step and its event before the check's own text."""
    from dataclasses import replace

    from realwonder import engine
    from realwonder import gradedpoly as gp

    events = build_moduli(parse_sigma("id", 6)).events
    calls = []
    elementary = engine._elementary

    def corrupting(a, cid, later):
        out, cls, created = elementary(a, cid, later)
        calls.append(cid)
        if len(calls) == 4:
            strata = dict(out.strata)
            s = strata[cid]
            strata[cid] = replace(s, betti_c=gp.add(s.betti_c, gp.BettiVector([2])))
            out = replace(out, strata=strata)
        return out, cls, created

    monkeypatch.setattr(engine, "_elementary", corrupting)
    assert cli.main(["moduli", "--n", "6"]) == 3
    first = capsys.readouterr().err.splitlines()[0]
    assert first == (
        f"engine guard: step 4 ({'+'.join(events[3])}): "
        f"{events[3][0]}: complex Betti not palindromic"
    )


def test_cli_touching_pair_guard_names_the_step(tmp_path, capsys):
    """A conjugate pair A, Abar meeting in a real point of P^4, with a
    real hyperplane through that point: the guard's exit-3 message names
    the step of the pair event and keeps its own text."""
    real, plus, minus = ["0"], ["1+i", "2+i"], ["1-i", "2-i"]
    data = {
        "ambient_dim": 4,
        "generators": [
            {"name": "A", "rnc_span": real + plus},
            {"name": "Abar", "rnc_span": real + minus},
            {"name": "B0", "rnc_span": ["2", "3", "4", "5"]},
        ],
    }
    path = tmp_path / "touch.json"
    path.write_text(json.dumps(data))
    arr = cli.build_dcp(*cli._parse_generators(data))
    k = arr.events.index(("A", "Abar")) + 1
    assert cli.main(["dcp", str(path)]) == 3
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith(f"engine guard: step {k} (A+Abar): invariant stratum ")
    assert "meets the intersecting conjugate pair ('A', 'Abar')" in first


@pytest.mark.parametrize(
    "argv, path",
    [
        (["moduli", "--n", "4", "--machine"], "/nonexistent/x.json"),
        (["moduli", "--n", "4", "--machine"], "{tmp}"),
        (["hilb2", "--report", "R", "--machine"], "/nonexistent/y.json"),
    ],
    ids=["moduli-missing-directory", "moduli-directory", "hilb2-missing-directory"],
)
def test_cli_machine_path_refused_before_the_run(tmp_path, monkeypatch, capsys, argv, path):
    """A --machine path in a missing directory, or a directory, exits 2
    with a message naming it, before the model is run or the report read."""
    path = path.format(tmp=tmp_path)

    def never(*_):
        raise AssertionError("ran although the --machine path cannot be written")

    monkeypatch.setattr(cli, "wonderful_run", never)
    monkeypatch.setattr(cli, "from_json", never)
    assert cli.main(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["moduli", "--n", "5"], ["hilb2", "--report", "R"]], ids=["moduli", "hilb2"]
)
def test_cli_machine_empty_path_refused(tmp_path, monkeypatch, capsys, argv):
    """--machine "" names no file: it exits 2 with a message before the
    run, rather than print the table, exit 0 and write nothing."""

    def never(*_):
        raise AssertionError("ran although the --machine path is empty")

    monkeypatch.setattr(cli, "wonderful_run", never)
    monkeypatch.setattr(cli, "from_json", never)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--machine", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: --machine needs a file path, got an empty one\n"
    assert captured.out == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["dcp", "{tmp}/arr.json"],
        ["moduli", "--n", "6", "--sigma", "(1 2)"],
        ["config", "--model", "fm", "--n", "4", "--space", "{tmp}/p1.json"],
        ["config", "--model", "ulyanov", "--n", "4", "--space", "{tmp}/p1.json"],
        [
            "config", "--model", "kt", "--n", "4", "--space", "{tmp}/p1.json",
            "--building", "{tmp}/kt.json",
        ],
    ],
    ids=["dcp", "moduli", "fm", "ulyanov", "kt"],
)
def test_cli_validate_prefixes_leaves_the_report(tmp_path, argv):
    """On valid input every event prefix is a building set, so the
    check passes and the report is the one written without it."""
    arr = {
        "ambient_dim": 3,
        "generators": [
            {"name": "l1", "rnc_span": ["0", "1"]},
            {"name": "l2", "rnc_span": ["0", "2"]},
            {"name": "p", "rnc_span": ["i"]},
            {"name": "pbar", "rnc_span": ["-i"]},
        ],
    }
    (tmp_path / "arr.json").write_text(json.dumps(arr))
    (tmp_path / "p1.json").write_text(json.dumps(SpaceData.projective_space(1).to_dict()))
    building = [[[1, 2, 3]], [[3, 4]], [[1, 2], [3, 4]], [[1, 2, 3, 4]]]
    (tmp_path / "kt.json").write_text(json.dumps(building))
    argv = [a.format(tmp=tmp_path) for a in argv]
    reports = []
    for extra in ([], ["--validate-prefixes"]):
        path = tmp_path / f"report{len(reports)}.json"
        assert cli.main(argv + extra + ["--machine", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_cli_machine_write_error_exits_2(tmp_path, capsys):
    """A --machine path that passes the early check but cannot be opened
    (here a file name too long for the file system) exits 2 at write
    time, naming the path, and writes no partial report."""
    path = tmp_path / ("x" * 300)
    assert cli.main(["moduli", "--n", "4", "--machine", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {path}: ")
    assert "Traceback" not in err and os.listdir(tmp_path) == []
