"""The strict JSON reader (realwonder.schema) and the inputs read by it:
dcp arrangements, config space files, kt building sets, hilb2 Smith
data and --seed-flags files."""

import copy
import json
import pathlib
import random
import re

import pytest

from realwonder import cli, schema
from realwonder.arrangement import NO_REAL, REAL, payload_problems
from realwonder.errors import InputError
from realwonder.gradedpoly import BettiVector

from conftest import fuzz_mutate

_P1 = {"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1], "betti_r": [1, 1]}
_P2 = {"name": "P2", "dim_c": 2, "betti_c": [1, 0, 1, 0, 1], "betti_r": [1, 1, 1]}
_SMITH = {"n": 2, "beta_total": 4, "beta_fixed": 2, "delta": [0, 1, 0, 0], "rank_mu": 2}
_ATTEST = {"tors2_free": True, "effective_gm": True}


def _main(tmp_path, capsys, argv, data, name="input.json"):
    """cli.main on argv with data written to a file put where argv has
    None; returns (exit code, stderr)."""
    path = tmp_path / name
    path.write_text(json.dumps(data))
    code = cli.main([str(path) if arg is None else arg for arg in argv])
    return code, capsys.readouterr().err


def _space_file(tmp_path, space=_P2):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    return str(path)


# ----------------------------------------------------------------------
# the reader


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, int, "x must be a JSON integer, got True"),
        (2.0, int, "x must be a JSON integer, got 2.0"),
        ("2", int, "x must be a JSON integer, got '2'"),
        (1, bool, "x must be a JSON boolean, got 1"),
        ("no", bool, "x must be a JSON boolean, got 'no'"),
        (None, str, "x must be a JSON string, got None"),
        ([], dict, "x must be a JSON object, got []"),
        ("ab", list, "x must be a JSON list, got 'ab'"),
        (0, range(1, 5), "x must be an integer from 1 to 4, got 0"),
        (2.0, range(1, 5), "x must be an integer from 1 to 4, got 2.0"),
        ([1, 0, 1.9], [int], "x[2] must be a JSON integer, got 1.9"),
        ([[1], 5], [[int]], "x[1] must be a JSON list, got 5"),
        (7, [[[int]]], "x must be a JSON list, got 7"),
    ],
)
def test_check_refuses_each_mistyped_value(value, kind, message):
    with pytest.raises(InputError) as info:
        schema.check(value, kind, "x")
    assert str(info.value) == message


def test_check_returns_the_value_unchanged():
    cases = [(3, int), (False, bool), ("", str), ({}, dict), ([[]], [[int]]), (4, range(1, 5))]
    for value, kind in cases:
        assert schema.check(value, kind, "x") is value


_SPEC = {"a": int, "b": (bool, True), "c": (int, None)}


def test_read_fills_defaults_and_null_only_where_the_default_is_none():
    assert schema.read({"a": 1}, _SPEC) == {"a": 1, "b": True, "c": None}
    assert schema.read({"a": 1, "c": None}, _SPEC) == {"a": 1, "b": True, "c": None}
    assert schema.read({"a": 1, "b": False, "c": 5}, _SPEC) == {"a": 1, "b": False, "c": 5}
    with pytest.raises(InputError, match=r"^in: b must be a JSON boolean, got None$"):
        schema.read({"a": 1, "b": None}, _SPEC, "in: ")


@pytest.mark.parametrize(
    "data, message",
    [
        ([1], "in: expected a JSON object, got [1]"),
        ({}, "in: missing key 'a'"),
        ({"a": None}, "in: a must be a JSON integer, got None"),
        ({"a": 1, "d": [2]}, "in: unknown key 'd' (value [2]); the keys are a, b, c"),
    ],
)
def test_read_names_the_input_the_key_and_the_value(data, message):
    with pytest.raises(InputError) as info:
        schema.read(data, _SPEC, "in: ")
    assert str(info.value) == message


def test_read_quotes_keys_on_request():
    with pytest.raises(InputError, match=r"^f: 'b' must be a JSON boolean, got 0$"):
        schema.read({"a": 1, "b": 0}, _SPEC, "f: ", "'")


def test_empty_betti_vectors_are_payload_problems():
    """No stratum is empty, and one with real points has real Betti
    numbers."""
    problems = payload_problems(1, BettiVector([1, 0, 1]), BettiVector(), REAL)
    assert problems == ("empty real Betti vector with real points",)
    problems = payload_problems(1, BettiVector(), BettiVector(), NO_REAL)
    assert problems == ("empty complex Betti vector",)


# ----------------------------------------------------------------------
# inputs that ran to a wrong answer before they were read strictly


_FM3 = ["config", "--model", "fm", "--n", "3", "--space", None]


@pytest.mark.parametrize(
    "space, message",
    [
        (
            {"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1], "beti_r": [1, 1]},
            "bad space data: unknown key 'beti_r' (value [1, 1]); the keys are "
            "name, dim_c, betti_c, betti_r, real_nonempty, flags",
        ),
        (
            {**_P2, "betti_c": [1, 0, 1.9]},
            "bad space data: betti_c[2] must be a JSON integer, got 1.9",
        ),
        (
            {**_P1, "real_nonempty": "no"},
            "bad space data: real_nonempty must be a JSON boolean, got 'no'",
        ),
        (
            {"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1]},
            "P1: empty real Betti vector with real points",
        ),
        (
            {**_P1, "flags": {"efective": "yes"}},
            "bad space data: flags: unknown key 'efective' (value 'yes'); "
            "the keys are effective, maximal, galois_maximal",
        ),
        (
            {**_P1, "flags": {"effective": "maybe"}},
            "bad space data: flags: 'maybe' is not a valid Tri",
        ),
        ({**_P1, "dim_c": "1"}, "bad space data: dim_c must be a JSON integer, got '1'"),
        (
            {**_P1, "betti_c": [], "betti_r": [], "real_nonempty": False},
            "P1: empty complex Betti vector",
        ),
        (
            {"dim_c": 0, "betti_c": [1], "betti_r": [1]},
            "configuration models need a space of dim_c >= 1, got 0",
        ),
    ],
    ids=[
        "misspelt-key",
        "float-betti",
        "string-bool",
        "real-points-no-betti-r",
        "misspelt-flag",
        "bad-flag-value",
        "string-dim",
        "empty-space",
        "point-factor",
    ],
)
def test_config_space_refused(tmp_path, capsys, space, message):
    assert _main(tmp_path, capsys, _FM3, space) == (2, f"input error: {message}\n")


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"smith": _SMITH, "attest": {"tors2_free": "no", "effective_gm": "no"}},
            "'attest': tors2_free must be a JSON boolean, got 'no'",
        ),
        (
            {"smith": _SMITH, "attest": {"tors2_free": 1}},
            "tors2_free must be a JSON boolean, got 1",
        ),
        ({"smith": _SMITH, "attest": {"effective": True}}, "unknown key 'effective'"),
        (_SMITH, "unknown key 'n' (value 2); the keys are smith, attest"),
        ({"smith": {**_SMITH, "n": 2.0}}, "bad Smith data: n must be a JSON integer, got 2.0"),
        ({"smith": {**_SMITH, "delta": "0100"}}, "bad Smith data: delta must be a JSON list"),
        ({"attest": _ATTEST}, "missing key 'smith'"),
    ],
    ids=[
        "attest-strings",
        "attest-int",
        "attest-key",
        "flat-form",
        "float-n",
        "delta-string",
        "no-smith",
    ],
)
def test_hilb2_file_refused(tmp_path, capsys, payload, message):
    code, err = _main(tmp_path, capsys, ["hilb2", "--file", None], payload)
    assert code == 2 and err.startswith("input error:") and message in err, err


def test_hilb2_file_rank_mu_null_is_absent(tmp_path, capsys):
    payload = {"smith": {**_SMITH, "rank_mu": None}, "attest": _ATTEST}
    code, _ = _main(tmp_path, capsys, ["hilb2", "--file", None], payload)
    assert code == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        ([1], "seed-flags file must be a JSON object, got [1]"),
        ({"ambient": 5}, "seed-flags ambient: expected a JSON object, got 5"),
        (
            {"ambient": {"effective": True}},
            "seed-flags ambient: effective must be a JSON string, got True",
        ),
        ({"ambient": {"efective": "yes"}}, "seed-flags ambient: unknown key 'efective'"),
        ({"s9": {"effective": "yes"}}, "seed-flags: unknown stratum 's9'"),
    ],
    ids=["not-object", "value-not-object", "flag-bool", "misspelt-flag", "unknown-stratum"],
)
def test_seed_flags_refused(tmp_path, capsys, flags, message):
    code, err = _main(tmp_path, capsys, ["moduli", "--n", "5", "--seed-flags", None], flags)
    assert code == 2 and err.startswith(f"input error: {message}"), err


_NOT_MAXIMAL = {"maximal": "no"}


@pytest.mark.parametrize(
    "argv, flags, message",
    [
        (["moduli", "--n", "5"], {"ambient": _NOT_MAXIMAL}, "ambient: declared non-maximal"),
        (["moduli", "--n", "4"], {"ambient": _NOT_MAXIMAL}, "ambient: declared non-maximal"),
        (["moduli", "--n", "5"], {"s1": _NOT_MAXIMAL}, "s1: declared non-maximal"),
        (None, {"ambient": {"maximal": "yes"}}, "ambient: declared maximal with deficiency 12"),
    ],
    ids=["moduli-n5-ambient-no", "moduli-n4-ambient-no", "moduli-n5-s1-no", "fm-n2-ambient-yes"],
)
def test_seed_flags_maximal_against_deficiency(tmp_path, capsys, argv, flags, message):
    """A declared maximal flag must agree with the stratum's deficiency:
    maximal=no with deficiency 0, or maximal=yes with a positive one (the
    square of a surface of deficiency 2), is an input error, by the rule
    a space file's flags follow."""
    if argv is None:
        surface = {"name": "E", "dim_c": 2, "betti_c": [1, 0, 2, 0, 1], "betti_r": [1, 0, 1]}
        argv = ["config", "--model", "fm", "--n", "2", "--space", _space_file(tmp_path, surface)]
    code, err = _main(tmp_path, capsys, argv + ["--seed-flags", None], flags)
    assert code == 2 and err.startswith(f"input error: seed-flags {message}"), err


@pytest.mark.parametrize(
    "building, message",
    [
        (7, "building set must be a JSON list, got 7"),
        ([[[1, 2, 3]], 5], "building set[1] must be a JSON list, got 5"),
        ([[[1, 2, "a"]]], "building set[0][0][2] must be a JSON integer, got 'a'"),
        ([[[1, 2.0]]], "building set[0][0][1] must be a JSON integer, got 2.0"),
        ([[[1, True]]], "building set[0][0][1] must be a JSON integer, got True"),
    ],
    ids=["not-list", "entry-int", "point-string", "point-float", "point-bool"],
)
def test_kt_building_refused(tmp_path, capsys, building, message):
    argv = ["config", "--model", "kt", "--n", "3", "--space", _space_file(tmp_path)]
    code, err = _main(tmp_path, capsys, argv + ["--building", None], building)
    assert (code, err) == (2, f"input error: {message}\n")


# ----------------------------------------------------------------------
# dcp generator names are stratum ids


def _dcp(*named):
    return {"ambient_dim": 3, "generators": [{"name": n, "rnc_span": p} for n, p in named]}


_A, _B = ("a", ["3"]), ("b", ["3", "4"])


@pytest.mark.parametrize(
    "arrangement, index, name",
    [
        (_dcp(_A, _B, ("b^a", ["5", "6"])), 2, "b^a"),
        (_dcp(("ambient", ["3"]), _B), 0, "ambient"),
        (_dcp(_A, ("a", ["3", "4"])), 1, "a"),
        (_dcp(("", ["3"]), _B), 0, ""),
    ],
    ids=["piece-id", "ambient", "repeated", "empty"],
)
def test_dcp_name_that_is_no_free_stratum_id_exits_2(
    tmp_path, capsys, arrangement, index, name
):
    """A name that is a later piece's id (b^a: at 3 it was `center b is
    not minimal`), the ambient's (exit 2 as a meet in b, not ambient),
    another generator's, or empty is refused, naming the generator."""
    code, err = _main(tmp_path, capsys, ["dcp", None], arrangement)
    assert code == 2
    assert err.startswith(f"input error: generator {index}: name {name!r} must be non-empty")


@pytest.mark.parametrize(
    "arrangement",
    [_dcp(_A, _B, ("z", ["5", "6"])), _dcp(_A, _B)],
    ids=["z-for-b^a", "a-for-ambient"],
)
def test_dcp_same_input_under_free_names_exits_0(tmp_path, capsys, arrangement):
    assert _main(tmp_path, capsys, ["dcp", None], arrangement) == (0, "")


@pytest.mark.parametrize(
    "generator, message",
    [
        ({"name": 5, "rnc_span": ["3"]}, "generator 0: name must be a JSON string, got 5"),
        (
            {"name": None, "rnc_span": ["3"]},
            "generator 0: name must be a JSON string, got None",
        ),
        ({"name": "a"}, "generator a: give exactly one of 'basis' and 'rnc_span'"),
        (
            {"name": "a", "rnc_span": ["3"], "basis": [["1", "0", "0", "0"]]},
            "generator a: give exactly one of 'basis' and 'rnc_span'",
        ),
        (
            {"name": "a", "rnc_spam": ["3"]},
            "generator a: unknown key 'rnc_spam' (value ['3']); "
            "the keys are name, basis, rnc_span",
        ),
    ],
    ids=["name-int", "name-null", "neither", "both", "misspelt"],
)
def test_dcp_generator_fields(tmp_path, capsys, generator, message):
    data = {"ambient_dim": 3, "generators": [generator]}
    assert _main(tmp_path, capsys, ["dcp", None], data) == (2, f"input error: {message}\n")


# ----------------------------------------------------------------------
# seeded fuzz of the inputs besides dcp (test_cli_dcp_fuzz covers dcp)


def _fuzz(tmp_path, capsys, seed, argv, bases, named):
    """200 seeded mutations of the bases, after the named (input, text)
    cases: every exit code is 0, 2 or 3 with no traceback, each named
    case exits 2 with an input error containing its text, and the
    mutations both pass and fail."""
    rng = random.Random(seed)
    cases = list(named)
    for _ in range(200):
        data = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            data = fuzz_mutate(rng, data)
        cases.append((data, None))
    codes = {}
    for data, text in cases:
        code, err = _main(tmp_path, capsys, argv, data)
        assert code in (0, 2, 3), (data, code, err)
        assert "Traceback" not in err, data
        if text is not None:
            assert code == 2 and err.startswith("input error:") and text in err, (data, err)
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0) and codes.get(2), codes


def test_config_space_fuzz(tmp_path, capsys):
    bases = [
        {**_P1, "real_nonempty": True, "flags": {"effective": "yes", "maximal": "yes"}},
        {**_P2, "flags": {"effective": "yes", "maximal": "yes", "galois_maximal": "yes"}},
        {**_P1, "name": "conic", "betti_r": [], "real_nonempty": False},
        {"name": "E", "dim_c": 2, "betti_c": [1, 0, 2, 0, 1], "betti_r": [1, 0, 1],
         "flags": {"effective": "yes", "maximal": "no", "galois_maximal": "yes"}},
    ]
    named = [
        ({"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1], "beti_r": [1, 1]}, "'beti_r'"),
        ({**_P2, "betti_c": [1, 0, 1.9]}, "betti_c[2]"),
        ({**_P1, "real_nonempty": "no"}, "real_nonempty"),
        ({"name": "P1", "dim_c": 1, "betti_c": [1, 0, 1]}, "empty real Betti vector"),
    ]
    _fuzz(tmp_path, capsys, 20261020, _FM3, bases, named)


def test_kt_building_fuzz(tmp_path, capsys):
    argv = ["config", "--model", "kt", "--n", "4", "--space", _space_file(tmp_path, _P1)]
    bases = [[[[1, 2]], [[1, 2, 3]]], [[[1, 2, 3, 4]]], [[[1, 2]], [[3, 4]], [[1, 2, 3, 4]]]]
    named = [
        (7, "building set"),
        ([[[1, 2, 3]], 5], "building set[1]"),
        ([[[1, 2, "a"]]], "[0][0][2]"),
    ]
    _fuzz(tmp_path, capsys, 20261021, argv + ["--building", None], bases, named)


def test_hilb2_file_fuzz(tmp_path, capsys):
    bases = [
        {"smith": _SMITH, "attest": _ATTEST},
        {
            "smith": {"n": 1, "beta_total": 2, "beta_fixed": 2, "delta": [0, 0]},
            "attest": _ATTEST,
        },
        {"smith": {**_SMITH, "beta_odd": 0}, "attest": {"tors2_free": True}},
    ]
    named = [
        ({"smith": _SMITH, "attest": {"tors2_free": "no", "effective_gm": "no"}}, "'attest'"),
        (_SMITH, "unknown key 'n'"),
    ]
    _fuzz(tmp_path, capsys, 20261022, ["hilb2", "--file", None], bases, named)


def test_seed_flags_fuzz(tmp_path, capsys):
    bases = [
        {"ambient": {"effective": "yes", "maximal": "yes", "galois_maximal": "yes"}},
        {"ambient": {"maximal": "unknown"}, "s1": {"effective": "yes"}},
        {"s2": {"effective": "yes", "galois_maximal": "yes"}, "s3": {}},
    ]
    named = [({"ambient": 5}, "ambient"), ({"ambient": {"efective": "yes"}}, "'efective'")]
    argv = ["moduli", "--n", "5", "--seed-flags", None]
    _fuzz(tmp_path, capsys, 20261023, argv, bases, named)


# ----------------------------------------------------------------------
# the README examples


def _readme_examples():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Input schemas (JSON)", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def test_readme_input_examples_run(tmp_path, capsys):
    """Every JSON example of README's "Input schemas" section runs
    through the command it documents and exits 0."""
    examples = _readme_examples()
    kinds = {
        "dcp": [e for e in examples if isinstance(e, dict) and "generators" in e],
        "space": [e for e in examples if isinstance(e, dict) and "dim_c" in e],
        "building": [e for e in examples if isinstance(e, list)],
        "smith": [e for e in examples if isinstance(e, dict) and "smith" in e],
    }
    seeds = [e for e in examples if isinstance(e, dict) and "ambient" in e]
    assert [len(v) for v in kinds.values()] + [len(seeds)] == [1] * 5
    space = _space_file(tmp_path, kinds["space"][0])
    config = ["config", "--n", "3", "--space", space]
    runs = [
        (["dcp", None], kinds["dcp"][0]),
        (["config", "--model", "fm", "--n", "3", "--space", None], kinds["space"][0]),
        (config + ["--model", "kt", "--building", None], kinds["building"][0]),
        (config + ["--model", "fm", "--seed-flags", None], seeds[0]),
        (["hilb2", "--file", None], kinds["smith"][0]),
    ]
    for argv, example in runs:
        assert _main(tmp_path, capsys, argv, example) == (0, ""), (argv, example)
