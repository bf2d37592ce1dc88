"""End-to-end command line checks, driven through main(argv)."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twistoric
from twistoric import enumerate_sequences, models, run_model
from twistoric.cli import InputDataError, build_parser, main

from oracles import grow_by_mediants

HEXAGON = {"n": 1, "vectors": [[0, 1], [1, 1], [1, 0]]}


def write_input(tmp_path, payload, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_good_input(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    code, out, _ = run(capsys, ["validate", "--input", path])
    assert code == 0
    assert json.loads(out) == {"valid": True, "n": 1, "vectors": [[0, 1], [1, 1], [1, 0]]}
    assert out.endswith("\n")


def test_validate_reports_every_violation(tmp_path, capsys):
    path = write_input(tmp_path, {"vectors": [[0, 1], [1, 2], [2, 1], [1, 0]]})
    code, out, _ = run(capsys, ["validate", "--input", path])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert [(v["code"], v["index"]) for v in payload["violations"]] == [
        ("DeterminantViolation", 2)
    ]
    # stdout is byte-deterministic: each violation's keys come in the Violation field order
    assert [list(v) for v in payload["violations"]] == [["code", "index", "message"]]


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert code == 1 and out == "" and "error:" in err


def test_missing_vectors_key(tmp_path, capsys):
    path = write_input(tmp_path, {"rays": []})
    code, _, err = run(capsys, ["validate", "--input", str(path)])
    assert code == 1 and "vectors" in err


def test_stated_n_must_match(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 3, "vectors": [[0, 1], [1, 1], [1, 0]]})
    code, _, _ = run(capsys, ["validate", "--input", path])
    assert code == 1


@pytest.mark.parametrize(
    "vectors",
    [
        [[0, 1], [1.7, 1], [1, 0]],
        [[0, 1], [True, 1], [1, 0]],
        [[0, 1], ["1", 1], [1, 0]],
        ["a", 1],
    ],
    ids=["float-entry", "bool-entry", "string-entry", "string-vector"],
)
def test_non_integer_entries_are_invalid(tmp_path, capsys, vectors):
    # no coercion: 1.7, true and "1" are not the integer 1
    path = write_input(tmp_path, {"vectors": vectors})
    code, out, err = run(capsys, ["validate", "--input", path])
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "valid": False,
        "violations": [
            {"code": "NonPrimitiveVector", "index": None, "message": "entries must be integer pairs"}
        ],
    }


def test_vectors_not_a_list_is_an_input_error(tmp_path, capsys):
    path = write_input(tmp_path, {"vectors": 5})
    code, out, err = run(capsys, ["validate", "--input", path])
    assert code == 1 and out == ""
    assert "'vectors' must be a list" in err


def test_non_integer_n_is_an_input_error(tmp_path, capsys):
    path = write_input(tmp_path, {"n": "1", "vectors": [[0, 1], [1, 1], [1, 0]]})
    code, out, err = run(capsys, ["validate", "--input", path])
    assert code == 1 and out == ""
    assert "'n' must be an integer" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["validate", "--input", "/nonexistent/input.json"])
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["utf16-bom", "deep-nesting"])
def test_undecodable_input_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["analyze", "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "2", "--count-only"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "count": 2}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
def test_a_count_past_the_bit_budget_is_refused_before_it_is_computed(capsys, monkeypatch):
    """The Catalan number is below 4^n, so a count of 2n bits past the writer's budget exits 2 at once, naming --n and
    --cap, where the writer would fail on the digit limit after computing it; at the budget it is written."""
    budget = int(sys.get_int_max_str_digits() * math.log2(10))
    monkeypatch.setattr("twistoric.report.comb", lambda *args: pytest.fail("the count was computed"))
    start = time.perf_counter()
    code, out, err = run(capsys, ["enumerate", "--n", "8000", "--cap", "8000", "--count-only"])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith(f"error: --n 8000: the count may need 16000 bits, over the budget of {budget} bits") and "--cap" in err
    monkeypatch.undo()
    n = budget // 2
    assert run(capsys, ["enumerate", "--n", str(n), "--cap", str(n), "--count-only"])[0] == 0
    code, out, _ = run(capsys, ["enumerate", "--n", "20", "--cap", "20", "--count-only"])
    assert code == 0 and json.loads(out) == {"n": 20, "count": 6564120420}


def test_enumerate_cap_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["enumerate", "--n", "9"])
    assert code == 2 and "error:" in err
    for argv in (["--n", "0", "--cap", "-5"], ["--n", "0", "--cap", "-5", "--count-only"]):
        assert run(capsys, ["enumerate", *argv]) == (2, "", "error: cap must be >= 0\n")


def test_model_record_exact(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    code, out, _ = run(capsys, ["model", "--input", path, "--i", "1", "--j", "2", "--roots", "1"])
    assert code == 0
    assert json.loads(out) == {
        "i": 1,
        "j": 2,
        "mu": 0,
        "bundle": [1, 1, 1, 1],
        "c": ["1", "1"],
        "P": [["-1", "1"], ["0", "1"]],
        "fibers": [
            {"at": "inf", "kind": "FourPlanes", "nonReduced": False, "generic": False},
            {"at": "0", "kind": "TwoQuadricCones", "nonReduced": False, "generic": False},
            {"at": "1", "kind": "TwoQuadricCones", "nonReduced": False, "generic": False},
            {"at": "2", "kind": "GenericFourNodal", "nonReduced": False, "generic": True},
        ],
    }


def test_model_bad_pair_is_usage_error(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    assert run(capsys, ["model", "--input", path, "--i", "2", "--j", "2"])[0] == 2
    assert run(capsys, ["model", "--input", path, "--i", "1", "--j", "7"])[0] == 2


def test_duplicate_roots_rejected(tmp_path, capsys):
    path = write_input(tmp_path, {"vectors": [[0, 1], [1, 1], [2, 1], [1, 0]]})
    code, _, err = run(
        capsys, ["model", "--input", path, "--i", "1", "--j", "2", "--roots", "1,1"]
    )
    assert code == 2 and "error:" in err


def test_zero_constant_rejected(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    for command in ("model", "classify"):  # classify expands nothing, but checks the constants all the same
        code, _, _ = run(
            capsys,
            [command, "--input", path, "--i", "1", "--j", "2", "--constants", "0,1"],
        )
        assert code == 2


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["model", "--i", "1", "--j", "2"], ["model", "--i", "1", "--j", "2", "--full"], ["classify", "--i", "1", "--j", "2"]],
    ids=["analyze", "model", "model-full", "classify"],
)
def test_empty_constants_is_a_usage_error(tmp_path, capsys, command):
    # only an absent --constants means the default; an empty list is too short
    path = write_input(tmp_path, HEXAGON)
    code, out, err = run(capsys, command + ["--input", path, "--constants", ""])
    assert code == 2 and out == ""
    assert "expected 2 scale constants, got 0" in err


def test_unparsable_roots_rejected(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    code, _, _ = run(capsys, ["model", "--input", path, "--i", "1", "--j", "2", "--roots", "x"])
    assert code == 2
    # values with more digits than Python prints are refused when parsed, naming the flag; an exponent past the digit
    # limit (Python's default where there is none) is refused before 10 to its power is computed
    for argv, flag in [
        (["analyze", "--input", path, "--roots", "1e5000"], "--roots"),
        (["model", "--input", path, "--i", "1", "--j", "2", "--constants", "1e5000,1"], "--constants"),
        (["analyze", "--input", path, "--roots", "1e30000000"], "--roots"),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert flag in err
        assert time.perf_counter() - start < 1.0


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
@pytest.mark.parametrize(
    "vectors, flags",
    [
        # k = 20 zig-zag chain: each mediant next to the one before, m up to 4181 and deg P up to 8361
        (grow_by_mediants([0] + [t for t in range(1, 10) for _ in (0, 1)][:17]), []),
        ([[0, 1], [1, 1], [2, 1], [3, 1], [1, 0]], ["--roots", "1e2500,2e2500,3e2500"]),
    ],
)
def test_models_over_the_bit_budget_are_refused_before_expanding(tmp_path, capsys, monkeypatch, vectors, flags):
    """A model whose coefficients may have more digits than Python prints is a usage error before any expansion,
    and the message names the degree, the bit estimate and the budget."""
    expanded = []
    monkeypatch.setattr(models, "from_factors", lambda factors: expanded.append(factors))
    path = write_input(tmp_path, {"vectors": [list(v) for v in vectors]})
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", "--input", path] + flags)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and expanded == []
    budget = int(sys.get_int_max_str_digits() * math.log2(10))
    assert re.search(rf"degree \d+ may need \d+ bits per coefficient, over the budget of {budget} bits", err), err


def test_no_digit_limit_means_no_bit_budget(tmp_path, capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit to lift")
    path = write_input(tmp_path, {"vectors": [[0, 1], [1, 1], [2, 1], [3, 1], [1, 0]]})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, ["analyze", "--input", path, "--roots", "1e2500,2e2500,3e2500"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert max(len(c) for model in json.loads(out)["models"] for row in model["P"] for c in row) > limit


def test_classify_shape(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    code, out, _ = run(capsys, ["classify", "--input", path, "--i", "1", "--j", "2"])
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["fibers", "i", "j"]
    assert len(payload["fibers"]) == 4


def test_classify_matches_model_record(tmp_path, capsys):
    """classify reads the classes from the divisor data alone; they are the i, j and fibers of run_model's record."""
    for n in range(5):
        for seq in enumerate_sequences(n):
            path = write_input(tmp_path, {"vectors": [list(v) for v in seq.vectors]})
            roots = [Fraction(2 * t + 1, 3) for t in range(1, seq.k - 1)]
            rational = ["--roots", ",".join(map(str, roots)), "--constants", "3/2,-5"]
            for flags, kwargs in [([], {}), (rational, {"roots_tail": roots, "constants": [Fraction(3, 2), -5]})]:
                for i in range(1, seq.k + 1):
                    for j in range(i + 1, seq.k + 1):
                        code, out, err = run(capsys, ["classify", "--input", path, "--i", str(i), "--j", str(j)] + flags)
                        record = run_model(seq.vectors, i, j, **kwargs)
                        assert (code, err) == (0, "")
                        assert out == json.dumps({key: record[key] for key in ("i", "j", "fibers")}, indent=2) + "\n"


def test_analyze_stdout_is_deterministic(tmp_path, capsys):
    path = write_input(tmp_path, {"vectors": [[0, 1], [1, 2], [1, 1], [1, 0]]})
    _, first, _ = run(capsys, ["analyze", "--input", path])
    _, second, _ = run(capsys, ["analyze", "--input", path])
    assert first == second and first


def test_output_file_matches_stdout_bytes(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(capsys, ["analyze", "--input", path, "--output", str(out_a)])[0] == 0
    assert run(capsys, ["analyze", "--input", path, "--output", str(out_b)])[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    _, stdout, _ = run(capsys, ["analyze", "--input", path])
    assert out_a.read_text(encoding="utf-8") == stdout


def test_output_file_suppresses_stdout(tmp_path, capsys):
    path = write_input(tmp_path, HEXAGON)
    out_file = tmp_path / "verdict.json"
    code, out, _ = run(capsys, ["validate", "--input", path, "--output", str(out_file)])
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text(encoding="utf-8"))["valid"] is True


@pytest.mark.parametrize("target", ["missing-dir/report.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_1(tmp_path, capsys, target):
    path = write_input(tmp_path, HEXAGON)
    code, out, err = run(capsys, ["analyze", "--input", path, "--output", str(tmp_path / target)])
    assert code == 1 and out == ""
    assert err.startswith("error: ")


ERRORS = [
    (twistoric.TwistoricError("base"), 1),
    (twistoric.SequenceValidationError([]), 1),
    (twistoric.NotNormalizable("no unimodular change"), 1),
    (twistoric.NonSmoothFan("rays 0 and 1"), 1),
    (twistoric.IndexMismatch("divisor length"), 1),
    (twistoric.InconsistentSystem("component equations"), 1),
    (twistoric.NegativeMultiplicity("m = 0"), 1),
    (twistoric.BadIndices("index 0"), 2),
    (twistoric.CapExceeded("n = 9"), 2),
    (twistoric.DegenerateConstants("c = 0"), 2),
    (twistoric.RootCollision("r = 1"), 2),
    (twistoric.RootOrderViolation("not monotone"), 2),
    (InputDataError("input.json: expected an object"), 1),
    (ValueError("--roots: cannot parse"), 2),
    (json.JSONDecodeError("Expecting value", "{", 1), 2),
    (OSError("disk"), 1),
    (FileNotFoundError("missing.json"), 1),
    (IsADirectoryError("."), 1),
    (PermissionError("read-only"), 1),
]


@pytest.mark.parametrize("error, code", ERRORS, ids=[type(error).__name__ for error, _ in ERRORS])
def test_exit_code_of_each_error(monkeypatch, capsys, error, code):
    """Every error main catches, whether or not a command line reaches it today: usage errors exit 2, the rest 1."""

    def fail(args):
        raise error

    monkeypatch.setattr(twistoric.cli, "_dispatch", fail)
    assert run(capsys, ["enumerate", "--n", "1"]) == (code, "", f"error: {error}\n")


def test_other_errors_are_not_caught(monkeypatch):
    def fail(args):
        raise TypeError("a bug, not an input")

    monkeypatch.setattr(twistoric.cli, "_dispatch", fail)
    with pytest.raises(TypeError):
        main(["enumerate", "--n", "1"])


HELP = {("-h", "--help"): (False, None, argparse.SUPPRESS)}
OUTPUT = {("--output",): (False, None, None)}
INPUT = {("--input",): (True, None, None)}
PENCIL = {("--roots",): (False, None, None), ("--constants",): (False, None, None)}
PAIR = {("--i",): (True, int, None), ("--j",): (True, int, None)}
# each command's options as (required, type, default), keyed by their option strings
PARSER_TABLE = {
    "validate": {**HELP, **OUTPUT, **INPUT},
    "enumerate": {**HELP, **OUTPUT, ("--n",): (True, int, None), ("--count-only",): (False, None, False), ("--cap",): (False, int, 8)},
    "analyze": {**HELP, **OUTPUT, **INPUT, **PENCIL},
    "model": {**HELP, **OUTPUT, **INPUT, **PENCIL, **PAIR, ("--full",): (False, None, False)},
    "classify": {**HELP, **OUTPUT, **INPUT, **PENCIL, **PAIR},
}


def test_each_command_takes_the_options_of_its_table():
    (commands,) = [action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    got = {name: {tuple(a.option_strings): (a.required, a.type, a.default) for a in p._actions} for name, p in commands.items()}
    assert got == PARSER_TABLE


@pytest.mark.parametrize("command", list(PARSER_TABLE))
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: twistoric {command}")


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--n", "2", "--frobnicate"])
    assert excinfo.value.code == 2


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    """The modules `import twistoric.cli` adds to a fresh `python -S` beyond the stdlib ones the
    command line needs anyway; the baseline is taken in that interpreter, so it holds on every version."""
    code = (
        "import sys, argparse, json, fractions, collections.abc\n"
        "before = set(sys.modules)\n"
        "import twistoric.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(twistoric.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    added = json.loads(proc.stdout)
    assert "twistoric.cli" in added
    assert not {"dataclasses", "inspect", "typing"} & set(added), added
