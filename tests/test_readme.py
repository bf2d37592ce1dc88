"""The README's examples: every `twistoric` command line and every python block runs and exits 0.

The command lines run through cli.main in a temporary directory that holds the input files the README names, with
the content it gives them, so an example and the file it reads cannot drift apart.  The facts the README states about
the command line (a count, roots and a chain past the bit budget) are read from its text and checked as stated.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from twistoric import build_surface, enumerate_sequences, solve_divisor_data, validate
from twistoric.cli import main

from oracles import grow_by_mediants

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.S | re.M)
COMMANDS = [line for lang, body in BLOCKS if not lang for line in body.splitlines() if line.startswith("twistoric ")]
FILES = dict(re.findall(r"`([\w.]+\.json)`,\s+which holds `(\{[^`]*\})`", README))


def test_the_readme_names_its_examples_and_their_files():
    assert len(COMMANDS) == 8 and set(FILES) == {"chain.json", "chain4.json"}
    assert all(json.loads(text)["vectors"] for text in FILES.values())


@pytest.mark.parametrize("line", COMMANDS)
def test_each_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("source", [pytest.param(body, id=f"block{n}") for n, body in enumerate([body for lang, body in BLOCKS if lang == "python"], start=1)])
def test_each_readme_python_block_runs(source, capsys):
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out


# the facts the README states about the command line, read from its text so that a changed figure is checked as stated
COUNT = re.search(r"`--n (\d+) --cap (\d+) --count-only`\s+gives (\d+)", README)
ROOTS = re.search(r"`--roots\s+([^`\s]+)` on a chain of (\w+) vectors", README)
ZIGZAG = re.search(r"the\s+k = (\d+) zig-zag chain \(deg P ([\d,]+)\)", README)


def run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_the_stated_count_is_written(capsys):
    assert COUNT, "the README no longer states the --count-only figure"
    n, cap, count = COUNT.groups()
    code, out, _ = run(["enumerate", "--n", n, "--cap", cap, "--count-only"], capsys)
    assert code == 0 and json.loads(out) == {"n": int(n), "count": int(count)}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
def test_the_stated_roots_are_refused_on_every_chain_of_that_size(tmp_path, capsys):
    assert ROOTS, "the README no longer states the roots past the bit budget"
    roots, size = ROOTS.groups()
    k = ("two", "three", "four", "five", "six").index(size) + 2
    for seq in enumerate_sequences(k - 2):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"vectors": [list(v) for v in seq.vectors]}), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(["analyze", "--input", str(path), "--roots", roots], capsys)
        assert code == 2 and out == "" and "over the budget" in err and time.perf_counter() - start < 1.0


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
def test_the_stated_zigzag_chain_has_that_degree_and_is_refused(tmp_path, capsys):
    """The zig-zag chain inserts each mediant next to the one before; its largest deg P is the README's figure."""
    assert ZIGZAG, "the README no longer states the zig-zag chain past the bit budget"
    k, deg = int(ZIGZAG[1]), int(ZIGZAG[2].replace(",", ""))
    vs = grow_by_mediants(([0] + [t for t in range(1, k) for _ in (0, 1)])[: k - 2])
    s = build_surface(validate(vs))
    assert max([sum(solve_divisor_data(s, a).l_total[1:]) for a in range(1, k + 1)]) == deg
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"vectors": [list(v) for v in vs]}), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(["analyze", "--input", str(path)], capsys)
    assert code == 2 and out == "" and "over the budget" in err and time.perf_counter() - start < 1.0
