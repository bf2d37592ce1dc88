"""The README's examples: every `twistoric` command line and every python block runs and exits 0.

The command lines run through cli.main in a temporary directory that holds the input files the README names, with
the content it gives them, so an example and the file it reads cannot drift apart.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from twistoric.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.S | re.M)
COMMANDS = [line for lang, body in BLOCKS if not lang for line in body.splitlines() if line.startswith("twistoric ")]
FILES = dict(re.findall(r"`([\w.]+\.json)`,\s+which holds `(\{[^`]*\})`", README))


def test_the_readme_names_its_examples_and_their_files():
    assert len(COMMANDS) == 7 and set(FILES) == {"chain.json", "chain4.json"}
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
