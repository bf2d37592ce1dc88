"""A fuzz of the command line: random argv and input files through cli.main, in process.

Whatever the input, main returns 0, 1 or 2 (argparse's refusals exit 2 through SystemExit), raises
nothing else, and every failure says why on stderr, except validate's exit 1, whose verdict
"valid": false is the output.  Chains stay at k <= 8, so each example is quick.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from twistoric.cli import main

from oracles import grow_by_mediants

COMMANDS = ("validate", "enumerate", "analyze", "model", "classify")

chains = st.lists(st.integers(0, 50), max_size=6).map(lambda picks: [list(v) for v in grow_by_mediants(picks)])
entries = st.one_of(st.integers(-3, 5), st.floats(allow_nan=False, allow_infinity=False, width=16), st.booleans(), st.text(max_size=2), st.none())
# a chain as it is, or with n stated wrongly, or vectors that are not integer pairs, or no chain at all
documents = st.one_of(
    chains.map(lambda vs: {"n": len(vs) - 2, "vectors": vs}),
    chains.map(lambda vs: {"vectors": vs}),
    st.tuples(chains, st.one_of(st.integers(-2, 9), st.text(max_size=2), st.floats(-1, 9))).map(lambda c: {"n": c[1], "vectors": c[0]}),
    st.lists(st.lists(entries, max_size=3), max_size=8).map(lambda vs: {"vectors": vs}),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(list), min_size=1, max_size=8).map(lambda vs: {"vectors": vs}),
    st.one_of(st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=3), st.just({"n": 1})),
)
# a good chain half the time, so that the index, roots and constants flags are reached
contents = st.one_of(
    chains.map(lambda vs: json.dumps({"vectors": vs})),
    documents.map(json.dumps),
    st.sampled_from(["", "{", "[1, 2", '{"vectors": [[0, 1], [1, 0]]', "\ufeff{}"]),
)
rationals = st.one_of(st.integers(-9, 9).map(str), st.fractions(-9, 9, max_denominator=5).map(str), st.sampled_from(["0", "1e5000", "x", "1/0", "", " 2", "1.5", "-0"]))
# good tails 1, 2, ..., and lists with zeros, repeats, mixed signs and unparsable or oversized entries
flag_lists = st.one_of(
    st.integers(0, 8).map(lambda n: ",".join(str(t) for t in range(1, n + 1))),
    st.lists(rationals, max_size=8).map(",".join),
)
# an ordered pair of small labels, or two indices each out of range, equal, out of order or no int
index = st.one_of(st.integers(-2, 10).map(str), st.sampled_from(["x", "1.5", ""]))
index_pairs = st.one_of(st.tuples(st.integers(1, 2), st.integers(1, 3)).map(lambda t: (str(t[0]), str(t[0] + t[1]))), st.tuples(index, index))


@st.composite
def argvs(draw) -> tuple[str, list[str], str]:
    """A command, its argv with {input} and {out} where the paths go, and the input file's content."""
    command = draw(st.sampled_from(COMMANDS))
    if command == "enumerate":
        argv = ["enumerate", "--n", draw(st.one_of(st.integers(-2, 9).map(str), st.sampled_from(["x", "2.0", ""])))]
        if draw(st.booleans()):
            argv.append("--count-only")
        if draw(st.booleans()):
            argv += ["--cap", draw(st.sampled_from(["-1", "3", "5", "y"]))]
    else:
        argv = [command, "--input", "{input}"]
        if command in ("model", "classify"):
            i, j = draw(index_pairs)
            argv += ["--i", i, "--j", j]
        if command != "validate":
            for flag in ("--roots", "--constants"):
                if draw(st.integers(0, 3)) == 0:
                    argv += [flag, draw(flag_lists)]
        if command == "model" and draw(st.booleans()):
            argv.append("--full")
    if draw(st.integers(0, 9)) == 0:
        argv += ["--output", "{out}"]
    return command, argv, draw(contents)


@settings(max_examples=300, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_command_line_exits_0_1_or_2_and_says_why(case):
    command, argv, content = case
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.json"
        path.write_text(content, encoding="utf-8")
        # --output into a directory that does not exist, so that writing it fails
        argv = [arg.format(input=path, out=Path(work) / "missing" / "out.json") for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
    event(f"{command} exits {code}")
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err.getvalue() == "" and (out.getvalue() or "--output" in argv)
    elif command == "validate" and code == 1 and out.getvalue():
        assert json.loads(out.getvalue())["valid"] is False
    else:
        assert err.getvalue().strip(), (argv, code)
