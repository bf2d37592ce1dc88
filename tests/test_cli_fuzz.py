"""A fuzz of the command line: random argv and input files through cli.main, in process.

Whatever the input, main returns 0, 1 or 2 (argparse's refusals exit 2 through SystemExit) within
CALL_S seconds, raises nothing else, and every failure says why on stderr, except validate's exit 1,
whose verdict "valid": false is the output.  Random chains stay at k <= 8; now and then a deep
zig-zag chain comes instead, on which every command exits 0 or 2 unless its --output fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from twistoric.cli import main

from oracles import grow_by_mediants

COMMANDS = ("validate", "enumerate", "analyze", "model", "classify")
CALL_S = 2.0
# zig-zag chains, each mediant inserted next to the one before: m up to 233, 610, 2584, 4181 and 10,946.
# k = 14 and 16 are analyzed within a second, 19 and up refused by the bit budget in milliseconds; k = 17
# and 18 pass the budget and take seconds, the case the work budget of ROADMAP item 2 is for
ZIGZAG = {
    k: json.dumps({"vectors": [list(v) for v in grow_by_mediants(([0] + [t for t in range(1, 12) for _ in (0, 1)])[:k - 2])]})
    for k in (14, 16, 19, 20, 22)
}

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
rationals = st.one_of(st.integers(-9, 9).map(str), st.fractions(-9, 9, max_denominator=5).map(str), st.sampled_from(["0", "1e5000", "1e30000000", "x", "1/0", "", " 2", "1.5", "-0"]))
# good tails 1, 2, ..., lists with zeros, repeats, mixed signs and unparsable or oversized entries, and
# roots that put every model of a k = 5 chain over the bit budget
flag_lists = st.one_of(
    st.integers(0, 8).map(lambda n: ",".join(str(t) for t in range(1, n + 1))),
    st.lists(rationals, max_size=8).map(",".join),
    st.just("1e2500,2e2500,3e2500"),
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
    if command != "enumerate" and draw(st.integers(0, 19)) == 0:
        # a model within the bit budget of a k >= 19 chain takes seconds, the same open work budget as k = 18
        return command, argv, ZIGZAG[draw(st.sampled_from((14, 16) if command == "model" else sorted(ZIGZAG)))]
    return command, argv, draw(contents)


@settings(max_examples=300, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
# an exponent that Fraction would raise 10 to, for tens of seconds, before the flag is refused
@example(("analyze", ["analyze", "--input", "{input}", "--roots", "1e30000000"], json.dumps({"vectors": [[0, 1], [1, 1], [1, 0]]})))
def test_every_command_line_exits_0_1_or_2_and_says_why(case):
    command, argv, content = case
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.json"
        path.write_text(content, encoding="utf-8")
        # --output into a directory that does not exist, so that writing it fails
        argv = [arg.format(input=path, out=Path(work) / "missing" / "out.json") for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
        elapsed = time.perf_counter() - start
    deep = content in ZIGZAG.values()
    event(f"{command} exits {code}" + " on a deep chain" * deep)
    assert code in ((0, 2) if deep and "--output" not in argv else (0, 1, 2)), (argv, code)
    assert elapsed < CALL_S, (argv, elapsed)
    if code == 0:
        assert err.getvalue() == "" and (out.getvalue() or "--output" in argv)
    elif command == "validate" and code == 1 and out.getvalue():
        assert json.loads(out.getvalue())["valid"] is False
    else:
        assert err.getvalue().strip(), (argv, code)
