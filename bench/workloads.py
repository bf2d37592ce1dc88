"""Seeded inputs and operations of the four workloads.

Each workload's ``setup(seed, work, src)`` imports what it calls, makes its
inputs from the seed, runs one small warm-up operation, and returns the list
of operations that make up one pass (and, for cli-cold, the process runner).  Operations reach package functions
through module attributes at call time, so the spans of a traced pass see
every call.

Why these workloads:

* sweep-n6: ``analyze`` on every n = 6 chain, the paper's typical use: many
  small models (deg P <= 26).  Model emission and classification dominate.
* enumerate-n8: ``enumerate`` for n = 8.  It covers lattice, surface,
  fibers and divisors and never calls models, so it is the control that a
  change to models must leave unchanged.
* deep-models: full model chains for adjacent pairs of deep chains.  Large
  degree and big integers show asymptotic gains that sweep-n6 hides, and
  consecutive operations share one chain, so cross-call reuse shows here.
* cli-cold: one ``python -m twistoric.cli`` process per operation, which
  adds interpreter start-up, imports, argument parsing and exit codes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

# deep-models measures one fixed set of deep chains: two for each n in
# DEEP_NS, grown by random mediant insertion from DEEP_CHAIN_SEED and kept
# when their largest pencil multiplicity lies in DEEP_M_BAND.  Chains drawn
# from the run's seed made the timings follow the seed: sets matched to
# within 3% on deg(P_1)^2 + deg(P_2)^2 per operation still differed by a
# third in time, because coefficient sizes depend on which labels carry the
# large multiplicities.  The run's seed orders the chains and picks the
# check points.
DEEP_NS = (9, 10, 11, 12)
DEEP_PER_N = 2
DEEP_M_BAND = (34, 89)
DEEP_CHAIN_SEED = 2008


@dataclass
class Op:
    """One operation of a pass.

    run returns the output that is compared byte for byte across passes;
    check raises checks.CheckFailed when that output is wrong.  pairs and
    fibers count the distinct (chain, i < j) pairs and (chain, alpha)
    fibers the operation needs, the bases of the trace's call ratios.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    pairs: int = 0
    fibers: int = 0
    known_defect: bool = False


def points(rng: random.Random) -> list[int]:
    return [rng.randrange(2, checks.PRIME) for _ in range(2)]


def grow(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A chain for n by n mediant insertions at uniformly chosen gaps."""
    ch = [(0, 1), (1, 0)]
    for _ in range(n):
        i = rng.randrange(len(ch) - 1)
        ch.insert(i + 1, (ch[i][0] + ch[i + 1][0], ch[i][1] + ch[i + 1][1]))
    return ch


def _vectors(ch) -> list[list[int]]:
    return [list(v) for v in ch]


def _loads_and(check: Callable[[dict], None], text: str) -> None:
    check(json.loads(text))


# ---------------------------------------------------------------- sweep-n6


def _analyze(report, vectors) -> str:
    return json.dumps(report.run_analyze(vectors))


def setup_sweep(seed: int, work: Path, src: Path) -> tuple[list[Op], None]:
    import twistoric.report as report

    rng = random.Random(seed)
    chains = checks.chains(6)
    rng.shuffle(chains)
    pts = points(rng)
    ops = []
    for ch in chains:
        k = len(ch)
        ops.append(
            Op(
                label=f"analyze {ch}",
                run=partial(_analyze, report, _vectors(ch)),
                check=partial(_loads_and, partial(checks.check_analysis, vs=list(ch), points=pts)),
                pairs=k * (k - 1) // 2,
                fibers=k,
            )
        )
    _analyze(report, _vectors(checks.chains(2)[0]))
    return ops, None


# ------------------------------------------------------------ enumerate-n8


def _enumerate(report, n: int) -> str:
    return json.dumps(report.run_enumerate(n))


def setup_enumerate(seed: int, work: Path, src: Path) -> tuple[list[Op], None]:
    """The input is n = 8 itself; the seed changes nothing here."""
    import twistoric.report as report

    n = 8
    count = checks.catalan(n)
    op = Op(
        label=f"enumerate {n}",
        run=partial(_enumerate, report, n),
        check=partial(_loads_and, partial(checks.check_enumeration, n=n)),
        pairs=count * (n + 2) * (n + 1) // 2,
        fibers=count * (n + 2),
    )
    _enumerate(report, 4)
    return [op], None


# ------------------------------------------------------------- deep-models


def deep_chains() -> list[list[tuple[int, int]]]:
    """The fixed deep chains, DEEP_PER_N for each n in DEEP_NS."""
    rng = random.Random(DEEP_CHAIN_SEED)
    lo, hi = DEEP_M_BAND
    out = []
    for n in DEEP_NS:
        kept = 0
        while kept < DEEP_PER_N:
            ch = grow(rng, n)
            if lo <= max(checks.solve(ch, a)[0] for a in range(1, len(ch) + 1)) <= hi:
                out.append(ch)
                kept += 1
    return out


def _model(report, vectors, i: int, j: int) -> str:
    return json.dumps(report.run_model(vectors, i, j, full=True))


def _check_full_model(vs, i, j, pts, rec: dict) -> None:
    ones = [Fraction(1)] * (rec["mu"] + 2)
    checks.check_model(rec, vs, i, j, checks.default_roots(len(vs)), ones, True, pts)


def setup_deep(seed: int, work: Path, src: Path) -> tuple[list[Op], None]:
    import twistoric.report as report

    rng = random.Random(seed)
    pts = points(rng)
    ops = []
    chains = deep_chains()
    rng.shuffle(chains)
    for ch in chains:
        for i in range(1, len(ch)):
            ops.append(
                Op(
                    label=f"model --full {i} {i + 1} of {ch}",
                    run=partial(_model, report, _vectors(ch), i, i + 1),
                    check=partial(_loads_and, partial(_check_full_model, ch, i, i + 1, pts)),
                    pairs=1,
                    fibers=2,
                )
            )
    _model(report, [[0, 1], [1, 1], [1, 0]], 1, 2)
    return ops, None


# ---------------------------------------------------------------- cli-cold


class CliRunner:
    """Runs one twistoric command line process per operation.

    prefix is the command before the twistoric arguments; a traced pass
    swaps in the span launcher.  Outputs are (exit code, stdout, stderr).
    """

    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.prefix = [sys.executable, "-m", "twistoric.cli"]

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run(
            self.prefix + argv, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr


def _no_traceback(err: str) -> None:
    if "Traceback" in err:
        raise checks.CheckFailed("traceback on stderr: " + err.strip().splitlines()[-1])


def _cli_check(code: int, content: Callable[[str], None] | None, result) -> None:
    got, out, err = result
    _no_traceback(err)
    checks.expect(got == code, f"exit code {got}, expected {code}")
    if content is not None:
        content(out)
    elif code != 0:
        checks.expect(out == "", "output on a failed command")
        checks.expect(err.startswith(("error: ", "usage: ")), "no error message on stderr")


def _check_model_cli(vs, i, j, roots, constants, full, pts, text: str) -> None:
    rec = json.loads(text)
    consts = constants or [Fraction(1)] * (rec["mu"] + 2 if full else 2)
    checks.check_model(rec, vs, i, j, roots, consts, full, pts)


def _check_classify_cli(vs, i, j, roots, text: str) -> None:
    rec = json.loads(text)
    data = {a: checks.divisor_data(vs, a) for a in (i, j)}
    if data[i][0] < data[j][0]:
        i, j = j, i
    checks.expect(rec.keys() == {"i", "j", "fibers"} and (rec["i"], rec["j"]) == (i, j), "classify (i, j)")
    checks.check_fibers(rec["fibers"], roots, checks.l_total(data[i]), checks.l_total(data[j]))


def _check_validate_cli(vs, text: str) -> None:
    want = {"valid": True, "n": len(vs) - 2, "vectors": [list(v) for v in vs]}
    checks.expect(json.loads(text) == want, "validate verdict")


def _check_verdict(text: str) -> None:
    doc = json.loads(text)
    checks.expect(doc["valid"] is False and len(doc["violations"]) >= 1, "invalid verdict")


def _check_rejected(result) -> None:
    """Exit 1 with either a validation verdict or an error message."""
    code, out, err = result
    _no_traceback(err)
    checks.expect(code == 1, f"exit code {code}, expected 1")
    if out:
        _check_verdict(out)
    else:
        checks.expect(err.startswith("error: "), "no error message on stderr")


def _check_count_cli(n: int, text: str) -> None:
    checks.expect(json.loads(text) == {"n": n, "count": checks.catalan(n)}, f"count for n = {n}")


# Inputs with a documented outcome that must not succeed: (name, file
# content or None, twistoric arguments, exit code).  "@" in the arguments
# stands for the input file.  The README promises exit 1 for input that
# fails validation or cannot be read, and 2 for usage errors; validate
# prints its verdict on a chain that fails validation.
ERROR_CASES = [
    ("non-primitive", '{"vectors": [[0,1],[2,2],[1,0]]}', ["validate", "--input", "@"], 1),
    ("bad-determinant", '{"vectors": [[0,1],[1,2],[1,0]]}', ["validate", "--input", "@"], 1),
    ("analyze-invalid", '{"vectors": [[0,1],[1,2],[1,0]]}', ["analyze", "--input", "@"], 1),
    ("model-invalid", '{"vectors": [[1,1],[1,0]]}', ["model", "--input", "@", "--i", "1", "--j", "2"], 1),
    ("missing-file", None, ["analyze", "--input", "missing.json"], 1),
    ("malformed-json", '{"vectors": [[0,1],', ["analyze", "--input", "@"], 1),
    ("no-vectors-key", '{"n": 1}', ["validate", "--input", "@"], 1),
    ("n-mismatch", '{"n": 3, "vectors": [[0,1],[1,1],[1,0]]}', ["validate", "--input", "@"], 1),
    ("index-zero", '{"vectors": [[0,1],[1,1],[1,0]]}', ["model", "--input", "@", "--i", "0", "--j", "2"], 2),
    ("index-equal", '{"vectors": [[0,1],[1,1],[1,0]]}', ["classify", "--input", "@", "--i", "2", "--j", "2"], 2),
    ("over-cap", None, ["enumerate", "--n", "9"], 2),
    ("negative-n", None, ["enumerate", "--n", "-1"], 2),
    ("root-collision", '{"vectors": [[0,1],[1,2],[1,1],[2,1],[1,0]]}',
     ["model", "--input", "@", "--i", "1", "--j", "2", "--roots", "1,1,2"], 2),
    ("zero-constant", '{"vectors": [[0,1],[1,1],[1,0]]}',
     ["model", "--input", "@", "--i", "1", "--j", "2", "--constants", "0,1"], 2),
    ("bad-roots", '{"vectors": [[0,1],[1,1],[1,0]]}', ["model", "--input", "@", "--i", "1", "--j", "2", "--roots", "x"], 2),
    ("no-command", None, [], 2),
    ("unknown-flag", '{"vectors": [[0,1],[1,1],[1,0]]}', ["analyze", "--input", "@", "--fast"], 2),
]

# Known defects, kept so that they show (ROADMAP open item 3): each must be
# rejected with exit 1 as the README documents.  Today the first exits 0
# (1.7 is truncated to 1), the second exits 2 and the third ends in a
# traceback.
KNOWN_DEFECTS = [
    ("float-coordinate", '{"vectors": [[0,1],[1.7,1],[1,0]]}', ["validate", "--input", "@"], 1),
    ("string-entry", '{"vectors": ["a",1]}', ["validate", "--input", "@"], 1),
    ("vectors-not-a-list", '{"vectors": 5}', ["validate", "--input", "@"], 1),
]

VERDICT_CASES = {"non-primitive", "bad-determinant"}
CLI_MIX = {"analyze": 20, "model": 20, "classify": 15, "validate": 15, "count": 10}


def _write(work: Path, name: str, content: str) -> str:
    (work / name).write_text(content, encoding="utf-8")
    return name


def _chain_file(work: Path, vs) -> str:
    name = "chain-" + "_".join(f"{a}.{b}" for a, b in vs) + ".json"
    return _write(work, name, json.dumps({"n": len(vs) - 2, "vectors": [list(v) for v in vs]}))


def _random_roots(rng: random.Random, k: int) -> list[Fraction]:
    """Strictly increasing positive rationals for labels 3..k."""
    out, r = [], Fraction(0)
    for _ in range(k - 2):
        r += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        out.append(r)
    return out


def cli_ops(rng: random.Random, run: CliRunner) -> list[Op]:
    work = run.work
    pts = points(rng)
    chains = [grow(rng, rng.randint(1, 4)) for _ in range(12)]
    ops: list[Op] = []

    def add(label, argv, code, content=None, pairs=0, fibers=0):
        ops.append(Op(label, partial(run, argv), partial(_cli_check, code, content), pairs, fibers))

    for t in range(CLI_MIX["analyze"]):
        vs = chains[t % len(chains)]
        k = len(vs)
        content = partial(_loads_and, partial(checks.check_analysis, vs=vs, points=pts))
        add(f"analyze {vs}", ["analyze", "--input", _chain_file(work, vs)], 0, content, k * (k - 1) // 2, k)
    for t in range(CLI_MIX["model"] + CLI_MIX["classify"]):
        vs = rng.choice(chains)
        k = len(vs)
        i, j = sorted(rng.sample(range(1, k + 1), 2))
        argv = ["--input", _chain_file(work, vs), "--i", str(i), "--j", str(j)]
        roots = checks.default_roots(k)
        if t % 2:
            tail = _random_roots(rng, k)
            roots = [Fraction(0)] + tail
            argv += ["--roots", ",".join(str(r) for r in tail)]
        if t < CLI_MIX["model"]:
            constants = None
            if t % 3 == 0:
                constants = [Fraction(rng.randint(1, 5), rng.randint(1, 3)), Fraction(-rng.randint(1, 5))]
                argv += ["--constants", ",".join(str(c) for c in constants)]
            full = constants is None
            content = partial(_check_model_cli, vs, i, j, roots, constants, full, pts)
            add(f"model {argv}", ["model"] + argv + (["--full"] if full else []), 0, content, 1, 2)
        else:
            content = partial(_check_classify_cli, vs, i, j, roots)
            add(f"classify {argv}", ["classify"] + argv, 0, content, 1, 2)
    for t in range(CLI_MIX["validate"]):
        vs = chains[t % len(chains)]
        add(f"validate {vs}", ["validate", "--input", _chain_file(work, vs)], 0, partial(_check_validate_cli, vs))
    for t in range(CLI_MIX["count"]):
        n = rng.randint(0, 8)
        add(f"enumerate {n}", ["enumerate", "--n", str(n), "--count-only"], 0, partial(_check_count_cli, n))
    for cases, known in ((ERROR_CASES, False), (KNOWN_DEFECTS, True)):
        for name, content, argv, code in cases:
            if content is not None:
                path = _write(work, f"case-{name}.json", content)
                argv = [path if a == "@" else a for a in argv]
            label = f"{name}: twistoric {' '.join(argv)}"
            if known:
                ops.append(Op(label, partial(run, argv), _check_rejected, known_defect=True))
            else:
                verdict = _check_verdict if name in VERDICT_CASES else None
                add(label, argv, code, verdict)
    rng.shuffle(ops)
    return ops


def setup_cli(seed: int, work: Path, src: Path) -> tuple[list[Op], CliRunner]:
    run = CliRunner(src, work)
    ops = cli_ops(random.Random(seed), run)
    run(["enumerate", "--n", "1", "--count-only"])
    return ops, run


SETUPS = {
    "sweep-n6": setup_sweep,
    "enumerate-n8": setup_enumerate,
    "deep-models": setup_deep,
    "cli-cold": setup_cli,
}
