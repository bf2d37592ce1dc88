"""Benchmark of the twistoric pipeline, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-n6, enumerate-n8, deep-models, cli-cold (see
workloads.py).  Each is a closed loop with one caller: the next operation
starts when the previous one has returned, and no other thread runs.  The
program is imported from ``src/`` of the same checkout.

A run sets up (imports, seeded inputs, one warm-up operation), then repeats
whole passes over the workload's operations while one more pass of the
mean pass time fits in S seconds, and at least two passes.  Outside the timed region it checks every output of
the first pass with checks.py and requires every later pass to print the
same bytes.  An operation fails on an exception, a wrong exit code, a
traceback on stderr, a failed check or different bytes.

The host is shared, and its speed moves by tens of percent, up to twofold,
over seconds to minutes; a median over one run does not average that out.
So an untraced run also times a fixed reference loop (``reference``: exact
rational arithmetic, like the program, and nothing of the program) after
each operation, for REF_SHARE of its time, and, where the operations run
in this process, every REF_EVERY seconds from a timer signal inside them.
Reference time is taken out of the operation's time.  The host's slowness
is the mean reference time, without the fastest and slowest REF_TRIM of
the samples, over REF_S, and every reported operation time is the
measured one divided by it: the time on a host on which the loop takes
REF_S.  The set-ups, which run after the passes, are scaled alike by
reference loops timed after each of them.  A change of the host's speed
moves the reference with the program and cancels; a change to the
program moves the scaled times in full.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes that have spans installed (tracer.py) for S seconds, and
prints the per-layer metrics.  Either way the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"correct" is false when an operation fails other than on a known-defect
input of cli-cold, whose failures are still counted in "failed".
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-n6", "enumerate-n8", "deep-models", "cli-cold")
MIN_PASSES = 2
REF_S = 0.002  # seconds the reference loop takes, in a run, on the baseline's host
REF_TERMS = 600
REF_EVERY = 0.03
REF_SHARE = 0.05
REF_TRIM = 0.1
SETUP_SAMPLES = 15  # this run's own set-up plus fourteen fresh processes
SETUP_REF_S = 0.02  # reference loops after each of them
CLI_SAMPLES = 5


def reference() -> Fraction:
    """A fixed amount of exact rational arithmetic, independent of the program."""
    total = Fraction(0)
    for i in range(1, REF_TERMS):
        total += Fraction(1, i)
    return total


class Reference:
    """Timed runs of the reference loop; spent is their total time.

    The collector is off while the loop runs, so the size of the program's
    heap does not reach its time.  A timer signal that arrives during a
    sample is ignored.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.busy = False

    def sample(self, *_) -> None:
        if self.busy:
            return
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()
        t = perf_counter()
        reference()
        took = perf_counter() - t
        if enabled:
            gc.enable()
        self.samples.append(took)
        self.spent += took
        self.busy = False

    def after(self, seconds: float) -> None:
        """Sample once, and again until seconds are spent."""
        start = self.spent
        self.sample()
        while self.spent - start < seconds:
            self.sample()

    def slowness(self) -> float:
        ordered = sorted(self.samples)
        cut = int(len(ordered) * REF_TRIM)
        return statistics.fmean(ordered[cut : len(ordered) - cut]) / REF_S


class Raised:
    """Output of an operation that raised instead of returning."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.text == self.text


class Passes:
    """Whole passes over the operations, timed, with outputs kept for checks.

    The first pass's outputs are the reference; a later output is compared
    with it at once and then dropped, so held outputs do not grow the
    process.  With a reference, each operation is followed by reference
    loops, and its time leaves out any reference loops run inside it.
    """

    def __init__(self, ops, ref: Reference | None = None):
        self.ops = ops
        self.ref = ref
        self.first: list = []
        self.differs = [0] * len(ops)
        self.count = 0
        self.latencies: list[float] = []
        self.pass_s: list[float] = []

    def run(self, seconds: float, min_passes: int) -> tuple[list[float], list[float]]:
        """Run passes; returns this call's pass times and operation latencies.

        After min_passes it starts a pass only when one of the mean pass
        time still fits in the given seconds, so a run keeps to its length.
        """
        start = perf_counter()
        pass_s: list[float] = []
        latencies: list[float] = []
        while len(pass_s) < min_passes or perf_counter() - start + statistics.fmean(pass_s) <= seconds:
            outputs = []
            t_pass = perf_counter()
            for op in self.ops:
                inside = self.ref.spent if self.ref else 0.0
                t = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a raising operation is a failed one, not the end of the run
                    out = Raised(exc)
                took = perf_counter() - t
                if self.ref:
                    took -= self.ref.spent - inside
                    self.ref.after(REF_SHARE * took)
                latencies.append(took)
                outputs.append(out)
            pass_s.append(perf_counter() - t_pass)
            if self.count == 0:
                self.first = outputs
            else:
                for i, (out, ref) in enumerate(zip(outputs, self.first)):
                    self.differs[i] += out != ref
            self.count += 1
        self.pass_s += pass_s
        self.latencies += latencies
        return pass_s, latencies

    def evaluate(self) -> tuple[int, list[tuple[object, str]]]:
        """Check the reference outputs; returns (failed instances, failures)."""
        failed, failures = 0, []
        for op, ref, differs in zip(self.ops, self.first, self.differs):
            try:
                if isinstance(ref, Raised):
                    raise RuntimeError(ref.text)
                op.check(ref)
            except Exception as exc:  # any check error means the output is wrong
                failed += self.count
                failures.append((op, f"{type(exc).__name__}: {exc}"))
                continue
            if differs:
                failed += differs
                failures.append((op, f"output differs in {differs} of {self.count} passes"))
        return failed, failures


def do_setup(name: str, seed: int, work: Path):
    import workloads

    t0 = perf_counter()
    ops, cli = workloads.SETUPS[name](seed, work, SRC)
    return ops, cli, perf_counter() - t0


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def interp_ms() -> float:
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return (perf_counter() - t) * 1e3


def import_ms() -> float:
    code = "import time; t = time.perf_counter(); import twistoric.cli; print((time.perf_counter() - t) * 1e3)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def output_sizes(outputs) -> dict:
    """Largest m, polynomial degrees and coefficient bits found in the outputs."""
    max_m, degrees, bits = 0, [], 0

    def walk(node) -> None:
        nonlocal max_m, bits
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for key, val in node.items():
                if key == "m":
                    max_m = max([max_m] + (val if isinstance(val, list) else [val]))
                elif key == "bundle":
                    max_m = max(max_m, val[0])
                elif key == "P":
                    for poly in val:
                        degrees.append(len(poly) - 1)
                        for c in poly:
                            num, _, den = c.lstrip("-").partition("/")
                            bits = max(bits, int(num).bit_length(), int(den or 1).bit_length())
                else:
                    walk(val)

    for out in outputs:
        text = out[1] if isinstance(out, tuple) else out
        if isinstance(text, str) and text.startswith("{"):
            walk(json.loads(text))
    return {"max_m": max_m, "degrees": degrees, "bits": bits}


def json_bytes(outputs) -> int:
    return sum(len(out[1] if isinstance(out, tuple) else out) for out in outputs if not isinstance(out, Raised))


def per_layer(spans, passes: Passes, untraced_s: list[float], traced: tuple[list[float], list[float]]) -> dict:
    from tracer import LAYERS

    traced_s, traced_lat = traced
    n = len(traced_s)
    per_pass = 1.0 / n
    metrics = {}
    layer_total = 0.0
    for layer in LAYERS:
        self_s = spans.self_ns[layer] / 1e9 * per_pass
        layer_total += self_s
        calls = sum(c for key, c in spans.calls.items() if key.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (calls * per_pass, "count")
    pairs = sum(op.pairs for op in passes.ops) * n
    fibers = sum(op.fibers for op in passes.ops) * n
    sizes = output_sizes(passes.first)

    def incl(*keys: str) -> float:
        return sum(spans.incl_ns[k] for k in keys) / 1e9 * per_pass

    metrics.update(
        {
            "fibers.degree_calls_per_pair": (spans.calls["fibers.model_degree"] / pairs if pairs else 0.0, "calls/pair"),
            "fibers.fiber_calls_per_fiber": (spans.calls["fibers.invariant_fibers"] / fibers if fibers else 0.0, "calls/fiber"),
            "divisors.max_m": (sizes["max_m"], "count"),
            "models.emit_s": (incl("models.emit_reduced_model", "models.emit_full_model"), "s"),
            "models.classify_s": (incl("models.classify_fibers"), "s"),
            "models.max_degree": (max(sizes["degrees"], default=0), "count"),
            "models.total_degree": (sum(sizes["degrees"]), "count"),
            "models.max_coeff_bits": (sizes["bits"], "bits"),
            "report.json_s": (incl("report.json"), "s"),
            "report.json_bytes": (json_bytes(passes.first), "bytes"),
            "cli.interp_ms": (statistics.median(interp_ms() for _ in range(CLI_SAMPLES)), "ms"),
            "cli.import_ms": (statistics.median(import_ms() for _ in range(CLI_SAMPLES)), "ms"),
            "trace.overhead": (sum(traced_s) / sum(untraced_s) - 1, "ratio"),
            "trace.op_s": (sum(traced_lat) * per_pass, "s"),
            "trace.glue_s": (sum(traced_lat) * per_pass - layer_total, "s"),
        }
    )
    return metrics


def traced_passes(passes: Passes, cli, seconds: float, work: Path):
    """Alternate untraced and traced passes, so that both see the same machine.

    A round is one pass of each; a round starts only when one of the mean
    round time still fits in seconds.

    Returns the span totals, the untraced pass times, and the traced pass
    times and operation latencies.
    """
    import tracer

    spans = tracer.Tracer()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    traced_lat: list[float] = []
    out = work / "spans.jsonl"
    start = perf_counter()
    rounds = 0
    while not rounds or (perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        rounds += 1
        untraced_s += passes.run(0, 1)[0]
        if cli is None:
            uninstall = tracer.install(spans)
            try:
                pass_s, lat = passes.run(0, 1)
            finally:
                uninstall()
        else:
            plain = cli.prefix
            cli.prefix = [sys.executable, str(BENCH / "clitrace.py")]
            cli.env["BENCH_TRACE_OUT"] = str(out)
            try:
                pass_s, lat = passes.run(0, 1)
            finally:
                cli.prefix = plain
        traced_s += pass_s
        traced_lat += lat
    if cli is not None:
        with open(out, encoding="utf-8") as fh:
            for line in fh:
                spans.merge(json.loads(line))
    return spans, untraced_s, (traced_s, traced_lat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="only set up, and print the set-up time")
    args = parser.parse_args(argv)

    if not (SRC / "twistoric" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'twistoric'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops, cli, setup_s = do_setup(args.workload, args.seed, work)
        if args.setup_probe:
            print(setup_s)
            return 0
        imported = sys.modules.get("twistoric")
        if imported is not None and not Path(imported.__file__).resolve().is_relative_to(SRC):
            print(f"error: twistoric was imported from {imported.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.trace:
            passes = Passes(ops)
            spans, untraced_s, traced = traced_passes(passes, cli, args.seconds, work)
        else:
            ref = Reference()
            passes = Passes(ops, ref)
            if cli is None:
                signal.signal(signal.SIGALRM, ref.sample)
                signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
            try:
                passes.run(args.seconds, MIN_PASSES)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            who = resource.RUSAGE_SELF if cli is None else resource.RUSAGE_CHILDREN
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        failed, failures = passes.evaluate()
        attempted = passes.count * len(ops)
        if args.trace:
            metrics = per_layer(spans, passes, untraced_s, traced)
        else:
            setups, setup_ref = [setup_s], Reference()
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(setup_probe(args.workload, args.seed))
                setup_ref.after(SETUP_REF_S)
            setups = [x / setup_ref.slowness() for x in setups]
            slowness = ref.slowness()
            lat = [x / slowness for x in passes.latencies]
            metrics = {
                "ops_per_s": (attempted / sum(lat), "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "success_rate": ((attempted - failed) / attempted, "ratio"),
                "setup_s": (statistics.median(setups), "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(op.known_defect for op, _ in failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {len(ops)} operations per pass, {passes.count} passes, {len(passes.latencies)} timed operations")
    print(f"  attempted {attempted}  failed {failed}  error_rate {failed / attempted:.4f}")
    if not args.trace:
        raw = passes.latencies
        print(f"  host slowness {slowness:.4f}: trimmed mean of {len(ref.samples)} reference loops over {REF_S} s")
        print(f"  unscaled: ops_per_s {attempted / sum(raw):.6g}  op_p50_ms {statistics.median(raw) * 1e3:.6g}")
    for op, why in failures:
        tag = "known defect" if op.known_defect else "FAILED"
        print(f"  {tag}: {op.label}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
