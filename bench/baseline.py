"""Run every workload over a range of seeds and write a baseline file.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload it runs run.py once per seed with --trace 0, then once
with --trace 1 on the first seed, one run at a time.  For each end-to-end
metric it records the values, their median, quartiles and spread (the
distance between the quartiles as a share of the median) next to the
metric's bound from BENCHMARK.json; for the traced run it records every
per-layer metric.  The file also records the interpreter, the processor
count and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SKIPPED = {
    "n8-model-sweep": (
        "emit_reduced_model over all 64,350 n = 8 index pairs took 231 s and classify_fibers did not "
        "finish within 600 s when ROADMAP was written; a run of that length does not fit the per-run "
        "limit of 180 s, so deep-models measures large-degree models on 92 pairs instead"
    )
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "system": f"{platform.system()} {platform.release()}",
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", help="write the baseline here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)
    out = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}, "skipped": SKIPPED}
    worst = 0.0
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            metrics[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values,
            }
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:13s} {name:13s} median {median:12.6g}  spread {spread:.4f}  bound {bound}", flush=True)
        traced = run(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
