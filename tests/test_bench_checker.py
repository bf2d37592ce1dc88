"""The bench's output checker, bench/checks.py, on chains past the exhaustive sweep.

checks.py recomputes every written field from the vectors by closed forms and imports nothing from the package, so it
is loaded here by path and left as it is.  The golden digests pin the written bytes only for n <= 4; here the report
and the reduced and full models of chains grown to k = 20 go through the JSON text and back into the checker.  A
refusal by the bit budget, CapExceeded, is a pass.
"""

from __future__ import annotations

import importlib.util
import json
import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from hypothesis import event, example, given, settings, strategies as st

from twistoric import CapExceeded
from twistoric.report import run_analyze, run_enumerate, run_model

from oracles import grow_by_mediants

_SPEC = importlib.util.spec_from_file_location("bench_checks", Path(__file__).resolve().parent.parent / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checks)


def written(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 10**6), min_size=5, max_size=18), st.randoms(use_true_random=False))
@example([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6], random.Random(0))  # k = 14 with m up to 233
def test_deep_chains_pass_the_bench_checker(picks, rng):
    """A drawn chain's report with the default roots, then one drawn pair's reduced and full models with a rational
    tail of either sign and drawn constants, each through its JSON text."""
    vs = list(grow_by_mediants(picks))
    k, points = len(vs), [rng.randrange(2, checks.PRIME) for _ in range(2)]
    try:
        checks.check_analysis(written(run_analyze(vs)), vs, points)
    except CapExceeded:
        event("analyze refused by the bit budget")
    i, j = sorted(rng.sample(range(1, k + 1), 2))
    sign = rng.choice((1, -1))
    tail = [sign * r for r in accumulate(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k - 2))]
    mu = abs(checks.divisor_data(vs, i)[0] - checks.divisor_data(vs, j)[0])
    for full, count in ((False, 2), (True, mu + 2)):
        constants = [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(count)]
        try:
            record = written(run_model(vs, i, j, tail, constants, full=full))
        except CapExceeded:
            event("model refused by the bit budget")
            continue
        checks.check_model(record, vs, i, j, [Fraction(0)] + tail, constants, full, points)


def test_the_listing_passes_the_bench_checker():
    for n in range(7):
        checks.check_enumeration(written(run_enumerate(n)), n)
