"""Byte-identity of the JSON outputs on a fixed sweep.

golden_digests.json maps a case label to the sha256 of
json.dumps(output, indent=2), the text the command line writes, for:

  analyze <chain>               run_analyze on every chain with n <= 4
  analyze-scaled <chain>        the same with roots tail (2t+1)/3 and constants 3/2, -5
  model <chain> <i> <j>         run_model for every pair i < j of those chains
  model-full <chain> <i> <j>    the same with full=True
  enumerate <n>                 run_enumerate(n) for n <= 6

A refactor must leave every digest unchanged.  When an output change is
intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from twistoric import enumerate_sequences, run_analyze, run_enumerate, run_model

DIGESTS = Path(__file__).with_name("golden_digests.json")
# unequal constants that are not ones, so a report's rows are keyed by constant as well as by label
SCALED = (Fraction(3, 2), Fraction(-5))


def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def cases():
    """(label, thunk) for every golden case, in a fixed order."""
    for n in range(5):
        for seq in enumerate_sequences(n):
            vectors = [list(v) for v in seq.vectors]
            chain = json.dumps(vectors, separators=(",", ":"))
            yield f"analyze {chain}", lambda v=vectors: run_analyze(v)
            tail = [Fraction(2 * t + 1, 3) for t in range(1, seq.k - 1)]
            yield f"analyze-scaled {chain}", lambda v=vectors, tail=tail: run_analyze(v, tail, SCALED)
            for i in range(1, seq.k + 1):
                for j in range(i + 1, seq.k + 1):
                    yield f"model {chain} {i} {j}", lambda v=vectors, i=i, j=j: run_model(v, i, j)
                    yield f"model-full {chain} {i} {j}", lambda v=vectors, i=i, j=j: run_model(v, i, j, full=True)
    for n in range(7):
        yield f"enumerate {n}", lambda n=n: run_enumerate(n)


def compute() -> dict[str, str]:
    return {label: digest(thunk()) for label, thunk in cases()}


def test_json_outputs_match_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = compute()
    assert actual.keys() == expected.keys()
    differing = [label for label in expected if actual[label] != expected[label]]
    assert not differing, f"{len(differing)} case(s) changed output: {differing[:10]}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
