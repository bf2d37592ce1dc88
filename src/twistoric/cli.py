"""Command line driver.

Commands:
  validate   check an input file and report every violated condition
  enumerate  list all normalized sequences for a given n
  analyze    full report for one input sequence
  model      model equations for one index pair
  classify   fiber classification for one index pair

Input files hold a single JSON object {"n": ..., "vectors": [[a, b], ...]}
whose n, a and b are JSON integers (n optional).  Every command writes one
JSON document to stdout (or --output) and the same input always produces
byte-identical output.  Exit codes: 0 on success, 1 when the input fails
validation or cannot be read or the --output file cannot be written, 2 on
usage errors: a bad flag value (USAGE_ERRORS) or what argparse refuses.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from contextlib import nullcontext
from fractions import Fraction

from .errors import (
    BadIndices,
    CapExceeded,
    DegenerateConstants,
    RootCollision,
    RootOrderViolation,
    SequenceValidationError,
    TwistoricError,
)
from .lattice import _fraction, validate
from .report import DEFAULT_CAP, run_analyze, run_classify, run_enumerate, run_model


class InputDataError(TwistoricError):
    """The content of an input file is unusable (distinct from bad flags)."""


# what main catches exits 2 if it is one of these, a bad flag value, and 1 otherwise
USAGE_ERRORS = (ValueError, BadIndices, CapExceeded, DegenerateConstants, RootCollision, RootOrderViolation)


def _parse_fractions(text: str | None, flag: str) -> tuple[Fraction, ...] | None:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    try:
        values = tuple([_fraction(part.strip()) for part in text.split(",")])
        for value in values:
            str(value)  # the JSON writer's form; past sys.get_int_max_str_digits() it raises ValueError
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag}: cannot parse rational list {text!r}: {exc}") from exc
    return values


def _load_vectors(path: str) -> list[list[int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # undecodable bytes or JSON, or nesting too deep to parse
        raise InputDataError(f"{path}: {exc}") from exc
    if not isinstance(data, dict) or "vectors" not in data:
        raise InputDataError(f"{path}: expected an object with a 'vectors' key")
    vectors = data["vectors"]
    if not isinstance(vectors, list):
        raise InputDataError(f"{path}: 'vectors' must be a list")
    n = data.get("n", len(vectors) - 2)
    if type(n) is not int:
        raise InputDataError(f"{path}: 'n' must be an integer, got {n!r}")
    if n != len(vectors) - 2:
        raise InputDataError(f"{path}: stated n = {n} but {len(vectors)} vectors given")
    return vectors


def _emit(payload: dict | list, output: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistoric",
        description="Toric surfaces and projective twistor-space models from torus-action data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the shared flags, each declared once: every command writes, all but enumerate read, three take a pencil
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--output", help="write the result here instead of stdout")
    reads = argparse.ArgumentParser(add_help=False, parents=[writes])
    reads.add_argument("--input", required=True, help="path to the input JSON file")
    pencil = argparse.ArgumentParser(add_help=False, parents=[reads])
    pencil.add_argument("--roots", help="comma-separated pencil roots for labels 3..k; join a value starting with - by =, as --roots=-1/2")
    pencil.add_argument("--constants", help="comma-separated scale constants; join a value starting with - by =, as --constants=-2,1")

    sub.add_parser("validate", parents=[reads], help="validate an input sequence")
    p_enum = sub.add_parser("enumerate", parents=[writes], help="enumerate all sequences for n")
    p_enum.add_argument("--n", type=int, required=True, help="number of projective-plane summands")
    p_enum.add_argument("--count-only", action="store_true", help="emit only the count")
    p_enum.add_argument("--cap", type=int, default=DEFAULT_CAP, help="largest allowed n")
    sub.add_parser("analyze", parents=[pencil], help="full report for one sequence")
    for name in ("model", "classify"):
        p = sub.add_parser(name, parents=[pencil], help=f"emit the {name} output for one index pair")
        p.add_argument("--i", type=int, required=True, help="first pencil index (1-based)")
        p.add_argument("--j", type=int, required=True, help="second pencil index (1-based)")
        if name == "model":
            p.add_argument("--full", action="store_true", help="emit the full model chain")
    return parser


def _dispatch(args: argparse.Namespace) -> tuple[dict | list, int]:
    if args.command == "validate":
        vectors = _load_vectors(args.input)
        try:
            seq = validate(vectors)
        except SequenceValidationError as exc:
            return {"valid": False, "violations": [v._asdict() for v in exc.violations]}, 1
        return {"valid": True, **seq.to_json()}, 0

    if args.command == "enumerate":
        return run_enumerate(args.n, count_only=args.count_only, cap=args.cap), 0

    # the subparsers are required and closed, so what is left is analyze, model or classify
    vectors = _load_vectors(args.input)
    roots_tail = _parse_fractions(args.roots, "--roots")
    constants = _parse_fractions(args.constants, "--constants")
    if args.command == "analyze":
        return run_analyze(vectors, roots_tail, constants), 0
    if args.command == "classify":
        return run_classify(vectors, args.i, args.j, roots_tail, constants), 0
    return run_model(vectors, args.i, args.j, roots_tail, constants, full=args.full), 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = _dispatch(args)
        _emit(payload, args.output)
    except (TwistoricError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1
    return code


if __name__ == "__main__":
    sys.exit(main())
