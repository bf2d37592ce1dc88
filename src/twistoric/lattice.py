"""Integer data of torus actions: validation, normalization, enumeration.

A two-torus action on a connected sum of n complex projective planes is
encoded by a sequence of k = n + 2 primitive integer vectors v_1, ..., v_k
in normalized form:

  * v_1 = (0, 1) and v_k = (1, 0),
  * the first coordinate of v_i is positive for every i > 1,
  * det(v_i, v_{i+1}) = -1 for consecutive pairs.

Any sequence satisfying only the determinant chain can be brought to this
form by a unimodular change of lattice coordinates when one exists
(normalize); the normalized representatives for fixed n form a finite set,
which enumerate_sequences builds valid, by mediant insertion (a toric blow-up),
and does not check again; its closure hands a step each parent and mediant position.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .errors import (
    DETERMINANT_VIOLATION,
    EMPTY_SEQUENCE,
    ENDPOINT_MISMATCH,
    NON_PRIMITIVE_VECTOR,
    POSITIVITY_VIOLATION,
    NotNormalizable,
    SequenceValidationError,
    Violation,
)

Vector = tuple[int, int]
Matrix = tuple[tuple[int, int], tuple[int, int]]  # rows

__all__ = [
    "ActionSequence",
    "Matrix",
    "Vector",
    "check",
    "det2",
    "enumerate_sequences",
    "is_primitive",
    "normalize",
    "reversal_dual",
    "validate",
]


def det2(u: Vector, v: Vector) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def is_primitive(v: Vector) -> bool:
    return v != (0, 0) and gcd(abs(v[0]), abs(v[1])) == 1


def _is_int_pair(p: object) -> bool:
    """A list or tuple of exactly two ints; bools (an int subclass), floats and strings are not."""
    return isinstance(p, (list, tuple)) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int


def _text(value: object) -> str:
    return json.dumps(value, sort_keys=True)


def _where(out: object, data: object) -> str:
    """The subscript path where data first departs from out, the writer's output, and the two values there."""
    if isinstance(out, (dict, list)) and type(data) is type(out):
        keys = sorted(out.keys() | data.keys(), key=str) if isinstance(out, dict) else range(max(len(out), len(data)))
        for key in keys:
            try:
                here, there = out[key], data[key]
            except LookupError:
                return f"[{key!r}] is on one side only"
            if _text(here) != _text(there):
                return f"[{key!r}]" + _where(here, there)
    return f": the record has {_text(data)}, the writer emits {_text(out)}"


def _read(data: object, parse, write, field: str):
    """parse(data), accepted only when write emits it back as the same sorted-key JSON text.

    Text, not ==, since 1 == 1.0 == True.  A parse failure or a difference is one
    ValueError naming field; a nested read's message follows the outer field.
    """
    try:
        obj = parse(data)
        out = write(obj)
        same = _text(out) == _text(data)
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:  # a TwistoricError passes through
        reason = exc if type(exc) is ValueError else f"{type(exc).__name__} {exc}"
        raise ValueError(f"{field!r}: {reason}") from None
    if not same:
        raise ValueError(f"{field!r}{_where(out, data)}")
    return obj


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fraction(text: object) -> Fraction:
    """Fraction(text), but a string whose exponent is past sys.get_int_max_str_digits() (4300, Python's default, where
    there is no limit) is a ValueError before Fraction computes 10 to that power; such a number can be written in digits."""
    exponent = isinstance(text, str) and _EXPONENT.search(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if exponent and abs(int(exponent[1])) > limit:
        raise ValueError(f"the exponent of {text!r} is past the {limit}-digit limit")
    return Fraction(text)


class ActionSequence(namedtuple("ActionSequence", "n vectors")):
    """Normalized integer data of a torus action: n and the tuple of its k = n + 2 vectors."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {"n": self.n, "vectors": [list(v) for v in self.vectors]}

    @staticmethod
    def from_json(data: dict) -> "ActionSequence":
        return _read(data, lambda d: validate(d["vectors"]), ActionSequence.to_json, "input")


def check(pairs: Sequence[Sequence[int]]) -> list[Violation]:
    """Return every violated validity condition, with 1-based positions."""
    out: list[Violation] = []
    if not pairs:
        return [Violation(EMPTY_SEQUENCE, None, "sequence is empty")]
    if not all(map(_is_int_pair, pairs)):
        return [Violation(NON_PRIMITIVE_VECTOR, None, "entries must be integer pairs")]
    vs = [tuple(p) for p in pairs]
    k = len(vs)
    for i, v in enumerate(vs, start=1):
        if not is_primitive(v):
            out.append(Violation(NON_PRIMITIVE_VECTOR, i, f"vector {i} = {v} is not primitive"))
    if vs[0] != (0, 1):
        out.append(Violation(ENDPOINT_MISMATCH, 1, f"first vector is {vs[0]}, expected (0, 1)"))
    if vs[-1] != (1, 0):
        out.append(Violation(ENDPOINT_MISMATCH, k, f"last vector is {vs[-1]}, expected (1, 0)"))
    for i in range(2, k + 1):
        if vs[i - 1][0] <= 0:
            out.append(
                Violation(POSITIVITY_VIOLATION, i, f"vector {i} = {vs[i - 1]} has first coordinate <= 0")
            )
    for i in range(1, k):
        d = det2(vs[i - 1], vs[i])
        if d != -1:
            out.append(
                Violation(DETERMINANT_VIOLATION, i, f"det(v_{i}, v_{i + 1}) = {d}, expected -1")
            )
    return out


def validate(pairs: Sequence[Sequence[int]]) -> ActionSequence:
    """Validate raw vector data and wrap it as an ActionSequence.

    Raises SequenceValidationError carrying every violated condition.
    """
    violations = check(pairs)
    if violations:
        raise SequenceValidationError(violations)
    vs = tuple([(a, b) for a, b in pairs])
    return ActionSequence(n=len(vs) - 2, vectors=vs)


def normalize(pairs: Sequence[Sequence[int]]) -> tuple[ActionSequence, Matrix]:
    """Bring a determinant chain to normalized form by a unimodular matrix.

    Returns the unique normalized sequence together with the matrix M such
    that M v_i is the i-th normalized vector; M absorbs a global sign flip
    of the input when one is needed.  Raises NotNormalizable when no
    unimodular change of coordinates works.
    """
    if len(pairs) < 2 or not all(map(_is_int_pair, pairs)):
        raise NotNormalizable("need at least two integer pairs")
    vs = [tuple(p) for p in pairs]
    (a, b), (c, d) = vs[0], vs[-1]
    dv = a * d - b * c
    # The endpoints must map to (0, 1) and (1, 0), so M is forced:
    # M [v_1 | v_k] = [(0,1) | (1,0)], solvable over Z only when det = +-1.
    if dv not in (1, -1):
        raise NotNormalizable(f"det(v_1, v_k) = {dv}, no unimodular matrix fixes the endpoints")
    # dv is its own inverse, so M is dv times the adjugate of [v_1 | v_k] with its
    # rows swapped: M v = dv * (det(v_1, v), det(v, v_k))
    mat = ((-b * dv, a * dv), (d * dv, -c * dv))
    mapped = [(dv * det2(vs[0], v), dv * det2(v, vs[-1])) for v in vs]
    try:
        return validate(mapped), mat
    except SequenceValidationError as exc:
        detail = "; ".join(v.message for v in exc.violations)
        raise NotNormalizable(f"endpoint-determined matrix does not normalize the chain: {detail}") from None


def reversal_dual(seq: ActionSequence) -> ActionSequence:
    """Reverse the sequence and swap coordinates; an involution on valid data."""
    return validate([(b, a) for (a, b) in reversed(seq.vectors)])


def _check_n(n: object) -> None:
    """Refuse an n that is not an int >= 0, naming it, before the closure's range() or run_enumerate's count sees it."""
    if type(n) is not int:  # range() would take a bool as 0 or 1 and refuse a float with a TypeError
        raise ValueError(f"'n' must be an int, got {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0")


def _mediant_closure(n: int, seed, step) -> list:
    """(chain, data) for every normalized chain of n, in lexicographic order; valid as built and so not checked again.

    Closes { ((0,1), (1,0)) } under insertion of the mediant v_i + v_{i+1} between consecutive
    entries, n times.  Inserting a mediant preserves the determinant chain, and every valid chain
    arises this way: a vector of maximal coordinate sum in the interior always equals the sum of
    its neighbours, so chains blow down step by step to the base chain.  The base chain's data is
    seed(chain), and a chain's data is step(data, parent, i) of the first parent to reach it, the
    mediant going in after position i.
    """
    _check_n(n)
    base = ((0, 1), (1, 0))
    chains = {base: seed(base)}
    for _ in range(n):
        grown = {}
        for ch, data in chains.items():
            for i in range(len(ch) - 1):
                med = (ch[i][0] + ch[i + 1][0], ch[i][1] + ch[i + 1][1])
                child = ch[: i + 1] + (med,) + ch[i + 1 :]
                if child not in grown:
                    grown[child] = step(data, ch, i)
        chains = grown
    return sorted(chains.items())


def enumerate_sequences(n: int) -> list[ActionSequence]:
    """All normalized sequences for n, in lexicographic order: the mediant closure, each mediant a toric blow-up."""
    return [ActionSequence(n=n, vectors=ch) for ch, _ in _mediant_closure(n, lambda ch: None, lambda data, parent, i: None)]
