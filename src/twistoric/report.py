"""Assembly and serialization of full analysis reports.

A report gathers everything derived from one action sequence: the surface,
the invariant fibers and their pairwise degrees, the divisor data of every
pencil, model equations for the chosen index pairs, fiber classifications,
and warnings.  Reports serialize to a single JSON document; rationals are
encoded as 'p/q' strings so the round trip is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .divisors import TwistorDivisorData, solve_divisor_data
from .errors import CapExceeded
from .fibers import bimeromorphic_pairs, invariant_fibers, model_degree
from .lattice import ActionSequence, _is_int_pair, _rational, _typed, enumerate_sequences, validate
from .models import (
    ConformalRoots,
    FiberClass,
    ModelEquations,
    classify_fibers,
    emit_full_model,
    emit_reduced_model,
)
from .ratpoly import poly_from_strings, poly_to_strings
from .surface import ToricSurface, build_surface

DEFAULT_CAP = 8

__all__ = [
    "DEFAULT_CAP",
    "AnalysisReport",
    "analyze_sequence",
    "default_roots",
    "model_record",
    "parse_model_record",
    "run_analyze",
    "run_enumerate",
    "run_model",
]


def default_roots(k: int) -> ConformalRoots:
    """Deterministic root choice 1, 2, ... for labels 3 .. k."""
    return ConformalRoots(k=k, tail=tuple([Fraction(t) for t in range(1, k - 1)]))


def model_record(eqs: ModelEquations, classes: Sequence[FiberClass]) -> dict:
    """JSON form of one model: equations plus fiber classification."""
    return {
        "i": eqs.i,
        "j": eqs.j,
        "mu": eqs.mu,
        "bundle": list(eqs.bundle),
        "c": [str(c) for c in eqs.constants],
        "P": [poly_to_strings(p) for p in eqs.polys],
        "fibers": [fc.to_json() for fc in classes],
    }


def parse_model_record(data: dict) -> tuple[ModelEquations, tuple[FiberClass, ...]]:
    polys = tuple([poly_from_strings(row) for row in _typed(data["P"], list, "P")])
    constants = tuple([_rational(s, "c") for s in _typed(data["c"], list, "c")])
    eqs = ModelEquations(
        i=_typed(data["i"], int, "i"),
        j=_typed(data["j"], int, "j"),
        mu=_typed(data["mu"], int, "mu"),
        bundle=tuple([_typed(b, int, "bundle") for b in data["bundle"]]),
        constants=constants,
        polys=polys,
    )
    classes = tuple([FiberClass.from_json(fc) for fc in data["fibers"]])
    return eqs, classes


@dataclass(frozen=True)
class AnalysisReport:
    """Everything derived from one action sequence, ready to serialize."""

    sequence: ActionSequence
    surface: ToricSurface
    roots: ConformalRoots
    bimeromorphic: tuple[tuple[int, int], ...]
    divisors: tuple[TwistorDivisorData, ...]
    models: tuple[tuple[ModelEquations, tuple[FiberClass, ...]], ...]
    warnings: tuple[dict, ...]

    def to_json(self) -> dict:
        s = self.surface
        ks = range(1, s.k + 1)
        return {
            "input": self.sequence.to_json(),
            "surface": s.to_json(),
            "roots": self.roots.to_json(),
            "fibers": [
                {"alpha": a + 1, "f": list(f), "fbar": list(fbar)}
                for a, (f, fbar) in enumerate(invariant_fibers(s, b) for b in ks)
            ],
            "degreeMatrix": [
                [model_degree(s, min(i, j), max(i, j)) if i != j else 0 for j in ks] for i in ks
            ],
            "bimeromorphicPairs": [list(p) for p in self.bimeromorphic],
            "divisors": [d.to_json() for d in self.divisors],
            "models": [model_record(eqs, classes) for eqs, classes in self.models],
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_json(data: dict) -> "AnalysisReport":
        sequence = ActionSequence.from_json(data["input"])
        surface = build_surface(sequence)
        roots = ConformalRoots.from_json(data["roots"])
        pairs = _typed(data["bimeromorphicPairs"], list, "bimeromorphicPairs")
        if not all(map(_is_int_pair, pairs)):
            raise ValueError(f"'bimeromorphicPairs' must hold pairs of JSON ints, got {pairs!r}")
        return AnalysisReport(
            sequence=sequence,
            surface=surface,
            roots=roots,
            bimeromorphic=tuple([(p[0], p[1]) for p in pairs]),
            divisors=tuple([TwistorDivisorData.from_json(d) for d in data["divisors"]]),
            models=tuple([parse_model_record(m) for m in data["models"]]),
            warnings=tuple(data["warnings"]),
        )


def analyze_sequence(
    seq: ActionSequence,
    roots: ConformalRoots | None = None,
    constants: Sequence[Fraction | int] | None = (1, 1),
) -> AnalysisReport:
    """Full analysis of one sequence; models for every adjacent index pair."""
    surface = build_surface(seq)
    k = surface.k
    if roots is None:
        roots = default_roots(k)
    divisors = tuple([solve_divisor_data(surface, a) for a in range(1, k + 1)])
    models = []
    for i in range(1, k):
        eqs = emit_reduced_model(divisors[i - 1], divisors[i], roots, constants)
        models.append((eqs, tuple(classify_fibers(eqs, roots))))
    warnings: list[dict] = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            d = model_degree(surface, i, j)
            if d > 1:
                warnings.append({"type": "degree", "i": i, "j": j, "d": d})
    for data in divisors:
        for b, l in enumerate(data.l_total, start=1):
            if l > 1:
                warnings.append({"type": "nonReducedComponent", "alpha": data.alpha, "beta": b, "l": l})
    return AnalysisReport(
        sequence=seq,
        surface=surface,
        roots=roots,
        bimeromorphic=tuple(bimeromorphic_pairs(surface)),
        divisors=divisors,
        models=tuple(models),
        warnings=tuple(warnings),
    )


def run_analyze(
    pairs: Sequence[Sequence[int]],
    roots_tail: Sequence[Fraction] | None = None,
    constants: Sequence[Fraction | int] | None = None,
) -> dict:
    """Validate raw vectors and produce the full report as JSON data."""
    seq = validate(pairs)
    roots = None if roots_tail is None else ConformalRoots(k=seq.k, tail=tuple(roots_tail))
    report = analyze_sequence(seq, roots=roots, constants=constants)
    return report.to_json()


def run_enumerate(n: int, count_only: bool = False, cap: int = DEFAULT_CAP) -> dict:
    """Enumerate all sequences for n and summarize each one."""
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the enumeration cap {cap}")
    seqs = enumerate_sequences(n)
    out: dict = {"n": n, "count": len(seqs)}
    if count_only:
        return out
    summaries = []
    for seq in seqs:
        surface = build_surface(seq)
        divisors = [solve_divisor_data(surface, a) for a in range(1, surface.k + 1)]
        summaries.append(
            {
                "vectors": [list(v) for v in seq.vectors],
                "selfInt": list(surface.self_int),
                "m": [d.m for d in divisors],
                "bimeromorphicPairs": [list(p) for p in bimeromorphic_pairs(surface)],
            }
        )
    out["sequences"] = summaries
    return out


def run_model(
    pairs: Sequence[Sequence[int]],
    i: int,
    j: int,
    roots_tail: Sequence[Fraction] | None = None,
    constants: Sequence[Fraction | int] | None = None,
    full: bool = False,
) -> dict:
    """Emit the model for one index pair of the given sequence, as JSON data."""
    seq = validate(pairs)
    surface = build_surface(seq)
    model_degree(surface, i, j)  # validates the index pair
    roots = (
        default_roots(surface.k)
        if roots_tail is None
        else ConformalRoots(k=surface.k, tail=tuple(roots_tail))
    )
    data_i = solve_divisor_data(surface, i)
    data_j = solve_divisor_data(surface, j)
    emit = emit_full_model if full else emit_reduced_model
    eqs = emit(data_i, data_j, roots, constants)
    classes = classify_fibers(eqs, roots)
    return model_record(eqs, classes)
