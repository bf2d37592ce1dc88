"""Assembly and serialization of full analysis reports.

A report holds what analyze_sequence derives, once each, from one action
sequence: the surface, its invariant fibers and their degree matrix, the
divisor data read off its pairing rows, adjacent-pair models with their fiber
classes, and warnings.  to_json only writes them, rationals as 'p/q' strings,
each (label, constant) row and location string once for all models.  A report
is an immutable namedtuple; _replace and _make check like its constructor.
Each reader accepts exactly what its writer emits; a report is read from its
input, roots and first constants, then analyzed again.  The model record
(model_record, parse_model_record) lives in models and is re-exported here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .divisors import solve_divisor_data
from .errors import CapExceeded
from .fibers import bimeromorphic_pairs, degree_matrix, invariant_fibers, model_degree
from .lattice import ActionSequence, _read, enumerate_sequences, validate
from .models import (
    ConformalRoots,
    _check_constants,
    _classifier,
    _models,
    _ordered,
    _record,
    classify_fibers,
    emit_full_model,
    emit_reduced_model,
    model_record,
    parse_model_record,
)
from .surface import build_surface

DEFAULT_CAP = 8

__all__ = [
    "DEFAULT_CAP",
    "AnalysisReport",
    "analyze_sequence",
    "default_roots",
    "model_record",
    "parse_model_record",
    "run_analyze",
    "run_classify",
    "run_enumerate",
    "run_model",
]


def default_roots(k: int) -> ConformalRoots:
    """Deterministic root choice 1, 2, ... for labels 3 .. k, built and checked once per int k."""
    # only an int k reaches the cache: ConformalRoots names any other 'k', where range() or the cache's hash would
    # refuse a float, str or list k with a bare TypeError
    return _default_roots(k) if isinstance(k, int) else ConformalRoots(k=k)


@lru_cache(maxsize=None, typed=True)  # typed: an int subclass k is never served the roots of an equal int k
def _default_roots(k: int) -> ConformalRoots:
    return ConformalRoots(k=k, tail=range(1, k - 1))


class AnalysisReport(namedtuple("AnalysisReport", "sequence surface roots fibers degrees bimeromorphic divisors models warnings")):
    """Everything derived from one action sequence, ready to serialize."""

    __slots__ = ()

    def to_json(self) -> dict:
        memo: dict = {}  # the rows and location strings the models share, for this call only
        return {
            "input": self.sequence.to_json(),
            "surface": self.surface.to_json(),
            "roots": self.roots.to_json(),
            "fibers": [
                {"alpha": a, "f": list(f), "fbar": list(fbar)}
                for a, (f, fbar) in enumerate(self.fibers, start=1)
            ],
            "degreeMatrix": [list(row) for row in self.degrees],
            "bimeromorphicPairs": [list(p) for p in self.bimeromorphic],
            "divisors": [d.to_json() for d in self.divisors],
            "models": [_record(eqs, classes, memo) for eqs, classes in self.models],
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_json(data: dict) -> "AnalysisReport":
        """The inverse of to_json: analyzes the input again with the record's roots and first constants."""
        return _read(data, _parse_report, AnalysisReport.to_json, "report")


def _parse_report(data: dict) -> AnalysisReport:
    constants = [_read(c, Fraction, str, "c") for c in data["models"][0]["c"]]
    return analyze_sequence(ActionSequence.from_json(data["input"]), ConformalRoots.from_json(data["roots"]), constants)


def analyze_sequence(
    seq: ActionSequence,
    roots: ConformalRoots | None = None,
    constants: Sequence[Fraction | int] | None = None,
) -> AnalysisReport:
    """Full analysis of one sequence; models for every adjacent pair, each label's product expanded and each l_total taken once."""
    surface = build_surface(seq)
    k = surface.k
    roots = default_roots(k) if roots is None else roots
    fibers = tuple([invariant_fibers(surface, a) for a in range(1, k + 1)])
    divisors = tuple([solve_divisor_data(surface, a) for a in range(1, k + 1)])
    degrees = degree_matrix(surface)
    l_totals, classify = [d.l_total for d in divisors], _classifier(roots)
    models = [(eqs, tuple(classify(l_totals[eqs.i - 1], l_totals[eqs.j - 1]))) for eqs in _models(divisors, l_totals, roots, constants, full=False)]
    warnings = [
        {"type": "degree", "i": i, "j": j, "d": row[j - 1]} for i, row in enumerate(degrees, start=1) for j in range(i + 1, k + 1) if row[j - 1] > 1
    ] + [
        {"type": "nonReducedComponent", "alpha": d.alpha, "beta": b, "l": l} for d, l_total in zip(divisors, l_totals) for b, l in enumerate(l_total, start=1) if l > 1
    ]
    return AnalysisReport(
        sequence=seq,
        surface=surface,
        roots=roots,
        fibers=fibers,
        degrees=degrees,
        bimeromorphic=tuple(bimeromorphic_pairs(degrees)),
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
    if type(n) is int and n > cap:  # enumerate_sequences refuses any other n, naming it
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
                "bimeromorphicPairs": [list(p) for p in bimeromorphic_pairs(degree_matrix(surface))],
            }
        )
    out["sequences"] = summaries
    return out


def _pair(pairs: Sequence[Sequence[int]], i: int, j: int, roots_tail: Sequence[Fraction] | None) -> tuple:
    """The roots, then the divisor data of i and j with the larger m first: run_model's and run_classify's prologue."""
    surface = build_surface(validate(pairs))
    model_degree(surface, i, j)  # validates the index pair
    roots = default_roots(surface.k) if roots_tail is None else ConformalRoots(k=surface.k, tail=tuple(roots_tail))
    return (roots, *_ordered(solve_divisor_data(surface, i), solve_divisor_data(surface, j)))


def run_model(
    pairs: Sequence[Sequence[int]],
    i: int,
    j: int,
    roots_tail: Sequence[Fraction] | None = None,
    constants: Sequence[Fraction | int] | None = None,
    full: bool = False,
) -> dict:
    """Emit the model for one index pair of the given sequence, as JSON data."""
    roots, d_i, d_j = _pair(pairs, i, j, roots_tail)
    eqs = (emit_full_model if full else emit_reduced_model)(d_i, d_j, roots, constants)
    return model_record(eqs, classify_fibers(d_i.l_total, d_j.l_total, roots))


def run_classify(
    pairs: Sequence[Sequence[int]],
    i: int,
    j: int,
    roots_tail: Sequence[Fraction] | None = None,
    constants: Sequence[Fraction | int] | None = None,
) -> dict:
    """The i, j and fibers of run_model's record, from the two l_total: checks the constants, expands nothing."""
    roots, d_i, d_j = _pair(pairs, i, j, roots_tail)
    _check_constants(constants, 2)
    return {"i": d_i.alpha, "j": d_j.alpha, "fibers": [fc.to_json() for fc in classify_fibers(d_i.l_total, d_j.l_total, roots)]}
