"""Assembly and serialization of full analysis reports.

A report holds what analyze_sequence derives, once each, from one action
sequence: the surface, its invariant fibers and their degree matrix, the
divisor data read off its pairing rows, adjacent-pair models with their fiber
classes, and warnings.  to_json only writes them, rationals as 'p/q' strings,
each model as model_record writes it.  A report is an immutable namedtuple;
_replace and _make check like its constructor.
Each reader accepts exactly what its writer emits; a report is read from its
input, roots and first constants, then analyzed again.  The model record
(model_record, parse_model_record) lives in models and is re-exported here.
The enumeration listing reads only the base chain's surface, and grows each chain's
summary from its parent's by one toric blow-up per mediant along lattice's closure,
each m off the parent chain's determinants with the two vectors the mediant joins.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb

from .divisors import solve_divisor_data
from .errors import CapExceeded
from .fibers import bimeromorphic_pairs, degree_matrix, invariant_fibers, model_degree
from .lattice import ActionSequence, _check_n, _fraction, _mediant_closure, _read, validate
from .models import (
    ConformalRoots,
    _bit_budget,
    _check_constants,
    _models,
    _ordered,
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
    """Deterministic root choice, the ints 1, 2, ... for labels 3 .. k."""
    # ConformalRoots names any k that is no int, where range() would refuse a float, str or list k with a bare TypeError
    return ConformalRoots(k=k, tail=range(1, k - 1) if isinstance(k, int) else ())


class AnalysisReport(namedtuple("AnalysisReport", "sequence surface roots fibers degrees bimeromorphic divisors models warnings")):
    """Everything derived from one action sequence, ready to serialize."""

    __slots__ = ()

    def to_json(self) -> dict:
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
            "models": [model_record(eqs, classes) for eqs, classes in self.models],
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_json(data: dict) -> "AnalysisReport":
        """The inverse of to_json: analyzes the input again with the record's roots and first constants."""
        return _read(data, _parse_report, AnalysisReport.to_json, "report")


def _parse_report(data: dict) -> AnalysisReport:
    constants = [_read(c, _fraction, str, "c") for c in data["models"][0]["c"]]
    return analyze_sequence(ActionSequence.from_json(data["input"]), ConformalRoots.from_json(data["roots"]), constants)


def analyze_sequence(
    seq: ActionSequence,
    roots: ConformalRoots | None = None,
    constants: Sequence[Fraction | int] | None = None,
) -> AnalysisReport:
    """Full analysis of one sequence; models for every adjacent pair, each label's product expanded once."""
    surface = build_surface(seq)
    k = surface.k
    roots = default_roots(k) if roots is None else roots
    fibers = tuple([invariant_fibers(surface, a) for a in range(1, k + 1)])
    divisors = tuple([solve_divisor_data(surface, a) for a in range(1, k + 1)])
    degrees = degree_matrix(surface)
    l_totals = [d.l_total for d in divisors]
    models = [(eqs, tuple(classify_fibers(l_totals[eqs.i - 1], l_totals[eqs.j - 1], roots))) for eqs in _models(divisors, roots, constants, full=False)]
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


def _seed(chain: tuple) -> tuple:
    """The base chain's self-intersections, m per label and bimeromorphic pairs, off its surface."""
    s = build_surface(ActionSequence(n=0, vectors=chain))
    return s.self_int[: s.k], [solve_divisor_data(s, a).m for a in range(1, s.k + 1)], [list(p) for p in bimeromorphic_pairs(degree_matrix(s))]


def _blow_up(data: tuple, parent: tuple, i: int) -> tuple:
    """_seed's data after the mediant of parent's labels i + 1 and i + 2 goes in between them: the toric blow-up of
    the fixed point where their curves meet, in O(k).

    The new curve has self-intersection -1, and its neighbours lose 1.  m_a is half the variation of label a's row
    det(v_r, v_a) over the rays r = 0 .. k, and det is linear: the row gains x + y between x, y = det(v_(i+1), v_a),
    det(v_(i+2), v_a), so m_a grows by (|x| + |y| - |x - y|) / 2, and the new m is the sum of its neighbours' m but
    on the base chain, where it is 1.  Their rows step from ray r to r + 1 by det(u, v_(i+1)) and det(u, v_(i+2)),
    u the difference of the two rays, and these have opposite signs only for u strictly inside +-cone(v_(i+1),
    v_(i+2)).  But u is +-v_s for r < k - 1 (of two neighbours, one is the mediant of the other and a third), and
    (-1, -1), inside only on the base chain, for r = k - 1.  Any other label r has det(v_r, v_(i+1)),
    det(v_r, v_(i+2)) nonzero and of one sign: the new degree-1 pairs are (i + 1, i + 2), (i + 2, i + 3).
    """
    s, m, pairs = data
    (a, b), (c, d) = parent[i], parent[i + 1]
    m = [ma + (abs(x := a * q - b * p) + abs(y := c * q - d * p) - abs(x - y)) // 2 for ma, (p, q) in zip(m, parent)]
    m.insert(i + 1, m[i] + m[i + 1] if len(m) > 2 else 1)
    s = s[:i] + (s[i] - 1, -1, s[i + 1] - 1) + s[i + 2 :]
    j = i + 2  # the new label
    pairs = [[p + (p >= j), q + (q >= j)] for p, q in pairs]
    pairs.insert(bisect_left(pairs, [j - 1]), [j - 1, j])
    pairs.insert(bisect_left(pairs, [j + 1]), [j, j + 1])
    return s, m, pairs


def run_enumerate(n: int, count_only: bool = False, cap: int = DEFAULT_CAP) -> dict:
    """Enumerate all sequences for n and summarize each one, grown from its parent's summary by _blow_up.

    With count_only, only the count: the Catalan number C(2n, n) / (n + 1), in constant time for any cap.  It is below
    4^n, so a count of 2n bits past the writer's bit budget is CapExceeded before it is computed."""
    _check_n(n)
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the enumeration cap {cap}")
    if count_only:
        if (budget := _bit_budget()) and 2 * n > budget:
            raise CapExceeded(f"--n {n}: the count may need {2 * n} bits, over the budget of {budget} bits that sys.get_int_max_str_digits() lets the writer print, whatever --cap allows")
        return {"n": n, "count": comb(2 * n, n) // (n + 1)}
    chains = _mediant_closure(n, _seed, _blow_up)
    summaries = [{"vectors": [list(v) for v in ch], "selfInt": list(s) * 2, "m": m, "bimeromorphicPairs": pairs} for ch, (s, m, pairs) in chains]
    return {"n": n, "count": len(chains), "sequences": summaries}


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
