"""Report assembly, JSON round trips, and the run_* entry points."""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistoric import (
    ActionSequence,
    AnalysisReport,
    CapExceeded,
    ConformalRoots,
    FiberClass,
    TwistoricError,
    TwistorDivisorData,
    analyze_sequence,
    bimeromorphic_pairs,
    classify_fibers,
    default_roots,
    degree_matrix,
    emit_full_model,
    enumerate_sequences,
    invariant_fibers,
    run_analyze,
    run_enumerate,
    run_model,
    solve_divisor_data,
    validate,
)
from twistoric import models
from twistoric.models import FOUR_PLANES, GENERIC_FOUR_NODAL, TWO_QUADRIC_CONES, ModelEquations
from twistoric.report import model_record, parse_model_record

from oracles import grow_by_mediants
from test_models import counted

HEXAGON = [(0, 1), (1, 1), (1, 0)]


def test_default_roots():
    assert default_roots(2).tail == ()
    assert default_roots(5).tail == (Fraction(1), Fraction(2), Fraction(3))


def test_hexagon_report_contents():
    report = analyze_sequence(validate(HEXAGON))
    assert tuple(d.m for d in report.divisors) == (1, 1, 1)
    assert report.bimeromorphic == ((1, 2), (1, 3), (2, 3))
    assert len(report.models) == 2
    assert report.warnings == ()


def test_degree_warning_emitted():
    report = analyze_sequence(validate([(0, 1), (1, 1), (2, 1), (1, 0)]))
    assert {"type": "degree", "i": 1, "j": 3, "d": 2} in report.warnings
    assert all(w["type"] == "degree" for w in report.warnings)
    assert report.bimeromorphic == ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))


def test_non_reduced_warning_emitted():
    report = analyze_sequence(validate([(0, 1), (1, 1), (2, 1), (3, 1), (1, 0)]))
    assert {"type": "nonReducedComponent", "alpha": 1, "beta": 4, "l": 2} in report.warnings


def test_report_round_trips_through_json():
    for n in range(4):
        for seq in enumerate_sequences(n):
            report = analyze_sequence(seq)
            data = json.loads(json.dumps(report.to_json()))
            rebuilt = AnalysisReport.from_json(data)
            assert rebuilt == report
            assert rebuilt.to_json() == report.to_json()


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 10**6), max_size=8))
def test_report_sections_match_per_index_functions(picks):
    """Chains grown by mediants, k up to 10: each section the report holds is what the
    per-index function gives, and the JSON reads back to an equal report."""
    seq = validate(grow_by_mediants(picks))
    report = analyze_sequence(seq)
    s = report.surface
    assert report.degrees == degree_matrix(s)
    assert report.bimeromorphic == tuple(bimeromorphic_pairs(degree_matrix(s)))
    assert len(report.fibers) == len(report.divisors) == s.k
    for a in range(1, s.k + 1):
        assert report.fibers[a - 1] == invariant_fibers(s, a)
        assert report.divisors[a - 1] == solve_divisor_data(s, a)
    assert AnalysisReport.from_json(json.loads(json.dumps(report.to_json()))) == report


def test_model_record_round_trip():
    report = analyze_sequence(validate([(0, 1), (1, 2), (1, 1), (1, 0)]))
    for eqs, classes in report.models:
        data = json.loads(json.dumps(model_record(eqs, classes)))
        eqs2, classes2 = parse_model_record(data)
        assert eqs2 == eqs and classes2 == classes


def test_model_record_reader_is_strict():
    report = analyze_sequence(validate(HEXAGON))
    data = json.loads(json.dumps(model_record(*report.models[0])))
    bad_values = [
        ("i", "1"),
        ("j", 2.7),
        ("mu", True),
        ("bundle", [1, 1, 1.0, 1]),
        ("fibers", "ab"),
        ("fibers", [1]),
        ("mu", 1),  # not bundle[0] - bundle[2]
        ("bundle", [1, 2, 1, 1]),
        ("c", ["1", "1", "1"]),  # not one constant per row of P
        ("i", 99),  # no label of the three listed locations
    ]
    for field, bad in bad_values:
        with pytest.raises(ValueError, match=f"'{field}'"):
            parse_model_record({**data, field: bad})
    no_mu = {key: value for key, value in data.items() if key != "mu"}
    three_rows = {**data, "P": data["P"] + [data["P"][1]], "c": ["1", "1", "1"]}  # mu = 0 takes two
    full = run_model([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2, full=True)
    third_row_off = {**full, "P": full["P"][:2] + [["1"] + full["P"][2][1:]]}  # not lambda^2 * P_2
    # P_1 times (lambda - 100): a fiber over 100 that no listed location stands for
    cones = run_model([(0, 1), (1, 1), (3, 2), (5, 3), (2, 1), (1, 0)], 3, 4)
    p1 = [Fraction(c) for c in cones["P"][0]]
    cones["P"][0] = [str(hi - 100 * lo) for hi, lo in zip([0] + p1, p1 + [0])]

    def at(location, kind, non_reduced=False, generic=False):
        return {"at": location, "kind": kind, "nonReduced": non_reduced, "generic": generic}

    # P_1 = lambda^2 (lambda - 1) has degree 3 > 2m = 2; the fibers are those of its roots, with order 0 at infinity
    cubic = {
        **data,
        "P": [["0", "0", "-1", "1"], data["P"][1]],
        "fibers": [at("inf", TWO_QUADRIC_CONES), at("0", FOUR_PLANES, True), at("1", TWO_QUADRIC_CONES), at("2", GENERIC_FOUR_NODAL, generic=True)],
    }
    bad_records = [
        (no_mu, "'mu'"),
        (three_rows, "'P'"),
        (third_row_off, "'P'"),
        (cones, "'P' must be c \\* prod"),
        (cubic, "'P' must be c \\* prod"),
        ({**data, "i": 2, "j": 2}, "'i' and 'j' must be two labels"),
        ({**data, "i": 0, "j": -3}, "'i' and 'j' must be two labels"),
        ({**data, "P": data["P"][:1]}, "'P'"),  # P_1 alone
        ({**data, "P": []}, "'P'"),
        ({**data, "P": [[], data["P"][1]]}, "'P'"),  # P_1 zero
        ({**data, "bundle": [1]}, "'bundle'"),
        ({**data, "bundle": 4}, "'bundle'"),
        (list(data.values()), "'models'"),
    ]
    for bad, field in bad_records:
        with pytest.raises(ValueError, match=field):
            parse_model_record(bad)


def power_record(d: int, m: int) -> dict:
    """The record the writer emits for P_1 = lambda^d, P_2 = 1 and bundle (m, m, m, m), over the hexagon's labels."""
    eqs = ModelEquations(i=1, j=2, m_i=m, m_j=m, constants=(Fraction(1), Fraction(1)), p1=(Fraction(0),) * d + (Fraction(1),), p2=(Fraction(1),))
    return json.loads(json.dumps(model_record(eqs, classify_fibers((2 * m - d, d, 0), (2 * m, 0, 0), default_roots(3)))))


def cubic_record() -> dict:
    """The hexagon's (1, 2) record with P_1 = lambda^2 (lambda - 1): degree 3 > 2m = 2."""
    data = json.loads(json.dumps(model_record(*analyze_sequence(validate(HEXAGON)).models[0])))
    at = [("inf", TWO_QUADRIC_CONES, False, False), ("0", FOUR_PLANES, True, False), ("1", TWO_QUADRIC_CONES, False, False), ("2", GENERIC_FOUR_NODAL, False, True)]
    fibers = [{"at": a, "kind": kind, "nonReduced": nr, "generic": g} for a, kind, nr, g in at]
    return {**data, "P": [["0", "0", "-1", "1"], data["P"][1]], "fibers": fibers}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
def test_oversized_records_are_refused_before_dividing(monkeypatch):
    """A P over 2m, or of more degrees than the writer's bit budget has bits, is refused before the first division."""
    budget = int(sys.get_int_max_str_digits() * math.log2(10))
    tested = counted("divided", monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"'P' has degree {budget + 1}, over the budget of {budget} bits"):
        parse_model_record(power_record(budget + 1, budget))
    with pytest.raises(ValueError, match="'P' must be c \\* prod .* of degree at most 2m = 2, got degree 3"):
        parse_model_record(cubic_record())
    assert time.perf_counter() - start < 1.0
    assert tested == []
    # within 2m and the budget, a record is read back
    record = power_record(40, 30)
    assert model_record(*parse_model_record(record)) == record


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit to lift")
def test_no_digit_limit_leaves_only_the_degree_rule(monkeypatch):
    """With no digit limit there is no budget: a record over the least one Python allows is read, and 2m still holds."""
    limit = sys.get_int_max_str_digits()
    record = power_record(2127, 1064)
    tested = counted("divided", monkeypatch)
    try:
        sys.set_int_max_str_digits(640)  # the least limit, a budget of 2126 bits
        with pytest.raises(ValueError, match="'P' has degree 2127, over the budget of 2126 bits"):
            parse_model_record(record)
        assert tested == []
        sys.set_int_max_str_digits(0)
        assert model_record(*parse_model_record(record)) == record
        assert tested
        with pytest.raises(ValueError, match="of degree at most 2m = 2, got degree 3"):
            parse_model_record(cubic_record())
    finally:
        sys.set_int_max_str_digits(limit)


def test_model_record_reader_takes_rationals_as_strings_only():
    report = analyze_sequence(validate(HEXAGON))
    data = json.loads(json.dumps(model_record(*report.models[0])))
    bad_values = [
        ("c", [1.5, True]),
        ("c", ["1", True]),
        ("c", ["1", "1/0"]),
        ("c", "11"),
        ("P", [[0.5, 1], [True]]),
        ("P", [["-1", "1"], [1]]),
        ("P", [["-1", "1"], "01"]),
    ]
    for field, bad in bad_values:
        with pytest.raises(ValueError, match=f"'{field}'"):
            parse_model_record({**data, field: bad})


def test_report_reader_takes_bimeromorphic_pairs_as_int_pairs_only():
    data = json.loads(json.dumps(analyze_sequence(validate(HEXAGON)).to_json()))
    assert AnalysisReport.from_json(data).bimeromorphic == ((1, 2), (1, 3), (2, 3))
    for bad in ([[1, True]], [[1, 2, 3]], [["1", 2]], [[1.0, 2]], [[1]], "12", [12]):
        with pytest.raises(ValueError, match="'bimeromorphicPairs'"):
            AnalysisReport.from_json({**data, "bimeromorphicPairs": bad})


def test_report_reader_rebuilds_every_derived_field():
    data = json.loads(json.dumps(analyze_sequence(validate([(0, 1), (1, 1), (2, 1), (1, 0)])).to_json()))
    assert data["warnings"]
    cases = [(field, {**data, field: data[field][:-1]}) for field in ("degreeMatrix", "fibers", "divisors", "warnings")]
    for field in ("degreeMatrix", "fibers", "surface", "divisors", "warnings", "roots"):
        cases.append((field, {key: value for key, value in data.items() if key != field}))
    cases += [
        ("surface", {**data, "surface": {**data["surface"], "selfInt": [-1] * 8}}),
        ("divisors", {**data, "divisors": {"alpha": 1}}),
        ("models", {**data, "roots": {"k": 4, "tail": ["1", "3"]}}),  # models built on other roots
    ]
    for field, bad in cases:
        with pytest.raises(ValueError, match=f"'{field}'"):
            AnalysisReport.from_json(bad)


def test_rational_roots_survive_serialization():
    report = analyze_sequence(
        validate(HEXAGON),
        roots=None,
        constants=(Fraction(1, 2), Fraction(3)),
    )
    data = json.loads(json.dumps(report.to_json()))
    assert AnalysisReport.from_json(data) == report


def test_run_analyze_shape():
    out = run_analyze(HEXAGON, roots_tail=(Fraction(1),))
    assert out["input"] == {"n": 1, "vectors": [[0, 1], [1, 1], [1, 0]]}
    assert out["surface"]["selfInt"] == [-1] * 6
    assert out["roots"] == {"k": 3, "tail": ["1"]}
    assert out["degreeMatrix"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert [m["bundle"] for m in out["models"]] == [[1, 1, 1, 1], [1, 1, 1, 1]]
    assert out["warnings"] == []


def test_run_enumerate_listing():
    out = run_enumerate(1)
    assert out == {
        "n": 1,
        "count": 1,
        "sequences": [
            {
                "vectors": [[0, 1], [1, 1], [1, 0]],
                "selfInt": [-1, -1, -1, -1, -1, -1],
                "m": [1, 1, 1],
                "bimeromorphicPairs": [[1, 2], [1, 3], [2, 3]],
            }
        ],
    }
    assert run_enumerate(2, count_only=True) == {"n": 2, "count": 2}


def test_run_enumerate_cap():
    with pytest.raises(CapExceeded):
        run_enumerate(9)
    with pytest.raises(CapExceeded):
        run_enumerate(4, cap=3)
    assert run_enumerate(3, count_only=True, cap=3) == {"n": 3, "count": 5}


@pytest.mark.parametrize("n, message", [(True, "'n' must be an int, got True"), (2.0, "'n' must be an int, got 2.0"), (9.0, "'n' must be an int, got 9.0"), ("3", "'n' must be an int, got '3'"), (-1, "n must be >= 0")])
def test_run_enumerate_refuses_a_bad_n(n, message):
    # range() would count a bool as n = 1 and refuse a float with a bare TypeError; the cap check would compare a str
    with pytest.raises(ValueError, match=message):
        run_enumerate(n)


SCALED = (Fraction(3, 2), Fraction(-5))


def scaled_roots(k: int) -> ConformalRoots:
    """The tail (2t + 1)/3 for t = 1 .. k - 2: 1, 5/3, 7/3, ..."""
    return ConformalRoots(k=k, tail=tuple([Fraction(2 * t + 1, 3) for t in range(1, k - 1)]))


def test_a_report_writes_each_model_as_the_single_model_writer_does():
    """A report's models share their labels' rows and the location strings, yet each record is what model_record
    writes for that model alone, and no two rows or fiber dicts of one report are one object, so a change to one
    record changes no other.  Every chain with n <= 5, with default roots and ones, and with scaled roots and
    the constants 3/2, -5, which give one label a different constant in its two models."""
    for n in range(6):
        for seq in enumerate_sequences(n):
            for roots, constants in ((None, None), (scaled_roots(seq.k), SCALED)):
                report = analyze_sequence(seq, roots, constants)
                records = report.to_json()["models"]
                assert records == [model_record(eqs, classes) for eqs, classes in report.models]
                parts = [row for rec in records for row in rec["P"]] + [fc for rec in records for fc in rec["fibers"]]
                assert len({id(part) for part in parts}) == len(parts)


@pytest.mark.parametrize("picks", [[], [0], [0, 1, 1, 2], [3, 1, 4, 1, 5, 9, 2, 6], [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]])
def test_a_report_formats_each_label_product_once_per_constant(picks, monkeypatch):
    """Writing a report formats one row per distinct (label, constant) among its models' P_1 and P_2: k with no
    constants, and with 3/2, -5 one per label that is some model's P_1 plus one per label that is some model's
    P_2.  The report draws its generic sample once, and writing draws none."""
    seq = validate(grow_by_mediants(picks))
    formatted, sampled = counted("poly_to_strings", monkeypatch), counted("_generic_class", monkeypatch, models)
    for roots, constants in ((None, None), (scaled_roots(seq.k), SCALED)):
        del formatted[:], sampled[:]
        report = analyze_sequence(seq, roots, constants)
        assert len(sampled) == 1 and formatted == []
        report.to_json()
        firsts, seconds = {eqs.i for eqs, _ in report.models}, {eqs.j for eqs, _ in report.models}
        assert len(formatted) == (seq.k if constants is None else len(firsts) + len(seconds))
        assert len(sampled) == 1


def test_run_model_reduced_and_full():
    reduced = run_model([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    assert len(reduced["P"]) == 2
    full = run_model([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2, full=True)
    assert len(full["P"]) == 3
    assert full["P"][:2] == reduced["P"]
    assert full["mu"] == 1


def sweep_records() -> list[tuple]:
    """(reader, writer, objects) for each record kind, over the n <= 4 sweep."""
    write_model = lambda model: model_record(*model)
    reports = [analyze_sequence(seq) for n in range(5) for seq in enumerate_sequences(n)]
    full_models = []
    for report in reports:
        for d_i, d_j in zip(report.divisors, report.divisors[1:]):
            full = emit_full_model(d_i, d_j, report.roots)
            classes = classify_fibers(report.divisors[full.i - 1].l_total, report.divisors[full.j - 1].l_total, report.roots)
            full_models.append((full, tuple(classes)))
    return [
        (AnalysisReport.from_json, AnalysisReport.to_json, reports),
        (parse_model_record, write_model, [model for report in reports for model in report.models]),
        (parse_model_record, write_model, full_models),
        (TwistorDivisorData.from_json, TwistorDivisorData.to_json, [d for report in reports for d in report.divisors]),
        (ConformalRoots.from_json, ConformalRoots.to_json, [report.roots for report in reports]),
        (FiberClass.from_json, FiberClass.to_json, [fc for report in reports for _, fcs in report.models for fc in fcs]),
        (ActionSequence.from_json, ActionSequence.to_json, [report.sequence for report in reports]),
    ]


SWEEP_RECORDS = sweep_records()


def retyped(leaf: object) -> list:
    """The leaf as another JSON type: int, float, bool and str swap, and 'p/q' becomes '2p/2q'."""
    if isinstance(leaf, bool):
        return [int(leaf), float(leaf), str(leaf).lower()]
    if isinstance(leaf, int):
        return [float(leaf), str(leaf), leaf == 1]
    try:
        r = Fraction(leaf)
    except ValueError:  # a name such as 'inf' or a fiber kind
        return [0, 0.0, False]
    return [f"{2 * r.numerator}/{2 * r.denominator}", r.numerator, float(r), r == 1]


@st.composite
def mutated_records(draw):
    """A real record with one mutation at a random node: a key dropped or added, a container
    replaced by a str, int, None or dict, a list truncated or extended, or a leaf retyped."""
    # indices, not sampled_from: hypothesis would hash every object of the pool on each draw
    reader, writer, objects = SWEEP_RECORDS[draw(st.integers(0, len(SWEEP_RECORDS) - 1))]
    obj = objects[draw(st.integers(0, len(objects) - 1))]
    text = json.dumps(writer(obj))
    root = [json.loads(text)]
    parent, key = root, 0
    for _ in range(draw(st.integers(0, 6))):
        node = parent[key]
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[draw(st.integers(0, len(keys) - 1))]
    node = parent[key]
    if isinstance(node, dict):
        options = [{k: v for k, v in node.items() if k != dropped} for dropped in sorted(node)] + [{**node, "extra": 0}]
    elif isinstance(node, list):
        options = [node[:-1], node + node[-1:], node + [0]]
    else:
        options = retyped(node)
    if isinstance(node, (dict, list)):
        options += ["x", 1, None, {"x": 1}]
    parent[key] = draw(st.sampled_from(options))
    return reader, writer, obj, json.loads(text), root[0]


@settings(deadline=None, max_examples=800)
@given(mutated_records())
def test_readers_accept_only_what_their_writer_emits(case):
    """Every reader, fuzzed: a mutated record is refused with ValueError or a TwistoricError,
    or read into an object the writer emits as exactly that record."""
    reader, writer, obj, original, mutated = case
    assert reader(original) == obj
    try:
        got = reader(mutated)
    except (ValueError, TwistoricError):
        return
    assert json.dumps(writer(got), sort_keys=True) == json.dumps(mutated, sort_keys=True)
