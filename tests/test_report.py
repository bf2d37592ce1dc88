"""Report assembly, JSON round trips, and the run_* entry points."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from twistoric import (
    AnalysisReport,
    CapExceeded,
    analyze_sequence,
    default_roots,
    enumerate_sequences,
    run_analyze,
    run_enumerate,
    run_model,
    validate,
)
from twistoric.report import model_record, parse_model_record

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


def test_model_record_round_trip():
    report = analyze_sequence(validate([(0, 1), (1, 2), (1, 1), (1, 0)]))
    for eqs, classes in report.models:
        data = json.loads(json.dumps(model_record(eqs, classes)))
        eqs2, classes2 = parse_model_record(data)
        assert eqs2 == eqs and classes2 == classes


def test_model_record_reader_is_strict():
    report = analyze_sequence(validate(HEXAGON))
    data = json.loads(json.dumps(model_record(*report.models[0])))
    for field, bad in [("i", "1"), ("j", 2.7), ("mu", True), ("bundle", [1, 1, 1.0, 1])]:
        with pytest.raises(ValueError, match=f"'{field}'"):
            parse_model_record({**data, field: bad})


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


def test_run_model_reduced_and_full():
    reduced = run_model([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    assert len(reduced["P"]) == 2
    full = run_model([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2, full=True)
    assert len(full["P"]) == 3
    assert full["P"][:2] == reduced["P"]
    assert full["mu"] == 1
