"""Report assembly, JSON round trips, and the run_* entry points."""

from __future__ import annotations

import gc
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
    build_surface,
    classify_fibers,
    default_roots,
    degree_matrix,
    emit_full_model,
    emit_reduced_model,
    enumerate_sequences,
    invariant_fibers,
    model_degree,
    run_analyze,
    run_classify,
    run_enumerate,
    run_model,
    solve_divisor_data,
    validate,
)
from twistoric import models, report
from twistoric.models import FOUR_PLANES, GENERIC_FOUR_NODAL, TWO_QUADRIC_CONES, ModelEquations, _check_constants, _ordered
from twistoric.ratpoly import from_factors
from twistoric.report import model_record, parse_model_record

from oracles import grow_by_mediants
from test_models import another_call, counted

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


def power_record(d: int, m: int, root: int = 0) -> dict:
    """The record the writer emits for P_1 = (lambda - root)^d, root 0 or 1, P_2 = 1 and bundle (m, m, m, m), over the hexagon's labels."""
    p1 = (Fraction(0),) * d + (Fraction(1),) if root == 0 else from_factors([(root, d)])
    l_i = (2 * m - d, d, 0) if root == 0 else (2 * m - d, 0, d)
    eqs = ModelEquations(i=1, j=2, m_i=m, m_j=m, constants=(Fraction(1), Fraction(1)), p1=p1, p2=(Fraction(1),))
    return json.loads(json.dumps(model_record(eqs, classify_fibers(l_i, (2 * m, 0, 0), default_roots(3)))))


def cubic_record() -> dict:
    """The hexagon's (1, 2) record with P_1 = lambda^2 (lambda - 1): degree 3 > 2m = 2."""
    data = json.loads(json.dumps(model_record(*analyze_sequence(validate(HEXAGON)).models[0])))
    at = [("inf", TWO_QUADRIC_CONES, False, False), ("0", FOUR_PLANES, True, False), ("1", TWO_QUADRIC_CONES, False, False), ("2", GENERIC_FOUR_NODAL, False, True)]
    fibers = [{"at": a, "kind": kind, "nonReduced": nr, "generic": g} for a, kind, nr, g in at]
    return {**data, "P": [["0", "0", "-1", "1"], data["P"][1]], "fibers": fibers}


def expansions(monkeypatch: pytest.MonkeyPatch, most: int | None = None) -> list[int]:
    """The degree of each product the model reader expands: the total multiplicity passed to each from_factors call.

    The reader expands Q, the product over the tail roots, before it sizes or rebuilds P: over the hexagon's labels, of
    degree 1.  A call of degree over most fails the test at once, instead of expanding.
    """
    sizes = []

    def sized(factors):
        factors = list(factors)
        sizes.append(sum([mult for _, mult in factors]))
        if most is not None and sizes[-1] > most:
            raise AssertionError(f"the reader expands a product of degree {sizes[-1]}")
        return from_factors(factors)

    monkeypatch.setattr(models, "from_factors", sized)
    return sizes


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
def test_oversized_records_are_refused_before_dividing(monkeypatch):
    """A P over 2m, or one whose orders model_size puts over the writer's bit budget, is refused before P is rebuilt.

    P_1 = lambda^budget needs budget + 1 bits, one for the constant and one per power of label 2's zero root.
    """
    budget = int(sys.get_int_max_str_digits() * math.log2(10))
    over, cubic = power_record(budget, budget), cubic_record()
    sizes = expansions(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"'P' of degree {budget} may need {budget + 1} bits per coefficient, over the budget of {budget} bits"):
        parse_model_record(over)
    with pytest.raises(ValueError, match="'P' must be c \\* prod .* of degree at most 2m = 2, got degree 3"):
        parse_model_record(cubic)
    assert time.perf_counter() - start < 1.0
    assert max(sizes) == 1  # Q only: P is not rebuilt
    # within 2m and the budget, a record is read back
    record = power_record(40, 30)
    assert model_record(*parse_model_record(record)) == record


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
def test_a_power_of_lambda_at_the_budget_reads_in_linear_time():
    """The reader takes label 2's multiplicity from P's leading zeros, and expands only the tail, so P_1 = lambda^(budget - 1),
    the writer's largest power of lambda, reads back within a second."""
    budget = int(sys.get_int_max_str_digits() * math.log2(10))
    record = power_record(budget - 1, budget // 2)
    start = time.perf_counter()
    eqs, classes = parse_model_record(record)
    assert time.perf_counter() - start < 1.0
    assert classes[1].location == 0 and model_record(eqs, classes) == record


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit to lift")
def test_no_digit_limit_leaves_only_the_degree_rule(monkeypatch):
    """With no digit limit there is no budget: a record over the least one Python allows is read, and 2m still holds.

    P_1 = (lambda - 1)^1063 needs 1 + 2 * 1063 = 2127 bits, one over the least budget: under it the record is refused
    before anything of its degree is expanded, and with no limit it is rebuilt and read back.
    """
    limit = sys.get_int_max_str_digits()
    record, cubic = power_record(1063, 532, root=1), cubic_record()
    sizes = expansions(monkeypatch)
    try:
        sys.set_int_max_str_digits(640)  # the least limit, a budget of 2126 bits
        start = time.perf_counter()
        with pytest.raises(ValueError, match="'P' of degree 1063 may need 2127 bits per coefficient, over the budget of 2126 bits"):
            parse_model_record(record)
        assert time.perf_counter() - start < 1.0
        assert max(sizes) == 1  # Q only: P is not rebuilt
        sys.set_int_max_str_digits(0)
        assert model_record(*parse_model_record(record)) == record
        assert 1063 in sizes
        with pytest.raises(ValueError, match="of degree at most 2m = 2, got degree 3"):
            parse_model_record(cubic)
    finally:
        sys.set_int_max_str_digits(limit)


def test_orders_that_miss_the_degree_of_p_are_refused_before_rebuilding(monkeypatch):
    """P_1 = lambda^2 - L lambda + (L^2 - L) / 2, L = 10^6, over tail roots 1 and L has power sums s_1 = s_2 = L, within
    deg * L^j, so it reads as order L at the root 1, which does not account for deg P = 2.

    That is refused at once, with or without a digit limit, and P is not rebuilt from the order: the rebuild would be
    (lambda - 1)^L, and with no limit there is no bit budget to stop it.
    """
    big = 10**6
    roots = ConformalRoots(k=4, tail=(1, big))
    eqs = ModelEquations(i=1, j=2, m_i=1, m_j=1, constants=(1, 1), p1=((big * big - big) // 2, -big, 1), p2=(1,))
    record = json.loads(json.dumps(model_record(eqs, classify_fibers((0, 0, 2, 0), (2, 0, 0, 0), roots))))
    expansions(monkeypatch, most=2)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        for lifted in (False, True) if limit is not None else (False,):
            if lifted:
                sys.set_int_max_str_digits(0)
            start = time.perf_counter()
            with pytest.raises(ValueError, match="'P' must be c \\* prod .* of degree at most 2m = 2, got degree 2"):
                parse_model_record(record)
            assert time.perf_counter() - start < 1.0
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_only_the_rebuild_sees_a_coefficient_below_the_top_ones():
    """(lambda - 1)^4 over the hexagon's labels with its constant term 1 made 2: Newton's identities read only the top two
    coefficients, which give order 4 at the root 1, as for the true power, and the rebuild refuses the rest."""
    record = power_record(4, 2, root=1)
    assert record["P"][0] == ["1", "-4", "6", "-4", "1"]
    record["P"][0][0] = "2"
    with pytest.raises(ValueError, match="'P' must be c \\* prod .* got degree 4"):
        parse_model_record(record)


def linear_record(n: int, roots_tail: list[Fraction] | None = None) -> dict:
    """The model record of the middle pair n // 2, n // 2 + 1 of the linear chain (0,1), (1,n), (1,n-1), ..., (1,0)."""
    return run_model([(0, 1)] + [(1, j) for j in range(n, -1, -1)], n // 2, n // 2 + 1, roots_tail)


def test_an_outsized_top_coefficient_is_refused_before_expanding(monkeypatch):
    """A 62-label chain's P_1 with a 4000-digit coefficient next to its lead is refused within a second: the reader works on
    its residue, so Newton's identities do not raise it to the 60th power, and only Q, of degree 60, is expanded, not P."""
    record = linear_record(60)
    record["P"][0][-2] = str(10**3999)
    sizes = expansions(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="'P' must be c \\* prod"):
        parse_model_record(record)
    assert time.perf_counter() - start < 1.0 and sizes == [60]


@pytest.mark.parametrize("k, digits, relabelled", [(22, 1000, True), (42, 1000, True), (42, 40, False)])
def test_roots_with_large_distinct_denominators_are_read_within_a_second(k, digits, relabelled):
    """Tail roots (t + 1) / (10^digits + 2t + 1) have large, distinct denominators, whose power sums on ints grow with
    the sum of their bits at each power; on residues they stay one word wide.  A record whose tail locations are
    relabelled to them is refused, and the record the writer emits for them is read back, each within a second."""
    tail = [Fraction(t + 1, 10**digits + 2 * t + 1) for t in range(k - 2)]
    record = linear_record(k - 2, None if relabelled else tail)
    if relabelled:
        for fiber, r in zip(record["fibers"][2:-1], tail):
            fiber["at"] = str(r)
    start = time.perf_counter()
    if relabelled:
        with pytest.raises(ValueError, match="'P' must be c \\* prod"):
            parse_model_record(record)
    else:
        assert model_record(*parse_model_record(record)) == record
    assert time.perf_counter() - start < 1.0


def test_roots_that_meet_modulo_the_first_modulus_are_read():
    """Tail roots 1 and 2^61 are both 1 modulo 2^61 - 1, the first modulus, where their difference is no unit, so the
    reader moves on to the next.  P_1 = (lambda - 1)^39 (lambda - 2^61) reads back with its orders 39 and 1."""
    roots = ConformalRoots(k=4, tail=(1, 2**61))
    eqs = ModelEquations(i=1, j=2, m_i=20, m_j=20, constants=(1, 1), p1=from_factors([(1, 39), (2**61, 1)]), p2=(1,))
    record = json.loads(json.dumps(model_record(eqs, classify_fibers((0, 0, 39, 1), (40, 0, 0, 0), roots))))
    eqs2, classes = parse_model_record(record)
    assert eqs2 == eqs and model_record(eqs2, classes) == record


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


def test_count_only_is_the_catalan_number_without_building_the_listing():
    for n in range(9):
        assert run_enumerate(n, count_only=True) == {"n": n, "count": len(run_enumerate(n)["sequences"])}
    start = time.perf_counter()
    assert run_enumerate(30, count_only=True, cap=30) == {"n": 30, "count": 3814986502092304}
    assert time.perf_counter() - start < 1


BAD_N_OR_CAP = [
    ({"n": True}, "'n' must be an int, got True"),
    ({"n": 2.0}, "'n' must be an int, got 2.0"),
    ({"n": 9.0}, "'n' must be an int, got 9.0"),
    ({"n": "3"}, "'n' must be an int, got '3'"),
    ({"n": -1}, "n must be >= 0"),
    ({"n": 3, "cap": "8"}, "'cap' must be an int, got '8'"),
    ({"n": 3, "cap": None}, "'cap' must be an int, got None"),
    ({"n": 1, "cap": True}, "'cap' must be an int, got True"),
    ({"n": 2, "cap": 2.5}, "'cap' must be an int, got 2.5"),
    ({"n": 0, "cap": -5}, "cap must be >= 0"),
    ({"n": 0, "cap": -5, "count_only": True}, "cap must be >= 0"),
]


@pytest.mark.parametrize("kwargs, message", BAD_N_OR_CAP, ids=lambda v: "-".join(map(str, v.values())) if isinstance(v, dict) else None)
def test_run_enumerate_refuses_a_bad_n(kwargs, message):
    # range() would count a bool as n = 1 and refuse a float with a bare TypeError; n > cap would refuse a str or None
    # with a bare TypeError, and take a bool cap as 0 or 1 and a float cap as a bound
    with pytest.raises(ValueError, match=message):
        run_enumerate(**kwargs)


def test_the_listing_runs_no_cyclic_collection_and_restores_the_collector(monkeypatch):
    """The listing is built with the cyclic collector paused, which is then left as the caller had it, also when the
    listing raises."""
    starts = []

    def count_starts(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count_starts)
    try:
        listing = run_enumerate(8)
        assert starts == []  # with the collector running, the n = 8 listing starts dozens of collections
        assert gc.isenabled()
        gc.disable()
        assert run_enumerate(8) == listing
        assert not gc.isenabled()
        gc.enable()
        blow_up, calls = report._blow_up, []

        def blow_up_then_raise(*args):
            calls.append(args)
            if len(calls) > 20:
                raise RuntimeError("mid-listing")
            return blow_up(*args)

        monkeypatch.setattr(report, "_blow_up", blow_up_then_raise)
        with pytest.raises(RuntimeError, match="mid-listing"):
            run_enumerate(5)
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(count_starts)
        (gc.enable if was_enabled else gc.disable)()


SCALED = (Fraction(3, 2), Fraction(-5))


def scaled_roots(k: int) -> ConformalRoots:
    """The tail (2t + 1)/3 for t = 1 .. k - 2: 1, 5/3, 7/3, ..."""
    return ConformalRoots(k=k, tail=tuple([Fraction(2 * t + 1, 3) for t in range(1, k - 1)]))


def test_a_report_writes_each_model_as_the_single_model_writer_does():
    """Each record of a report is what model_record writes for that model alone, and no two rows or fiber dicts of
    one report are one object, so a change to one record changes no other.  Every chain with n <= 5, with default
    roots and ones, and with scaled roots and the constants 3/2, -5, which give one label a different constant in
    its two models.  Each n = 3 chain's report also rebuilt with its first model for the default roots and the rest
    for the tail 5, 6, 7, so one label stands for two products."""
    for n in range(6):
        for seq in enumerate_sequences(n):
            reports = [analyze_sequence(seq, roots, constants) for roots, constants in ((None, None), (scaled_roots(seq.k), SCALED))]
            if n == 3:
                other = analyze_sequence(seq, ConformalRoots(k=seq.k, tail=(5, 6, 7)))
                reports.append(reports[0]._replace(models=reports[0].models[:1] + other.models[1:]))
            for report in reports:
                records = report.to_json()["models"]
                assert records == [model_record(eqs, classes) for eqs, classes in report.models]
                parts = [row for rec in records for row in rec["P"]] + [fc for rec in records for fc in rec["fibers"]]
                assert len({id(part) for part in parts}) == len(parts)


@pytest.mark.parametrize("picks", [[], [0], [0, 1, 1, 2], [3, 1, 4, 1, 5, 9, 2, 6], [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]])
def test_a_report_formats_p1_and_p2_once_per_model(picks, monkeypatch):
    """Writing a report formats each of its k - 1 reduced models as model_record does, P_1 once and P_2 once, so
    2(k - 1) rows with no constants and with 3/2, -5 alike.  The report checks its constants once and draws one
    generic sample per model, and writing draws none."""
    seq = validate(grow_by_mediants(picks))
    formatted, sampled = counted("poly_to_strings", monkeypatch), counted("_generic_class", monkeypatch, models)
    checked = counted("_check_constants", monkeypatch, models)
    for roots, constants in ((None, None), (scaled_roots(seq.k), SCALED)):
        del formatted[:], sampled[:], checked[:]
        report = analyze_sequence(seq, roots, constants)
        assert len(sampled) == seq.k - 1 and len(checked) == 1 and formatted == []
        report.to_json()
        assert len(formatted) == 2 * (seq.k - 1)
        assert len(sampled) == seq.k - 1


def test_run_model_reduced_and_full():
    reduced = run_model([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    assert len(reduced["P"]) == 2
    full = run_model([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2, full=True)
    assert len(full["P"]) == 3
    assert full["P"][:2] == reduced["P"]
    assert full["mu"] == 1


def surface_path(vs, i: int, j: int, roots_tail=None, constants=None, kind: str = "reduced") -> dict:
    """What run_model (kind "reduced" or "full") or run_classify ("classify") writes, through the whole surface: the
    divisor data of i and j read off build_surface's k x k table, ordered, emitted and written as model_record does."""
    surface = build_surface(validate(vs))
    model_degree(surface, i, j)
    roots = default_roots(surface.k) if roots_tail is None else ConformalRoots(k=surface.k, tail=tuple(roots_tail))
    d_i, d_j = _ordered(solve_divisor_data(surface, i), solve_divisor_data(surface, j))
    if kind == "classify":
        _check_constants(constants, 2)
        return {"i": d_i.alpha, "j": d_j.alpha, "fibers": [fc.to_json() for fc in classify_fibers(d_i.l_total, d_j.l_total, roots)]}
    eqs = (emit_full_model if kind == "full" else emit_reduced_model)(d_i, d_j, roots, constants)
    return model_record(eqs, classify_fibers(d_i.l_total, d_j.l_total, roots))


def entry_point(vs, i: int, j: int, roots_tail=None, constants=None, kind: str = "reduced") -> dict:
    """The same output through run_model or run_classify."""
    if kind == "classify":
        return run_classify(vs, i, j, roots_tail, constants)
    return run_model(vs, i, j, roots_tail, constants, full=kind == "full")


def outcome(path, *args) -> object:
    """path's output, or the type and message of what it raised."""
    try:
        return path(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_every_pair_matches_the_surface_path(vs, signs=(1, -1)) -> None:
    """Every pair i < j, reduced, full and classified, with the default roots and ones, and with a rational tail
    (2t + 1)/3 of each of the signs and the constants 3/2, -5, repeated for a full model's mu + 2."""
    surface = build_surface(validate(vs))
    tail = [Fraction(2 * t + 1, 3) for t in range(1, surface.k - 1)]
    for i in range(1, surface.k + 1):
        for j in range(i + 1, surface.k + 1):
            mu = abs(solve_divisor_data(surface, i).m - solve_divisor_data(surface, j).m)
            for roots_tail, constants in [(None, None)] + [([sign * r for r in tail], SCALED) for sign in signs]:
                for kind in ("reduced", "full", "classify"):
                    cs = constants if constants is None or kind != "full" else [SCALED[t % 2] for t in range(mu + 2)]
                    args = (vs, i, j, roots_tail, cs, kind)
                    assert outcome(entry_point, *args) == outcome(surface_path, *args), args


def test_model_and_classify_match_the_surface_path_on_every_pair_of_the_sweep():
    """run_model and run_classify read only the two pairing rows they use; on every pair of every chain with n <= 5
    they write what the path through the whole surface writes."""
    for n in range(6):
        for seq in enumerate_sequences(n):
            assert_every_pair_matches_the_surface_path([list(v) for v in seq.vectors])


@settings(deadline=None, max_examples=6)
@given(st.lists(st.integers(0, 10**6), min_size=9, max_size=18), st.sampled_from((1, -1)))
def test_model_and_classify_match_the_surface_path_on_deep_chains(picks, sign):
    """The same on every pair of chains grown to k = 11 .. 20, with the tail of one drawn sign, where a refusal by the
    bit budget must match too."""
    assert_every_pair_matches_the_surface_path([list(v) for v in grow_by_mediants(picks)], (sign,))


K5 = [list(v) for v in grow_by_mediants([0, 1, 1])]


@pytest.mark.parametrize("vs, i, j, roots_tail, error", [
    (K5, 0, 2, None, "need 1 <= i < j <= 5, got (0, 2)"),
    (K5, 2, 2, None, "need 1 <= i < j <= 5, got (2, 2)"),
    (K5, 3, 1, None, "need 1 <= i < j <= 5, got (3, 1)"),
    (K5, 1, 6, None, "need 1 <= i < j <= 5, got (1, 6)"),
    (K5, True, 2, None, "index must be an int, got True"),
    (K5, 1, 2.0, None, "index must be an int, got 2.0"),
    (K5, "1", 2, None, "index must be an int, got '1'"),
    (K5, 0, 2.0, None, "index 0 out of range 1..5"),  # i is checked before j
    (K5, 1, 2, [1], "expected 3 roots for labels 3..5, got 1"),  # the roots after the indices
    (K5, 0, 2, [1], "need 1 <= i < j <= 5, got (0, 2)"),
    ([(0, 1), (1, 2), (1, 0)], 0, 2, [1], "det(v_2, v_3) = -2, expected -1"),  # validation before the indices
])
def test_model_and_classify_refuse_as_the_surface_path_does(vs, i, j, roots_tail, error):
    """Bad index pairs, bad roots and an invalid chain: the same error type and message, in the same order, as the path
    through the whole surface."""
    for kind in ("reduced", "full", "classify"):
        args = (vs, i, j, roots_tail, None, kind)
        got = outcome(entry_point, *args)
        assert got == outcome(surface_path, *args)
        assert isinstance(got, tuple) and issubclass(got[0], TwistoricError) and error in got[1]


DEEP = [grow_by_mediants(picks) for picks in ([0] * 9, [0, 1] * 5, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3], [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])]


def test_model_and_classify_build_no_surface(monkeypatch):
    """A model or classification of one pair reads its two pairing rows off the vectors, in O(k): with build_surface
    refused, the full models and the classifications of adjacent pairs of chains of k = 11 .. 13 are as before."""
    expected = [(surface_path(vs, i, i + 1, kind="full"), surface_path(vs, i, i + 1, kind="classify")) for vs in DEEP for i in range(1, len(vs))]

    def refused(seq):
        raise AssertionError("a single pair built the whole surface")

    monkeypatch.setattr(report, "build_surface", refused)
    assert [(run_model(vs, i, i + 1, full=True), run_classify(vs, i, i + 1)) for vs in DEEP for i in range(1, len(vs))] == expected


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit, so no bit budget")
def test_a_full_model_is_sized_by_its_widest_constant(monkeypatch):
    """The bit budget takes the widest of all mu + 2 constants, here the last one of a pair with mu = 1: CapExceeded
    before any expansion."""
    vs = [(0, 1), (1, 1), (2, 1), (1, 0)]
    budget = int(sys.get_int_max_str_digits() * math.log2(10))
    another_call(len(vs))
    expanded = counted("from_factors", monkeypatch)
    with pytest.raises(CapExceeded, match=f"over the budget of {budget} bits"):
        run_model(vs, 1, 2, constants=(1, 1, 2**budget), full=True)
    assert expanded == []


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
    """The leaf as another JSON type, or a rational as another value: int, float, bool and str swap, 'p/q' becomes
    '2p/2q', and a rational r becomes r + 1/3, which shifts a coefficient of P."""
    if isinstance(leaf, bool):
        return [int(leaf), float(leaf), str(leaf).lower()]
    if isinstance(leaf, int):
        return [float(leaf), str(leaf), leaf == 1]
    try:
        r = Fraction(leaf)
    except ValueError:  # a name such as 'inf' or a fiber kind
        return [0, 0.0, False]
    return [f"{2 * r.numerator}/{2 * r.denominator}", str(r + Fraction(1, 3)), r.numerator, float(r), r == 1]


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
