"""Model emission: pencil polynomials, metadata, fiber classification."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import random
import time
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import twistoric
from twistoric import (
    ConformalRoots,
    DegenerateConstants,
    RootCollision,
    RootOrderViolation,
    build_surface,
    classify_fibers,
    emit_full_model,
    emit_open_model_description,
    emit_reduced_model,
    enumerate_sequences,
    solve_divisor_data,
    system_meta,
    validate,
)
from twistoric import divisors, fibers, models, ratpoly
from twistoric.models import FOUR_PLANES, GENERIC_FOUR_NODAL, TWO_QUADRIC_CONES, FiberClass, ModelEquations, _generic_class
from twistoric.ratpoly import degree, evaluate
from twistoric.report import AnalysisReport, analyze_sequence, default_roots, model_record, parse_model_record, run_classify, run_enumerate, run_model

from oracles import check_root_tail, generic_sample, grow_by_mediants, root_multiplicity


def divisor_pair(vectors, i, j):
    s = build_surface(validate(vectors))
    return s, solve_divisor_data(s, i), solve_divisor_data(s, j)


def rational_tail(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    """k - 2 roots of one sign, growing in size, mostly with denominators above one."""
    sign = rng.choice((1, -1))
    steps = [Fraction(rng.randint(1, 9), rng.randint(1, 8)) for _ in range(k - 2)]
    return tuple([sign * r for r in accumulate(steps)])


def expected_class(order1: int, order2: int) -> tuple[str, bool]:
    """Kind and non-reducedness from the vanishing orders of P_1 and P_2 at one location."""
    if order1 > 0 and order2 > 0:
        kind = FOUR_PLANES
    elif order1 > 0 or order2 > 0:
        kind = TWO_QUADRIC_CONES
    else:
        kind = GENERIC_FOUR_NODAL
    return kind, order1 >= 2 or order2 >= 2


def test_conformal_roots_json_reader_is_strict():
    assert ConformalRoots.from_json({"k": 3, "tail": ["1"]}) == ConformalRoots(k=3, tail=(Fraction(1),))
    for bad in (2.9, True, "2"):
        with pytest.raises(ValueError, match="'k'"):
            ConformalRoots.from_json({"k": bad, "tail": []})
    with pytest.raises(ValueError, match="'roots'"):
        ConformalRoots.from_json(None)


def test_conformal_roots_json_reader_takes_roots_as_strings_only():
    assert ConformalRoots.from_json({"k": 4, "tail": ["1/2", "3"]}).tail == (Fraction(1, 2), Fraction(3))
    for bad in ([True], [1], [0.5], [None], ["1/0"], ["one"], "1", ["2/4"], [" 1"]):
        with pytest.raises(ValueError, match="'tail'"):
            ConformalRoots.from_json({"k": 3, "tail": bad})


def test_fiber_class_json_reader_takes_the_location_as_a_string_only():
    good = {"at": "-3/4", "kind": TWO_QUADRIC_CONES, "nonReduced": False, "generic": False}
    assert FiberClass.from_json(good).location == Fraction(-3, 4)
    for bad in (0.1, True, 1, None, "1/0", "infinity"):
        with pytest.raises(ValueError, match="'at'"):
            FiberClass.from_json({**good, "at": bad})


def test_an_exponent_past_the_digit_limit_is_refused_before_it_is_computed():
    """A record's fiber location '1e10000000' is refused within a second, naming 'at': Fraction would first compute
    10^10000000, seconds of work for a number that no record can hold."""
    record = run_model([(0, 1), (1, 1), (1, 0)], 1, 2)
    record["fibers"][2]["at"] = "1e10000000"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="'at': the exponent of '1e10000000' is past the"):
        parse_model_record(record)
    assert time.perf_counter() - start < 1.0


def test_fiber_class_json_reader_is_strict():
    good = {"at": "0", "kind": TWO_QUADRIC_CONES, "nonReduced": False, "generic": False}
    assert FiberClass.from_json(good).to_json() == good
    for field, bad in [("kind", "Nonsense"), ("nonReduced", "false"), ("nonReduced", 0), ("generic", 1)]:
        with pytest.raises(ValueError, match=f"'{field}'"):
            FiberClass.from_json({**good, field: bad})
    no_generic = {key: value for key, value in good.items() if key != "generic"}
    for bad, field in [(no_generic, "'generic'"), (list(good.values()), "'fibers'")]:
        with pytest.raises(ValueError, match=field):
            FiberClass.from_json(bad)


def test_conformal_roots_validation():
    ConformalRoots(k=3, tail=(Fraction(1),))
    ConformalRoots(k=4, tail=(Fraction(1, 2), Fraction(3)))
    ConformalRoots(k=4, tail=(Fraction(-1), Fraction(-2)))
    ConformalRoots(k=2)
    with pytest.raises(RootOrderViolation, match="need k >= 2"):
        ConformalRoots(k=1)
    with pytest.raises(RootCollision):
        ConformalRoots(k=4, tail=(Fraction(1), Fraction(1)))
    with pytest.raises(RootCollision):
        ConformalRoots(k=3, tail=(Fraction(0),))  # collides with the fixed zero
    with pytest.raises(RootOrderViolation):
        ConformalRoots(k=4, tail=(Fraction(2), Fraction(1)))
    with pytest.raises(RootOrderViolation):
        ConformalRoots(k=4, tail=(Fraction(-1), Fraction(2)))
    with pytest.raises(RootOrderViolation):
        ConformalRoots(k=4, tail=(Fraction(-1), Fraction(-1, 2)))
    with pytest.raises(RootOrderViolation):
        ConformalRoots(k=4, tail=(Fraction(1),))  # wrong count
    assert ConformalRoots(k=3, tail=(Fraction(1),)).finite_roots == (Fraction(0), Fraction(1))


def raised(call) -> tuple[type, str] | None:
    try:
        call()
    except (RootCollision, RootOrderViolation) as exc:
        return type(exc), str(exc)
    return None


small_roots = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# one-signed runs of nonnegative steps: mostly valid, with a zero first root or a zero step now and then
monotone_tails = st.tuples(st.sampled_from((1, -1)), st.lists(st.fractions(min_value=0, max_value=2, max_denominator=2), max_size=7)).map(
    lambda signed: tuple([signed[0] * r for r in accumulate(signed[1])])
)


def with_repeat(tail: tuple, at: int, to: int) -> tuple:
    """tail with a copy of its entry at (at mod len) inserted at (to mod len + 1)."""
    if not tail:
        return tail
    at, to = at % len(tail), to % (len(tail) + 1)
    return tail[:to] + (tail[at],) + tail[to:]


root_tails = st.one_of(
    st.lists(small_roots, max_size=6).map(tuple),
    monotone_tails,
    st.builds(with_repeat, monotone_tails, st.integers(0, 6), st.integers(0, 7)),
)


@settings(max_examples=300)
@given(root_tails)
@example((Fraction(1), Fraction(2), Fraction(1)))
@example((Fraction(2), Fraction(1), Fraction(1)))
@example((Fraction(-1), Fraction(2), Fraction(0)))
def test_root_check_matches_the_two_loop_oracle(tail):
    """The neighbour check accepts exactly what the hashed-set oracle accepts, and refuses the rest with the
    oracle's class and message, except a tail with a repeat not next to its twin: the oracle names that root
    as a collision, where the neighbour check may name another root, or a break in the order."""
    got = raised(lambda: ConformalRoots(k=len(tail) + 2, tail=tail))
    expected = raised(lambda: check_root_tail(tail))
    if any(tail[a] in tail[a + 2 :] for a in range(len(tail))):
        assert expected[0] is RootCollision and got is not None, (expected, got)
    else:
        assert got == expected


def test_a_distant_repeat_breaks_the_order():
    with pytest.raises(RootOrderViolation, match="positive roots must increase strictly: 2 then 1"):
        ConformalRoots(k=5, tail=(1, 2, 1))
    with pytest.raises(RootCollision, match="root 1 collides with an earlier root"):
        ConformalRoots(k=5, tail=(2, 1, 1))  # an adjacent repeat still outranks the break before it


@settings(max_examples=300)
@given(monotone_tails)
@example((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 2), Fraction(4)))
def test_generic_sample_matches_the_set_and_while_oracle(tail):
    """The scan of the ordered tail finds the sample that counting up past a set of the integer roots finds."""
    try:
        roots = ConformalRoots(k=len(tail) + 2, tail=tail)
    except (RootCollision, RootOrderViolation):
        return
    assert _generic_class(roots).location == generic_sample(roots.finite_roots)


def test_default_roots_count_from_one_and_name_a_bad_k():
    for k in range(2, 12):
        assert default_roots(k) == ConformalRoots(k, tail=tuple(range(1, k - 1)))
    # a float, bool, str or list k raises the ValueError naming 'k', no bare TypeError from range()
    for k in (3.0, True, "3", [3]):
        with pytest.raises(ValueError, match="'k' must be an int"):
            default_roots(k)


def test_float_and_bool_roots_and_constants_are_refused():
    for bad in (0.1, True, 2.0):
        with pytest.raises(ValueError, match="'roots'"):
            ConformalRoots(k=4, tail=(Fraction(1, 2), bad))
        with pytest.raises(ValueError, match="'constants'"):
            run_model([(0, 1), (1, 1), (1, 0)], 1, 2, constants=[Fraction(1, 2), bad])
        with pytest.raises(ValueError, match="'constants'"):
            analyze_sequence(validate([(0, 1), (1, 1), (1, 0)]), constants=[bad, 1])
    # k as well: a report with k = 3.0 would be written and then refused by its own reader
    for bad_k, tail in ((3.0, (Fraction(1),)), (True, ())):
        with pytest.raises(ValueError, match="'k'"):
            ConformalRoots(k=bad_k, tail=tail)
    with pytest.raises(ValueError, match="'k'"):
        analyze_sequence(validate([(0, 1), (1, 1), (1, 0)]), ConformalRoots(k=3.0, tail=(Fraction(1),)))
    report = analyze_sequence(validate([(0, 1), (1, 1), (1, 0)]), ConformalRoots(k=3, tail=(Fraction(1),)))
    assert AnalysisReport.from_json(json.loads(json.dumps(report.to_json()))) == report
    # ints and Fractions as before
    assert ConformalRoots(k=4, tail=(1, Fraction(5, 2))).tail == (Fraction(1), Fraction(5, 2))
    assert run_model([(0, 1), (1, 1), (1, 0)], 1, 2, constants=[2, Fraction(-1, 3)])["c"] == ["2", "-1/3"]


def test_hexagon_reduced_model_exact():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    eqs = emit_reduced_model(d1, d2, roots, (1, 1))
    assert (eqs.i, eqs.j, eqs.mu) == (1, 2, 0)
    assert eqs.bundle == (1, 1, 1, 1)
    assert eqs.p1 == (Fraction(-1), Fraction(1))  # lambda - 1
    assert eqs.p2 == (Fraction(0), Fraction(1))  # lambda
    assert len(eqs.polys) == 2


def test_base_case_model_degrees_one():
    _, d1, d2 = divisor_pair([(0, 1), (1, 0)], 1, 2)
    eqs = emit_reduced_model(d1, d2, ConformalRoots(k=2), (1, 1))
    assert eqs.bundle == (1, 1, 1, 1)
    assert degree(eqs.p1) == 1 and degree(eqs.p2) == 1


def test_roles_swap_when_second_multiplicity_larger():
    _, d2, d3 = divisor_pair([(0, 1), (1, 1), (2, 1), (1, 0)], 2, 3)
    assert (d2.m, d3.m) == (1, 2)
    eqs = emit_reduced_model(d2, d3, default_roots(4), (1, 1))
    assert (eqs.i, eqs.j) == (3, 2)
    assert eqs.bundle == (2, 2, 1, 1)
    assert eqs.mu == 1


def test_constants_validated():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    with pytest.raises(DegenerateConstants):
        emit_reduced_model(d1, d2, roots, (0, 1))
    with pytest.raises(ValueError):
        emit_reduced_model(d1, d2, roots, (1, 1, 1))
    with pytest.raises(ValueError):
        emit_full_model(d1, d2, roots, (1,))  # mu = 0 needs two


def test_a_model_takes_two_labels_of_one_surface_and_roots_for_it():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    _, _, e2 = divisor_pair([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    roots = default_roots(3)
    with pytest.raises(ValueError, match="need two distinct pencil indices"):
        emit_reduced_model(d1, d1, roots)
    with pytest.raises(ValueError, match="divisor data come from different surfaces"):
        emit_reduced_model(d1, e2, roots)
    with pytest.raises(ValueError, match="need one multiplicity per label 1 .. 3, got 2 and 3"):
        classify_fibers(d1.l_total[:2], d2.l_total, roots)
    seq = validate([(0, 1), (1, 1), (2, 1), (1, 0)])
    with pytest.raises(ValueError, match="roots are for k = 3, divisor data for k = 4"):
        analyze_sequence(seq, roots=roots)
    data = json.loads(json.dumps(analyze_sequence(seq).to_json()))
    with pytest.raises(ValueError, match="'report': roots are for k = 3, divisor data for k = 4"):
        AnalysisReport.from_json({**data, "roots": roots.to_json()})


def test_constants_scale_the_polynomials():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    eqs = emit_reduced_model(d1, d2, roots, (Fraction(2), Fraction(-1, 3)))
    assert eqs.p1 == (Fraction(-2), Fraction(2))
    assert eqs.p2 == (Fraction(0), Fraction(-1, 3))


def test_degree_bookkeeping_all_instances():
    for n in range(5):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            roots = default_roots(s.k)
            data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]
            for i in range(s.k):
                for j in range(i + 1, s.k):
                    eqs = emit_reduced_model(data[i], data[j], roots)
                    di = next(d for d in data if d.alpha == eqs.i)
                    dj = next(d for d in data if d.alpha == eqs.j)
                    assert degree(eqs.p1) == 2 * di.m - di.l_total[0]
                    assert degree(eqs.p2) == 2 * dj.m - dj.l_total[0]


def test_default_models_hold_ints():
    """With roots 1, 2, ... and unit constants every number of a model is an int and no Fraction: the roots and the
    fiber locations, the generic sample included, the constants, and the coefficients of P_1, P_2 and every row of
    polys, the zeros of its lambda^(2(a-2)) shift included."""
    for n in range(5):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            roots = default_roots(s.k)
            assert all(type(r) is int for r in roots.finite_roots), seq.vectors
            data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]
            for i in range(s.k):
                for j in range(i + 1, s.k):
                    for emit in (emit_reduced_model, emit_full_model):
                        eqs = emit(data[i], data[j], roots)
                        locations = [fc.location for fc in classify_fibers(data[i].l_total, data[j].l_total, roots)[1:]]
                        coeffs = [c for p in (eqs.p1, eqs.p2, *eqs.polys) for c in p]
                        assert all(type(c) is int for c in coeffs + locations + list(eqs.constants)), (seq.vectors, eqs.i, eqs.j, emit.__name__)


def test_full_model_chain_with_one_step():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    assert (d1.m, d2.m) == (2, 1)
    roots = default_roots(4)
    eqs = emit_full_model(d1, d2, roots)
    assert eqs.mu == 1
    assert len(eqs.polys) == 3
    reduced = emit_reduced_model(d1, d2, roots)
    assert eqs.polys[:2] == reduced.polys
    # the extra equation gains a lambda^2 factor over the previous one
    assert eqs.polys[2] == (Fraction(0), Fraction(0)) + eqs.polys[1]
    assert degree(eqs.polys[2]) == degree(eqs.polys[1]) + 2


def test_full_model_collapses_at_equal_multiplicities():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    assert emit_full_model(d1, d2, roots).polys == emit_reduced_model(d1, d2, roots).polys


def test_full_model_custom_constants():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    roots = default_roots(4)
    eqs = emit_full_model(d1, d2, roots, (1, 1, Fraction(5)))
    base = emit_full_model(d1, d2, roots, (1, 1, 1))
    assert eqs.polys[2] == tuple(5 * c for c in base.polys[2])


def test_int_constants_rescale_to_exact_rows():
    """A row rescaled from an int leading coefficient to an int constant holds ints and Fractions, never a float, so
    the record its writer emits reads back."""
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    roots = default_roots(4)
    cases = [
        (emit_full_model(d1, d2, roots)._replace(constants=(1, 1, 3)), classify_fibers(d1.l_total, d2.l_total, roots), ["0", "0", "0", "3"]),
        (ModelEquations(i=1, j=2, m_i=2, m_j=1, constants=(1, 2, 3), p1=(0, 0, 1), p2=(-2, 2)), classify_fibers((2, 2, 0), (1, 0, 1), default_roots(3)), ["0", "0", "-3", "3"]),
    ]
    for eqs, classes, third in cases:
        assert all(type(c) in (int, Fraction) for p in eqs.polys for c in p), eqs
        record = json.loads(json.dumps(model_record(eqs, classes)))
        assert record["P"][2] == third
        assert parse_model_record(record) == (eqs, tuple(classes))


def test_full_model_members_match_their_own_expansion():
    """Distinct, repeated and rational constants: member a is the reduced model with constants (c_1, c_a), times lambda^(2(a-2))."""
    _, d1, d2 = divisor_pair([(0, 1), (1, 4), (1, 3), (1, 2), (1, 1), (1, 0)], 1, 2)
    roots = ConformalRoots(k=6, tail=(Fraction(1, 3), Fraction(3, 2), Fraction(5, 2), Fraction(7)))
    cs = (Fraction(2, 3), Fraction(-1, 2), Fraction(5), Fraction(-1, 2), Fraction(7, 4))
    eqs = emit_full_model(d1, d2, roots, cs)
    assert eqs.mu == 3 and eqs.constants == cs
    assert eqs.polys[0] == emit_reduced_model(d1, d2, roots, cs[:2]).p1
    for a in range(2, len(cs) + 1):
        alone = emit_reduced_model(d1, d2, roots, (cs[0], cs[a - 1])).p2
        assert eqs.polys[a - 1] == (Fraction(0),) * (2 * (a - 2)) + alone


def test_hexagon_fiber_classification_exact():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    eqs = emit_reduced_model(d1, d2, roots, (1, 1))
    classes = classify_fibers(d1.l_total, d2.l_total, roots)
    assert (eqs.i, eqs.j) == (1, 2)
    assert [(c.location, c.kind, c.non_reduced, c.generic) for c in classes] == [
        (None, FOUR_PLANES, False, False),
        (Fraction(0), TWO_QUADRIC_CONES, False, False),
        (Fraction(1), TWO_QUADRIC_CONES, False, False),
        (Fraction(2), GENERIC_FOUR_NODAL, False, True),
    ]


def test_classification_flags_non_reduced_members():
    s = build_surface(validate([(0, 1), (1, 1), (2, 1), (3, 1), (1, 0)]))
    d1, d2 = solve_divisor_data(s, 1), solve_divisor_data(s, 2)
    assert d1.l_total == (1, 1, 1, 2, 1)
    roots = default_roots(5)  # labels 3,4,5 at 1,2,3
    eqs = emit_reduced_model(d1, d2, roots)
    assert (eqs.i, eqs.j) == (1, 2)
    classes = classify_fibers(d1.l_total, d2.l_total, roots)
    at_two = next(c for c in classes if c.location == Fraction(2))
    assert at_two.kind == FOUR_PLANES and at_two.non_reduced
    generic = [c for c in classes if c.generic]
    assert len(generic) == 1 and generic[0].location == Fraction(4)


def test_classification_complete_and_kind_matches_vanishing():
    for n in range(4):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            roots = default_roots(s.k)
            data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]
            for i in range(1, s.k):
                eqs = emit_reduced_model(data[i - 1], data[i], roots)
                di = next(d for d in data if d.alpha == eqs.i)
                dj = next(d for d in data if d.alpha == eqs.j)
                classes = classify_fibers(di.l_total, dj.l_total, roots)
                assert len(classes) == s.k + 1
                assert sum(1 for c in classes if c.generic) == 1
                for idx, c in enumerate(c for c in classes if not c.generic):
                    assert (c.kind, c.non_reduced) == expected_class(di.l_total[idx], dj.l_total[idx])


def test_classification_matches_oracle_vanishing_orders():
    """Every adjacent pair against the oracle's vanishing orders.

    On the default integer roots for n <= 6 (1275 reduced models), then for
    n <= 5 (351) with a rational tail per chain and rational constants per model.
    """
    rng = random.Random(5)
    for max_n, rational, expected in ((6, False, 1275), (5, True, 351)):
        models = 0
        for n in range(max_n + 1):
            for seq in enumerate_sequences(n):
                s = build_surface(seq)
                roots = ConformalRoots(k=s.k, tail=rational_tail(rng, s.k)) if rational else default_roots(s.k)
                data = {a: solve_divisor_data(s, a) for a in range(1, s.k + 1)}
                for i in range(1, s.k):
                    constants = (1, 1)
                    if rational:
                        constants = [Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4)) for _ in range(2)]
                    eqs = emit_reduced_model(data[i], data[i + 1], roots, constants)
                    di, dj = data[eqs.i], data[eqs.j]
                    orders1 = [root_multiplicity(eqs.p1, r) for r in roots.finite_roots]
                    orders2 = [root_multiplicity(eqs.p2, r) for r in roots.finite_roots]
                    assert orders1 == list(di.l_total[1:])
                    assert orders2 == list(dj.l_total[1:])
                    classes = classify_fibers(di.l_total, dj.l_total, roots)
                    assert [c.location for c in classes[1:-1]] == list(roots.finite_roots)
                    orders = zip([di.l_total[0]] + orders1, [dj.l_total[0]] + orders2)
                    for c, (o1, o2) in zip(classes[:-1], orders):
                        assert (c.kind, c.non_reduced) == expected_class(o1, o2)
                    models += 1
        assert models == expected


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 10**6), min_size=4, max_size=12), st.randoms(use_true_random=False))
@example([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6], random.Random(0))  # k = 14 with m up to 233
def test_deep_chain_models_follow_divisor_data(picks, rng):
    """Chains grown by random mediant insertion (k up to 14) with rational roots, every adjacent pair."""
    s = build_surface(validate(grow_by_mediants(picks)))
    roots = ConformalRoots(k=s.k, tail=rational_tail(rng, s.k))
    data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]
    for i in range(1, s.k):
        eqs = emit_reduced_model(data[i - 1], data[i], roots)
        di, dj = data[eqs.i - 1], data[eqs.j - 1]
        assert degree(eqs.p1) == 2 * di.m - di.l_total[0]
        assert degree(eqs.p2) == 2 * dj.m - dj.l_total[0]
        classes = classify_fibers(di.l_total, dj.l_total, roots)
        # infinity, then labels 2 .. k: the same order as l_total
        for c, li, lj in zip(classes[:-1], di.l_total, dj.l_total):
            assert (c.kind, c.non_reduced) == expected_class(li, lj)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 10**6), max_size=12), st.randoms(use_true_random=False))
@example([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6], random.Random(0))  # k = 14 with m up to 233
def test_reader_root_tests_agree_with_multiplicity_classes(picks, rng):
    """The classes read from l_total survive the record reader, which recovers l_total from P's top coefficients.

    Mediant chains up to k = 14, rational roots, rational constants: every adjacent
    pair as a reduced model, and one pair as a full model.
    """
    s = build_surface(validate(grow_by_mediants(picks)))
    roots = ConformalRoots(k=s.k, tail=rational_tail(rng, s.k))
    data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]

    def constant():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 5))

    full_at = rng.randrange(1, s.k)
    for i in range(1, s.k):
        pairs = [(emit_reduced_model, 2)]
        if i == full_at:
            mu = abs(data[i - 1].m - data[i].m)
            pairs.append((emit_full_model, mu + 2))
        for emit, count in pairs:
            eqs = emit(data[i - 1], data[i], roots, [constant() for _ in range(count)])
            classes = tuple(classify_fibers(data[eqs.i - 1].l_total, data[eqs.j - 1].l_total, roots))
            record = json.loads(json.dumps(model_record(eqs, classes)))
            assert parse_model_record(record) == (eqs, classes)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9), max_size=6),
    st.booleans(),
    st.lists(st.integers(0, 4), min_size=7, max_size=7),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
    st.integers(0, 2),
    st.sampled_from(("none", "shift", "foreign")),
    st.integers(0, 40),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
@example([], False, [3, 0, 0, 0, 0, 0, 0], Fraction(-2, 3), 1, "none", 0, Fraction(0))  # k = 2: P is c lambda^3
@example([Fraction(1, 2)] * 5, True, [1, 2, 0, 3, 1, 4, 0], Fraction(3, 4), 0, "none", 0, Fraction(0))  # Newton's j up to 5
# the constant term shifted: P's top coefficients, and so Newton's orders, stay, and only the rebuild differs
@example([Fraction(1, 2)] * 5, True, [1, 2, 0, 3, 1, 4, 0], Fraction(3, 4), 0, "shift", 0, Fraction(1, 7))
@example([Fraction(1), Fraction(2)], False, [0, 1, 1, 0, 0, 0, 0], Fraction(1), 2, "foreign", 0, Fraction(3))  # (lambda - 3) too
def test_the_reader_returns_the_oracle_multiplicities(steps, negative, mults, constant, slack, corruption, where, value):
    """c lambda^z prod (lambda - r_b)^l_b over a random tail of either sign, as written or corrupted, against the oracle.

    A coefficient shifted by a rational or a foreign root multiplied in: the reader returns 2m - deg P and
    root_multiplicity at every finite root when those account for deg P within 2m, and refuses P otherwise.
    """
    tail = tuple([-r if negative else r for r in accumulate(steps)])
    roots = ConformalRoots(k=len(tail) + 2, tail=tail)
    l = mults[: roots.k - 1]
    p = [constant * c for c in (0,) * l[0] + ratpoly.from_factors(zip(tail, l[1:]))]
    two_m = 2 * ((len(p) - 1 + slack + 1) // 2)
    if corruption == "shift":
        p[where % len(p)] += value
    elif corruption == "foreign":
        p = [hi - value * lo for hi, lo in zip([0] + p, p + [0])]
    p = ratpoly.normalized(p)
    assume(p)  # the record reader refuses a zero row before it counts
    orders = [root_multiplicity(p, r) for r in roots.finite_roots]
    if degree(p) <= two_m and sum(orders) == degree(p):
        assert models._multiplicities(p, two_m, roots) == [two_m - degree(p)] + orders
    else:
        with pytest.raises(ValueError, match="'P'"):
            models._multiplicities(p, two_m, roots)


def counted(name: str, monkeypatch: pytest.MonkeyPatch, source=ratpoly) -> list:
    """Count the calls of source.<name> through every twistoric module that binds it."""
    original = getattr(source, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for info in pkgutil.iter_modules(twistoric.__path__):
        module = importlib.import_module(f"twistoric.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("picks", [[], [0], [0, 1, 1, 2], [3, 1, 4, 1, 5, 9, 2, 6], [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]])
def test_each_pencil_product_is_expanded_once(picks, monkeypatch):
    """A k-chain's report expands k label products and a single model two: neither reads back a model, whose reader expands too.

    classify expands nothing.  The report reads its divisor data off the pairing rows, and the listing grows
    its m from the base chain's rows; neither goes through the checked solver for free fibers.
    """
    seq = validate(grow_by_mediants(picks))
    expanded = counted("from_factors", monkeypatch)
    checked = counted("solve_from_fibers", monkeypatch, divisors)
    for constants in (None, (Fraction(3, 2), -5)):
        del expanded[:]
        analyze_sequence(seq, constants=constants)
        assert len(expanded) == seq.k
    for full in (False, True):
        del expanded[:]
        run_model(seq.vectors, 1, seq.k, full=full)
        assert len(expanded) == 2
    del expanded[:]
    for constants in (None, (Fraction(3, 2), -5)):
        run_classify(seq.vectors, 1, seq.k, constants=constants)
    assert expanded == []
    split = counted("invariant_fibers", monkeypatch, fibers)
    run_enumerate(4)
    assert checked == [] and split == []


@pytest.mark.parametrize("distinct", [1, 2, 3, 5, 9])
def test_the_writer_formats_each_distinct_polynomial_once(distinct, monkeypatch):
    """model_record formats P_1 once and P_2 once per distinct constant among c_2 .. c_{mu+2}.

    With all constants equal, or none given, it formats two polynomials for the mu + 2 rows; with m distinct
    trailing constants, 1 + m.
    """
    _, d1, d2 = divisor_pair(grow_by_mediants([0, 1, 1, 2, 2, 3]), 5, 6)
    mu = d1.m - d2.m
    assert mu == 8
    trailing = [Fraction(-1, 3)] + [Fraction(t % distinct + 2, 3) for t in range(mu + 1)]
    formatted = counted("poly_to_strings", monkeypatch)
    for constants, calls in [(None, 2), ([Fraction(5, 7)] * (mu + 2), 2), (trailing, 1 + distinct)]:
        del formatted[:]
        rows = model_record(emit_full_model(d1, d2, default_roots(8), constants), ())["P"]
        assert len(rows) == mu + 2 and len(formatted) == calls


def test_vanishing_at_generic_sample_is_a_value_error():
    # hand-built record: P_1 = lambda - 2 vanishes at the sample 2 for roots 0, 1, so it is no
    # constant times factors at the listed locations; only the reader checks that, since the
    # pipeline's constants are nonzero and its roots distinct
    def at(location, kind, generic=False):
        return {"at": location, "kind": kind, "nonReduced": False, "generic": generic}

    record = {
        "i": 1,
        "j": 2,
        "mu": 0,
        "bundle": [1, 1, 1, 1],
        "c": ["1", "1"],
        "P": [["-2", "1"], ["0", "1"]],
        "fibers": [at("inf", FOUR_PLANES), at("0", TWO_QUADRIC_CONES), at("1", GENERIC_FOUR_NODAL), at("2", GENERIC_FOUR_NODAL, True)],
    }
    with pytest.raises(ValueError, match="'P' must be c \\* prod"):
        parse_model_record(record)


def library_trees():
    for path in sorted(Path(twistoric.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_library_code_has_no_assert():
    for name, tree in library_trees():
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], name


def test_library_code_builds_no_tuple_from_a_generator():
    """tuple(<generator>) sizes its result by resizing, which moves tuples between CPython's
    per-size free lists and lets memory creep on the per-operation path; tuple([...]) does not."""
    for name, tree in library_trees():
        bad = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
        ]
        assert not bad, (name, bad)


def test_emitted_polynomials_factor_exactly():
    """Every member of reduced and full models is c_a lambda^(2(a-2)) prod (lambda - r_b)^(l_b), checked in sympy.

    P_1 takes c_1 and the l_total of i, every later member the l_total of j (lambda^0 at a = 2).  The roots and
    the constants are rationals, none of the constants one and no two equal, so this is the check on how the
    models scale.  It checks both polys and the rows model_record writes, which share P_2's strings.
    """
    x = sympy.Symbol("x")
    rational = lambda q: sympy.Rational(q.numerator, q.denominator)
    for n in range(4):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            roots = ConformalRoots(k=s.k, tail=tuple([Fraction(2 * t + 1, 3) for t in range(1, s.k - 1)]))
            data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]
            for i in range(1, s.k):
                mu = abs(data[i - 1].m - data[i].m)
                for emit, count in ((emit_reduced_model, 2), (emit_full_model, mu + 2)):
                    cs = [Fraction((-1) ** a * (a + 2), a + 1) for a in range(1, count + 1)]
                    eqs = emit(data[i - 1], data[i], roots, cs)
                    rows = model_record(eqs, ())["P"]
                    assert len(eqs.polys) == len(rows) == count and eqs.constants == tuple(cs)
                    for a, (p, row) in enumerate(zip(eqs.polys, rows), start=1):
                        l_total = data[(eqs.i if a == 1 else eqs.j) - 1].l_total
                        expected = rational(cs[a - 1]) * x ** (2 * max(a - 2, 0))
                        for r, l in zip(roots.finite_roots, l_total[1:]):
                            expected *= (x - rational(r)) ** l
                        for got in (p, [Fraction(c) for c in row]):
                            got = sum(rational(c) * x**e for e, c in enumerate(got))
                            assert sympy.expand(got - expected) == 0, (seq.vectors, eqs.i, eqs.j, a)


@given(
    st.lists(st.fractions(min_value=Fraction(1, 7), max_value=50, max_denominator=7), max_size=5),
    st.booleans(),
    st.lists(st.integers(0, 9), min_size=7, max_size=7),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(lambda c: c != 0),
)
@example([Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)], False, [0, 9, 9, 9, 9, 0, 0], Fraction(1))
@example([Fraction(49, 1), Fraction(50, 1)], True, [3, 0, 0, 9, 0, 0, 0], Fraction(-1000, 999))
def test_model_size_bounds_every_coefficient(steps, negative, mults, constant):
    """model_size gives the exact degree and at least as many bits as any numerator or denominator of the polynomial."""
    tail = tuple([-r if negative else r for r in accumulate(steps)])
    roots = ConformalRoots(k=len(tail) + 2, tail=tail)
    l_total = tuple(mults[: roots.k])
    p = [constant * c for c in ratpoly.from_factors(zip(roots.finite_roots, l_total[1:]))]
    deg, bits = twistoric.model_size(l_total, roots, constant)
    assert deg == len(p) - 1
    assert bits >= max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p)
    # and it is the documented sum, label 2's zero root counted as bitlen(0 + 1) = 1 bit per multiplicity, so the
    # writer's budget refuses exactly what it refused when model_size took each root's weight on every call
    weights = [(abs(r.numerator) + r.denominator).bit_length() for r in roots.finite_roots]
    assert bits == max(constant.numerator.bit_length(), constant.denominator.bit_length()) + sum(l * w for l, w in zip(l_total[1:], weights))


def test_system_meta_frozen_values():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    meta = system_meta(d1, d2)
    assert (meta.mu, meta.dim_w_i, meta.dim_w_j) == (0, 4, 4)
    assert (meta.dim_combined, meta.num_coords) == (6, 6)
    _, e1, e2 = divisor_pair([(0, 1), (1, 1), (2, 1), (1, 0)], 1, 2)
    meta2 = system_meta(e1, e2)
    assert (meta2.mu, meta2.dim_combined, meta2.num_coords) == (1, 9, 9)
    with pytest.raises(ValueError):
        system_meta(e2, e1)


def test_system_meta_identities_all_instances():
    for n in range(5):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]
            for i in range(s.k):
                for j in range(s.k):
                    if i == j or data[i].m < data[j].m:
                        continue
                    meta = system_meta(data[i], data[j])
                    assert meta.num_coords - data[i].m == 2 * meta.mu + 5
                    assert meta.dim_combined == 3 * data[i].m - 2 * data[j].m + 5
                    assert meta.dim_combined == meta.dim_w_i + 2 * (meta.mu + 1)


def test_open_model_description():
    _, d1, d2 = divisor_pair([(0, 1), (1, 1), (1, 0)], 1, 2)
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    eqs = emit_reduced_model(d1, d2, roots, (1, 1))
    record = emit_open_model_description(eqs)
    assert record["totalSpace"] == {"base": "CP1", "bundleDegrees": [1, 1, 1, 1]}
    assert record["equations"] == ["xi1*xi2 = lambda - 1", "xi3*xi4 = lambda"]
    assert record["warnings"] == []
    warned = emit_open_model_description(eqs, map_degree=2)
    assert warned["warnings"] == ["map is 2:1, not a projective model"]


def test_infinity_multiplicity_matches_divisor_data():
    for n in range(4):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            roots = default_roots(s.k)
            data = [solve_divisor_data(s, a) for a in range(1, s.k + 1)]
            for i in range(1, s.k):
                eqs = emit_reduced_model(data[i - 1], data[i], roots)
                di = next(d for d in data if d.alpha == eqs.i)
                dj = next(d for d in data if d.alpha == eqs.j)
                assert 2 * di.m - degree(eqs.p1) == di.l_total[0]
                assert 2 * dj.m - degree(eqs.p2) == dj.l_total[0]
                assert evaluate(eqs.p1, Fraction(10**6) + Fraction(1, 7)) != 0
