"""Exact rational polynomial helpers, cross-checked against sympy, the
synthetic-division oracle and the Fraction evaluator."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from twistoric.ratpoly import (
    cleared,
    degree,
    derivative,
    evaluate,
    from_factors,
    normalized,
    poly_from_strings,
    poly_to_strings,
    render,
    vanishes,
)

from oracles import root_multiplicity


def test_normalized_strips_trailing_zeros():
    assert normalized([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert normalized([0, 0]) == ()
    assert degree(()) == -1
    assert degree(normalized([3])) == 0


def test_from_factors_hexagon_polynomials():
    assert from_factors([(Fraction(1), 1)]) == (Fraction(-1), Fraction(1))
    assert from_factors([(Fraction(0), 1)]) == (Fraction(0), Fraction(1))


def scaled(c, factors):
    """c times the monic product from_factors expands; the models scale with their own constants."""
    return tuple([c * x for x in from_factors(factors)])


def _to_sympy(p):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p))


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda f: f != 0),
    st.lists(st.tuples(small_fracs, st.integers(0, 3)), min_size=0, max_size=3),
)
def test_from_factors_matches_sympy_expansion(scale, factors):
    assert from_factors(factors)[-1] == 1
    p = scaled(scale, factors)
    x = sympy.Symbol("x")
    expected = sympy.Rational(scale.numerator, scale.denominator)
    for root, mult in factors:
        expected *= (x - sympy.Rational(root.numerator, root.denominator)) ** mult
    assert sympy.expand(_to_sympy(p) - expected) == 0


@given(small_fracs, st.lists(st.tuples(small_fracs, st.integers(0, 3)), min_size=1, max_size=3))
def test_root_multiplicity_agrees_with_construction(probe, factors):
    p = scaled(Fraction(2, 3), factors)
    expected = sum(mult for root, mult in factors if root == probe)
    assert root_multiplicity(p, probe) == expected
    if expected == 0:
        assert evaluate(p, probe) != 0


@given(small_fracs, st.lists(st.tuples(small_fracs, st.integers(0, 3)), min_size=1, max_size=3))
def test_double_root_iff_value_and_derivative_vanish(probe, factors):
    p = scaled(Fraction(2, 3), factors)
    double = evaluate(p, probe) == 0 and evaluate(derivative(p), probe) == 0
    assert double == (root_multiplicity(p, probe) >= 2)


def test_derivative_exact():
    assert derivative(normalized([Fraction(1, 2), 3, 0, Fraction(-2, 3)])) == (3, 0, -2)
    assert derivative(normalized([5])) == ()
    assert derivative(()) == ()
    ints = derivative([7, 3, 0, -2])
    assert ints == (3, 0, -6) and all(type(c) is int for c in ints)
    assert derivative([1, 2, 0]) == (2,) and derivative([4, 0]) == ()


def test_cleared_scales_by_the_common_denominator():
    p = normalized([Fraction(1, 2), Fraction(-2, 3), 0, 5])
    assert cleared(p) == [3, -4, 0, 30]
    assert cleared(normalized([2, 4])) == [2, 4]
    assert cleared(()) == []


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), max_size=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda f: f != 0),
    st.lists(st.tuples(small_fracs, st.integers(0, 3)), max_size=3),
    small_fracs,
)
def test_integer_root_test_matches_fraction_evaluation(coeffs, scale, factors, probe):
    """vanishes on the cleared coefficients agrees with evaluate, at random points and at the roots."""
    for p in (normalized(coeffs), scaled(scale, factors)):
        c, d = cleared(p), derivative(cleared(p))
        assert all(type(x) is int for x in c + list(d))
        for x in [probe, Fraction(0)] + [root for root, _ in factors]:
            assert vanishes(c, x) == (evaluate(p, x) == 0)
            assert vanishes(d, x) == (evaluate(derivative(p), x) == 0)


def test_evaluate_exact():
    p = normalized([Fraction(1, 2), Fraction(0), Fraction(1)])  # x^2 + 1/2
    assert evaluate(p, Fraction(1, 3)) == Fraction(1, 9) + Fraction(1, 2)


def test_render_readable():
    assert render(normalized([-1, 1])) == "lambda - 1"
    assert render(normalized([0, 1])) == "lambda"
    assert render(normalized([Fraction(1, 2), -2, 1])) == "lambda^2 - 2*lambda + 1/2"
    assert render(()) == "0"
    assert render(normalized([0, 0, Fraction(-3, 4)])) == "-3/4*lambda^2"


def test_string_round_trip():
    p = scaled(Fraction(-5, 7), [(Fraction(2, 3), 2), (Fraction(-1), 1)])
    assert poly_from_strings(poly_to_strings(p)) == p
    for bad in (["1/2", 0.5], ["1", True], "1/2", ["1/0"]):
        with pytest.raises(ValueError, match="'P'"):
            poly_from_strings(bad)
