"""Exact rational polynomial helpers, cross-checked against sympy, the
shift-and-subtract expander and the Fraction evaluator; the synthetic-division
oracle is checked against the products it divides."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

from twistoric.ratpoly import (
    degree,
    evaluate,
    from_factors,
    normalized,
    poly_from_strings,
    poly_to_strings,
    render,
)

from oracles import root_multiplicity, shift_and_subtract_product


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


@given(st.lists(st.tuples(st.fractions(min_value=-40, max_value=40, max_denominator=7), st.integers(0, 12)), max_size=5))
@example([(Fraction(0), 12), (Fraction(-33, 7), 12), (Fraction(5, 6), 11), (Fraction(40), 12)])
@example([(Fraction(3, 7), 1), (Fraction(0), 3), (Fraction(-1), 12), (Fraction(0), 2)])
def test_from_factors_matches_the_shift_and_subtract_oracle(factors):
    """The in-place kernel against the expander it replaced: roots of both signs and zero, denominators up to 7,
    multiplicities up to 12, where the sympy check above stops at 3.  The coefficients are ints exactly when every
    root that occurs is integral, since a monic product with a root a/q, q > 1, has a coefficient that is not."""
    p = from_factors(factors)
    assert p == shift_and_subtract_product(factors)
    integral = all(root.denominator == 1 for root, mult in factors if mult)
    assert all(type(c) is (int if integral else Fraction) for c in p) and p[-1] == 1


signed_roots = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=8))


@given(st.lists(st.tuples(signed_roots, st.integers(0, 5), st.integers(0, 5)), max_size=4))
@example([(Fraction(1, 2), 3, 0), (3, 0, 2)])  # a Fraction start extended by an int root
@example([(2, 1, 1), (Fraction(-5, 3), 0, 3)])  # an int start extended by a Fraction root
@example([(0, 2, 1), (-1, 0, 0)])
def test_an_extended_product_is_the_product_from_scratch(factors):
    """from_factors of the extra factors, from a product it returned, is the product of all the factors at once.

    Roots of both signs and zero, ints and Fractions, in the start, the extension or both, with odd and even counts of
    extra linear factors; the coefficients are ints exactly when the whole product's are, and sympy agrees.
    """
    start = from_factors([(root, base) for root, base, _ in factors])
    extended = from_factors([(root, more) for root, _, more in factors], start)
    whole = [(root, base + more) for root, base, more in factors]
    assert extended == from_factors(whole) == shift_and_subtract_product(whole)
    integral = all(Fraction(root).denominator == 1 for root, mult in whole if mult)
    assert all(type(c) is (int if integral else Fraction) for c in extended)
    x = sympy.Symbol("x")
    expected = sympy.Integer(1)
    for root, mult in whole:
        expected *= (x - sympy.Rational(root.numerator, root.denominator)) ** mult
    assert sympy.expand(_to_sympy(extended) - expected) == 0


@given(small_fracs, st.lists(st.tuples(small_fracs, st.integers(0, 3)), min_size=1, max_size=3))
def test_root_multiplicity_agrees_with_construction(probe, factors):
    p = scaled(Fraction(2, 3), factors)
    expected = sum(mult for root, mult in factors if root == probe)
    assert root_multiplicity(p, probe) == expected
    if expected == 0:
        assert evaluate(p, probe) != 0


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
