"""Exact polynomial arithmetic over the rationals.

Polynomials are tuples in ascending degree order with no trailing zeros, the zero polynomial the
empty tuple, of ints or Fractions; equal values compare and hash alike.  Only what the model emitter
and the model-record reader need lives here, and it runs on ints: from_factors multiplies one list in
place by each linear factor (q lambda - a), with the denominators cleared, and returns ints when every
coefficient is integral, Fractions otherwise.  normalized, and so the reader, makes Fractions.
divided is synthetic division by (b lambda - a); only the model-record reader runs it, where P is
free data, and counts a root's multiplicity as the number of exact divisions.  The tests check both
against sympy and evaluate, the exact Fraction evaluator, and keep the expander from_factors
replaced as an oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from .lattice import _read

Poly = tuple[int | Fraction, ...]

__all__ = [
    "Poly",
    "cleared",
    "degree",
    "divided",
    "evaluate",
    "from_factors",
    "normalized",
    "poly_from_strings",
    "poly_to_strings",
    "render",
]


def normalized(coeffs: Iterable[Fraction | int]) -> Poly:
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def from_factors(factors: Iterable[tuple[Fraction, int]]) -> Poly:
    """The monic product of (x - root)^mult over the given factors.

    Expands on ints, in place: root a/q multiplies the list by (q x - a), from the bottom up, and the common denominator
    by q.  The coefficients stay ints when all are integral and become Fractions otherwise; equal values compare and hash alike.
    """
    p, den = [1], 1
    for root, mult in factors:
        a, q = root.numerator, root.denominator
        for _ in range(mult):
            # times (q x - a): p[t] becomes q * p[t-1] - a * p[t], carrying the old p[t-1]; q = 1 copies no big int
            prev = 0
            for t, c in enumerate(p):
                p[t] = (prev if q == 1 else q * prev) - a * c
                prev = c
            p.append(q * prev)
        den *= q**mult
    return tuple(p if den == 1 else [Fraction(c, den) for c in p])


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def cleared(p: Poly) -> list[int]:
    """The coefficients of p times their least common denominator."""
    den = lcm(*[c.denominator for c in p])
    return [c.numerator * (den // c.denominator) for c in p]


def divided(coeffs: Sequence[int], x: Fraction) -> list[int] | None:
    """The integer polynomial divided by (b lambda - a) for x = a/b, or None when x is no root.

    Gauss's lemma keeps an exact quotient integral, so synthetic division from the top stays on ints.
    """
    a, b = x.numerator, x.denominator
    quotient, carry = [], 0
    for c in reversed(coeffs[1:]):
        carry, rest = divmod(c + a * carry, b)
        if rest:
            return None
        quotient.append(carry)
    return None if coeffs and coeffs[0] + a * carry else quotient[::-1]


def poly_to_strings(p: Poly) -> list[str]:
    return [str(c) for c in p]


def poly_from_strings(items: object) -> Poly:
    """The inverse of poly_to_strings: one JSON list of 'p/q' strings, as in a model record's 'P'.

    Anything poly_to_strings does not emit ('2/4', 0.5, true, a trailing '0') is a ValueError naming 'P'.
    """
    return _read(items, lambda row: normalized([Fraction(s) for s in row]), poly_to_strings, "P")


def render(p: Poly) -> str:
    """Human-readable form, highest degree first: '2*lambda^2 - 1/3'."""
    if not p:
        return "0"
    parts: list[str] = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            pw = "lambda" if d == 1 else f"lambda^{d}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
