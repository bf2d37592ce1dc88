"""Exact polynomial arithmetic over the rationals.

Polynomials are tuples in ascending degree order with no trailing zeros, the zero polynomial the
empty tuple, of ints or Fractions; equal values compare and hash alike.  Only what the model emitter
and the model-record reader need lives here.  from_factors, the one expander, runs on ints: it
multiplies one list in place by each linear factor (q lambda - a), with the denominators cleared, and
returns ints when every coefficient is integral, Fractions otherwise.  The writer expands each label's
product with it, and the model-record reader rebuilds P with it and compares.  normalized, and so the
reader, makes Fractions; evaluate is exact, and stays on ints for int input.  The tests check from_factors
against sympy and keep the expander it replaced, and synthetic division, as oracles.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .lattice import _fraction, _read

Poly = tuple[int | Fraction, ...]

__all__ = [
    "Poly",
    "degree",
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


def evaluate(p: Poly, x: Fraction | int) -> Fraction | int:
    """p at x, exactly: an int when p and x are ints."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_to_strings(p: Poly) -> list[str]:
    return [str(c) for c in p]


def poly_from_strings(items: object) -> Poly:
    """The inverse of poly_to_strings: one JSON list of 'p/q' strings, as in a model record's 'P'.

    Anything poly_to_strings does not emit ('2/4', 0.5, true, a trailing '0') is a ValueError naming 'P'.
    """
    return _read(items, lambda row: normalized([_fraction(s) for s in row]), poly_to_strings, "P")


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
