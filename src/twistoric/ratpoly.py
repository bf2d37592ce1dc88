"""Exact polynomial arithmetic over the rationals.

Polynomials are tuples in ascending degree order with no trailing zeros, the zero polynomial the
empty tuple, of ints or Fractions; equal values compare and hash alike.  Only what the model emitter
and the model-record reader need lives here.  from_factors, the one expander, runs on ints: it
multiplies one list in place by two linear factors (q lambda - a) per pass, an odd count's last one
paired with lambda, with the denominators cleared, and returns ints when every coefficient is
integral, Fractions otherwise.  It can start from a product it returned, so the writer grows each
label's product from a neighbour's that divides it, and the model-record reader rebuilds P with it
and compares.  normalized, and so the reader, makes Fractions; evaluate is exact, and stays on ints
for int input.  The tests check from_factors against sympy and keep the expander it replaced, and
synthetic division, as oracles.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

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


def from_factors(factors: Iterable[tuple[Fraction | int, int]], start: Poly = (1,)) -> Poly:
    """start times the product of (x - root)^mult over the given factors; start, one unless given, is a product it returned.

    Expands on ints, in place: from start's coefficients, Fractions taken over their common denominator, two linear
    factors per pass, (q1 x - a1)(q2 x - a2) for roots a1/q1 and a2/q2, from the bottom up; an odd count pairs its last
    root with 0, so the one kernel also multiplies by x, and drops the product's zero constant term at the end.  The
    denominator gains each q.  The coefficients stay ints when all are integral and become Fractions
    otherwise; equal values compare and hash alike.
    """
    # a product from_factors returned holds ints throughout, or Fractions throughout
    den = lcm(*[c.denominator for c in start]) if isinstance(start[0], Fraction) else 1
    p = list(start) if den == 1 else [c.numerator * (den // c.denominator) for c in start]
    line = []
    for root, mult in factors:
        line += (root,) * mult
        den *= root.denominator**mult
    odd = len(line) % 2
    pairs = iter(line + [0] * odd)
    for r1, r2 in zip(pairs, pairs):
        # times (qq x^2 + b x + c): p[t] becomes qq * p[t-2] + b * p[t-1] + c * p[t], carrying the old p[t-2] and
        # p[t-1]; qq = 1 copies no big int
        a1, q1, a2, q2 = r1.numerator, r1.denominator, r2.numerator, r2.denominator
        qq, b, c = q1 * q2, -(q1 * a2 + q2 * a1), a1 * a2
        before = prev = 0
        for t, x in enumerate(p):
            p[t] = (before if qq == 1 else qq * before) + b * prev + c * x
            before, prev = prev, x
        p += ((before if qq == 1 else qq * before) + b * prev, prev if qq == 1 else qq * prev)
    del p[:odd]
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
