"""Exact polynomial arithmetic over the rationals.

Polynomials are tuples of Fractions in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  Only the handful
of operations the model emitter needs live here.  There is no root testing
and no general multiplication; the tests hold those as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Poly = tuple[Fraction, ...]

__all__ = [
    "Poly",
    "degree",
    "derivative",
    "evaluate",
    "from_factors",
    "normalized",
    "poly_from_strings",
    "poly_to_strings",
    "render",
]


def normalized(coeffs: Iterable[Fraction | int]) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def from_factors(scale: Fraction, factors: Iterable[tuple[Fraction, int]]) -> Poly:
    """scale times the product of (x - root)^mult over the given factors."""
    p = [Fraction(scale)]
    for root, mult in factors:
        for _ in range(mult):
            # times (x - root), one shift-and-subtract: new[t] = p[t-1] - root * p[t]
            p = [a - root * b for a, b in zip([0] + p, p + [0])]
    return normalized(p)


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return normalized([t * c for t, c in enumerate(p)][1:])


def poly_to_strings(p: Poly) -> list[str]:
    return [str(c) for c in p]


def poly_from_strings(items: Sequence[str]) -> Poly:
    return normalized([Fraction(s) for s in items])


def render(p: Poly, var: str = "lambda") -> str:
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
            pw = var if d == 1 else f"{var}^{d}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
