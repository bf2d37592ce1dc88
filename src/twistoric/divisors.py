"""Divisor data of the twistor pencil members over the surface.

For index alpha the pencil member restricts on the surface to m * C - f + fbar,
with C the anticanonical cycle and f - fbar = row, pairing row alpha - 1 and its
negation.  It decomposes uniquely over the 2k half-cycles (the plus one for beta
covers the k components after position beta circularly, the minus one the other k)
as a sum that runs from sum(l_minus) at position 0 by the steps l_plus[b] - l_minus[b],
b < k, then by the first k - 1 steps negated.  So l_plus and l_minus are the positive
and negative parts of row[b] - row[b + 1], b < k, and m = row[0] + sum(l_minus).
The positions past k hold exactly when row[s] + row[k + s] is one value for all
s < k (InconsistentSystem), and m >= 1 (NegativeMultiplicity).  The half-cycles
themselves live in the test oracles, the independent reference for the sum.
The enumeration listing reads m here on the base chain only (report grows it).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .errors import InconsistentSystem, IndexMismatch, NegativeMultiplicity
from .lattice import _read
from .surface import Divisor, ToricSurface

__all__ = [
    "TwistorDivisorData",
    "solve_divisor_data",
    "solve_from_fibers",
]


class TwistorDivisorData(namedtuple("TwistorDivisorData", "alpha m l_plus l_minus")):
    """Pencil multiplicity m and the k half-cycle multiplicities l_plus, l_minus for index alpha."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.l_plus)

    @property
    def l_total(self) -> tuple[int, ...]:
        return tuple([p + q for p, q in zip(self.l_plus, self.l_minus)])

    def build_divisor(self) -> Divisor:
        """The weighted half-cycle sum as one divisor (the running sum of the module docstring)."""
        steps = [p - q for p, q in zip(self.l_plus, self.l_minus)]
        return tuple([*accumulate(steps + [-d for d in steps[:-1]], initial=sum(self.l_minus))])

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "m": self.m,
            "lPlus": list(self.l_plus),
            "lMinus": list(self.l_minus),
        }

    @staticmethod
    def from_json(data: dict) -> "TwistorDivisorData":
        return _read(data, _parse_divisor_data, TwistorDivisorData.to_json, "divisors")


def _parse_divisor_data(data: dict) -> TwistorDivisorData:
    l_plus, l_minus = [_read(data[key], lambda xs: tuple([int(x) for x in xs]), list, key) for key in ("lPlus", "lMinus")]
    if len(l_plus) != len(l_minus):
        raise ValueError(f"'lPlus' and 'lMinus' must have one entry per label, got {len(l_plus)} and {len(l_minus)}")
    # the solvers emit the positive and negative parts of each step, and m >= 1
    if min(l_plus + l_minus, default=0) < 0 or any(p and q for p, q in zip(l_plus, l_minus)):
        raise ValueError(f"'lPlus' and 'lMinus' must be nonnegative and not both positive at one label, got {list(l_plus)} and {list(l_minus)}")
    m = int(data["m"])
    if m < 1:
        raise ValueError(f"'m' must be at least 1, got {m}")
    return TwistorDivisorData(alpha=int(data["alpha"]), m=m, l_plus=l_plus, l_minus=l_minus)


def _from_row(row: Divisor, alpha: int) -> TwistorDivisorData:
    """The divisor data whose m * C - f + fbar has f - fbar = row, read off the first difference of its k + 1 values."""
    steps = [row[b] - row[b + 1] for b in range(len(row) - 1)]
    l_plus, l_minus = tuple([d if d > 0 else 0 for d in steps]), tuple([-d if d < 0 else 0 for d in steps])
    m = row[0] + sum(l_minus)
    if m < 1:
        raise NegativeMultiplicity(f"pencil multiplicity m = {m} for index {alpha}")
    return TwistorDivisorData(alpha=alpha, m=m, l_plus=l_plus, l_minus=l_minus)


def solve_from_fibers(f: Divisor, fbar: Divisor, alpha: int) -> TwistorDivisorData:
    """The checked solver for free (f, fbar) of one even length 2k >= 2; see module docstring."""
    if len(f) != len(fbar) or len(f) % 2 or len(f) < 2:
        raise IndexMismatch(f"fibers must share one even length of at least 2, got {len(f)} and {len(fbar)}")
    row, k = [x - y for x, y in zip(f, fbar)], len(f) // 2
    sums = [row[s] + row[k + s] for s in range(k)]
    if len(set(sums)) != 1:
        # position k + s misses m by sums[s] - sums[0]; m is row[0] plus the rises of row over positions 0 .. k
        m = row[0] + sum([b - a for a, b in zip(row, row[1 : k + 1]) if b > a])
        raise InconsistentSystem(f"component equations disagree for index {alpha}: {sorted({m + t - sums[0] for t in sums})}")
    return _from_row(row[: k + 1], alpha)  # row[k] = sums[0] - row[0], which is -row[0] only for a surface row


def solve_divisor_data(surface: ToricSurface, alpha: int) -> TwistorDivisorData:
    """Divisor data for index alpha, read off pairing row alpha - 1 unchecked: ray k pairs to -row[0], and the rest repeat."""
    return _from_row((row := surface.row(alpha)) + (-row[0],), alpha)
