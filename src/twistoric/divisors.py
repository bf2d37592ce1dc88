"""Divisor data of the twistor pencil members over the surface.

For each index alpha the pencil member Y restricts on the surface to
m * C - f + fbar, where C is the anticanonical cycle and (f, fbar) the
invariant fibers for alpha.  That divisor decomposes uniquely over the 2k
half-cycles: the plus half-cycle for beta covers the k components that
follow position beta circularly, the minus half-cycle the complementary k.

The weighted sum of the half-cycles is one running sum over the positions.
Position 0 lies in every minus half-cycle and in no plus half-cycle, so it
carries sum(l_minus).  Stepping from position r to r + 1 enters the plus
half-cycle of label r + 1 (leaving its minus) while r < k, and leaves the
plus half-cycle of label r + 1 - k from then on, so the steps are
d_b = l_plus[b] - l_minus[b] for b < k followed by -d_0 .. -d_{k-2}.

Solving reads those steps off the target g = fbar - f: the difference
g[b + 1] - g[b] pins l_plus[b] - l_minus[b], and requiring one of each pair
to vanish pins both.  Position 0 then gives m = sum(l_minus) - g[0], and the
equations at positions 1 .. k hold by construction.  At position k + s the
sum gives m + g[0] + g[k] - g[s] - g[k + s], so all 2k equations hold exactly
when g[s] + g[k + s] is the same for every s < k.  That condition
(InconsistentSystem) and m >= 1 (NegativeMultiplicity) guard arbitrary
(f, fbar).  The half-cycle positions live in the test oracles, where they are
the independent reference for the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import InconsistentSystem, NegativeMultiplicity
from .lattice import _read
from .surface import Divisor, ToricSurface
from .fibers import invariant_fibers

__all__ = [
    "TwistorDivisorData",
    "solve_divisor_data",
    "solve_from_fibers",
]


@dataclass(frozen=True)
class TwistorDivisorData:
    """Pencil multiplicity m and half-cycle multiplicities for one index."""

    alpha: int
    m: int
    l_plus: tuple[int, ...]
    l_minus: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.l_plus)

    @property
    def l_total(self) -> tuple[int, ...]:
        return tuple([p + q for p, q in zip(self.l_plus, self.l_minus)])

    def build_divisor(self) -> Divisor:
        """The weighted half-cycle sum as one divisor (the running sum of the module docstring)."""
        return _accumulate(self.l_plus, self.l_minus)

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
    return TwistorDivisorData(alpha=int(data["alpha"]), m=int(data["m"]), l_plus=l_plus, l_minus=l_minus)


def _accumulate(l_plus: tuple[int, ...], l_minus: tuple[int, ...]) -> Divisor:
    steps = [p - q for p, q in zip(l_plus, l_minus)]
    return tuple([*accumulate(steps + [-d for d in steps[:-1]], initial=sum(l_minus))])


def solve_from_fibers(f: Divisor, fbar: Divisor, alpha: int) -> TwistorDivisorData:
    """Decompose m * C - f + fbar over half-cycles; see module docstring."""
    k = len(f) // 2
    g = [fbar[r] - f[r] for r in range(2 * k)]
    # crossing position b+1 (1-based) toggles exactly the beta = b+1 pair
    steps = [g[b + 1] - g[b] for b in range(k)]
    l_plus, l_minus = tuple([d if d > 0 else 0 for d in steps]), tuple([-d if d < 0 else 0 for d in steps])
    if len({g[s] + g[k + s] for s in range(k)}) != 1:
        built = _accumulate(l_plus, l_minus)
        m_values = {built[r] - g[r] for r in range(2 * k)}
        raise InconsistentSystem(f"component equations disagree for index {alpha}: {sorted(m_values)}")
    m = sum(l_minus) - g[0]
    if m < 1:
        raise NegativeMultiplicity(f"pencil multiplicity m = {m} for index {alpha}")
    return TwistorDivisorData(alpha=alpha, m=m, l_plus=l_plus, l_minus=l_minus)


def solve_divisor_data(surface: ToricSurface, alpha: int) -> TwistorDivisorData:
    """Divisor data of the pencil member for index alpha on this surface."""
    f, fbar = invariant_fibers(surface, alpha)
    return solve_from_fibers(f, fbar, alpha)
