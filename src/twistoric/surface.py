"""Smooth complete toric surface attached to an action sequence.

The fan has 2k rays: the k sequence vectors followed by their negatives,
in circular order.  Component index r runs 0 .. 2k-1; indices 0 .. k-1 are
the invariant curves C_1 .. C_k and indices k .. 2k-1 their conjugates
(the curves on the antipodal rays).  Divisors supported on the invariant
curves are plain integer coefficient tuples of length 2k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import IndexMismatch, NonSmoothFan
from .lattice import ActionSequence, Vector, det2

Divisor = tuple[int, ...]

__all__ = [
    "Divisor",
    "ToricSurface",
    "anticanonical_cycle",
    "build_surface",
    "component_label",
    "conjugate_divisor",
    "intersect",
]


def component_label(r: int, k: int) -> str:
    """Human name of component r: C1..Ck, then C1bar..Ckbar."""
    return f"C{r + 1}" if r < k else f"C{r - k + 1}bar"


@dataclass(frozen=True)
class ToricSurface:
    """Rays, self-intersections of the invariant curves, and the pairing matrix.

    pairing[a][r] = det(rays[r], rays[a]) for a < k, the one source of fibers,
    degrees and bimeromorphic pairs; each row's second half negates its first.
    """

    rays: tuple[Vector, ...]
    self_int: tuple[int, ...]
    pairing: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.rays) // 2

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "rays": [list(v) for v in self.rays],
            "selfInt": list(self.self_int),
        }


def build_surface(seq: ActionSequence) -> ToricSurface:
    """Build the surface: 2k rays, the self-intersection of each curve, and the pairing matrix.

    Self-intersections come from the ray relation
    u_{r-1} + u_{r+1} = -(C_r . C_r) u_r, which must hold exactly in a
    smooth complete fan; a failure raises NonSmoothFan and means the input
    bypassed validation.  The pairing matrix is computed here, once.
    """
    k = len(seq.vectors)
    rays = tuple(seq.vectors) + tuple([(-a, -b) for (a, b) in seq.vectors])
    for r in range(2 * k):
        if det2(rays[r], rays[(r + 1) % (2 * k)]) != -1:
            raise NonSmoothFan(f"rays {r} and {r + 1} do not span the lattice with the right orientation")
    self_int = []
    for r in range(2 * k):
        prev, cur, nxt = rays[r - 1], rays[r], rays[(r + 1) % (2 * k)]
        c = det2(prev, nxt)
        if (prev[0] + nxt[0], prev[1] + nxt[1]) != (-c * cur[0], -c * cur[1]):
            raise NonSmoothFan(f"ray relation fails at component {component_label(r, k)}")
        self_int.append(c)
    halves = [[p * y - q * x for p, q in seq.vectors] for x, y in seq.vectors]
    pairing = tuple([tuple(half + [-d for d in half]) for half in halves])
    return ToricSurface(rays=rays, self_int=tuple(self_int), pairing=pairing)


def intersect(d1: Sequence[int], d2: Sequence[int], surface: ToricSurface) -> int:
    """Intersection number of two invariant divisors.

    Components meet their two circular neighbours once, themselves in their
    self-intersection number, and nothing else; the form extends bilinearly.
    """
    m = 2 * surface.k
    if len(d1) != m or len(d2) != m:
        raise IndexMismatch(f"divisor length must be {m}, got {len(d1)} and {len(d2)}")
    total = 0
    for r in range(m):
        if d1[r]:
            total += d1[r] * (surface.self_int[r] * d2[r] + d2[r - 1] + d2[(r + 1) % m])
    return total


def anticanonical_cycle(surface: ToricSurface) -> Divisor:
    """The cycle of all invariant curves, each with multiplicity one."""
    return (1,) * (2 * surface.k)


def conjugate_divisor(d: Sequence[int], surface: ToricSurface) -> Divisor:
    """Relabel a divisor by the antipodal swap C_i <-> conjugate of C_i."""
    m = 2 * surface.k
    if len(d) != m:
        raise IndexMismatch(f"divisor length must be {m}, got {len(d)}")
    return tuple([d[(r + surface.k) % m] for r in range(m)])
