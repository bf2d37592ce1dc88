"""Smooth complete toric surface attached to an action sequence.

The fan has 2k rays: the k sequence vectors followed by their negatives,
in circular order.  Component index r runs 0 .. 2k-1; indices 0 .. k-1 are
the invariant curves C_1 .. C_k and indices k .. 2k-1 their conjugates
(the curves on the antipodal rays).  Divisors supported on the invariant
curves are plain integer coefficient tuples of length 2k.

All of the fan's combinatorics comes from one k x k table, ToricSurface.pairing (ray k + r pairs as
the negated ray r): the fan check and the self-intersections read it here, the fibers, divisors and the report's
analysis the rest.  Each of its rows is _row of one vector; a model or classification of one index pair reads
only its two rows, straight off the vectors.  _check_indices is the one check of pencil indices, and
ToricSurface.row reads the row of one checked index.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import BadIndices, IndexMismatch, NonSmoothFan
from .lattice import ActionSequence

Divisor = tuple[int, ...]

__all__ = [
    "Divisor",
    "ToricSurface",
    "anticanonical_cycle",
    "build_surface",
    "conjugate_divisor",
    "intersect",
]


class ToricSurface(namedtuple("ToricSurface", "rays self_int pairing")):
    """Rays, self-intersections of the invariant curves, and the pairing matrix they are read from.

    pairing[a][r] = det(rays[r], rays[a]) for a, r < k; ray k + r pairs to -pairing[a][r], which is not stored.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.rays) // 2

    def row(self, alpha: int) -> Divisor:
        """Pairing row alpha - 1, phi_alpha on the first k rays, for a checked index alpha."""
        _check_indices(self.k, alpha)
        return self.pairing[alpha - 1]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "rays": [list(v) for v in self.rays],
            "selfInt": list(self.self_int),
        }


def _check_indices(k: int, *alphas: int) -> None:
    """The one check of pencil indices: each an int in 1 .. k, and two of them, when both are ints, with i < j."""
    if len(alphas) == 2 and type(alphas[0]) is type(alphas[1]) is int and not 1 <= alphas[0] < alphas[1] <= k:
        raise BadIndices(f"need 1 <= i < j <= {k}, got {alphas}")
    for alpha in alphas:
        if type(alpha) is not int:  # a bool would pass for 0 or 1, a float would fail at the lookup
            raise BadIndices(f"index must be an int, got {alpha!r}")
        if not 1 <= alpha <= k:
            raise BadIndices(f"index {alpha} out of range 1..{k}")


def _row(vectors: Sequence[tuple[int, int]], v: tuple[int, int]) -> Divisor:
    """det(u, v) for each u in vectors: phi_v on the first k rays, the pairing row of v."""
    x, y = v
    return tuple([p * y - q * x for p, q in vectors])


def build_surface(seq: ActionSequence) -> ToricSurface:
    """The surface read off its pairing matrix: 2k rays and the self-intersection of each curve.

    Row a holds det(rays[a - 1], rays[a]) at a - 1: every consecutive pair of the fan, the
    antipodal half repeating them.  Each must be -1, else NonSmoothFan (the input bypassed
    validation).  Row a holds c = det(rays[a - 2], rays[a]) at a - 2, and c = C . C for the
    curve on rays[a - 1] by the ray relation u_{r-1} + u_{r+1} = -c u_r.  That relation needs
    no check: det(u_{r-1}, u_r) = det(u_r, u_{r+1}) = -1 gives det(u_{r-1} + u_{r+1}, u_r) = 0,
    so u_{r-1} + u_{r+1} = t u_r, and pairing both sides with u_{r-1} gives t = -c.  In rows 0
    and 1 index r < 0 reads ray k + r, which pairs as the negated ray 2k + r: those entries flip sign.
    """
    k = len(seq.vectors)
    rays = tuple(seq.vectors) + tuple([(-a, -b) for (a, b) in seq.vectors])
    pairing = tuple([_row(seq.vectors, v) for v in seq.vectors])
    for r in range(k):  # the pair (r, r + 1) lies in row r + 1, the wrap pair (k - 1, k) in row 0, where ray k is -v_1
        a = (r + 1) % k
        if pairing[a][a - 1] != (-1 if a else 1):
            raise NonSmoothFan(f"rays {r} and {r + 1} do not span the lattice with the right orientation")
    c = [row[a - 2] if a > 1 else -row[a - 2] for a, row in enumerate(pairing)]  # C . C for the curve on rays[a - 1]
    return ToricSurface(rays=rays, self_int=tuple(c[1:] + c[:1]) * 2, pairing=pairing)


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
