"""Quotient fibrations of the surface and their intersection numbers.

Each sequence vector v_a spans a one-parameter subgroup of the torus; the
quotient map by that subgroup restricts on the surface to a pencil whose
two distinguished fibers are invariant divisors.  The fiber over one end
collects the curves whose ray pairs positively against v_a, with the pairing
value as multiplicity; the fiber over the other end is its conjugate.

The pairing is phi_a(u) = det(u, v_a), stored once by build_surface as the
matrix ToricSurface.pairing: row a - 1 holds phi_a on the first k rays, and
phi_a(-u) = -phi_a(u) on the other k.  Both signs occur over a complete fan, so
the fibers, the positive and negative parts of phi_a, are nonzero effective divisors.  The
degree of the map for a pair (i, j) is f_i . f_j = |det(v_i, v_j)|, the entry
|pairing[j-1][i-1]|; degree_matrix lists them all, and bimeromorphic_pairs
reads the pairs of degree 1 off that matrix.  The intersection-form sum
(surface.intersect) is the test oracle for the degrees.
"""

from __future__ import annotations

from .surface import Divisor, ToricSurface, _check_indices

__all__ = [
    "bimeromorphic_pairs",
    "degree_matrix",
    "invariant_fibers",
    "model_degree",
]


def invariant_fibers(surface: ToricSurface, alpha: int) -> tuple[Divisor, Divisor]:
    """The two invariant fibers of the quotient pencil for index alpha.

    Returns (f, fbar); f holds the components with positive pairing, fbar those with
    negative pairing, and fbar is the conjugate of f: the antipodal half negates the row.
    """
    row = surface.row(alpha)
    pos, neg = tuple([x if x > 0 else 0 for x in row]), tuple([-x if x < 0 else 0 for x in row])
    return pos + neg, neg + pos


def model_degree(surface: ToricSurface, i: int, j: int) -> int:
    """Intersection number f_i . f_j of the i-th and j-th invariant fibers.

    This is the degree of the rational map attached to the pair (i, j);
    the map is bimeromorphic exactly when the degree is 1.
    """
    _check_indices(surface.k, i, j)
    return abs(surface.pairing[j - 1][i - 1])


def degree_matrix(surface: ToricSurface) -> tuple[tuple[int, ...], ...]:
    """The k x k degrees: entry [i - 1][j - 1] is |det(v_i, v_j)|, symmetric with a zero diagonal."""
    return tuple([tuple(map(abs, row)) for row in surface.pairing])


def bimeromorphic_pairs(degrees: tuple[tuple[int, ...], ...]) -> list[tuple[int, int]]:
    """All index pairs i < j whose degree is 1, in lexicographic order, read off degree_matrix(surface)."""
    return [(i + 1, j + 1) for i, row in enumerate(degrees) for j in range(i + 1, len(row)) if row[j] == 1]
