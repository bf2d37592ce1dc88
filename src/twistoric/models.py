"""Explicit equations of the projective twistor-space models.

A pair of divisor data records (for indices i and j, with pencil
multiplicities m_i >= m_j) plus a normalized tuple of pencil roots yields
the model: a hypersurface pair inside the projectivized bundle
O(m_i)^2 + O(m_j)^2 over the projective line,

    xi_1 xi_2 = P_1(lambda),   xi_3 xi_4 = P_2(lambda),

where P_1 = c_1 prod (lambda - r_b)^{l_ib} over the finite root labels and
P_2 likewise with the l_jb.  The full chain adds one equation per step from m_j
to m_i, member a being c_a lambda^{2(a-2)} P_2 / c_2.  A model stores P_1, P_2
and its constants.  Every member is a constant times one label's product, so
the writer formats each (label, constant) once, behind the zeros of its power
of lambda, and one report's models share those rows and their fiber locations.

Roots are labelled 2 .. k; label 1 sits at infinity, label 2 at zero.  P_1
vanishes at label b to order l_ib, so classify_fibers reads a fiber's kind from
the two multiplicities at its label.  Only the model-record reader and the test
oracles root-test P: parse_model_record divides P by each location's factor.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import log2

from .divisors import TwistorDivisorData
from .errors import CapExceeded, DegenerateConstants, RootCollision, RootOrderViolation
from .lattice import _read
from .ratpoly import Poly, cleared, degree, divided, from_factors, poly_from_strings, poly_to_strings, render

GENERIC_FOUR_NODAL = "GenericFourNodal"
TWO_QUADRIC_CONES = "TwoQuadricCones"
FOUR_PLANES = "FourPlanes"
# indexed by how many of P_1, P_2 vanish at the location
_KINDS = (GENERIC_FOUR_NODAL, TWO_QUADRIC_CONES, FOUR_PLANES)

__all__ = [
    "FOUR_PLANES",
    "GENERIC_FOUR_NODAL",
    "TWO_QUADRIC_CONES",
    "ConformalRoots",
    "FiberClass",
    "LinearSystemMeta",
    "ModelEquations",
    "classify_fibers",
    "emit_full_model",
    "emit_open_model_description",
    "emit_reduced_model",
    "model_record",
    "model_size",
    "parse_model_record",
    "system_meta",
]


def _checked_make(cls, iterable):
    """namedtuple's _make, which _replace calls, through the validating __new__ of cls."""
    return cls(*iterable)


class ConformalRoots(namedtuple("ConformalRoots", "k tail")):
    """Pencil root locations for a surface with k sequence vectors.

    tail holds the roots for labels 3 .. k; label 2 is pinned at zero and label 1 at infinity.  The
    tail must consist of nonzero rationals of one sign, strictly increasing when positive and strictly
    decreasing when negative, so all k locations are distinct.  Each root is checked against its left
    neighbour only: equal to it or zero is a RootCollision, any other repeat a RootOrderViolation.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, k: int, tail: Sequence[Fraction | int] = ()) -> ConformalRoots:
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError(f"'k' must be an int, got {k!r}")
        if k < 2:
            raise RootOrderViolation("need k >= 2")
        if len(tail) != k - 2:
            raise RootOrderViolation(f"expected {k - 2} roots for labels 3..{k}, got {len(tail)}")
        tail = _exact(tail, "roots")
        # each root b after its left neighbour a, from label 2's zero; a collision anywhere outranks a break in the order
        for a, b in zip((0,) + tail, tail):
            if b == a or b == 0:
                raise RootCollision(f"root {b} collides with an earlier root")
        for a, b in zip((0,) + tail, tail):
            if a > 0 and not b > a:
                raise RootOrderViolation(f"positive roots must increase strictly: {a} then {b}")
            if a < 0 and not b < a:
                raise RootOrderViolation(f"negative roots must decrease strictly: {a} then {b}")
        return super().__new__(cls, k, tail)

    @property
    def finite_roots(self) -> tuple[Fraction, ...]:
        """Root locations for labels 2 .. k; the label-2 root is zero."""
        return (Fraction(0),) + self.tail

    def to_json(self) -> dict:
        return {"k": self.k, "tail": [str(r) for r in self.tail]}

    @staticmethod
    def from_json(data: dict) -> "ConformalRoots":
        return _read(data, _parse_roots, ConformalRoots.to_json, "roots")


def _exact(values: Sequence[Fraction | int], field: str) -> tuple[Fraction, ...]:
    """The values as Fractions; anything but an int or a Fraction (a float, a bool) is a ValueError naming field."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"{field!r} must be ints or Fractions, got {v!r}")
    return tuple([Fraction(v) for v in values])


def _parse_roots(data: dict) -> ConformalRoots:
    # k and the roots feed the validating constructor, so each is read on its own first
    tail = tuple([_read(s, Fraction, str, "tail") for s in data["tail"]])
    return ConformalRoots(k=_read(data["k"], int, int, "k"), tail=tail)


class ModelEquations(namedtuple("ModelEquations", "i j m_i m_j constants p1 p2")):
    """Equations xi_{2a-1} xi_{2a} = P_a(lambda) of one projective model.

    Indices i, j are the pencil labels and m_i >= m_j their pencil
    multiplicities; mu = m_i - m_j and the four line-bundle degrees
    bundle = (m_i, m_i, m_j, m_j) are derived from them.  It stores P_1, P_2
    and c_1, c_2, plus c_3 .. c_{mu+2} for a full chain, which polys derives.
    c_1 and c_2 are the leading coefficients of P_1 and P_2, else ValueError.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, i: int, j: int, m_i: int, m_j: int, constants: tuple[Fraction, ...], p1: Poly, p2: Poly) -> ModelEquations:
        if i == j:  # the writer keys each row by its label
            raise ValueError(f"'i' and 'j' must be two labels, got {i} and {j}")
        lead = p1[-1:] + p2[-1:]
        if tuple(constants[:2]) != lead:
            raise ValueError(f"'constants' must begin with {[str(c) for c in lead]}, the leading coefficients of P_1 and P_2, got {[str(c) for c in constants[:2]]}")
        return super().__new__(cls, i, j, m_i, m_j, constants, p1, p2)

    @property
    def polys(self) -> tuple[Poly, ...]:
        return tuple(_chain(self, tuple, (Fraction(0),), {}))

    @property
    def mu(self) -> int:
        return self.m_i - self.m_j

    @property
    def bundle(self) -> tuple[int, int, int, int]:
        return (self.m_i, self.m_i, self.m_j, self.m_j)


def _ordered(data_i: TwistorDivisorData, data_j: TwistorDivisorData) -> tuple[TwistorDivisorData, TwistorDivisorData]:
    if data_i.alpha == data_j.alpha:
        raise ValueError("need two distinct pencil indices")
    if data_i.k != data_j.k:
        raise ValueError("divisor data come from different surfaces")
    # larger pencil multiplicity plays the role of i
    return (data_i, data_j) if data_i.m >= data_j.m else (data_j, data_i)


def _check_constants(constants: Sequence[Fraction | int] | None, count: int) -> tuple[Fraction, ...]:
    if constants is None:
        return (Fraction(1),) * count
    if len(constants) != count:
        raise ValueError(f"expected {count} scale constants, got {len(constants)}")
    out = _exact(constants, "constants")
    if 0 in out:
        raise DegenerateConstants("scale constants must be nonzero")
    return out


def _models(
    data: Sequence[TwistorDivisorData],
    l_totals: Sequence[Sequence[int]],
    roots: ConformalRoots,
    constants: Sequence[Fraction | int] | None,
    full: bool,
) -> list[ModelEquations]:
    """The model of each adjacent pair in data: P_1, P_2 and two constants, or all mu + 2 when full.

    Each label's monic product of (lambda - r_b)^{l_b} over labels b = 2 .. k, its l_total given in l_totals
    in the order of data, is expanded once, and a model only rescales it; None constants are ones.  Before
    any expansion, a polynomial that model_size puts over the bit budget is CapExceeded.
    """
    pairs = [_ordered(d_i, d_j) for d_i, d_j in zip(data, data[1:])]
    if roots.k != data[0].k:
        raise ValueError(f"roots are for k = {roots.k}, divisor data for k = {data[0].k}")
    css = [_check_constants(constants, di.m - dj.m + 2 if full else 2) for di, dj in pairs]
    budget = _bit_budget()
    # every model takes the same constants, so the widest one bounds each label's polynomials
    for deg, bits in map(_sizer(roots, _bits(max(css[0], key=_bits)) if constants else 1), l_totals):
        if budget and bits > budget:
            raise CapExceeded(f"a model polynomial of degree {deg} may need {bits} bits per coefficient, over the budget of {budget} bits that sys.get_int_max_str_digits() lets the writer print")
    # label 2's root is zero, so its factor lambda^{l_2} only shifts the product over the tail
    products = {d.alpha: (Fraction(0),) * l[1] + from_factors(zip(roots.tail, l[2:])) for d, l in zip(data, l_totals)}
    return [
        ModelEquations(i=di.alpha, j=dj.alpha, m_i=di.m, m_j=dj.m, constants=cs, p1=_scaled(products[di.alpha], cs[0]), p2=_scaled(products[dj.alpha], cs[1]))
        for (di, dj), cs in zip(pairs, css)
    ]


def model_size(l_total: Sequence[int], roots: ConformalRoots, constant: Fraction) -> tuple[int, int]:
    """The degree of constant * prod (lambda - r_b)^{l_b} over labels b = 2 .. k, and a bound on its coefficients' bits.

    The factor (q lambda - a) of r = a/q has coefficients of absolute sum |a| + q; the product of those sums
    bounds every cleared coefficient and the common denominator, and the constant adds its larger part's bits.
    """
    return _sizer(roots, _bits(constant))(l_total)


def _sizer(roots: ConformalRoots, bits: int) -> Callable[[Sequence[int]], tuple[int, int]]:
    """model_size for these roots and a constant of these bits, each root's weight bitlen(|a| + q) taken once."""
    weights = (1,) + tuple([(abs(r.numerator) + r.denominator).bit_length() for r in roots.tail])  # label 2's zero: one bit
    return lambda l_total: (sum(l_total[1:]), bits + sum([l * w for l, w in zip(l_total[1:], weights)]))


def _bit_budget() -> int:
    """sys.get_int_max_str_digits() in bits, the most any written number can have; 0 where Python has no limit.

    The writer refuses a polynomial whose model_size bits exceed it, and the reader one whose degree does.
    """
    return int(getattr(sys, "get_int_max_str_digits", lambda: 0)() * log2(10))


def _bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _scaled(p: Poly, c: Fraction) -> Poly:
    return p if c == 1 else tuple([c * x for x in p])


def _chain(eqs: ModelEquations, form: Callable[[Poly], Sequence], zero: Sequence, memo: dict) -> list:
    """P_1, then c_a / c_2 * lambda^(2(a-2)) * P_2 for a = 2 .. mu + 2, zero the form of a 0, each row a new sequence."""
    cs = eqs.constants
    # row a is c_a times the product of its label, i or j, so memo keeps its form by (label, c_a) and one report's
    # models can share it; keyed by ints, as Fraction.__hash__ takes a modular inverse on every call
    keys = [(eqs.j if a else eqs.i, c.numerator, c.denominator) for a, c in enumerate(cs)]
    for a, (key, c) in enumerate(zip(keys, cs)):
        if key not in memo:
            memo[key] = form(_scaled(eqs.p2, c / cs[1]) if a else eqs.p1)
    return [zero * max(2 * a - 2, 0) + memo[key] for a, key in enumerate(keys)]


def emit_reduced_model(
    data_i: TwistorDivisorData,
    data_j: TwistorDivisorData,
    roots: ConformalRoots,
    constants: Sequence[Fraction | int] | None = None,
) -> ModelEquations:
    """The two-equation model: the first two members of the full chain.

    Swaps the roles of i and j internally when m_i < m_j so the recorded
    bundle degrees never decrease.  Takes two scale constants, both ones when omitted.
    """
    return _models((data_i, data_j), (data_i.l_total, data_j.l_total), roots, constants, full=False)[0]


def emit_full_model(
    data_i: TwistorDivisorData,
    data_j: TwistorDivisorData,
    roots: ConformalRoots,
    constants: Sequence[Fraction | int] | None = None,
) -> ModelEquations:
    """The full chain of models: one equation per step from m_j up to m_i.

    Equation a (for a = 2 .. mu + 2) is xi_{2a-1} xi_{2a} =
    c_a lambda^{2(a-2)} P(lambda) with P the label-j factor product, so the
    chain starts at the reduced second equation and gains lambda^2 each step.
    Takes mu + 2 scale constants, all ones when omitted.
    """
    return _models((data_i, data_j), (data_i.l_total, data_j.l_total), roots, constants, full=True)[0]


class FiberClass(namedtuple("FiberClass", "location kind non_reduced generic", defaults=(False,))):
    """Singularity type of the model fiber over one pencil location.

    location None means the point at infinity; generic, False unless given, marks
    the sample point standing in for every unlisted location.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return _fiber(self, {})

    @staticmethod
    def from_json(data: dict) -> "FiberClass":
        return _read(data, _parse_fiber_class, FiberClass.to_json, "fibers")


def _parse_fiber_class(data: dict) -> FiberClass:
    if data["kind"] not in _KINDS:
        raise ValueError(f"'kind' must be one of {', '.join(_KINDS)}, got {data['kind']!r}")
    at = None if data["at"] == "inf" else _read(data["at"], Fraction, str, "at")
    return FiberClass(location=at, kind=data["kind"], non_reduced=bool(data["nonReduced"]), generic=bool(data["generic"]))


def _generic_class(roots: ConformalRoots) -> FiberClass:
    """The sample for every unlisted location, the least positive integer that is no root: a positive tail's integers come in order."""
    n = 1
    for r in roots.tail:
        if r == n:
            n += 1
    return FiberClass(location=Fraction(n), kind=GENERIC_FOUR_NODAL, non_reduced=False, generic=True)


def classify_fibers(l_i: Sequence[int], l_j: Sequence[int], roots: ConformalRoots) -> list[FiberClass]:
    """Classify the fiber over each label's location, plus one generic sample.

    l_i, l_j are the l_total of the model's i and j: the multiplicities of P_1
    and P_2 at label 1 (infinity) and labels 2 .. k (roots.finite_roots).  A
    fiber degenerates from four nodes to two quadric cones when one of the
    two is positive there, and to four planes when both are; a multiplicity
    of two or more flags a non-reduced pencil member.  No root is tested.
    """
    if not len(l_i) == len(l_j) == roots.k:
        raise ValueError(f"need one multiplicity per label 1 .. {roots.k}, got {len(l_i)} and {len(l_j)}")
    return _classifier(roots)(l_i, l_j)


def _classifier(roots: ConformalRoots) -> Callable[[Sequence[int], Sequence[int]], list[FiberClass]]:
    """classify_fibers for these roots, unchecked: the locations and the generic sample are built once, and every list shares them."""
    locations, generic = (None,) + roots.finite_roots, _generic_class(roots)
    return lambda l_i, l_j: [
        FiberClass(location=r, kind=_KINDS[(a > 0) + (b > 0)], non_reduced=a >= 2 or b >= 2) for r, a, b in zip(locations, l_i, l_j)
    ] + [generic]


def model_record(eqs: ModelEquations, classes: Sequence[FiberClass]) -> dict:
    """JSON form of one model: equations plus fiber classification."""
    return _record(eqs, classes, {})


def _record(eqs: ModelEquations, classes: Sequence[FiberClass], memo: dict) -> dict:
    # model_record, with the strings of the rows and locations kept in memo: one report's models share them
    return {
        "i": eqs.i,
        "j": eqs.j,
        "mu": eqs.mu,
        "bundle": list(eqs.bundle),
        "c": [str(c) for c in eqs.constants],
        "P": _chain(eqs, poly_to_strings, ["0"], memo),
        "fibers": [_fiber(fc, memo) for fc in classes],
    }


def _fiber(fc: FiberClass, memo: dict) -> dict:
    # a new dict each time; memo keeps the location's string by the location's id, sound while the caller holds
    # the class, and a hit wherever a report's classifier shared the location
    if id(fc.location) not in memo:
        memo[id(fc.location)] = "inf" if fc.location is None else str(fc.location)
    return {"at": memo[id(fc.location)], "kind": fc.kind, "nonReduced": fc.non_reduced, "generic": fc.generic}


def parse_model_record(data: dict) -> tuple[ModelEquations, tuple[FiberClass, ...]]:
    """The inverse of model_record; ValueError naming the field for anything model_record does not emit."""
    return _read(data, _parse_model, lambda model: model_record(*model), "models")


def _parse_model(data: dict) -> tuple[ModelEquations, tuple[FiberClass, ...]]:
    # c is the leading coefficients of P, the rows past P_2 are checked when the model is
    # written back, and the fibers are classified again at their locations, from the
    # multiplicities of P_1 and P_2 there
    m_i, m_j = _read(data["bundle"], lambda b: (int(b[0]), int(b[2])), lambda m: [m[0], m[0], m[1], m[1]], "bundle")
    rows = [poly_from_strings(row) for row in data["P"]]
    if m_i < m_j or len(rows) not in (2, m_i - m_j + 2) or not all(rows):
        raise ValueError(f"'P' must be 2 or mu + 2 polynomials, none zero, with mu = bundle[0] - bundle[2] >= 0: got {len(rows)} with mu = {m_i - m_j}")
    constants = tuple([p[-1] for p in rows])
    eqs = ModelEquations(i=int(data["i"]), j=int(data["j"]), m_i=m_i, m_j=m_j, constants=constants, p1=rows[0], p2=rows[1])
    # infinity, zero, the tail, then the generic sample
    locations = [FiberClass.from_json(fc).location for fc in data["fibers"]]
    roots = ConformalRoots(k=len(locations) - 1, tail=locations[2:-1])
    if not 1 <= min(eqs.i, eqs.j) <= max(eqs.i, eqs.j) <= roots.k:  # ModelEquations refuses i == j
        raise ValueError(f"'i' and 'j' must be two labels 1 .. {roots.k} of the listed fibers, got {eqs.i} and {eqs.j}")
    l_i, l_j = _multiplicities(eqs.p1, 2 * m_i, roots), _multiplicities(eqs.p2, 2 * m_j, roots)
    return eqs, tuple(classify_fibers(l_i, l_j, roots))


def _multiplicities(p: Poly, two_m: int, roots: ConformalRoots) -> list[int]:
    """2m - deg p, then at each finite root a/b how often (b lambda - a) divides p exactly; ValueError naming 'P' unless those account for p.

    Dividing is quadratic in deg p, so a degree over 2m or over the writer's bit budget is refused before any division.
    """
    deg, budget = degree(p), _bit_budget()
    refused = f"'P' must be c * prod (lambda - r)^l over the listed fiber locations r, of degree at most 2m = {two_m}, got degree {deg}"
    if deg > two_m:
        raise ValueError(refused)
    if budget and deg > budget:
        raise ValueError(f"'P' has degree {deg}, over the budget of {budget} bits that sys.get_int_max_str_digits() lets the writer print, at least one bit per degree")
    coeffs, orders = cleared(p), [two_m - deg]
    for r in roots.finite_roots:
        orders.append(0)
        while (quotient := divided(coeffs, r)) is not None:
            coeffs, orders[-1] = quotient, orders[-1] + 1
    if len(coeffs) != 1:
        raise ValueError(refused)
    return orders


class LinearSystemMeta(namedtuple("LinearSystemMeta", "mu dim_w_i dim_w_j dim_combined")):
    """Dimension counts for the linear systems behind one model."""

    __slots__ = ()

    @property
    def num_coords(self) -> int:
        """N, the number of homogeneous coordinates; always dim_combined."""
        return self.dim_combined


def system_meta(data_i: TwistorDivisorData, data_j: TwistorDivisorData) -> LinearSystemMeta:
    """Dimension bookkeeping for the pair; requires m_i >= m_j."""
    if data_i.m < data_j.m:
        raise ValueError("need m_i >= m_j; swap the arguments")
    mi, mj = data_i.m, data_j.m
    return LinearSystemMeta(
        mu=mi - mj,
        dim_w_i=mi + 3,
        dim_w_j=mj + 3,
        dim_combined=3 * mi - 2 * mj + 5,
    )


def emit_open_model_description(eqs: ModelEquations, map_degree: int = 1) -> dict:
    """Describe the affine model cut out by the equations.

    The record names the total space, lists the equations, and states which
    open piece of the twistor space the model covers; when the attached map
    has degree above one a warning marks the model as non-bimeromorphic.
    """
    equations = [f"xi{2 * a - 1}*xi{2 * a} = {render(p)}" for a, p in enumerate(eqs.polys, start=1)]
    record = {
        "totalSpace": {
            "base": "CP1",
            "bundleDegrees": list(eqs.bundle),
        },
        "equations": equations,
        "openSubset": (
            "the twistor space of the hyperbolic-plane times torus piece embeds as the "
            "complement of the anticanonical cycle together with the lines over the "
            "degenerate pencil members"
        ),
        "warnings": [],
    }
    if map_degree > 1:
        record["warnings"].append(f"map is {map_degree}:1, not a projective model")
    return record
