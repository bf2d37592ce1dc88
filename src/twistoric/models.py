"""Explicit equations of the projective twistor-space models.

A pair of divisor data records (for indices i and j, with pencil
multiplicities m_i >= m_j) plus a normalized tuple of pencil roots yields
the model: a hypersurface pair inside the projectivized bundle
O(m_i)^2 + O(m_j)^2 over the projective line,

    xi_1 xi_2 = P_1(lambda),   xi_3 xi_4 = P_2(lambda),

where P_1 = c_1 prod (lambda - r_b)^{l_ib} over the finite root labels and
P_2 likewise with the l_jb.  The full chain adds one equation per step from m_j
to m_i, member a being c_a lambda^{2(a-2)} P_2 / c_2.  A model stores P_1, P_2
and its constants.  Every member past the first is P_2 rescaled to lead its
constant, so the writer formats P_1 once and P_2 once per distinct constant,
behind the zeros of its power of lambda.  The models keep the monic label
products of their last call, keyed by the tail orders under that call's root
tail, and the next call with equal roots takes each one it needs instead of
expanding it again; each call replaces them, so they never outlast one call.

Roots are labelled 2 .. k; label 1 sits at infinity, label 2 at zero.  P_1
vanishes at label b to order l_ib, so classify_fibers reads a fiber's kind from
the two multiplicities at its label.  No root of P is tested in the package:
parse_model_record counts P's leading zeros for label 2, reads the tail's orders
off P's top coefficients by Newton's identities modulo a probable prime, sizes
them at the writer's bit-budget gate, _budgeted, and rebuilds P from them with
the writer's expander.  Synthetic division is left to the test oracles.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import log2
from operator import le, sub

from .divisors import TwistorDivisorData
from .errors import CapExceeded, DegenerateConstants, RootCollision, RootOrderViolation
from .lattice import _fraction, _read
from .ratpoly import Poly, degree, evaluate, from_factors, poly_from_strings, poly_to_strings, render

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
    neighbour only: equal to it or zero is a RootCollision, any other repeat a RootOrderViolation.  The
    roots stay the ints and Fractions they are given, as coefficients do in ratpoly.
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
    def finite_roots(self) -> tuple[Fraction | int, ...]:
        """Root locations for labels 2 .. k; the label-2 root is the int zero."""
        return (0,) + self.tail

    def to_json(self) -> dict:
        return {"k": self.k, "tail": [str(r) for r in self.tail]}

    @staticmethod
    def from_json(data: dict) -> "ConformalRoots":
        return _read(data, _parse_roots, ConformalRoots.to_json, "roots")


def _exact(values: Sequence[Fraction | int], field: str) -> tuple[Fraction | int, ...]:
    """The values as given, ints and Fractions alike; anything else (a float, a bool) is a ValueError naming field."""
    values = tuple(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"{field!r} must be ints or Fractions, got {v!r}")
    return values


def _parse_roots(data: dict) -> ConformalRoots:
    # k and the roots feed the validating constructor, so each is read on its own first
    tail = tuple([_read(s, _fraction, str, "tail") for s in data["tail"]])
    return ConformalRoots(k=_read(data["k"], int, int, "k"), tail=tail)


class ModelEquations(namedtuple("ModelEquations", "i j m_i m_j constants p1 p2")):
    """Equations xi_{2a-1} xi_{2a} = P_a(lambda) of one projective model.

    Indices i, j are the pencil labels and m_i >= m_j their pencil multiplicities; mu = m_i - m_j and the
    four line-bundle degrees bundle = (m_i, m_i, m_j, m_j) are derived from them.  It stores P_1, P_2 and
    c_1, c_2, plus c_3 .. c_{mu+2} for a full chain, which polys derives; c_1 and c_2 lead P_1 and P_2, else
    ValueError.  Coefficients are ints or Fractions, equal values comparing and hashing alike: an emitted P
    keeps the ints of an integral product whose constant already leads it, and polys shifts by int zeros.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, i: int, j: int, m_i: int, m_j: int, constants: tuple[Fraction | int, ...], p1: Poly, p2: Poly) -> ModelEquations:
        if i == j:  # a model joins two pencil labels, as its reader requires
            raise ValueError(f"'i' and 'j' must be two labels, got {i} and {j}")
        # one nonzero constant per row of P, whose shape parse_model_record reads: 2 rows or mu + 2
        if m_i < m_j or len(constants) not in (2, m_i - m_j + 2) or 0 in constants:
            raise ValueError(f"'constants' must be 2 or mu + 2 nonzero values, one per row of 'P', with mu = m_i - m_j >= 0: got {len(constants)} with mu = {m_i - m_j}")
        lead = p1[-1:] + p2[-1:]
        if tuple(constants[:2]) != lead:
            raise ValueError(f"'constants' must begin with {[str(c) for c in lead]}, the leading coefficients of P_1 and P_2, got {[str(c) for c in constants[:2]]}")
        return super().__new__(cls, i, j, m_i, m_j, constants, p1, p2)

    @property
    def polys(self) -> tuple[Poly, ...]:
        return tuple(_chain(self, tuple, (0,)))

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


def _check_constants(constants: Sequence[Fraction | int] | None, count: int) -> tuple[Fraction | int, ...]:
    if constants is None:
        return (1,) * count
    if len(constants) != count:
        raise ValueError(f"expected {count} scale constants, got {len(constants)}")
    out = _exact(constants, "constants")
    if 0 in out:
        raise DegenerateConstants("scale constants must be nonzero")
    return out


# (roots.tail, {tail orders l[2:]: monic product over the tail}) of the last call of _models that got through its expansions
_previous: tuple[tuple[Fraction | int, ...], dict[tuple[int, ...], Poly]] = ((), {})


def _models(data: Sequence[TwistorDivisorData], roots: ConformalRoots, constants: Sequence[Fraction | int] | None, full: bool) -> list[ModelEquations]:
    """The model of each adjacent pair in data: P_1, P_2 and two constants, or all mu + 2 for a full model's one pair.

    The constants (None for ones) are checked once, and each label's monic product of (lambda - r_b)^{l_b}, over its
    l_total, is expanded once, in order of degree over the tail: from the larger of its neighbours' products in data
    that divide it, if any, times the factors left over.  A label whose tail orders l[2:] the previous call expanded,
    under an equal roots.tail, takes that product instead, so a walk over a chain's adjacent pairs expands each label
    once; the products are the same either way, so no output depends on what ran before.  The call then replaces
    that table with its own products.  Each model rescales its products to lead c_1 or c_2.  Before any lookup or
    expansion, a polynomial that model_size puts over the bit budget is CapExceeded, and the table is left as it was.
    """
    global _previous
    pairs = [_ordered(d_i, d_j) for d_i, d_j in zip(data, data[1:])]
    if roots.k != data[0].k:
        raise ValueError(f"roots are for k = {roots.k}, divisor data for k = {data[0].k}")
    cs = _check_constants(constants, pairs[0][0].m - pairs[0][1].m + 2 if full else 2)
    # every model takes the same constants, so the widest one bounds each label's polynomials, and it is sized over
    # the distinct values (a full model's mu + 2 default ones are one); l_total is derived on every read, so each
    # label's is taken once
    widest, totals = max(set(cs), key=_bits), [d.l_total for d in data]
    for l_total in totals:
        _budgeted(l_total, roots, widest, CapExceeded, "a model polynomial")
    # label 2's root is zero, so its factor lambda^{l_2} only shifts the product over the tail.  The tails are expanded
    # by degree, each from its larger expanded neighbour whose orders it has at least, times the factors left over
    tails = [l[2:] for l in totals]
    degrees = list(map(sum, tails))
    # the previous call's products, read once, serve each label whose tail orders they hold under equal roots
    previous_tail, previous = _previous
    kept = previous if previous_tail == roots.tail else {}
    grown = {t: kept[tail] for t, tail in enumerate(tails) if tail in kept}
    for t in sorted(range(len(data)), key=degrees.__getitem__):
        if t in grown:
            continue
        start, rest = (1,), tails[t]
        for u in (t - 1, t + 1):
            if u in grown and len(grown[u]) > len(start) and all(map(le, tails[u], tails[t])):
                start, rest = grown[u], map(sub, tails[t], tails[u])
        grown[t] = from_factors(zip(roots.tail, rest), start)
    products = {d.alpha: (0,) * l[1] + grown[t] for t, (d, l) in enumerate(zip(data, totals))}
    # replaced whole, never merged or changed in place: it holds this call's products only
    _previous = roots.tail, {tails[t]: p for t, p in grown.items()}
    return [ModelEquations(i=di.alpha, j=dj.alpha, m_i=di.m, m_j=dj.m, constants=cs, p1=_rescaled(products[di.alpha], cs[0]), p2=_rescaled(products[dj.alpha], cs[1])) for di, dj in pairs]


def model_size(l_total: Sequence[int], roots: ConformalRoots, constant: Fraction | int) -> tuple[int, int]:
    """The degree of constant * prod (lambda - r_b)^{l_b} over labels b = 2 .. k, and a bound on its coefficients' bits.

    The factor (q lambda - a) of r = a/q has coefficients of absolute sum |a| + q, one bit for label 2's zero; the
    product of those sums bounds every cleared coefficient and the common denominator, and the constant adds its
    larger part's bits.
    """
    return sum(l_total[1:]), _bits(constant) + sum([l * (abs(r.numerator) + r.denominator).bit_length() for l, r in zip(l_total[1:], roots.finite_roots)])


def _bit_budget() -> int:
    """sys.get_int_max_str_digits() in bits, the most any written number can have; 0 where Python has no limit."""
    return int(getattr(sys, "get_int_max_str_digits", lambda: 0)() * log2(10))


def _budgeted(l_total: Sequence[int], roots: ConformalRoots, constant: Fraction | int, error: type[Exception], what: str) -> None:
    """The one bit-budget gate for polynomials: error, naming what, when model_size puts the polynomial over _bit_budget()."""
    budget = _bit_budget()
    deg, bits = model_size(l_total, roots, constant)
    if budget and bits > budget:
        raise error(f"{what} of degree {deg} may need {bits} bits per coefficient, over the budget of {budget} bits that sys.get_int_max_str_digits() lets the writer print")


def _bits(c: Fraction | int) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _rescaled(p: Poly, c: Fraction | int) -> Poly:
    """p times c over its leading coefficient, so that c leads it; p itself when c already does."""
    if p[-1] == c:
        return p
    ratio = Fraction(c, p[-1])  # exact when both are ints, where c / p[-1] would be a float
    return tuple([ratio * x for x in p])


def _chain(eqs: ModelEquations, form: Callable[[Poly], Sequence], zero: Sequence) -> list:
    """P_1, then c_a / c_2 * lambda^(2(a-2)) * P_2 for a = 2 .. mu + 2, zero the form of a 0, each row a new sequence.

    P_2 rescaled to lead c_a is formed once per distinct c_a.
    """
    formed = {c: form(_rescaled(eqs.p2, c)) for c in set(eqs.constants[1:])}
    return [form(eqs.p1)] + [zero * (2 * a) + formed[c] for a, c in enumerate(eqs.constants[1:])]


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
    return _models((data_i, data_j), roots, constants, full=False)[0]


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
    return _models((data_i, data_j), roots, constants, full=True)[0]


class FiberClass(namedtuple("FiberClass", "location kind non_reduced generic", defaults=(False,))):
    """Singularity type of the model fiber over one pencil location.

    location None means the point at infinity; generic, False unless given, marks
    the sample point standing in for every unlisted location.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        at = "inf" if self.location is None else str(self.location)
        return {"at": at, "kind": self.kind, "nonReduced": self.non_reduced, "generic": self.generic}

    @staticmethod
    def from_json(data: dict) -> "FiberClass":
        return _read(data, _parse_fiber_class, FiberClass.to_json, "fibers")


def _parse_fiber_class(data: dict) -> FiberClass:
    if data["kind"] not in _KINDS:
        raise ValueError(f"'kind' must be one of {', '.join(_KINDS)}, got {data['kind']!r}")
    at = None if data["at"] == "inf" else _read(data["at"], _fraction, str, "at")
    return FiberClass(location=at, kind=data["kind"], non_reduced=bool(data["nonReduced"]), generic=bool(data["generic"]))


def _generic_class(roots: ConformalRoots) -> FiberClass:
    """The sample for every unlisted location, the least positive integer that is no root: a positive tail's integers come in order."""
    n = 1
    for r in roots.tail:
        if r == n:
            n += 1
    return FiberClass(location=n, kind=GENERIC_FOUR_NODAL, non_reduced=False, generic=True)


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
    return [
        FiberClass(location=r, kind=_KINDS[(a > 0) + (b > 0)], non_reduced=a >= 2 or b >= 2) for r, a, b in zip((None,) + roots.finite_roots, l_i, l_j)
    ] + [_generic_class(roots)]


def model_record(eqs: ModelEquations, classes: Sequence[FiberClass]) -> dict:
    """JSON form of one model: equations plus fiber classification."""
    return {
        "i": eqs.i,
        "j": eqs.j,
        "mu": eqs.mu,
        "bundle": list(eqs.bundle),
        "c": [str(c) for c in eqs.constants],
        "P": _chain(eqs, poly_to_strings, ["0"]),
        "fibers": [fc.to_json() for fc in classes],
    }


def parse_model_record(data: dict) -> tuple[ModelEquations, tuple[FiberClass, ...]]:
    """The inverse of model_record; ValueError naming the field for anything model_record does not emit."""
    return _read(data, _parse_model, lambda model: model_record(*model), "models")


def _parse_model(data: dict) -> tuple[ModelEquations, tuple[FiberClass, ...]]:
    # c is the leading coefficients of P, a zero row's 0, so ModelEquations checks the shape of P; the rows
    # past P_2 are checked when the model is written back, and the fibers are classified again at their
    # locations, from the multiplicities of P_1 and P_2 there
    m_i, m_j = _read(data["bundle"], lambda b: (int(b[0]), int(b[2])), lambda m: [m[0], m[0], m[1], m[1]], "bundle")
    rows = [poly_from_strings(row) for row in data["P"]]
    p1, p2 = (*rows, (), ())[:2]  # fewer than two rows are fewer than two constants, which ModelEquations refuses
    eqs = ModelEquations(i=int(data["i"]), j=int(data["j"]), m_i=m_i, m_j=m_j, constants=tuple([p[-1] if p else 0 for p in rows]), p1=p1, p2=p2)
    # infinity, zero, the tail, then the generic sample
    locations = [FiberClass.from_json(fc).location for fc in data["fibers"]]
    roots = ConformalRoots(k=len(locations) - 1, tail=locations[2:-1])
    if not 1 <= min(eqs.i, eqs.j) <= max(eqs.i, eqs.j) <= roots.k:  # ModelEquations refuses i == j
        raise ValueError(f"'i' and 'j' must be two labels 1 .. {roots.k} of the listed fibers, got {eqs.i} and {eqs.j}")
    l_i, l_j = _multiplicities(eqs.p1, 2 * m_i, roots), _multiplicities(eqs.p2, 2 * m_j, roots)
    return eqs, tuple(classify_fibers(l_i, l_j, roots))


def _multiplicities(p: Poly, two_m: int, roots: ConformalRoots) -> list[int]:
    """2m - deg p, p's count of leading zeros for label 2, then each tail root's order; ValueError naming 'P' unless p is
    its leading coefficient times prod (lambda - r)^l over the listed locations, within the writer's bit budget.

    Newton's identities turn p's top k - 2 coefficients, over its lead, into the power sums s_j = sum l_b r_b^j.  With Q
    = prod (lambda - r_b) over the tail, expanded once, T, the polynomial part of Q * sum s_j lambda^-j, is
    sum l_b r_b Q / (lambda - r_b), so l_b = T(r_b) / (r_b Q'(r_b)).  All of it runs on residues modulo n, the first
    odd n down from 2^61 - 1 that passes Fermat's test to base 2 and makes every divided number a unit.  A real p's
    orders are at most deg p < n, so they come out exactly, and n changes how fast p is read, never whether: orders that
    do not add up to deg p <= 2m are refused, the rest sized against the budget, expanded as the writer expands them and
    compared with p.
    """
    deg, c, tail = degree(p), p[-1], roots.tail
    refused = f"'P' must be c * prod (lambda - r)^l over the listed fiber locations r, of degree at most 2m = {two_m}, got degree {deg}"
    zeros = next(t for t, x in enumerate(p) if x)  # p is not zero: its last coefficient is a nonzero constant
    for n in range(2**61 - 1, 1, -2):
        if pow(2, n - 1, n) != 1:
            continue
        # pow(x, -1, n) raises ValueError when x is no unit mod n, and nothing else here raises one.  Each divided number
        # is a nonzero rational (c, the roots and their differences), so some n leaves all of them units
        try:
            rs = [r.numerator * pow(r.denominator, -1, n) % n for r in tail]
            # top[j] leads lambda^(deg - j) in p over c
            top = [x.numerator * c.denominator * pow(x.denominator * c.numerator, -1, n) % n for x in p[: -len(tail) - 2 : -1]] + [0] * len(tail)
            sums = []
            for j in range(1, len(tail) + 1):
                sums.append((-j * top[j] - sum([top[i] * sums[j - 1 - i] for i in range(1, j)])) % n)
            q = [x % n for x in from_factors([(r, 1) for r in rs])]
            t_poly = [sum([a * s for a, s in zip(q[t + 1 :], sums)]) for t in range(len(tail))]
            dq = [t * a for t, a in enumerate(q)][1:]
            orders = [two_m - deg, zeros] + [evaluate(t_poly, r) * pow(r * evaluate(dq, r), -1, n) % n for r in rs]
            break
        except ValueError:
            pass
    # residues are >= 0, so orders that account for a deg p <= 2m bound each other and the rebuild by 2m
    if deg > two_m or zeros + sum(orders[2:]) != deg:
        raise ValueError(refused)
    _budgeted(orders, roots, c, ValueError, "'P'")
    if _rescaled((0,) * zeros + from_factors(zip(tail, orders[2:])), c) != p:
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
