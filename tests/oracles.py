"""Independent oracles used by the test suite.

Everything here recomputes expected values by a different route than the
package: enumeration by bounded brute-force search instead of mediant
closure, half-cycle decomposition by exhaustive search over bounded
complementary multiplicity vectors, met in the middle over two halves of the
labels in pure Python, instead of the difference solve, the
weighted half-cycle sum position by position over explicit half-cycles
instead of the running sum, exact vanishing orders by repeated synthetic
division of Fractions instead of Newton's identities and a rebuild of the
polynomial, label products by building a new list per linear factor
instead of rewriting one list in place, the pencil-root check by a hashed set
of every earlier root instead of left neighbours, and the generic sample by a
set of integer roots instead of a scan of the ordered tail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from twistoric.errors import RootCollision, RootOrderViolation
from twistoric.ratpoly import Poly, evaluate, normalized

Vec = tuple[int, int]


def fib(m: int) -> int:
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def det2(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def grow_by_mediants(picks: list[int]) -> tuple[Vec, ...]:
    """The base chain ((0,1), (1,0)) with one mediant inserted per pick.

    Each pick, taken modulo the number of gaps, chooses the consecutive pair
    whose sum is inserted between them; every valid chain arises this way.
    """
    chain = [(0, 1), (1, 0)]
    for pick in picks:
        i = pick % (len(chain) - 1)
        u, v = chain[i], chain[i + 1]
        chain.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return tuple(chain)


def brute_force_sequences(n: int) -> list[tuple[Vec, ...]]:
    """All valid chains for n by depth-first search over a Fibonacci box.

    Candidate vectors have first coordinate in 1..F(n+2) and second in
    -F(n+2)..F(n+2); the determinant chain condition prunes the walk.
    """
    k = n + 2
    if k == 2:
        return [((0, 1), (1, 0))]
    bound = fib(k)
    box = [
        (a, b)
        for a in range(1, bound + 1)
        for b in range(-bound, bound + 1)
        if gcd(a, abs(b)) == 1
    ]
    found: list[tuple[Vec, ...]] = []

    def extend(chain: tuple[Vec, ...]) -> None:
        if len(chain) == k - 1:
            if det2(chain[-1], (1, 0)) == -1:
                found.append(chain + ((1, 0),))
            return
        for v in box:
            if det2(chain[-1], v) == -1:
                extend(chain + (v,))

    extend(((0, 1),))
    return sorted(found)


def half_cycles(k: int, beta: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """0-based positions of the plus and minus half-cycles for label beta (1-based).

    The plus half-cycle covers the k components that follow position beta
    circularly, the minus half-cycle the complementary k.
    """
    plus = tuple((beta + t) % (2 * k) for t in range(k))
    minus = tuple((beta + k + t) % (2 * k) for t in range(k))
    return plus, minus


def half_cycle_sum(l_plus: tuple[int, ...], l_minus: tuple[int, ...]) -> list[int]:
    """The weighted sum of all 2k half-cycles, added one position at a time."""
    k = len(l_plus)
    built = [0] * (2 * k)
    for b in range(k):
        plus, minus = half_cycles(k, b + 1)
        for r in plus:
            built[r] += l_plus[b]
        for r in minus:
            built[r] += l_minus[b]
    return built


def exhaustive_divisor_solutions(
    f: tuple[int, ...], fbar: tuple[int, ...], entry_cap: int = 8
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """All (m, l_plus, l_minus) with complementary entries <= entry_cap that
    satisfy the component equations, found by exhaustive search.

    Meet in the middle: the labels split into two halves, and each half lists
    the half-cycle sums of all its option combinations.  A left and a right
    combination solve the system when left + right - (fbar - f) is one
    constant m >= 1, so the right side is keyed by its component differences
    and joined to the left's.  The left side outer and the right side inner,
    each in itertools.product order, give the solutions in that order.
    """
    k = len(f) // 2
    g = [y - x for x, y in zip(f, fbar)]
    # complementary options per label: (0,0), (p,0), (0,q)
    options = [(0, 0)] + [(p, 0) for p in range(1, entry_cap + 1)] + [
        (0, q) for q in range(1, entry_cap + 1)
    ]
    cycles = [half_cycles(k, b + 1) for b in range(k)]

    def side(labels: range):
        """Each option combination on labels, in itertools.product order, with its half-cycle sum."""
        for combo in product(options, repeat=len(labels)):
            total = [0] * (2 * k)
            for b, (p, q) in zip(labels, combo):
                plus, minus = cycles[b]
                for r in plus:
                    total[r] += p
                for r in minus:
                    total[r] += q
            yield combo, total

    # a right sum s joins a left sum t when t - g + s is constant: keyed by s[0] - s[r]
    right: dict[tuple[int, ...], list] = {}
    for combo, total in side(range(k // 2, k)):
        right.setdefault(tuple([total[0] - s for s in total]), []).append((combo, total[0]))
    solutions = []
    for combo, total in side(range(k // 2)):
        rest = [t - d for t, d in zip(total, g)]
        for tail, first in right.get(tuple([t - rest[0] for t in rest]), ()):
            m = rest[0] + first
            if m >= 1:
                both = combo + tail
                solutions.append((m, tuple([p for p, _ in both]), tuple([q for _, q in both])))
    return solutions


# elementary unimodular matrices for scrambling tests (rows)
ROT = ((0, -1), (1, 0))
SHEAR = ((1, 1), (0, 1))
SHEAR_INV = ((1, -1), (0, 1))
FLIP = ((0, 1), (1, 0))
NEG = ((-1, 0), (0, -1))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[r][t] * b[t][c] for t in range(2)) for c in range(2)) for r in range(2)
    )


def mat_apply(mat, v: Vec) -> Vec:
    return (mat[0][0] * v[0] + mat[0][1] * v[1], mat[1][0] * v[0] + mat[1][1] * v[1])


def root_multiplicity(p: Poly, r: Fraction) -> int:
    """Multiplicity of r as a root of p (0 when p(r) != 0)."""
    mult = 0
    while p and evaluate(p, r) == 0:
        # synthetic division by (x - r)
        q = [Fraction(0)] * (len(p) - 1)
        carry = Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            carry = p[i] + carry * r
            q[i - 1] = carry
        p = normalized(q)
        mult += 1
    return mult


def shift_and_subtract_product(factors) -> Poly:
    """The monic product of (x - root)^mult, one new list per linear factor.

    Root a/q multiplies by (q x - a) as new[t] = q * p[t-1] - a * p[t] over the
    list padded with a zero at each end, on ints with the denominators cleared.
    """
    p = [1]
    den = 1
    for root, mult in factors:
        a, q = root.numerator, root.denominator
        for _ in range(mult):
            p = [q * hi - a * lo for hi, lo in zip([0] + p, p + [0])]
        den *= q**mult
    return tuple([Fraction(c, den) for c in p])


def check_root_tail(tail: tuple[Fraction, ...]) -> None:
    """Raise as the pencil-root check does: first any root that is zero or seen before, then any break in the order."""
    seen: set[Fraction] = set()
    for r in tail:
        if r in seen or r == 0:
            raise RootCollision(f"root {r} collides with an earlier root")
        seen.add(r)
    for a, b in zip(tail, tail[1:]):
        if a > 0 and not b > a:
            raise RootOrderViolation(f"positive roots must increase strictly: {a} then {b}")
        if a < 0 and not b < a:
            raise RootOrderViolation(f"negative roots must decrease strictly: {a} then {b}")


def generic_sample(finite_roots: tuple[Fraction, ...]) -> Fraction:
    """The least positive integer that is no finite root, found by counting up past a set of the integer roots."""
    taken = {r.numerator for r in finite_roots if r.denominator == 1}
    n = 1
    while n in taken:
        n += 1
    return Fraction(n)
