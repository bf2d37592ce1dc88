"""Output checks for the benchmark, written without the package.

Everything here recomputes the expected values from the input vectors by
its own route and compares them with the JSON the program printed.  It
imports nothing from ``twistoric``, so a defect in the package cannot hide
itself by also corrupting the check.

The closed forms used:

* chains for n are the closure of ((0,1),(1,0)) under mediant insertion,
  and there are Catalan(n) of them;
* the model degree of (i, j) is |det(v_i, v_j)|, bimeromorphic iff it is 1;
* for pencil a, with g_r = det(v_a, u_r) over the 2k rays u_r, the
  half-cycle data are l+_b - l-_b = g_b - g_{b-1} (one of them zero) and
  m = sum(l-) - g_0; the reconstruction m*C - f + fbar is then verified
  component by component, together with sum(l+ + l-) = 2m;
* P for pencil a is c * prod_{b>=2} (lambda - r_b)^{L_b}, L = l+ + l-, so
  2m - deg P = L_1; it is compared with the printed coefficients by
  evaluation modulo a large prime at seeded points;
* a fiber's kind and non-reduced flag follow from the two L values at its
  label; the full chain has P_a = c_a * lambda^(2(a-2)) * P_2 / c_2.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Vec = tuple[int, int]

PRIME = (1 << 61) - 1
KINDS = ("GenericFourNodal", "TwoQuadricCones", "FourPlanes")


class CheckFailed(Exception):
    """An output disagrees with the independently computed expectation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def det(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def chains(n: int) -> list[tuple[Vec, ...]]:
    """All normalized chains for n, sorted, by mediant closure."""
    found = {((0, 1), (1, 0))}
    for _ in range(n):
        found = {
            ch[: i + 1] + ((ch[i][0] + ch[i + 1][0], ch[i][1] + ch[i + 1][1]),) + ch[i + 1 :]
            for ch in found
            for i in range(len(ch) - 1)
        }
    return sorted(found)


def rays(vs: list[Vec]) -> list[Vec]:
    return list(vs) + [(-a, -b) for a, b in vs]


def self_ints(vs: list[Vec]) -> list[int]:
    us = rays(vs)
    n = len(us)
    return [det(us[r - 1], us[(r + 1) % n]) for r in range(n)]


def solve(vs: list[Vec], alpha: int) -> tuple[int, list[int], list[int], list[int]]:
    """(m, l_plus, l_minus, g) for pencil alpha by the closed form, unverified."""
    k = len(vs)
    va = vs[alpha - 1]
    g = [det(va, u) for u in rays(vs)]  # fbar - f
    delta = [g[b] - g[b - 1] for b in range(1, k + 1)]
    lm = [max(-d, 0) for d in delta]
    return sum(lm) - g[0], [max(d, 0) for d in delta], lm, g


def divisor_data(vs: list[Vec], alpha: int) -> tuple[int, list[int], list[int]]:
    """(m, l_plus, l_minus) for pencil alpha, verified against its definition."""
    k = len(vs)
    m, lp, lm, g = solve(vs, alpha)
    for r in range(2 * k):
        # half-cycle b (1-based) covers positions b .. b+k-1 mod 2k
        covered = sum(lp[b - 1] if (r - b) % (2 * k) < k else lm[b - 1] for b in range(1, k + 1))
        expect(covered == m + g[r], f"pencil {alpha}: reconstruction fails at component {r}")
    expect(m >= 1, f"pencil {alpha}: m = {m}")
    expect(sum(lp) + sum(lm) == 2 * m, f"pencil {alpha}: sum(l) != 2m")
    return m, lp, lm


def l_total(data: tuple[int, list[int], list[int]]) -> list[int]:
    return [p + q for p, q in zip(data[1], data[2])]


def _mod(x: Fraction) -> int:
    return x.numerator % PRIME * pow(x.denominator % PRIME, -1, PRIME) % PRIME


def _eval_printed(coeffs: list[str], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        v = int(c) if "/" not in c else _mod(Fraction(c))
        acc = (acc * x + v) % PRIME
    return acc


def _eval_factored(scale: Fraction, factors: list[tuple[Fraction, int]], x: int) -> int:
    acc = _mod(scale)
    for root, mult in factors:
        acc = acc * pow((x - _mod(root)) % PRIME, mult, PRIME) % PRIME
    return acc


def check_pencil_poly(
    coeffs: list[str], scale: Fraction, roots: list[Fraction], ltot: list[int], m: int, points: list[int]
) -> None:
    """coeffs must be scale * prod_{b>=2} (x - roots[b-2])^{ltot[b-1]}."""
    deg = sum(ltot[1:])
    expect(len(coeffs) == deg + 1, f"deg P = {len(coeffs) - 1}, expected {deg}")
    expect(2 * m - deg == ltot[0], "2m - deg P differs from l_total at label 1")
    expect(Fraction(coeffs[-1]) == scale, "leading coefficient is not the scale constant")
    factors = [(roots[b - 2], ltot[b - 1]) for b in range(2, len(ltot) + 1)]
    for x in points:
        expect(_eval_printed(coeffs, x) == _eval_factored(scale, factors, x), f"P differs at x = {x}")


def _kind(a: int, b: int) -> str:
    return KINDS[(a > 0) + (b > 0)]


def check_fibers(fibers: list[dict], roots: list[Fraction], li: list[int], lj: list[int]) -> None:
    k = len(li)
    expect(len(fibers) == k + 1, f"{len(fibers)} fiber records, expected {k + 1}")
    locations = ["inf"] + [str(r) for r in roots]
    for b, (rec, at) in enumerate(zip(fibers, locations), start=1):
        want = {
            "at": at,
            "kind": _kind(li[b - 1], lj[b - 1]),
            "nonReduced": max(li[b - 1], lj[b - 1]) >= 2,
            "generic": False,
        }
        expect(rec == want, f"fiber at label {b}: {rec} != {want}")
    sample = Fraction(1)
    while sample in roots:
        sample += 1
    want = {"at": str(sample), "kind": KINDS[0], "nonReduced": False, "generic": True}
    expect(fibers[-1] == want, f"generic fiber: {fibers[-1]} != {want}")


def default_roots(k: int) -> list[Fraction]:
    """Roots for labels 2..k with the package's default tail 1, 2, ..."""
    return [Fraction(t) for t in range(0, k - 1)]


def check_model(
    rec: dict,
    vs: list[Vec],
    i: int,
    j: int,
    roots: list[Fraction],
    constants: list[Fraction],
    full: bool,
    points: list[int],
    data: dict | None = None,
) -> None:
    """Check one model record (``model`` output or an ``analyze`` entry)."""
    data = data or {}
    for a in (i, j):
        if a not in data:
            data[a] = divisor_data(vs, a)
    if data[i][0] < data[j][0]:
        i, j = j, i
    mi, mj = data[i][0], data[j][0]
    li, lj = l_total(data[i]), l_total(data[j])
    mu = mi - mj
    expect((rec["i"], rec["j"], rec["mu"]) == (i, j, mu), f"(i, j, mu) = {(rec['i'], rec['j'], rec['mu'])}")
    expect(rec["bundle"] == [mi, mi, mj, mj], f"bundle {rec['bundle']}")
    expect([Fraction(c) for c in rec["c"]] == constants, f"constants {rec['c']}")
    polys = rec["P"]
    expect(len(polys) == (mu + 2 if full else 2), f"{len(polys)} polynomials")
    check_pencil_poly(polys[0], constants[0], roots, li, mi, points)
    check_pencil_poly(polys[1], constants[1], roots, lj, mj, points)
    for a in range(3, len(polys) + 1):
        shift = 2 * (a - 2)
        pa = polys[a - 1]
        expect(all(c == "0" for c in pa[:shift]), f"P_{a} low coefficients are not zero")
        if constants[a - 1] == constants[1]:
            expect(pa[shift:] == polys[1], f"P_{a} is not lambda^{shift} * P_2")
        else:
            ratio = constants[a - 1] / constants[1]
            expect([Fraction(c) for c in pa[shift:]] == [ratio * Fraction(c) for c in polys[1]], f"P_{a}")
    check_fibers(rec["fibers"], roots, li, lj)


def check_analysis(doc: dict, vs: list[Vec], points: list[int]) -> None:
    """Check a full ``analyze`` report for default roots and constants."""
    k = len(vs)
    expect(doc["input"] == {"n": k - 2, "vectors": [list(v) for v in vs]}, "input echo")
    us = rays(vs)
    expect(
        doc["surface"] == {"k": k, "rays": [list(u) for u in us], "selfInt": self_ints(vs)},
        "surface rays or self-intersections",
    )
    roots = default_roots(k)
    expect(doc["roots"] == {"k": k, "tail": [str(r) for r in roots[1:]]}, "roots")
    fibers = [
        {"alpha": a, "f": [max(det(u, v), 0) for u in us], "fbar": [max(-det(u, v), 0) for u in us]}
        for a, v in enumerate(vs, start=1)
    ]
    expect(doc["fibers"] == fibers, "invariant fibers")
    degrees = [[abs(det(u, v)) if a != b else 0 for b, v in enumerate(vs)] for a, u in enumerate(vs)]
    expect(doc["degreeMatrix"] == degrees, "degree matrix is not |det(v_i, v_j)|")
    pairs = [[i, j] for i in range(1, k + 1) for j in range(i + 1, k + 1) if degrees[i - 1][j - 1] == 1]
    expect(doc["bimeromorphicPairs"] == pairs, "bimeromorphic pairs are not the |det| = 1 pairs")
    data = {a: divisor_data(vs, a) for a in range(1, k + 1)}
    expect(
        doc["divisors"] == [{"alpha": a, "m": m, "lPlus": lp, "lMinus": lm} for a, (m, lp, lm) in data.items()],
        "divisor data",
    )
    expect(len(doc["models"]) == k - 1, "one model per adjacent pair")
    ones = [Fraction(1), Fraction(1)]
    for i, rec in enumerate(doc["models"], start=1):
        check_model(rec, vs, i, i + 1, roots, ones, False, points, data)
    warnings = [
        {"type": "degree", "i": i, "j": j, "d": degrees[i - 1][j - 1]}
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        if degrees[i - 1][j - 1] > 1
    ]
    for a, (_, lp, lm) in data.items():
        for b, (p, q) in enumerate(zip(lp, lm), start=1):
            if p + q > 1:
                warnings.append({"type": "nonReducedComponent", "alpha": a, "beta": b, "l": p + q})
    expect(doc["warnings"] == warnings, "warnings")


def check_enumeration(doc: dict, n: int) -> None:
    """Check a full ``enumerate`` listing for n."""
    expected = chains(n)
    expect(doc["n"] == n, "n")
    expect(doc["count"] == catalan(n) == len(expected), f"count {doc['count']} != Catalan({n})")
    seqs = doc["sequences"]
    expect(len(seqs) == len(expected), "number of listed sequences")
    for rec, ch in zip(seqs, expected):
        vs = list(ch)
        k = len(vs)
        pairs = [[i, j] for i in range(1, k + 1) for j in range(i + 1, k + 1) if abs(det(vs[i - 1], vs[j - 1])) == 1]
        want = {
            "vectors": [list(v) for v in vs],
            "selfInt": self_ints(vs),
            "m": [divisor_data(vs, a)[0] for a in range(1, k + 1)],
            "bimeromorphicPairs": pairs,
        }
        expect(rec == want, f"sequence {vs}")
