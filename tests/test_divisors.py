"""Half-cycle decomposition of the twistor pencil members."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from twistoric import (
    InconsistentSystem,
    IndexMismatch,
    NegativeMultiplicity,
    anticanonical_cycle,
    bimeromorphic_pairs,
    build_surface,
    degree_matrix,
    enumerate_sequences,
    intersect,
    invariant_fibers,
    model_degree,
    reversal_dual,
    run_enumerate,
    solve_divisor_data,
    solve_from_fibers,
    validate,
)
from twistoric import report
from twistoric.divisors import TwistorDivisorData

from oracles import det2, exhaustive_divisor_solutions, grow_by_mediants, half_cycle_sum, half_cycles


def surf(vectors):
    return build_surface(validate(vectors))


def test_half_cycles_k3():
    plus, minus = half_cycles(3, 1)
    assert plus == (1, 2, 3)  # C2, C3, C1bar
    assert minus == (4, 5, 0)
    plus3, minus3 = half_cycles(3, 3)
    assert plus3 == (3, 4, 5)  # all three conjugates
    assert minus3 == (0, 1, 2)


def test_half_cycles_k2():
    plus, minus = half_cycles(2, 1)
    assert plus == (1, 2)
    assert minus == (3, 0)


def test_half_cycles_partition_and_conjugation():
    for k in range(2, 9):
        for beta in range(1, k + 1):
            plus, minus = half_cycles(k, beta)
            assert sorted(plus + minus) == list(range(2 * k))
            # the complement is the antipodal translate
            assert set(minus) == {(r + k) % (2 * k) for r in plus}


def test_hexagon_divisor_data():
    s = surf([(0, 1), (1, 1), (1, 0)])
    d1 = solve_divisor_data(s, 1)
    assert (d1.m, d1.l_plus, d1.l_minus) == (1, (0, 0, 1), (1, 0, 0))
    d2 = solve_divisor_data(s, 2)
    assert (d2.m, d2.l_plus, d2.l_minus) == (1, (0, 0, 0), (1, 1, 0))
    d3 = solve_divisor_data(s, 3)
    assert (d3.m, d3.l_plus, d3.l_minus) == (1, (0, 0, 0), (0, 1, 1))


def test_base_case_divisor_data():
    s = surf([(0, 1), (1, 0)])
    d = solve_divisor_data(s, 1)
    assert d.m == 1
    assert sum(d.l_total) == 2
    assert (d.l_plus, d.l_minus) == ((0, 1), (1, 0))


def test_degree_drop_at_infinity():
    s = surf([(0, 1), (1, 1), (1, 0)])
    # the combined multiplicity at label 1 is the degree deficit at infinity
    assert solve_divisor_data(s, 1).l_total[0] == 1
    assert solve_divisor_data(s, 2).l_total[0] == 1
    s2 = surf([(0, 1), (1, 1), (2, 1), (1, 0)])
    assert solve_divisor_data(s2, 1).l_total[0] == 1


def test_reconstruction_identity_everywhere():
    for n in range(7):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            k = s.k
            cyc = anticanonical_cycle(s)
            for a in range(1, k + 1):
                f, fbar = invariant_fibers(s, a)
                data = solve_divisor_data(s, a)
                built = half_cycle_sum(data.l_plus, data.l_minus)
                expected = [data.m * cyc[r] - f[r] + fbar[r] for r in range(2 * k)]
                assert built == expected
                assert list(data.build_divisor()) == built
                assert data.m >= 1
                assert sum(data.l_total) == 2 * data.m
                assert all(p * q == 0 for p, q in zip(data.l_plus, data.l_minus))
                assert all(p >= 0 for p in data.l_plus + data.l_minus)


@st.composite
def fiber_pairs(draw):
    k = draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, 3), min_size=2 * k, max_size=2 * k)
    return tuple(draw(entries)), tuple(draw(entries))


@given(fiber_pairs())
def test_solve_from_arbitrary_fibers_is_checked(pair):
    """Only half the component equations hold by construction; the rest are the check."""
    f, fbar = pair
    try:
        data = solve_from_fibers(f, fbar, 1)
    except InconsistentSystem as refused:
        # The equations at neighbouring positions force l_plus - l_minus to the steps of
        # g = fbar - f, and adding t to both halves of one label adds t at every position,
        # so one choice of the l's shows whether any m fits all 2k equations; the message
        # lists, sorted and once each, the m = built[r] - g[r] that each position r asks for.
        g = [y - x for x, y in zip(f, fbar)]
        steps = [g[b + 1] - g[b] for b in range(len(f) // 2)]
        built = half_cycle_sum(tuple([max(d, 0) for d in steps]), tuple([max(-d, 0) for d in steps]))
        implied = sorted({x - y for x, y in zip(built, g)})
        assert len(implied) > 1
        assert str(refused) == f"component equations disagree for index 1: {implied}"
        return
    except NegativeMultiplicity:
        return
    assert data.m >= 1
    assert half_cycle_sum(data.l_plus, data.l_minus) == [data.m - a + b for a, b in zip(f, fbar)]


@settings(deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=28))
def test_deep_chain_invariants(picks):
    """Chains grown by random mediant insertion, k up to 30, every index."""
    seq = validate(grow_by_mediants(picks))
    s, sd = build_surface(seq), build_surface(reversal_dual(seq))
    k = s.k
    assert s.pairing == tuple([tuple([det2(u, v) for u in s.rays[:k]]) for v in s.rays[:k]])
    # self_int is read off the pairing; the ray relation is its independent check
    for r in range(2 * k):
        prev, cur, nxt = s.rays[r - 1], s.rays[r], s.rays[(r + 1) % (2 * k)]
        assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (-s.self_int[r] * cur[0], -s.self_int[r] * cur[1])
    assert s.self_int[:k] == s.self_int[k:]
    # reversal sends v_a to the swapped v_(k+1-a), and swapping negates det: both indices reflect
    assert sd.pairing == tuple([tuple([-s.pairing[k - 1 - a][k - 1 - r] for r in range(k)]) for a in range(k)])
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    assert bimeromorphic_pairs(degree_matrix(s)) == [(i, j) for i, j in pairs if abs(det2(s.rays[i - 1], s.rays[j - 1])) == 1]
    fibers = [invariant_fibers(s, a) for a in range(1, k + 1)]
    for i, j in pairs[:: 1 + len(pairs) // 40]:
        assert model_degree(s, i, j) == intersect(fibers[i - 1][0], fibers[j - 1][0], s)
    for i in range(1, k):
        assert model_degree(s, i, i + 1) == 1
    # the principal divisor of the character e, sum of <e, u_r> C_r, meets every curve in 0
    for e in ((1, 0), (0, 1)):
        principal = tuple([e[0] * u[0] + e[1] * u[1] for u in s.rays])
        assert all(intersect(principal, tuple([int(r == t) for r in range(2 * k)]), s) == 0 for t in range(2 * k))
    for a in range(1, k + 1):
        f, fbar = fibers[a - 1]
        assert intersect(f, f, s) == 0
        # under reversal the fiber f of index a becomes the dual's fbar, reflected
        assert invariant_fibers(sd, k + 1 - a)[1] == tuple([f[(k - 1 - r) % (2 * k)] for r in range(2 * k)])
        data = solve_divisor_data(s, a)
        # the unchecked row reading agrees with the checked solver on the row's two fibers
        assert data == solve_from_fibers(f, fbar, a)
        assert half_cycle_sum(data.l_plus, data.l_minus) == [data.m - x + y for x, y in zip(f, fbar)]
        assert sum(data.l_total) == 2 * data.m
        assert all(p * q == 0 for p, q in zip(data.l_plus, data.l_minus))
        # reversal duality: index a becomes k + 1 - a, labels are reflected
        dual = solve_divisor_data(sd, k + 1 - a)
        assert dual.m == data.m
        assert all(dual.l_total[b] == data.l_total[(k - 2 - b) % k] for b in range(k))


def assert_listing_reads_each_row(s, listed_m):
    """f - fbar is each stored pairing row followed by its negation, and the listing's m is the divisor data's."""
    assert len(listed_m) == s.k
    for a in range(1, s.k + 1):
        f, fbar = invariant_fibers(s, a)
        row = s.row(a)
        assert tuple([x - y for x, y in zip(f, fbar)]) == row + tuple([-x for x in row])
        data = solve_divisor_data(s, a)
        assert listed_m[a - 1] == data.m == sum(data.l_total) // 2


def test_the_listing_reads_m_off_each_row():
    """run_enumerate's m, self-intersections and bimeromorphic pairs are those of each chain's surface, on every
    chain with n <= 8, the cap: the listing grows them from the base chain's by one blow-up step per mediant."""
    for n in range(9):
        for seq, entry in zip(enumerate_sequences(n), run_enumerate(n)["sequences"], strict=True):
            s = build_surface(seq)
            assert entry["vectors"] == [list(v) for v in seq.vectors]
            assert entry["selfInt"] == list(s.self_int)
            assert entry["bimeromorphicPairs"] == [list(p) for p in bimeromorphic_pairs(degree_matrix(s))]
            assert_listing_reads_each_row(s, entry["m"])


@settings(deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=28))
def test_each_blow_up_step_matches_the_surface_of_deep_chains(picks):
    """The listing's blow-up step, driven along one chain grown by random mediant insertion, k up to 30: after
    every step its self-intersections, m and pairs are the built surface's."""
    data = report._seed(((0, 1), (1, 0)))
    for t in range(len(picks) + 1):
        chain = grow_by_mediants(picks[:t])
        s = surf(chain)
        self_int, m, pairs = data
        assert self_int * 2 == s.self_int
        assert m == [solve_divisor_data(s, a).m for a in range(1, s.k + 1)]
        assert pairs == [list(p) for p in bimeromorphic_pairs(degree_matrix(s))]
        if t < len(picks):
            data = report._blow_up(data, chain, picks[t] % (s.k - 1))


def test_conjugation_swaps_the_halves():
    for n in range(5):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            for a in range(1, s.k + 1):
                f, fbar = invariant_fibers(s, a)
                data = solve_from_fibers(f, fbar, a)
                swapped = solve_from_fibers(fbar, f, a)
                assert swapped.m == data.m
                assert swapped.l_plus == data.l_minus
                assert swapped.l_minus == data.l_plus


def test_matches_exhaustive_search_oracle():
    """n = 3, 17^5 combinations per index, which the oracle meets in the middle: 17^2 on the first two labels
    joined to 17^3 on the other three; the acceptance suite covers n < 3."""
    for seq in enumerate_sequences(3):
        s = build_surface(seq)
        for a in range(1, s.k + 1):
            f, fbar = invariant_fibers(s, a)
            data = solve_divisor_data(s, a)
            solutions = exhaustive_divisor_solutions(f, fbar, entry_cap=8)
            assert solutions == [(data.m, data.l_plus, data.l_minus)]


def test_inconsistent_fibers_rejected():
    # not antipodally antisymmetric, so the component equations disagree
    with pytest.raises(InconsistentSystem):
        solve_from_fibers((0, 1, 0, 0), (0, 0, 0, 2), 1)


@pytest.mark.parametrize(
    "f, fbar",
    [((0, 1, 0, 0), (0, 0)), ((0, 1, 0), (0, 0, 1)), ((), ()), ((0, 1, 0, 0), (0, 0, 0, 1, 0, 0))],
    ids=["unequal", "odd", "empty", "half-length"],
)
def test_fiber_lengths_checked(f, fbar):
    # one even length 2k >= 2 for both, else nothing is read (no IndexError, no dropped entry)
    with pytest.raises(IndexMismatch, match=f"got {len(f)} and {len(fbar)}"):
        solve_from_fibers(f, fbar, 1)


def test_degenerate_fibers_rejected():
    with pytest.raises(NegativeMultiplicity):
        solve_from_fibers((0, 0, 0, 0), (0, 0, 0, 0), 1)


def test_divisor_json_round_trip():
    s = surf([(0, 1), (1, 1), (2, 1), (1, 0)])
    data = solve_divisor_data(s, 3)
    assert TwistorDivisorData.from_json(data.to_json()) == data
    assert data.to_json() == {"alpha": 3, "m": 2, "lPlus": [0, 0, 0, 0], "lMinus": [1, 1, 1, 1]}


def test_divisor_json_reader_is_strict():
    good = {"alpha": 3, "m": 2, "lPlus": [0, 0, 0, 0], "lMinus": [1, 1, 1, 1]}
    for field, bad in [("alpha", 1.5), ("m", "2"), ("lPlus", [True, 0, 0, 0]), ("lMinus", [1, 1, 1.0, 1])]:
        with pytest.raises(ValueError, match=f"'{field}'"):
            TwistorDivisorData.from_json({**good, field: bad})
    no_m = {key: value for key, value in good.items() if key != "m"}
    for bad, field in [(no_m, "'m'"), ({**good, "lPlus": 5}, "'lPlus'"), ({**good, "lPlus": [0, 0, 0]}, "'lPlus'")]:
        with pytest.raises(ValueError, match=field):
            TwistorDivisorData.from_json(bad)
    # no solver emits a negative entry, a label positive in both parts, or m < 1
    never_emitted = [
        ({"alpha": 1, "m": 1, "lPlus": [-1, 3], "lMinus": [0, 0]}, "'lPlus' and 'lMinus' must be nonnegative"),
        ({"alpha": 1, "m": 1, "lPlus": [0, 0], "lMinus": [2, -2]}, "'lPlus' and 'lMinus' must be nonnegative"),
        ({"alpha": 1, "m": 1, "lPlus": [1, 1], "lMinus": [1, 0]}, "'lPlus' and 'lMinus' must be nonnegative"),
        ({"alpha": 1, "m": 0, "lPlus": [1, 1], "lMinus": [0, 0]}, "'m'"),
        ({"alpha": 1, "m": -2, "lPlus": [0, 0], "lMinus": [0, 0]}, "'m'"),
    ]
    for bad, field in never_emitted:
        with pytest.raises(ValueError, match=field):
            TwistorDivisorData.from_json(bad)
    flat = solve_from_fibers((5, 5, 5, 5), (0, 0, 0, 0), 1)
    assert TwistorDivisorData.from_json({"alpha": 1, "m": 5, "lPlus": [0, 0], "lMinus": [0, 0]}) == flat
