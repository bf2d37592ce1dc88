"""Invariant quotient fibers and the model degree pairing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from twistoric import (
    BadIndices,
    bimeromorphic_pairs,
    build_surface,
    conjugate_divisor,
    degree_matrix,
    enumerate_sequences,
    intersect,
    invariant_fibers,
    model_degree,
    run_classify,
    run_enumerate,
    run_model,
    solve_divisor_data,
    validate,
)
from twistoric.lattice import det2

from oracles import grow_by_mediants


def surf(vectors):
    return build_surface(validate(vectors))


def test_hexagon_first_fiber():
    s = surf([(0, 1), (1, 1), (1, 0)])
    f, fbar = invariant_fibers(s, 1)
    assert f == (0, 1, 1, 0, 0, 0)  # C2 + C3
    assert fbar == (0, 0, 0, 0, 1, 1)


def test_base_case_fiber():
    s = surf([(0, 1), (1, 0)])
    f, fbar = invariant_fibers(s, 1)
    assert f == (0, 1, 0, 0)  # C2 alone
    assert fbar == (0, 0, 0, 1)


def test_n2_fiber_with_multiplicity_two():
    s = surf([(0, 1), (1, 1), (2, 1), (1, 0)])
    f, fbar = invariant_fibers(s, 1)
    assert f == (0, 1, 2, 1, 0, 0, 0, 0)  # C2 + 2 C3 + C4
    assert fbar == (0, 0, 0, 0, 0, 1, 2, 1)


def test_fibers_are_conjugate_and_match_pairing():
    for n in range(7):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            for a in range(1, s.k + 1):
                f, fbar = invariant_fibers(s, a)
                assert fbar == conjugate_divisor(f, s)
                for r, u in enumerate(s.rays):
                    assert f[r] - fbar[r] == det2(u, s.rays[a - 1])
                    assert f[r] * fbar[r] == 0
                # the fibration collapses its own curve and its conjugate
                assert f[a - 1] == 0 and fbar[a - 1] == 0
                assert any(f) and any(fbar)


def test_fiber_self_intersection_vanishes():
    for n in range(7):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            for a in range(1, s.k + 1):
                f, fbar = invariant_fibers(s, a)
                assert intersect(f, f, s) == 0
                assert intersect(fbar, fbar, s) == 0
                # the two fibers of one pencil meet nothing of each other
                assert intersect(f, fbar, s) == 0


def test_model_degree_hexagon_all_pairs():
    s = surf([(0, 1), (1, 1), (1, 0)])
    assert model_degree(s, 1, 2) == 1
    assert model_degree(s, 1, 3) == 1
    assert model_degree(s, 2, 3) == 1


def test_model_degree_n2_distant_pair():
    s = surf([(0, 1), (1, 1), (2, 1), (1, 0)])
    assert model_degree(s, 1, 3) == 2


def test_adjacent_pairs_always_degree_one():
    for n in range(7):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            for i in range(1, s.k):
                assert model_degree(s, i, i + 1) == 1


def test_degree_matches_determinant_cross_oracle():
    for n in range(7):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            for i in range(1, s.k + 1):
                for j in range(i + 1, s.k + 1):
                    d = model_degree(s, i, j)
                    assert d == abs(det2(seq.vectors[i - 1], seq.vectors[j - 1]))
                    assert d >= 1


def test_degree_matches_intersection_form_oracle():
    # model_degree is the closed form |det(v_i, v_j)|; the intersection
    # form of the two fibers is the independent route to the same number
    for n in range(7):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            fibers = [invariant_fibers(s, a)[0] for a in range(1, s.k + 1)]
            for i in range(1, s.k + 1):
                for j in range(i + 1, s.k + 1):
                    assert model_degree(s, i, j) == intersect(fibers[i - 1], fibers[j - 1], s)


def test_bimeromorphic_pairs_n2():
    s = surf([(0, 1), (1, 1), (2, 1), (1, 0)])
    pairs = bimeromorphic_pairs(degree_matrix(s))
    assert pairs == [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert (1, 3) not in pairs
    for i in range(1, 4):
        assert (i, i + 1) in pairs


def assert_triangulation(pairs, k):
    """The pairs are the sides and non-crossing diagonals of a triangulated k-gon, labels in cyclic order."""
    pairs = [tuple(p) for p in pairs]
    assert len(pairs) == len(set(pairs)) == 2 * k - 3
    assert {(i, i + 1) for i in range(1, k)} | {(1, k)} <= set(pairs)
    for a, b in pairs:
        assert 1 <= a < b <= k
        assert not [(c, d) for c, d in pairs if a < c < b < d]


def test_the_listing_pairs_triangulate_each_polygon():
    for n in range(9):
        for entry in run_enumerate(n)["sequences"]:
            assert_triangulation(entry["bimeromorphicPairs"], n + 2)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 10**6), max_size=38))
def test_bimeromorphic_pairs_triangulate_deep_chains(picks):
    s = surf(grow_by_mediants(picks))
    assert_triangulation(bimeromorphic_pairs(degree_matrix(s)), s.k)


def test_bad_indices_rejected():
    s = surf([(0, 1), (1, 1), (1, 0)])
    with pytest.raises(BadIndices):
        model_degree(s, 2, 2)
    with pytest.raises(BadIndices):
        model_degree(s, 3, 1)
    with pytest.raises(BadIndices):
        model_degree(s, 0, 2)
    with pytest.raises(BadIndices):
        model_degree(s, 1, 4)
    with pytest.raises(BadIndices):
        invariant_fibers(s, 7)
    # all three read the pairing row through ToricSurface.row, the one index check
    for alpha in (0, s.k + 1):
        for read in (invariant_fibers, solve_divisor_data):
            with pytest.raises(BadIndices, match=f"index {alpha} out of range 1..3"):
                read(s, alpha)
    # a bool would index as 0 or 1, a float would fail the tuple lookup with a TypeError
    vectors = [list(v) for v in s.rays[: s.k]]
    for bad in (True, 1.0, 2.0):
        for read in (invariant_fibers, solve_divisor_data):
            with pytest.raises(BadIndices, match=f"index must be an int, got {bad!r}"):
                read(s, bad)
    for i, j in ((True, 3), (1.0, 3), (2.0, 3), (1, 2.0)):  # each pair in order, as ints
        bad = j if type(i) is int else i
        for pick in (model_degree, run_model, run_classify):
            with pytest.raises(BadIndices, match=f"index must be an int, got {bad!r}"):
                pick(s if pick is model_degree else vectors, i, j)
