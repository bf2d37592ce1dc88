"""Fan construction and the intersection form of the invariant curves."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from twistoric import (
    ActionSequence,
    IndexMismatch,
    NonSmoothFan,
    anticanonical_cycle,
    build_surface,
    conjugate_divisor,
    enumerate_sequences,
    intersect,
    validate,
)
from twistoric.lattice import det2


def hexagon():
    return build_surface(validate([(0, 1), (1, 1), (1, 0)]))


def test_hexagon_rays_and_self_intersections():
    s = hexagon()
    assert s.rays == ((0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0))
    assert s.self_int == (-1, -1, -1, -1, -1, -1)


def test_base_case_square():
    s = build_surface(validate([(0, 1), (1, 0)]))
    assert s.rays == ((0, 1), (1, 0), (0, -1), (-1, 0))
    assert s.self_int == (0, 0, 0, 0)


def test_n2_self_intersections():
    s = build_surface(validate([(0, 1), (1, 1), (2, 1), (1, 0)]))
    assert s.self_int == (-1, -2, -1, -2, -1, -2, -1, -2)


def test_ray_relation_everywhere():
    for n in range(7):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            m = 2 * s.k
            for r in range(m):
                assert det2(s.rays[r], s.rays[(r + 1) % m]) == -1
                prev, cur, nxt = s.rays[r - 1], s.rays[r], s.rays[(r + 1) % m]
                c = s.self_int[r]
                assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (-c * cur[0], -c * cur[1])
            # conjugate curves share self-intersections
            assert s.self_int[: s.k] == s.self_int[s.k :]


def test_anticanonical_self_intersection_locks():
    # degree of the (weak) del Pezzo surface per n, knocked down by two
    # with each extra blown-up summand
    expected = {0: 8, 1: 6, 2: 4, 3: 2}
    for n, degree in expected.items():
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            cyc = anticanonical_cycle(s)
            assert intersect(cyc, cyc, s) == degree


def test_intersect_component_pairs_on_hexagon():
    s = hexagon()
    e = [tuple(1 if t == r else 0 for t in range(6)) for r in range(6)]
    assert intersect(e[0], e[0], s) == -1
    assert intersect(e[0], e[1], s) == 1
    assert intersect(e[0], e[5], s) == 1  # circular wrap
    assert intersect(e[0], e[2], s) == 0
    assert intersect(e[0], e[3], s) == 0
    cyc = anticanonical_cycle(s)
    for r in range(6):
        assert intersect(cyc, e[r], s) == 2 + s.self_int[r]


@given(
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_intersect_symmetric_and_bilinear(d1, d2, d3, a, b):
    s = build_surface(validate([(0, 1), (1, 1), (2, 1), (1, 0)]))
    assert intersect(d1, d2, s) == intersect(d2, d1, s)
    combo = tuple(a * x + b * y for x, y in zip(d1, d2))
    assert intersect(combo, d3, s) == a * intersect(d1, d3, s) + b * intersect(d2, d3, s)


def test_conjugation_preserves_intersections():
    for n in range(4):
        for seq in enumerate_sequences(n):
            s = build_surface(seq)
            m = 2 * s.k
            d1 = tuple((r * r + 1) % 5 - 2 for r in range(m))
            d2 = tuple((3 * r + 2) % 7 - 3 for r in range(m))
            c1, c2 = conjugate_divisor(d1, s), conjugate_divisor(d2, s)
            assert intersect(c1, c2, s) == intersect(d1, d2, s)
            assert conjugate_divisor(c1, s) == d1


def test_intersect_rejects_wrong_length():
    s = hexagon()
    with pytest.raises(IndexMismatch):
        intersect((1, 0, 0), (0,) * 6, s)
    with pytest.raises(IndexMismatch):
        conjugate_divisor((1, 0), s)


def test_build_surface_guards_against_corrupt_input():
    # bypass validation on purpose; the fan check must still catch these
    bogus = ActionSequence(n=1, vectors=((0, 1), (2, 1), (1, 0)))
    with pytest.raises(NonSmoothFan):
        build_surface(bogus)
    # interior determinants are -1; only the wrap pair fails, det(v_3, -v_1) = -2
    wrap = ActionSequence(n=1, vectors=((0, 1), (1, 1), (2, 1)))
    with pytest.raises(NonSmoothFan):
        build_surface(wrap)
