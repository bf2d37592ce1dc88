"""Top-level acceptance checks, one test per criterion.

Each test name carries its criterion number; the conftest summary hook turns
the results into one PASS/FAIL line per criterion at the end of the run.
All comparisons are exact (integers and rationals), no tolerances anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from twistoric import (
    AnalysisReport,
    ActionSequence,
    ConformalRoots,
    TwistorDivisorData,
    analyze_sequence,
    build_surface,
    det2,
    emit_open_model_description,
    emit_reduced_model,
    enumerate_sequences,
    intersect,
    invariant_fibers,
    model_degree,
    solve_divisor_data,
    system_meta,
    validate,
)
from twistoric.cli import main
from twistoric.models import FOUR_PLANES, GENERIC_FOUR_NODAL, TWO_QUADRIC_CONES, classify_fibers
from twistoric.ratpoly import degree, evaluate
from twistoric.report import default_roots, model_record, parse_model_record

from oracles import brute_force_sequences, exhaustive_divisor_solutions

HEXAGON = [(0, 1), (1, 1), (1, 0)]
SWEEP = {n: enumerate_sequences(n) for n in range(7)}


def all_surfaces(limit):
    for n in range(limit + 1):
        for seq in SWEEP[n]:
            yield build_surface(seq)


def test_c01_enumeration_counts():
    assert len(SWEEP[0]) == 1
    assert len(SWEEP[1]) == 1
    assert len(SWEEP[2]) == 2
    for n in range(5):
        expected = brute_force_sequences(n)
        assert [seq.vectors for seq in SWEEP[n]] == expected


def test_c02_fan_correctness():
    for surface in all_surfaces(6):
        rays, c = surface.rays, surface.self_int
        size = 2 * surface.k
        for r in range(size):
            assert det2(rays[r], rays[(r + 1) % size]) in (-1, 1)
            prev, nxt, cur = rays[r - 1], rays[(r + 1) % size], rays[r]
            assert prev[0] + nxt[0] == -c[r] * cur[0]
            assert prev[1] + nxt[1] == -c[r] * cur[1]
    hexagon = build_surface(validate(HEXAGON))
    assert hexagon.self_int == (-1,) * 6


def test_c03_fiber_self_intersection_vanishes():
    for surface in all_surfaces(6):
        for alpha in range(1, surface.k + 1):
            f, fbar = invariant_fibers(surface, alpha)
            assert intersect(f, f, surface) == 0
            assert intersect(fbar, fbar, surface) == 0


def test_c04_degree_law():
    for surface in all_surfaces(6):
        for i in range(1, surface.k):
            assert model_degree(surface, i, i + 1) == 1
    surface = build_surface(validate([(0, 1), (1, 1), (2, 1), (1, 0)]))
    assert model_degree(surface, 1, 3) == 2


def test_c05_degree_cross_oracle():
    mismatches = []
    for surface in all_surfaces(6):
        vs = surface.rays[: surface.k]
        for i in range(1, surface.k + 1):
            for j in range(i + 1, surface.k + 1):
                d = model_degree(surface, i, j)
                det = abs(det2(vs[i - 1], vs[j - 1]))
                if d != det:
                    mismatches.append((vs, i, j, d, det))
    assert mismatches == []


def test_c06_divisor_solve():
    for surface in all_surfaces(6):
        k = surface.k
        for alpha in range(1, k + 1):
            data = solve_divisor_data(surface, alpha)
            f, fbar = invariant_fibers(surface, alpha)
            built = data.build_divisor()
            for r in range(2 * k):
                assert built[r] == data.m - f[r] + fbar[r]
            assert sum(data.l_total) == 2 * data.m
            for p, q in zip(data.l_plus, data.l_minus):
                assert p >= 0 and q >= 0 and p * q == 0
    for n in range(3):
        for seq in SWEEP[n]:
            surface = build_surface(seq)
            for alpha in range(1, surface.k + 1):
                data = solve_divisor_data(surface, alpha)
                f, fbar = invariant_fibers(surface, alpha)
                assert exhaustive_divisor_solutions(f, fbar) == [
                    (data.m, data.l_plus, data.l_minus)
                ]
    hexagon = build_surface(validate(HEXAGON))
    data = [solve_divisor_data(hexagon, a) for a in (1, 2, 3)]
    assert [d.m for d in data] == [1, 1, 1]
    assert data[0].l_minus == (1, 0, 0) and data[0].l_plus == (0, 0, 1)


def test_c07_model_equations_and_degrees():
    hexagon = build_surface(validate(HEXAGON))
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    eqs = emit_reduced_model(
        solve_divisor_data(hexagon, 1), solve_divisor_data(hexagon, 2), roots, (1, 1)
    )
    record = emit_open_model_description(eqs)
    assert record["equations"] == ["xi1*xi2 = lambda - 1", "xi3*xi4 = lambda"]
    assert eqs.bundle == (1, 1, 1, 1)
    for surface in all_surfaces(6):
        roots = default_roots(surface.k)
        data = [solve_divisor_data(surface, a) for a in range(1, surface.k + 1)]
        for i in range(surface.k):
            for j in range(i + 1, surface.k):
                eqs = emit_reduced_model(data[i], data[j], roots)
                di = next(d for d in data if d.alpha == eqs.i)
                dj = next(d for d in data if d.alpha == eqs.j)
                assert degree(eqs.p1) == 2 * di.m - di.l_total[0]
                assert degree(eqs.p2) == 2 * dj.m - dj.l_total[0]


def test_c08_linear_system_metadata():
    for surface in all_surfaces(6):
        roots = default_roots(surface.k)
        data = [solve_divisor_data(surface, a) for a in range(1, surface.k + 1)]
        for i in range(1, surface.k):
            eqs = emit_reduced_model(data[i - 1], data[i], roots)
            di = next(d for d in data if d.alpha == eqs.i)
            dj = next(d for d in data if d.alpha == eqs.j)
            meta = system_meta(di, dj)
            assert meta.num_coords - di.m == 2 * meta.mu + 5
            assert meta.dim_combined == 3 * di.m - 2 * dj.m + 5


def test_c09_fiber_classification():
    hexagon = build_surface(validate(HEXAGON))
    roots = ConformalRoots(k=3, tail=(Fraction(1),))
    # m_1 = m_2 = 1, so the model for the pair keeps the order (1, 2)
    d1, d2 = solve_divisor_data(hexagon, 1), solve_divisor_data(hexagon, 2)
    classes = classify_fibers(d1.l_total, d2.l_total, roots)
    by_location = {c.location: c.kind for c in classes if not c.generic}
    assert by_location[None] == FOUR_PLANES
    assert by_location[Fraction(0)] == TWO_QUADRIC_CONES
    generic = [c for c in classes if c.generic]
    assert len(generic) == 1 and generic[0].kind == GENERIC_FOUR_NODAL
    # kind must be recomputable from the vanishing pattern of the two
    # polynomials alone: both vanish, exactly one vanishes, neither does
    for n in range(5):
        for seq in SWEEP[n]:
            surface = build_surface(seq)
            roots = default_roots(surface.k)
            data = [solve_divisor_data(surface, a) for a in range(1, surface.k + 1)]
            for i in range(1, surface.k):
                eqs = emit_reduced_model(data[i - 1], data[i], roots)
                di = next(d for d in data if d.alpha == eqs.i)
                dj = next(d for d in data if d.alpha == eqs.j)
                for c in classify_fibers(di.l_total, dj.l_total, roots):
                    if c.generic:
                        assert c.kind == GENERIC_FOUR_NODAL
                        continue
                    if c.location is None:
                        v1 = 2 * di.m - degree(eqs.p1) > 0
                        v2 = 2 * dj.m - degree(eqs.p2) > 0
                    else:
                        v1 = evaluate(eqs.p1, c.location) == 0
                        v2 = evaluate(eqs.p2, c.location) == 0
                    expected = (
                        FOUR_PLANES
                        if v1 and v2
                        else TWO_QUADRIC_CONES
                        if v1 or v2
                        else GENERIC_FOUR_NODAL
                    )
                    assert c.kind == expected


def test_c10_cli_determinism_and_round_trip(tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps({"vectors": [[0, 1], [1, 2], [1, 1], [1, 0]]}), encoding="utf-8")
    for command in (
        ["analyze", "--input", str(src)],
        ["model", "--input", str(src), "--i", "1", "--j", "2", "--full"],
        ["enumerate", "--n", "3"],
    ):
        assert main(command) == 0
        first = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == first
        assert first.encode("utf-8")

    for n in range(4):
        for seq in SWEEP[n]:
            report = analyze_sequence(seq)
            data = json.loads(json.dumps(report.to_json()))
            assert AnalysisReport.from_json(data) == report
            assert AnalysisReport.from_json(data).to_json() == data
            assert ActionSequence.from_json(seq.to_json()) == seq
            for d in report.divisors:
                assert TwistorDivisorData.from_json(d.to_json()) == d
            assert ConformalRoots.from_json(report.roots.to_json()) == report.roots
            for eqs, classes in report.models:
                assert parse_model_record(model_record(eqs, classes)) == (eqs, classes)
