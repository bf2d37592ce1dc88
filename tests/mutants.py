"""A catalog of planted bugs, each with the tests that must catch it, and its runner.

    python tests/mutants.py [NAME ...]

Each mutant names a module of src/twistoric, an `old` snippet that must occur in it exactly once, the
`new` text that replaces it, and the test node ids that must fail once it does.  The runner first
checks every snippet, so a stale one fails the catalog before anything runs.  It then runs every
listed test on an unpatched copy of src/, where all must pass, and then, for each mutant, each of its
tests on a copy of src/ with that one patch applied, with `-x -q -p no:cacheprovider` and a fixed
hypothesis seed.  A test that still passes leaves the mutant alive; one that fails or runs past
TIMEOUT_S kills it.  It prints the kill matrix and the
wall time, and exits 1 if any snippet is stale, any test fails on the unpatched tree or any listed
test lets its mutant live.  The test processes run in a scratch directory, so hypothesis keeps no
example database between them.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistoric"

TIMEOUT_S = 120

Mutant = namedtuple("Mutant", "name file old new tests")

MUTANTS = [
    Mutant(
        "roots-no-neighbour-collision",
        "models.py",
        "            if b == a or b == 0:\n",
        "            if b == 0:\n",
        ("tests/test_models.py::test_root_check_matches_the_two_loop_oracle", "tests/test_models.py::test_conformal_roots_validation"),
    ),
    Mutant(
        "generic-sample-counts-every-positive-root",
        "models.py",
        "        if r == n:\n            n += 1\n",
        "        if r > 0:\n            n += 1\n",
        ("tests/test_models.py::test_generic_sample_matches_the_set_and_while_oracle",),
    ),
    Mutant(
        "default-roots-from-two",
        "report.py",
        "range(1, k - 1)",
        "range(2, k)",
        ("tests/test_report.py::test_default_roots", "tests/test_models.py::test_default_roots_count_from_one_and_name_a_bad_k"),
    ),
    Mutant(
        "writer-rows-all-rescaled-to-c2",
        "models.py",
        "{c: form(_rescaled(eqs.p2, c)) for c in set(eqs.constants[1:])}",
        "dict.fromkeys(eqs.constants[1:], form(_rescaled(eqs.p2, eqs.constants[1])))",
        ("tests/test_models.py::test_the_writer_formats_each_distinct_polynomial_once[5]", "tests/test_golden.py::test_json_outputs_match_golden_digests"),
    ),
    Mutant(
        "writer-p1-row-from-p2-map",
        "models.py",
        "return [form(eqs.p1)] + ",
        "return [formed[eqs.constants[1]] if eqs.constants[0] == eqs.constants[1] else form(eqs.p1)] + ",
        ("tests/test_golden.py::test_json_outputs_match_golden_digests",),
    ),
    Mutant(
        "model-shape-unchecked",
        "models.py",
        "        if m_i < m_j or len(constants) not in (2, m_i - m_j + 2) or 0 in constants:\n",
        "        if False:\n",
        ("tests/test_records.py::test_model_shape_must_be_one_its_reader_reads",),
    ),
    Mutant(
        "model-size-drops-label-2",
        "models.py",
        "zip(l_total[1:], roots.finite_roots)",
        "zip(l_total[2:], roots.tail)",
        ("tests/test_models.py::test_model_size_bounds_every_coefficient",),
    ),
    Mutant(
        "enumeration-inserts-v-plus-twice-next",
        "lattice.py",
        "med = (ch[i][0] + ch[i + 1][0], ch[i][1] + ch[i + 1][1])",
        "med = (ch[i][0] + 2 * ch[i + 1][0], ch[i][1] + 2 * ch[i + 1][1])",
        ("tests/test_lattice.py::test_enumerate_results_validate", "tests/test_lattice.py::test_enumerate_matches_brute_force_oracle"),
    ),
    Mutant(
        "reader-rebuilds-before-its-budget",
        "models.py",
        "    _budgeted(orders, roots, c, ValueError, \"'P'\")\n",
        "    _rescaled((0,) * zeros + from_factors(zip(tail, orders[2:])), c)\n    _budgeted(orders, roots, c, ValueError, \"'P'\")\n",
        ("tests/test_report.py::test_no_digit_limit_leaves_only_the_degree_rule",),
    ),
    Mutant(
        "reader-without-bit-budget",
        "models.py",
        "    _budgeted(orders, roots, c, ValueError, \"'P'\")\n",
        "",
        ("tests/test_report.py::test_oversized_records_are_refused_before_dividing", "tests/test_report.py::test_no_digit_limit_leaves_only_the_degree_rule"),
    ),
    Mutant(
        "budget-gate-one-bit-late",
        "models.py",
        "if budget and bits > budget:",
        "if budget and bits > budget + 1:",
        ("tests/test_report.py::test_oversized_records_are_refused_before_dividing", "tests/test_report.py::test_no_digit_limit_leaves_only_the_degree_rule"),
    ),
    Mutant(
        "fraction-exponent-unchecked",
        "lattice.py",
        "    if exponent and abs(int(exponent[1])) > limit:\n",
        "    if False:\n",
        ("tests/test_models.py::test_an_exponent_past_the_digit_limit_is_refused_before_it_is_computed",),
    ),
    Mutant(
        "reader-tail-orders-off-by-one",
        "models.py",
        "pow(r * evaluate(dq, r), -1, n) % n for r in rs]",
        "pow(r * evaluate(dq, r), -1, n) % n + 1 for r in rs]",
        ("tests/test_report.py::test_model_record_round_trip", "tests/test_models.py::test_reader_root_tests_agree_with_multiplicity_classes"),
    ),
    Mutant(
        "reader-newton-sign-flipped",
        "models.py",
        "sums.append((-j * top[j] - ",
        "sums.append((j * top[j] - ",
        ("tests/test_report.py::test_model_record_round_trip", "tests/test_models.py::test_the_reader_returns_the_oracle_multiplicities"),
    ),
    Mutant(
        "reader-quotient-keeps-the-lead-of-q",
        "models.py",
        "zip(q[t + 1 :], sums)",
        "zip(q[t:], sums)",
        ("tests/test_report.py::test_model_record_round_trip", "tests/test_models.py::test_the_reader_returns_the_oracle_multiplicities"),
    ),
    Mutant(
        "reader-modulus-below-degree",
        "models.py",
        "range(2**61 - 1, 1, -2)",
        "range(2**5 - 1, 1, -2)",
        ("tests/test_report.py::test_roots_that_meet_modulo_the_first_modulus_are_read", "tests/test_report.py::test_no_digit_limit_leaves_only_the_degree_rule"),
    ),
    Mutant(
        "reader-non-units-not-skipped",
        "models.py",
        "        except ValueError:\n            pass\n",
        "        except ZeroDivisionError:\n            pass\n",
        ("tests/test_report.py::test_roots_that_meet_modulo_the_first_modulus_are_read",),
    ),
    Mutant(
        "reader-without-degree-check",
        "models.py",
        " or zeros + sum(orders[2:]) != deg:",
        ":",
        ("tests/test_report.py::test_orders_that_miss_the_degree_of_p_are_refused_before_rebuilding",),
    ),
    Mutant(
        "reader-skips-the-rebuild",
        "models.py",
        "    if _rescaled((0,) * zeros + from_factors(zip(tail, orders[2:])), c) != p:\n",
        "    if False:\n",
        ("tests/test_models.py::test_the_reader_returns_the_oracle_multiplicities", "tests/test_report.py::test_only_the_rebuild_sees_a_coefficient_below_the_top_ones"),
    ),
    Mutant(
        "models-expand-each-label-per-model",
        "models.py",
        "    products = {d.alpha: (0,) * l[1] + from_factors(zip(roots.tail, l[2:])) for d, l in zip(data, totals)}\n",
        "    totals = {d.alpha: l for d, l in zip(data, totals)}\n"
        "    expand = lambda _, a: (0,) * totals[a][1] + from_factors(zip(roots.tail, totals[a][2:]))\n"
        "    products = type('ExpandedPerLookup', (), {'__getitem__': expand})()\n",
        ("tests/test_models.py::test_each_pencil_product_is_expanded_once",),
    ),
    Mutant(
        "models-shift-by-fraction-zeros",
        "models.py",
        "(0,) * l[1] + from_factors(",
        "(Fraction(0),) * l[1] + from_factors(",
        ("tests/test_models.py::test_default_models_hold_ints",),
    ),
    Mutant(
        "polys-pad-with-fraction-zeros",
        "models.py",
        "tuple(_chain(self, tuple, (0,)))",
        "tuple(_chain(self, tuple, (Fraction(0),)))",
        ("tests/test_models.py::test_default_models_hold_ints",),
    ),
    Mutant(
        "exact-rewraps-in-fraction",
        "models.py",
        "    return values\n",
        "    return tuple([Fraction(v) for v in values])\n",
        ("tests/test_models.py::test_default_models_hold_ints", "tests/test_records.py::test_conformal_roots_replace_keeps_types_like_the_constructor"),
    ),
    Mutant(
        "rescaled-by-float-division",
        "models.py",
        "ratio = Fraction(c, p[-1])",
        "ratio = c / p[-1]",
        ("tests/test_models.py::test_int_constants_rescale_to_exact_rows", "tests/test_golden.py::test_json_outputs_match_golden_digests"),
    ),
    Mutant(
        "reader-zero-count-off-by-one",
        "models.py",
        "[two_m - deg, zeros]",
        "[two_m - deg, zeros + 1]",
        ("tests/test_report.py::test_model_record_round_trip", "tests/test_report.py::test_a_power_of_lambda_at_the_budget_reads_in_linear_time"),
    ),
    Mutant(
        "smoothness-guard-skips-row-0",
        "surface.py",
        "for r in range(k):",
        "for r in range(k - 1):",
        ("tests/test_surface.py::test_build_surface_guards_against_corrupt_input",),
    ),
    Mutant(
        "fan-check-wrap-unflipped",
        "surface.py",
        "if pairing[a][a - 1] != (-1 if a else 1):",
        "if pairing[a][a - 1] != -1:",
        ("tests/test_surface.py::test_hexagon_rays_and_self_intersections", "tests/test_surface.py::test_ray_relation_everywhere"),
    ),
    Mutant(
        "self-intersections-of-rows-0-and-1-unflipped",
        "surface.py",
        "c = [row[a - 2] if a > 1 else -row[a - 2] for a, row in enumerate(pairing)]",
        "c = [row[a - 2] for a, row in enumerate(pairing)]",
        ("tests/test_surface.py::test_n2_self_intersections", "tests/test_divisors.py::test_deep_chain_invariants"),
    ),
    Mutant(
        "self-intersections-unrotated",
        "surface.py",
        "tuple(c[1:] + c[:1]) * 2",
        "tuple(c) * 2",
        ("tests/test_surface.py::test_n2_self_intersections", "tests/test_surface.py::test_ray_relation_everywhere", "tests/test_acceptance.py::test_c02_fan_correctness"),
    ),
    Mutant(
        "half-cycles-swapped",
        "divisors.py",
        "alpha=alpha, m=m, l_plus=l_plus, l_minus=l_minus",
        "alpha=alpha, m=m, l_plus=l_minus, l_minus=l_plus",
        ("tests/test_divisors.py::test_hexagon_divisor_data", "tests/test_divisors.py::test_reconstruction_identity_everywhere"),
    ),
    Mutant(
        "steps-reversed",
        "divisors.py",
        "steps = [row[b] - row[b + 1] for b in range(len(row) - 1)]",
        "steps = [row[b + 1] - row[b] for b in range(len(row) - 1)]",
        ("tests/test_divisors.py::test_hexagon_divisor_data", "tests/test_divisors.py::test_reconstruction_identity_everywhere"),
    ),
    Mutant(
        "inconsistent-m-from-l-plus",
        "divisors.py",
        "sum([b - a for a, b in zip(row, row[1 : k + 1]) if b > a])",
        "sum([a - b for a, b in zip(row, row[1 : k + 1]) if a > b])",
        ("tests/test_divisors.py::test_solve_from_arbitrary_fibers_is_checked",),
    ),
    Mutant(
        "listing-m-without-ray-k",
        "divisors.py",
        "_from_row((row := surface.row(alpha)) + (-row[0],), alpha)",
        "_from_row(surface.row(alpha), alpha)",
        ("tests/test_report.py::test_run_enumerate_listing", "tests/test_divisors.py::test_each_blow_up_step_matches_the_surface_of_deep_chains", "tests/test_golden.py::test_json_outputs_match_golden_digests"),
    ),
    Mutant(
        "blow-up-new-m-without-the-base-case",
        "report.py",
        "m[i] + m[i + 1] if len(m) > 2 else 1",
        "m[i] + m[i + 1]",
        ("tests/test_report.py::test_run_enumerate_listing", "tests/test_divisors.py::test_the_listing_reads_m_off_each_row"),
    ),
    Mutant(
        "blow-up-new-m-from-one-neighbour",
        "report.py",
        "m[i] + m[i + 1] if len(m) > 2 else 1",
        "2 * m[i] if len(m) > 2 else 1",
        ("tests/test_divisors.py::test_the_listing_reads_m_off_each_row", "tests/test_divisors.py::test_each_blow_up_step_matches_the_surface_of_deep_chains"),
    ),
    # |x - y| -> ||x| - |y|| is equivalent: x and y never have opposite signs on a normalized chain, whose
    # vectors turn clockwise through one quadrant, so that plant is left out
    Mutant(
        "blow-up-raises-m-on-opposite-signs-only",
        "report.py",
        "abs(y := c * q - d * p) - abs(x - y)",
        "abs(y := c * q - d * p) - abs(x + y)",
        ("tests/test_divisors.py::test_the_listing_reads_m_off_each_row", "tests/test_divisors.py::test_each_blow_up_step_matches_the_surface_of_deep_chains"),
    ),
    Mutant(
        "blow-up-lowers-one-neighbour",
        "report.py",
        "(s[i] - 1, -1, s[i + 1] - 1)",
        "(s[i] - 1, -1, s[i + 1])",
        ("tests/test_report.py::test_run_enumerate_listing", "tests/test_divisors.py::test_each_blow_up_step_matches_the_surface_of_deep_chains"),
    ),
    Mutant(
        "blow-up-drops-a-new-pair",
        "report.py",
        "    pairs.insert(bisect_left(pairs, [j + 1]), [j, j + 1])\n",
        "",
        ("tests/test_report.py::test_run_enumerate_listing", "tests/test_divisors.py::test_each_blow_up_step_matches_the_surface_of_deep_chains", "tests/test_fibers.py::test_the_listing_pairs_triangulate_each_polygon"),
    ),
    Mutant(
        "count-only-catalan-off-by-one",
        "report.py",
        "// (n + 1)",
        "// (n + 2)",
        ("tests/test_report.py::test_count_only_is_the_catalan_number_without_building_the_listing", "tests/test_cli.py::test_enumerate_count_only"),
    ),
    Mutant(
        "enumerate-loses-output",
        "cli.py",
        'sub.add_parser("enumerate", parents=[writes], ',
        'sub.add_parser("enumerate", ',
        ("tests/test_cli.py::test_each_command_takes_the_options_of_its_table", "tests/test_cli.py::test_enumerate_count_only"),
    ),
    Mutant(
        "from-factors-floors-fractions",
        "ratpoly.py",
        "[Fraction(c, den) for c in p]",
        "[c // den for c in p]",
        ("tests/test_ratpoly.py::test_from_factors_matches_sympy_expansion", "tests/test_ratpoly.py::test_from_factors_matches_the_shift_and_subtract_oracle"),
    ),
    Mutant(
        "from-factors-fractions-when-integral",
        "ratpoly.py",
        "tuple(p if den == 1 else",
        "tuple([Fraction(c) for c in p] if den == 1 else",
        ("tests/test_ratpoly.py::test_from_factors_matches_the_shift_and_subtract_oracle", "tests/test_models.py::test_default_models_hold_ints"),
    ),
    Mutant(
        "evaluate-reads-coefficients-backwards",
        "ratpoly.py",
        "    for c in reversed(p):\n        acc = acc * x + c\n",
        "    for c in p:\n        acc = acc * x + c\n",
        ("tests/test_ratpoly.py::test_evaluate_exact", "tests/test_report.py::test_model_record_round_trip"),
    ),
    Mutant(
        "classify-one-label-off",
        "models.py",
        "for r, a, b in zip((None,) + roots.finite_roots, l_i, l_j)",
        "for r, a, b in zip((None,) + roots.finite_roots, l_i[1:] + l_i[:1], l_j[1:] + l_j[:1])",
        ("tests/test_models.py::test_hexagon_fiber_classification_exact", "tests/test_models.py::test_classification_flags_non_reduced_members"),
    ),
    Mutant(
        "row-takes-bools",
        "surface.py",
        "if type(alpha) is not int:",
        "if not isinstance(alpha, int):",
        ("tests/test_fibers.py::test_bad_indices_rejected",),
    ),
    Mutant(
        "negative-multiplicity-exits-2",
        "errors.py",
        "class NegativeMultiplicity(TwistoricError):",
        "class NegativeMultiplicity(TwistoricError, ValueError):",
        ("tests/test_cli.py::test_exit_code_of_each_error[NegativeMultiplicity]",),
    ),
    Mutant(
        "bimeromorphic-pairs-drop-j-equal-k",
        "fibers.py",
        "for j in range(i + 1, len(row)) if row[j] == 1]",
        "for j in range(i + 1, len(row) - 1) if row[j] == 1]",
        ("tests/test_fibers.py::test_bimeromorphic_pairs_n2",),
    ),
    Mutant(
        "model-degree-skips-row-i",
        "fibers.py",
        "    surface.row(i)  # refuses a bool or non-int i; row j refuses j\n",
        "",
        ("tests/test_fibers.py::test_bad_indices_rejected",),
    ),
    Mutant(
        "reader-compares-with-eq",
        "lattice.py",
        "same = _text(out) == _text(data)",
        "same = out == data",
        ("tests/test_models.py::test_conformal_roots_json_reader_is_strict", "tests/test_report.py::test_model_record_reader_is_strict"),
    ),
]


def stale(mutant: Mutant) -> str | None:
    """Why the mutant's snippet cannot be applied, or None."""
    count = (PACKAGE / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    return None if count == 1 else f"{mutant.name}: `old` occurs {count} times in src/twistoric/{mutant.file}, not once"


def copy_package(work: Path, mutant: Mutant | None) -> Path:
    """A fresh src/ under work, with the mutant's patch applied; returns the src directory."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(PACKAGE, src / "twistoric", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "twistoric" / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def outcome(src: Path, test: str, work: Path) -> str:
    """'passed', 'failed' or 'timeout' for one test node, with the package imported from src, run in work."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / test)]
    try:
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # a patch can make a loop endless; that is a kill too
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(names: list[str]) -> int:
    start = time.perf_counter()
    chosen = [m for m in MUTANTS if not names or m.name in names]
    problems = [reason for reason in map(stale, chosen) if reason]
    if names and len(chosen) != len(set(names)):
        problems.append(f"no mutant named {sorted(set(names) - {m.name for m in chosen})}")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        src = copy_package(work, None)
        found = subprocess.run([sys.executable, "-c", "import twistoric; print(twistoric.__file__)"], cwd=work, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
        if not found.stdout.startswith(str(src)):
            print(f"the tests would import twistoric from {found.stdout.strip() or found.stderr.strip()}, not from the copy")
            return 1
        tests = sorted({test for m in chosen for test in m.tests})
        failing = [test for test in tests if outcome(src, test, work) != "passed"]
        for test in failing:
            print(f"fails on the unpatched tree: {test}", flush=True)
        alive = 0
        print(f"{'mutant':45s} {'verdict':8s} test")
        for mutant in chosen:
            src = copy_package(work, mutant)
            for test in mutant.tests:
                verdict = outcome(src, test, work)
                alive += verdict == "passed"
                print(f"{mutant.name:45s} {'ALIVE' if verdict == 'passed' else verdict:8s} {test}", flush=True)
    print(f"{len(chosen)} mutants, {sum(len(m.tests) for m in chosen)} (mutant, test) pairs, {alive} alive, "
          f"{len(failing)} tests failing unpatched, {time.perf_counter() - start:.1f} s wall time")
    return 1 if failing or alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
