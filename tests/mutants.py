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
        "default-roots-cache-untyped",
        "report.py",
        "@lru_cache(maxsize=None, typed=True)",
        "@lru_cache(maxsize=None)",
        ("tests/test_models.py::test_default_roots_are_built_once_per_k",),
    ),
    Mutant(
        "default-roots-from-two",
        "report.py",
        "range(1, k - 1)",
        "range(2, k)",
        ("tests/test_report.py::test_default_roots", "tests/test_models.py::test_default_roots_are_built_once_per_k"),
    ),
    Mutant(
        "writer-rows-keyed-by-numerator",
        "models.py",
        "keys = [(eqs.j if a else eqs.i, c.numerator, c.denominator) for a, c in enumerate(cs)]",
        "keys = [(eqs.j if a else eqs.i, c.numerator) for a, c in enumerate(cs)]",
        ("tests/test_models.py::test_the_writer_formats_each_distinct_polynomial_once[5]",),
    ),
    Mutant(
        "writer-rows-keyed-by-label-alone",
        "models.py",
        "keys = [(eqs.j if a else eqs.i, c.numerator, c.denominator) for a, c in enumerate(cs)]",
        "keys = [(eqs.j if a else eqs.i,) for a, c in enumerate(cs)]",
        (
            "tests/test_report.py::test_a_report_writes_each_model_as_the_single_model_writer_does",
            "tests/test_report.py::test_a_report_formats_each_label_product_once_per_constant",
            "tests/test_golden.py::test_json_outputs_match_golden_digests",
        ),
    ),
    Mutant(
        "writer-shares-rows-uncopied",
        "models.py",
        "return [zero * max(2 * a - 2, 0) + memo[key] for a, key in enumerate(keys)]",
        "return [memo[key] if a < 2 else zero * (2 * a - 2) + memo[key] for a, key in enumerate(keys)]",
        ("tests/test_report.py::test_a_report_writes_each_model_as_the_single_model_writer_does",),
    ),
    Mutant(
        "model-size-drops-label-2",
        "models.py",
        "weights = (1,) + tuple(",
        "weights = (0,) + tuple(",
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
        "reader-divides-before-its-bound",
        "models.py",
        "    if deg > two_m:\n",
        "    for r in roots.finite_roots:\n        divided(cleared(p), r)\n    if deg > two_m:\n",
        ("tests/test_report.py::test_oversized_records_are_refused_before_dividing",),
    ),
    Mutant(
        "reader-without-bit-budget",
        "models.py",
        "    if budget and deg > budget:\n",
        "    if False:\n",
        ("tests/test_report.py::test_oversized_records_are_refused_before_dividing", "tests/test_report.py::test_no_digit_limit_leaves_only_the_degree_rule"),
    ),
    Mutant(
        "reader-stops-one-division-early",
        "models.py",
        "orders.append(0)",
        "orders.append(-1)",
        ("tests/test_report.py::test_model_record_round_trip", "tests/test_models.py::test_reader_root_tests_agree_with_multiplicity_classes"),
    ),
    Mutant(
        "models-expand-each-label-per-model",
        "models.py",
        "    products = {d.alpha: (Fraction(0),) * l[1] + from_factors(zip(roots.tail, l[2:])) for d, l in zip(data, l_totals)}\n"
        "    return [\n"
        "        ModelEquations(i=di.alpha, j=dj.alpha, m_i=di.m, m_j=dj.m, constants=cs, p1=_scaled(products[di.alpha], cs[0]), p2=_scaled(products[dj.alpha], cs[1]))\n",
        "    product = lambda d: (Fraction(0),) * d.l_total[1] + from_factors(zip(roots.tail, d.l_total[2:]))\n"
        "    return [\n"
        "        ModelEquations(i=di.alpha, j=dj.alpha, m_i=di.m, m_j=dj.m, constants=cs, p1=_scaled(product(di), cs[0]), p2=_scaled(product(dj), cs[1]))\n",
        ("tests/test_models.py::test_each_pencil_product_is_expanded_once",),
    ),
    Mutant(
        "smoothness-guard-skips-row-0",
        "surface.py",
        "for r in range(k):",
        "for r in range(k - 1):",
        ("tests/test_surface.py::test_build_surface_guards_against_corrupt_input",),
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
        "steps = [row[b] - row[b + 1] for b in range(len(row) // 2)]",
        "steps = [row[b + 1] - row[b] for b in range(len(row) // 2)]",
        ("tests/test_divisors.py::test_hexagon_divisor_data", "tests/test_divisors.py::test_reconstruction_identity_everywhere"),
    ),
    Mutant(
        "divided-skips-its-first-step",
        "ratpoly.py",
        "for c in reversed(coeffs[1:]):",
        "for c in reversed(coeffs[1:-1]):",
        (
            "tests/test_ratpoly.py::test_divided_exact",
            "tests/test_ratpoly.py::test_integer_root_test_matches_fraction_evaluation",
            "tests/test_ratpoly.py::test_repeated_division_counts_the_constructed_multiplicity",
        ),
    ),
    Mutant(
        "classify-one-label-off",
        "models.py",
        "for r, a, b in zip(locations, l_i, l_j)",
        "for r, a, b in zip(locations, l_i[1:] + l_i[:1], l_j[1:] + l_j[:1])",
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
