"""The package's top level: each module's __all__, every name the module's own object."""

from __future__ import annotations

import __future__
import importlib
from types import ModuleType

import pytest

import twistoric

from mutants import MUTANTS, stale

MODULES = ("errors", "lattice", "surface", "fibers", "divisors", "models", "report")

# Everything importable from twistoric when __init__ still listed the names one by one:
# the 52 names it imported, the eight submodules their imports bind, and __future__'s annotations.
PUBLISHED = """
    BadIndices CapExceeded DegenerateConstants InconsistentSystem IndexMismatch NegativeMultiplicity
    NonSmoothFan NotNormalizable RootCollision RootOrderViolation SequenceValidationError TwistoricError
    Violation ActionSequence check det2 enumerate_sequences is_primitive normalize reversal_dual validate
    ToricSurface anticanonical_cycle build_surface conjugate_divisor intersect bimeromorphic_pairs
    degree_matrix invariant_fibers model_degree TwistorDivisorData solve_divisor_data solve_from_fibers
    FOUR_PLANES GENERIC_FOUR_NODAL TWO_QUADRIC_CONES ConformalRoots FiberClass LinearSystemMeta
    ModelEquations classify_fibers emit_full_model emit_open_model_description emit_reduced_model
    system_meta AnalysisReport analyze_sequence default_roots run_analyze run_classify run_enumerate
    run_model errors lattice surface fibers divisors ratpoly models report annotations
""".split()


@pytest.mark.parametrize("name", MODULES)
def test_top_level_publishes_each_module_all(name):
    module = importlib.import_module(f"twistoric.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert getattr(twistoric, attr) is getattr(module, attr), f"{name}.{attr}"


def test_top_level_publishes_nothing_else():
    listed = {attr for name in MODULES for attr in importlib.import_module(f"twistoric.{name}").__all__}
    # submodules become attributes of the package as they are imported, cli among them once a test loads it
    public = {attr for attr, obj in vars(twistoric).items() if not attr.startswith("_") and not isinstance(obj, ModuleType)}
    assert public == listed | {"annotations"}
    assert not set(twistoric.ratpoly.__all__) & public  # ratpoly stays a submodule only
    # so the test above reads none of its names, but bench/tracer.py reads each with getattr
    assert [attr for attr in twistoric.ratpoly.__all__ if not hasattr(twistoric.ratpoly, attr)] == []
    assert listed - set(PUBLISHED) == {"Matrix", "Vector", "Divisor", "DEFAULT_CAP", "model_record", "model_size", "parse_model_record"}


def test_every_earlier_name_is_still_published():
    assert len(PUBLISHED) == 61
    for attr in PUBLISHED:
        obj = getattr(twistoric, attr)
        if attr in (*MODULES, "ratpoly"):
            assert obj is importlib.import_module(f"twistoric.{attr}")
        elif attr == "annotations":
            assert obj is __future__.annotations
        else:
            assert any(obj is getattr(importlib.import_module(f"twistoric.{name}"), attr, None) for name in MODULES), attr


def test_every_planted_bug_still_applies():
    """Each snippet of tests/mutants.py occurs once in src/, so an edit that orphans one fails here, in seconds."""
    assert [reason for reason in map(stale, MUTANTS) if reason] == []
