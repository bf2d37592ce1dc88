"""Toric surfaces and projective twistor-space models from torus-action data.

The pipeline: validate or enumerate the integer data of a torus action,
build the associated smooth complete toric surface, intersect the invariant
quotient fibers, decompose the twistor pencil members over half-cycles of
the anticanonical cycle, and emit explicit defining equations of the
resulting projective models together with their fiber classification.
"""

from __future__ import annotations

from .errors import (
    BadIndices,
    CapExceeded,
    DegenerateConstants,
    InconsistentSystem,
    IndexMismatch,
    NegativeMultiplicity,
    NonSmoothFan,
    NotNormalizable,
    RootCollision,
    RootOrderViolation,
    SequenceValidationError,
    TwistoricError,
    Violation,
)
from .lattice import (
    ActionSequence,
    check,
    det2,
    enumerate_sequences,
    is_primitive,
    normalize,
    reversal_dual,
    validate,
)
from .surface import (
    ToricSurface,
    anticanonical_cycle,
    build_surface,
    conjugate_divisor,
    intersect,
)
from .fibers import (
    bimeromorphic_pairs,
    degree_matrix,
    invariant_fibers,
    model_degree,
)
from .divisors import (
    TwistorDivisorData,
    solve_divisor_data,
    solve_from_fibers,
)
from .models import (
    FOUR_PLANES,
    GENERIC_FOUR_NODAL,
    TWO_QUADRIC_CONES,
    ConformalRoots,
    FiberClass,
    LinearSystemMeta,
    ModelEquations,
    classify_fibers,
    emit_full_model,
    emit_open_model_description,
    emit_reduced_model,
    system_meta,
)
from .report import (
    AnalysisReport,
    analyze_sequence,
    default_roots,
    run_analyze,
    run_classify,
    run_enumerate,
    run_model,
)

__version__ = "0.1.0"
