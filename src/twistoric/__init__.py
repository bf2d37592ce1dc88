"""Toric surfaces and projective twistor-space models from torus-action data.

The pipeline: validate or enumerate the integer data of a torus action,
build the associated smooth complete toric surface, intersect the invariant
quotient fibers, decompose the twistor pencil members over half-cycles of
the anticanonical cycle, and emit explicit defining equations of the
resulting projective models together with their fiber classification.

The top level publishes exactly each module's __all__, in pipeline order.
"""

from __future__ import annotations

from .errors import *
from .lattice import *
from .surface import *
from .fibers import *
from .divisors import *
from .models import *
from .report import *

__version__ = "0.1.0"
