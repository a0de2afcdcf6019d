"""Curves in pseudo-Galilean 3-space: Frenet apparatus, classification, synthesis.

The package computes the moving frame, curvature and torsion of admissible
curves under the degenerate pseudo-Galilean metric, decides whether a curve
is rectifying, fits the family that the frame equations give when
curvature and torsion are constant, and synthesizes curves from prescribed
curvature and torsion by integrating the frame equations from the canonical
start frame.
"""

from .space import ORIGIN, PGVector3, det3, pg_inner
from .jets import DomainError, Jet3
from .dsl import (
    LexError,
    ParseError,
    eval_jet3,
    parse,
    parse_expr,
    to_source,
    tokenize,
)
from .frenet import (
    AdmissibilityReport,
    CurveDef,
    FrenetGrid,
    NotAdmissible,
    check_admissible,
    curve_from_exprs,
    curve_from_samples,
    frenet_grid,
    torsion_det,
)
from .classify import (
    ConstantInvariantFit,
    DegenerateFit,
    RectifyingVerdict,
    classify_rectifying,
    constant_invariant_jets,
    fit_constant_invariant,
    frame_components_arrays,
)
from .synth import (
    FrenetTrajectory,
    InvalidProfile,
    integrate_frenet,
    rectifying_drift,
    synth_rectifying,
)

__version__ = "0.1.0"
