"""Curves in pseudo-Galilean 3-space: Frenet apparatus, classification, synthesis.

The package computes the moving frame, curvature and torsion of admissible
curves under the degenerate pseudo-Galilean metric, decides whether a curve
is rectifying (or fits the constant-invariant normal-component profile), and
synthesizes curves from prescribed curvature and torsion by integrating the
frame equations.
"""

from .space import ORIGIN, CausalCharacter, PGVector3, causal_character, det3, pg_inner
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
    FrenetData,
    FrenetGrid,
    NotAdmissible,
    SampledScalar,
    check_admissible,
    curve_from_exprs,
    curve_from_samples,
    frame_at,
    frenet_grid,
    frenet_residuals,
    reparametrize_graph,
    torsion_det,
)
from .classify import (
    DegenerateFit,
    FrameComponents,
    NonConstantInvariants,
    NormalFit,
    RectifyingPropertyReport,
    RectifyingVerdict,
    SingularFrame,
    ZeroTorsion,
    check_rectifying_properties,
    classify_rectifying,
    fit_normal_components,
    fit_normal_samples,
    frame_components,
    frame_components_arrays,
    normal_component_exprs,
    normal_ode_residuals,
)
from .synth import (
    BadInitialFrame,
    FrenetState,
    FrenetTrajectory,
    InvalidProfile,
    InvariantProfile,
    canonical_state,
    integrate_frenet,
    rectifying_drift,
    synth_normal_components,
    synth_rectifying,
)

__version__ = "0.1.0"
