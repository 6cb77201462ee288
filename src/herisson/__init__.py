"""Geometry kernel for polyhedral hedgehogs (herissons).

Validate sphere-partition equipments, reconstruct surfaces from support
numbers, compute oriented face areas, decide congruence by sign counting,
form Minkowski sums, and solve the hedgehog Minkowski problem by homotopy
continuation.
"""

from . import builders
from .congruence import (
    CauchyStatus,
    CauchyVerdict,
    CongruenceStatus,
    CongruenceVerdict,
    cauchy_verdict,
    congruent_and_parallel,
    edge_labeling,
    sign_changes,
)
from .errors import (
    DegenerateEquipment,
    DegenerateFace,
    HerissonError,
    InconsistentVertex,
    MalformedFan,
    NotSameClass,
    ProbeFailed,
    SingularVertex,
)
from .fan import (
    Fan,
    ValidationReport,
    is_general_position,
    validate,
)
from .geometry import (
    Herisson,
    balance_residual,
    face_frame,
    gauge_fix,
    minkowski_sum,
    perimeter_bound,
    reconstruct,
    support_scale,
)
from .solver import (
    SolveOptions,
    SolveOutcome,
    SolveStatus,
    TraceRecord,
    area_map,
    jacobian,
    solve_minkowski,
    validate_target,
)

__all__ = [
    "builders",
    "CauchyStatus",
    "CauchyVerdict",
    "CongruenceStatus",
    "CongruenceVerdict",
    "cauchy_verdict",
    "congruent_and_parallel",
    "edge_labeling",
    "sign_changes",
    "DegenerateEquipment",
    "DegenerateFace",
    "HerissonError",
    "InconsistentVertex",
    "MalformedFan",
    "NotSameClass",
    "ProbeFailed",
    "SingularVertex",
    "Fan",
    "ValidationReport",
    "is_general_position",
    "validate",
    "Herisson",
    "balance_residual",
    "face_frame",
    "gauge_fix",
    "minkowski_sum",
    "perimeter_bound",
    "reconstruct",
    "support_scale",
    "SolveOptions",
    "SolveOutcome",
    "SolveStatus",
    "TraceRecord",
    "area_map",
    "jacobian",
    "solve_minkowski",
    "validate_target",
]
