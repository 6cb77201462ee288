import herisson

# The public API, in the order __init__ lists it.  A change here is a change
# of the package's promise: say so in CHANGES.md.
PUBLIC = [
    "builders",
    "CongruenceStatus",
    "CongruenceVerdict",
    "congruent_and_parallel",
    "sign_changes",
    "DegenerateEquipment",
    "DegenerateFace",
    "HerissonError",
    "InconsistentVertex",
    "MalformedFan",
    "NotSameClass",
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


def test_public_api_snapshot():
    assert herisson.__all__ == PUBLIC
    assert all(hasattr(herisson, name) for name in PUBLIC)
