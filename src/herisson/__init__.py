"""Geometry kernel for polyhedral hedgehogs (herissons).

Validate sphere-partition equipments, reconstruct surfaces from support
numbers, compute oriented face areas, decide congruence by sign counting,
form Minkowski sums, and solve the hedgehog Minkowski problem by homotopy
continuation.

`import herisson` loads `errors`, `fan` and `geometry`, which every use
needs.  `builders`, `congruence` and `solver` load on first use: reading
one of them, or one of their public names, from the package imports its
module (PEP 562).  Those names are looked up in their module on every
access and never stored here, so `herisson.solve_minkowski` is always
what `herisson.solver.solve_minkowski` is at that moment.
"""

import importlib

from .errors import (
    DegenerateEquipment,
    DegenerateFace,
    HerissonError,
    InconsistentVertex,
    MalformedFan,
    NotSameClass,
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
    gauge_fix,
    minkowski_sum,
    reconstruct,
)

# module -> the public names it defines, loaded on first use
_LAZY = {
    "builders": (),
    "congruence": ("CongruenceStatus", "CongruenceVerdict", "congruent_and_parallel"),
    "solver": ("SolveOptions", "SolveOutcome", "SolveStatus", "TraceRecord", "jacobian", "solve_minkowski",
               "validate_target"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = [
    "builders",
    "CongruenceStatus",
    "CongruenceVerdict",
    "congruent_and_parallel",
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
    "gauge_fix",
    "minkowski_sum",
    "reconstruct",
    "SolveOptions",
    "SolveOutcome",
    "SolveStatus",
    "TraceRecord",
    "jacobian",
    "solve_minkowski",
    "validate_target",
]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = importlib.import_module(f".{module}", __name__)
    return owner if name == module else getattr(owner, name)


def __dir__():
    return sorted({*globals(), *_OWNER})
