import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import herisson

# The public API, in the order __init__ lists it.  A change here is a change
# of the package's promise: say so in CHANGES.md.
PUBLIC = [
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


def test_public_api_snapshot():
    assert herisson.__all__ == PUBLIC
    assert all(hasattr(herisson, name) for name in PUBLIC)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(herisson))


def test_every_public_attribute_is_in_all():
    # a name dropped from __all__ must not still resolve through _LAZY or an eager import
    lazy = {name for names in herisson._LAZY.values() for name in names}
    attributes = {name for name in dir(herisson)
                  if not name.startswith("_") and not isinstance(getattr(herisson, name), types.ModuleType)}
    assert lazy <= set(herisson.__all__)
    assert attributes <= set(herisson.__all__)


@pytest.mark.parametrize("name", ["sign_changes", "area_map", "face_frame", "support_scale"])
def test_removed_names_stay_removed(name):
    assert name not in herisson.__all__
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(herisson, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from herisson import *", namespace)
    assert all(namespace[name] is getattr(herisson, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        herisson.no_such_name


def test_lazy_names_are_looked_up_on_every_access(monkeypatch):
    # the package stores no lazy name, so it always gives what the module binds now
    patched = object()
    monkeypatch.setattr(herisson.solver, "solve_minkowski", patched)
    assert herisson.solve_minkowski is patched
    monkeypatch.undo()
    assert herisson.solve_minkowski is herisson.solver.solve_minkowski
    assert "solve_minkowski" not in vars(herisson)


def test_kernel_modules_resolve_after_a_bare_import():
    src = str(Path(herisson.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import herisson; print(herisson.solver.__name__, herisson.congruence.__name__, herisson.builders.__name__)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["herisson.solver", "herisson.congruence", "herisson.builders"]
