"""Spans around calls into the package, recorded from the benchmark's side.

The tracer swaps a timing wrapper for a function in every loaded
`herisson` module that binds it, and in the module that defines it, so
calls from one package module into another are seen without changing the
package.  Spans stay in memory as (name, op, parent, start, end) and are
reduced to per-layer totals when the run ends.  A layer's self time is its
spans' duration minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute) of the function to wrap
SITES = {
    "fan.validate": ("herisson.fan", "validate"),
    "fan.is_general_position": ("herisson.fan", "is_general_position"),
    "fan.dual_complex": ("herisson.fan", "dual_complex"),
    "geometry.realize": ("herisson.geometry", "_realize"),
    "geometry.reconstruct": ("herisson.geometry", "reconstruct"),
    "geometry.gauge_fix": ("herisson.geometry", "gauge_fix"),
    "solver.solve_minkowski": ("herisson.solver", "solve_minkowski"),
    "solver.validate_target": ("herisson.solver", "validate_target"),
    "congruence.congruent_and_parallel": ("herisson.congruence", "congruent_and_parallel"),
    "congruence.linprog": ("scipy.optimize", "linprog"),
    "congruence.can_translate_inside": ("herisson.congruence", "can_translate_inside"),
    "congruence.label_parallel_faces": ("herisson.congruence", "label_parallel_faces"),
    "congruence.face_polygon_2d": ("herisson.congruence", "face_polygon_2d"),
    "congruence.edge_labeling": ("herisson.congruence", "edge_labeling"),
    "congruence.cauchy_verdict": ("herisson.congruence", "cauchy_verdict"),
    "cli.main": ("herisson.cli", "main"),
    "io.load_fan": ("herisson.io", "load_fan"),
    "io.load_herisson": ("herisson.io", "load_herisson"),
    "io.save": ("herisson.io", "save"),
    "io.export_obj": ("herisson.io", "export_obj"),
    "io.export_svg": ("herisson.io", "export_svg"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1                 # index of the operation the spans belong to
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []
        self._wrappers: dict = {}

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                spans[idx] = (name, self.op, parent, start, time.perf_counter())
                stack.pop()
        return wrapper

    def install(self) -> None:
        self.missing = []
        owners = {}
        for module, _attr in SITES.values():   # import first: a late import would bind a wrapper
            try:
                owners[module] = importlib.import_module(module)
            except ImportError:
                owners[module] = None
        package = [mod for key, mod in sys.modules.items() if key == "herisson" or key.startswith("herisson.")]
        for name, (module, attr) in SITES.items():
            owner = owners[module]
            func = getattr(owner, attr, None)
            if func is None:
                self.missing.append(name)
                continue
            wrapper = self._wrappers.setdefault(name, self._wrap(name, func))
            for mod in {id(m): m for m in [owner, *package]}.values():
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, func))

    def uninstall(self) -> None:
        for mod, key, func in reversed(self._patched):
            setattr(mod, key, func)
        self._patched.clear()

    def totals(self):
        """(calls, seconds, self seconds) per span name."""
        calls, total, child = defaultdict(int), defaultdict(float), defaultdict(float)
        for name, _op, parent, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return calls, total, {name: total[name] - child[name] for name in total}
