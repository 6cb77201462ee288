"""The four benchmark workloads: inputs, operations and result checks.

A workload is a list of rounds.  Every round has the same mix of
operations in the same order, drawn afresh from the seed, so a run that
stops after a whole round measures the same mix whatever its length.
Each operation carries a check that decides correctness without the
package under test: areas from gen.Polytope, translations and validity
from the construction, CLI results from known closed forms of the cube.

Operations reach the package through module attributes (solver.solve_...,
not an imported name), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

KNOWN_DEFECT = "known defect: valid cell reported outside an open hemisphere"
AREA_ROUNDOFF = 1e-12        # relative to scale**2, on top of the solver's tolerance
TRANSLATION_TOL = 1e-8       # relative to scale
CLI_TIMEOUT_S = 60.0
SOLVE_TOL = 1e-10            # SolveOptions.tol_area default, restated as the contract

WORKLOADS = ("solve_polar", "validate_polar", "congruence_pairs", "cli_calls")
POOL_ROUNDS = 3              # distinct rounds per seed; longer runs cycle through them

WAIST_TARGET = np.array(
    [np.sqrt(3) / 4] + [-1 / 3] * 3 + [-np.sqrt(3) / 4] * 6 + [np.sqrt(3) / 4]
)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]    # None when the result is right
    fan: object = None                       # solve inputs, for the traced run's direct calls
    h0: object = None


# ---------------------------------------------------------------------------
# solve_polar


def _check_converged(poly: gen.Polytope, g):
    def check(out) -> str | None:
        if out.status.value != "converged":
            return f"status {out.status.value} at t={out.t_reached!r}, expected converged"
        h = np.asarray(out.h_final, dtype=float)
        scale = max(1.0, float(np.max(np.abs(h))))
        err = float(np.max(np.abs(poly.areas(h) - g)))
        if not err <= (SOLVE_TOL + AREA_ROUNDOFF) * scale**2:
            return f"oracle area error {err:.3e} above tolerance"
        return None
    return check


def _check_waisted(out) -> str | None:
    if out.status.value not in ("degenerated", "diverged"):
        return f"status {out.status.value}, expected degenerated or diverged"
    if not out.t_reached < 1.0:
        return f"t_reached {out.t_reached!r}, expected below 1"
    return None


def _polar_solve(rng, m: int, s: float, mode: str, kind: str):
    from herisson import fan as fan_mod, solver

    normals, cells = gen.polar_fan(rng, m)
    fan = fan_mod.Fan(equipment=normals, cells=cells)
    h0 = np.ones(m)
    poly = gen.Polytope(normals, cells, h0)
    g = gen.solve_target(rng, poly, poly.areas(h0), s)
    opts = solver.SolveOptions(jacobian_mode=mode)
    return Op(kind, lambda: solver.solve_minkowski(fan, h0, g, opts), _check_converged(poly, g), fan, h0)


def _waisted_solve():
    from herisson import builders, solver

    body = builders.waisted_bitetrahedron(1)
    opts = solver.SolveOptions(allow_non_general_position=True)
    return Op("solve_waisted", lambda: solver.solve_minkowski(body.fan, body.h, WAIST_TARGET, opts),
              _check_waisted, body.fan, body.h)


def _strata(rng, n: int, lo: float = 0.1, hi: float = 0.6):
    """n values of s, one per equal slice of [lo, hi], in shuffled order."""
    return list(rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n))


def solve_polar(seed: int, tiny: bool, n_rounds: int) -> list[list[Op]]:
    big, mid, fd_m = (12, 8, 8) if tiny else (120, 40, 20)
    rounds = []
    for r in range(n_rounds):
        rng = gen.rng_for(seed, 1, r)
        s_big = _strata(rng, 4)
        solve = lambda m, s, mode="analytic": _polar_solve(  # noqa: E731
            rng, m, s, mode, f"solve_m{m}" if mode == "analytic" else f"solve_fd_m{m}")
        rounds.append([
            solve(big, s_big[0]), solve(mid, _strata(rng, 1)[0]), solve(big, s_big[1]),
            solve(fd_m, 0.2, "fd"), solve(big, s_big[2]), _waisted_solve(), solve(big, s_big[3]),
        ])
    return rounds


# ---------------------------------------------------------------------------
# validate_polar

_HEMISPHERE = re.compile(r"cell (\d+) is not inside an open hemisphere")


def _pointed(normals, cell) -> bool:
    """Certificate that the cell's normals lie in an open hemisphere."""
    pts = normals[list(cell)]
    x = np.linalg.lstsq(pts, np.ones(len(cell)), rcond=None)[0]
    return bool(np.all(pts @ x > 1e-9))


def _check_validate(normals, cells, expected: frozenset, n_entries: int | None = None):
    """Report codes must equal the construction's; hemisphere false positives
    on cells with a pointedness certificate count as the known defect."""
    normals = np.asarray(normals, dtype=float)

    def check(report) -> str | None:
        rest, false_pos = [], 0
        for code, detail in report.entries:
            hit = _HEMISPHERE.search(detail) if code == "non-convex cell" else None
            if hit and int(hit.group(1)) < len(cells) and _pointed(normals, cells[int(hit.group(1))]):
                false_pos += 1
            else:
                rest.append(code)
        if set(rest) != expected:
            return f"codes {sorted(set(rest))}, expected {sorted(expected)}"
        if n_entries is not None and len(rest) != n_entries:
            return f"{len(rest)} report entries, expected {n_entries}"
        return KNOWN_DEFECT if false_pos else None
    return check


def _validate_op(kind, normals, cells, expected=frozenset(), n_entries=None):
    from herisson import fan as fan_mod

    fan = fan_mod.Fan(equipment=normals, cells=cells)
    return Op(kind, lambda: fan_mod.validate(fan), _check_validate(normals, cells, expected, n_entries))


def _fixtures():
    from herisson import builders

    return {
        "box": builders.box(1.0, 2.0, 3.0),
        "tetra": builders.regular_tetrahedron(1.0),
        "bowtie": builders.reflected_truncated_tetrahedron(0.5),
        "waisted": builders.waisted_bitetrahedron(1),
        "tiling": builders.space_filling_prism(),
    }


def validate_polar(seed: int, tiny: bool, n_rounds: int) -> list[list[Op]]:
    variant_m = 12 if tiny else 40
    plan = (
        [8, "box", 12, "reversed", "tetra", 8, "bowtie", "dropped", 12, "waisted", "tiling"] if tiny else
        [8, "box", 20, 12, "tetra", 20, 40, "bowtie", 20, "reversed", "waisted", 20, 30, "tiling",
         20, "dropped", 20, 60, 80]
    )
    fixtures = _fixtures()
    rounds = []
    for r in range(n_rounds):
        rng = gen.rng_for(seed, 2, r)
        ops = []
        for item in plan:
            if isinstance(item, int):
                normals, cells = gen.polar_fan(rng, item)
                ops.append(_validate_op(f"validate_m{item}", normals, cells))
            elif item == "reversed":
                normals, cells = gen.polar_fan(rng, variant_m)
                ops.append(_validate_op(f"validate_reversed_m{variant_m}", normals,
                                        tuple(c[::-1] for c in cells), frozenset({"non-convex cell"}),
                                        len(cells)))
            elif item == "dropped":
                normals, cells = gen.polar_fan(rng, variant_m)
                k = int(rng.integers(len(cells)))
                ops.append(_validate_op(f"validate_dropped_m{variant_m}", normals, cells[:k] + cells[k + 1:],
                                        frozenset({"broken partition", "Euler failure"})))
            else:
                fan = fixtures[item].fan
                ops.append(_validate_op(f"validate_{item}", fan.equipment, fan.cells))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# congruence_pairs


def _check_translate(c, scale: float):
    def check(verdict) -> str | None:
        if verdict.status.value != "congruent":
            return f"status {verdict.status.value}, expected congruent"
        err = float(np.max(np.abs(np.asarray(verdict.translation) - c)))
        if not err <= TRANSLATION_TOL * scale:
            return f"translation off by {err:.3e}"
        return None
    return check


def _check_not_congruent(verdict) -> str | None:
    if verdict.status.value not in ("distinct", "hypothesis_failure"):
        return f"status {verdict.status.value}, expected distinct or hypothesis_failure"
    return None


def _pair_op(kind, h1, h2, check):
    from herisson import congruence

    return Op(kind, lambda: congruence.congruent_and_parallel(h1, h2), check)


def _polar_pair(rng, m: int, translate: bool):
    from herisson import fan as fan_mod, geometry

    normals, cells = gen.polar_fan(rng, m)
    fan = fan_mod.Fan(equipment=normals, cells=cells)
    h = np.ones(m)
    first = geometry.reconstruct(fan, h)
    if translate:
        c = rng.uniform(-0.3, 0.3, 3)
        second = geometry.reconstruct(fan, h + normals @ c)
        scale = max(1.0, float(np.max(np.abs(second.h))))
        return _pair_op(f"congruent_m{m}", first, second, _check_translate(c, scale))
    # 5% larger, so that face 0 of the first fits inside face 0 of the second
    second = geometry.reconstruct(fan, gen.perturbed_supports(rng, normals, cells, 1.05 * h, 0.01))
    return _pair_op(f"not_congruent_m{m}", first, second, _check_not_congruent)


def congruence_pairs(seed: int, tiny: bool, n_rounds: int) -> list[list[Op]]:
    from herisson import builders, geometry

    bowtie = builders.reflected_truncated_tetrahedron(0.5)
    plan = (
        [(10, False), (10, True), None, (12, False), (12, True)] if tiny else
        [(40, False), (40, True), (45, False), (50, False), None, (55, False), (50, True),
         (60, False), (40, False), (50, False), (60, True), (60, False), (45, False)]
    )
    rounds = []
    for r in range(n_rounds):
        rng = gen.rng_for(seed, 3, r)
        ops = []
        for item in plan:
            if item is not None:
                ops.append(_polar_pair(rng, *item))
                continue
            c = rng.uniform(-0.3, 0.3, 3)
            moved = geometry.reconstruct(bowtie.fan, bowtie.h + bowtie.fan.equipment @ c)
            scale = max(1.0, float(np.max(np.abs(moved.h))))
            ops.append(_pair_op("congruent_bowtie", bowtie, moved, _check_translate(c, scale)))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# cli_calls

CUBE_NORMALS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)


def _cube_cells(reverse: bool = False):
    cells = []
    for a in (0, 1):
        for b in (2, 3):
            for c in (4, 5):
                cell = [a, b, c] if np.linalg.det(CUBE_NORMALS[[a, b, c]]) > 0.0 else [a, c, b]
                cells.append(cell[::-1] if reverse else cell)
    return cells


def write_cli_fixtures(workdir: Path, seed: int) -> dict:
    """Input files for the CLI calls, written from closed forms of the cube."""
    workdir.mkdir(parents=True, exist_ok=True)
    c = gen.rng_for(seed, 4).uniform(-0.5, 0.5, 3)
    fan = {"equipment": CUBE_NORMALS.tolist(), "cells": _cube_cells()}
    files = {
        "fan": fan,
        "cube": {**fan, "h": [1.0] * 6},
        "moved": {**fan, "h": (1.0 + CUBE_NORMALS @ c).tolist()},
        "target": {"g": [9.0] * 6},
        "malformed": {"equipment": CUBE_NORMALS.tolist()},
        "invalid": {"equipment": CUBE_NORMALS.tolist(), "cells": _cube_cells(reverse=True)},
    }
    paths = {}
    for name, data in files.items():
        paths[name] = str(workdir / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data), encoding="utf-8")
    for name in ("example", "obj", "svg"):
        paths[name] = str(workdir / f"out_{name}.{'json' if name == 'example' else name}")
    paths["c"] = c
    return paths


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str


def _payloads(res: CliResult):
    return [json.loads(line) for line in res.stdout.splitlines() if line.strip()]


def _cli_check(code: int, keys: set | None, verify=None):
    """Exit code, payload keys of every JSON line, then the semantic check."""
    def check(res: CliResult) -> str | None:
        if res.code != code:
            return f"exit code {res.code}, expected {code}: {res.stderr.strip()[-200:]}"
        try:
            payloads = _payloads(res)
        except json.JSONDecodeError:
            return "stdout is not JSON lines"
        if keys is not None and (not payloads or any(set(p) != keys for p in payloads)):
            return f"payload keys {[sorted(p) for p in payloads]}, expected {sorted(keys)}"
        return verify(payloads, res) if verify else None
    return check


def _close(values, target, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(values, dtype=float) - target) <= tol))


def _cli_ops(p: dict, run: Callable[[list[str]], CliResult]) -> list[Op]:
    def example(pl, _res):
        data = json.loads(Path(p["example"]).read_text(encoding="utf-8"))
        want = {"equipment", "cells", "h", "vertices", "faces", "signs"}
        ok = set(data) == want and _close(data["h"], 1.0, 0.0) and len(data["faces"]) == 6
        return None if ok else "example file does not describe the cube"

    def valid(pl, _res):
        return None if pl[0]["valid"] is True and pl[0]["violations"] == [] else "cube fan reported invalid"

    def areas(pl, _res):
        d = pl[0]
        ok = _close(d["areas"], 4.0, 1e-12) and d["signs"] == [1] * 6 and _close(d["balance_residual"], 0.0, 1e-12)
        return None if ok else "cube areas are not 4 with zero balance residual"

    def congruent(pl, _res):
        d = pl[0]
        ok = d["status"] == "congruent" and _close(d["translation"], p["c"], 1e-9)
        return None if ok else f"verdict {d['status']} with translation {d.get('translation')}"

    def solve(pl, _res):
        d = pl[0]
        ok = d["status"] == "converged" and d["t_reached"] == 1.0 and _close(d["h"], 1.5, 1e-8)
        return None if ok else f"solve gave {d['status']} with h {d['h']}"

    def export(pl, _res):
        if [d["written"] for d in pl] != [p["obj"], p["svg"]]:
            return "export did not report both files"
        obj = Path(p["obj"]).read_text(encoding="utf-8").splitlines()
        svg = Path(p["svg"]).read_text(encoding="utf-8")
        n_v = sum(line.startswith("v ") for line in obj)
        n_f = sum(line.startswith("f ") for line in obj)
        ok = (n_v, n_f) == (24, 6) and svg.startswith("<?xml") and svg.count("<path") == 12
        return None if ok else f"OBJ has {n_v} vertices/{n_f} faces or the SVG is not the cube chart"

    def malformed(_pl, res):
        return None if res.stdout == "" and res.stderr.startswith("error:") else "malformed input not reported"

    def invalid(pl, _res):
        codes = [code for code, _ in pl[0]["violations"]]
        ok = pl[0]["valid"] is False and codes == ["non-convex cell"] * 8
        return None if ok else f"reversed cube fan gave {codes}"

    calls = [
        ("cli_example", ["example", "cube", "-o", p["example"]], 0, {"written"}, example),
        ("cli_validate", ["validate", p["fan"]], 0, {"valid", "violations"}, valid),
        ("cli_areas", ["areas", p["cube"]], 0, {"areas", "signs", "balance_residual"}, areas),
        ("cli_congruent", ["congruent", p["cube"], p["moved"]], 0, {"status", "detail", "translation"}, congruent),
        ("cli_solve", ["solve", p["fan"], "--seed", p["cube"], "--target", p["target"], "--allow-non-general"],
         0, {"status", "t_reached", "h", "message"}, solve),
        ("cli_export", ["export", p["cube"], "--obj", p["obj"], "--svg", p["svg"]], 0, {"written"}, export),
        ("cli_malformed", ["validate", p["malformed"]], 2, None, malformed),
        ("cli_invalid", ["validate", p["invalid"]], 1, {"valid", "violations"}, invalid),
    ]
    return [
        Op(kind, (lambda a=argv: run(["--json", *a])), _cli_check(code, keys, verify))
        for kind, argv, code, keys, verify in calls
    ]


def subprocess_cli(argv: list[str]) -> CliResult:
    """One `python -m herisson.cli` call in a fresh interpreter."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "herisson.cli", *argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, env=os.environ.copy(),
        )
    except subprocess.TimeoutExpired:
        return CliResult(None, "", f"timed out after {CLI_TIMEOUT_S} s")
    return CliResult(done.returncode, done.stdout, done.stderr)


def inprocess_cli(argv: list[str]) -> CliResult:
    """The same call through cli.main in this process (used by the traced run)."""
    from herisson import cli

    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def build(name: str, seed: int, tiny: bool, workdir: Path, inprocess: bool = False,
          rounds: int = POOL_ROUNDS) -> list[list[Op]]:
    """The workload's rounds; cli_calls has one round, repeated."""
    if name == "cli_calls":
        return [_cli_ops(write_cli_fixtures(workdir, seed), inprocess_cli if inprocess else subprocess_cli)]
    return {"solve_polar": solve_polar, "validate_polar": validate_polar,
            "congruence_pairs": congruence_pairs}[name](seed, tiny, rounds)
