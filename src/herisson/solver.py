"""Homotopy continuation for the hedgehog Minkowski problem.

The area map phi sends support numbers to oriented face areas.  Targets on
the balance plane are reached by walking g(t) = (1-t) f0 + t g from the
seed's areas, correcting with Gauss-Newton at each step.  Translations form
a known 3-dimensional null space, handled by gauge fixing and rank-cutoff
least squares.  Cells with more than three faces constrain the support
vector linearly; those rows ride along in the Newton system so iterates
stay on the realizability locus.

Failure modes are part of the contract: the path may hit the boundary of
the orientation class (an edge or an area degenerates) or run away (support
norms or face perimeters blow past the compactness sentinel, the expected
outcome outside general position).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ProbeFailed, SingularVertex
from .fan import Fan, ValidationReport, _rowdot, _window_pairs, is_general_position
from .geometry import (
    AREA_TOL,
    EDGE_TOL,
    Realization,
    _area_jacobian,
    _consistency_matrix,
    _realize,
    gauge_fix,
    perimeter_bound,
    reconstruct,
    support_scale,
)

RANK_CUTOFF = 1e-10          # singular values below this (relative) count as null
CONSISTENCY_SOLVE_TOL = 1e-10


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    DEGENERATED = "degenerated"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the continuation; defaults match the documented contract."""

    tol_area: float = 1e-10              # relative to scale**2, sup norm
    max_newton_iters: int = 50
    homotopy_steps: int = 16             # initial uniform step count
    min_step: float = 1e-6
    divergence_bound_factor: float = 1e3
    jacobian_mode: str = "analytic"      # "analytic" | "fd"
    fd_step: float = 1e-6                # relative to scale
    allow_non_general_position: bool = False


@dataclass(frozen=True)
class TraceRecord:
    t: float
    residual: float
    min_abs_area: float
    max_perimeter: float

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "residual": self.residual,
            "min_abs_area": self.min_abs_area,
            "max_perimeter": self.max_perimeter,
        }


@dataclass
class SolveOutcome:
    status: SolveStatus
    h_final: np.ndarray
    t_reached: float
    trace: list[TraceRecord] = field(default_factory=list)
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def area_map(fan: Fan, h) -> np.ndarray:
    """Oriented face areas of the realized surface (the map phi)."""
    return reconstruct(fan, h).oriented_areas


def _fd_area_jacobian(fan: Fan, h: np.ndarray, step: float, base_signs=None) -> np.ndarray:
    """Central differences of the area map, probed with the lenient model.

    Probes do not enforce the multi-plane consistency of non-simple cells
    (a finite step always violates it), but a probe that flips the sign of
    some face has crossed the boundary of the orientation class and raises
    ProbeFailed.
    """
    cols = []
    for j in range(fan.m):
        probe = np.zeros(fan.m)
        probe[j] = step
        try:
            plus = _realize(fan, h + probe).areas
            minus = _realize(fan, h - probe).areas
        except SingularVertex as exc:
            raise ProbeFailed(f"probe along h[{j}] left the realizability locus") from exc
        if base_signs is not None and (
            np.any(np.sign(plus) != base_signs) or np.any(np.sign(minus) != base_signs)
        ):
            raise ProbeFailed(f"probe along h[{j}] left the orientation class")
        cols.append((plus - minus) / (2.0 * step))
    return np.column_stack(cols)


def _check_jacobian_mode(mode: str) -> None:
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown jacobian mode {mode!r}")


def jacobian(fan: Fan, h, mode: str = "analytic", fd_step: float | None = None) -> np.ndarray:
    """Jacobian d(area)/d(support), either analytic or finite-difference.

    The analytic mode differentiates the reconstruction exactly; the fd
    mode runs central differences with step fd_step*scale (default 1e-6).
    Both annihilate translations and satisfy J h = 2 phi(h).
    """
    _check_jacobian_mode(mode)
    h = np.asarray(h, dtype=float)
    base = reconstruct(fan, h)
    if mode == "analytic":
        return _area_jacobian(fan, base.vertices)
    step = (fd_step if fd_step is not None else 1e-6) * support_scale(h)
    return _fd_area_jacobian(fan, h, step, base_signs=base.signs)


def validate_target(fan: Fan, f0, g, allow_non_general_position: bool = False) -> ValidationReport:
    """Check a target area vector against the seed's orientation class.

    Conditions: componentwise sign agreement with the seed areas, balance of
    the target, and (unless waived) general position of the fan.
    """
    f0 = np.asarray(f0, dtype=float)
    g = np.asarray(g, dtype=float)
    report = ValidationReport()
    if f0.shape != g.shape or f0.shape != (fan.m,):
        report.add("sign agreement", "length mismatch between areas and fan")
        return report
    bad = np.nonzero(f0 * g <= 0.0)[0]
    for j in bad:
        report.add("sign agreement", f"f0[{j}]*g[{j}] = {float(f0[j] * g[j])!r} is not positive")
    residual = float(np.linalg.norm(fan.equipment.T @ g))
    bound = 1e-9 * float(np.sum(np.abs(g)))
    if residual > bound:
        report.add("balance", f"|sum g_j n_j| = {residual:.3e} exceeds {bound:.3e}")
    if not allow_non_general_position and not is_general_position(fan):
        report.add("general position", "three equipment vectors are coplanar")
    return report


def _min_edge_line_angle(fan: Fan) -> float | None:
    """Smallest positive angle between edge lines within any face.

    Edge directions depend only on the equipment (n_j x n_k over the arcs
    at face j), so the bound is a property of the fan.  Parallel edge pairs
    (possible outside general position) are skipped; None when no positive
    angle exists.
    """
    eq = fan.equipment
    arcs = fan.ring_index.arcs
    pairs = np.concatenate([arcs, arcs[:, ::-1]])
    face, other = pairs[np.argsort(pairs[:, 0])].T
    dirs = np.cross(eq[face], eq[other])
    norm = np.sqrt(_rowdot(dirs, dirs))
    keep = norm > 1e-12
    face, dirs = face[keep], dirs[keep] / norm[keep, None]
    first, second = _window_pairs(np.searchsorted(face, face, side="right") - np.arange(len(face)) - 1)
    angles = np.arccos(np.minimum(1.0, np.abs(_rowdot(dirs[first], dirs[second]))))
    angles = angles[angles > 1e-9]
    return float(angles.min()) if angles.size else None


class _Abort(Exception):
    def __init__(self, status: SolveStatus, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def solve_minkowski(fan: Fan, h0, g, opts: SolveOptions | None = None) -> SolveOutcome:
    """Continuation from the seed surface toward the target areas.

    Preconditions (a realizable seed and a valid target) are checked up
    front and raise ValueError.  The outcome reports Converged with the
    gauge-fixed support numbers, or the failure mode with the last homotopy
    parameter reached and a per-step trace.
    """
    opts = opts or SolveOptions()
    _check_jacobian_mode(opts.jacobian_mode)
    g = np.asarray(g, dtype=float)
    seed = reconstruct(fan, np.asarray(h0, dtype=float))
    f0 = seed.oriented_areas
    report = validate_target(fan, f0, g, opts.allow_non_general_position)
    if not report.ok:
        raise ValueError(f"target rejected:\n{report}")

    cons = _consistency_matrix(fan)
    alpha = _min_edge_line_angle(fan)
    max_sides = max(len(ring) for ring, _ in fan.face_rings.values())
    bound_factor = opts.divergence_bound_factor
    h = gauge_fix(fan, np.asarray(h0, dtype=float))
    href = max(float(np.linalg.norm(h)), 1e-12)
    use_fd = opts.jacobian_mode == "fd"

    def checkpoint(x: np.ndarray, real: Realization, g_t: np.ndarray) -> None:
        scale = support_scale(x)
        if real.min_edge <= EDGE_TOL * scale:
            raise _Abort(SolveStatus.DEGENERATED, f"edge length {real.min_edge:.3e} hit the boundary")
        if float(np.min(np.abs(real.areas))) <= AREA_TOL * scale**2:
            raise _Abort(SolveStatus.DEGENERATED, "an oriented area hit the boundary")
        if float(np.linalg.norm(x)) > bound_factor * href:
            raise _Abort(SolveStatus.DIVERGED, "support norm exceeded the divergence sentinel")
        if alpha is not None:
            limit = max_sides * perimeter_bound(max(float(np.max(np.abs(g_t))), 1e-300), min(alpha, np.pi / 2 - 1e-9)) * bound_factor
            if float(np.max(real.perimeters)) > limit:
                raise _Abort(SolveStatus.DIVERGED, "face perimeter exceeded the divergence sentinel")

    def full_jacobian(x: np.ndarray, real: Realization) -> np.ndarray:
        if use_fd:
            areas_jac = _fd_area_jacobian(fan, x, opts.fd_step * support_scale(x))
        else:
            areas_jac = _area_jacobian(fan, real.vertices)
        return np.vstack([areas_jac, cons]) if cons.size else areas_jac

    def lstsq_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        delta, _res, rank, _sv = np.linalg.lstsq(jac, rhs, rcond=RANK_CUTOFF)
        if fan.m - rank > 3:
            raise _Abort(
                SolveStatus.DEGENERATED,
                f"jacobian rank dropped to {rank} (expected {fan.m - 3})",
            )
        return delta

    def correct(x0: np.ndarray, g_t: np.ndarray):
        x = x0
        for _ in range(opts.max_newton_iters):
            try:
                real = _realize(fan, x)
            except SingularVertex as exc:
                raise _Abort(SolveStatus.DEGENERATED, str(exc))
            checkpoint(x, real, g_t)
            scale = support_scale(x)
            res_area = real.areas - g_t
            res_cons = cons @ x if cons.size else np.zeros(0)
            if (
                float(np.max(np.abs(res_area))) <= opts.tol_area * scale**2
                and (res_cons.size == 0 or float(np.max(np.abs(res_cons))) <= CONSISTENCY_SOLVE_TOL * scale)
            ):
                if np.any(np.sign(real.areas) != np.sign(g_t)):
                    raise _Abort(SolveStatus.DEGENERATED, "path left the orientation class")
                return x, real
            try:
                jac = full_jacobian(x, real)
            except ProbeFailed as exc:
                raise _Abort(SolveStatus.DEGENERATED, str(exc))
            rhs = -np.concatenate([res_area, res_cons])
            x = gauge_fix(fan, x + lstsq_step(jac, rhs))
        return None

    def predict(x: np.ndarray, real: Realization, dt: float) -> np.ndarray:
        try:
            jac = full_jacobian(x, real)
            tangent = lstsq_step(jac, np.concatenate([g - f0, np.zeros(cons.shape[0])]))
            return gauge_fix(fan, x + dt * tangent)
        except (ProbeFailed, _Abort):
            return x

    t = 0.0
    step0 = 1.0 / opts.homotopy_steps
    step = step0
    real_now = _realize(fan, h)
    trace = [TraceRecord(0.0, 0.0, float(np.min(np.abs(f0))), float(np.max(real_now.perimeters)))]

    guard = 0
    while t < 1.0 - 1e-15:
        guard += 1
        if guard > 100_000:
            return SolveOutcome(SolveStatus.MAX_ITERATIONS, h, t, trace, "step budget exhausted")
        t_next = min(1.0, t + step)
        g_t = (1.0 - t_next) * f0 + t_next * g
        try:
            result = correct(predict(h, real_now, t_next - t), g_t)
        except _Abort as abort:
            return SolveOutcome(abort.status, h, t, trace, abort.message)
        if result is None:
            step /= 2.0
            if step < opts.min_step:
                return SolveOutcome(
                    SolveStatus.MAX_ITERATIONS, h, t, trace,
                    f"corrector stalled at t={t!r} with step below {opts.min_step}",
                )
            continue
        h, real_now = result
        t = t_next
        trace.append(
            TraceRecord(
                t,
                float(np.max(np.abs(real_now.areas - g_t))),
                float(np.min(np.abs(real_now.areas))),
                float(np.max(real_now.perimeters)),
            )
        )
        step = min(step * 2.0, step0)

    final = reconstruct(fan, h)    # strict check of the end point
    if np.any(np.sign(final.oriented_areas) != np.sign(g)):
        return SolveOutcome(SolveStatus.DEGENERATED, h, t, trace, "end point left the orientation class")
    return SolveOutcome(SolveStatus.CONVERGED, h, 1.0, trace)
