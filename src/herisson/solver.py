"""Homotopy continuation for the hedgehog Minkowski problem.

The area map phi sends support numbers to oriented face areas.  Targets on
the balance plane are reached by walking g(t) = (1-t) f0 + t g from the
seed's areas, correcting with Gauss-Newton at each step.  Translations form
a known 3-dimensional null space, handled by gauge fixing.  On fans whose
cells are all simple the Jacobian J is symmetric with J E = 0 for the
equipment E.  Away from folds of the area map (turning points of the
homotopy) J has rank m - 3, the bordered matrix [[J, wE], [wE^T, 0]] is
nonsingular, and each Newton or predictor step is one LU solve of it, which
is the least-squares step.  At a fold J loses rank and the step goes to
rank-cutoff least squares, which names the drop; so does the Newton system
of cells with more than three faces, whose linear constraints on the
supports ride along as rows to keep iterates on the realizability locus.

Steps in t start at 1/HOMOTOPY_STEPS, halve when MAX_NEWTON_ITERS corrector
iterations do not converge, and end the walk below MIN_STEP or after
MAX_STEPS tries.  The fd Jacobian probes h +- FD_STEP * scale e_j, and
checks that no probe flips a face.

Failure modes are part of the contract: the path may hit the boundary of
the orientation class (an edge or an area degenerates, or an fd probe flips
a face) or run away (support norms or face perimeters blow past the
compactness sentinel, the expected outcome outside general position).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFace, ProbeFailed
from .fan import SCAN_BLOCK, Fan, ValidationReport, _rowdot, _window_pairs, is_general_position
from .geometry import (
    Herisson,
    _area_jacobian,
    _check_boundary,
    _consistency_matrix,
    _oriented_areas,
    _realize,
    gauge_fix,
    perimeter_bound,
    reconstruct,
)

RANK_CUTOFF = 1e-10          # singular values below this (relative) count as null
_PROBE_STRIDES = np.array([(5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1])   # Weyl strides of the condition probes
CONSISTENCY_SOLVE_TOL = 1e-10
MAX_NEWTON_ITERS = 50        # corrector iterations before the step in t is halved
HOMOTOPY_STEPS = 16          # the first step in t is 1/HOMOTOPY_STEPS, and no step grows past it
MIN_STEP = 1e-6              # a step in t halved below this ends the walk as MAX_ITERATIONS
MAX_STEPS = 100_000          # attempted steps in t before the walk ends as MAX_ITERATIONS
DIVERGENCE_BOUND_FACTOR = 1e3   # diverged once |h| or a perimeter exceeds this times its reference
FD_STEP = 1e-6               # central-difference step, relative to the support scale


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    DEGENERATED = "degenerated"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SolveOptions:
    """Settings of the continuation; step control is fixed by the module constants."""

    tol_area: float = 1e-10              # relative to scale**2, sup norm; finite and positive
    jacobian_mode: str = "analytic"      # "analytic" | "fd", whose probes end the path on a face flip
    allow_non_general_position: bool = False

    def __post_init__(self):
        if not 0.0 < self.tol_area < np.inf:
            raise ValueError(f"tol_area must be finite and positive, got {self.tol_area!r}")


@dataclass(frozen=True)
class TraceRecord:
    t: float
    residual: float
    min_abs_area: float
    max_perimeter: float


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


def _fd_area_jacobian(fan: Fan, h: np.ndarray, step: float, base_signs: np.ndarray) -> np.ndarray:
    """Central differences of the area map, probed with the lenient model.

    Probes do not enforce the multi-plane consistency of non-simple cells
    (a finite step always violates it), but a probe whose face signs differ
    from base_signs has crossed the boundary of the orientation class and raises
    ProbeFailed, naming the lowest such h[j].  The 2m probes h +- step e_j
    are realized together, in blocks of about SCAN_BLOCK ring positions,
    against the fan's vertex_blocks by the arithmetic of the realization
    layer, so the columns equal those of one realization per probe bit for
    bit.
    """
    idx = fan.ring_index
    m, ring = fan.m, len(idx.cell)
    blocks = fan.vertex_blocks[None]
    per_block = max(1, SCAN_BLOCK // (2 * ring))     # probe pairs per block
    jac = np.empty((m, m))
    for j0 in range(0, m, per_block):
        j = np.arange(j0, min(j0 + per_block, m))
        n = len(j)
        probes = np.tile(h, (2 * n, 1))
        probes[np.arange(n), j] = h[j] + step
        probes[n + np.arange(n), j] = h[j] - step
        vertices = np.linalg.solve(blocks, probes[:, idx.first3][..., None])[..., 0]
        areas = _oriented_areas(fan, vertices)
        plus, minus = areas[:n], areas[n:]
        flipped = np.any(np.sign(plus) != base_signs, axis=1) | np.any(np.sign(minus) != base_signs, axis=1)
        if flipped.any():
            raise ProbeFailed(f"probe along h[{j[np.argmax(flipped)]}] left the orientation class")
        jac[:, j] = ((plus - minus) / (2.0 * step)).T
    return jac


def _check_jacobian_mode(mode: str) -> None:
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown jacobian mode {mode!r}")


def _jacobian(surface: Herisson, mode: str) -> np.ndarray:
    """Area Jacobian at the surface's supports in the given mode."""
    if mode == "analytic":
        return _area_jacobian(surface.fan, surface.vertices)
    return _fd_area_jacobian(surface.fan, surface.h, FD_STEP * surface.scale, surface.signs)


def jacobian(fan: Fan, h, mode: str = "analytic") -> np.ndarray:
    """Jacobian d(area)/d(support), either analytic or finite-difference.

    The analytic mode differentiates the reconstruction exactly; the fd
    mode runs central differences with step FD_STEP * scale, realizing the
    2m probes in a few batches, and raises ProbeFailed for the lowest h[j]
    whose probe flips the sign of a face.  Both annihilate
    translations and satisfy J h = 2 phi(h).  On fans whose cells are all
    simple J is symmetric, of rank m - 3 away from folds of the area map,
    which lets the solver take its Newton steps from the bordered system
    [[J, wE], [wE^T, 0]]; at a fold least squares names the rank drop.
    """
    _check_jacobian_mode(mode)
    return _jacobian(reconstruct(fan, h), mode)


def validate_target(fan: Fan, f0, g, allow_non_general_position: bool = False) -> ValidationReport:
    """Check a target area vector against the seed's orientation class.

    Conditions: finite seed areas and target entries, componentwise sign
    agreement with the seed areas, balance of the target, and (unless
    waived) general position of the fan.  Non-finite entries are reported
    alone, by index.
    """
    f0 = np.asarray(f0, dtype=float)
    g = np.asarray(g, dtype=float)
    report = ValidationReport()
    if f0.shape != g.shape or f0.shape != (fan.m,):
        report.add("sign agreement", "length mismatch between areas and fan")
        return report
    for j in np.nonzero(~np.isfinite(f0))[0]:
        report.add("finite areas", f"f0[{j}] = {float(f0[j])!r} is not finite")
    for j in np.nonzero(~np.isfinite(g))[0]:
        report.add("finite target", f"g[{j}] = {float(g[j])!r} is not finite")
    if not report.ok:
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
    face, other = fan.ring_index.owner, fan.ring_index.neighbor
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


def _newton_step(jac: np.ndarray, rhs: np.ndarray, equipment: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of jac @ delta = rhs, orthogonal to translations.

    A square jac (no consistency rows) is the symmetric area Jacobian J
    with J E = 0 for the equipment E, of rank m - 3 away from folds of the
    area map; there B = [[J, wE], [wE^T, 0]] with w = |J|_F / sqrt(m) is
    nonsingular and one LU solve gives the least-squares step.  B is solved
    for rhs and two fixed probe columns p (Weyl sequences, so numpy.random
    stays unloaded) together: max |B^-1 p| / |p| is a lower bound on
    |B^-1|, typically within a factor sqrt(m), and times |J|_F (at least
    sigma_1(J)) it estimates cond(B), which is at least
    sigma_1(J) / sigma_{m-3}(J).  When the solve fails, is not finite or
    the estimate exceeds 1e-4 / RANK_CUTOFF, and for every jac with
    consistency rows, rank-cutoff least squares decides; a rank more than 3
    short of m aborts as DEGENERATED.
    """
    m = equipment.shape[0]
    if jac.shape[0] == m:
        jnorm = float(np.linalg.norm(jac))
        border = jnorm / np.sqrt(m) * equipment
        bordered = np.block([[jac, border], [border.T, np.zeros((3, 3))]])
        probes = np.modf(np.arange(1, m + 4)[:, None] * _PROBE_STRIDES)[0] - 0.5
        try:
            sol = np.linalg.solve(bordered, np.column_stack([np.concatenate([rhs, np.zeros(3)]), probes]))
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and np.all(np.isfinite(sol)):
            inv_norm = float(np.max(np.linalg.norm(sol[:, 1:], axis=0) / np.linalg.norm(probes, axis=0)))
            if jnorm * inv_norm <= 1e-4 / RANK_CUTOFF:
                return sol[:m, 0]
    delta, _res, rank, _sv = np.linalg.lstsq(jac, rhs, rcond=RANK_CUTOFF)
    if m - rank > 3:
        raise _Abort(SolveStatus.DEGENERATED, f"jacobian rank dropped to {rank} (expected {m - 3})")
    return delta


def solve_minkowski(fan: Fan, h0, g, opts: SolveOptions | None = None) -> SolveOutcome:
    """Continuation from the seed surface toward the target areas.

    Preconditions (a realizable seed and a valid target) are checked up
    front and raise ValueError.  The outcome reports Converged with the
    gauge-fixed support numbers, or the failure mode with the last homotopy
    parameter reached, the supports accepted there and a per-step trace.
    """
    opts = opts or SolveOptions()
    _check_jacobian_mode(opts.jacobian_mode)
    g = np.asarray(g, dtype=float)
    seed = reconstruct(fan, h0)
    f0 = seed.oriented_areas
    report = validate_target(fan, f0, g, opts.allow_non_general_position)
    if not report.ok:
        raise ValueError(f"target rejected:\n{report}")

    cons = _consistency_matrix(fan)
    alpha = _min_edge_line_angle(fan)
    max_sides = int(np.diff(fan.ring_index.start).max())
    now = _realize(fan, gauge_fix(fan, seed.h))     # the last accepted surface
    href = max(float(np.linalg.norm(now.h)), 1e-12)

    def checkpoint(surface: Herisson, g_t: np.ndarray) -> None:
        _check_boundary(surface)
        if float(np.linalg.norm(surface.h)) > DIVERGENCE_BOUND_FACTOR * href:
            raise _Abort(SolveStatus.DIVERGED, "support norm exceeded the divergence sentinel")
        if alpha is not None:
            limit = max_sides * perimeter_bound(max(float(np.max(np.abs(g_t))), 1e-300), min(alpha, np.pi / 2 - 1e-9)) * DIVERGENCE_BOUND_FACTOR
            if float(np.max(surface.perimeters)) > limit:
                raise _Abort(SolveStatus.DIVERGED, "face perimeter exceeded the divergence sentinel")

    def full_jacobian(surface: Herisson) -> np.ndarray:
        areas_jac = _jacobian(surface, opts.jacobian_mode)
        return np.vstack([areas_jac, cons]) if cons.size else areas_jac

    def correct(x: np.ndarray, g_t: np.ndarray) -> Herisson | None:
        for _ in range(MAX_NEWTON_ITERS):
            surface = _realize(fan, x)
            checkpoint(surface, g_t)
            scale = surface.scale
            res_area = surface.oriented_areas - g_t
            res_cons = cons @ x if cons.size else np.zeros(0)
            if (
                float(np.max(np.abs(res_area))) <= opts.tol_area * scale**2
                and (res_cons.size == 0 or float(np.max(np.abs(res_cons))) <= CONSISTENCY_SOLVE_TOL * scale)
            ):
                if np.any(surface.signs != np.sign(g_t)):
                    raise _Abort(SolveStatus.DEGENERATED, "path left the orientation class")
                return surface
            rhs = -np.concatenate([res_area, res_cons])
            x = gauge_fix(fan, x + _newton_step(full_jacobian(surface), rhs, fan.equipment))
        return None

    def predict(surface: Herisson, dt: float) -> np.ndarray:
        rhs = np.concatenate([g - f0, np.zeros(cons.shape[0])])
        tangent = _newton_step(full_jacobian(surface), rhs, fan.equipment)
        return gauge_fix(fan, surface.h + dt * tangent)

    t = 0.0
    step0 = 1.0 / HOMOTOPY_STEPS
    step = step0
    trace = [TraceRecord(0.0, 0.0, float(np.min(np.abs(f0))), float(np.max(now.perimeters)))]

    attempts = 0
    status, message = SolveStatus.CONVERGED, ""
    try:
        while t < 1.0 - 1e-15:
            attempts += 1
            if attempts > MAX_STEPS:
                raise _Abort(SolveStatus.MAX_ITERATIONS, "step budget exhausted")
            t_next = min(1.0, t + step)
            g_t = (1.0 - t_next) * f0 + t_next * g
            result = correct(predict(now, t_next - t), g_t)
            if result is None:
                step /= 2.0
                if step < MIN_STEP:
                    raise _Abort(SolveStatus.MAX_ITERATIONS,
                                 f"corrector stalled at t={t!r} with step below {MIN_STEP}")
                continue
            now, t = result, t_next
            trace.append(TraceRecord(t, float(np.max(np.abs(now.oriented_areas - g_t))),
                                     float(np.min(np.abs(now.oriented_areas))), float(np.max(now.perimeters))))
            step = min(step * 2.0, step0)
    except _Abort as abort:
        status, message = abort.status, str(abort)
    except (DegenerateFace, ProbeFailed) as exc:      # the path met the boundary of the class
        status, message = SolveStatus.DEGENERATED, str(exc)
    return SolveOutcome(status, np.array(now.h), t, trace, message)
