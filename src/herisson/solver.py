"""Homotopy continuation for the hedgehog Minkowski problem.

The area map phi sends support numbers to oriented face areas.  Targets on
the balance plane are reached by walking g(t) = (1-t) f0 + t g from the
seed's areas, correcting with Gauss-Newton at each step.  The translations
are the known null space: J E = 0 for the equipment E, and J is symmetric
(geometry's module docstring).  Away from folds of the area map
(turning points of the homotopy) J has rank m - 3, the bordered matrix
[[J, wE], [wE^T, 0]] is nonsingular, and each Newton or predictor step is
one LU solve of it, the least-squares step, which the border rows keep
orthogonal to E.  At a fold J loses rank and the step goes to rank-cutoff
least squares, which names the drop; so does the Newton system of cells
with more than three faces, whose linear constraints on the supports ride
along as rows to keep iterates on the realizability locus.

Steps in t come from the area map itself.  Edge lengths and supports are
linear in h, so phi is an exact quadratic form: phi(h + s d) = phi(h) +
s J(h) d + s^2 phi(d) (on null(K) with non-simple cells), and J(h) h =
2 phi(h).  At each accepted point one Jacobian gives the tangent
d (J d = g - f0) and, through the re-solve that the Newton step returns
with d (one more solve of the same bordered matrix or least squares), the
second-order term e (J e = -phi(d)); the step is the least of 1 - t, a
cap, ROOT_FRACTION times the first positive s at which some face area
phi(h + s d)_j reaches zero, and
sqrt(CURVATURE_BUDGET |h| / |e|), which keeps dt^2 |e| within
CURVATURE_BUDGET |h|.  The corrector starts from h + dt d + dt^2 e.  The
cap starts at 1, is set to half the step when MAX_NEWTON_ITERS corrector
iterations do not converge, doubles (up to 1) after each accepted step,
and the walk ends once it falls below MIN_STEP or after MAX_STEPS tries.
A point of the walk is a support vector x, its signed edge lengths and its
areas.  The walk starts at x0, the gauge-fixed seed, with the lengths and
areas f0 that reconstruct computed for the seed: a translation changes
neither the lengths, phi nor J, so the start's model is the one at x0 up to
rounding.  One iterate reads |x| (the sentinel), takes one set of signed
lengths, phi(x) from them, and, unless it has converged, J from the same
lengths and one Newton step; an accepted point keeps its lengths and areas
for its model.  Only the seed is realized (reconstruct checks it), and
gauge_fix runs on the seed and on the final supports alone: every step is
orthogonal to E, so the points between stay translation-free up to rounding.
Iterates and fd probes go unchecked: phi is one quadratic form on all of
R^m, so a short edge or a small area on the way, or a probe that flips a
face, says nothing about the problem.  A path may pass an edge through zero length.

Failure modes are part of the contract: a converged point off the target's
face signs, or a fold where J loses rank (DEGENERATED); a runaway (|h| past
DIVERGENCE_BOUND_FACTOR times the seed's, the one divergence sentinel); a
stalled corrector or a spent step budget (MAX_ITERATIONS).  g(t) keeps the
sign of every entry and |g(t)_j| >= min(|f0_j|, |g_j|), so a converged
point nears an area zero only where the target does.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fan import SCAN_BLOCK, Fan, ValidationReport, _frozen, is_general_position
from .geometry import (_area_jacobian, _oriented_areas, _signed_lengths, balance_residual, gauge_fix, reconstruct,
                       support_scale)

RANK_CUTOFF = 1e-10          # relative to the largest singular value: smaller ones count as null
CONDITION_MARGIN = 1e-4      # relative to 1 / RANK_CUTOFF: largest condition estimate of a trusted bordered solve
BALANCE_TOL = 1e-9           # relative to sum_j |g_j|: the largest |sum_j g_j n_j| of a valid target
WALK_END_TOL = 1e-15         # absolute: in t, the walk is done once t is within this of 1
SEED_NORM_FLOOR = 1e-12      # absolute: the least |x0| that the divergence sentinel scales
_PROBE_STRIDES = np.array([(5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1])   # Weyl strides of the condition probes
CONSISTENCY_SOLVE_TOL = 1e-10   # relative to scale: extra-plane residuals of a converged point
MAX_NEWTON_ITERS = 50        # corrector iterations before the step cap is halved
ROOT_FRACTION = 0.5          # a step in t covers at most this fraction of the model's first face sign change
CURVATURE_BUDGET = 0.1       # dimensionless: dt**2 |e| stays within this fraction of |h|
MIN_STEP = 1e-6              # a step cap in t halved below this ends the walk as MAX_ITERATIONS
MAX_STEPS = 100_000          # attempted steps in t before the walk ends as MAX_ITERATIONS
DIVERGENCE_BOUND_FACTOR = 1e3   # diverged once |h| exceeds this times |h| of the gauge-fixed seed
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
    jacobian_mode: str = "analytic"      # "analytic" | "fd", central differences, exact on the quadratic phi
    allow_non_general_position: bool = False

    def __post_init__(self):
        if not 0.0 < self.tol_area < np.inf:
            raise ValueError(f"tol_area must be finite and positive, got {self.tol_area!r}")
        _check_jacobian_mode(self.jacobian_mode)


@dataclass(frozen=True)
class TraceRecord:
    """One accepted point of the walk.

    t is the homotopy parameter reached, residual the sup-norm area
    residual max_j |phi(h)_j - g(t)_j| at the accepted iterate (0 at the
    seed), and min_abs_area its least |phi(h)_j|, the in-class witness.
    """

    t: float
    residual: float
    min_abs_area: float


@dataclass(eq=False)
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


def _fd_area_jacobian(fan: Fan, h: np.ndarray, step: float) -> np.ndarray:
    """Central differences of the area map, probed with the lenient model.

    Probes enforce neither the multi-plane consistency of non-simple cells
    (a finite step always violates it) nor the face signs (phi is quadratic,
    so a probe that flips a face gives the same exact difference).  The 2m
    probes h +- step e_j go to _signed_lengths and _oriented_areas as
    stacks of about SCAN_BLOCK ring positions, each row summed as on its own:
    the columns equal those of one realization per probe bit for bit.
    """
    m, ring = fan.m, len(fan.ring_index.cell)
    per_block = max(1, SCAN_BLOCK // (2 * ring))     # probe pairs per block
    jac = np.empty((m, m))
    for j0 in range(0, m, per_block):
        j = np.arange(j0, min(j0 + per_block, m))
        probes = np.tile(h, (2, len(j), 1))     # [0] the probes h + step e_j, [1] h - step e_j
        probes[:, np.arange(len(j)), j] = h[j] + np.array([[step], [-step]])
        plus, minus = _oriented_areas(fan, probes, _signed_lengths(fan, probes))
        jac[:, j] = ((plus - minus) / (2.0 * step)).T
    return jac


def _check_jacobian_mode(mode: str) -> None:
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown jacobian mode {mode!r}")


def _jacobian(fan: Fan, h: np.ndarray, lengths: np.ndarray, mode: str) -> np.ndarray:
    """Area Jacobian at supports h with signed lengths `lengths`; fd probes h, analytic reads the lengths."""
    if mode == "analytic":
        return _area_jacobian(fan, lengths)
    return _fd_area_jacobian(fan, h, FD_STEP * support_scale(h))


def jacobian(fan: Fan, h, mode: str = "analytic") -> np.ndarray:
    """Jacobian d(area)/d(support), either analytic or finite-difference.

    The analytic mode is the classical form from the signed edge lengths
    (geometry); the fd mode runs central differences with step FD_STEP *
    scale on a few stacks of the 2m probes, exact up to rounding on the
    quadratic area map whether or not a probe flips a face.  Both annihilate
    translations and satisfy J h = 2 phi(h).  They agree in every direction
    on fans whose cells are all simple, and only on null(K), K the
    consistency rows, on fans with cells of four or more faces.  J is
    symmetric, of rank m - 3 away from folds of the area map, which lets the
    solver step by the bordered system [[J, wE], [wE^T, 0]]; at a fold
    least squares names the rank drop.
    """
    _check_jacobian_mode(mode)
    surface = reconstruct(fan, h)
    return _jacobian(fan, surface.h, surface.signed_lengths, mode)


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
    if not (np.isfinite(f0).all() and np.isfinite(g).all()):
        for j in np.nonzero(~np.isfinite(f0))[0]:
            report.add("finite areas", f"f0[{j}] = {float(f0[j])!r} is not finite")
        for j in np.nonzero(~np.isfinite(g))[0]:
            report.add("finite target", f"g[{j}] = {float(g[j])!r} is not finite")
        return report
    for j in np.nonzero(f0 * g <= 0.0)[0]:
        report.add("sign agreement", f"f0[{j}]*g[{j}] = {float(f0[j] * g[j])!r} is not positive")
    residual = float(np.linalg.norm(balance_residual(g, fan)))
    bound = BALANCE_TOL * float(abs(g).sum())
    if residual > bound:
        report.add("balance", f"|sum g_j n_j| = {residual:.3e} exceeds {bound:.3e}")
    if not allow_non_general_position and not is_general_position(fan):
        triple = fan.coplanar_triple
        with np.errstate(invalid="ignore"):     # a non-finite normal has no determinant
            det = abs(float(np.linalg.det(fan.equipment[list(triple)])))
        report.add("general position", "equipment vectors {}, {}, {} are coplanar (|det| = {:.3e})".format(*triple, det))
    return report


class _Abort(Exception):
    def __init__(self, status: SolveStatus, message: str):
        super().__init__(message)
        self.status = status


@functools.lru_cache
def _condition_probes(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(size, 2) Weyl probe columns (numpy.random stays unloaded) and their norms, read-only, once per size."""
    probes = np.modf(np.arange(1, size + 1)[:, None] * _PROBE_STRIDES)[0] - 0.5
    return _frozen(probes), _frozen(np.linalg.norm(probes, axis=0))


def _newton_step(jac: np.ndarray, rhs: np.ndarray, equipment: np.ndarray):
    """Minimum-norm solution of jac @ delta = rhs, orthogonal to translations.

    A square jac (no consistency rows) is the symmetric area Jacobian J
    with J E = 0 for the equipment E, of rank m - 3 away from folds of the
    area map; there B = [[J, wE], [wE^T, 0]] with w = |J|_F / sqrt(m),
    written into one (m+3)^2 array, is nonsingular and one LU solve gives
    the least-squares step, its border rows E^T delta = 0.  B is solved for
    one (m+3, 3) block: rhs and the two probe columns p of _condition_probes.
    max |B^-1 p| / |p| is a lower bound on |B^-1|, typically within a
    factor sqrt(m), and times |J|_F (at least sigma_1(J)) it estimates
    cond(B), which is at least sigma_1(J) / sigma_{m-3}(J).  When the solve
    fails, is not finite or the estimate exceeds CONDITION_MARGIN /
    RANK_CUTOFF, and for every jac with consistency rows, rank-cutoff least
    squares decides, its minimum norm orthogonal to E, which jac
    annihilates; a rank more than 3 short of m aborts as DEGENERATED.
    Returns (delta, again): again(b), for b of length m, solves
    jac @ delta2 = b on the same path and matrix, one more LU solve of B or
    one more rank-cutoff least squares, with zeros appended for the border
    or the consistency rows.
    """
    m = equipment.shape[0]
    if jac.shape[0] == m:
        jnorm = float(np.linalg.norm(jac))
        bordered = np.zeros((m + 3, m + 3))
        bordered[:m, :m] = jac
        bordered[:m, m:] = jnorm / np.sqrt(m) * equipment
        bordered[m:, :m] = bordered[:m, m:].T
        probes, probe_norms = _condition_probes(m + 3)
        block = np.zeros((m + 3, 3))
        block[:m, 0], block[:, 1:] = rhs, probes
        try:
            sol = np.linalg.solve(bordered, block)
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and np.all(np.isfinite(sol)):
            inv_norm = float(np.max(np.linalg.norm(sol[:, 1:], axis=0) / probe_norms))
            if jnorm * inv_norm <= CONDITION_MARGIN / RANK_CUTOFF:
                return sol[:m, 0], lambda b: np.linalg.solve(bordered, np.concatenate([b, np.zeros(3)]))[:m]
    delta, _res, rank, _sv = np.linalg.lstsq(jac, rhs, rcond=RANK_CUTOFF)
    if m - rank > 3:
        raise _Abort(SolveStatus.DEGENERATED, f"jacobian rank dropped to {rank} (expected {m - 3})")
    return delta, lambda b: np.linalg.lstsq(jac, np.concatenate([b, np.zeros(len(jac) - m)]), rcond=RANK_CUTOFF)[0]


def _first_root(c: np.ndarray, b: np.ndarray, a: np.ndarray) -> float:
    """Least positive s with c + b s + a s^2 = 0 in any entry (inf when none), c nonzero.

    The roots are q / a and c / q with q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2,
    which loses no digits to cancellation; a = 0 leaves the linear root c / q.
    A negative discriminant (no real root) gives NaN roots, and an infinite
    or NaN quotient is never a positive root.
    """
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        roots = np.concatenate([q / a, c / q])
    return float(roots.min(initial=np.inf, where=roots > 0.0))


def solve_minkowski(fan: Fan, h0, g, opts: SolveOptions | None = None) -> SolveOutcome:
    """Continuation from the seed surface toward the target areas.

    Preconditions (a realizable seed and a valid target) are checked up
    front and raise ValueError.  The outcome reports Converged or the failure
    mode, the last homotopy parameter reached, the supports accepted there,
    gauge-fixed, and a per-step trace; those supports may fall under
    reconstruct's edge or area tolerance.  A fold ending's (DEGENERATED)
    supports hold to only about 1e-7: a rounding change in the seed's areas
    moves them that far.  Divergence is watched on |x| of each iterate alone,
    before its areas: vertex c is B_c^-1 x on its cell's first three faces,
    so a k-gon face's perimeter is at most 2 k max_c |B_c^-1|_2 |x|.
    """
    opts = opts or SolveOptions()
    g = np.asarray(g, dtype=float)
    seed = reconstruct(fan, h0)
    f0 = seed.oriented_areas
    report = validate_target(fan, f0, g, opts.allow_non_general_position)
    if not report.ok:
        raise ValueError(f"target rejected:\n{report}")

    cons = fan.consistency_matrix
    x0 = gauge_fix(fan, seed.h)
    now = (x0, seed.signed_lengths, f0)     # the last accepted point: supports, signed lengths, areas
    href = max(float(np.linalg.norm(x0)), SEED_NORM_FLOOR)
    tangent_rhs = np.concatenate([g - f0, np.zeros(len(cons))])     # J d = g - f0; zero on consistency rows

    def full_jacobian(h: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        areas_jac = _jacobian(fan, h, lengths, opts.jacobian_mode)
        return np.vstack([areas_jac, cons]) if cons.size else areas_jac

    def correct(x: np.ndarray, g_t: np.ndarray):
        for _ in range(MAX_NEWTON_ITERS):
            if math.hypot(*x.tolist()) > DIVERGENCE_BOUND_FACTOR * href:    # hypot: no overflow on a runaway
                raise _Abort(SolveStatus.DIVERGED, "support norm exceeded the divergence sentinel")
            lengths = _signed_lengths(fan, x)
            areas = _oriented_areas(fan, x, lengths)
            scale = max(1.0, float(abs(x).max()))     # support_scale(x)
            res = areas - g_t
            done = float(abs(res).max()) <= opts.tol_area * scale**2
            if cons.size:       # the extra planes of non-simple cells ride along as rows
                res_cons = cons @ x
                done = done and float(abs(res_cons).max()) <= CONSISTENCY_SOLVE_TOL * scale
                res = np.concatenate([res, res_cons])
            if done:
                if np.any(np.sign(areas) != np.sign(g_t)):
                    raise _Abort(SolveStatus.DEGENERATED, "path left the orientation class")
                return x, lengths, areas
            x = x + _newton_step(full_jacobian(x, lengths), -res, fan.equipment)[0]
        return None

    def model(x: np.ndarray, lengths: np.ndarray, areas: np.ndarray):
        """Tangent d, second-order term e and the model's limit on the step in t."""
        jac = full_jacobian(x, lengths)
        d, again = _newton_step(jac, tangent_rhs, fan.equipment)
        quad = _oriented_areas(fan, d, _signed_lengths(fan, d))     # phi(d), the s^2 coefficient of the areas along d
        e = again(-quad)
        s_root = _first_root(areas, jac[:fan.m] @ d, quad)
        enorm = float(np.linalg.norm(e))
        bend = float(np.sqrt(CURVATURE_BUDGET * np.linalg.norm(x) / enorm)) if enorm > 0.0 else np.inf
        return d, e, min(ROOT_FRACTION * s_root, bend)

    t, cap = 0.0, 1.0
    trace = [TraceRecord(0.0, 0.0, float(abs(f0).min()))]

    attempts = 0
    status, message = SolveStatus.CONVERGED, ""
    try:
        tangent = None      # the model at the last accepted point, built once per point
        while t < 1.0 - WALK_END_TOL:
            attempts += 1
            if attempts > MAX_STEPS:
                raise _Abort(SolveStatus.MAX_ITERATIONS, "step budget exhausted")
            if tangent is None:
                tangent = model(*now)
            d, e, limit = tangent
            dt = min(1.0 - t, cap, limit)
            t_next = 1.0 if dt == 1.0 - t else t + dt
            g_t = (1.0 - t_next) * f0 + t_next * g
            result = correct(now[0] + dt * d + dt * dt * e, g_t)
            if result is None:
                cap = dt / 2.0
                if cap < MIN_STEP:
                    raise _Abort(SolveStatus.MAX_ITERATIONS,
                                 f"corrector stalled at t={t!r} with step below {MIN_STEP}")
                continue
            now, t, tangent = result, t_next, None
            trace.append(TraceRecord(t, float(abs(now[2] - g_t).max()), float(abs(now[2]).min())))
            cap = min(2.0 * cap, 1.0)
    except _Abort as abort:
        status, message = abort.status, str(abort)
    return SolveOutcome(status, gauge_fix(fan, now[0]), t, trace, message)
