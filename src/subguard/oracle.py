"""Brute-force verification oracles.

Everything in this module answers game questions by direct search over the
target hyperplane (or over the reachable-boundary seam), using nothing but
point-to-point distances and the speed ratio. No barrier matrices, no
regions, no closed forms: these are the independent referees the analytic
solver is tested against.

Search strategy shared by the grid oracles: a coarse axis-aligned grid over
a provably sufficient box, repeatedly reshrunk by 0.2 around the incumbent,
then a short Nelder-Mead polish. Deterministic throughout (fixed seeds,
fixed budgets), so oracle answers are reproducible bit for bit.

scipy is imported inside the functions that call it, so importing this
module (and with it the package) does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, ORACLE_EVAL_BUDGET, ORACLE_MAX_DIM
from .errors import (
    BudgetExceededError,
    DimensionCapError,
    EmptyGridError,
    EmptyIntersectionError,
    NotOnTargetHyperplaneError,
    NoWinningPointError,
)
from .geometry import Scenario, _as_vector, _require_canonical, apollonius

_SHRINK = 0.2
_POLISH_MAXITER = 200


@dataclass(frozen=True)
class GridSpec:
    """Search box and refinement schedule for the hyperplane oracles.

    ``center`` (lateral coordinates) and ``half_width`` bound the initial
    box; None lets each oracle derive a covering box from the scenario.
    Each refinement round recenters on the incumbent and shrinks the
    half-width by 0.2. ``points_per_axis ** dim`` evaluations are spent per
    round and must stay within ``budget``. An oracle called without a grid
    uses this default with ``points_per_axis`` lowered, if need be, to the
    largest count whose round fits the budget: 21 up to n = 5, 11 at n = 6.
    """

    center: np.ndarray | None = None
    half_width: float | None = None
    points_per_axis: int = 21
    refinement_rounds: int = 5
    budget: int = ORACLE_EVAL_BUDGET

    def __post_init__(self):
        if self.points_per_axis < 3:
            raise EmptyGridError(
                f"points_per_axis must be >= 3, got {self.points_per_axis}")
        if self.refinement_rounds < 0:
            raise EmptyGridError(
                f"refinement_rounds must be >= 0, got {self.refinement_rounds}")
        if self.half_width is not None and self.half_width <= 0:
            raise EmptyGridError(f"half_width must be positive, got {self.half_width}")


def _default_grid(dim: int) -> GridSpec:
    """The default GridSpec with the most points per axis (at most its 21)
    whose ``dim``-dimensional round fits its budget."""
    spec = GridSpec()
    k = spec.points_per_axis
    while k ** dim > spec.budget:
        k -= 1
    return GridSpec(points_per_axis=k)


def _check_dim(n: int):
    if n > ORACLE_MAX_DIM:
        raise DimensionCapError(
            f"brute-force oracles support n <= {ORACLE_MAX_DIM}, got n={n}")


def _grid_pair_dists(points, defenders, attacker):
    """Per-point (min distance to either defender, distance to attacker).

    ``points`` are lateral coordinates of candidates on the target
    hyperplane (height 0); player positions are full vectors.
    """
    d = points.shape[1]
    lat = defenders[:, :d]
    h2 = defenders[:, d] ** 2
    diffs = points[:, None, :] - lat[None, :, :]
    dd = np.sqrt(np.einsum("mkd,mkd->mk", diffs, diffs) + h2[None, :])
    da = np.sqrt(np.sum((points - attacker[:d]) ** 2, axis=1) + attacker[d] ** 2)
    return dd.min(axis=1), da


def _grid_single_dists(points, defender, attacker):
    """Per-point (distance to one defender, distance to attacker)."""
    d = points.shape[1]
    dd = np.sqrt(np.sum((points - defender[:d]) ** 2, axis=1) + defender[d] ** 2)
    da = np.sqrt(np.sum((points - attacker[:d]) ** 2, axis=1) + attacker[d] ** 2)
    return dd, da


def _covering_radius(x_a, defenders, alpha: float) -> float:
    """Radius around the attacker's foot point that surely contains the
    maximizer of any of the pursuit objectives used here.

    Any hyperplane point scoring at least as well as the foot point lies
    within ``(alpha * min_i ||x_a - x_di|| + height) / (1 - alpha)`` of the
    attacker; pad by 5 percent.
    """
    gaps = [float(np.linalg.norm(x_a - d)) for d in defenders]
    r = (alpha * min(gaps) + abs(float(x_a[-1]))) / (1.0 - alpha)
    return 1.05 * max(r, 1e-6)


def _grid_maximize(batch_fn, dim: int, center, half_width: float, spec: GridSpec):
    """Maximize ``batch_fn`` over a refining grid; returns (point, value).

    The incumbent is monotone: each round keeps the best point seen so far,
    and the polish only replaces it on strict improvement.
    """
    from scipy.optimize import minimize

    per_round = spec.points_per_axis ** dim
    if per_round > spec.budget:
        raise BudgetExceededError(
            f"{spec.points_per_axis}^{dim} = {per_round} evaluations per round "
            f"exceed budget {spec.budget}")
    center = np.array(center, dtype=float)
    hw = float(half_width)
    best_x, best_v = None, -np.inf
    for _ in range(spec.refinement_rounds + 1):
        axes = [np.linspace(center[i] - hw, center[i] + hw, spec.points_per_axis)
                for i in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        vals = batch_fn(pts)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_v = float(vals[k])
            best_x = pts[k].copy()
        center = best_x
        hw *= _SHRINK

    res = minimize(lambda x: -batch_fn(x[None, :])[0], best_x,
                   method="Nelder-Mead",
                   options={"maxiter": _POLISH_MAXITER, "xatol": 1e-13, "fatol": 1e-15})
    if -res.fun > best_v:
        best_v = float(-res.fun)
        best_x = np.asarray(res.x, dtype=float)
    return best_x, best_v


def f_value(p, x_a, x_d, alpha: float) -> float:
    """Arrival-time lead of the attacker over one defender at ``p``.

    ``||p - x_d|| - ||p - x_a|| / alpha`` equals defender travel time minus
    attacker travel time, in defender-speed units: positive means the
    attacker reaches ``p`` strictly first. ``p`` must lie on the target
    hyperplane (height zero within tolerance).
    """
    p = _as_vector(p, name="point")
    x_a = _as_vector(x_a, n=p.shape[0], name="attacker position")
    x_d = _as_vector(x_d, n=p.shape[0], name="defender position")
    if abs(p[-1]) > DEFAULT_TOLS.rel * (1.0 + float(np.linalg.norm(p))):
        raise NotOnTargetHyperplaneError(f"point has height {p[-1]}")
    return float(np.linalg.norm(p - x_d) - np.linalg.norm(p - x_a) / alpha)


def _full_point(lat: np.ndarray) -> np.ndarray:
    return np.append(lat, 0.0)


def oracle_otp_1v1(x_a, x_d, alpha: float, grid: GridSpec | None = None):
    """Best hyperplane point for the attacker against a single defender.

    Maximizes the arrival-time lead F by grid refinement. Returns
    ``(point, lead)``; a nonpositive lead means the defender can cover
    every hyperplane point at least as fast (barrier or winning defender).
    """
    x_a = _as_vector(x_a, name="attacker position")
    x_d = _as_vector(x_d, n=x_a.shape[0], name="defender position")
    _check_dim(x_a.shape[0])
    grid = grid or _default_grid(x_a.shape[0] - 1)
    center = grid.center if grid.center is not None else x_a[:-1]
    hw = grid.half_width if grid.half_width is not None else _covering_radius(
        x_a, [x_d], alpha)

    def batch(pts):
        dd, da = _grid_single_dists(pts, x_d, x_a)
        return dd - da / alpha

    lat, val = _grid_maximize(batch, x_a.shape[0] - 1, center, hw, grid)
    return _full_point(lat), val


@dataclass(frozen=True)
class KindProbe:
    """Oracle verdict on the game of kind with its evidence point."""

    label: str
    point: np.ndarray
    value: float


def oracle_kind(scenario: Scenario, grid: GridSpec | None = None,
                margin: float = 1e-6) -> KindProbe:
    """Decide the winner by searching the hyperplane directly.

    Maximizes ``min_i alpha ||p - x_di|| - ||p - x_a||``. A positive
    maximum exhibits a point the attacker reaches strictly before both
    defenders (attacker wins); a negative one proves no such point exists
    (defenders win). Verdicts inside ``margin`` are inconclusive.
    """
    _require_canonical(scenario)
    _check_dim(scenario.n)
    grid = grid or _default_grid(scenario.n - 1)
    defenders = np.stack([scenario.x_d1, scenario.x_d2])
    center = grid.center if grid.center is not None else scenario.x_a[:-1]
    hw = grid.half_width if grid.half_width is not None else _covering_radius(
        scenario.x_a, [scenario.x_d1, scenario.x_d2], scenario.alpha)

    def batch(pts):
        min_dd, da = _grid_pair_dists(pts, defenders, scenario.x_a)
        return scenario.alpha * min_dd - da

    lat, val = _grid_maximize(batch, scenario.n - 1, center, hw, grid)
    if val > margin:
        label = "attacker_wins"
    elif val < -margin:
        label = "defenders_win"
    else:
        label = "inconclusive"
    return KindProbe(label=label, point=_full_point(lat), value=val)


def oracle_aws_target(scenario: Scenario, grid: GridSpec | None = None) -> np.ndarray:
    """Breach point for a winning attacker, by direct search.

    Maximizes the worst-case arrival lead ``min_i F_i`` over the hyperplane
    and returns the maximizer, a point the attacker reaches strictly before
    either defender with the largest time margin. Raises
    :class:`NoWinningPointError` when no hyperplane point gives a positive
    lead (the defenders can cover everything).
    """
    _require_canonical(scenario)
    _check_dim(scenario.n)
    grid = grid or _default_grid(scenario.n - 1)
    defenders = np.stack([scenario.x_d1, scenario.x_d2])
    center = grid.center if grid.center is not None else scenario.x_a[:-1]
    hw = grid.half_width if grid.half_width is not None else _covering_radius(
        scenario.x_a, [scenario.x_d1, scenario.x_d2], scenario.alpha)

    def batch(pts):
        min_dd, da = _grid_pair_dists(pts, defenders, scenario.x_a)
        return min_dd - da / scenario.alpha

    lat, val = _grid_maximize(batch, scenario.n - 1, center, hw, grid)
    if val <= 0.0:
        raise NoWinningPointError(
            f"no hyperplane point is reachable strictly first (best lead {val})")
    return _full_point(lat)


# ---------------------------------------------------------------------------
# seam search: minimize height over the intersection of both dominance spheres
# ---------------------------------------------------------------------------

def _seam_chart(scenario: Scenario):
    """Parameterize the sphere-sphere seam.

    The seam lies in the defenders' perpendicular-bisector hyperplane; inside
    it, the seam is the sphere of radius ``rho`` around ``c``. Returns
    ``(c, rho, W)`` with ``W`` an orthonormal basis (columns) of the bisector
    directions, so seam points are ``c + rho * W @ u`` for unit ``u``.
    """
    from scipy.linalg import null_space

    ball1 = apollonius(scenario.x_a, scenario.x_d1, scenario.alpha)
    ball2 = apollonius(scenario.x_a, scenario.x_d2, scenario.alpha)
    gap = float(np.linalg.norm(ball1.theta - ball2.theta))
    if gap > ball1.delta + ball2.delta or gap < abs(ball1.delta - ball2.delta):
        raise EmptyIntersectionError("dominance spheres do not intersect")
    nu = scenario.x_d1 - scenario.x_d2
    w12 = 0.5 * (float(scenario.x_d1 @ scenario.x_d1) - float(scenario.x_d2 @ scenario.x_d2))
    nn = float(nu @ nu)
    d_signed = (float(nu @ ball1.theta) - w12) / np.sqrt(nn)
    rho2 = ball1.delta**2 - d_signed**2
    if rho2 < 0.0:
        raise EmptyIntersectionError("bisector plane misses the dominance sphere")
    c = ball1.theta - (d_signed / np.sqrt(nn)) * nu
    W = null_space(nu[None, :])
    return c, float(np.sqrt(max(rho2, 0.0))), W


def oracle_min_boundary_height(scenario: Scenario) -> tuple[np.ndarray, float]:
    """Lowest point of the attacker's dominance-region boundary.

    The boundary of the two-ball intersection consists of two spherical
    caps meeting at the seam. Its height minimum is either a ball bottom
    (when that bottom lies inside the other closed ball, i.e. on its cap)
    or the seam minimum; this checks all candidates directly and returns
    the lowest. Serves as the value oracle for any defender-winning state
    regardless of which defenders are effective.
    """
    _require_canonical(scenario)
    _check_dim(scenario.n)
    ball1 = apollonius(scenario.x_a, scenario.x_d1, scenario.alpha)
    ball2 = apollonius(scenario.x_a, scenario.x_d2, scenario.alpha)
    candidates = []
    if ball1.contains(ball2.bottom(), strict=False):
        candidates.append(ball2.bottom())
    if ball2.contains(ball1.bottom(), strict=False):
        candidates.append(ball1.bottom())
    try:
        seam_point, _ = oracle_otp_dws(scenario)
        candidates.append(seam_point)
    except EmptyIntersectionError:
        pass
    if not candidates:
        raise EmptyIntersectionError("dominance region has no boundary candidates")
    best = min(candidates, key=lambda p: float(p[-1]))
    return np.array(best), float(best[-1])


def oracle_otp_dws(scenario: Scenario, rounds: int = 5,
                   coarse_samples: int = 2048) -> tuple[np.ndarray, float]:
    """Lowest point of the two-sphere seam, by direction search.

    Searches unit directions ``u`` in the bisector hyperplane for the seam
    point ``c + rho W u`` of minimal height: the attacker's best guaranteed
    breach spot when both defenders matter. Coarse pass over seeded random
    and axis directions, then tangent-patch refinement shrinking by 0.2 per
    round, then a Nelder-Mead polish. In the plane the seam is just two
    points and both are checked directly.
    """
    from scipy.linalg import null_space
    from scipy.optimize import minimize

    _require_canonical(scenario)
    _check_dim(scenario.n)
    c, rho, W = _seam_chart(scenario)
    d = W.shape[1]

    def height(u):
        return float(c[-1] + rho * (W[-1, :] @ u))

    def point(u):
        return c + rho * (W @ u)

    if d == 1:
        us = [np.array([1.0]), np.array([-1.0])]
        u_best = min(us, key=height)
        return point(u_best), height(u_best)

    rng = np.random.default_rng(20240817)
    cand = rng.standard_normal((coarse_samples, d))
    cand = np.concatenate([cand, np.eye(d), -np.eye(d)], axis=0)
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    heights = c[-1] + rho * (cand @ W[-1, :])
    u_best = cand[int(np.argmin(heights))].copy()
    v_best = float(np.min(heights))

    half = 0.5
    for _ in range(rounds):
        tangent = null_space(u_best[None, :])
        axes = [np.linspace(-half, half, 9)] * (d - 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        xi = np.stack([g.ravel() for g in mesh], axis=1)
        us = u_best[None, :] + xi @ tangent.T
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        hs = c[-1] + rho * (us @ W[-1, :])
        k = int(np.argmin(hs))
        if hs[k] < v_best:
            v_best = float(hs[k])
            u_best = us[k].copy()
        half *= _SHRINK

    tangent = null_space(u_best[None, :])

    def patch(xi):
        u = u_best + tangent @ xi
        return height(u / np.linalg.norm(u))

    res = minimize(patch, np.zeros(d - 1), method="Nelder-Mead",
                   options={"maxiter": _POLISH_MAXITER, "xatol": 1e-13, "fatol": 1e-15})
    if res.fun < v_best:
        u = u_best + tangent @ res.x
        u_best = u / np.linalg.norm(u)
        v_best = float(res.fun)
    return point(u_best), height(u_best)
