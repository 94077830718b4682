"""Brute-force verification oracles.

Everything in this module answers game questions by direct search over the
target hyperplane (or over the reachable-boundary seam), using nothing but
point-to-point distances and the speed ratio. No barrier matrices, no
regions, no closed forms: these are the independent referees the analytic
solver is tested against.

Search strategy shared by the grid oracles: a coarse axis-aligned grid over
a provably sufficient box, repeatedly reshrunk by 0.2 around the incumbent,
then a short Nelder-Mead polish. Deterministic throughout (fixed seeds,
fixed budgets), so oracle answers are reproducible bit for bit. Every
objective depends only on heights and on distances to points over the
players' lateral span, so above n = 4 each oracle searches the exact n = 4
image of the state (:func:`_reduce`): at most 3 lateral axes at any n.

A grid oracle states its objective once, as ``value(min_dd, da)``. A grid
round broadcasts one 1-D array per axis over the ``ij`` mesh, as squared
distances on an axis-aligned grid are sums of per-axis terms; the polish
evaluates points in plain floats. Both sum in :func:`_square_sum`'s order,
which keeps the bits of the point-array code the oracles were written with.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, ORACLE_EVAL_BUDGET
from .errors import (
    BudgetExceededError,
    EmptyGridError,
    EmptyIntersectionError,
    NotOnTargetHyperplaneError,
    NoWinningPointError,
    NumericalDegeneracyError,
)
from .geometry import (
    Hyperplane,
    Scenario,
    _as_vector,
    _largest_distance,
    _require_canonical,
    _require_normal_gap,
    apollonius,
)

_SHRINK = 0.2
_POLISH_MAXITER = 200


@dataclass(frozen=True)
class GridSpec:
    """Refinement schedule for the hyperplane oracles.

    Each oracle searches a box around the attacker's foot point that surely
    holds the maximizer, over at most 3 lateral axes at any n. Each
    refinement round recenters on the incumbent and shrinks the half-width
    by 0.2. A round spends ``points_per_axis ** dim`` evaluations, which
    must stay within ``ORACLE_EVAL_BUDGET`` = 21^4: at most 57 points per
    axis on 3 axes.
    """

    points_per_axis: int = 21
    refinement_rounds: int = 5

    def __post_init__(self):
        if self.points_per_axis < 3:
            raise EmptyGridError(
                f"points_per_axis must be >= 3, got {self.points_per_axis}")
        if self.refinement_rounds < 0:
            raise EmptyGridError(
                f"refinement_rounds must be >= 0, got {self.refinement_rounds}")


def _lateral_basis(offsets) -> np.ndarray:
    """Orthonormal columns, ``(n - 1) x 3``, spanning every offset: Gram-Schmidt
    (twice per vector, so near dependence keeps them orthogonal) over the
    offsets, then the coordinate axes, skipping any within 1e-12 of the span."""
    cols = []
    for v in (*offsets, *np.eye(3, offsets[0].shape[0])):
        top = float(np.max(np.abs(v)))
        if top == 0.0 or len(cols) == 3:
            continue
        v = v / top  # so that the norm neither overflows nor underflows
        v = v / np.linalg.norm(v)
        for _ in range(2):
            for q in cols:
                v = v - (q @ v) * q
        size = float(np.linalg.norm(v))
        if size > 1e-12:
            cols.append(v / size)
    return np.stack(cols, axis=1)


def _lateral_frame(x_a, *others):
    """The players as n = 4 points ``(B^T (x_lat - a_lat), x_n)``, attacker
    first, and the lift ``p -> (a_lat + B p_lat, p_n)``; at n <= 4, the
    players as given and the identity. Every oracle squares the players'
    distances, so their gaps must square to normal floats."""
    _require_normal_gap(x_a, *others)
    if x_a.shape[0] <= 4:
        return [x_a, *others], lambda p: p
    a_lat = x_a[:-1]
    players = (x_a, *others)
    offsets = [x[:-1] - a_lat for x in players]
    B = _lateral_basis(offsets)
    return ([np.append(B.T @ v, x[-1]) for v, x in zip(offsets, players)],
            lambda p: np.append(a_lat + B @ p[:-1], p[-1]))


def _reduce(scenario: Scenario):
    """The n = 4 image of a canonical scenario and its lift (itself at n <= 4)."""
    (x_a, x_d1, x_d2), lift = _lateral_frame(scenario.x_a, scenario.x_d1, scenario.x_d2)
    if scenario.n <= 4:
        return scenario, lift
    return Scenario(n=4, hyperplane=Hyperplane(K=(0.0, 0.0, 0.0, 1.0), b=0.0),
                    x_d1=x_d1, x_d2=x_d2, x_a=x_a, alpha=scenario.alpha), lift


def _covering_radius(x_a, defenders, alpha: float) -> float:
    """Radius around the attacker's foot point that surely contains the
    maximizer of any of the pursuit objectives used here.

    Any hyperplane point scoring at least as well as the foot point lies
    within ``(alpha * min_i ||x_a - x_di|| + height) / (1 - alpha)`` of the
    attacker; pad by 5 percent.
    """
    gaps = [float(np.linalg.norm(x_a - d)) for d in defenders]
    r = (alpha * min(gaps) + abs(float(x_a[-1]))) / (1.0 - alpha)
    return 1.05 * r


def _nelder_mead(f, x0):
    """Minimize ``f`` from ``x0`` by the Nelder-Mead simplex; returns
    ``(x, f(x))``.

    Reflection 1, expansion 2, contraction and shrink 0.5; the first simplex
    is ``x0`` and ``x0`` with one coordinate scaled by 1.05 (set to 0.00025
    when zero). Stops once every vertex is within 1e-13 of the best and every
    value within 1e-15 of its value, or when the iteration count, from 1,
    reaches 200. Each call of ``f`` gets a copy of its point.
    """
    def value(x):
        fx = f(np.copy(x))
        return fx if np.isscalar(fx) else np.asarray(fx).item()

    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([value(x) for x in sim], dtype=float)
    order = np.argsort(fsim)  # twice: a tie may move again in the second sort
    sim, fsim = sim[order], fsim[order]
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < _POLISH_MAXITER:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-13
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-15):
            break
        xbar = sim[:-1].sum(axis=0) / n
        xr = 2 * xbar - sim[-1]
        fxr = value(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = value(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = value(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = value(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = value(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(np.min(fsim))


def _null_space(a) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``a``: the right singular
    vectors past its rank, which counts the singular values above
    ``s.max() * eps * max(a.shape)``."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > s.max(initial=0.0) * (np.finfo(float).eps * max(a.shape))))
    return vh[rank:].T


def _square_sum(squares, paired: bool):
    """Sum per-axis squares in the order of the reductions the oracles were
    first written with, so that their answers keep those bits: a defender of
    a pair sums as numpy 2.4's ``einsum("mkd,mkd->mk")`` does, ``(s0 + s2)
    + s1`` at three axes; every other distance in plain order, as
    ``np.sum(axis=1)`` does."""
    if paired and len(squares) == 3:
        squares = [squares[0] + squares[2], squares[1]]
    return functools.reduce(operator.add, squares)


def _nan_min(a: float, b: float) -> float:
    """``np.minimum`` of two floats: NaN when either is NaN."""
    return a if a < b or a != a else b


def _objective(value, defenders, attacker):
    """``f(coords, sqrt=math.sqrt, minimum=_nan_min)`` is ``value(min_i
    ||p - x_di||, ||p - x_a||)`` at hyperplane point(s) ``p`` with lateral
    ``coords``: one float per axis, or one array per axis broadcast over a
    grid with ``np.sqrt`` and ``np.minimum``. A squared distance adds to
    :func:`_square_sum` the height term, ``h * h`` for a defender of a pair
    and numpy's scalar ``h ** 2`` (last bit apart) for any other player."""
    paired = len(defenders) == 2
    players = [(x[:-1].tolist(), float(x[-1] * x[-1] if pair else x[-1] ** 2), pair)
               for x, pair in zip((*defenders, attacker), (paired, paired, False))]

    def f(coords, sqrt=math.sqrt, minimum=_nan_min):
        dist = [sqrt(_square_sum([(c - l) * (c - l) for c, l in zip(coords, lat)], pair) + h2)
                for lat, h2, pair in players]
        return value(functools.reduce(minimum, dist[:-1]), dist[-1])
    return f


def _grid_maximize(value, defenders, attacker, alpha: float, spec: GridSpec | None):
    """Maximize :func:`_objective` over a grid refining around the attacker's
    foot point, within :func:`_covering_radius`; returns (lateral point, value).

    Each round evaluates the objective once, on the sparse ``ij`` mesh of
    its axes, and finds the best node through ``np.unravel_index``; the
    polish evaluates single points in plain floats. The incumbent is
    monotone: each round keeps the best point seen so far, and the polish
    only replaces it on strict improvement.
    """
    spec = spec or GridSpec()
    dim = attacker.shape[0] - 1
    per_round = spec.points_per_axis ** dim
    if per_round > ORACLE_EVAL_BUDGET:
        raise BudgetExceededError(
            f"{spec.points_per_axis}^{dim} = {per_round} evaluations per round "
            f"exceed budget {ORACLE_EVAL_BUDGET}")
    f = _objective(value, defenders, attacker)
    center = attacker[:-1]
    hw = _covering_radius(attacker, defenders, alpha)
    best_x, best_v = None, -np.inf
    for _ in range(spec.refinement_rounds + 1):
        axes = [np.linspace(c - hw, c + hw, spec.points_per_axis) for c in center]
        vals = f(np.meshgrid(*axes, indexing="ij", sparse=True), np.sqrt, np.minimum)
        k = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[k] > best_v:
            best_v = float(vals[k])
            best_x = np.array([a[j] for a, j in zip(axes, k)])
        if best_x is None:
            raise NumericalDegeneracyError("no grid point has a finite objective value")
        center = best_x
        hw *= _SHRINK

    x, fun = _nelder_mead(lambda x: -f(x.tolist()), best_x)
    if -fun > best_v:
        best_v = float(-fun)
        best_x = x
    return best_x, best_v


def f_value(p, x_a, x_d, alpha: float) -> float:
    """Arrival-time lead of the attacker over one defender at ``p``.

    ``||p - x_d|| - ||p - x_a|| / alpha`` equals defender travel time minus
    attacker travel time, in defender-speed units: positive means the
    attacker reaches ``p`` strictly first. ``p`` must lie on the target
    hyperplane (height zero within tolerance), and the gaps between the
    three points must square to normal floats.
    """
    p = _as_vector(p, name="point")
    x_a = _as_vector(x_a, n=p.shape[0], name="attacker position")
    x_d = _as_vector(x_d, n=p.shape[0], name="defender position")
    _require_normal_gap(p, x_a, x_d)
    if abs(p[-1]) > DEFAULT_TOLS.rel * (1.0 + float(np.linalg.norm(p))):
        raise NotOnTargetHyperplaneError(f"point has height {p[-1]}")
    return float(np.linalg.norm(p - x_d) - np.linalg.norm(p - x_a) / alpha)


def oracle_otp_1v1(x_a, x_d, alpha: float, grid: GridSpec | None = None):
    """Best hyperplane point for the attacker against a single defender.

    Maximizes the arrival-time lead F by grid refinement. Returns
    ``(point, lead)``; a nonpositive lead means the defender can cover
    every hyperplane point at least as fast (barrier or winning defender).
    """
    x_a = _as_vector(x_a, name="attacker position")
    x_d = _as_vector(x_d, n=x_a.shape[0], name="defender position")
    (x_a, x_d), lift = _lateral_frame(x_a, x_d)
    lat, val = _grid_maximize(lambda dd, da: dd - da / alpha, [x_d], x_a, alpha, grid)
    return lift(np.append(lat, 0.0)), val


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
    (defenders win). Verdicts within ``margin * L`` of zero, with ``L`` the
    largest distance between two players, are inconclusive.
    """
    _require_canonical(scenario)
    scenario, lift = _reduce(scenario)
    alpha, defenders = scenario.alpha, (scenario.x_d1, scenario.x_d2)
    lat, val = _grid_maximize(lambda dd, da: alpha * dd - da, defenders, scenario.x_a,
                              alpha, grid)
    band = margin * _largest_distance((scenario.x_d1, scenario.x_d2, scenario.x_a))
    if val > band:
        label = "attacker_wins"
    elif val < -band:
        label = "defenders_win"
    else:
        label = "inconclusive"
    return KindProbe(label=label, point=lift(np.append(lat, 0.0)), value=val)


def oracle_aws_target(scenario: Scenario, grid: GridSpec | None = None) -> np.ndarray:
    """Breach point for a winning attacker, by direct search.

    Maximizes the worst-case arrival lead ``min_i F_i`` over the hyperplane
    and returns the maximizer, a point the attacker reaches strictly before
    either defender with the largest time margin. Raises
    :class:`NoWinningPointError` when no hyperplane point gives a positive
    lead (the defenders can cover everything).
    """
    _require_canonical(scenario)
    scenario, lift = _reduce(scenario)
    alpha, defenders = scenario.alpha, (scenario.x_d1, scenario.x_d2)
    lat, val = _grid_maximize(lambda dd, da: dd - da / alpha, defenders, scenario.x_a,
                              alpha, grid)
    if val <= 0.0:
        raise NoWinningPointError(
            f"no hyperplane point is reachable strictly first (best lead {val})")
    return lift(np.append(lat, 0.0))


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
    W = _null_space(nu[None, :])
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
    scenario, lift = _reduce(scenario)
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
    return lift(np.array(best)), float(best[-1])


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
    _require_canonical(scenario)
    scenario, lift = _reduce(scenario)
    c, rho, W = _seam_chart(scenario)
    d = W.shape[1]

    def height(u):
        return float(c[-1] + rho * (W[-1, :] @ u))

    def point(u):
        return c + rho * (W @ u)

    if d == 1:
        us = [np.array([1.0]), np.array([-1.0])]
        u_best = min(us, key=height)
        return lift(point(u_best)), height(u_best)

    rng = np.random.default_rng(20240817)
    cand = rng.standard_normal((coarse_samples, d))
    cand = np.concatenate([cand, np.eye(d), -np.eye(d)], axis=0)
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    heights = c[-1] + rho * (cand @ W[-1, :])
    u_best = cand[int(np.argmin(heights))].copy()
    v_best = float(np.min(heights))

    half = 0.5
    for _ in range(rounds):
        tangent = _null_space(u_best[None, :])
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

    tangent = _null_space(u_best[None, :])

    def patch(xi):
        u = u_best + tangent @ xi
        return height(u / np.linalg.norm(u))

    x, fun = _nelder_mead(patch, np.zeros(d - 1))
    if fun < v_best:
        u = u_best + tangent @ x
        u_best = u / np.linalg.norm(u)
        v_best = fun
    return lift(point(u_best)), height(u_best)
