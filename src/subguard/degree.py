"""Game of degree: optimal play when the defenders win.

From a defender-winning state the saddle point is pure straight-line play:
everyone runs at full speed toward a single optimal target point on the
boundary of the attacker's dominance region, and the guaranteed capture
height above the target hyperplane is that point's height.

The target point is the lowest point of the intersection of the attacker's
two dominance balls. Depending on the configuration the minimum sits either
at the bottom of one ball (only that defender matters) or on the seam where
both spheres meet. One plane cut gives every seam point: the seam is one
defender's sphere cut by the defenders' bisector plane, a circle whose
lowest point is explicit, and on the barrier the same plane's trace on the
hyperplane gives the target. Every point is built in the state's unit frame
(see :mod:`subguard.kind`) and scaled back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._text import fmt as _fmt, jvec as _jvec
from .config import DEFAULT_TOLS, ZERO_TOL, Tolerances
from .errors import (
    CoincidentPointsError,
    NotInDWSError,
    NotOnBarrierError,
    NumericalDegeneracyError,
)
from .geometry import CanonicalTransform, Scenario, _as_vector
from .kind import DEFENDERS_WIN, ON_BARRIER, PIECE_B3, _Kind, _kind

CASE_ONE_EFFECTIVE = "one_effective"
CASE_TWO_M_NONZERO = "two_effective_m12_nonzero"
CASE_TWO_M_ZERO = "two_effective_m12_zero"
CASE_BARRIER = "barrier"


def heading(frm, to, tol: float = ZERO_TOL) -> np.ndarray:
    """Unit vector from one point toward another; points within ``tol`` of
    each other count as coincident.

    ``tol`` is absolute, in the points' own units: two points carry no size
    but their distance, the very length tested, so the one scale-free default
    would be 0. A caller that knows its state's size passes a fraction of it.
    """
    frm = _as_vector(frm, name="start point")
    to = _as_vector(to, n=frm.shape[0], name="end point")
    diff = to - frm
    norm = float(np.linalg.norm(diff))
    if norm <= tol:
        raise CoincidentPointsError("heading between coincident points is undefined")
    return diff / norm


def effective_defenders(scenario: Scenario,
                        tols: Tolerances = DEFAULT_TOLS) -> tuple[str, tuple[int, ...]]:
    """Which defenders bind the attacker's best breach point.

    A defender is solely effective when the bottom of its dominance ball
    lies strictly inside the other's ball (the intersection's lowest point
    is then that bottom, and only that defender's sphere is active there).
    Otherwise both defenders matter and the minimizer sits on the seam;
    the two-defender case is labeled by the paper's split on the defenders'
    height difference, though one construction serves both labels.
    Bottoms exactly on the other sphere count as two-effective. Both tests
    compare lengths in the state's unit frame against ``ZERO_TOL``, a
    fraction of the state's size, so the label does not depend on scale.

    Requires a defender-winning state.
    """
    return _effective(_dws(scenario, tols))


def _dws(scenario: Scenario, tols: Tolerances) -> _Kind:
    """The state's classification, which must be defender-winning."""
    k = _kind(scenario, tols)
    if k.outcome != DEFENDERS_WIN:
        raise NotInDWSError("state is not strictly defender-winning")
    return k


def _effective(k: _Kind) -> tuple[str, tuple[int, ...]]:
    """``effective_defenders`` for a state classified defender-winning."""
    v1, v2 = k.ball1.bottom() - k.ball2.theta, k.ball2.bottom() - k.ball1.theta
    depth1 = k.ball2.delta - math.sqrt(float(v1 @ v1))
    depth2 = k.ball1.delta - math.sqrt(float(v2 @ v2))
    if max(depth1, depth2) > ZERO_TOL:
        # both cannot be strictly interior; keep the deeper one defensively
        index = 1 if depth1 >= depth2 else 2
        return CASE_ONE_EFFECTIVE, (index,)
    if abs(float(k.d1[-1] - k.d2[-1])) <= ZERO_TOL:
        return CASE_TWO_M_ZERO, (1, 2)
    return CASE_TWO_M_NONZERO, (1, 2)


@dataclass(frozen=True)
class DegreeSolution:
    """Saddle-point summary: target point, guaranteed height, unit headings.

    ``effective`` lists the binding defenders (1-based). Headings are None
    only when a player already stands on the target point.
    """

    case: str
    effective: tuple[int, ...]
    otp: np.ndarray
    value: float
    d1: np.ndarray | None
    d2: np.ndarray | None
    a: np.ndarray


def _heading_or_none(frm: np.ndarray, to: np.ndarray) -> np.ndarray | None:
    """``heading`` between unit-frame points, None where they coincide."""
    diff = to - frm
    norm = math.sqrt(float(diff @ diff))
    return None if norm <= ZERO_TOL else diff / norm


def _bisector(k: _Kind) -> tuple[np.ndarray, float]:
    """The defenders' bisector plane ``nu . z = w``: the points equidistant
    from both, so a point of one dominance sphere on it lies on both.

    ``w`` is ``nu`` against the defenders' midpoint, not the equal half gap
    of their squared norms, which loses digits far from the origin."""
    nu = k.d1 - k.d2
    w = 0.5 * float(nu @ (k.d1 + k.d2))
    return nu, w


def _seam_bottom(k: _Kind, tols: Tolerances) -> np.ndarray:
    """Lowest point of the seam where the two dominance spheres meet.

    The seam is defender 1's sphere cut by the bisector plane: a circle
    centered at the sphere center's projection onto the plane, with radius
    ``rho``. Its lowest point is ``rho`` below the center along ``d``, the
    vertical axis projected into the plane. ``d`` is formed as
    ``||nu||^2 e_n - nu_n nu``, the projection scaled by ``||nu||^2``, so
    its height ``||nu_lat||^2`` carries no cancellation.
    """
    ball = k.ball1
    nu, w = _bisector(k)
    nn = float(nu @ nu)
    s = (float(nu @ ball.theta) - w) / nn
    center = ball.theta - s * nu
    rho2 = ball.delta**2 - s**2 * nn
    if rho2 < -tols.rel * ball.delta**2:
        raise NumericalDegeneracyError(f"seam radius squared {rho2:.3g} is negative")
    lat2 = float(nu[:-1] @ nu[:-1])
    if lat2 == 0.0:
        raise NumericalDegeneracyError("defenders' bisector plane is horizontal")
    d = np.append(-nu[-1] * nu[:-1], lat2) / np.sqrt(lat2 * nn)
    return center - np.sqrt(max(rho2, 0.0)) * d


def solve_dws(scenario: Scenario, tols: Tolerances = DEFAULT_TOLS) -> DegreeSolution:
    """Saddle-point solution from a defender-winning state.

    Returns the optimal target point (lowest point of the dominance-ball
    intersection), the guaranteed capture height (its last coordinate), and
    unit headings for all players. Under optimal play every player runs
    straight at the target and capture happens there simultaneously with
    the binding defenders.
    """
    return _dws_solution(_dws(scenario, tols), tols)


def _dws_solution(k: _Kind, tols: Tolerances) -> DegreeSolution:
    """``solve_dws`` for a state classified defender-winning."""
    case, effective = _effective(k)
    if case == CASE_ONE_EFFECTIVE:
        otp = (k.ball1 if effective[0] == 1 else k.ball2).bottom()
    else:
        otp = _seam_bottom(k, tols)
    return _solution(k, case, effective, otp)


def _solution(k: _Kind, case: str, effective: tuple[int, ...],
              otp: np.ndarray) -> DegreeSolution:
    """The solution with the unit frame's target ``otp`` scaled back; the
    headings, unit vectors, are the unit frame's own."""
    world = np.ldexp(otp, k.e)
    return DegreeSolution(
        case=case, effective=effective, otp=world, value=float(world[-1]),
        d1=_heading_or_none(k.d1, otp), d2=_heading_or_none(k.d2, otp),
        a=_heading_or_none(k.a, otp))


def otp_on_barrier(scenario: Scenario, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Optimal target point for a state exactly on the barrier."""
    return barrier_solution(scenario, tols).otp


def barrier_solution(scenario: Scenario, tols: Tolerances = DEFAULT_TOLS) -> DegreeSolution:
    """Degree solution for an on-barrier state (value zero).

    The equal-time point sits on the target hyperplane itself: directly
    below the governing dominance-ball center on a single-defender piece,
    or at the closed-form seam foot on the composite piece. All binding
    defenders and the attacker arrive simultaneously.
    """
    k = _kind(scenario, tols)
    if k.outcome != ON_BARRIER:
        raise NotOnBarrierError(f"state classifies as {k.outcome}, not on the barrier")
    return _barrier_from(k)


def _barrier_from(k: _Kind) -> DegreeSolution:
    """``barrier_solution`` for a state classified on the barrier."""
    if k.piece == PIECE_B3:
        # the seam's trace on the hyperplane: the sphere center's lateral
        # foot projected onto the bisector line a . z_lat = w
        nu, w = _bisector(k)
        a, theta_lat = nu[:-1], k.ball1.theta[:-1]
        p_lat = theta_lat + ((w - float(a @ theta_lat)) / float(a @ a)) * a
        effective = (1, 2)
    else:
        p_lat = (k.ball1 if k.owner == 1 else k.ball2).theta[:-1]
        effective = (k.owner,)
    return _solution(k, CASE_BARRIER, effective, np.append(p_lat, 0.0))


def _saddle(k: _Kind, tols: Tolerances) -> DegreeSolution | None:
    """The saddle-point solution of a classified state: the defender-winning
    or the on-barrier one, and None where the attacker wins."""
    if k.outcome == DEFENDERS_WIN:
        return _dws_solution(k, tols)
    if k.outcome == ON_BARRIER:
        return _barrier_from(k)
    return None


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def payoff_capture_height(point) -> float:
    """Terminal payoff at capture: distance from the capture point to the
    guarded hyperplane (zero if capture happens on or past it)."""
    p = _as_vector(point, name="capture point")
    return max(float(p[-1]), 0.0)


def payoff_final_separation(x_d1, x_d2, x_a) -> float:
    """Terminal payoff at breach: closest defender's distance to the attacker."""
    x_a = _as_vector(x_a, name="attacker position")
    d1 = float(np.linalg.norm(_as_vector(x_d1, n=x_a.shape[0], name="defender 1") - x_a))
    d2 = float(np.linalg.norm(_as_vector(x_d2, n=x_a.shape[0], name="defender 2") - x_a))
    return min(d1, d2)


# ---------------------------------------------------------------------------
# solution wire format
# ---------------------------------------------------------------------------

def solution_to_json(sol: DegreeSolution,
                     transform: CanonicalTransform | None = None) -> str:
    """Serialize a solution; with a transform, adds the world-frame view."""

    def headings_block(d1, d2, a):
        parts = []
        parts.append(f'"d1": {_jvec(d1) if d1 is not None else "null"}')
        parts.append(f'"d2": {_jvec(d2) if d2 is not None else "null"}')
        parts.append(f'"a": {_jvec(a) if a is not None else "null"}')
        return "{" + ", ".join(parts) + "}"

    effective = "[" + ", ".join(str(i) for i in sol.effective) + "]"
    body = (f'"case": "{sol.case}", "effective": {effective}, '
            f'"otp": {_jvec(sol.otp)}, "value": {_fmt(sol.value)}, '
            f'"headings": {headings_block(sol.d1, sol.d2, sol.a)}')
    if transform is not None:
        w = transform
        world = (f'"otp": {_jvec(w.to_world(sol.otp))}, '
                 '"headings": ' + headings_block(
                     None if sol.d1 is None else w.dir_to_world(sol.d1),
                     None if sol.d2 is None else w.dir_to_world(sol.d2),
                     None if sol.a is None else w.dir_to_world(sol.a)))
        body += ', "world": {' + world + "}"
    return "{" + body + "}\n"
