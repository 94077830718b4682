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
hyperplane gives the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._text import fmt as _fmt, jvec as _jvec
from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    CoincidentPointsError,
    NotInDWSError,
    NotOnBarrierError,
    NumericalDegeneracyError,
)
from .geometry import (
    CanonicalTransform,
    Scenario,
    _as_vector,
    apollonius,
)
from .kind import (
    DEFENDERS_WIN,
    ON_BARRIER,
    PIECE_B3,
    KindOutcome,
    _kind,
    _length,
    evaluate_kind,
)

CASE_ONE_EFFECTIVE = "one_effective"
CASE_TWO_M_NONZERO = "two_effective_m12_nonzero"
CASE_TWO_M_ZERO = "two_effective_m12_zero"
CASE_BARRIER = "barrier"


def heading(frm, to, tol: float = DEFAULT_TOLS.abs) -> np.ndarray:
    """Unit vector from one point toward another."""
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
    compare lengths against ``tols.abs * L``, with ``L`` the largest
    distance between two players, so the label does not depend on scale.

    Requires a defender-winning state.
    """
    _require_dws(scenario, tols)
    return _effective(scenario, tols)


def _require_dws(scenario: Scenario, tols: Tolerances) -> None:
    if evaluate_kind(scenario, tols).outcome != DEFENDERS_WIN:
        raise NotInDWSError("state is not strictly defender-winning")


def _effective(scenario: Scenario, tols: Tolerances) -> tuple[str, tuple[int, ...]]:
    """``effective_defenders`` for a state already known to be
    defender-winning."""
    ball1 = apollonius(scenario.x_a, scenario.x_d1, scenario.alpha)
    ball2 = apollonius(scenario.x_a, scenario.x_d2, scenario.alpha)
    tol = tols.abs * _length(scenario)
    depth1 = ball2.delta - float(np.linalg.norm(ball1.bottom() - ball2.theta))
    depth2 = ball1.delta - float(np.linalg.norm(ball2.bottom() - ball1.theta))
    if max(depth1, depth2) > tol:
        # both cannot be strictly interior; keep the deeper one defensively
        index = 1 if depth1 >= depth2 else 2
        return CASE_ONE_EFFECTIVE, (index,)
    m12 = float(scenario.x_d1[-1] - scenario.x_d2[-1])
    if abs(m12) <= tol:
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


def _heading_or_none(frm, to) -> np.ndarray | None:
    try:
        return heading(frm, to)
    except CoincidentPointsError:
        return None


def _bisector(scenario: Scenario) -> tuple[np.ndarray, float]:
    """The defenders' bisector plane ``nu . z = w``: the points equidistant
    from both, so a point of one dominance sphere on it lies on both.

    ``w`` is ``nu`` against the defenders' midpoint, not the equal half gap
    of their squared norms, which loses digits far from the origin."""
    nu = scenario.x_d1 - scenario.x_d2
    w = 0.5 * float(nu @ (scenario.x_d1 + scenario.x_d2))
    return nu, w


def _seam_bottom(scenario: Scenario, tols: Tolerances) -> np.ndarray:
    """Lowest point of the seam where the two dominance spheres meet.

    The seam is defender 1's sphere cut by the bisector plane: a circle
    centered at the sphere center's projection onto the plane, with radius
    ``rho``. Its lowest point is ``rho`` below the center along ``d``, the
    vertical axis projected into the plane. ``d`` is formed as
    ``||nu||^2 e_n - nu_n nu``, the projection scaled by ``||nu||^2``, so
    its height ``||nu_lat||^2`` carries no cancellation.
    """
    ball = apollonius(scenario.x_a, scenario.x_d1, scenario.alpha)
    nu, w = _bisector(scenario)
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
    _require_dws(scenario, tols)
    return _dws_solution(scenario, tols)


def _dws_solution(scenario: Scenario, tols: Tolerances) -> DegreeSolution:
    """``solve_dws`` for a state already known to be defender-winning."""
    case, effective = _effective(scenario, tols)
    if case == CASE_ONE_EFFECTIVE:
        i = effective[0]
        ball = apollonius(scenario.x_a, scenario.x_d1 if i == 1 else scenario.x_d2,
                          scenario.alpha)
        otp = ball.bottom()
    else:
        otp = _seam_bottom(scenario, tols)
    return _solution(scenario, case, effective, otp)


def _solution(scenario: Scenario, case: str, effective: tuple[int, ...],
              otp: np.ndarray) -> DegreeSolution:
    return DegreeSolution(
        case=case, effective=effective, otp=otp, value=float(otp[-1]),
        d1=_heading_or_none(scenario.x_d1, otp),
        d2=_heading_or_none(scenario.x_d2, otp),
        a=_heading_or_none(scenario.x_a, otp))


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
    outcome, owner = _kind(scenario, tols)
    if outcome.outcome != ON_BARRIER:
        raise NotOnBarrierError(
            f"state classifies as {outcome.outcome}, not on the barrier")
    return _barrier_from(scenario, outcome, owner)


def _barrier_from(scenario: Scenario, outcome: KindOutcome, owner: int) -> DegreeSolution:
    """``barrier_solution`` for a state ``_kind`` put on the barrier, with
    its outcome and piece owner."""
    if outcome.piece == PIECE_B3:
        # the seam's trace on the hyperplane: the sphere center's lateral
        # foot projected onto the bisector line a . z_lat = w
        ball1 = apollonius(scenario.x_a, scenario.x_d1, scenario.alpha)
        nu, w = _bisector(scenario)
        a, theta_lat = nu[:-1], ball1.theta[:-1]
        p_lat = theta_lat + ((w - float(a @ theta_lat)) / float(a @ a)) * a
        effective = (1, 2)
    else:
        x_d = scenario.x_d1 if owner == 1 else scenario.x_d2
        p_lat = apollonius(scenario.x_a, x_d, scenario.alpha).theta[:-1]
        effective = (owner,)
    return _solution(scenario, CASE_BARRIER, effective, np.append(p_lat, 0.0))


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
