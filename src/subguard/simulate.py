"""Forward simulation of the guarding game under feedback policies.

Capture is a defender closing within ``eps_capture`` of the attacker;
arrival is the attacker's height reaching zero. Capture wins ties.

Two ways to run, chosen by ``simulate``:

* Exact, continuous time: ``record=False`` with the built-in
  :class:`ToPointPolicy` and :class:`FixedHeadingPolicy` for all three
  players. Every player moves in a straight line at constant speed and a
  run-to-point player stops on its target, so positions are piecewise
  linear in time and each event time is a closed-form root. This is the
  saddle-point play of the paper, at a cost that does not depend on ``dt``.
* Forward Euler: callable policies, or ``record=True``. Each step every
  player moves ``speed * dt`` along the unit heading its policy returns.
  Events are located inside the step by chord interpolation (positions
  move linearly between samples, so capture and arrival times solve
  exactly there).

Policies are callables ``policy(state, own) -> unit heading`` where
``state`` carries the time and all three positions and ``own`` is the
controlled player's position. A policy may return the zero vector to hold
position (the run-to-point policy does this when it starts already at its
target and has no heading to hold).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._text import fmt as _fmt, jvec as _jvec
from .config import DEFAULT_TOLS, SIMULATE_STEP_BUDGET, Tolerances
from .errors import BudgetExceededError, InvalidPolicyError, ScenarioFormatError
from .degree import _saddle
from .geometry import Scenario, _require_canonical, _require_normal_gap
from .kind import ATTACKER_WINS, _Kind, _kind

EVENT_CAPTURED = "captured"
EVENT_ARRIVED = "arrived"
EVENT_TIMEOUT = "timeout"


class GameState(NamedTuple):
    """Snapshot handed to policies each step."""

    t: float
    x_d1: np.ndarray
    x_d2: np.ndarray
    x_a: np.ndarray


Policy = Callable[[GameState, np.ndarray], np.ndarray]


class ToPointPolicy:
    """Run straight at a fixed target.

    In the exact continuous-time path of :func:`simulate` the player stops
    on its target, and one that starts within ``tol`` of it holds position.
    Called as a policy (forward Euler), it holds its last heading once
    within ``tol`` of the target rather than re-aiming, which avoids
    heading chatter in discrete time; starting within ``tol`` with no
    heading yet means holding position (zero heading).
    """

    def __init__(self, target, tol: float = 1e-9):
        self.target = np.array(np.asarray(target, dtype=float))
        self.tol = float(tol)
        self._last = np.zeros(self.target.shape[0])

    def __call__(self, state: GameState, own: np.ndarray) -> np.ndarray:
        diff = self.target - own
        norm = unit = float(np.linalg.norm(diff))
        if not sys.float_info.min <= norm * norm < math.inf:
            # a power of two brings diff's norm into range and moves no heading bit
            e = int(np.frexp(np.max(np.abs(diff)))[1])
            diff = np.ldexp(diff, -e)
            unit = float(np.linalg.norm(diff))
            norm = math.ldexp(unit, e)
        if norm > self.tol:
            self._last = diff / unit
        return self._last


class FixedHeadingPolicy:
    """Cruise along one fixed unit heading forever."""

    def __init__(self, u):
        u = np.array(np.asarray(u, dtype=float))
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            raise InvalidPolicyError("fixed heading must be nonzero")
        self.u = u / norm

    def __call__(self, state: GameState, own: np.ndarray) -> np.ndarray:
        return self.u


def to_point_policy(target, tol: float = 1e-9) -> ToPointPolicy:
    return ToPointPolicy(target, tol)


def fixed_heading_policy(u) -> FixedHeadingPolicy:
    return FixedHeadingPolicy(u)


@dataclass(frozen=True)
class Trajectory:
    """Sampled run of the game.

    ``positions[k]`` stacks (defender 1, defender 2, attacker) at
    ``times[k]``. The last sample sits at the event time (a partial step
    when the event fires mid-step). ``event_point`` is the attacker's
    position at the event; ``captured_by`` the capturing defender
    (1-based) or None.
    """

    dt: float
    times: np.ndarray
    positions: np.ndarray
    event: str
    t_event: float
    event_point: np.ndarray | None
    captured_by: int | None

    @property
    def capture_height(self) -> float | None:
        if self.event_point is None:
            return None
        return float(self.event_point[-1])


def _validate_heading(u, n: int, who: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise InvalidPolicyError(f"{who} policy returned shape {u.shape}, expected ({n},)")
    norm = float(np.linalg.norm(u))
    if norm != 0.0 and abs(norm - 1.0) > 1e-12:
        raise InvalidPolicyError(f"{who} policy returned non-unit heading (norm {norm})")
    return u


def _chord_capture(prev, cur, eps: float):
    """Earliest in-step fraction where a defender closes to ``eps``."""
    s_cap, by = math.inf, None
    for k in range(2):
        d0 = prev[k] - prev[2]
        d1 = cur[k] - cur[2]
        e = d1 - d0
        a, dd, eps_k = float(e @ e), float(d0 @ d0), eps
        if not sys.float_info.min <= a * dd < math.inf:
            # the discriminant's terms are products of two squares; a power
            # of two brings them into range and moves no root
            p = int(np.frexp(np.max(np.abs(d0)))[1])
            d0, e, eps_k = np.ldexp(d0, -p), np.ldexp(e, -p), math.ldexp(eps, -p)
            a, dd = float(e @ e), float(d0 @ d0)
        b = 2.0 * float(d0 @ e)
        c = dd - eps_k * eps_k
        s = math.inf
        if c <= 0.0:
            s = 0.0
        elif a > 0.0:
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                root = (-b - math.sqrt(disc)) / (2.0 * a)
                if 0.0 <= root <= 1.0:
                    s = root
        if s < s_cap:
            s_cap, by = s, k + 1
    return s_cap, by


def _chord_arrival(prev, cur):
    a1 = float(cur[2][-1])
    if a1 > 0.0:
        return math.inf
    a0 = float(prev[2][-1])
    return a0 / (a0 - a1) if a0 > 0.0 else 0.0


# Exact path for the built-in policies, on plain arrays.
#
# Player order: defender 1, defender 2, attacker. ``mode`` selects the
# motion per player: 0 = run to the point ``vec`` and stop on it (hold from
# the start when within arrive_tol of it), 1 = cruise along the unit heading
# ``vec``. Velocities are then piecewise constant: [0, nsteps * dt] is cut at
# the stop times, and on each piece capture and arrival are roots of a
# quadratic and a linear function of time. Event codes: 0 = timeout,
# 1 = captured, 2 = arrived; capture wins a tie. The last item returned is
# the number of pieces examined.

def _run_linear(pos0, speeds, mode, vec, dt, t_max, eps_capture, arrive_tol):
    vel, stop = np.zeros_like(pos0), np.full(3, math.inf)
    for p in range(3):
        if mode[p] == 1:
            vel[p] = speeds[p] * vec[p]
            continue
        diff = vec[p] - pos0[p]
        dist = float(np.linalg.norm(diff))
        stop[p] = 0.0
        if dist > arrive_tol:
            vel[p], stop[p] = speeds[p] * diff / dist, dist / speeds[p]
    t_end = math.ceil(t_max / dt - 1e-12) * dt
    cuts = sorted({float(s) for s in stop if 0.0 < s < t_end} | {t_end})
    eps2, pos, t0 = eps_capture * eps_capture, pos0.copy(), 0.0
    for piece, t1 in enumerate(cuts, 1):
        v = np.where((stop > t0)[:, None], vel, 0.0)
        s_cap, by = math.inf, -1
        for k in range(2):
            d0, e = pos[k] - pos[2], v[k] - v[2]
            a, b = float(e @ e), float(d0 @ e)
            s = math.inf
            if float(d0 @ d0) <= eps2:
                s = 0.0
            elif b < 0.0:
                # the miss distance d_perp keeps the discriminant exact head-on
                d_perp = d0 - (b / a) * e
                disc = a * (eps2 - float(d_perp @ d_perp))
                if disc >= 0.0:
                    s = max(0.0, (-b - math.sqrt(disc)) / a)
            if s < s_cap:
                s_cap, by = s, k
        h0, vz = float(pos[2, -1]), float(v[2, -1])
        s_arr = 0.0 if h0 <= 0.0 else (h0 / -vz if vz < 0.0 else math.inf)
        if min(s_cap, s_arr) <= t1 - t0:
            if s_cap <= s_arr:
                return 1, t0 + s_cap, pos + s_cap * v, by, piece
            epos = pos + s_arr * v
            epos[2, -1] = min(h0, 0.0)  # the attacker is on the plane at the root
            return 2, t0 + s_arr, epos, -1, piece
        pos = pos + (t1 - t0) * v
        # a stopped player sits on its target exactly, never a rounding above it
        pos[stop == t1] = vec[stop == t1]
        t0 = t1
    return 0, t_end, pos, -1, len(cuts)


def simulate(scenario: Scenario, policies, dt: float, t_max: float,
             eps_capture: float | None = None, record: bool = True) -> Trajectory:
    """Run the game forward until capture, arrival, or timeout.

    ``policies`` is the triple (defender 1, defender 2, attacker).
    ``eps_capture`` defaults to one defender step, ``speed_d * dt``. The
    horizon is ``t_max`` rounded up to whole steps of ``dt``.

    With ``record=False`` only the initial and terminal samples are kept,
    and runs whose three policies are the built-in point/heading policies
    are solved exactly in continuous time, without calling the policies:
    every player moves in a straight line, a run-to-point player stops on
    its target, and capture and arrival fire at their exact times, in
    O(1) work whatever ``dt`` is. Callable policies, and every run with
    ``record=True``, step with forward Euler instead, at most
    ``config.SIMULATE_STEP_BUDGET`` steps: a run that needs more raises
    :class:`BudgetExceededError`, before the first step when the exact
    event time of built-in policies already shows it. Squared distances
    past the float range raise :class:`NumericalDegeneracyError`.
    """
    _require_canonical(scenario)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ScenarioFormatError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ScenarioFormatError(f"t_max must be positive and finite, got {t_max}")
    if not math.isfinite(t_max / dt):
        raise ScenarioFormatError(f"t_max / dt overflows (t_max {t_max}, dt {dt})")
    if eps_capture is None:
        eps_capture = scenario.speed_d * dt
    eps_capture = float(eps_capture)
    if not (math.isfinite(eps_capture) and eps_capture >= 0.0):
        raise ScenarioFormatError(
            f"eps_capture must be nonnegative and finite, got {eps_capture}")
    if len(policies) != 3:
        raise InvalidPolicyError("need exactly three policies (d1, d2, attacker)")
    _require_normal_gap(scenario.x_d1, scenario.x_d2, scenario.x_a)

    n = scenario.n
    pos0 = np.stack([scenario.x_d1, scenario.x_d2, scenario.x_a]).astype(float)
    speeds = np.array([scenario.speed_d, scenario.speed_d, scenario.speed_a])

    if all(isinstance(p, (ToPointPolicy, FixedHeadingPolicy)) for p in policies):
        mode = np.array([0 if isinstance(p, ToPointPolicy) else 1 for p in policies],
                        dtype=np.int64)
        vec = np.stack([p.target if isinstance(p, ToPointPolicy) else p.u
                        for p in policies])
        arrive_tol = max(p.tol for p in policies if isinstance(p, ToPointPolicy)) \
            if any(isinstance(p, ToPointPolicy) for p in policies) else 1e-9
        code, t_event, epos, by, _ = _run_linear(
            pos0, speeds, mode, vec, float(dt), float(t_max), eps_capture,
            float(arrive_tol))
        if not record:
            event = (EVENT_TIMEOUT, EVENT_CAPTURED, EVENT_ARRIVED)[int(code)]
            return Trajectory(
                dt=float(dt), times=np.array([0.0, t_event]),
                positions=np.stack([pos0, epos]), event=event, t_event=float(t_event),
                event_point=None if event == EVENT_TIMEOUT else np.array(epos[2]),
                captured_by=None if by < 0 else int(by) + 1)
        # the exact event time bounds the steps before any is taken
        needed = math.ceil(t_event / dt - 1e-12)
        if needed > SIMULATE_STEP_BUDGET:
            raise BudgetExceededError(
                f"{needed} steps of dt = {dt} to the event exceed the step "
                f"budget {SIMULATE_STEP_BUDGET}")

    nsteps = int(math.ceil(t_max / dt - 1e-12))
    pos = pos0.copy()
    # samples grow as the run steps; without record only the endpoints stay
    times = [0.0]
    samples = [pos0]

    def finish(event, t_event, epos, by):
        times.append(t_event)
        samples.append(np.array(epos))
        return Trajectory(
            dt=float(dt), times=np.array(times), positions=np.stack(samples),
            event=event, t_event=float(t_event),
            event_point=None if event == EVENT_TIMEOUT else np.array(epos[2]),
            captured_by=by)

    # capture can hold at t = 0 (players spawned within eps of each other)
    s0, by0 = _chord_capture(pos, pos, eps_capture)
    if s0 == 0.0:
        return finish(EVENT_CAPTURED, 0.0, pos, by0)

    for step in range(min(nsteps, SIMULATE_STEP_BUDGET)):
        t = step * dt
        prev = pos.copy()
        # policies see the pre-step state only, never partial updates
        state = GameState(t=t, x_d1=prev[0], x_d2=prev[1], x_a=prev[2])
        for k, (who, policy) in enumerate(zip(("defender 1", "defender 2", "attacker"),
                                              policies)):
            u = _validate_heading(policy(state, prev[k]), n, who)
            pos[k] = prev[k] + speeds[k] * dt * u
        s_cap, by = _chord_capture(prev, pos, eps_capture)
        s_arr = _chord_arrival(prev, pos)
        if s_cap <= 1.0 and s_cap <= s_arr:
            epos = prev + s_cap * (pos - prev)
            return finish(EVENT_CAPTURED, (step + s_cap) * dt, epos, by)
        if s_arr <= 1.0:
            epos = prev + s_arr * (pos - prev)
            return finish(EVENT_ARRIVED, (step + s_arr) * dt, epos, None)
        if record:
            times.append((step + 1) * dt)
            samples.append(pos.copy())

    if nsteps > SIMULATE_STEP_BUDGET:
        raise BudgetExceededError(
            f"{nsteps} steps of dt = {dt} exceed the step budget "
            f"{SIMULATE_STEP_BUDGET} without an event")
    if record:
        # the last step's sample is already the terminal one
        times.pop()
        samples.pop()
    return finish(EVENT_TIMEOUT, nsteps * dt, pos, None)


@dataclass(frozen=True)
class PolicyBundle:
    """Policies for all players plus the target they steer by.

    ``saddle_optimal`` is True when the bundle realizes the saddle point
    (defender-winning or barrier states). From attacker-winning states the
    defense has no optimal strategy; the bundle then chases the closed-form
    breach point and is explicitly labeled non-optimal.
    """

    d1: Policy
    d2: Policy
    a: Policy
    target: np.ndarray
    case: str
    saddle_optimal: bool

    @property
    def triple(self) -> tuple[Policy, Policy, Policy]:
        return (self.d1, self.d2, self.a)


def _breach_point(k: _Kind) -> np.ndarray:
    """The hyperplane point deepest in both of the attacker's dominance discs.

    Each dominance ball cuts the hyperplane in a disc with center
    ``theta_lat`` and radius ``sqrt(delta^2 - theta_n^2)``, and the attacker
    wins exactly when the two discs overlap. The point maximizes its smaller
    depth in the two discs: a disc's center when that disc lies inside the
    other, else the point of the center line halfway across the overlap.
    Each ball is convex and holds the attacker and the point, so the
    attacker reaches every point of its straight path there strictly first.
    The point is found in the unit frame and scaled back.
    """
    discs = []
    for ball in (k.ball1, k.ball2):
        h = abs(float(ball.theta[-1]))
        radius2 = (ball.delta - h) * (ball.delta + h)
        discs.append((ball.theta[:-1], math.sqrt(max(radius2, 0.0))))
    (c1, r1), (c2, r2) = discs
    g = float(np.linalg.norm(c2 - c1))
    if r2 - g >= r1:
        lat = c1
    elif r1 - g >= r2:
        lat = c2
    else:
        lat = c1 + (0.5 * (g + r1 - r2) / g) * (c2 - c1)
    return np.ldexp(np.append(lat, 0.0), k.e)


def optimal_policies(scenario: Scenario, tols: Tolerances = DEFAULT_TOLS) -> PolicyBundle:
    """Equilibrium point policies for the scenario's winner region.

    Defender-winning: everyone runs at the optimal target point (the
    ineffective defender too, a deterministic tie-break among its many
    harmless choices). Barrier: everyone runs at the equal-time point on
    the hyperplane. Attacker-winning: the attacker runs at the point of the
    hyperplane deepest in both traces of its dominance balls, and the
    defenders chase it; marked non-optimal since no saddle exists for the
    defense there. The state is classified once, and every branch is
    closed form. Each policy counts as arrived within 1e-9 of the state's
    size of the target.
    """
    k = _kind(scenario, tols)
    sol = _saddle(k, tols)
    if sol is None:
        target, case, optimal = _breach_point(k), ATTACKER_WINS, False
    else:
        target, case, optimal = sol.otp, sol.case, True
    tol = math.ldexp(1e-9, k.e)
    return PolicyBundle(
        d1=to_point_policy(target, tol), d2=to_point_policy(target, tol),
        a=to_point_policy(target, tol), target=np.array(target), case=case,
        saddle_optimal=optimal)


# ---------------------------------------------------------------------------
# trajectory wire formats
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    n = traj.positions.shape[2]
    cols = (["t"] + [f"xD1_{i + 1}" for i in range(n)]
            + [f"xD2_{i + 1}" for i in range(n)]
            + [f"xA_{i + 1}" for i in range(n)] + ["event"])
    lines = [",".join(cols)]
    last = len(traj.times) - 1
    for k in range(len(traj.times)):
        row = [_fmt(traj.times[k])]
        for p in range(3):
            row.extend(_fmt(v) for v in traj.positions[k, p])
        row.append(traj.event if k == last else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory) -> str:
    last = len(traj.times) - 1
    samples = []
    for k in range(len(traj.times)):
        ev = traj.event if k == last else ""
        samples.append(
            f'{{"t": {_fmt(traj.times[k])}, "xD1": {_jvec(traj.positions[k, 0])}, '
            f'"xD2": {_jvec(traj.positions[k, 1])}, "xA": {_jvec(traj.positions[k, 2])}, '
            f'"event": "{ev}"}}')
    by = "null" if traj.captured_by is None else str(traj.captured_by)
    return (f'{{"dt": {_fmt(traj.dt)}, "event": "{traj.event}", '
            f'"t_event": {_fmt(traj.t_event)}, "captured_by": {by}, '
            '"samples": [' + ", ".join(samples) + "]}\n")
