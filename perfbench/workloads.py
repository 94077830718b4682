"""The benchmark's four workloads: seeded inputs, the operation, its checks.

Each workload builds one *pass* of cases from the run's random generator; a
run repeats whole passes, so every run measures the same mix. ``run(case,
tr)`` is the timed operation and calls only the program; ``check(case, out)``
runs outside the timing and returns None when the output is right, or the
reason it is wrong. Checks compare against the referee or against a
property the method must have, never against saved output.

The program sees only the generated inputs. Inputs are kept clear of every
edge the method has (barrier, case boundaries), so a wrong answer on them is
a fault of the program and not of a tolerance.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace

import numpy as np
import subguard as S

import referee as R

ON_BARRIER = "on_barrier"
DT = 1e-3  # step of the simulate workload; also `subguard simulate`'s default
SIM_TIME = 1.5  # seconds the attacker needs to its target in simulated states
TOL = 1e-7  # closed-form agreement, relative to the state's own length scale
ORACLE_TOL = 1e-6  # the oracles' documented agreement with the closed forms
FLIP = 1e-6  # relative height step that must flip a barrier row's winner


# ---------------------------------------------------------------------------
# seeded states, in the canonical frame (hyperplane z_n = 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class State:
    """Three positions and the speed ratio, with the referee's answer."""

    alpha: float
    d1: np.ndarray
    d2: np.ndarray
    a: np.ndarray
    outcome: str
    lowest: R.Lowest | None  # None when the attacker wins

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def length(self) -> float:
        """The state's own length scale: its largest distance between players."""
        return max(float(np.linalg.norm(self.a - self.d1)),
                   float(np.linalg.norm(self.a - self.d2)),
                   float(np.linalg.norm(self.d1 - self.d2)))

    def moved(self, scale: float, shift) -> "State":
        """The same game scaled about the origin, then shifted laterally."""
        def f(x):
            return scale * x + shift
        low = self.lowest
        if low is not None:
            low = R.Lowest(f(low.point), low.binding, scale * low.depth)
        return replace(self, d1=f(self.d1), d2=f(self.d2), a=f(self.a), lowest=low)


def state(rng, n: int, outcome: str, binding: int | None = None,
          level: bool = False, submerged: bool = False) -> State:
    """Rejection-sample a state with the wanted outcome, clear of every edge.

    A winning attacker sits 15-70% below the barrier, a losing one 20-150%
    above it (or anywhere when no barrier lies above its lateral point), and
    an on-barrier attacker exactly on it. For defender-winning states
    ``binding`` asks for one or two binding defenders, decided by more than
    2% of the larger ball's radius; ``level`` puts both defenders at one
    height, ``submerged`` puts the first below the hyperplane.
    """
    while True:
        alpha = float(rng.uniform(0.3, 0.8))
        h1 = float(rng.uniform(0.2, 2.0))
        h2 = h1 if level else float(rng.uniform(0.2, 2.0))
        d1 = np.append(rng.uniform(-2.0, 2.0, n - 1), -h1 if submerged else h1)
        d2 = np.append(rng.uniform(-2.0, 2.0, n - 1), h2)
        lat = rng.uniform(-1.5, 1.5, n - 1)
        h = R.barrier_height(lat, d1, d2, alpha)
        if outcome == R.DEFENDERS_WIN:
            height = (0.5 if h is None else h) * float(rng.uniform(1.2, 2.5))
        elif h is None:
            continue
        elif outcome == R.ATTACKER_WINS:
            height = h * float(rng.uniform(0.3, 0.85))
        else:
            height = h
        a = np.append(lat, height)
        st = State(alpha, d1, d2, a, outcome, None)
        if st.length < 0.3 or min(np.linalg.norm(a - d1), np.linalg.norm(a - d2)) < 0.1:
            continue
        if outcome == R.ATTACKER_WINS:
            return st
        low = R.lowest_point(a, d1, d2, alpha)
        if outcome == R.DEFENDERS_WIN:
            radius = max(R.ball(a, d, alpha).delta for d in (d1, d2))
            if low.depth < 0.02 * radius:
                continue
            if binding is not None and len(low.binding) != binding:
                continue
        return replace(st, lowest=low)


def canonical_scenario(st: State):
    e_n = np.zeros(st.n)
    e_n[-1] = 1.0
    return S.Scenario(n=st.n, hyperplane=S.Hyperplane(K=e_n, b=0.0),
                      x_d1=st.d1, x_d2=st.d2, x_a=st.a, alpha=st.alpha)


# ---------------------------------------------------------------------------
# world frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """World coordinates ``z = Q x + t`` of canonical ``x``.

    The hyperplane is ``K . z = b`` with ``K = lam Q e_n`` (not a unit
    normal), so the program has to normalise as well as rotate.
    """

    Q: np.ndarray
    t: np.ndarray
    lam: float

    def world(self, x) -> np.ndarray:
        return self.Q @ x + self.t

    def hyperplane(self):
        K = self.lam * self.Q[:, -1]
        return K, float(K @ self.t)

    def wire(self, st: State) -> dict:
        """The scenario in the program's JSON layout."""
        K, b = self.hyperplane()
        return {"n": st.n, "alpha": st.alpha, "hyperplane": {"K": K.tolist(), "b": b},
                "defenders": [self.world(st.d1).tolist(), self.world(st.d2).tolist()],
                "attacker": self.world(st.a).tolist()}


def frame(rng, n: int, offset: float = 3.0) -> Frame:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return Frame(q * np.sign(np.diag(r)), rng.uniform(-offset, offset, n),
                 float(rng.uniform(0.5, 2.0)))


def program_frame(K, b):
    """The map into the frame ``subguard`` reports canonical results in.

    ``canonicalize`` documents it: the Householder reflection taking the
    unit normal to ``e_n`` (identity within 1e-12), after translating by
    ``b K / ||K||^2``. `barrier` and `simulate` print in this frame.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    v = K / np.linalg.norm(K) - e_n
    vv = float(v @ v)
    Q = np.eye(n) if math.sqrt(vv) <= 1e-12 else np.eye(n) - 2.0 * np.outer(v, v) / vv
    t = (b / float(K @ K)) * K
    return lambda z: Q @ (np.asarray(z, dtype=float) - t)


def _close(x, y, tol: float) -> bool:
    return float(np.max(np.abs(np.asarray(x, dtype=float) - y))) <= tol


def _target_problem(st: State, otp, value: float, effective, tol: float,
                    check_binding: bool = True):
    """Reason a degree solution is wrong, or None.

    The value and target point must be the referee's, and the target must
    lie on every binding defender's sphere: each binding defender reaches it
    at the same time as the attacker.
    """
    low = st.lowest
    if abs(value - low.value) > tol:
        return f"value {value!r}, referee {low.value!r}"
    if not _close(otp, low.point, tol):
        return f"target {list(otp)}, referee {list(low.point)}"
    if check_binding and tuple(effective) != low.binding:
        return f"binding {tuple(effective)}, referee {low.binding}"
    t_a = float(np.linalg.norm(otp - st.a)) / st.alpha
    for i in effective:
        t_d = float(np.linalg.norm(otp - (st.d1 if i == 1 else st.d2)))
        if abs(t_a - t_d) > tol:
            return f"defender {i} reaches the target at {t_d!r}, attacker at {t_a!r}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Case:
    label: str
    state: State
    scenario: object = None  # the subguard.Scenario handed to the program
    kw: dict = field(default_factory=dict)
    known_fault: bool = False  # fails because of a named fault of the program


class ClosedForm:
    """canonicalize -> evaluate_kind -> solve_dws | barrier_solution -> world.

    The paper's real-time path: pure Python in geometry, kind and degree,
    with no import, scipy call or array kernel on it. n = 2..8 in tilted,
    offset world frames. After the seeded cases, a fixed slice repeats four
    fixed states ("twins") scaled by 1e-2 and shifted laterally by 1e4.
    Every one of those fails today: the on-barrier band
    ``rel * (1 + ||x_a||^2)`` in ``evaluate_kind`` and the absolute
    ``tols.abs`` checks in ``classify_active`` and ``effective_defenders``
    depend on absolute coordinates. They are counted as failed.
    """

    name = "closed_form"
    PASS_SECONDS = 0.065  # a pass's length on the reference machine; sets the pass count
    # (label, outcome, binding, level, submerged, count); n cycles over 2..8
    MIX = (("attacker", R.ATTACKER_WINS, None, False, False, 26),
           ("barrier", ON_BARRIER, None, False, False, 13),
           ("one", R.DEFENDERS_WIN, 1, False, False, 17),
           ("two_level", R.DEFENDERS_WIN, 2, True, False, 13),
           ("two", R.DEFENDERS_WIN, 2, False, False, 17),
           ("submerged", R.DEFENDERS_WIN, None, False, True, 14))
    FAR_SEED = 20190402  # the far slice must not depend on the run's seed
    FAR_SCALE = 1e-2
    FAR_SHIFT = 1e4

    def __init__(self, rng, workdir):
        self.cases = []
        k = 0
        for label, outcome, binding, level, submerged, count in self.MIX:
            for _ in range(count):
                n = 2 + k % 7
                k += 1
                self.cases.append(self._world_case(
                    f"{label}/n{n}", state(rng, n, outcome, binding, level, submerged),
                    frame(rng, n)))
        self.cases += self._far_slice()
        self._twin_out = {}

    @staticmethod
    def _world_case(label, st, fr, **kw):
        return Case(label, st, S.scenario_from_dict(fr.wire(st)), dict(kw, frame=fr))

    def _far_slice(self):
        rng = np.random.default_rng(self.FAR_SEED)
        # the worked state of the paper's example, with a submerged defender
        d1, d2 = np.array([-1.5, 0.0, -1.0]), np.array([1.5, 0.0, 1.5])
        a = np.array([0.0, 0.0, 2.0])
        twins = [State(0.5, d1, d2, a, R.DEFENDERS_WIN, R.lowest_point(a, d1, d2, 0.5)),
                 state(rng, 4, R.DEFENDERS_WIN, binding=2),
                 state(rng, 3, R.ATTACKER_WINS),
                 state(rng, 2, R.DEFENDERS_WIN, binding=2, level=True)]
        out = []
        for i, tw in enumerate(twins):
            fr = frame(rng, tw.n)
            shift = np.zeros(tw.n)
            shift[:-1] = self.FAR_SHIFT / math.sqrt(tw.n - 1)
            out.append(self._world_case(f"twin{i}/n{tw.n}", tw, fr, twin=i))
            far = self._world_case(f"far{i}/n{tw.n}", tw.moved(self.FAR_SCALE, shift), fr,
                                   far_of=i, shift=shift)
            far.known_fault = True
            out.append(far)
        # twins first, so each far case can be checked against its twin's output
        return out[0::2] + out[1::2]

    def run(self, case, tr):
        with tr.span("geometry.canonicalize"):
            canon, xf = S.canonicalize(case.scenario)
        with tr.span("kind.evaluate_kind"):
            outcome = S.evaluate_kind(canon).outcome
        if outcome == S.DEFENDERS_WIN:
            with tr.span("degree.solve_dws"):
                sol = S.solve_dws(canon)
        elif outcome == S.ON_BARRIER:
            with tr.span("degree.barrier_solution"):
                sol = S.barrier_solution(canon)
        else:
            return outcome, None, None
        return outcome, sol, xf.to_world(sol.otp)

    def check(self, case, out):
        outcome, sol, otp_world = out
        if "twin" in case.kw:
            self._twin_out[case.kw["twin"]] = out
        if "far_of" in case.kw:
            return self._check_far(case, out)
        st, fr = case.state, case.kw["frame"]
        if outcome != st.outcome:
            return f"outcome {outcome}, referee {st.outcome}"
        if sol is None:
            return None
        tol = TOL * st.length
        return _target_problem(st, fr.Q.T @ (otp_world - fr.t), sol.value,
                               sol.effective, tol, check_binding=outcome != ON_BARRIER)

    def _check_far(self, case, out):
        """Equivariance: the far state's answer is its twin's, scaled and shifted."""
        outcome, sol, otp_world = out
        twin = self._twin_out.get(case.kw["far_of"])
        if twin is None:
            return "the twin has no answer to compare with"
        t_outcome, t_sol, t_world = twin
        if outcome != t_outcome:
            return f"outcome {outcome}, twin {t_outcome}"
        if sol is None:
            return None
        s, fr = self.FAR_SCALE, case.kw["frame"]
        tol = TOL * case.state.length
        if abs(sol.value - s * t_sol.value) > tol:
            return f"value {sol.value!r}, twin x scale {s * t_sol.value!r}"
        want = fr.world(s * (fr.Q.T @ (t_world - fr.t)) + case.kw["shift"])
        if not _close(otp_world, want, tol):
            return "target is not the twin's, scaled and shifted"
        return None


class Oracle:
    """oracle_kind, then oracle_min_boundary_height or oracle_aws_target.

    Default GridSpec, canonical frame. At n = 2-3 an operation is a few ms,
    mostly the Nelder-Mead polish and scipy overhead, and its cost swings
    with the input; at n = 5 it is a grid sweep over about 1.2M points whose
    cost hardly depends on the input. Twelve of the 21 cases are n = 5
    defender-winning, so the median and the 90th percentile both fall inside
    that steady slice and, with ops_per_s, move with the kernels. The
    polish-bound slices show in the per-layer oracle.kind_ms.n2/n3 and
    oracle.min_boundary_height_ms.
    """

    name = "oracle"
    PASS_SECONDS = 3.9  # a pass's length on the reference machine; sets the pass count
    # (n, defender-winning count, attacker-winning count)
    MIX = ((2, 2, 2), (3, 2, 1), (4, 0, 1), (5, 12, 1))

    def __init__(self, rng, workdir):
        self.cases = []
        spec = S.GridSpec()
        for n, dws, aws in self.MIX:
            points = (spec.refinement_rounds + 1) * spec.points_per_axis ** (n - 1)
            for outcome, count in ((R.DEFENDERS_WIN, dws), (R.ATTACKER_WINS, aws)):
                for _ in range(count):
                    st = state(rng, n, outcome)
                    self.cases.append(Case(f"{outcome}/n{n}", st, canonical_scenario(st),
                                           {"grid_points": points}))

    def run(self, case, tr):
        sc = case.scenario
        with tr.span("oracle.kind", n=sc.n, grid_points=case.kw["grid_points"]):
            label = S.oracle_kind(sc).label
        if label == R.DEFENDERS_WIN:
            with tr.span("oracle.min_boundary_height"):
                return label, S.oracle_min_boundary_height(sc)[1]
        if label == R.ATTACKER_WINS:
            with tr.span("oracle.aws_target", grid_points=case.kw["grid_points"]):
                return label, S.oracle_aws_target(sc)
        return label, None

    def check(self, case, out):
        label, answer = out
        st = case.state
        if label != st.outcome:
            return f"oracle verdict {label}, referee {st.outcome}"
        if label == R.DEFENDERS_WIN:
            if abs(answer - st.lowest.value) > ORACLE_TOL:
                return f"oracle height {answer!r}, referee {st.lowest.value!r}"
            return None
        lead = min(np.linalg.norm(answer - st.d1), np.linalg.norm(answer - st.d2)) \
            - np.linalg.norm(answer - st.a) / st.alpha
        if abs(answer[-1]) > 0.0 or lead <= 0.0:
            return f"breach point {list(answer)} is not reached first (lead {lead!r})"
        return None


def outcome_height(traj) -> float:
    """Realised payoff: capture height, 0 on arrival, final height on timeout."""
    if traj.event == S.EVENT_CAPTURED:
        return traj.capture_height
    if traj.event == S.EVENT_ARRIVED:
        return 0.0
    return float(traj.positions[-1][2][-1])


class Simulate:
    """optimal_policies, then simulate(..., record=False) at dt = 1e-3.

    Equilibrium play from defender-winning, on-barrier and attacker-winning
    states, and unilateral deviations: the attacker aimed at another point
    of its dominance boundary (the defenders follow it there), or one binding
    defender running straight away from the attacker while the attacker
    makes for the other defender's ball bottom. States are scaled so that
    the attacker needs SIM_TIME to its target, which makes every run take
    about the same number of steps.
    """

    name = "simulate"
    PASS_SECONDS = 0.5  # a pass's length on the reference machine; sets the pass count
    # (label, outcome, n, submerged)
    MIX = (("dws", R.DEFENDERS_WIN, 2, False), ("dws", R.DEFENDERS_WIN, 3, False),
           ("dws", R.DEFENDERS_WIN, 4, False), ("dws", R.DEFENDERS_WIN, 3, True),
           ("barrier", ON_BARRIER, 2, False), ("barrier", ON_BARRIER, 3, False),
           ("aws", R.ATTACKER_WINS, 2, False), ("aws", R.ATTACKER_WINS, 3, False),
           ("dev_attacker", R.DEFENDERS_WIN, 3, False),
           ("dev_attacker", R.DEFENDERS_WIN, 4, False),
           ("dev_defender", R.DEFENDERS_WIN, 2, False),
           ("dev_defender", R.DEFENDERS_WIN, 3, False))

    def __init__(self, rng, workdir):
        self.cases = []
        for label, outcome, n, submerged in self.MIX:
            st = state(rng, n, outcome, submerged=submerged)
            kw = {"t_max": 20.0}
            if label == "dev_attacker":
                kw["q"] = boundary_point(rng, st)
            elif label == "dev_defender":
                dev = st.lowest.binding[0]
                x_dev = st.d1 if dev == 1 else st.d2
                kw.update(dev=dev, keep=3 - dev, away=(x_dev - st.a) / np.linalg.norm(x_dev - st.a),
                          q=R.ball(st.a, st.d2 if dev == 1 else st.d1, st.alpha).bottom(),
                          t_max=SIM_TIME + 0.05)  # the attacker holds at q until timeout
            st, kw = timed_state(st, kw)
            self.cases.append(Case(f"{label}/n{n}", st, canonical_scenario(st), kw))

    def run(self, case, tr):
        sc, kw = case.scenario, case.kw
        with tr.span("simulate.optimal_policies"):
            bundle = S.optimal_policies(sc)
        policies = bundle.triple
        if "dev" in kw:
            policies = [None, None, S.to_point_policy(kw["q"])]
            policies[kw["dev"] - 1] = S.fixed_heading_policy(kw["away"])
            policies[kw["keep"] - 1] = bundle.triple[kw["keep"] - 1]
        elif "q" in kw:
            policies = tuple(S.to_point_policy(kw["q"]) for _ in range(3))
        with tr.span("simulate.run") as counts:
            traj = S.simulate(sc, tuple(policies), dt=DT, t_max=kw["t_max"], record=False)
            counts["steps"] = math.ceil(traj.t_event / DT - 1e-9)
        return traj

    def check(self, case, traj):
        st, kw = case.state, case.kw
        slack = capture_slack(st.alpha)
        if st.outcome == R.ATTACKER_WINS:
            if traj.event != S.EVENT_ARRIVED or traj.captured_by is not None:
                return f"attacker-winning run ended {traj.event}"
            return None
        if "dev" in kw:
            if outcome_height(traj) > st.lowest.value + slack:
                return (f"defender {kw['dev']} deviating gains: height "
                        f"{outcome_height(traj)!r} over value {st.lowest.value!r}")
            return None
        if traj.event != S.EVENT_CAPTURED:
            return f"run ended {traj.event}, not captured"
        if "q" in kw:
            if traj.capture_height < st.lowest.value - slack:
                return (f"attacker deviating gains: capture at {traj.capture_height!r} "
                        f"under value {st.lowest.value!r}")
            return None
        miss = float(np.linalg.norm(traj.event_point - st.lowest.point))
        if miss > slack:
            return f"capture {miss!r} from the referee's lowest point"
        return None


def timed_state(st: State, kw: dict | None = None):
    """Scale a state so the attacker needs SIM_TIME to reach its target.

    The target is the deviation point ``kw["q"]`` if there is one, else the
    referee's lowest point, or the attacker's foot point when the attacker
    wins; the attacker's path ends early where it crosses the hyperplane.
    Returns the scaled state, and ``kw`` with ``q`` scaled alike.
    """
    kw = dict(kw or {})
    goal = kw.get("q", st.lowest.point if st.lowest is not None else np.append(st.a[:-1], 0.0))
    if goal[-1] < 0.0:  # the run ends where the path to the goal meets the hyperplane
        goal = st.a + (goal - st.a) * st.a[-1] / (st.a[-1] - goal[-1])
    scale = SIM_TIME * st.alpha / float(np.linalg.norm(st.a - goal))
    if "q" in kw:
        kw["q"] = scale * kw["q"]
    return st.moved(scale, 0.0), kw


def boundary_point(rng, st: State) -> np.ndarray:
    """A point of the attacker's dominance boundary at least 5% of the
    attacker's distance above the value (seeded; the lowest point if the
    region is too thin to hit)."""
    balls = [R.ball(st.a, d, st.alpha) for d in (st.d1, st.d2)]
    for _ in range(1000):
        i = int(rng.integers(2))
        u = rng.standard_normal(st.n)
        q = balls[i].theta + balls[i].delta * u / np.linalg.norm(u)
        if balls[1 - i].gap(q) >= 0.0 and \
                q[-1] > st.lowest.value + 0.05 * np.linalg.norm(st.a - st.lowest.point):
            return q
    return st.lowest.point


def capture_slack(alpha: float) -> float:
    """How far discrete play may land from the continuous answer.

    Capture fires once a defender is within one defender step ``v_D dt``
    of the attacker. A defender closing from behind at ``v_D - v_A`` gets
    there while the attacker is still ``alpha / (1 - alpha)`` such steps
    short of the target; allow two steps more for the last step's overshoot.
    """
    return DT * (2.0 + alpha / (1.0 - alpha))


class Cli:
    """One `subguard <cmd> --scenario f.json` process per operation.

    The way the program is used once per scenario. Most of each command's
    time is the import (scipy comes in through ``__init__`` and ``cli``).
    `barrier` (n = 3, 101^2 nodes) and `simulate` also write 0.3-0.6 MB of
    17-digit text. Scenarios are in tilted, offset world frames.
    """

    name = "cli"
    PASS_SECONDS = 9.5  # a pass's length on the reference machine; sets the pass count
    COMMANDS = ("classify", "solve", "barrier", "simulate", "verify")
    # (command, n, outcome, submerged): two of each command per pass
    MIX = (("classify", 2, R.ATTACKER_WINS, False), ("classify", 5, R.DEFENDERS_WIN, True),
           ("solve", 3, R.DEFENDERS_WIN, False), ("solve", 4, ON_BARRIER, False),
           ("barrier", 3, R.DEFENDERS_WIN, False), ("barrier", 3, R.ATTACKER_WINS, False),
           ("simulate", 3, R.DEFENDERS_WIN, False), ("simulate", 2, R.ATTACKER_WINS, False),
           ("verify", 4, R.ATTACKER_WINS, False), ("verify", 5, R.DEFENDERS_WIN, False))

    def __init__(self, rng, workdir):
        self.cases = []
        os.makedirs(workdir, exist_ok=True)
        for k, (cmd, n, outcome, submerged) in enumerate(self.MIX):
            st = state(rng, n, outcome, submerged=submerged)
            if cmd == "simulate":
                st, _ = timed_state(st)
            fr = frame(rng, n)
            wire = fr.wire(st)
            path = os.path.join(workdir, f"{k}-{cmd}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(wire, fh)
            to_prog = program_frame(wire["hyperplane"]["K"], wire["hyperplane"]["b"])
            prog = replace(st, d1=to_prog(wire["defenders"][0]), d2=to_prog(wire["defenders"][1]),
                           a=to_prog(wire["attacker"]), lowest=None)
            if st.lowest is not None:
                prog = replace(prog, lowest=R.lowest_point(prog.a, prog.d1, prog.d2, st.alpha))
            self.cases.append(Case(f"{cmd}/n{n}", prog, None,
                                   {"cmd": cmd, "path": path, "frame": fr, "world": st}))

    @staticmethod
    def command(case, *python_flags):
        return [sys.executable, *python_flags, "-m", "subguard.cli", case.kw["cmd"],
                "--scenario", case.kw["path"]]

    def run(self, case, tr):
        with tr.span("cli." + case.kw["cmd"]) as counts:
            proc = subprocess.run(self.command(case), capture_output=True, timeout=120)
            counts["stdout_bytes"] = len(proc.stdout)
        return proc

    def check(self, case, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        text = proc.stdout.decode()
        return getattr(self, "_check_" + case.kw["cmd"])(case, text)

    def _check_classify(self, case, text):
        got = json.loads(text)["outcome"]
        return None if got == case.state.outcome else f"outcome {got}, referee {case.state.outcome}"

    def _check_solve(self, case, text):
        out = json.loads(text)
        st = case.state
        tol = TOL * st.length
        problem = _target_problem(st, np.array(out["otp"]), out["value"], out["effective"],
                                  tol, check_binding=st.outcome != ON_BARRIER)
        world, fr = case.kw["world"], case.kw["frame"]
        if problem is None and not _close(out["world"]["otp"],
                                          fr.world(world.lowest.point), tol):
            problem = "world target is not the referee's"
        return problem

    def _check_barrier(self, case, text):
        """Sampled rows must change winner when the height moves by FLIP."""
        st = case.state
        rows = text.splitlines()[1:]
        if not rows:
            return "empty barrier mesh"
        for k in np.linspace(0, len(rows) - 1, 16).astype(int):
            z = np.array([float(v) for v in rows[k].split(",")[:-1]])
            for factor, want in ((1.0 + FLIP, R.DEFENDERS_WIN), (1.0 - FLIP, R.ATTACKER_WINS)):
                got = R.outcome(np.append(z[:-1], z[-1] * factor), st.d1, st.d2, st.alpha)
                if got != want:
                    return f"row {k} {list(z)}: height x {factor} gives {got}"
        return None

    def _check_simulate(self, case, text):
        st = case.state
        header, *rows = text.splitlines()
        last = rows[-1].split(",")
        event = last[-1]
        if st.outcome == R.ATTACKER_WINS:
            return None if event == S.EVENT_ARRIVED else f"attacker-winning run ended {event}"
        if event != S.EVENT_CAPTURED:
            return f"run ended {event}, not captured"
        cols = header.split(",")
        x_a = np.array([float(last[cols.index(f"xA_{i + 1}")]) for i in range(st.n)])
        miss = float(np.linalg.norm(x_a - st.lowest.point))
        return None if miss <= capture_slack(st.alpha) else \
            f"capture {miss!r} from the referee's lowest point"

    def _check_verify(self, case, text):
        st = case.state
        records = {r["instance"]: r for r in json.loads(text)}
        kind = records["kind"]
        if kind["oracle"] != st.outcome or kind["agree"] is not True:
            return f"oracle verdict {kind['oracle']}, referee {st.outcome}"
        if st.outcome == R.DEFENDERS_WIN:
            deg = records["degree_value"]
            if abs(deg["oracle"] - st.lowest.value) > ORACLE_TOL or deg["agree"] is not True:
                return f"oracle height {deg['oracle']!r}, referee {st.lowest.value!r}"
        return None


WORKLOADS = {w.name: w for w in (Cli, ClosedForm, Oracle, Simulate)}
