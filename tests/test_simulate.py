"""Forward integration, event interpolation, and equilibrium policies."""

import importlib
import json

import numpy as np
import pytest

import referee
from conftest import REF_XA_DWS, canonical_scenario, length, moved, ref_scenario
from subguard import (
    ATTACKER_WINS,
    BudgetExceededError,
    EVENT_ARRIVED,
    EVENT_CAPTURED,
    EVENT_TIMEOUT,
    InvalidPolicyError,
    barrier_solution,
    fixed_heading_policy,
    optimal_policies,
    simulate,
    solve_dws,
    to_point_policy,
    trajectory_to_csv,
    trajectory_to_json,
)
from subguard.oracle import oracle_aws_target

REF_VALUE = (13.0 - 2.0 * np.sqrt(10.0)) / 6.0

simulate_module = importlib.import_module("subguard.simulate")
kind_module = importlib.import_module("subguard.kind")
degree_module = importlib.import_module("subguard.degree")
oracle_module = importlib.import_module("subguard.oracle")


def runaway_scenario():
    """Attacker far from both defenders, free to dive straight down."""
    return canonical_scenario(3, (50.0, 0.0, 1.0), (-50.0, 0.0, 1.0),
                              (0.0, 0.0, 1.0), 0.5)


def dive_policies():
    down = fixed_heading_policy((0.0, 0.0, -1.0))
    away1 = fixed_heading_policy((1.0, 0.0, 0.0))
    away2 = fixed_heading_policy((-1.0, 0.0, 0.0))
    return (away1, away2, down)


class TestEvents:
    def test_arrival_time_exact(self):
        # height 1 at speed 1/2: the crossing interpolates to t = 2 exactly
        s = runaway_scenario()
        for record in (True, False):
            traj = simulate(s, dive_policies(), dt=1e-3, t_max=5.0, record=record)
            assert traj.event == EVENT_ARRIVED
            assert traj.captured_by is None
            assert traj.t_event == pytest.approx(2.0, abs=1e-12)
            assert traj.event_point[-1] == pytest.approx(0.0, abs=1e-12)

    def test_timeout(self):
        s = runaway_scenario()
        traj = simulate(s, dive_policies(), dt=1e-3, t_max=0.05)
        assert traj.event == EVENT_TIMEOUT
        assert traj.event_point is None
        assert traj.capture_height is None
        assert traj.t_event == pytest.approx(0.05, abs=1e-12)
        # the start and one sample per step, the last step's not repeated
        assert traj.times.shape == (51,) and traj.positions.shape == (51, 3, 3)

    def test_initial_capture(self):
        s = canonical_scenario(2, (0.4, 1.0), (5.0, 1.0), (0.0, 1.0), 0.5)
        traj = simulate(s, (to_point_policy((0.0, 0.0)),) * 3, dt=1e-2, t_max=1.0,
                        eps_capture=0.5)
        assert traj.event == EVENT_CAPTURED
        assert traj.t_event == 0.0
        assert traj.captured_by == 1

    def test_initial_capture_with_tiny_step(self):
        # 2e13 steps of horizon: samples must not be allocated up front
        s = canonical_scenario(2, (0.4, 1.0), (5.0, 1.0), (0.0, 1.0), 0.5)
        for record in (True, False):
            traj = simulate(s, (to_point_policy((0.0, 0.0)),) * 3, dt=1e-12,
                            t_max=20.0, eps_capture=0.5, record=record)
            assert traj.event == EVENT_CAPTURED
            assert traj.t_event == 0.0
            assert traj.captured_by == 1
            assert traj.positions.shape == (2, 3, 2)

    def test_capture_beats_arrival_in_a_tie(self):
        # defender parks on the breach point; the capture radius is reached
        # a hair before the plane, in the same step
        s = canonical_scenario(2, (0.0, 0.0), (5.0, 1.0), (0.0, 1.0), 0.5)
        hold = lambda state, own: np.zeros(2)
        pol = (hold, fixed_heading_policy((1.0, 0.0)), fixed_heading_policy((0.0, -1.0)))
        traj = simulate(s, pol, dt=1e-2, t_max=5.0, eps_capture=1e-6)
        assert traj.event == EVENT_CAPTURED
        assert traj.captured_by == 1
        assert traj.capture_height == pytest.approx(1e-6, rel=1e-6)
        assert traj.t_event == pytest.approx(2.0 - 2e-6, abs=1e-12)


class TestExactPath:
    """record=False with built-in policies: events in continuous time."""

    def test_arrival_on_a_target_in_the_plane(self):
        s = runaway_scenario()
        target = np.array([0.3, -0.2, 0.0])
        pol = dive_policies()[:2] + (to_point_policy(target),)
        traj = simulate(s, pol, dt=1e-3, t_max=5.0, record=False)
        assert traj.event == EVENT_ARRIVED
        dist = float(np.linalg.norm(target - s.x_a))
        assert traj.t_event == pytest.approx(dist / s.speed_a, abs=1e-12)
        assert traj.event_point[-1] == 0.0

    def test_stopped_attacker_sits_on_its_target(self):
        # the attacker halts above the plane; its last position is the
        # target itself, not a rounding of it
        s = runaway_scenario()
        target = np.array([0.3, -0.2, 0.4])
        pol = dive_policies()[:2] + (to_point_policy(target),)
        traj = simulate(s, pol, dt=1e-3, t_max=5.0, record=False)
        assert traj.event == EVENT_TIMEOUT
        np.testing.assert_array_equal(traj.positions[-1][2], target)

    def test_events_do_not_depend_on_dt(self, ref_dws):
        runs = [simulate(ref_dws, optimal_policies(ref_dws).triple, dt=dt, t_max=10.0,
                         eps_capture=1e-9, record=False)
                for dt in (1e-2, 1e-3, 1e-4)]
        for traj in runs[1:]:
            assert traj.event == runs[0].event == EVENT_CAPTURED
            assert traj.t_event == runs[0].t_event
            np.testing.assert_array_equal(traj.event_point, runs[0].event_point)

    def test_tiny_step_costs_nothing(self):
        # 2e10 steps of horizon, solved in a handful of pieces
        traj = simulate(runaway_scenario(), dive_policies(), dt=1e-9, t_max=20.0,
                        record=False)
        assert traj.event == EVENT_ARRIVED
        assert traj.t_event == pytest.approx(2.0, abs=1e-12)


class TestStepBudget:
    def test_stepped_run_within_budget_and_over_it(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "SIMULATE_STEP_BUDGET", 100)
        s = runaway_scenario()
        # arrival after 40 steps, and a timeout after exactly 100
        traj = simulate(s, dive_policies(), dt=0.05, t_max=5.0)
        assert traj.event == EVENT_ARRIVED
        traj = simulate(s, dive_policies(), dt=1e-2, t_max=1.0)
        assert traj.event == EVENT_TIMEOUT
        # arrival would take 200 steps
        with pytest.raises(BudgetExceededError, match="100"):
            simulate(s, dive_policies(), dt=1e-2, t_max=5.0)
        # the exact path takes no steps
        traj = simulate(s, dive_policies(), dt=1e-2, t_max=5.0, record=False)
        assert traj.event == EVENT_ARRIVED


class TestOptimalPlay:
    def test_reference_capture_near_target(self, ref_dws):
        sol = solve_dws(ref_dws)
        bundle = optimal_policies(ref_dws)
        assert bundle.saddle_optimal
        np.testing.assert_allclose(bundle.target, sol.otp, atol=1e-15)
        traj = simulate(ref_dws, bundle.triple, dt=1e-4, t_max=10.0, record=False)
        assert traj.event == EVENT_CAPTURED
        assert traj.captured_by == 2
        assert np.linalg.norm(traj.event_point - sol.otp) < 1e-3
        assert traj.capture_height == pytest.approx(REF_VALUE, abs=1e-3)
        # capture fires just short of the simultaneous-arrival time
        t_star = np.linalg.norm(ref_dws.x_a - sol.otp) / ref_dws.speed_a
        assert 0.0 <= t_star - traj.t_event < 1e-3

    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    def test_capture_at_the_scaled_value(self, scale):
        # the policies' arrival tolerance is a fraction of the state's size,
        # so no player holds still at small scales
        s = moved(ref_scenario(REF_XA_DWS), scale=scale)
        bundle = optimal_policies(s)
        traj = simulate(s, bundle.triple, dt=1e-4 * scale, t_max=10.0 * scale,
                        record=False)
        assert traj.event == EVENT_CAPTURED
        assert traj.captured_by == 2
        assert traj.capture_height == pytest.approx(scale * REF_VALUE, rel=1e-3)

    def test_barrier_start_grazes_plane(self, ref_barrier):
        bundle = optimal_policies(ref_barrier)
        traj = simulate(ref_barrier, bundle.triple, dt=1e-4, t_max=10.0, record=False)
        assert traj.event == EVENT_CAPTURED
        assert traj.capture_height <= 1e-3

    def test_attacker_breaches_when_winning(self, ref_aws):
        bundle = optimal_policies(ref_aws)
        assert not bundle.saddle_optimal
        assert bundle.case == ATTACKER_WINS
        traj = simulate(ref_aws, bundle.triple, dt=1e-3, t_max=10.0, record=False)
        assert traj.event == EVENT_ARRIVED
        assert traj.captured_by is None
        # straight run to the disc-overlap point (sqrt(51)/12 - 1/2, 0, 0)
        t_breach = 2.0 * np.sqrt((np.sqrt(51.0) / 12.0 - 0.5) ** 2 + 0.25)
        assert traj.t_event == pytest.approx(t_breach, abs=1e-12)

    def test_barrier_policy_reaches_equal_time_point(self, ref_barrier):
        sol = barrier_solution(ref_barrier)
        bundle = optimal_policies(ref_barrier)
        np.testing.assert_allclose(bundle.target, sol.otp, atol=1e-15)

    def test_capture_error_shrinks_with_dt(self, ref_dws):
        sol = solve_dws(ref_dws)
        bundle = optimal_policies(ref_dws)
        errs = {}
        for dt in (1e-3, 1e-4):
            traj = simulate(ref_dws, bundle.triple, dt=dt, t_max=10.0, record=False)
            errs[dt] = float(np.linalg.norm(traj.event_point - sol.otp))
            # default capture radius is one defender step
            assert errs[dt] <= 1.5 * ref_dws.speed_d * dt
        assert errs[1e-4] < errs[1e-3]

    def test_tight_capture_radius_hits_value(self, ref_dws):
        sol = solve_dws(ref_dws)
        bundle = optimal_policies(ref_dws)
        traj = simulate(ref_dws, bundle.triple, dt=1e-3, t_max=10.0,
                        eps_capture=1e-9, record=False)
        assert traj.capture_height == pytest.approx(sol.value, abs=1e-6)


def aws_states(rng, n, count):
    """Seeded attacker-winning states, every other one with defender 1
    below the hyperplane. Lateral spreads shrink as 1/sqrt(n - 1) so
    distances stay O(1); the referee's disc overlap keeps each state clear
    of the barrier."""
    spread = 1.0 / np.sqrt(n - 1)
    out = []
    while len(out) < count:
        alpha = float(rng.uniform(0.3, 0.8))
        h1 = float(rng.uniform(0.2, 2.0)) * (-1.0 if len(out) % 2 else 1.0)
        d1 = np.append(spread * rng.uniform(-2, 2, n - 1), h1)
        d2 = np.append(spread * rng.uniform(-2, 2, n - 1), rng.uniform(0.2, 2.0))
        a = np.append(spread * rng.uniform(-1.5, 1.5, n - 1), rng.uniform(0.1, 1.5))
        s = canonical_scenario(n, d1, d2, a, alpha)
        if (referee.disc_overlap(a, d1, d2, alpha) > 0.05 * length(s)
                and min(np.linalg.norm(a - d1), np.linalg.norm(a - d2)) > 0.1):
            out.append(s)
    return out


def lead(p, s):
    """The attacker's worst-case arrival lead at ``p``, in defender-speed time."""
    return (min(np.linalg.norm(p - s.x_d1), np.linalg.norm(p - s.x_d2))
            - np.linalg.norm(p - s.x_a) / s.alpha)


def assert_breaches(s):
    """The bundle's target lies strictly inside both dominance discs, as
    deep as any point can lie in both, and exact play there arrives
    uncaptured. Returns the target's lead."""
    bundle = optimal_policies(s)
    assert bundle.case == ATTACKER_WINS and not bundle.saddle_optimal
    p = bundle.target
    assert p[-1] == 0.0
    centers, radii = [], []
    for x_d in (s.x_d1, s.x_d2):
        ball = referee.ball(s.x_a, x_d, s.alpha)
        centers.append(ball.theta[:-1])
        radii.append(np.sqrt(ball.delta**2 - ball.theta[-1] ** 2))
    depth = min(r - np.linalg.norm(p[:-1] - c) for c, r in zip(centers, radii))
    assert depth > 0.0
    # the best depth in both discs: a whole disc's radius, or half the overlap
    gap = np.linalg.norm(centers[1] - centers[0])
    best = min(radii[0], radii[1], 0.5 * (radii[0] + radii[1] - gap))
    assert depth == pytest.approx(best, abs=1e-12 * length(s))
    traj = simulate(s, bundle.triple, dt=1e-3, t_max=100.0, record=False)
    assert traj.event == EVENT_ARRIVED
    assert traj.captured_by is None
    return lead(p, s)


class TestBreachPoint:
    """The closed-form breach point against the oracle's maximin search."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_breach_point_wins_and_the_oracle_referees_it(self, n):
        for s in aws_states(np.random.default_rng(100 + n), n, 6):
            closed = assert_breaches(s)
            assert closed > 0.0
            assert lead(oracle_aws_target(s), s) >= closed

    @pytest.mark.parametrize("n, count", [(7, 6), (8, 6), (64, 4), (1024, 2)])
    def test_breach_above_the_oracle_cap(self, n, count):
        for s in aws_states(np.random.default_rng(n), n, count):
            closed = assert_breaches(s)
            assert closed > 0.0
            assert lead(oracle_aws_target(s), s) >= closed

    @pytest.mark.parametrize("fixture", ["ref_dws", "ref_barrier", "ref_aws"])
    def test_one_classification_and_no_search(self, request, monkeypatch, fixture):
        s = request.getfixturevalue(fixture)
        calls, original = [], kind_module._kind

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (kind_module, degree_module, simulate_module):
            monkeypatch.setattr(module, "_kind", counted)

        def no_search(*args, **kwargs):
            raise AssertionError("grid search on the play path")

        monkeypatch.setattr(oracle_module, "_grid_maximize", no_search)
        optimal_policies(s)
        assert len(calls) == 1


class TestStepping:
    def test_displacements_match_speeds(self, ref_dws):
        bundle = optimal_policies(ref_dws)
        traj = simulate(ref_dws, bundle.triple, dt=0.05, t_max=1.0)
        steps = np.diff(traj.positions, axis=0)
        speeds = (ref_dws.speed_d, ref_dws.speed_d, ref_dws.speed_a)
        for k in range(len(steps) - 1):  # last row may be a partial step
            for p in range(3):
                assert np.linalg.norm(steps[k, p]) == pytest.approx(
                    speeds[p] * 0.05, abs=1e-12)

    def test_policies_see_prestep_state(self):
        # the attacker aims at defender 1; defender 1 moves first in the
        # update loop, but the attacker must still see its pre-step position
        s = canonical_scenario(2, (2.0, 1.0), (-5.0, 1.0), (0.0, 1.0), 0.5)

        def chase_d1(state, own):
            diff = state.x_d1 - own
            return diff / np.linalg.norm(diff)

        pol = (fixed_heading_policy((1.0, 0.0)), fixed_heading_policy((-1.0, 0.0)),
               chase_d1)
        traj = simulate(s, pol, dt=0.5, t_max=0.5)
        expect = np.array([0.0, 1.0]) + 0.5 * 0.5 * np.array([1.0, 0.0])
        np.testing.assert_allclose(traj.positions[1, 2], expect, atol=1e-12)

    def test_fast_path_matches_python_path(self, ref_dws):
        # one run per event: point policies to capture, fixed headings to
        # arrival and to timeout; fresh policies per run (ToPointPolicy
        # keeps its last heading)
        flat = canonical_scenario(2, (9.0, 1.0), (-9.0, 1.0), (0.0, 1.0), 0.5)

        def headings():
            return (fixed_heading_policy((1.0, 0.0)), fixed_heading_policy((-1.0, 0.0)),
                    fixed_heading_policy((0.0, -1.0)))

        runs = ((ref_dws, lambda: optimal_policies(ref_dws).triple, 10.0, EVENT_CAPTURED),
                (flat, headings, 5.0, EVENT_ARRIVED),
                (flat, headings, 0.01, EVENT_TIMEOUT))
        for scenario, policies, t_max, event in runs:
            fast = simulate(scenario, policies(), dt=1e-3, t_max=t_max, record=False)
            slow = simulate(scenario, policies(), dt=1e-3, t_max=t_max, record=True)
            assert fast.event == slow.event == event
            assert fast.captured_by == slow.captured_by
            assert fast.t_event == pytest.approx(slow.t_event, abs=1e-12)
            if event == EVENT_TIMEOUT:
                assert fast.event_point is None and slow.event_point is None
            else:
                np.testing.assert_allclose(fast.event_point, slow.event_point,
                                           atol=1e-12)
            # record=False keeps exactly the endpoints
            assert fast.positions.shape[0] == 2
            np.testing.assert_allclose(fast.positions[-1], slow.positions[-1],
                                       atol=1e-12)

    def test_record_false_python_path_keeps_endpoints(self, ref_dws):
        # a non-builtin policy forces the python stepper even with record off
        sol = solve_dws(ref_dws)

        def to_otp(state, own):
            diff = sol.otp - own
            n = np.linalg.norm(diff)
            return diff / n if n > 1e-9 else np.zeros(3)

        traj = simulate(ref_dws, (to_otp, to_otp, to_otp), dt=1e-3, t_max=10.0,
                        record=False)
        assert traj.positions.shape[0] == 2
        assert traj.event == EVENT_CAPTURED


class TestPolicyValidation:
    def test_non_unit_heading_rejected(self, ref_dws):
        bad = lambda state, own: np.array([0.5, 0.0, 0.0])
        good = fixed_heading_policy((1.0, 0.0, 0.0))
        with pytest.raises(InvalidPolicyError):
            simulate(ref_dws, (bad, good, good), dt=1e-2, t_max=1.0)

    def test_wrong_shape_rejected(self, ref_dws):
        bad = lambda state, own: np.ones(2)
        good = fixed_heading_policy((1.0, 0.0, 0.0))
        with pytest.raises(InvalidPolicyError):
            simulate(ref_dws, (good, bad, good), dt=1e-2, t_max=1.0)

    def test_policy_count_enforced(self, ref_dws):
        good = fixed_heading_policy((1.0, 0.0, 0.0))
        with pytest.raises(InvalidPolicyError):
            simulate(ref_dws, (good, good), dt=1e-2, t_max=1.0)

    def test_zero_fixed_heading_rejected(self):
        with pytest.raises(InvalidPolicyError):
            fixed_heading_policy((0.0, 0.0, 0.0))

    def test_bad_step_parameters(self, ref_dws):
        from subguard import ScenarioFormatError
        pol = optimal_policies(ref_dws).triple
        with pytest.raises(ScenarioFormatError):
            simulate(ref_dws, pol, dt=-1.0, t_max=1.0)
        with pytest.raises(ScenarioFormatError):
            simulate(ref_dws, pol, dt=1e-3, t_max=0.0)
        with pytest.raises(ScenarioFormatError):
            simulate(ref_dws, pol, dt=1e-3, t_max=1.0, eps_capture=-0.1)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ScenarioFormatError):
                simulate(ref_dws, pol, dt=1e-3, t_max=1.0, eps_capture=bad)


class TestWireFormats:
    def test_csv_layout(self, ref_dws):
        bundle = optimal_policies(ref_dws)
        traj = simulate(ref_dws, bundle.triple, dt=0.1, t_max=0.3)
        csv = trajectory_to_csv(traj)
        lines = csv.strip().split("\n")
        head = lines[0].split(",")
        assert head[0] == "t" and head[-1] == "event"
        assert len(head) == 1 + 3 * 3 + 1
        assert lines[-1].endswith(traj.event)
        for line in lines[1:-1]:
            assert line.endswith(",")

    def test_json_parses(self, ref_dws):
        bundle = optimal_policies(ref_dws)
        traj = simulate(ref_dws, bundle.triple, dt=0.1, t_max=0.3)
        data = json.loads(trajectory_to_json(traj))
        assert data["event"] == traj.event
        assert len(data["samples"]) == len(traj.times)
        assert data["samples"][0]["xA"] == list(ref_dws.x_a)
