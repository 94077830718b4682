"""Effective defenders, optimal target points, and saddle values."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import referee
from conftest import (
    canonical_scenario,
    far_scale_examples,
    length,
    moved,
    rand_dws_scenario,
    rand_symmetry,
    rand_two_effective,
    ref_scenario,
)
from subguard import (
    CASE_BARRIER,
    CASE_ONE_EFFECTIVE,
    CASE_TWO_M_NONZERO,
    CASE_TWO_M_ZERO,
    DEFENDERS_WIN,
    PIECE_B3,
    CoincidentPointsError,
    NotInDWSError,
    NotOnBarrierError,
    apollonius,
    barrier_solution,
    canonicalize,
    effective_defenders,
    evaluate_kind,
    heading,
    otp_on_barrier,
    payoff_capture_height,
    payoff_final_separation,
    solution_to_json,
    solve_dws,
)
from subguard.oracle import f_value, oracle_kind, oracle_min_boundary_height

# closed-form value of the reference defender-winning instance
REF_VALUE = (13.0 - 2.0 * np.sqrt(10.0)) / 6.0

# tilted-seam instance where both defenders bind at different heights;
# expected value frozen from the brute-force seam search oracle
TILTED = dict(d1=(-1.0, 0.0, 1.0), d2=(1.0, 0.5, 2.0), a=(0.0, 0.0, 2.5), alpha=0.5)
TILTED_VALUE = 1.8854629486164196

# level-seam instance with hand-reduced closed form (7 - sqrt 7) / 3
LEVEL = dict(d1=(-1.0, 1.0), d2=(1.0, 1.0), a=(0.0, 2.0), alpha=0.5)
LEVEL_VALUE = (7.0 - np.sqrt(7.0)) / 3.0


def tilted_scenario():
    return canonical_scenario(3, TILTED["d1"], TILTED["d2"], TILTED["a"], TILTED["alpha"])


def level_scenario():
    return canonical_scenario(2, LEVEL["d1"], LEVEL["d2"], LEVEL["a"], LEVEL["alpha"])


class TestHeading:
    def test_unit_direction(self):
        u = heading((0.0, 0.0), (3.0, 4.0))
        np.testing.assert_allclose(u, [0.6, 0.8], atol=1e-15)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPointsError):
            heading((1.0, 2.0), (1.0, 2.0))


class TestEffectiveDefenders:
    def test_reference_single_binder(self, ref_dws):
        case, eff = effective_defenders(ref_dws)
        assert case == CASE_ONE_EFFECTIVE
        assert eff == (2,)

    def test_tilted_pair_binds_both(self):
        case, eff = effective_defenders(tilted_scenario())
        assert case == CASE_TWO_M_NONZERO
        assert eff == (1, 2)

    def test_level_pair_binds_both(self):
        case, eff = effective_defenders(level_scenario())
        assert case == CASE_TWO_M_ZERO
        assert eff == (1, 2)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6, 1e-300, 1e-13, 1e13, 1e300])
    def test_label_does_not_depend_on_scale(self, scale):
        # heights 1e-7 apart, relative to a state of length about 2.5
        s = canonical_scenario(3, scale * np.array([-1.0, 0.0, 1.0]),
                               scale * np.array([1.0, 0.5, 1.0 + 1e-7]),
                               scale * np.array([0.0, 0.0, 2.5]), 0.5)
        out = evaluate_kind(s)
        assert (out.outcome, out.piece) == (DEFENDERS_WIN, PIECE_B3)
        assert effective_defenders(s) == (CASE_TWO_M_NONZERO, (1, 2))
        assert solve_dws(s).case == CASE_TWO_M_NONZERO

    def test_requires_defender_winning_state(self, ref_aws):
        with pytest.raises(NotInDWSError):
            effective_defenders(ref_aws)


class TestSolveDWS:
    def test_reference_golden(self, ref_dws):
        sol = solve_dws(ref_dws)
        assert sol.case == CASE_ONE_EFFECTIVE
        assert sol.effective == (2,)
        np.testing.assert_allclose(sol.otp, [-0.5, 0.0, REF_VALUE], atol=1e-12)
        assert sol.value == pytest.approx(REF_VALUE, abs=1e-12)
        # the target is the lowest point of defender 2's dominance ball
        ball = apollonius(ref_dws.x_a, ref_dws.x_d2, ref_dws.alpha)
        np.testing.assert_allclose(sol.otp, ball.bottom(), atol=1e-15)

    def test_reference_headings(self, ref_dws):
        sol = solve_dws(ref_dws)
        for u, frm in ((sol.d1, ref_dws.x_d1), (sol.d2, ref_dws.x_d2),
                       (sol.a, ref_dws.x_a)):
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(u, heading(frm, sol.otp), atol=1e-12)
        assert sol.a[-1] < 0.0  # attacker descends

    def test_tilted_frozen_value(self):
        sol = solve_dws(tilted_scenario())
        assert sol.case == CASE_TWO_M_NONZERO
        assert sol.value == pytest.approx(TILTED_VALUE, abs=1e-9)

    def test_level_closed_form(self):
        sol = solve_dws(level_scenario())
        assert sol.case == CASE_TWO_M_ZERO
        np.testing.assert_allclose(sol.otp, [0.0, LEVEL_VALUE], atol=1e-12)

    def test_defender_order_irrelevant(self):
        s = tilted_scenario()
        swapped = canonical_scenario(3, TILTED["d2"], TILTED["d1"], TILTED["a"],
                                     TILTED["alpha"])
        a, b = solve_dws(s), solve_dws(swapped)
        np.testing.assert_allclose(a.otp, b.otp, atol=1e-12)
        assert a.value == pytest.approx(b.value, abs=1e-14)

    def test_two_effective_invariants(self):
        # the target sits on both spheres and on the defenders' bisector
        rng = np.random.default_rng(17)
        for want_zero in (False, True):
            for _ in range(25):
                s = rand_two_effective(rng, want_zero)
                sol = solve_dws(s)
                b1 = apollonius(s.x_a, s.x_d1, s.alpha)
                b2 = apollonius(s.x_a, s.x_d2, s.alpha)
                scale = 1.0 + b1.delta + b2.delta
                assert abs(np.linalg.norm(sol.otp - b1.theta) - b1.delta) < 1e-9 * scale
                assert abs(np.linalg.norm(sol.otp - b2.theta) - b2.delta) < 1e-9 * scale
                gap = (np.linalg.norm(sol.otp - s.x_d1)
                       - np.linalg.norm(sol.otp - s.x_d2))
                assert abs(gap) < 1e-9 * scale
                assert sol.value > 0.0

    def test_one_effective_invariants(self):
        rng = np.random.default_rng(19)
        seen = 0
        while seen < 20:
            s = rand_dws_scenario(rng)
            case, eff = effective_defenders(s)
            if case != CASE_ONE_EFFECTIVE:
                continue
            seen += 1
            sol = solve_dws(s)
            x_d = s.x_d1 if eff[0] == 1 else s.x_d2
            ball = apollonius(s.x_a, x_d, s.alpha)
            np.testing.assert_allclose(sol.otp, ball.bottom(), atol=1e-12)
            # the other ball admits the target, so capture there is safe
            other = apollonius(s.x_a, s.x_d2 if eff[0] == 1 else s.x_d1, s.alpha)
            assert np.linalg.norm(sol.otp - other.theta) <= other.delta + 1e-9

    def test_rejects_attacker_winning_state(self, ref_aws):
        with pytest.raises(NotInDWSError):
            solve_dws(ref_aws)

    @pytest.mark.parametrize("m12", [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1])
    def test_seam_value_across_height_gaps(self, m12):
        # defenders whose heights nearly match: the seam point must neither
        # raise nor drift, and must not care which defender is listed first
        d1, d2, x_a = (-1.5, 0.0, 1.5), (1.5, 0.0, 1.5 + m12), (0.0, 0.0, 2.0)
        s = canonical_scenario(3, d1, d2, x_a, 0.5)
        assert evaluate_kind(s).outcome == "defenders_win"
        sol = solve_dws(s)
        assert sol.effective == (1, 2)
        assert sol.case == (CASE_TWO_M_ZERO if m12 <= 1e-12 else CASE_TWO_M_NONZERO)
        _, floor = oracle_min_boundary_height(s)
        assert abs(sol.value - floor) <= 1e-6
        players = np.array([d1, d2, x_a])
        scale = max(np.linalg.norm(p - q) for p in players for q in players)
        swapped = solve_dws(canonical_scenario(3, d2, d1, x_a, 0.5))
        assert abs(swapped.value - sol.value) <= 1e-12 * scale


class TestBarrierDegree:
    def test_reference_equal_time_point(self, ref_barrier):
        otp = otp_on_barrier(ref_barrier)
        np.testing.assert_allclose(otp, [5.0 / 24.0, 0.0, 0.0], atol=1e-12)
        # all three players reach it simultaneously: both leads vanish
        for x_d in (ref_barrier.x_d1, ref_barrier.x_d2):
            assert abs(f_value(otp, ref_barrier.x_a, x_d, ref_barrier.alpha)) < 1e-12

    def test_reference_solution(self, ref_barrier):
        sol = barrier_solution(ref_barrier)
        assert sol.case == CASE_BARRIER
        assert sol.effective == (1, 2)
        assert sol.value == 0.0
        assert sol.otp[-1] == 0.0

    def test_single_piece_barrier_target(self):
        # attacker on the one-defender piece: the target is the ball
        # center's lateral foot
        lat = np.array([-2.0, 0.3])
        h = float(np.sqrt(lat[0] ** 2 / 3.0 + lat[1] ** 2 / 3.0 + lat[0] + 1.0))
        s = ref_scenario((lat[0], lat[1], h))
        sol = barrier_solution(s)
        assert sol.effective == (1,)
        ball = apollonius(s.x_a, s.x_d1, s.alpha)
        np.testing.assert_allclose(sol.otp[:2], ball.theta[:2], atol=1e-12)
        assert abs(f_value(sol.otp, s.x_a, s.x_d1, s.alpha)) < 1e-9

    def test_off_barrier_rejected(self, ref_dws, ref_aws):
        with pytest.raises(NotOnBarrierError):
            otp_on_barrier(ref_dws)
        with pytest.raises(NotOnBarrierError):
            otp_on_barrier(ref_aws)


class TestPayoffs:
    def test_capture_height_clamps_at_plane(self):
        assert payoff_capture_height((1.0, 2.0, 1.5)) == 1.5
        assert payoff_capture_height((1.0, 2.0, -0.1)) == 0.0

    def test_final_separation(self):
        d = payoff_final_separation((0.0, 0.0), (10.0, 0.0), (3.0, 4.0))
        assert d == pytest.approx(5.0)


class TestSolutionJson:
    def test_canonical_only(self, ref_dws):
        sol = solve_dws(ref_dws)
        data = json.loads(solution_to_json(sol, None))
        assert data["case"] == CASE_ONE_EFFECTIVE
        assert data["effective"] == [2]
        assert data["value"] == pytest.approx(REF_VALUE, abs=1e-15)
        assert "world" not in data

    def test_world_block_consistent(self):
        # a rotated frame must report the same value and mapped points
        from subguard import Hyperplane, Scenario
        k = np.array([0.0, 0.6, 0.8])
        world = Scenario(n=3, hyperplane=Hyperplane(K=k, b=0.25),
                         x_d1=(0.3, 1.0, 1.2), x_d2=(-0.2, 1.4, 0.9),
                         x_a=(0.1, 1.8, 1.5), alpha=0.5)
        canon, xf = canonicalize(world)
        sol = solve_dws(canon)
        data = json.loads(solution_to_json(sol, xf))
        assert data["value"] == pytest.approx(sol.value, abs=1e-15)
        np.testing.assert_allclose(data["world"]["otp"], xf.to_world(sol.otp),
                                   atol=1e-12)
        # the capture point's offset from the true hyperplane is the value
        world_otp = np.asarray(data["world"]["otp"])
        k_norm = float(np.linalg.norm(k))
        assert world.hyperplane.side(world_otp) / k_norm == pytest.approx(
            sol.value, abs=1e-9)


class TestSymmetries:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-6, max_value=6), st.floats(min_value=0, max_value=1e6),
           st.booleans())
    @far_scale_examples
    def test_value_scales_with_the_state(self, n, seed, log_scale, reach, swap):
        rng = np.random.default_rng(seed)
        s = rand_dws_scenario(rng, n=n)
        rot, scale, shift = rand_symmetry(rng, n, log_scale, reach)
        twin = moved(s, rot, scale, shift, swap)
        sol, twin_sol = solve_dws(s), solve_dws(twin)
        assert abs(twin_sol.value - scale * sol.value) <= 1e-9 * length(twin)
        assert twin_sol.case == sol.case
        assert twin_sol.effective == (tuple(sorted(3 - i for i in sol.effective))
                                      if swap else sol.effective)


class TestAboveTheOracleCap:
    """The closed forms and the brute-force oracles against the referee's
    Apollonius-ball answers in high dimensions."""

    @staticmethod
    def states(rng, n, count):
        # lateral spreads shrink as 1/sqrt(n - 1) so distances stay O(1);
        # the referee's disc overlap keeps each state off the barrier
        spread = 1.0 / np.sqrt(n - 1)
        out = []
        while len(out) < count:
            alpha = float(rng.uniform(0.3, 0.8))
            d1 = np.append(spread * rng.uniform(-2, 2, n - 1), rng.uniform(-1.5, 2.5))
            d2 = np.append(spread * rng.uniform(-2, 2, n - 1), rng.uniform(-1.5, 2.5))
            a = np.append(spread * rng.uniform(-2.5, 2.5, n - 1), rng.uniform(0.2, 3.0))
            s = canonical_scenario(n, d1, d2, a, alpha)
            if abs(referee.disc_overlap(a, d1, d2, alpha)) > 0.05 * length(s):
                out.append(s)
        return out

    @pytest.mark.parametrize("n, count", [(8, 40), (64, 20), (1024, 10)])
    def test_outcome_and_value_match_the_referee(self, n, count):
        rng = np.random.default_rng(n)
        outcomes = set()
        for k, s in enumerate(self.states(rng, n, count)):
            args = (s.x_a, s.x_d1, s.x_d2, s.alpha)
            outcome = evaluate_kind(s).outcome
            assert outcome == referee.outcome(*args)
            outcomes.add(outcome)
            if k < 4:
                assert oracle_kind(s).label == outcome
            if outcome == DEFENDERS_WIN:
                floor = referee.lowest_point(*args).value
                assert abs(solve_dws(s).value - floor) <= 1e-9 * length(s)
                if k < 4:
                    _, h = oracle_min_boundary_height(s)
                    assert abs(h - floor) <= 1e-9 * length(s)
        assert len(outcomes) == 2
