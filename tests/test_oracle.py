"""Brute-force search oracles: direct checks and cross-validation."""

import numpy as np
import pytest

from conftest import canonical_scenario, rand_two_effective, ref_scenario
from subguard import (
    BudgetExceededError,
    DimensionCapError,
    EmptyGridError,
    EmptyIntersectionError,
    NotOnTargetHyperplaneError,
    NoWinningPointError,
    solve_dws,
)
from subguard.oracle import (
    GridSpec,
    f_value,
    oracle_aws_target,
    oracle_kind,
    oracle_min_boundary_height,
    oracle_otp_1v1,
    oracle_otp_dws,
)


class TestFValue:
    def test_hand_values(self):
        # defender 3 away, attacker 1 away at half speed: 3 - 1/0.5 = 1
        lead = f_value((0.0, 0.0), (0.0, 1.0), (0.0, 3.0), 0.5)
        assert lead == pytest.approx(1.0, abs=1e-15)
        lead = f_value((0.0, 0.0), (0.0, 2.0), (0.0, 1.0), 0.5)
        assert lead == pytest.approx(1.0 - 4.0, abs=1e-15)

    def test_point_must_sit_on_hyperplane(self):
        with pytest.raises(NotOnTargetHyperplaneError):
            f_value((0.0, 0.5), (0.0, 1.0), (0.0, 3.0), 0.5)

    def test_sign_flips_across_dominance_sphere(self):
        from subguard import apollonius
        x_a = np.array([0.3, 1.0])
        x_d = np.array([-0.5, 2.0])
        ball = apollonius(x_a, x_d, 0.5)
        # the ball reaches below the plane here, so its plane section is
        # exactly where the attacker's lead is positive
        assert ball.bottom()[-1] < 0.0
        cut = np.sqrt(ball.delta**2 - ball.theta[-1] ** 2)
        inside = np.array([ball.theta[0], 0.0])
        outside = np.array([ball.theta[0] + 1.5 * cut, 0.0])
        rim = np.array([ball.theta[0] + cut, 0.0])
        assert f_value(inside, x_a, x_d, 0.5) > 0.0
        assert f_value(outside, x_a, x_d, 0.5) < 0.0
        assert abs(f_value(rim, x_a, x_d, 0.5)) < 1e-9


class TestOtp1v1:
    def test_symmetric_stack_golden(self):
        # defender directly above the attacker at double height: the race
        # ties exactly at the foot point, nowhere better
        pt, lead = oracle_otp_1v1((0.0, 0.0, 1.0), (0.0, 0.0, 2.0), 0.5)
        np.testing.assert_allclose(pt, [0.0, 0.0, 0.0], atol=1e-9)
        assert lead == pytest.approx(0.0, abs=1e-9)

    def test_winning_attacker_golden(self):
        # swap roles: the attacker above its own foot point leads by 1 there
        pt, lead = oracle_otp_1v1((0.0, 0.0, 0.5), (0.0, 0.0, 2.0), 0.5)
        np.testing.assert_allclose(pt[:2], [0.0, 0.0], atol=1e-9)
        assert lead == pytest.approx(1.0, abs=1e-9)

    def test_returned_point_is_local_max(self):
        x_a = np.array([0.4, -0.3, 1.2])
        x_d = np.array([-1.0, 0.8, 1.6])
        pt, lead = oracle_otp_1v1(x_a, x_d, 0.6)
        rng = np.random.default_rng(2)
        for _ in range(40):
            probe = pt.copy()
            probe[:2] += rng.uniform(-1e-3, 1e-3, 2)
            assert f_value(probe, x_a, x_d, 0.6) <= lead + 1e-10


class TestOracleKind:
    def test_reference_trio(self, ref_dws, ref_aws, ref_barrier):
        assert oracle_kind(ref_dws).label == "defenders_win"
        assert oracle_kind(ref_aws).label == "attacker_wins"
        # exactly on the surface the best lead is zero: no verdict
        probe = oracle_kind(ref_barrier)
        assert probe.label == "inconclusive"
        assert abs(probe.value) < 1e-6

    def test_probe_point_witnesses_attacker_win(self, ref_aws):
        probe = oracle_kind(ref_aws)
        assert probe.value > 0.0
        # the witness point is reachable strictly before both defenders
        for x_d in (ref_aws.x_d1, ref_aws.x_d2):
            assert f_value(probe.point, ref_aws.x_a, x_d, ref_aws.alpha) > 0.0

    def test_dimension_cap(self):
        s = canonical_scenario(7, (1.0,) * 6 + (0.5,), (-1.0,) * 6 + (0.5,),
                               (0.0,) * 6 + (1.0,), 0.5)
        with pytest.raises(DimensionCapError):
            oracle_kind(s)

    def test_budget_guard(self):
        s = canonical_scenario(6, (1.0,) * 5 + (0.5,), (-1.0,) * 5 + (0.5,),
                               (0.0,) * 5 + (1.0,), 0.5)
        with pytest.raises(BudgetExceededError):
            oracle_kind(s, GridSpec(points_per_axis=21))
        # shrinking the per-axis count brings 5 lateral axes inside budget
        probe = oracle_kind(s, GridSpec(points_per_axis=9, refinement_rounds=1))
        assert probe.label in ("defenders_win", "attacker_wins", "inconclusive")

    def test_grid_spec_validation(self):
        with pytest.raises(EmptyGridError):
            GridSpec(points_per_axis=2)
        with pytest.raises(EmptyGridError):
            GridSpec(refinement_rounds=-1)
        with pytest.raises(EmptyGridError):
            GridSpec(half_width=0.0)


class TestAwsTarget:
    def test_reference_golden(self, ref_aws):
        # the best breach point is the equal-distance point between the true
        # defender positions: lateral 5/24, with lead (sqrt 2257 - 26) / 24
        target = oracle_aws_target(ref_aws)
        np.testing.assert_allclose(target, [5.0 / 24.0, 0.0, 0.0], atol=1e-6)
        leads = [f_value(target, ref_aws.x_a, x_d, ref_aws.alpha)
                 for x_d in (ref_aws.x_d1, ref_aws.x_d2)]
        expect = (np.sqrt(2257.0) - 26.0) / 24.0
        assert leads[0] == pytest.approx(expect, abs=1e-9)
        assert leads[0] == pytest.approx(leads[1], abs=1e-6)

    def test_no_winning_point_in_dws(self, ref_dws):
        with pytest.raises(NoWinningPointError):
            oracle_aws_target(ref_dws)


class TestSeamSearch:
    def test_planar_seam_enumerates_both_points(self):
        s = canonical_scenario(2, (-1.0, 1.0), (1.0, 1.0), (0.0, 2.0), 0.5)
        pt, h = oracle_otp_dws(s)
        assert h == pytest.approx((7.0 - np.sqrt(7.0)) / 3.0, abs=1e-12)
        np.testing.assert_allclose(pt, [0.0, h], atol=1e-12)

    def test_matches_closed_form_across_branches(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for want_zero in (False, True):
            for _ in range(15):
                s = rand_two_effective(rng, want_zero)
                sol = solve_dws(s)
                _, h = oracle_otp_dws(s)
                worst = max(worst, abs(sol.value - h))
        assert worst < 1e-7

    def test_contained_ball_has_no_seam(self):
        # a tiny dominance ball strictly inside the other has no sphere
        # intersection to search
        s = canonical_scenario(2, (0.1, 1.0), (5.0, 1.0), (0.0, 1.0), 0.5)
        with pytest.raises(EmptyIntersectionError):
            oracle_otp_dws(s)
        # the boundary floor still exists: it is the small ball's bottom
        pt, h = oracle_min_boundary_height(s)
        sol = solve_dws(s)
        assert h == pytest.approx(sol.value, abs=1e-12)
        np.testing.assert_allclose(pt, sol.otp, atol=1e-12)

    def test_boundary_floor_equals_value(self, ref_dws):
        _, h = oracle_min_boundary_height(ref_dws)
        assert h == pytest.approx(solve_dws(ref_dws).value, abs=1e-9)

    def test_higher_dimension_agreement(self):
        rng = np.random.default_rng(29)
        s = rand_two_effective(rng, want_zero=False, n=4)
        sol = solve_dws(s)
        _, h = oracle_otp_dws(s)
        assert h == pytest.approx(sol.value, abs=1e-7)
