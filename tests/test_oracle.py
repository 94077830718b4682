"""Brute-force search oracles: direct checks and cross-validation."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import referee
from conftest import (
    canonical_scenario,
    length,
    moved,
    rand_kind_scenario,
    rand_two_effective,
    ref_scenario,
)
from subguard import (
    ATTACKER_WINS,
    DEFENDERS_WIN,
    BudgetExceededError,
    EmptyGridError,
    EmptyIntersectionError,
    NotOnTargetHyperplaneError,
    NoWinningPointError,
    NumericalDegeneracyError,
    evaluate_kind,
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

oracle_module = importlib.import_module("subguard.oracle")


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

    def test_any_dimension(self):
        # above n = 4 the search runs in the exact n = 4 frame, so the
        # verdict is the closed form's at any n
        labels = []
        for n in (7, 64):
            lat = np.full(n - 1, (n - 1) ** -0.5)  # defenders 1 off the attacker
            for a_n in (0.5, 3.0):
                s = canonical_scenario(n, np.append(lat, 0.5), np.append(-lat, 0.5),
                                       np.append(0.0 * lat, a_n), 0.5)
                probe = oracle_kind(s)
                assert probe.label == evaluate_kind(s).outcome
                assert probe.point.shape == (n,) and probe.point[-1] == 0.0
                labels.append(probe.label)
        assert labels == ["attacker_wins", "defenders_win"] * 2

    def test_budget_guard(self):
        s = canonical_scenario(6, (1.0,) * 5 + (0.5,), (-1.0,) * 5 + (0.5,),
                               (0.0,) * 5 + (1.0,), 0.5)
        # 77^3 = 456533 evaluations on the 3 reduced axes exceed 21^4
        with pytest.raises(BudgetExceededError):
            oracle_kind(s, GridSpec(points_per_axis=77))
        probe = oracle_kind(s, GridSpec(points_per_axis=9, refinement_rounds=1))
        assert probe.label in ("defenders_win", "attacker_wins", "inconclusive")

    def test_grid_spec_validation(self):
        with pytest.raises(EmptyGridError):
            GridSpec(points_per_axis=2)
        with pytest.raises(EmptyGridError):
            GridSpec(refinement_rounds=-1)


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

    @pytest.mark.parametrize("n", [5, 8])
    def test_agreement_above_four_dimensions(self, n):
        rng = np.random.default_rng(31 + n)
        for want_zero in (False, True):
            s = rand_two_effective(rng, want_zero, n=n)
            sol = solve_dws(s)
            pt, h = oracle_otp_dws(s)
            assert h == pytest.approx(sol.value, abs=1e-7)
            np.testing.assert_allclose(pt, sol.otp, atol=1e-6)


def spread_state(n, d1_lat, d2_lat, heights):
    """An n-D state whose lateral offsets from the attacker are the given
    2-D ones laid along two random orthonormal lateral directions, with the
    attacker's foot shifted off the origin."""
    rng = np.random.default_rng(0)
    frame, _ = np.linalg.qr(rng.standard_normal((n - 1, 2)))
    foot = rng.uniform(-1.0, 1.0, n - 1)
    d1 = np.append(foot + frame @ d1_lat, heights[0])
    d2 = np.append(foot + frame @ d2_lat, heights[1])
    return canonical_scenario(n, d1, d2, np.append(foot, heights[2]), 0.5)


class TestAboveFourDimensions:
    """Above n = 4 the oracles search the exact n = 4 frame of the state."""

    @pytest.mark.parametrize("d1_lat, d2_lat, heights", [
        pytest.param((0.0, 0.0), (0.0, 0.0), (1.0, -1.5, 2.0), id="stacked"),
        pytest.param((1.0, 0.0), (-2.0, 0.0), (1.5, 1.0, 2.0), id="collinear"),
    ])
    def test_degenerate_offsets(self, d1_lat, d2_lat, heights):
        s = spread_state(7, np.array(d1_lat), np.array(d2_lat), heights)
        args = (s.x_a, s.x_d1, s.x_d2, s.alpha)
        assert evaluate_kind(s).outcome == referee.outcome(*args) == DEFENDERS_WIN
        assert oracle_kind(s).label == DEFENDERS_WIN
        pt, h = oracle_min_boundary_height(s)
        lowest = referee.lowest_point(*args)
        assert abs(h - lowest.value) <= 1e-9 * length(s)
        np.testing.assert_allclose(pt, lowest.point, atol=1e-6 * length(s))

    def test_overflowing_offsets_are_named(self):
        # defender 1 sits 2e308 from the attacker's foot, past the float range
        pad = (0.0,) * 3
        s = canonical_scenario(5, (-1e308,) + pad + (1.0,), (1.0,) + pad + (1.5,),
                               (1e308,) + pad + (2.0,), 0.5)
        with pytest.raises(NumericalDegeneracyError, match="offsets overflow"):
            oracle_kind(s)

    def test_no_search_scales_with_n(self, monkeypatch):
        # at n = 1024 every grid searches at most 3 lateral axes, every seam
        # chart is built at n = 4, and the one lateral basis is 1023 x 3
        n = 1024
        seen = []

        def spy(name, check):
            original = getattr(oracle_module, name)

            def wrapped(*args, **kwargs):
                out = original(*args, **kwargs)
                seen.append(name)
                check(args, out)
                return out
            monkeypatch.setattr(oracle_module, name, wrapped)

        def grid_check(args, out):
            assert args[1] <= 3 and out[0].shape[0] <= 3

        def seam_check(args, out):
            assert args[0].n == 4 and out[2].shape == (4, 3)

        def basis_check(args, out):
            assert out.shape == (n - 1, 3)

        spy("_grid_maximize", grid_check)
        spy("_seam_chart", seam_check)
        spy("_lateral_basis", basis_check)
        dws = spread_state(n, np.array([1.0, 0.0]), np.array([-0.5, 1.0]), (1.0, 1.5, 2.0))
        aws = spread_state(n, np.array([1.0, 0.0]), np.array([-0.5, 1.0]), (1.0, 1.5, 0.3))
        assert evaluate_kind(dws).outcome == DEFENDERS_WIN
        assert evaluate_kind(aws).outcome == ATTACKER_WINS
        assert oracle_kind(dws).label == DEFENDERS_WIN
        assert oracle_aws_target(aws).shape == (n,)
        _, h = oracle_min_boundary_height(dws)
        assert h == pytest.approx(solve_dws(dws).value, abs=1e-9)
        assert oracle_otp_dws(dws)[0].shape == (n,)
        assert oracle_otp_1v1(aws.x_a, aws.x_d1, aws.alpha)[0].shape == (n,)
        assert seen.count("_grid_maximize") == 3
        assert seen.count("_seam_chart") == 2
        assert seen.count("_lateral_basis") == 5


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def captured_polish(monkeypatch, call):
    """The objectives and starts that ``call`` hands to the polish."""
    seen, original = [], oracle_module._nelder_mead

    def spy(f, x0):
        seen.append((f, np.array(x0)))
        return original(f, x0)

    monkeypatch.setattr(oracle_module, "_nelder_mead", spy)
    call()
    return seen


class TestNelderMead:
    """The polish is scipy's Nelder-Mead with maxiter 200, xatol 1e-13 and
    fatol 1e-15, operation for operation, so it must give the same bits."""

    @pytest.fixture
    def scipy_minimize(self):
        return pytest.importorskip("scipy.optimize").minimize

    def assert_same_bits(self, minimize, f, x0):
        res = minimize(f, x0, method="Nelder-Mead",
                       options={"maxiter": 200, "xatol": 1e-13, "fatol": 1e-15})
        x, fun = oracle_module._nelder_mead(f, x0)
        assert x.tobytes() == np.asarray(res.x, dtype=float).tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
        return res

    @pytest.mark.parametrize("x0", [(-1.2, 1.0), (-1.0, 1.5, 0.5)], ids=["2d", "3d"])
    def test_rosenbrock(self, scipy_minimize, x0):
        self.assert_same_bits(scipy_minimize, rosenbrock, np.array(x0))

    def test_zero_coordinate_start(self, scipy_minimize):
        # a zero coordinate starts its simplex edge at 0.00025, not 1.05 x 0
        self.assert_same_bits(scipy_minimize, lambda x: float(np.sum((x - [0.3, 2.5]) ** 2)),
                              np.array([0.0, 2.0]))

    def test_shrink_step(self, scipy_minimize):
        # on this staircase neither contraction improves, so the simplex
        # shrinks: more evaluations than one start, then at most two per step
        res = self.assert_same_bits(scipy_minimize,
                                    lambda x: float(np.floor(4.0 * np.abs(x).sum())),
                                    np.array([1.0, 1.0]))
        assert res.nfev > 3 + 2 * (res.nit - 1)

    @pytest.mark.parametrize("n, seed", [(3, 5), (5, 6)])
    def test_kind_oracle_objective(self, scipy_minimize, monkeypatch, n, seed):
        s, _ = rand_kind_scenario(np.random.default_rng(seed), n=n)
        polish = captured_polish(monkeypatch, lambda: oracle_kind(s))
        assert len(polish) == 1 and polish[0][1].shape == (min(n, 4) - 1,)
        self.assert_same_bits(scipy_minimize, *polish[0])

    def test_seam_patch_objective(self, scipy_minimize, monkeypatch):
        s = rand_two_effective(np.random.default_rng(29), want_zero=False, n=4)
        polish = captured_polish(monkeypatch, lambda: oracle_otp_dws(s))
        assert len(polish) == 1
        self.assert_same_bits(scipy_minimize, *polish[0])


class TestNullSpace:
    def assert_null_basis(self, a, nullity):
        W = oracle_module._null_space(a)
        assert W.shape == (a.shape[1], nullity)
        np.testing.assert_allclose(W.T @ W, np.eye(nullity), atol=1e-12)
        np.testing.assert_allclose(a @ W, 0.0, atol=1e-12 * np.abs(a).max())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
    def test_random_row(self, d, seed):
        a = np.random.default_rng(seed).standard_normal((1, d))
        self.assert_null_basis(a, d - 1)

    @pytest.mark.parametrize("d, k", [(2, 0), (3, 2), (4, 1), (7, 6)])
    def test_axis_row(self, d, k):
        self.assert_null_basis(np.eye(d)[k:k + 1], d - 1)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_rank_one_rows(self, d):
        row = np.random.default_rng(d).standard_normal(d)
        self.assert_null_basis(np.stack([row, -2.5 * row]), d - 1)


def test_no_finite_grid_value_is_named():
    # the players' gaps square to normal floats, but their heights do not,
    # so no grid value of the kind oracle is finite
    s = canonical_scenario(3, (-1e150, 0.0, 1e160), (1e150, 0.0, 1e160),
                           (0.0, 0.0, 1e160 + 3e150), 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalDegeneracyError, match="no grid point"):
            oracle_kind(s)


@pytest.mark.parametrize("scale", [1e-300, 1e200])
@pytest.mark.parametrize("oracle", [oracle_min_boundary_height, oracle_otp_dws])
def test_squares_past_the_float_range_are_named(scale, oracle):
    # the seam oracles square the players' distances in the state's own
    # frame: at 1e200 they overflow, at 1e-300 they underflow to zero
    s = canonical_scenario(3, (-scale, 0.0, scale), (scale, 0.0, 1.5 * scale),
                           (0.0, 0.0, 2.0 * scale), 0.5)
    with pytest.raises(NumericalDegeneracyError, match="squared player offsets"):
        oracle(s)


@pytest.mark.parametrize("scale", [1e-13, 1e13])
def test_breach_target_scales_with_the_state(ref_aws, scale):
    # the search box is a multiple of the state's own distances at any scale
    twin = moved(ref_aws, scale=scale)
    np.testing.assert_allclose(oracle_aws_target(twin) / scale, oracle_aws_target(ref_aws),
                               atol=1e-4)
