"""Brute-force search oracles: direct checks and cross-validation."""

import importlib
import math

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
    @pytest.mark.parametrize("scale", [1e200, 1e-300])
    def test_squares_past_the_float_range_are_named(self, scale):
        # at 1e200 the norms overflow to inf - inf, at 1e-300 they vanish
        with pytest.raises(NumericalDegeneracyError, match="squared player offsets"):
            f_value((0.0, 0.0, 0.0), (0.0, 0.0, 2.0 * scale), (scale, 0.0, 1.5 * scale), 0.5)

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
            # args[2] is the attacker, whose lateral axes the grid spans
            assert args[2].shape[0] - 1 <= 3 and out[0].shape[0] <= 3

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


def reference_pair_dists(points, defenders, attacker):
    """The kind and breach oracles' distances as first written, over a point
    array: (min distance to either defender, distance to the attacker)."""
    d = points.shape[1]
    lat = defenders[:, :d]
    h2 = defenders[:, d] ** 2
    diffs = points[:, None, :] - lat[None, :, :]
    dd = np.sqrt(np.einsum("mkd,mkd->mk", diffs, diffs) + h2[None, :])
    da = np.sqrt(np.sum((points - attacker[:d]) ** 2, axis=1) + attacker[d] ** 2)
    return dd.min(axis=1), da


def reference_single_dists(points, defender, attacker):
    """The one-defender oracle's distances as first written."""
    d = points.shape[1]
    dd = np.sqrt(np.sum((points - defender[:d]) ** 2, axis=1) + defender[d] ** 2)
    da = np.sqrt(np.sum((points - attacker[:d]) ** 2, axis=1) + attacker[d] ** 2)
    return dd, da


def reference_nelder_mead(f, x0):
    """The polish as first written, on numpy arrays: scipy's Nelder-Mead
    (maxiter 200, xatol 1e-13, fatol 1e-15) operation for operation."""
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
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < 200:
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


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float).ravel(), np.asarray(want, dtype=float).ravel()
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestSeparableArithmetic:
    """The grid's broadcast per-axis distances and the polish's plain-float
    distances give the point-array reductions' bits."""

    @pytest.mark.parametrize("paired", [True, False], ids=["pair", "single"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mesh_and_point_paths_match_point_arrays(self, d, paired):
        rng = np.random.default_rng(10 * d + paired)
        # heights whose square numpy's scalar power rounds off from h * h
        pool = [h for h in rng.uniform(0.5, 1.0, 20000).tolist() if h ** 2 != h * h]
        specials = (np.inf, -np.inf, np.nan)
        with np.errstate(all="ignore"):
            for draw in range(60):
                scale = 2.0 ** rng.integers(-500, 500)  # about 1e-150 to 1e150
                players = scale * rng.standard_normal((3, d + 1))
                players[:, -1] = scale * rng.choice(pool, 3) * rng.choice([-1.0, 1.0], 3)
                axes = [scale * rng.standard_normal(4) for _ in range(d)]
                if draw % 8 == 3:  # a non-finite player coordinate
                    players[rng.integers(3), rng.integers(d + 1)] = specials[draw % 3]
                elif draw % 8 == 7:  # a non-finite grid coordinate
                    axes[rng.integers(d)][rng.integers(4)] = specials[draw % 3]
                defenders = players[:2] if paired else players[:1]
                f = oracle_module._objective(lambda dd, da: (dd, da), defenders, players[2])
                points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
                if paired:
                    want = reference_pair_dists(points, defenders, players[2])
                else:
                    want = reference_single_dists(points, defenders[0], players[2])
                got = f(np.meshgrid(*axes, indexing="ij", sparse=True), np.sqrt, np.minimum)
                for g, w in zip(got, want):
                    assert g.shape == (4,) * d
                    assert_same_bits(g, w)
                for k, x in enumerate(points):
                    dd, da = f(x.tolist())
                    assert type(dd) is float and type(da) is float
                    assert_same_bits([dd, da], [want[0][k], want[1][k]])

    def test_point_minimum_propagates_nan(self):
        nan_min = oracle_module._nan_min
        assert np.isnan(nan_min(np.nan, 1.0)) and np.isnan(nan_min(1.0, np.nan))
        assert nan_min(2.0, 1.0) == 1.0 and nan_min(1.0, 2.0) == 1.0

    @pytest.mark.parametrize("rounds", [0, 2, 5])
    def test_one_mesh_evaluation_per_round(self, monkeypatch, ref_aws, rounds):
        # the polish evaluates single points in floats, never the mesh path
        calls, original = [], oracle_module._objective

        def spy(*args):
            f = original(*args)

            def counted(coords, *rest):
                calls.append(all(isinstance(c, np.ndarray) for c in coords))
                return f(coords, *rest)
            return counted
        monkeypatch.setattr(oracle_module, "_objective", spy)
        grid = GridSpec(points_per_axis=9, refinement_rounds=rounds)
        for search in (lambda: oracle_kind(ref_aws, grid),
                       lambda: oracle_aws_target(ref_aws, grid),
                       lambda: oracle_otp_1v1(ref_aws.x_a, ref_aws.x_d1, ref_aws.alpha, grid)):
            calls.clear()
            search()
            assert calls[:rounds + 1] == [True] * (rounds + 1)
            assert len(calls) > rounds + 1 and not any(calls[rounds + 1:])


class TestNelderMead:
    """The polish is scipy's Nelder-Mead with maxiter 200, xatol 1e-13 and
    fatol 1e-15, operation for operation, so it must give the same bits."""

    @pytest.fixture
    def scipy_minimize(self):
        return pytest.importorskip("scipy.optimize").minimize

    def assert_same_bits(self, minimize, f, x0):
        res = minimize(f, x0, method="Nelder-Mead",
                       options={"maxiter": 200, "xatol": 1e-13, "fatol": 1e-15})
        x, fun = oracle_module._nelder_mead(lambda x: f(np.array(x)), x0)
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

    def test_staircase_ties_all_four_vertices(self, monkeypatch):
        # 3 axes make 4 vertices, where numpy's argsort need not be stable;
        # the first simplex already ties at 12 on every vertex
        def staircase(x):
            return float(np.floor(4.0 * np.abs(x).sum()))
        x0 = np.array([1.0, 1.0, 1.0])
        ties, argsort = [], np.argsort

        def spy(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape == (4,):
                ties.append(len(set(a.tolist())))
            return argsort(a, *args, **kwargs)
        monkeypatch.setattr(np, "argsort", spy)
        x, fun = oracle_module._nelder_mead(lambda x: staircase(np.array(x)), x0)
        monkeypatch.undo()
        assert 1 in ties
        want_x, want_fun = reference_nelder_mead(staircase, x0)
        assert x.tobytes() == want_x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(want_fun).tobytes()

    @pytest.mark.parametrize("search", ["kind", "seam"])
    def test_objective_gets_fresh_float_lists(self, monkeypatch, search):
        # a numpy array reaching the objective would bring back the small
        # numpy calls the polish was rid of
        s = rand_two_effective(np.random.default_rng(29), want_zero=False, n=4)
        seen, original = [], oracle_module._nelder_mead

        def spy(f, x0):
            def watched(x):
                seen.append(x)
                return f(x)
            return original(watched, x0)
        monkeypatch.setattr(oracle_module, "_nelder_mead", spy)
        (oracle_kind if search == "kind" else oracle_otp_dws)(s)
        assert len(seen) > 4 and len({id(x) for x in seen}) == len(seen)
        assert all(type(x) is list and all(type(c) is float for c in x) for x in seen)


@st.composite
def polish_problems(draw):
    """A 1-3-D objective on numpy arrays and a start: a quadratic, a
    staircase (ties and shrink steps) or a quadratic with a NaN region."""
    d = draw(st.integers(1, 3))
    coords = st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=d, max_size=d)
    center, x0 = np.array(draw(coords)), np.array(draw(coords))
    weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
    kind = draw(st.sampled_from(["quadratic", "staircase", "nan"]))
    if kind == "staircase":
        steps = draw(st.sampled_from([1.0, 4.0, 16.0]))
        return (lambda x: float(np.floor(steps * np.abs(x - center).sum()))), x0
    cut = draw(st.floats(-1.0, 1.0))

    def f(x):
        if kind == "nan" and x[0] > center[0] + cut:
            return math.nan
        return float(np.sum(weights * (x - center) ** 2))
    return f, x0


class TestPlainFloatPolish:
    """The plain-float polish gives the bytes of the numpy one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(polish_problems())
    def test_same_bits_as_the_array_polish(self, problem):
        f, x0 = problem
        x, fun = oracle_module._nelder_mead(lambda x: f(np.array(x)), x0)
        want_x, want_fun = reference_nelder_mead(f, x0)
        assert type(x) is np.ndarray and type(fun) is float
        assert x.tobytes() == want_x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(want_fun).tobytes()


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


HIGH_HEIGHTS = canonical_scenario(3, (-1e150, 0.0, 1e160), (1e150, 0.0, 1e160),
                                  (0.0, 0.0, 1e160 + 3e150), 0.5)


def test_no_finite_grid_value_is_named():
    # the players' gaps square to normal floats, but their heights do not,
    # so no grid value of the kind objective is finite; the oracles' own
    # guard stops such a state before any grid (next test)
    s = HIGH_HEIGHTS
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalDegeneracyError, match="no grid point"):
            oracle_module._grid_maximize(lambda dd, da: s.alpha * dd - da,
                                         (s.x_d1, s.x_d2), s.x_a, s.alpha, None)


@pytest.mark.parametrize("oracle", [
    oracle_kind, oracle_aws_target, oracle_min_boundary_height, oracle_otp_dws,
    pytest.param(lambda s: oracle_otp_1v1(s.x_a, s.x_d1, s.alpha), id="oracle_otp_1v1")])
def test_squared_heights_past_the_float_range_are_named(oracle):
    # heights of 1e160 square past the float range, though every gap between
    # the players squares to a normal float: the gaps to the attacker's foot
    # point name it, where the seam oracles returned NaN
    with pytest.raises(NumericalDegeneracyError, match="squared player offsets"):
        oracle(HIGH_HEIGHTS)


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
