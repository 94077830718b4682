"""Frames, scenario validation, and the quadric building blocks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REF_ALPHA, REF_D1, REF_D2, canonical_scenario, ref_scenario
from subguard import (
    ATTACKER_WINS,
    AssumptionViolation,
    CoincidentDefendersError,
    DimensionMismatchError,
    Hyperplane,
    NotCanonicalError,
    Scenario,
    ScenarioFormatError,
    ZeroNormalError,
    apollonius,
    canonicalize,
    evaluate_kind,
    load_scenario,
    pair_geometry,
    quadratic_form,
    scenario_from_dict,
    scenario_to_dict,
    single_matrix,
    solve_dws,
)
from subguard.geometry import _require_canonical
from subguard.oracle import oracle_kind
from subguard.kind import mirror_defender


def test_hyperplane_side_sign():
    hp = Hyperplane(K=[0.0, 2.0], b=4.0)
    assert hp.side([0.0, 3.0]) == pytest.approx(2.0)
    assert hp.side([0.0, 1.0]) == pytest.approx(-2.0)
    with pytest.raises(ZeroNormalError):
        Hyperplane(K=[0.0, 0.0], b=1.0)


class TestScenarioValidation:
    def test_coincident_defenders(self):
        with pytest.raises(AssumptionViolation) as exc:
            canonical_scenario(2, (1.0, 1.0), (1.0, 1.0), (0.0, 2.0))
        assert exc.value.assumption == "Assumption 1"

    def test_attacker_on_defender(self):
        with pytest.raises(AssumptionViolation) as exc:
            canonical_scenario(2, (1.0, 1.0), (2.0, 1.0), (1.0, 1.0))
        assert exc.value.assumption == "Assumption 1"

    def test_attacker_must_be_in_play(self):
        for h in (0.0, -0.3):
            with pytest.raises(AssumptionViolation) as exc:
                canonical_scenario(2, (1.0, 1.0), (2.0, 1.0), (0.0, h))
            assert exc.value.assumption == "Assumption 2"

    def test_speed_ratio_open_interval(self):
        for alpha in (0.0, 1.0, 1.2, -0.5):
            with pytest.raises(AssumptionViolation) as exc:
                canonical_scenario(2, (1.0, 1.0), (2.0, 1.0), (0.0, 2.0), alpha)
            assert exc.value.assumption == "Assumption 3"

    def test_speeds_derive_alpha(self):
        s = canonical_scenario(2, (1.0, 1.0), (2.0, 1.0), (0.0, 2.0),
                               alpha=None, v_d=2.0, v_a=0.5)
        assert s.alpha == pytest.approx(0.25)
        assert s.speed_d == 2.0 and s.speed_a == 0.5

    def test_speeds_must_agree_with_alpha(self):
        with pytest.raises(ScenarioFormatError):
            canonical_scenario(2, (1.0, 1.0), (2.0, 1.0), (0.0, 2.0),
                               alpha=0.3, v_d=1.0, v_a=0.5)

    def test_one_speed_alone_rejected(self):
        with pytest.raises(ScenarioFormatError):
            Scenario(n=2, hyperplane=Hyperplane(K=[0.0, 1.0], b=0.0),
                     x_d1=(1.0, 1.0), x_d2=(2.0, 1.0), x_a=(0.0, 2.0),
                     alpha=0.5, v_d=2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Scenario(n=3, hyperplane=Hyperplane(K=[0.0, 1.0], b=0.0),
                     x_d1=(1.0, 1.0, 0.0), x_d2=(2.0, 1.0, 0.0),
                     x_a=(0.0, 2.0, 1.0), alpha=0.5)

    def test_default_speeds(self):
        s = canonical_scenario(2, (1.0, 1.0), (2.0, 1.0), (0.0, 2.0), 0.5)
        assert s.speed_d == 1.0 and s.speed_a == 0.5

    def test_positions_frozen(self):
        s = ref_scenario((0.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            s.x_a[0] = 5.0


class TestCanonicalize:
    def test_planar_swap_frame(self):
        # hyperplane x = 1 with play side x > 1: coordinates swap, then shift
        s = Scenario(n=2, hyperplane=Hyperplane(K=[1.0, 0.0], b=1.0),
                     x_d1=(2.0, 5.0), x_d2=(3.0, -1.0), x_a=(4.0, 0.0), alpha=0.5)
        canon, xf = canonicalize(s)
        assert canon.is_canonical()
        np.testing.assert_allclose(canon.x_d1, [5.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(canon.x_d2, [-1.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(canon.x_a, [0.0, 3.0], atol=1e-15)
        np.testing.assert_allclose(xf.to_world(canon.x_a), s.x_a, atol=1e-15)

    def test_identity_when_already_canonical(self):
        s = ref_scenario((0.0, 0.0, 2.0))
        canon, xf = canonicalize(s)
        np.testing.assert_array_equal(canon.x_d1, s.x_d1)
        np.testing.assert_array_equal(xf.Q, np.eye(3))
        np.testing.assert_array_equal(xf.t, np.zeros(3))

    def test_scaled_normal_same_frame(self):
        # K and 7K with 7b describe the same hyperplane, hence the same frame
        a = Scenario(n=2, hyperplane=Hyperplane(K=[3.0, 4.0], b=2.0),
                     x_d1=(2.0, 5.0), x_d2=(3.0, -1.0), x_a=(4.0, 3.0), alpha=0.5)
        b = Scenario(n=2, hyperplane=Hyperplane(K=[21.0, 28.0], b=14.0),
                     x_d1=(2.0, 5.0), x_d2=(3.0, -1.0), x_a=(4.0, 3.0), alpha=0.5)
        ca, _ = canonicalize(a)
        cb, _ = canonicalize(b)
        np.testing.assert_allclose(ca.x_a, cb.x_a, atol=1e-12)

    def test_nearly_vertical_normal_keeps_its_tilt(self):
        # k_hat[-1] rounds to 1.0 here; the tilt must still reach the frame
        s = Scenario(n=2, hyperplane=Hyperplane(K=[5.96046448e-08, 3.0], b=0.0),
                     x_d1=(0.0, 0.5), x_d2=(0.0, 0.9), x_a=(-1.0, 1.3), alpha=0.5)
        canon, xf = canonicalize(s)
        k_hat = s.hyperplane.K / np.linalg.norm(s.hyperplane.K)
        np.testing.assert_allclose(xf.dir_to_canonical(k_hat), [0.0, 1.0], atol=1e-15)
        assert canon.x_a[-1] == pytest.approx(float(k_hat @ s.x_a), abs=1e-15)

    def test_require_canonical_guard(self):
        s = Scenario(n=2, hyperplane=Hyperplane(K=[1.0, 0.0], b=1.0),
                     x_d1=(2.0, 5.0), x_d2=(3.0, -1.0), x_a=(4.0, 0.0), alpha=0.5)
        with pytest.raises(NotCanonicalError):
            _require_canonical(s)
        with pytest.raises(NotCanonicalError):
            evaluate_kind(s)

    def test_nearly_canonical_plane_is_refused(self):
        # the README state at 1e-13 over the plane z = 1.5e-13: read as if the
        # plane were z = 0 the defenders would win, but the attacker does
        t = 1e-13
        s = Scenario(n=3, hyperplane=Hyperplane(K=[0.0, 0.0, 1.0], b=1.5 * t),
                     x_d1=tuple(t * v for v in REF_D1), x_d2=tuple(t * v for v in REF_D2),
                     x_a=(0.0, 0.0, 2.0 * t), alpha=REF_ALPHA)
        assert s.is_canonical(tol=1e-12) and not s.is_canonical()
        for call in (evaluate_kind, solve_dws, oracle_kind):
            with pytest.raises(NotCanonicalError):
                call(s)
        assert evaluate_kind(canonicalize(s)[0]).outcome == ATTACKER_WINS


def _world_from_canonical(n, k, b, pts):
    """Map canonical points into the frame of hyperplane K . z = b."""
    k = np.asarray(k, dtype=float)
    k_hat = k / np.linalg.norm(k)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    v = k_hat - e_n
    q = np.eye(n) if np.linalg.norm(v) <= 1e-12 \
        else np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    t = (b / float(k @ k)) * k
    return [q @ p + t for p in pts]


@st.composite
def world_scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    coord = st.floats(min_value=-3, max_value=3, allow_nan=False)
    k = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    if np.linalg.norm(k) < 1e-3:
        k = np.eye(n)[0]
    b = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
    lat = st.floats(min_value=-2, max_value=2, allow_nan=False)
    pts = []
    for low in (0.5, 0.9, 1.3):  # distinct heights keep the players apart
        p = np.array(draw(st.lists(lat, min_size=n - 1, max_size=n - 1)) + [low])
        pts.append(p)
    d1w, d2w, aw = _world_from_canonical(n, k, float(b), pts)
    return Scenario(n=n, hyperplane=Hyperplane(K=k, b=float(b)),
                    x_d1=d1w, x_d2=d2w, x_a=aw, alpha=draw(
                        st.floats(min_value=0.2, max_value=0.9)))


@settings(max_examples=40, deadline=None)
@given(world_scenarios())
def test_canonicalize_is_isometric_roundtrip(s):
    canon, xf = canonicalize(s)
    assert canon.is_canonical(tol=1e-9)
    # pairwise distances survive the frame change
    for a, b in ((s.x_d1, s.x_d2), (s.x_d1, s.x_a), (s.x_d2, s.x_a)):
        ca, cb = xf.to_canonical(a), xf.to_canonical(b)
        assert np.linalg.norm(a - b) == pytest.approx(np.linalg.norm(ca - cb), abs=1e-9)
    # heights match signed hyperplane offsets (unit normal scaling)
    k_norm = np.linalg.norm(s.hyperplane.K)
    assert canon.x_a[-1] == pytest.approx(s.hyperplane.side(s.x_a) / k_norm, abs=1e-9)
    # round trip
    np.testing.assert_allclose(xf.to_world(xf.to_canonical(s.x_a)), s.x_a, atol=1e-9)
    u = np.ones(s.n) / np.sqrt(s.n)
    assert np.linalg.norm(xf.dir_to_world(xf.dir_to_canonical(u)) - u) < 1e-9


@settings(max_examples=30, deadline=None)
@given(world_scenarios())
def test_dominance_ball_commutes_with_frame(s):
    canon, xf = canonicalize(s)
    ball_w = apollonius(s.x_a, s.x_d1, s.alpha)
    ball_c = apollonius(canon.x_a, canon.x_d1, canon.alpha)
    np.testing.assert_allclose(xf.to_canonical(ball_w.theta), ball_c.theta, atol=1e-9)
    assert ball_w.delta == pytest.approx(ball_c.delta, abs=1e-9)


class TestPairGeometry:
    def setup_method(self):
        self.d1m = mirror_defender(REF_D1)
        self.d2m = np.asarray(REF_D2, dtype=float)
        self.geo = pair_geometry(self.d1m, self.d2m, REF_ALPHA)

    def test_reference_values(self):
        geo = self.geo
        np.testing.assert_allclose(geo.a, [-3.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(geo.b, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(geo.c, [[0.0, 0.0], [0.0, 9.0]], atol=1e-15)
        assert geo.m == pytest.approx(-0.5, abs=1e-15)
        assert geo.w == pytest.approx(-0.625, abs=1e-15)
        assert geo.zeta1 == pytest.approx(6.75, abs=1e-15)
        np.testing.assert_allclose(geo.zeta2, [[-6.75, 0.0], [0.0, 2.25]], atol=1e-15)
        np.testing.assert_allclose(geo.zeta3, [1.40625, 0.0], atol=1e-15)
        assert geo.zeta4 == pytest.approx(6.3193359375, abs=1e-14)

    def test_form_value_at_reference_attacker(self):
        # zeta1 * (z_n^2 - surface height^2) with height^2 = 719/768 at the origin
        form = quadratic_form(self.geo.xi, np.array([0.0, 0.0, 2.0]))
        assert form == pytest.approx(6.75 * (4.0 - 719.0 / 768.0), abs=1e-12)
        assert form == pytest.approx(20.6806640625, abs=1e-12)

    def test_swap_leaves_xi_unchanged(self):
        swapped = pair_geometry(self.d2m, self.d1m, REF_ALPHA)
        np.testing.assert_allclose(swapped.xi, self.geo.xi, atol=1e-12)
        np.testing.assert_allclose(swapped.a, -self.geo.a, atol=1e-15)
        assert swapped.m == pytest.approx(-self.geo.m)
        assert swapped.w == pytest.approx(-self.geo.w)

    def test_coincident_pair_rejected(self):
        with pytest.raises(CoincidentDefendersError):
            pair_geometry((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_identities(n, seed):
    # C annihilates a, C^2 = ||a||^2 C, and C is positive semidefinite
    rng = np.random.default_rng(seed)
    d1 = rng.uniform(-3, 3, n)
    d2 = rng.uniform(-3, 3, n)
    if np.allclose(d1, d2):
        d2 = d1 + 1.0
    geo = pair_geometry(d1, d2, float(rng.uniform(0.2, 0.9)))
    na = np.linalg.norm(geo.a)
    assert np.linalg.norm(geo.c @ geo.a) <= 1e-9 * max(na**3, 1e-12)
    assert np.linalg.norm(geo.c @ geo.c - na**2 * geo.c) <= 1e-9 * max(na**4, 1e-12)
    assert np.linalg.eigvalsh(geo.c).min() >= -1e-9


class TestSingleMatrix:
    def test_reference_form(self):
        xi = single_matrix(REF_D2, REF_ALPHA)
        assert xi.shape == (4, 4)
        np.testing.assert_allclose(xi, xi.T, atol=1e-15)
        # -||z_lat||^2 + 3 z_n^2 + 2 x_lat . z_lat + alpha^2 h^2 - ||x||^2
        assert quadratic_form(xi, np.array([0.0, 0.0, 2.0])) == pytest.approx(
            12.0 + 0.5625 - 4.5, abs=1e-12)

    def test_zero_on_own_surface(self):
        # points with gamma z_n^2 = ||z_lat - x_lat||^2 + (1 - alpha^2) h^2
        x_d = np.array([0.4, -0.2, 1.1])
        alpha = 0.6
        gamma = 1.0 / alpha**2 - 1.0
        xi = single_matrix(x_d, alpha)
        for z_lat in ([0.0, 0.0], [1.0, -2.0], [0.4, -0.2]):
            z_lat = np.asarray(z_lat)
            h2 = (float(np.sum((z_lat - x_d[:-1]) ** 2))
                  + (1.0 - alpha**2) * x_d[-1] ** 2) / gamma
            z = np.append(z_lat, np.sqrt(h2))
            assert abs(quadratic_form(xi, z)) < 1e-12


class TestApollonius:
    def test_reference_ball(self):
        ball = apollonius((0.0, 0.0, 2.0), REF_D2, REF_ALPHA)
        np.testing.assert_allclose(ball.theta, [-0.5, 0.0, 13.0 / 6.0], atol=1e-15)
        assert ball.delta == pytest.approx(np.sqrt(10.0) / 3.0, abs=1e-15)
        bottom = ball.bottom()
        assert bottom[-1] == pytest.approx((13.0 - 2.0 * np.sqrt(10.0)) / 6.0, abs=1e-15)
        assert ball.contains((0.0, 0.0, 2.0))

    def test_membership_matches_race(self):
        # inside the ball means the attacker's travel time is strictly smaller
        rng = np.random.default_rng(3)
        x_a = np.array([0.2, -0.1, 1.4])
        x_d = np.array([1.0, 0.5, 0.8])
        alpha = 0.7
        ball = apollonius(x_a, x_d, alpha)
        for _ in range(200):
            z = rng.uniform(-4, 4, 3)
            inside = np.linalg.norm(z - x_a) / alpha < np.linalg.norm(z - x_d)
            if abs(np.linalg.norm(z - x_a) / alpha - np.linalg.norm(z - x_d)) < 1e-9:
                continue
            assert ball.contains(z) == inside


class TestScenarioWire:
    def test_dict_round_trip(self):
        s = ref_scenario((0.0, 0.0, 2.0))
        d = scenario_to_dict(s)
        back = scenario_from_dict(json.loads(json.dumps(d)))
        np.testing.assert_array_equal(back.x_d1, s.x_d1)
        np.testing.assert_array_equal(back.x_a, s.x_a)
        assert back.alpha == s.alpha
        assert back.hyperplane.b == s.hyperplane.b

    def test_dict_with_speeds(self):
        s = canonical_scenario(2, (1.0, 1.0), (2.0, 1.0), (0.0, 2.0),
                               alpha=None, v_d=2.0, v_a=0.5)
        back = scenario_from_dict(scenario_to_dict(s))
        assert back.v_d == 2.0 and back.v_a == 0.5

    def test_missing_fields(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"n": 2})
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"n": 2, "hyperplane": {"K": [0, 1]},
                                "defenders": [[1, 1], [2, 1]], "attacker": [0, 2]})
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict([1, 2, 3])

    def test_defender_count_enforced(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"n": 2, "hyperplane": {"K": [0, 1], "b": 0},
                                "defenders": [[1, 1]], "attacker": [0, 2],
                                "alpha": 0.5})

    def test_load_scenario_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioFormatError):
            load_scenario(p)

    def test_load_scenario_round_trip(self, tmp_path):
        s = ref_scenario((0.0, 0.0, 2.0))
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(scenario_to_dict(s)), encoding="utf-8")
        back = load_scenario(p)
        np.testing.assert_array_equal(back.x_d2, s.x_d2)
