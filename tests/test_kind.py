"""Winner classification, lateral regions, and the barrier surface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REF_ALPHA,
    REF_BARRIER_H2,
    REF_D1,
    REF_D2,
    canonical_scenario,
    moved,
    rand_kind_scenario,
    rand_mirror_scenario,
    rand_symmetry,
    ref_scenario,
)
from subguard import (
    ATTACKER_WINS,
    DEFENDERS_WIN,
    ON_BARRIER,
    AttackerNotInPlayError,
    BudgetExceededError,
    CoincidentDefendersError,
    DegeneratePairError,
    EmptyGridError,
    barrier_height,
    classify_active,
    evaluate_kind,
    mesh_to_csv,
    mesh_to_json,
    mirror_defender,
    pair_geometry,
    quadratic_form,
    region_label,
    sample_barrier,
    single_matrix,
)
from subguard import barrier_solution, solve_dws
from subguard import degree as degree_module
from subguard import geometry as geometry_module
from subguard import kind as kind_module
from subguard.kind import (
    PIECE_B1,
    PIECE_B2,
    PIECE_B3,
    PIECE_SINGLE,
    REGION_A1,
    REGION_A2,
    REGION_A12,
)

D1M = mirror_defender(REF_D1)
D2M = np.asarray(REF_D2, dtype=float)
GEO12 = pair_geometry(D1M, D2M, REF_ALPHA)
GEO21 = pair_geometry(D2M, D1M, REF_ALPHA)

# hand-reduced single and composite surface heights for the reference pair
def b1_height(z1, z2):
    return np.sqrt(z1**2 / 3.0 + z2**2 / 3.0 + z1 + 1.0)


def b2_height(z1, z2):
    return np.sqrt(z1**2 / 3.0 + z2**2 / 3.0 - z1 + 21.0 / 16.0)


def b3_height(z1, z2):
    return np.sqrt(-(z1**2) + z2**2 / 3.0 + 5.0 * z1 / 12.0 + 719.0 / 768.0)


def test_mirror_defender_reflects_height_only():
    np.testing.assert_array_equal(mirror_defender((1.0, 2.0, -3.0)), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(mirror_defender((1.0, 2.0, 3.0)), [1.0, 2.0, -3.0])


def flip_up(x_d):
    """In-play copy of a defender: reflect only if below the hyperplane."""
    x = np.asarray(x_d, dtype=float)
    return mirror_defender(x) if x[-1] < 0.0 else x


class TestClassifyActive:
    def test_lateral_separation_means_both(self):
        active = classify_active((0.0, 0.0, 1.0), (1.0, 0.0, 5.0))
        assert active.two_active and active.index is None

    def test_stacked_opposite_heights_means_both(self):
        active = classify_active((1.0, 0.0, 2.0), (1.0, 0.0, -2.0))
        assert active.two_active

    def test_stacked_unequal_heights_keeps_lower(self):
        active = classify_active((1.0, 0.0, 2.0), (1.0, 0.0, 0.5))
        assert not active.two_active and active.index == 2
        active = classify_active((1.0, 0.0, -0.4), (1.0, 0.0, 0.5))
        assert not active.two_active and active.index == 1

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentDefendersError):
            classify_active((1.0, 0.0, 2.0), (1.0, 0.0, 2.0))


class TestRegions:
    def label(self, z1):
        return region_label(np.array([z1, 0.0, 1.0]), GEO12, GEO21, REF_ALPHA)

    def test_breakpoints_exact(self):
        # thresholds reduce to z1 = -7/32 and z1 = 17/32 for the reference pair
        lo, hi = -7.0 / 32.0, 17.0 / 32.0
        eps = 1e-12
        assert self.label(lo - eps) == REGION_A1
        assert self.label(lo) == REGION_A12
        assert self.label(lo + eps) == REGION_A12
        assert self.label(hi - eps) == REGION_A12
        assert self.label(hi) == REGION_A12
        assert self.label(hi + eps) == REGION_A2

    def test_far_sides(self):
        assert self.label(-5.0) == REGION_A1
        assert self.label(5.0) == REGION_A2

    def test_degenerate_pair_rejected(self):
        stacked = pair_geometry((0.0, 0.0, 1.0), (0.0, 0.0, 2.0), 0.5)
        with pytest.raises(DegeneratePairError):
            region_label(np.zeros(3), stacked, stacked, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-6, max_value=6), st.floats(min_value=-6, max_value=6))
    def test_partition_is_exhaustive_and_exclusive(self, z1, z2):
        label = region_label(np.array([z1, z2, 1.0]), GEO12, GEO21, REF_ALPHA)
        assert label in (REGION_A1, REGION_A2, REGION_A12)
        # the two single-piece predicates never hold simultaneously
        in1 = z1 < -7.0 / 32.0
        in2 = z1 > 17.0 / 32.0
        assert not (in1 and in2)
        assert label == (REGION_A1 if in1 else REGION_A2 if in2 else REGION_A12)


class TestEvaluateKind:
    def test_reference_outcomes(self):
        out = evaluate_kind(ref_scenario((0.0, 0.0, 2.0)))
        assert out.outcome == DEFENDERS_WIN
        assert out.piece == PIECE_B3
        assert out.form_value == pytest.approx(20.6806640625, abs=1e-12)

        out = evaluate_kind(ref_scenario((0.0, 0.0, 0.5)))
        assert out.outcome == ATTACKER_WINS
        assert out.form_value == pytest.approx(6.75 * (0.25 - REF_BARRIER_H2), abs=1e-12)

        out = evaluate_kind(ref_scenario((0.0, 0.0, np.sqrt(REF_BARRIER_H2))))
        assert out.outcome == ON_BARRIER
        assert abs(out.form_value) <= 1e-9 * (1.0 + REF_BARRIER_H2)

    def test_side_pieces_govern_off_slab(self):
        out = evaluate_kind(ref_scenario((-2.0, 0.0, 1.5)))
        assert out.piece == PIECE_B1
        out = evaluate_kind(ref_scenario((2.0, 0.0, 1.5)))
        assert out.piece == PIECE_B2

    def test_on_surface_points_classify_on_barrier(self):
        for z1, fn in ((-2.0, b1_height), (2.0, b2_height), (0.3, b3_height)):
            x_a = (z1, 0.4, float(fn(z1, 0.4)))
            out = evaluate_kind(ref_scenario(x_a))
            assert out.outcome == ON_BARRIER, (z1, out)

    def test_attacker_below_plane_rejected(self):
        s = ref_scenario((0.0, 0.0, 2.0))
        bad = s.replace_positions(x_a=(0.0, 0.0, 1.0))

        class Sneaky:  # bypass construction-time validation to hit the guard
            pass

        sneaky = Sneaky()
        for name in ("n", "hyperplane", "x_d1", "x_d2", "x_a", "alpha"):
            setattr(sneaky, name, getattr(bad, name))
        sneaky.x_a = np.array([0.0, 0.0, -1.0])
        sneaky.is_canonical = bad.is_canonical
        with pytest.raises(AttackerNotInPlayError):
            evaluate_kind(sneaky)

    def test_stacked_defenders_single_piece(self):
        s = canonical_scenario(3, (0.0, 0.0, 0.5), (0.0, 0.0, 2.0), (1.0, 0.0, 1.0), 0.5)
        out = evaluate_kind(s)
        assert out.piece == PIECE_SINGLE

    def test_mirror_symmetric_stack_single_piece(self):
        # defenders mirror onto the same point; treated as one virtual defender
        s = canonical_scenario(3, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 1.0), 0.5)
        out = evaluate_kind(s)
        assert out.piece == PIECE_SINGLE

    def test_mirror_invariance_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = rand_mirror_scenario(rng)
            mirrored = s.replace_positions(
                x_d1=flip_up(s.x_d1), x_d2=flip_up(s.x_d2))
            a, b = evaluate_kind(s), evaluate_kind(mirrored)
            assert a.outcome == b.outcome
            assert a.piece == b.piece
            assert a.form_value == pytest.approx(b.form_value, rel=1e-12, abs=1e-12)

    def test_one_active_uses_surviving_defender(self):
        # stacked defenders: only the lower mirrored one shapes the outcome
        s = canonical_scenario(3, (0.0, 0.0, 0.5), (0.0, 0.0, 2.0),
                               (1.0, 0.0, 1.0), 0.5)
        lone = canonical_scenario(3, (0.0, 0.0, 0.5), (9.9, 9.9, 9.9),
                                  (1.0, 0.0, 1.0), 0.5)
        # move the second defender far away laterally: same single surface
        # governs while the attacker stays on the first defender's side
        assert evaluate_kind(s).form_value == pytest.approx(
            evaluate_kind(lone).form_value, abs=1e-9)


class TestBarrierHeight:
    def test_reference_pieces(self):
        cases = [((-2.0, 0.0), b1_height), ((2.0, 0.0), b2_height),
                 ((0.0, 0.0), b3_height), ((0.25, -1.3), b3_height),
                 ((-4.0, 2.0), b1_height), ((3.5, 0.7), b2_height)]
        for lat, fn in cases:
            h = barrier_height(np.array(lat), REF_D1, REF_D2, REF_ALPHA)
            assert h == pytest.approx(fn(*lat), abs=1e-12), lat

    def test_named_values(self):
        assert barrier_height(np.array([-2.0, 0.0]), REF_D1, REF_D2, REF_ALPHA) \
            == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-15)
        assert barrier_height(np.array([2.0, 0.0]), REF_D1, REF_D2, REF_ALPHA) \
            == pytest.approx(np.sqrt(31.0 / 48.0), abs=1e-15)
        assert barrier_height(np.array([0.0, 0.0]), REF_D1, REF_D2, REF_ALPHA) \
            == pytest.approx(np.sqrt(REF_BARRIER_H2), abs=1e-15)

    def test_seam_continuity(self):
        # single and composite pieces agree across the region thresholds
        for z1, z2 in ((-7.0 / 32.0, 0.0), (-7.0 / 32.0, 1.7),
                       (17.0 / 32.0, 0.0), (17.0 / 32.0, -0.9)):
            eps = 1e-9
            left = barrier_height(np.array([z1 - eps, z2]), REF_D1, REF_D2, REF_ALPHA)
            right = barrier_height(np.array([z1 + eps, z2]), REF_D1, REF_D2, REF_ALPHA)
            assert left == pytest.approx(right, abs=1e-7)

    def test_single_defender_closed_form(self):
        # stacked pair: gamma h^2 = ||z - lat||^2 + (1 - alpha^2) h_d^2
        d1, d2 = (0.3, -0.2, 0.6), (0.3, -0.2, 2.4)
        alpha = 0.6
        gamma = 1.0 / alpha**2 - 1.0
        for lat in ([0.0, 0.0], [1.4, -2.0]):
            expect = np.sqrt((np.sum((np.array(lat) - np.array(d1[:2])) ** 2)
                              + (1.0 - alpha**2) * 0.36) / gamma)
            got = barrier_height(np.array(lat), d1, d2, alpha)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_surface_separates_outcomes(self):
        # slightly above the surface the defenders win, slightly below the
        # attacker does; this is the meaning of the barrier
        rng = np.random.default_rng(5)
        for _ in range(50):
            lat = rng.uniform(-3, 3, 2)
            h = barrier_height(lat, REF_D1, REF_D2, REF_ALPHA)
            delta = 1e-3 * (1.0 + h)
            above = evaluate_kind(ref_scenario((lat[0], lat[1], h + delta)))
            assert above.outcome == DEFENDERS_WIN
            if h - delta > 1e-6:
                below = evaluate_kind(ref_scenario((lat[0], lat[1], h - delta)))
                assert below.outcome == ATTACKER_WINS

    def test_mirrored_pair_same_surface(self):
        lat = np.array([0.7, -0.4])
        a = barrier_height(lat, REF_D1, REF_D2, REF_ALPHA)
        b = barrier_height(lat, mirror_defender(REF_D1), REF_D2, REF_ALPHA)
        assert a == pytest.approx(b, abs=1e-15)


class TestSampleBarrier:
    def test_mesh_matches_pointwise(self):
        mesh = sample_barrier(REF_D1, REF_D2, REF_ALPHA,
                              lo=(-3.0, -2.0), hi=(3.0, 2.0), counts=(11, 7))
        assert mesh.points.shape == (77, 3)
        assert mesh.n == 3
        for row, piece in zip(mesh.points, mesh.pieces):
            assert row[2] == pytest.approx(
                barrier_height(row[:2], REF_D1, REF_D2, REF_ALPHA), abs=1e-12)
            expect_piece = (PIECE_B1 if row[0] < -7.0 / 32.0
                            else PIECE_B2 if row[0] > 17.0 / 32.0 else PIECE_B3)
            assert piece == expect_piece

    def test_single_point_grid(self):
        mesh = sample_barrier(REF_D1, REF_D2, REF_ALPHA,
                              lo=(0.0, 0.0), hi=(5.0, 5.0), counts=1)
        assert mesh.points.shape == (1, 3)
        assert mesh.points[0, 2] == pytest.approx(np.sqrt(REF_BARRIER_H2), abs=1e-12)

    def test_bad_grids_rejected(self):
        with pytest.raises(EmptyGridError):
            sample_barrier(REF_D1, REF_D2, REF_ALPHA, lo=0.0, hi=1.0, counts=0)
        with pytest.raises(EmptyGridError):
            sample_barrier(REF_D1, REF_D2, REF_ALPHA, lo=1.0, hi=0.0, counts=5)

    def test_node_budget_checked_before_allocation(self, monkeypatch):
        # 1e5 nodes per axis at n = 5 would be 1e20 nodes; the budget check
        # must fire before any axis is built
        d1, d2 = (-1.5, 0.0, 0.0, 0.0, -1.0), (1.5, 0.0, 0.0, 0.0, 1.5)
        with pytest.raises(BudgetExceededError, match="budget"):
            sample_barrier(d1, d2, REF_ALPHA, lo=-1.0, hi=1.0, counts=100_000)
        # the default 101 nodes per axis exceed it at n = 5
        with pytest.raises(BudgetExceededError):
            sample_barrier(d1, d2, REF_ALPHA, lo=-1.0, hi=1.0, counts=101)
        # a grid of exactly the budget is sampled
        monkeypatch.setattr(kind_module, "BARRIER_NODE_BUDGET", 77)
        mesh = sample_barrier(REF_D1, REF_D2, REF_ALPHA, lo=-1.0, hi=1.0, counts=(11, 7))
        assert mesh.points.shape[0] == 77
        with pytest.raises(BudgetExceededError):
            sample_barrier(REF_D1, REF_D2, REF_ALPHA, lo=-1.0, hi=1.0, counts=(11, 8))

    def test_heights_always_present(self):
        # one defender always leaves a surface over every lateral point, and
        # the composite piece inherits positivity from seam continuity
        rng = np.random.default_rng(9)
        for _ in range(20):
            d1 = rng.uniform(-2, 2, 3)
            d2 = rng.uniform(-2, 2, 3)
            if np.allclose(d1, d2):
                continue
            mesh = sample_barrier(d1, d2, float(rng.uniform(0.2, 0.9)),
                                  lo=-4.0, hi=4.0, counts=9)
            assert mesh.points.shape[0] == 81
            assert np.all(np.isfinite(mesh.points))
            assert np.all(mesh.points[:, -1] >= 0.0)

    def test_csv_and_json_forms(self):
        mesh = sample_barrier(REF_D1, REF_D2, REF_ALPHA,
                              lo=(0.0, 0.0), hi=(1.0, 1.0), counts=2)
        csv = mesh_to_csv(mesh)
        lines = csv.strip().split("\n")
        assert lines[0] == "z1,z2,z3,piece"
        assert len(lines) == 5
        import json
        records = json.loads(mesh_to_json(mesh))
        assert len(records) == 4
        assert set(records[0]) == {"points", "piece"}


def test_kind_matches_mesh_on_random_pairs():
    # cross-check evaluate_kind against its own sampled surface
    rng = np.random.default_rng(21)
    for _ in range(25):
        s, out = rand_kind_scenario(rng, n=3)
        h = barrier_height(s.x_a[:2], s.x_d1, s.x_d2, s.alpha)
        expect = DEFENDERS_WIN if s.x_a[-1] > h else ATTACKER_WINS
        assert out.outcome == expect


def test_form_value_is_the_governing_quadric():
    # the kernel's coef * (z_n^2 - h^2) against the paper's matrices
    rng = np.random.default_rng(31)
    states = [rand_kind_scenario(rng, n=n)[0] for n in range(2, 9) for _ in range(40)]
    states += [canonical_scenario(3, (0.3, -0.2, 2.4), (0.3, -0.2, -0.6), (1.0, 0.5, 1.2), 0.6),
               canonical_scenario(2, (0.3, 1.0), (0.3, -1.0), (2.0, 0.7), 0.4)]
    for s in states:
        out = evaluate_kind(s)
        d1, d2 = flip_up(s.x_d1), flip_up(s.x_d2)
        if out.piece == PIECE_B3:
            xi = pair_geometry(d1, d2, s.alpha).xi
        else:
            owner = d2 if out.piece == PIECE_B2 or (
                out.piece == PIECE_SINGLE and d2[-1] < d1[-1]) else d1
            xi = single_matrix(owner, s.alpha)
        assert out.form_value == pytest.approx(quadratic_form(xi, s.x_a), rel=1e-12)


def test_solver_paths_build_no_matrix(monkeypatch):
    # the surface kernel is O(n): no (n+1)^2 matrix or einsum on any path
    def forbidden(*args, **kwargs):
        raise AssertionError("dense matrix on a solver path")

    for name in ("pair_geometry", "single_matrix", "quadratic_form"):
        monkeypatch.setattr(geometry_module, name, forbidden)
        for module in (kind_module, degree_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(np, "einsum", forbidden)
    assert solve_dws(ref_scenario((0.0, 0.0, 2.0))).effective == (2,)
    assert barrier_solution(ref_scenario((0.0, 0.0, np.sqrt(REF_BARRIER_H2)))).effective == (1, 2)
    assert evaluate_kind(ref_scenario((-2.0, 0.0, 1.5))).piece == PIECE_B1
    assert barrier_height(np.array([0.0, 0.0]), REF_D1, REF_D2, REF_ALPHA) > 0.0
    mesh = sample_barrier(REF_D1, REF_D2, REF_ALPHA, lo=-3.0, hi=3.0, counts=5)
    assert set(mesh.pieces) == {PIECE_B1, PIECE_B2, PIECE_B3}


SWAPPED_PIECE = {PIECE_B1: PIECE_B2, PIECE_B2: PIECE_B1, PIECE_B3: PIECE_B3,
                 PIECE_SINGLE: PIECE_SINGLE}


class TestSymmetries:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-6, max_value=6), st.floats(min_value=0, max_value=1e6),
           st.booleans())
    def test_outcome_and_margin_invariant(self, n, seed, log_scale, reach, swap):
        # lateral rotation, uniform scaling, lateral translation (up to 1e6
        # scaled units) and defender swap leave the game unchanged
        rng = np.random.default_rng(seed)
        s, out = rand_kind_scenario(rng, n=n)
        rot, scale, shift = rand_symmetry(rng, n, log_scale, reach)
        twin = evaluate_kind(moved(s, rot, scale, shift, swap))
        assert twin.outcome == out.outcome
        assert twin.piece == (SWAPPED_PIECE[out.piece] if swap else out.piece)
        assert twin.margin == pytest.approx(out.margin, abs=1e-9)
        assert (out.margin > 0.0) == (out.outcome == DEFENDERS_WIN)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["x_d1", "x_d2"]))
    def test_mirroring_a_defender_keeps_the_outcome(self, n, seed, which):
        # only the outcome: the mirrored defender's ball moves, and with it
        # the value and the length scale of the margin
        s, out = rand_kind_scenario(np.random.default_rng(seed), n=n)
        twin = s.replace_positions(**{which: mirror_defender(getattr(s, which))})
        assert evaluate_kind(twin).outcome == out.outcome


class TestFarFrames:
    """Attackers a relative height ``delta`` above and below the reference
    barrier, with the whole state scaled and shifted laterally."""

    @pytest.fixture(scope="class")
    def probes(self):
        rng = np.random.default_rng(2019)
        out = []
        while len(out) < 200:
            lat = rng.uniform(-3.0, 3.0, 2)
            h = barrier_height(lat, REF_D1, REF_D2, REF_ALPHA)
            if h is not None:
                out.append((lat, h))
        return out

    # one ulp at 1e6 is 1.2e-10, 4e-5 of the state's length at scale 1e-6,
    # so that cell probes 1e-4 off the barrier
    @pytest.mark.parametrize("shift, scale, delta", [
        (shift, scale, 1e-4 if (shift, scale) == (1e6, 1e-6) else 1e-6)
        for shift in (0.0, 1e4, 1e6) for scale in (1.0, 1e-6, 1e-2, 1e6)])
    def test_no_winner_flips(self, probes, shift, scale, delta):
        offset = shift * np.array([1.0, 1.0]) / np.sqrt(2.0)
        wrong = []
        for lat, h in probes:
            for factor, want in ((1.0 + delta, DEFENDERS_WIN), (1.0 - delta, ATTACKER_WINS)):
                s = moved(ref_scenario((lat[0], lat[1], h * factor)),
                          scale=scale, shift=offset)
                got = evaluate_kind(s).outcome
                if got != want:
                    wrong.append((lat.tolist(), factor, got))
        assert wrong == []
