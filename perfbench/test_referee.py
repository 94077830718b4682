"""The referee against hand-derived values of the paper's worked example.

    python3 -m pytest perfbench/test_referee.py

Defenders at (-1.5, 0, -1) and (1.5, 0, 1.5), speed ratio 1/2: from
(0, 0, 2) the defenders win with value (13 - 2 sqrt 10) / 6 at
(-1/2, 0, value), bound by defender 2 alone; above the origin the barrier
sits at height sqrt(719/768).
"""

import math

import numpy as np

import referee as R

D1, D2, ALPHA = (-1.5, 0.0, -1.0), (1.5, 0.0, 1.5), 0.5


def test_worked_state_value_and_target():
    low = R.lowest_point((0.0, 0.0, 2.0), D1, D2, ALPHA)
    value = (13.0 - 2.0 * math.sqrt(10.0)) / 6.0
    assert low.binding == (2,)
    assert np.allclose(low.point, [-0.5, 0.0, value], rtol=0.0, atol=1e-12)


def test_barrier_height_above_origin():
    h = R.barrier_height((0.0, 0.0), D1, D2, ALPHA)
    assert abs(h - math.sqrt(719.0 / 768.0)) <= 1e-12
    assert R.outcome((0.0, 0.0, h * (1 + 1e-9)), D1, D2, ALPHA) == R.DEFENDERS_WIN
    assert R.outcome((0.0, 0.0, h * (1 - 1e-9)), D1, D2, ALPHA) == R.ATTACKER_WINS


def test_outcome_ignores_which_side_a_defender_is_on():
    for a in ((0.0, 0.0, 2.0), (0.0, 0.0, 0.5), (0.7, -0.3, 1.1)):
        below = R.outcome(a, D1, D2, ALPHA)
        above = R.outcome(a, (-1.5, 0.0, 1.0), D2, ALPHA)
        assert below == above


def test_seam_point_lies_on_both_spheres():
    rng = np.random.default_rng(7)
    seen = 0
    while seen < 50:
        d1, d2 = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        a = np.append(rng.uniform(-1, 1, 3), rng.uniform(1.5, 3.0))
        if R.outcome(a, d1, d2, 0.6) != R.DEFENDERS_WIN:
            continue
        low = R.lowest_point(a, d1, d2, 0.6)
        balls = [R.ball(a, d, 0.6) for d in (d1, d2)]
        for i, b in enumerate(balls, start=1):
            assert b.gap(low.point) >= -1e-12  # inside both closed balls
            if i in low.binding:
                assert abs(b.gap(low.point)) <= 1e-12  # on each binding sphere
        seen += 1
