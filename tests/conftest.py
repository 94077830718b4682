"""Shared builders: canonical scenarios, random instance generators.

The random generators rejection-sample against the library's own
classification, so every yielded instance is valid by construction and
sits comfortably inside its class (no borderline states that would make
tolerance checks flaky).
"""

import numpy as np
import pytest
from hypothesis import example

from subguard import (
    CASE_TWO_M_NONZERO,
    CASE_TWO_M_ZERO,
    DEFENDERS_WIN,
    EVENT_ARRIVED,
    EVENT_CAPTURED,
    Hyperplane,
    Scenario,
    SubguardError,
    apollonius,
    effective_defenders,
    evaluate_kind,
)

# reference configuration used for all hand-derived golden values:
# defenders at (-1.5, 0, -1) and (1.5, 0, 1.5), speed ratio 1/2, n = 3
REF_D1 = (-1.5, 0.0, -1.0)
REF_D2 = (1.5, 0.0, 1.5)
REF_ALPHA = 0.5

# attacker heights for the three outcomes above the lateral origin
REF_XA_DWS = (0.0, 0.0, 2.0)
REF_XA_AWS = (0.0, 0.0, 0.5)
REF_BARRIER_H2 = 719.0 / 768.0  # squared on-barrier height above the origin


def canonical_scenario(n, d1, d2, a, alpha=REF_ALPHA, v_d=None, v_a=None):
    """Scenario already in the canonical frame (hyperplane z_n = 0)."""
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    return Scenario(n=n, hyperplane=Hyperplane(K=e_n, b=0.0),
                    x_d1=d1, x_d2=d2, x_a=a, alpha=alpha, v_d=v_d, v_a=v_a)


def ref_scenario(x_a):
    return canonical_scenario(3, REF_D1, REF_D2, x_a)


def length(scenario):
    """The state's length scale: its largest distance between two players,
    measured on gaps divided by their largest entry so that no square
    overflows or underflows at any scale."""
    p = (scenario.x_d1, scenario.x_d2, scenario.x_a)
    gaps = [p[i] - p[j] for i, j in ((0, 1), (0, 2), (1, 2))]
    top = max(float(np.abs(g).max()) for g in gaps)
    return top * max(float(np.linalg.norm(g / top)) for g in gaps)


def moved(scenario, rot=None, scale=1.0, shift=None, swap=False):
    """Canonical twin of a canonical scenario under a symmetry of the game.

    Rotates the lateral axes by the orthogonal ``rot``, scales uniformly by
    ``scale``, shifts laterally by ``shift`` and, with ``swap``, lists the
    defenders in the other order.
    """
    def move(x):
        x = np.array(x, dtype=float)
        if rot is not None:
            x[:-1] = rot @ x[:-1]
        x *= scale
        if shift is not None:
            x[:-1] += shift
        return x

    d1, d2 = (scenario.x_d2, scenario.x_d1) if swap else (scenario.x_d1, scenario.x_d2)
    return canonical_scenario(scenario.n, move(d1), move(d2), move(scenario.x_a),
                              scenario.alpha)


def rand_symmetry(rng, n, log_scale, reach):
    """A random lateral rotation, the scale ``10**log_scale``, and a lateral
    shift of ``reach`` scaled lengths in a random direction."""
    rot, _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    scale = 10.0 ** log_scale
    direction = rng.standard_normal(n - 1)
    return rot, scale, scale * reach * direction / float(np.linalg.norm(direction))


# scales at both ends of the float range and just past where absolute
# tolerances used to act, as (n, seed, log_scale, reach, swap) arguments of
# the symmetry properties
FAR_SCALES = [(3, 1, -300.0, 1e6, True), (4, 2, -13.0, 0.0, False),
              (5, 3, 13.0, 1e6, True), (2, 4, 300.0, 1e6, False)]


def far_scale_examples(test):
    """Run a symmetry property on every ``FAR_SCALES`` case, besides its draws."""
    for args in FAR_SCALES:
        test = example(*args)(test)
    return test


@pytest.fixture
def ref_dws():
    return ref_scenario(REF_XA_DWS)


@pytest.fixture
def ref_aws():
    return ref_scenario(REF_XA_AWS)


@pytest.fixture
def ref_barrier():
    return ref_scenario((0.0, 0.0, float(np.sqrt(REF_BARRIER_H2))))


# ---------------------------------------------------------------------------
# random instance generators (all rejection-sampled, deterministic via rng)
# ---------------------------------------------------------------------------

def rand_kind_scenario(rng, n=None, margin=0.05, tries=500):
    """Random scenario whose winner form is comfortably signed.

    The margin is measured on the form normalized by its quadratic growth
    scale 1 + ||x_a||^2.
    """
    for _ in range(tries):
        dim = int(rng.integers(2, 5)) if n is None else n
        alpha = float(rng.uniform(0.25, 0.85))
        d1 = np.append(rng.uniform(-2, 2, dim - 1), rng.uniform(-1.5, 2.5))
        d2 = np.append(rng.uniform(-2, 2, dim - 1), rng.uniform(-1.5, 2.5))
        a = np.append(rng.uniform(-2.5, 2.5, dim - 1), rng.uniform(0.2, 3.0))
        try:
            s = canonical_scenario(dim, d1, d2, a, alpha)
            out = evaluate_kind(s)
        except SubguardError:
            continue
        if abs(out.form_value) / (1.0 + float(a @ a)) > margin:
            return s, out
    raise RuntimeError("kind generator exhausted its tries")


def rand_two_effective(rng, want_zero, n=None, tries=800):
    """Random defender-winning state where both defenders bind.

    ``want_zero`` selects the branch of the defenders' height difference:
    True pins both defenders to one height, False resamples until the
    heights differ.
    """
    for _ in range(tries):
        dim = int(rng.integers(2, 5)) if n is None else n
        alpha = float(rng.uniform(0.3, 0.8))
        h1 = float(rng.uniform(0.3, 2.0))
        h2 = h1 if want_zero else float(rng.uniform(0.3, 2.0))
        d1 = np.append(rng.uniform(-2, 2, dim - 1), h1)
        d2 = np.append(rng.uniform(-2, 2, dim - 1), h2)
        a = np.append(rng.uniform(-1.5, 1.5, dim - 1), rng.uniform(0.5, 3.0))
        try:
            s = canonical_scenario(dim, d1, d2, a, alpha)
            case, _ = effective_defenders(s)
        except SubguardError:
            continue
        if case == (CASE_TWO_M_ZERO if want_zero else CASE_TWO_M_NONZERO):
            return s
    raise RuntimeError("two-effective generator exhausted its tries")


def rand_mirror_scenario(rng, tries=500):
    """Random scenario with at least one defender strictly below the plane."""
    for _ in range(tries):
        dim = int(rng.integers(2, 5))
        alpha = float(rng.uniform(0.25, 0.85))
        d1 = np.append(rng.uniform(-2, 2, dim - 1), rng.uniform(-2.5, -0.05))
        d2 = np.append(rng.uniform(-2, 2, dim - 1), rng.uniform(-1.5, 2.5))
        a = np.append(rng.uniform(-2.5, 2.5, dim - 1), rng.uniform(0.2, 3.0))
        try:
            return canonical_scenario(dim, d1, d2, a, alpha)
        except SubguardError:
            continue
    raise RuntimeError("mirror generator exhausted its tries")


def rand_dws_scenario(rng, n=3, margin=0.05, tries=800):
    """Random strictly defender-winning state with a safety margin."""
    for _ in range(tries):
        alpha = float(rng.uniform(0.3, 0.8))
        d1 = np.append(rng.uniform(-2, 2, n - 1), rng.uniform(-1.0, 2.0))
        d2 = np.append(rng.uniform(-2, 2, n - 1), rng.uniform(-1.0, 2.0))
        a = np.append(rng.uniform(-1.5, 1.5, n - 1), rng.uniform(0.5, 2.5))
        try:
            s = canonical_scenario(n, d1, d2, a, alpha)
            out = evaluate_kind(s)
        except SubguardError:
            continue
        if out.outcome == DEFENDERS_WIN and out.form_value / (1.0 + float(a @ a)) > margin:
            return s
    raise RuntimeError("defender-winning generator exhausted its tries")


def sample_boundary_point(rng, scenario, tries=500):
    """Random point on the boundary of the attacker's dominance region.

    Draws on one sphere and keeps the point if the other closed ball admits
    it. Returns None when the region is too thin to hit (caller falls back
    to the optimal point, a legal degenerate deviation).
    """
    balls = (apollonius(scenario.x_a, scenario.x_d1, scenario.alpha),
             apollonius(scenario.x_a, scenario.x_d2, scenario.alpha))
    for _ in range(tries):
        i = int(rng.integers(2))
        bi, bj = balls[i], balls[1 - i]
        xi = rng.standard_normal(scenario.n)
        q = bi.theta + bi.delta * xi / float(np.linalg.norm(xi))
        if float(np.linalg.norm(q - bj.theta)) <= bj.delta:
            return q
    return None


def outcome_height(traj):
    """Realized payoff of one run: capture height, zero on breach, or the
    attacker's final height when nothing ever fires."""
    if traj.event == EVENT_CAPTURED:
        return traj.capture_height
    if traj.event == EVENT_ARRIVED:
        return 0.0
    return float(traj.positions[-1][2][-1])
