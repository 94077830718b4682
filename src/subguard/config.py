"""Centralized numeric tolerances.

All comparison thresholds used across the library live in one record so a
caller can tighten or relax the whole stack coherently instead of hunting
scattered literals.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric comparison thresholds.

    Attributes
    ----------
    rel:
        Relative tolerance, a fraction of the state's own size. A state is
        on the barrier when the attacker's height differs from the
        barrier's by at most ``rel * L``, with ``L`` the largest distance
        between two players, so the band is invariant under translation
        and scaling; the seam radius check allows ``rho^2`` down to
        ``-rel * delta^2`` of the ball it cuts.
    abs:
        Absolute tolerance for quantities expected to be exactly zero
        (lateral coincidence, height differences, heading norms).
    """

    rel: float = 1e-9
    abs: float = 1e-12


DEFAULT_TOLS = Tolerances()

# Brute-force oracle limits: per-round grid evaluations and search dimension.
ORACLE_EVAL_BUDGET = 21 ** 4
ORACLE_MAX_DIM = 6

# Barrier sampling limit: lateral grid nodes per mesh (101 per axis at n = 4).
BARRIER_NODE_BUDGET = 101 ** 3

# Stepped simulation limit: forward-Euler steps per run (callable policies or
# recorded trajectories; the exact straight-line path needs no steps).
SIMULATE_STEP_BUDGET = 10 ** 6
