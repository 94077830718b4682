"""Centralized numeric tolerances.

Every comparison threshold is relative to the state's own size, so an
answer does not change when the whole state is scaled or shifted. The one
settable threshold lives in :class:`Tolerances`; the rest are constants.
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
    """

    rel: float = 1e-9


DEFAULT_TOLS = Tolerances()

# Lengths that count as zero (stacked or level defenders, a ball bottom on
# the other sphere, coincident points), in the state's unit frame
# (``subguard.kind``): a fraction of the state's size.
ZERO_TOL = 1e-12

# Brute-force oracle limit: grid evaluations per refinement round.
ORACLE_EVAL_BUDGET = 21 ** 4

# Barrier sampling limit: lateral grid nodes per mesh (101 per axis at n = 4).
BARRIER_NODE_BUDGET = 101 ** 3

# Stepped simulation limit: forward-Euler steps per run (callable policies or
# recorded trajectories; the exact straight-line path needs no steps).
SIMULATE_STEP_BUDGET = 10 ** 6
