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
        Relative tolerance. Scales with the magnitude of the quantities
        involved; used e.g. for the barrier-membership band, which is
        ``rel * (1 + ||x_A||^2)`` wide in quadratic-form units.
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
