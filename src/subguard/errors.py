"""Exception taxonomy for the subspace-guarding game solver.

Every failure the library raises on purpose derives from :class:`SubguardError`,
so callers (and the CLI) can separate domain errors from genuine bugs.
:class:`AssumptionViolation` is the validation family (bad scenario input);
everything else signals a numeric or usage failure on valid input.
"""


class SubguardError(Exception):
    """Base class for all library errors."""


class AssumptionViolation(SubguardError):
    """A scenario violates one of the game's standing assumptions.

    Parameters
    ----------
    assumption:
        Short name of the violated assumption, e.g. ``"Assumption 3"``.
    message:
        Human-readable detail.
    """

    def __init__(self, assumption: str, message: str):
        self.assumption = assumption
        super().__init__(f"{assumption} violated: {message}")


class ScenarioFormatError(SubguardError):
    """Scenario file or dict is malformed (missing keys, wrong shapes)."""


class ZeroNormalError(SubguardError):
    """Hyperplane normal has zero length."""


class DimensionMismatchError(SubguardError):
    """Vector or matrix shapes are inconsistent with the scenario dimension."""


class CoincidentPlayersError(SubguardError):
    """Attacker and a defender occupy the same point."""


class CoincidentDefendersError(SubguardError):
    """The two defenders occupy the same point."""


class CoincidentPointsError(SubguardError):
    """A direction was requested between two identical points."""


class DegeneratePairError(SubguardError):
    """Pairwise construction needs laterally separated defenders."""


class AttackerNotInPlayError(SubguardError):
    """Attacker is not strictly on the play side of the target hyperplane."""


class NotInDWSError(SubguardError):
    """Operation requires a defender-winning initial state."""


class NotOnBarrierError(SubguardError):
    """Operation requires an initial state on the barrier surface."""


class NotOnTargetHyperplaneError(SubguardError):
    """Point expected on the target hyperplane has nonzero height."""


class NotCanonicalError(SubguardError):
    """Operation requires a scenario already in the canonical frame."""


class NumericalDegeneracyError(SubguardError):
    """A root extraction or projection lost too much precision to trust."""


class EmptyGridError(SubguardError):
    """A sampling or search grid is empty or malformed.

    Raised for node counts, box extents or refinement rounds out of range;
    like :class:`AssumptionViolation`, it blames the caller's input.
    """


class EmptyIntersectionError(SubguardError):
    """The two reachable-set spheres do not intersect."""


class NoWinningPointError(SubguardError):
    """No target-hyperplane point is reachable strictly first by the attacker."""


class BudgetExceededError(SubguardError):
    """A grid search, mesh or stepped simulation would exceed its budget.

    Like :class:`EmptyGridError`, it blames the caller's input: the grid
    size, or a step ``dt`` too small for the run.
    """


class DimensionCapError(SubguardError):
    """Brute-force oracle invoked above its supported dimension."""


class InvalidPolicyError(SubguardError):
    """A policy returned a malformed heading (wrong shape or non-unit norm)."""
