"""Two defenders guarding a half-space against a slower attacker.

Closed-form winner classification and barrier surface (game of kind),
saddle-point strategies and value in the defender-winning region (game of
degree), a forward simulator, and independent brute-force oracles to verify
all of it. The math lives in the canonical frame where the guarded
hyperplane is ``{z_n = 0}``; :func:`canonicalize` brings any scenario there.
"""

from .config import DEFAULT_TOLS, Tolerances
from .degree import (
    CASE_BARRIER,
    CASE_ONE_EFFECTIVE,
    CASE_TWO_M_NONZERO,
    CASE_TWO_M_ZERO,
    DegreeSolution,
    barrier_solution,
    effective_defenders,
    heading,
    otp_on_barrier,
    payoff_capture_height,
    payoff_final_separation,
    solution_to_json,
    solve_dws,
)
from .errors import (
    AssumptionViolation,
    AttackerNotInPlayError,
    BudgetExceededError,
    CoincidentDefendersError,
    CoincidentPlayersError,
    CoincidentPointsError,
    DegeneratePairError,
    DimensionCapError,
    DimensionMismatchError,
    EmptyGridError,
    EmptyIntersectionError,
    InvalidPolicyError,
    NoWinningPointError,
    NotCanonicalError,
    NotInDWSError,
    NotOnBarrierError,
    NotOnTargetHyperplaneError,
    NumericalDegeneracyError,
    ScenarioFormatError,
    SubguardError,
    ZeroNormalError,
)
from .geometry import (
    ApolloniusBall,
    CanonicalTransform,
    Hyperplane,
    PairGeometry,
    Scenario,
    apollonius,
    canonicalize,
    load_scenario,
    pair_geometry,
    quadratic_form,
    scenario_from_dict,
    scenario_to_dict,
    single_matrix,
)
from .kind import (
    ATTACKER_WINS,
    DEFENDERS_WIN,
    ON_BARRIER,
    PIECE_B1,
    PIECE_B2,
    PIECE_B3,
    PIECE_SINGLE,
    REGION_A1,
    REGION_A2,
    REGION_A12,
    ActiveSet,
    BarrierMesh,
    KindOutcome,
    barrier_height,
    classify_active,
    evaluate_kind,
    mesh_to_csv,
    mesh_to_json,
    mirror_defender,
    region_label,
    sample_barrier,
)
from .oracle import (
    GridSpec,
    KindProbe,
    f_value,
    oracle_aws_target,
    oracle_kind,
    oracle_min_boundary_height,
    oracle_otp_1v1,
    oracle_otp_dws,
)
from .simulate import (
    EVENT_ARRIVED,
    EVENT_CAPTURED,
    EVENT_TIMEOUT,
    GameState,
    PolicyBundle,
    Trajectory,
    fixed_heading_policy,
    optimal_policies,
    simulate,
    to_point_policy,
    trajectory_to_csv,
    trajectory_to_json,
)

__version__ = "0.1.0"
