"""Game of kind: who wins from a given initial state, and the barrier surface.

The defender team wins exactly when the attacker sits above one
closed-form, piecewise-quadric barrier surface. Which piece applies depends
on the defender configuration:

* laterally separated defenders: three pieces, the two single-defender
  quadrics (``B1``, ``B2``) and a composite pairwise quadric (``B3``),
  selected by which lateral region the attacker occupies;
* defenders stacked on the same vertical line: the closer defender's
  quadric alone (``Single``), including the mirror-symmetric stack.

Defenders below the target hyperplane are replaced by their mirror images
before any evaluation; guarding power depends only on distance to the
hyperplane, and the surface algebra assumes nonnegative defender heights.

One kernel, ``_barrier_heights``, gives the surface's height, piece and
owner over any lateral points in O(n) work each; classification, barrier
sampling and the on-barrier solution all read it. The paper's matrices
(``geometry.single_matrix``, ``geometry.pair_geometry``) and
``region_label`` stay as the reference the kernel is tested against.

``_kind`` classifies a state once, in its unit frame: scaled by the power
of two ``2^-e`` that brings the largest coordinate gap between two players
into [0.5, 1). That scaling is exact, so each closed form there gives the
same bits, scaled, without overflow or underflow, and ``ZERO_TOL`` is a
fraction of the state's size. Its record feeds every degree solution.

All functions here require the canonical frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._text import fmt as _fmt
from .config import BARRIER_NODE_BUDGET, DEFAULT_TOLS, ZERO_TOL, Tolerances
from .errors import (
    AttackerNotInPlayError,
    BudgetExceededError,
    CoincidentDefendersError,
    DegeneratePairError,
    EmptyGridError,
    NumericalDegeneracyError,
)
from .geometry import (
    ApolloniusBall,
    PairGeometry,
    Scenario,
    _as_vector,
    _largest_distance,
    _largest_gap,
    _require_canonical,
)

PIECE_SINGLE = "Single"
PIECE_B1 = "B1"
PIECE_B2 = "B2"
PIECE_B3 = "B3"
_PIECE_BY_CODE = {0: PIECE_SINGLE, 1: PIECE_B1, 2: PIECE_B2, 3: PIECE_B3}

REGION_A1 = "A1"
REGION_A2 = "A2"
REGION_A12 = "A12"

DEFENDERS_WIN = "defenders_win"
ATTACKER_WINS = "attacker_wins"
ON_BARRIER = "on_barrier"


def mirror_defender(x_d) -> np.ndarray:
    """Reflect a position through the target hyperplane (negate the height)."""
    x = np.array(_as_vector(x_d, name="defender position"))
    x[-1] = -x[-1]
    return x


@dataclass(frozen=True)
class ActiveSet:
    """Which defenders shape the barrier: both, or a single index (1-based)."""

    two_active: bool
    index: int | None = None


def classify_active(x_d1, x_d2, tol: float = ZERO_TOL) -> ActiveSet:
    """Decide whether both defenders contribute to the barrier.

    Both are active when the defenders are laterally separated, or when they
    share the lateral position at exactly opposite heights. Otherwise only
    the defender nearer the hyperplane matters. Lengths within ``tol`` of
    zero count as zero: a fraction of the state's size in the unit frame
    where classification calls this. Coincident inputs are rejected.
    """
    d1 = _as_vector(x_d1, name="defender 1 position")
    d2 = _as_vector(x_d2, n=d1.shape[0], name="defender 2 position")
    if float(np.linalg.norm(d1 - d2)) <= tol:
        raise CoincidentDefendersError("defenders coincide")
    if float(np.linalg.norm(d1[:-1] - d2[:-1])) > tol:
        return ActiveSet(two_active=True)
    if abs(d1[-1] + d2[-1]) <= tol:
        return ActiveSet(two_active=True)
    index = 1 if abs(d1[-1]) < abs(d2[-1]) else 2
    return ActiveSet(two_active=False, index=index)


def region_label(z, geo12: PairGeometry, geo21: PairGeometry, alpha: float,
                 tol: float = ZERO_TOL) -> str:
    """Lateral region of a point: nearest-responsibility defender or seam.

    ``A1``/``A2`` mean the single-defender piece of that defender governs;
    ``A12`` is the closed middle slab where the composite piece rules.
    Points on a region boundary are labeled ``A12``. Only the lateral part
    of ``z`` matters.
    """
    z = _as_vector(z, name="point")
    if float(np.linalg.norm(geo12.a)) <= tol:
        raise DegeneratePairError("regions need laterally separated defenders")
    for geo, label in ((geo12, REGION_A1), (geo21, REGION_A2)):
        # a . z_lat > alpha^2 a . x_di_lat + (1 - alpha^2) w
        x_di_lat = geo.b + 0.5 * geo.a
        if float(geo.a @ z[:-1]) > (alpha**2 * float(geo.a @ x_di_lat)
                                    + (1.0 - alpha**2) * geo.w):
            return label
    return REGION_A12


@dataclass(frozen=True)
class KindOutcome:
    """Winner classification plus the governing surface piece and form value.

    ``margin`` is the signed height margin that decided the outcome, the
    attacker's height minus the barrier's, in units of the state's length
    scale (the largest distance between two players): above ``tols.rel``
    the defenders win, below ``-tols.rel`` the attacker does.
    """

    outcome: str
    piece: str
    form_value: float
    margin: float


# ---------------------------------------------------------------------------
# barrier surface kernel
# ---------------------------------------------------------------------------

def _barrier_heights(points, x_d1, x_d2, alpha: float):
    """The barrier surface over the rows of lateral ``points``, in O(n) a row.

    Defenders are mirrored above the hyperplane, and lateral coordinates
    are centred on their lateral midpoint, so a far lateral offset cancels
    once, in ``points - mid``. With ``a = d1_lat - d2_lat`` every pair
    product of the paper's matrices is a rank-one expression in ``a``.

    Returns ``(h2, codes, coef, owner)`` per row: the squared barrier height
    (not positive where the surface is absent above the point), the piece
    code indexing ``_PIECE_BY_CODE`` (0 = Single, 1 = B1, 2 = B2, 3 = B3),
    the piece's quadratic coefficient (its form at ``z`` is
    ``coef * (z_n^2 - h2)``), and the 1-based defender owning a
    single-defender piece (0 on ``B3``). Stacked defenders are told apart by
    ``ZERO_TOL`` in the units of the inputs.
    """
    d1, d2 = (np.append(d[:-1], abs(d[-1])) for d in (x_d1, x_d2))
    one_m, gamma = 1.0 - alpha**2, 1.0 / alpha**2 - 1.0
    mid = 0.5 * (d1[:-1] + d2[:-1])
    y, rows = points - mid, points.shape[0]

    def h2_single(offset, height):
        # gamma h^2 = ||y - offset||^2 + (1 - alpha^2) height^2
        return (np.sum((y - offset) ** 2, axis=1) + one_m * height**2) / gamma

    if float(np.linalg.norm(d1 - d2)) <= ZERO_TOL:
        # mirror-symmetric stack collapses to one virtual defender
        active = ActiveSet(two_active=False, index=1)
    else:
        active = classify_active(d1, d2)
    if not active.two_active:
        d = d1 if active.index == 1 else d2
        return (h2_single(d[:-1] - mid, d[-1]), np.zeros(rows, dtype=np.int64),
                np.full(rows, gamma), np.full(rows, active.index))
    a = d1[:-1] - d2[:-1]
    aa, h1s, h2s = float(a @ a), d1[-1] ** 2, d2[-1] ** 2
    w, s, zeta1 = 0.5 * (h1s - h2s), y @ a, one_m * aa
    zeta4 = 0.5 * one_m * alpha**2 * aa * (0.5 * aa + h1s + h2s) - one_m**2 * w**2
    h2_3 = (alpha**2 * aa * np.sum(y * y, axis=1) - s * s + 2.0 * one_m * w * s
            + zeta4) / zeta1
    in1 = s > 0.5 * alpha**2 * aa + one_m * w
    in2 = -s > 0.5 * alpha**2 * aa - one_m * w
    codes = np.where(in1, 1, np.where(in2, 2, 3))
    h2 = np.where(in1, h2_single(0.5 * a, d1[-1]),
                  np.where(in2, h2_single(-0.5 * a, d2[-1]), h2_3))
    return h2, codes, np.where(codes == 3, zeta1, gamma), np.where(codes == 3, 0, codes)


class _Kind(NamedTuple):
    """A state classified in its unit frame: the players scaled by ``2^-e``,
    the attacker's dominance balls there, the owner of a single-defender
    piece (0 on ``B3``), ``margin`` in units of L and the unit frame's form
    value, which scales back by ``2^(2e)``, or ``2^(4e)`` on ``B3``."""

    e: int
    d1: np.ndarray
    d2: np.ndarray
    a: np.ndarray
    ball1: ApolloniusBall
    ball2: ApolloniusBall
    outcome: str
    piece: str
    owner: int
    margin: float
    form: float


def _ball(x_a, x_d, alpha: float) -> ApolloniusBall:
    """``geometry.apollonius`` for players a validated scenario holds."""
    v = x_a - x_d
    denom = 1.0 - alpha**2
    return ApolloniusBall(theta=(x_a - alpha**2 * x_d) / denom,
                          delta=alpha * math.sqrt(float(v @ v)) / denom)


def _kind(scenario: Scenario, tols: Tolerances) -> _Kind:
    """Classify the attacker against the surface above it, in the state's
    unit frame."""
    _require_canonical(scenario)
    players = (scenario.x_d1, scenario.x_d2, scenario.x_a)
    if players[2][-1] <= 0.0:
        raise AttackerNotInPlayError("attacker must sit strictly above the hyperplane")
    top = _largest_gap(players)
    if top == math.inf:
        raise NumericalDegeneracyError("player offsets overflow the float range")
    e = math.frexp(top)[1]
    d1, d2, a = (np.ldexp(p, -e) for p in players)
    alpha = scenario.alpha
    h2, codes, coef, owner = _barrier_heights(a[None, :-1], d1, d2, alpha)
    z, h2 = float(a[-1]), float(h2[0])
    gap = z * z - h2
    # z - h, formed without cancellation; equal to gap / z when h is absent
    margin = gap / (z + math.sqrt(max(h2, 0.0))) / _largest_distance((d1, d2, a))
    if margin > tols.rel:
        outcome = DEFENDERS_WIN
    elif margin < -tols.rel:
        outcome = ATTACKER_WINS
    else:
        outcome = ON_BARRIER
    return _Kind(e=e, d1=d1, d2=d2, a=a, ball1=_ball(a, d1, alpha),
                 ball2=_ball(a, d2, alpha), outcome=outcome,
                 piece=_PIECE_BY_CODE[int(codes[0])], owner=int(owner[0]),
                 margin=margin, form=float(coef[0]) * gap)


def evaluate_kind(scenario: Scenario, tols: Tolerances = DEFAULT_TOLS) -> KindOutcome:
    """Classify an initial state: defenders win, attacker wins, or barrier.

    Compares the attacker's height with the barrier's above its lateral
    position. The state is on the barrier when the two differ by at most
    ``tols.rel * L``, with ``L`` the largest distance between two players,
    so the band moves with the state under translation and scaling. The
    reported ``form_value`` is the governing piece's quadratic form at the
    attacker, ``coef * (z_n^2 - h^2)``. It grows as L^2, or L^4 on ``B3``:
    past the float range it is a signed ``inf``, below it rounds to 0.
    """
    k = _kind(scenario, tols)
    try:
        form_value = math.ldexp(k.form, (4 if k.piece == PIECE_B3 else 2) * k.e)
    except OverflowError:
        form_value = math.copysign(math.inf, k.form)
    return KindOutcome(outcome=k.outcome, piece=k.piece, form_value=form_value,
                       margin=k.margin)


def barrier_height(z_lat, x_d1, x_d2, alpha: float) -> float | None:
    """Height of the barrier surface above a lateral point, if present.

    Solves the governing piece's quadric for its positive root over the
    given lateral coordinates. Returns None where the quadric has no point
    strictly above the hyperplane (the surface is absent there and the
    defenders win the whole vertical fiber).
    """
    z_lat = np.atleast_1d(np.asarray(z_lat, dtype=float))
    d1 = _as_vector(x_d1, name="defender 1 position")
    d2 = _as_vector(x_d2, n=d1.shape[0], name="defender 2 position")
    h2 = float(_barrier_heights(z_lat[None, :], d1, d2, float(alpha))[0][0])
    return math.sqrt(h2) if h2 > 0.0 else None


@dataclass(frozen=True)
class BarrierMesh:
    """Sampled barrier points (rows of ``points``) with their piece labels."""

    points: np.ndarray
    pieces: list[str]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def sample_barrier(x_d1, x_d2, alpha: float, lo, hi, counts) -> BarrierMesh:
    """Sample the barrier over an axis-aligned lateral box.

    ``lo``/``hi`` bound each lateral axis and ``counts`` gives nodes per
    axis (1 collapses an axis to its ``lo`` value); the grid may hold at
    most ``BARRIER_NODE_BUDGET`` nodes. Lateral nodes where the surface is
    absent are dropped, so the mesh can be empty even for a nonempty grid.
    """
    d1 = _as_vector(x_d1, name="defender 1 position")
    n = d1.shape[0]
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n - 1,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n - 1,)).copy()
    counts = np.broadcast_to(np.asarray(counts, dtype=int), (n - 1,)).copy()
    if np.any(counts < 1):
        raise EmptyGridError(f"grid counts must all be >= 1, got {counts.tolist()}")
    if np.any(hi < lo):
        raise EmptyGridError("grid has hi < lo on some axis")
    if math.prod(counts.tolist()) > BARRIER_NODE_BUDGET:
        raise BudgetExceededError(
            f"grid counts {counts.tolist()} exceed the budget of "
            f"{BARRIER_NODE_BUDGET} nodes")
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(n - 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    lat = np.stack([g.ravel() for g in grids], axis=1)
    d2 = _as_vector(x_d2, n=n, name="defender 2 position")
    h2, codes, _, _ = _barrier_heights(lat, d1, d2, float(alpha))
    keep = h2 > 0.0
    pts = np.concatenate([lat[keep], np.sqrt(h2[keep])[:, None]], axis=1)
    labels = [_PIECE_BY_CODE[int(c)] for c in codes[keep]]
    return BarrierMesh(points=pts, pieces=labels)


# ---------------------------------------------------------------------------
# mesh wire formats
# ---------------------------------------------------------------------------

def mesh_to_csv(mesh: BarrierMesh) -> str:
    n = mesh.n
    header = ",".join([f"z{i + 1}" for i in range(n)] + ["piece"])
    lines = [header]
    for row, piece in zip(mesh.points, mesh.pieces):
        lines.append(",".join([_fmt(v) for v in row] + [piece]))
    return "\n".join(lines) + "\n"


def mesh_to_json(mesh: BarrierMesh) -> str:
    records = []
    for row, piece in zip(mesh.points, mesh.pieces):
        coords = ", ".join(_fmt(v) for v in row)
        records.append(f'{{"points": [{coords}], "piece": "{piece}"}}')
    return "[" + ", ".join(records) + "]\n"
