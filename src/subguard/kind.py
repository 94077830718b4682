"""Game of kind: who wins from a given initial state, and the barrier surface.

The defender team wins exactly when the attacker sits on the positive side
of one closed-form quadratic surface. Which surface applies depends on the
defender configuration:

* laterally separated defenders: three pieces, the two single-defender
  quadrics (``B1``, ``B2``) and a composite pairwise quadric (``B3``),
  selected by which lateral region the attacker occupies;
* defenders stacked on the same vertical line: the closer defender's
  quadric alone (``Single``), including the mirror-symmetric stack.

Defenders below the target hyperplane are replaced by their mirror images
before any evaluation; guarding power depends only on distance to the
hyperplane, and the surface algebra assumes nonnegative defender heights.

All functions here require the canonical frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._text import fmt as _fmt
from .config import BARRIER_NODE_BUDGET, DEFAULT_TOLS, Tolerances
from .errors import (
    AttackerNotInPlayError,
    BudgetExceededError,
    CoincidentDefendersError,
    DegeneratePairError,
    EmptyGridError,
)
from .geometry import (
    PairGeometry,
    Scenario,
    _as_vector,
    _require_canonical,
    pair_geometry,
    quadratic_form,
    single_matrix,
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


def _mirrored(x_d) -> np.ndarray:
    x = np.array(np.asarray(x_d, dtype=float))
    if x[-1] < 0.0:
        x[-1] = -x[-1]
    return x


@dataclass(frozen=True)
class ActiveSet:
    """Which defenders shape the barrier: both, or a single index (1-based)."""

    two_active: bool
    index: int | None = None


def classify_active(x_d1, x_d2, tol: float = DEFAULT_TOLS.abs) -> ActiveSet:
    """Decide whether both defenders contribute to the barrier.

    Both are active when the defenders are laterally separated, or when they
    share the lateral position at exactly opposite heights. Otherwise only
    the defender nearer the hyperplane matters. Equality comparisons use an
    absolute tolerance; coincident inputs are rejected.
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


def _region_threshold(geo: PairGeometry, alpha: float) -> float:
    # region boundary: a . z_lat > alpha^2 a . x_di_lat + (1 - alpha^2) w
    x_di_lat = geo.b + 0.5 * geo.a
    return alpha**2 * float(geo.a @ x_di_lat) + (1.0 - alpha**2) * geo.w


def region_label(z, geo12: PairGeometry, geo21: PairGeometry, alpha: float,
                 tol: float = DEFAULT_TOLS.abs) -> str:
    """Lateral region of a point: nearest-responsibility defender or seam.

    ``A1``/``A2`` mean the single-defender piece of that defender governs;
    ``A12`` is the closed middle slab where the composite piece rules.
    Points on a region boundary are labeled ``A12``. Only the lateral part
    of ``z`` matters.
    """
    z = _as_vector(z, name="point")
    if float(np.linalg.norm(geo12.a)) <= tol:
        raise DegeneratePairError("regions need laterally separated defenders")
    s = float(geo12.a @ z[:-1])
    if s > _region_threshold(geo12, alpha):
        return REGION_A1
    if float(geo21.a @ z[:-1]) > _region_threshold(geo21, alpha):
        return REGION_A2
    return REGION_A12


@dataclass(frozen=True)
class KindOutcome:
    """Winner classification plus the governing surface piece and form value."""

    outcome: str
    piece: str
    form_value: float


def _governing_piece(scenario: Scenario, tols: Tolerances):
    """Mirrored branch logic shared by classification and target construction.

    Returns ``(piece, xi, owner, geo12)``: the governing piece label for the
    attacker's lateral position, its quadric, the 1-based defender owning a
    single-defender piece (None for the composite ``B3``), and the pair
    geometry when both defenders are active.
    """
    d1m = _mirrored(scenario.x_d1)
    d2m = _mirrored(scenario.x_d2)
    alpha = scenario.alpha
    if float(np.linalg.norm(d1m - d2m)) <= tols.abs:
        # mirror-symmetric stack collapses to one virtual defender
        return PIECE_SINGLE, single_matrix(d1m, alpha), 1, None
    active = classify_active(d1m, d2m, tol=tols.abs)
    if not active.two_active:
        chosen = d1m if active.index == 1 else d2m
        return PIECE_SINGLE, single_matrix(chosen, alpha), active.index, None
    geo12 = pair_geometry(d1m, d2m, alpha)
    geo21 = pair_geometry(d2m, d1m, alpha)
    label = region_label(scenario.x_a, geo12, geo21, alpha, tol=tols.abs)
    if label == REGION_A1:
        return PIECE_B1, single_matrix(d1m, alpha), 1, geo12
    if label == REGION_A2:
        return PIECE_B2, single_matrix(d2m, alpha), 2, geo12
    return PIECE_B3, geo12.xi, None, geo12


def evaluate_kind(scenario: Scenario, tols: Tolerances = DEFAULT_TOLS) -> KindOutcome:
    """Classify an initial state: defenders win, attacker wins, or barrier.

    Evaluates the governing quadratic form at the attacker position. The
    on-barrier band is ``|form| <= tols.rel * (1 + ||x_a||^2)``, scaling with
    the form's own quadratic growth.
    """
    _require_canonical(scenario)
    if scenario.x_a[-1] <= 0.0:
        raise AttackerNotInPlayError("attacker must sit strictly above the hyperplane")
    piece, xi, _, _ = _governing_piece(scenario, tols)
    form = quadratic_form(xi, scenario.x_a)
    band = tols.rel * (1.0 + float(scenario.x_a @ scenario.x_a))
    if form > band:
        outcome = DEFENDERS_WIN
    elif form < -band:
        outcome = ATTACKER_WINS
    else:
        outcome = ON_BARRIER
    return KindOutcome(outcome=outcome, piece=piece, form_value=form)


# ---------------------------------------------------------------------------
# barrier surface evaluation
# ---------------------------------------------------------------------------

def _barrier_heights(points, x_d1, x_d2, alpha: float, tols: Tolerances):
    """Barrier heights and piece codes over the rows of lateral ``points``.

    Codes index ``_PIECE_BY_CODE`` (0 = Single, 1 = B1, 2 = B2, 3 = B3).
    Height is NaN where the selected quadric has no positive root (surface
    absent above that point).
    """
    d1 = _mirrored(_as_vector(x_d1, name="defender 1 position"))
    d2 = _mirrored(_as_vector(x_d2, n=d1.shape[0], name="defender 2 position"))
    alpha = float(alpha)
    gamma = 1.0 / alpha**2 - 1.0
    pp = np.sum(points * points, axis=1)

    def h2_single(d):
        k = float(d @ d) - alpha**2 * d[-1] ** 2
        return (pp - 2.0 * points @ d[:-1] + k) / gamma

    if float(np.linalg.norm(d1 - d2)) <= tols.abs:
        # mirror-symmetric stack collapses to one virtual defender
        active = ActiveSet(two_active=False, index=1)
    else:
        active = classify_active(d1, d2, tol=tols.abs)
    if active.two_active:
        geo12 = pair_geometry(d1, d2, alpha)
        geo21 = pair_geometry(d2, d1, alpha)
        h2_3 = (np.einsum("md,de,me->m", points, geo12.zeta2, points)
                + 2.0 * points @ geo12.zeta3 + geo12.zeta4) / geo12.zeta1
        s = points @ geo12.a
        in1 = s > _region_threshold(geo12, alpha)
        in2 = -s > _region_threshold(geo21, alpha)
        codes = np.where(in1, 1, np.where(in2, 2, 3))
        h2 = np.where(in1, h2_single(d1), np.where(in2, h2_single(d2), h2_3))
    else:
        codes = np.zeros(points.shape[0], dtype=np.int64)
        h2 = h2_single(d1 if active.index == 1 else d2)
    return np.where(h2 > 0.0, np.sqrt(np.maximum(h2, 0.0)), np.nan), codes


def barrier_height(z_lat, x_d1, x_d2, alpha: float,
                   tols: Tolerances = DEFAULT_TOLS) -> float | None:
    """Height of the barrier surface above a lateral point, if present.

    Solves the governing piece's quadric for its positive root over the
    given lateral coordinates. Returns None where the quadric has no point
    strictly above the hyperplane (the surface is absent there and the
    defenders win the whole vertical fiber).
    """
    z_lat = np.atleast_1d(np.asarray(z_lat, dtype=float))
    heights, _ = _barrier_heights(z_lat[None, :], x_d1, x_d2, alpha, tols)
    h = float(heights[0])
    return None if np.isnan(h) else h


@dataclass(frozen=True)
class BarrierMesh:
    """Sampled barrier points (rows of ``points``) with their piece labels."""

    points: np.ndarray
    pieces: list[str]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def sample_barrier(x_d1, x_d2, alpha: float, lo, hi, counts,
                   tols: Tolerances = DEFAULT_TOLS) -> BarrierMesh:
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
    heights, codes = _barrier_heights(lat, x_d1, x_d2, alpha, tols)
    keep = ~np.isnan(heights)
    pts = np.concatenate([lat[keep], heights[keep, None]], axis=1)
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
