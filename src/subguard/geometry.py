"""Frames, scenarios, and the quadratic geometry of the guarding game.

Two defenders guard the closed half-space on one side of a hyperplane
``{z : K^T z = b}`` against a slower attacker. All solver mathematics lives
in the canonical frame where the hyperplane is ``{z_n = 0}`` and the attacker
side is ``{z_n > 0}``; :func:`canonicalize` maps any scenario there by a
rigid isometry (Householder reflection + translation).

The closed-form theory is carried by three constructions:

* :func:`single_matrix` - the symmetric matrix whose quadratic form signs
  the one-defender winning regions,
* :func:`pair_geometry` - pairwise quantities and the analogous matrix for
  the two-defender composite barrier,
* :func:`apollonius` - the dominance ball of a defender over the attacker
  (all points the attacker reaches strictly first).

The solvers evaluate the two matrix forms through the O(n) surface kernel
in :mod:`subguard.kind`; the dense matrices are the paper's reference.

Conventions: positions are 1-D float arrays of length ``n >= 2``; the last
coordinate is "height" above the target hyperplane in the canonical frame;
``lat`` refers to the remaining ``n - 1`` lateral coordinates. The speed
ratio ``alpha = v_A / v_D`` is strictly inside (0, 1).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    AssumptionViolation,
    CoincidentDefendersError,
    CoincidentPlayersError,
    DimensionMismatchError,
    NotCanonicalError,
    NumericalDegeneracyError,
    ScenarioFormatError,
    ZeroNormalError,
)


def _as_vector(x, n=None, name="vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatchError(f"{name} must have length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ScenarioFormatError(f"{name} contains non-finite entries")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise AssumptionViolation("Assumption 3", f"speed ratio must lie in (0, 1), got {alpha}")
    return alpha


@dataclass(frozen=True)
class Hyperplane:
    """Target hyperplane ``{z : K^T z = b}`` with attacker side ``K^T z > b``."""

    K: np.ndarray
    b: float

    def __post_init__(self):
        K = _as_vector(self.K, name="hyperplane normal K")
        if float(np.linalg.norm(K)) == 0.0:
            raise ZeroNormalError("hyperplane normal K must be nonzero")
        object.__setattr__(self, "K", _frozen(K))
        object.__setattr__(self, "b", float(self.b))

    def side(self, z) -> float:
        """Signed offset ``K^T z - b`` (positive on the attacker side)."""
        return float(self.K @ np.asarray(z, dtype=float) - self.b)


@dataclass(frozen=True)
class Scenario:
    """One game instance: hyperplane, two defenders, one attacker, speeds.

    Construction validates the standing assumptions and raises
    :class:`AssumptionViolation` naming the violated one:

    * Assumption 1 - the three players occupy pairwise distinct points,
    * Assumption 2 - the attacker starts strictly on the play side,
    * Assumption 3 - ``alpha = v_A / v_D`` lies strictly in (0, 1).

    ``alpha`` may be omitted when both speeds are given (it is derived);
    when both forms are present they must agree to 1e-12.
    """

    n: int
    hyperplane: Hyperplane
    x_d1: np.ndarray
    x_d2: np.ndarray
    x_a: np.ndarray
    alpha: float | None = None
    v_d: float | None = None
    v_a: float | None = None

    def __post_init__(self):
        n = int(self.n)
        if n < 2:
            raise ScenarioFormatError(f"dimension n must be >= 2, got {n}")
        object.__setattr__(self, "n", n)
        if self.hyperplane.K.shape[0] != n:
            raise DimensionMismatchError(
                f"hyperplane normal has length {self.hyperplane.K.shape[0]}, scenario n={n}")
        for name in ("x_d1", "x_d2", "x_a"):
            object.__setattr__(self, name, _frozen(_as_vector(getattr(self, name), n, name)))

        alpha = self.alpha
        if self.v_d is not None or self.v_a is not None:
            if self.v_d is None or self.v_a is None:
                raise ScenarioFormatError("give both speeds or neither")
            v_d, v_a = float(self.v_d), float(self.v_a)
            if v_d <= 0 or v_a <= 0:
                raise ScenarioFormatError("speeds must be positive")
            ratio = v_a / v_d
            if alpha is None:
                alpha = ratio
            elif abs(float(alpha) - ratio) > 1e-12:
                raise ScenarioFormatError(
                    f"alpha={alpha} inconsistent with v_A/v_D={ratio}")
            object.__setattr__(self, "v_d", v_d)
            object.__setattr__(self, "v_a", v_a)
        elif alpha is None:
            raise ScenarioFormatError("scenario needs alpha or both speeds")
        object.__setattr__(self, "alpha", _check_alpha(alpha))

        if np.array_equal(self.x_d1, self.x_d2):
            raise AssumptionViolation("Assumption 1", "defenders coincide")
        if np.array_equal(self.x_d1, self.x_a) or np.array_equal(self.x_d2, self.x_a):
            raise AssumptionViolation("Assumption 1", "attacker coincides with a defender")
        if self.hyperplane.side(self.x_a) <= 0.0:
            raise AssumptionViolation(
                "Assumption 2", "attacker must start strictly on the play side K^T z > b")

    @property
    def speed_d(self) -> float:
        """Defender speed; defaults to 1 when only the ratio was given."""
        return self.v_d if self.v_d is not None else 1.0

    @property
    def speed_a(self) -> float:
        return self.v_a if self.v_a is not None else self.alpha * self.speed_d

    def is_canonical(self, tol: float = 1e-12) -> bool:
        """True when the hyperplane is already ``{z_n = 0}`` with unit normal."""
        K, b = self.hyperplane.K, self.hyperplane.b
        e_n = np.zeros(self.n)
        e_n[-1] = 1.0
        return abs(b) <= tol and float(np.linalg.norm(K - e_n)) <= tol

    def replace_positions(self, x_d1=None, x_d2=None, x_a=None) -> "Scenario":
        """Copy with some positions swapped out (revalidates)."""
        return Scenario(
            n=self.n, hyperplane=self.hyperplane,
            x_d1=self.x_d1 if x_d1 is None else x_d1,
            x_d2=self.x_d2 if x_d2 is None else x_d2,
            x_a=self.x_a if x_a is None else x_a,
            alpha=self.alpha, v_d=self.v_d, v_a=self.v_a)


def _require_canonical(scenario: Scenario):
    if not scenario.is_canonical():
        raise NotCanonicalError(
            "operation requires the canonical frame; call canonicalize() first")


def _largest_gap(points) -> float:
    """The largest coordinate gap between two of the points: a state's size,
    measured without squaring; ``inf`` when a gap overflows."""
    with np.errstate(over="ignore"):
        return max(float(abs(p - q).max()) for p, q in combinations(points, 2))


def _largest_distance(points) -> float:
    """L, the largest distance between two of the points."""
    return math.sqrt(max(float(v @ v) for v in (p - q for p, q in combinations(points, 2))))


def _require_normal_gap(*points) -> None:
    """Raise :class:`NumericalDegeneracyError` unless the largest coordinate
    gap between two of the points squares to a normal float, as code that
    squares the players' distances in their own frame needs."""
    top = _largest_gap(points)
    if not sys.float_info.min <= top * top < math.inf:
        raise NumericalDegeneracyError(
            f"squared player offsets overflow or underflow the float range "
            f"(largest coordinate gap {top:.3g})")


@dataclass(frozen=True)
class CanonicalTransform:
    """Rigid isometry ``z -> Q (z - t)`` taking a scenario to canonical frame.

    ``Q`` is a symmetric orthogonal (Householder) matrix, so the inverse is
    ``z -> Q^T z + t`` and directions map without the translation.
    """

    Q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _frozen(self.Q))
        object.__setattr__(self, "t", _frozen(self.t))

    def to_canonical(self, z) -> np.ndarray:
        return self.Q @ (np.asarray(z, dtype=float) - self.t)

    def to_world(self, z) -> np.ndarray:
        return self.Q.T @ np.asarray(z, dtype=float) + self.t

    def dir_to_canonical(self, u) -> np.ndarray:
        return self.Q @ np.asarray(u, dtype=float)

    def dir_to_world(self, u) -> np.ndarray:
        return self.Q.T @ np.asarray(u, dtype=float)


def canonicalize(scenario: Scenario) -> tuple[Scenario, CanonicalTransform]:
    """Map a scenario to the canonical frame (hyperplane ``z_n = 0``).

    The rotation is the Householder reflection sending the unit normal to
    ``e_n`` (identity when they already agree to 1e-12); the translation
    moves the hyperplane's foot point to the origin. Distances, the speed
    ratio, and every winner classification are preserved exactly.
    """
    n = scenario.n
    K = scenario.hyperplane.K
    norm_k = float(np.linalg.norm(K))
    k_hat = K / norm_k
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    v = k_hat - e_n
    if k_hat[-1] > 0.0:
        # k_hat[-1] - 1 cancels when the normal is nearly e_n; the equal
        # form -||k_lat||^2 / (1 + k_hat[-1]) keeps the tilt it encodes
        v[-1] = -float(k_hat[:-1] @ k_hat[:-1]) / (1.0 + k_hat[-1])
    vnorm2 = float(v @ v)
    if np.sqrt(vnorm2) <= 1e-12:
        Q = np.eye(n)
    else:
        Q = np.eye(n) - 2.0 * np.outer(v, v) / vnorm2
    t = (scenario.hyperplane.b / norm_k**2) * K
    xf = CanonicalTransform(Q=Q, t=t)
    canon = Scenario(
        n=n,
        hyperplane=Hyperplane(K=e_n, b=0.0),
        x_d1=xf.to_canonical(scenario.x_d1),
        x_d2=xf.to_canonical(scenario.x_d2),
        x_a=xf.to_canonical(scenario.x_a),
        alpha=scenario.alpha, v_d=scenario.v_d, v_a=scenario.v_a)
    return canon, xf


# ---------------------------------------------------------------------------
# quadratic constructions
# ---------------------------------------------------------------------------

def single_matrix(x_d, alpha: float) -> np.ndarray:
    """Symmetric (n+1)x(n+1) matrix of one defender's winning quadric.

    With ``Z = [z, 1]`` the form reads::

        Z^T Xi Z = -||z_lat||^2 + (1/alpha^2 - 1) z_n^2
                   + 2 x_d_lat . z_lat + alpha^2 x_d_n^2 - ||x_d||^2

    Positive on the defender-winning side, zero on the one-defender barrier,
    negative where the attacker wins the pairwise race to the hyperplane.
    """
    alpha = _check_alpha(alpha)
    x = _as_vector(x_d, name="defender position")
    n = x.shape[0]
    xi = np.zeros((n + 1, n + 1))
    xi[: n - 1, : n - 1] = -np.eye(n - 1)
    xi[n - 1, n - 1] = 1.0 / alpha**2 - 1.0
    xi[: n - 1, n] = x[:-1]
    xi[n, : n - 1] = x[:-1]
    xi[n, n] = alpha**2 * x[-1] ** 2 - float(x @ x)
    return xi


@dataclass(frozen=True)
class PairGeometry:
    """Pairwise defender quantities feeding the composite barrier.

    ``a = x_di_lat - x_dj_lat`` (lateral offset), ``b`` the lateral midpoint,
    ``c = ||a||^2 I - a a^T`` (projector scaled by ``||a||^2``), ``m`` the
    height difference, ``w`` the half gap of squared norms. The zeta block
    assembles them into ``xi``, the (n+1)x(n+1) matrix whose quadratic form
    signs the two-defender cooperative region.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    m: float
    w: float
    zeta1: float
    zeta2: np.ndarray
    zeta3: np.ndarray
    zeta4: float
    xi: np.ndarray = field(repr=False)


def pair_geometry(x_di, x_dj, alpha: float) -> PairGeometry:
    """Compute :class:`PairGeometry` for an ordered defender pair.

    Swapping the arguments flips the signs of ``a``, ``m``, ``w`` but leaves
    every zeta (hence ``xi``) unchanged; the composite surface does not care
    which defender is listed first.
    """
    alpha = _check_alpha(alpha)
    xi_pos = _as_vector(x_di, name="defender i position")
    xj_pos = _as_vector(x_dj, n=xi_pos.shape[0], name="defender j position")
    if np.array_equal(xi_pos, xj_pos):
        raise CoincidentDefendersError("pair geometry needs distinct defenders")
    n = xi_pos.shape[0]
    a = xi_pos[:-1] - xj_pos[:-1]
    b = 0.5 * (xi_pos[:-1] + xj_pos[:-1])
    aa = float(a @ a)
    c = aa * np.eye(n - 1) - np.outer(a, a)
    m = float(xi_pos[-1] - xj_pos[-1])
    ni2 = float(xi_pos @ xi_pos)
    nj2 = float(xj_pos @ xj_pos)
    w = 0.5 * (ni2 - nj2)
    one_m = 1.0 - alpha**2
    zeta1 = one_m * aa
    zeta2 = c - zeta1 * np.eye(n - 1)
    zeta3 = one_m * w * a - alpha**2 * (c @ b)
    zeta4 = (one_m * alpha**2 * float(a @ (nj2 * xi_pos[:-1] - ni2 * xj_pos[:-1]))
             + alpha**4 * float(b @ (c @ b)) - one_m**2 * w**2)
    xi = np.zeros((n + 1, n + 1))
    xi[: n - 1, : n - 1] = -zeta2
    xi[n - 1, n - 1] = zeta1
    xi[: n - 1, n] = -zeta3
    xi[n, : n - 1] = -zeta3
    xi[n, n] = -zeta4
    return PairGeometry(a=_frozen(a), b=_frozen(b), c=_frozen(c), m=m, w=w,
                        zeta1=zeta1, zeta2=_frozen(zeta2), zeta3=_frozen(zeta3),
                        zeta4=zeta4, xi=_frozen(xi))


def quadratic_form(xi: np.ndarray, z) -> float:
    """Evaluate ``[z, 1]^T xi [z, 1]`` for an (n+1)x(n+1) symmetric matrix."""
    xi = np.asarray(xi, dtype=float)
    z = _as_vector(z, name="point")
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got shape {xi.shape}")
    if xi.shape[0] != z.shape[0] + 1:
        raise DimensionMismatchError(
            f"matrix of order {xi.shape[0]} does not match point of length {z.shape[0]}")
    zz = np.append(z, 1.0)
    return float(zz @ (xi @ zz))


@dataclass(frozen=True)
class ApolloniusBall:
    """Open ball of points the attacker reaches strictly before one defender."""

    theta: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))
        object.__setattr__(self, "delta", float(self.delta))

    def contains(self, z, strict: bool = True) -> bool:
        d = float(np.linalg.norm(np.asarray(z, dtype=float) - self.theta))
        return d < self.delta if strict else d <= self.delta

    def bottom(self) -> np.ndarray:
        """Lowest point of the sphere (minimal last coordinate)."""
        p = np.array(self.theta)
        p[-1] -= self.delta
        return p


def apollonius(x_a, x_d, alpha: float) -> ApolloniusBall:
    """Dominance ball of the attacker against one defender.

    ``{z : ||z - x_a|| < alpha ||z - x_d||}`` is the open ball with center
    ``(x_a - alpha^2 x_d) / (1 - alpha^2)`` and radius
    ``alpha ||x_a - x_d|| / (1 - alpha^2)``; the attacker's own position is
    always strictly inside.
    """
    alpha = _check_alpha(alpha)
    x_a = _as_vector(x_a, name="attacker position")
    x_d = _as_vector(x_d, n=x_a.shape[0], name="defender position")
    gap = float(np.linalg.norm(x_a - x_d))
    if gap == 0.0:
        raise CoincidentPlayersError("attacker and defender coincide")
    denom = 1.0 - alpha**2
    return ApolloniusBall(theta=(x_a - alpha**2 * x_d) / denom, delta=alpha * gap / denom)


# ---------------------------------------------------------------------------
# scenario wire format
# ---------------------------------------------------------------------------

def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated :class:`Scenario` from the JSON wire layout.

    Expected keys: ``n``, ``hyperplane`` (with ``K`` and ``b``),
    ``defenders`` (exactly two vectors), ``attacker``, and ``alpha`` and/or
    the pair ``v_D``/``v_A``.
    """
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    try:
        n = data["n"]
        hp = data["hyperplane"]
        defenders = data["defenders"]
        attacker = data["attacker"]
    except (KeyError, TypeError) as exc:
        raise ScenarioFormatError(f"missing scenario field: {exc}") from exc
    if not isinstance(hp, dict) or "K" not in hp or "b" not in hp:
        raise ScenarioFormatError("hyperplane must be an object with keys K and b")
    if not isinstance(defenders, (list, tuple)) or len(defenders) != 2:
        raise ScenarioFormatError("defenders must list exactly two positions")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ScenarioFormatError("n must be an integer")
    try:
        hyperplane = Hyperplane(K=np.asarray(hp["K"], dtype=float), b=float(hp["b"]))
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad hyperplane: {exc}") from exc
    alpha = data.get("alpha")
    v_d = data.get("v_D")
    v_a = data.get("v_A")
    try:
        return Scenario(n=n, hyperplane=hyperplane,
                        x_d1=np.asarray(defenders[0], dtype=float),
                        x_d2=np.asarray(defenders[1], dtype=float),
                        x_a=np.asarray(attacker, dtype=float),
                        alpha=alpha, v_d=v_d, v_a=v_a)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad scenario value: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "n": scenario.n,
        "alpha": scenario.alpha,
        "hyperplane": {"K": scenario.hyperplane.K.tolist(), "b": scenario.hyperplane.b},
        "defenders": [scenario.x_d1.tolist(), scenario.x_d2.tolist()],
        "attacker": scenario.x_a.tolist(),
    }
    if scenario.v_d is not None:
        out["v_D"] = scenario.v_d
        out["v_A"] = scenario.v_a
    return out


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data)
