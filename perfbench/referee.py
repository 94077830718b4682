"""Independent referee for the two-defender guarding game.

Works from the three positions and the speed ratio alone, in a frame where
the guarded hyperplane is ``{z_n = 0}`` and the attacker is above it. It
uses no barrier matrix, region or tolerance of the program under test:

* each defender's Apollonius ball (the points the attacker reaches strictly
  first) has centre ``(x_a - alpha^2 x_d) / (1 - alpha^2)`` and radius
  ``alpha ||x_a - x_d|| / (1 - alpha^2)``;
* the attacker wins exactly when both balls cut the hyperplane in a real
  disc and the two discs overlap;
* when the defenders win, the value of the game is the height of the
  lowest point of the intersection of the two balls. That point is a
  ball's bottom lying inside the other ball, or the lowest point of the
  seam sphere where the two spheres meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATTACKER_WINS = "attacker_wins"
DEFENDERS_WIN = "defenders_win"


@dataclass(frozen=True)
class Ball:
    theta: np.ndarray
    delta: float

    def bottom(self) -> np.ndarray:
        p = self.theta.copy()
        p[-1] -= self.delta
        return p

    def gap(self, z) -> float:
        """Radius minus distance from the centre: >= 0 inside the closed ball."""
        return self.delta - float(np.linalg.norm(z - self.theta))


def ball(x_a, x_d, alpha: float) -> Ball:
    x_a = np.asarray(x_a, dtype=float)
    x_d = np.asarray(x_d, dtype=float)
    one_m = 1.0 - alpha * alpha
    return Ball(theta=(x_a - alpha * alpha * x_d) / one_m,
                delta=alpha * float(np.linalg.norm(x_a - x_d)) / one_m)


def disc_overlap(x_a, x_d1, x_d2, alpha: float) -> float:
    """Signed overlap of the two balls' traces on the hyperplane.

    Positive exactly when the attacker wins: it is ``r1 + r2 - gap`` when
    both traces are real discs, and otherwise minus the larger shortfall
    ``|theta_n| - delta`` of a ball that stays off the hyperplane.
    """
    b1, b2 = ball(x_a, x_d1, alpha), ball(x_a, x_d2, alpha)
    short = max(abs(b.theta[-1]) - b.delta for b in (b1, b2))
    if short >= 0.0:
        return -short
    r1 = math.sqrt(b1.delta ** 2 - b1.theta[-1] ** 2)
    r2 = math.sqrt(b2.delta ** 2 - b2.theta[-1] ** 2)
    return r1 + r2 - float(np.linalg.norm(b1.theta[:-1] - b2.theta[:-1]))


def outcome(x_a, x_d1, x_d2, alpha: float) -> str:
    return ATTACKER_WINS if disc_overlap(x_a, x_d1, x_d2, alpha) > 0.0 else DEFENDERS_WIN


@dataclass(frozen=True)
class Lowest:
    """Lowest point of the two balls' intersection and what binds there.

    ``binding`` lists the 1-based defenders whose spheres pass through the
    point; ``depth`` is how far the point sits inside the non-binding ball
    (for one binding defender) or how far each bottom sits outside the
    other ball (for two), so callers can keep clear of the case boundary.
    """

    point: np.ndarray
    binding: tuple[int, ...]
    depth: float

    @property
    def value(self) -> float:
        return float(self.point[-1])


def lowest_point(x_a, x_d1, x_d2, alpha: float) -> Lowest:
    """Lowest point of the intersection of the two closed Apollonius balls."""
    b1, b2 = ball(x_a, x_d1, alpha), ball(x_a, x_d2, alpha)
    inside1 = b2.gap(b1.bottom())
    inside2 = b1.gap(b2.bottom())
    if inside1 > 0.0 and inside1 >= inside2:
        return Lowest(b1.bottom(), (1,), inside1)
    if inside2 > 0.0:
        return Lowest(b2.bottom(), (2,), inside2)
    # seam: the spheres meet in a sphere of radius rho about c, lying in the
    # plane through c normal to nu
    diff = b2.theta - b1.theta
    d = float(np.linalg.norm(diff))
    nu = diff / d
    along = (d * d + b1.delta ** 2 - b2.delta ** 2) / (2.0 * d)
    rho = math.sqrt(max(b1.delta ** 2 - along * along, 0.0))
    c = b1.theta + along * nu
    down = -nu[-1] * nu
    down[-1] += 1.0  # e_n projected into the seam plane
    norm = float(np.linalg.norm(down))
    point = c if norm == 0.0 else c - rho * down / norm
    return Lowest(point, (1, 2), -max(inside1, inside2))


def barrier_height(lat, x_d1, x_d2, alpha: float, top: float = 1e3) -> float | None:
    """Height above lateral point ``lat`` where the winner changes.

    Bisects the attacker's height between the hyperplane and ``top``;
    returns None when the defenders win the whole vertical fibre.
    """
    lat = np.asarray(lat, dtype=float)

    def wins(h):
        return disc_overlap(np.append(lat, h), x_d1, x_d2, alpha) > 0.0

    lo, hi = 0.0, top
    if not wins(1e-300) or wins(hi):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if wins(mid):
            lo = mid
        else:
            hi = mid
    return hi
