"""Information-theoretic reference curves for the unit-circle setting.

The perfect-perception frontier is parametrized by a concentration
parameter lam > 0 through the exponential-cosine law

    p(z; lam) = exp(lam*cos(z)) / C(lam),   C(lam) = integral exp(lam*cos(z)) dz

on (-pi, pi]; each lam yields the pair

    R = (ln(2*pi) - h(Z)) / ln(2)   bits,
    D = 2 - 2*E[cos(Z)],

with h(Z) = ln C(lam) - lam*E[cos Z] nats.  All quadrature is done on the
well-scaled integrand exp(lam*(cos z - 1)); for lam > 50 the variable is
rescaled by sqrt(lam) so the adaptive rule sees an O(1)-width peak.
Entropies are kept in nats internally and converted to bits only at the
interface.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import FrontierPoint
from .quadrature import adaptive_simpson

LN_TWO_PI = math.log(math.tau)

# Quadrature targets: absolute 1e-10 per integral; switch to the scaled
# variable beyond this concentration.
QUAD_TOL = 1e-10
SCALE_SWITCH = 50.0
LAMBDA_MAX = 1e4
# rate_at_distortion stops bisecting when its lam bracket is this narrow
# in relative terms.
RATE_REL_TOL = 1e-12


class VonMisesLikeLaw:
    """The law p(z; lam) on (-pi, pi] with concentration lam > 0."""

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.lam = float(lam)
        self._chat, self._mhat = self._integrals()

    def _integrals(self):
        """(C(lam), M(lam)) both scaled by exp(-lam) to avoid overflow."""
        lam = self.lam
        if lam <= SCALE_SWITCH:
            chat = adaptive_simpson(
                lambda z: math.exp(lam * (math.cos(z) - 1.0)),
                -math.pi, math.pi, tol=QUAD_TOL)
            mhat = adaptive_simpson(
                lambda z: math.cos(z) * math.exp(lam * (math.cos(z) - 1.0)),
                -math.pi, math.pi, tol=QUAD_TOL)
            return chat, mhat
        # t = z*sqrt(lam); the integrand decays like exp(-t^2/2), so the
        # truncation at |t| = 45 is far below every tolerance in use.
        root = math.sqrt(lam)
        half = min(math.pi * root, 45.0)

        def g(t):
            return math.exp(lam * (math.cos(t / root) - 1.0))

        chat = adaptive_simpson(g, -half, half, tol=QUAD_TOL) / root
        mhat = adaptive_simpson(
            lambda t: math.cos(t / root) * g(t), -half, half,
            tol=QUAD_TOL) / root
        return chat, mhat

    def log_normalizer(self) -> float:
        """ln C(lam)."""
        return self.lam + math.log(self._chat)

    def mean_cos(self) -> float:
        """E[cos Z]."""
        return self._mhat / self._chat

    def entropy_nats(self) -> float:
        """Differential entropy h(Z) = ln C - lam * E[cos Z]."""
        return self.log_normalizer() - self.lam * self.mean_cos()

    def pdf(self, z):
        zz = np.asarray(z, dtype=float)
        out = np.where(np.abs(zz) <= math.pi,
                       np.exp(self.lam * (np.cos(zz) - 1.0)) / self._chat,
                       0.0)
        return float(out) if out.ndim == 0 else out


def rdp_point(lam: float) -> FrontierPoint:
    """Perfect-perception frontier point for one concentration value."""
    if not 0.0 < lam <= LAMBDA_MAX:
        raise ValueError(f"lam must lie in (0, {LAMBDA_MAX:g}], got {lam}")
    law = VonMisesLikeLaw(lam)
    rate = (LN_TWO_PI - law.entropy_nats()) / math.log(2.0)
    dist = 2.0 - 2.0 * law.mean_cos()
    # rate can round to a hair below zero in the lam -> 0 limit
    return FrontierPoint(max(rate, 0.0), dist, "quadrature", f"lambda={lam:g}")


def rdp_curve(lam_grid) -> list[FrontierPoint]:
    """Frontier points for an increasing grid of concentrations.

    Verifies the parametric monotonicity (rate strictly increasing,
    distortion strictly decreasing along the grid); a violation means the
    quadrature has failed and is raised rather than returned.
    """
    lams = [float(v) for v in lam_grid]
    if not lams:
        raise ValueError("empty lambda grid")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    points = [rdp_point(lam) for lam in lams]
    for p, q in zip(points, points[1:]):
        if not (q.rate_bits > p.rate_bits and q.distortion < p.distortion):
            raise RuntimeError(
                f"frontier not monotone between {p.params} and {q.params}")
    return points


def rate_at_distortion(distortion: float) -> float:
    """Rate of the perfect-perception frontier at a given distortion.

    Solved by bisection on log(lam); valid for distortions reachable with
    lam in (0, 1e4].
    """
    if not 0.0 < distortion < 2.0:
        raise ValueError(f"distortion must lie in (0, 2), got {distortion}")
    lo, hi = 1e-8, LAMBDA_MAX
    if rdp_point(hi).distortion > distortion:
        raise ValueError(f"distortion {distortion} below the lam <= 1e4 range")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if rdp_point(mid).distortion > distortion:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < RATE_REL_TOL:
            break
    return rdp_point(math.sqrt(lo * hi)).rate_bits


def gaussian_rdp_reference(distortion: float, sigma: float) -> float:
    """Gaussian perfect-perception reference rate 0.5*log2(2*sigma^2 / D).

    This is the classical rate-distortion function evaluated at D/2 (the
    cost of exact output-law matching without common randomness); the rate
    reaches zero at D = 2*sigma^2.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 < distortion <= 2.0 * sigma ** 2:
        raise ValueError(
            f"distortion must lie in (0, 2*sigma^2], got {distortion}")
    return max(0.0, 0.5 * math.log2(2.0 * sigma ** 2 / distortion))


def one_shot_overhead_bound(rate_bits: float) -> float:
    """Worst-case one-shot rate R + log2(R + 1) + 4 at informational rate R."""
    if rate_bits < 0:
        raise ValueError(f"rate must be nonnegative, got {rate_bits}")
    return rate_bits + math.log2(rate_bits + 1.0) + 4.0
