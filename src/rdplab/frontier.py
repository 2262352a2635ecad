"""Information-theoretic reference curves for the unit-circle setting.

The perfect-perception frontier is parametrized by a concentration
parameter lam > 0 through the exponential-cosine law

    p(z; lam) = exp(lam*cos(z)) / C(lam),   C(lam) = integral exp(lam*cos(z)) dz

on (-pi, pi]; each lam yields the pair

    R = (ln(2*pi) - h(Z)) / ln(2)   bits,
    D = 2 - 2*E[cos(Z)],

with h(Z) = ln C(lam) - lam*E[cos Z] nats.  The rate is computed as the
divergence from the uniform law, (lam*(E[cos Z] - 1) - ln(1 + q)) / ln 2
with q = C(lam)*exp(-lam)/(2*pi) - 1: at small lam, ln(2*pi) and h(Z)
agree in nearly all their digits.  For every lam in (0, 1e4] each
integral is one adaptive Simpson rule on [0, pi] of a well-scaled
integrand, expm1(lam*(cos z - 1)) for q and cos(z)*exp(lam*(cos z - 1))
for E[cos Z], whose peak sits on the node z = 0.  On 400 log-spaced lam
in [1e-8, 1e4], E[cos Z] is within 4e-10 of I1(lam)/I0(lam) and the rate
within 1e-8 bits of the Bessel value; below lam = 1e-4 the rate stays
within 3% of its series lam^2/(4 ln 2).  Entropies are kept in nats
internally and converted to bits only at the interface.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import FrontierPoint
from .quadrature import adaptive_simpson

LN_TWO_PI = math.log(math.tau)

# Absolute tolerance of each half-period integral.  Against Bessel
# functions the worst errors seen are 3.8e-10 in E[cos Z], 6.3e-11 in
# ln C and 9.5e-9 bits in the rate (near lam = 17).
QUAD_TOL = 5e-12
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
        self._q, self._mhat = self._integrals()
        self._chat = math.tau * (1.0 + self._q)

    def _integrals(self):
        """(q, M(lam)*exp(-lam)) with q = C(lam)*exp(-lam)/(2*pi) - 1.

        Both integrands are even, so each integral on (-pi, pi] is twice
        its integral on [0, pi].
        """
        lam = self.lam
        q = adaptive_simpson(
            lambda z: math.expm1(lam * (math.cos(z) - 1.0)),
            0.0, math.pi, tol=QUAD_TOL) / math.pi
        mhat = adaptive_simpson(
            lambda z: math.cos(z) * math.exp(lam * (math.cos(z) - 1.0)),
            0.0, math.pi, tol=QUAD_TOL)
        return q, 2.0 * mhat

    def log_normalizer(self) -> float:
        """ln C(lam)."""
        return LN_TWO_PI + self.lam + math.log1p(self._q)

    def mean_cos(self) -> float:
        """E[cos Z]."""
        return self._mhat / self._chat

    def entropy_nats(self) -> float:
        """Differential entropy h(Z) = ln C - lam * E[cos Z]."""
        return self.log_normalizer() - self.lam * self.mean_cos()

    def divergence_nats(self) -> float:
        """ln(2*pi) - h(Z), the divergence from the uniform law on the
        circle, without subtracting the two entropies."""
        return self.lam * (self.mean_cos() - 1.0) - math.log1p(self._q)

    def pdf(self, z):
        return ((np.abs(z) <= math.pi)
                * np.exp(self.lam * (np.cos(z) - 1.0)) / self._chat)


def rdp_point(lam: float) -> FrontierPoint:
    """Perfect-perception frontier point for one concentration value."""
    if not 0.0 < lam <= LAMBDA_MAX:
        raise ValueError(f"lam must lie in (0, {LAMBDA_MAX:g}], got {lam}")
    law = VonMisesLikeLaw(lam)
    rate = law.divergence_nats() / math.log(2.0)
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


def gaussian_rdp_reference(distortion: float, sigma: float,
                           common_bits: float = 0.0) -> float:
    """Least rate of a Gaussian source at MSE D with perfect perception and
    R_c = ``common_bits`` bits of common randomness per letter.

    Jointly Gaussian U in the region R >= I(X;U), R + R_c >= I(Y;U),
    X - U - Y, P_Y = P_X (Saldi, Linder & Yuksel, IEEE T-IT 2015; Wagner
    2022) gives D = 2 sigma^2 [1 - sqrt((1 - 2^-2R)(1 - 2^-2(R + R_c)))].
    With d = D/(2 sigma^2), b = 2^-2R_c and a = 2^-2R, a is the root in
    [0, 1] of b a^2 - (1 + b) a + d(2 - d) = 0, taken in the
    cancellation-free form with the discriminant written as
    (1 - b)^2 + 4b(1 - d)^2, which cannot round below zero.  R_c = 0 gives
    0.5*log2(2 sigma^2 / D), zero at D = 2 sigma^2; R_c -> inf gives
    -0.5*log2(1 - (1 - d)^2).  Sharing one of N offsets is R_c = log2 N.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 < distortion <= 2.0 * sigma ** 2:
        raise ValueError(
            f"distortion must lie in (0, 2*sigma^2], got {distortion}")
    if not common_bits >= 0.0:
        raise ValueError(f"common_bits must be >= 0, got {common_bits}")
    d = distortion / (2.0 * sigma ** 2)
    b = 2.0 ** (-2.0 * common_bits)
    a = 2.0 * d * (2.0 - d) / (
        (1.0 + b) + math.sqrt((1.0 - b) ** 2 + 4.0 * b * (1.0 - d) ** 2))
    return max(0.0, -0.5 * math.log2(a))
