"""Information-theoretic reference curves for the unit-circle setting.

The perfect-perception frontier is parametrized by a concentration
parameter lam > 0 through the exponential-cosine law

    p(z; lam) = exp(lam*cos(z)) / C(lam),   C(lam) = integral exp(lam*cos(z)) dz

on (-pi, pi]; each lam yields R = (ln(2*pi) - h(Z)) / ln(2) bits and
D = 2 - 2*E[cos(Z)].  With e = lam*(cos z - 1), q = C/(2*pi*exp(lam)) - 1
and s = lam*(1 + q)*(E[cos Z] - 1) are the means of expm1(e) and e*exp(e)
over the circle, and R is the divergence from the uniform law,
(s/(1 + q) - ln(1 + q)) / ln 2, which cancels nothing at small lam.  Both
means come from one (lam x node) array by the 2048-node trapezoid rule,
which converges geometrically on periodic analytic integrands (Trefethen
& Weideman, SIAM Review 2014) and is checked against its even nodes.  On
the 425 lam of the Bessel test (400 in [1e-8, 1e4]), E[cos Z] is within
3.4e-16 and R within 2.2e-14 bits of 40-digit mpmath (1.1e-15 and 2.8e-12
bits of scipy's i1e/i0e); on [1e-8, 1e-3], R is within 3.0e-8 relative
of lam^2/(4 ln 2) - 3 lam^4/(64 ln 2).  Entropies stay in nats until output.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import FrontierPoint

# benchmarks/tracing.py patches this name until ROADMAP item 1 lands
adaptive_simpson = None

# cos z - 1 = -2 sin^2(z/2) on the 2048 trapezoid nodes, exact near z = 0
_COS_M1 = -2.0 * np.sin(np.arange(2048) * (math.pi / 2048)) ** 2
# Largest gap between the 2048- and 1024-node rules, relative to 1 + q: at
# lam = 1e4 it is 2.8e-14 (5e-5 with 1024 and 512 nodes); the truncation
# error, about exp(-M^2/(2 lam)), takes it past the bound near lam = 2e4.
TRAPEZOID_TOL = 1e-10
# lam values per (lam x node) block: 4 MB per temporary
LAM_BLOCK = 256
LAMBDA_MAX = 1e4
# Largest grid of the rdp-frontier command, the cap of the one-shot
# frontier: 2^16 points print in about 2 s with a peak near 100 MB.
MAX_CURVE_POINTS = 2 ** 16
# rate_at_distortion: lam points per bracketing round, and the
# log(lam) width of the bracket its cubic interpolates on (5 calls; within
# 4e-13 bits of a 1e-12 bisection on 66 distortions in [3e-4, 2))
BRACKET_POINTS = 9
BRACKET_WIDTH = 1e-2


class VonMisesLikeLaw:
    """The law p(z; lam) on (-pi, pi], elementwise over lam > 0 (a float
    or an array)."""

    def __init__(self, lam):
        self.lam = np.asarray(lam, dtype=float)
        if not np.all(self.lam > 0):
            raise ValueError(f"lam must be positive, got {lam}")
        self._q, self._s = self._integrals()

    def _integrals(self):
        """(q, s), the trapezoid means of expm1(e) and e*exp(e), checked
        against the means over the even-indexed nodes."""
        lam = self.lam.reshape(-1, 1)
        q, s, q_half, s_half = means = np.empty((4, lam.size))
        for i in range(0, lam.size, LAM_BLOCK):
            e = lam[i:i + LAM_BLOCK] * _COS_M1
            qk = np.expm1(e)
            sk = e * (1.0 + qk)
            means[:, i:i + LAM_BLOCK] = (qk.mean(1), sk.mean(1),
                                         qk[:, ::2].mean(1), sk[:, ::2].mean(1))
        gap = np.maximum(abs(q - q_half), abs(s - s_half)) / (1.0 + q)
        if np.any(gap > TRAPEZOID_TOL):
            raise RuntimeError("trapezoid rule unresolved at lam="
                               f"{lam[np.argmax(gap), 0]:g}")
        return q.reshape(self.lam.shape), s.reshape(self.lam.shape)

    def mean_cos(self):
        """E[cos Z]."""
        return 1.0 + self._s / (self.lam * (1.0 + self._q))

    def divergence_nats(self):
        """ln(2*pi) - h(Z), the divergence from the uniform law on the
        circle, without subtracting the two entropies."""
        return self._s / (1.0 + self._q) - np.log1p(self._q)

    def pdf(self, z):
        return ((np.abs(z) <= math.pi) * np.exp(self.lam * (np.cos(z) - 1.0))
                / (math.tau * (1.0 + self._q)))


def rdp_point(lam: float) -> FrontierPoint:
    """Perfect-perception frontier point for one concentration value."""
    return rdp_curve([lam])[0]


def rdp_curve(lam_grid) -> list[FrontierPoint]:
    """Frontier points for an increasing grid of concentrations in
    (0, 1e4], computed as one (lam x node) array.

    Verifies the parametric monotonicity (rate strictly increasing,
    distortion strictly decreasing along the grid); a violation means the
    quadrature has failed and is raised rather than returned.
    """
    lams = [float(v) for v in lam_grid]
    if not (lams and 0.0 < lams[0] <= lams[-1] <= LAMBDA_MAX
            and all(a < b for a, b in zip(lams, lams[1:]))):
        raise ValueError(f"lambda grid must be nonempty, strictly increasing "
                         f"and within (0, {LAMBDA_MAX:g}]")
    rates, dists = _rates_and_distortions(lams)
    return [FrontierPoint(float(r), float(d), "quadrature", f"lambda={lam:g}")
            for lam, r, d in zip(lams, rates, dists)]


def _rates_and_distortions(lams, ends=None):
    """Arrays of R (bits) and D along an increasing lam grid, checked for
    the parametric monotonicity that ``rdp_curve`` promises.  With
    ``ends``, the (R, D) of the grid's first and last lam, only the points
    between them are evaluated."""
    inner = slice(None) if ends is None else slice(1, -1)
    law = VonMisesLikeLaw(lams[inner])
    # rate can round to a hair below zero in the lam -> 0 limit
    rates = np.maximum(law.divergence_nats() / math.log(2.0), 0.0)
    dists = 2.0 - 2.0 * law.mean_cos()
    if ends is not None:
        (r0, d0), (r1, d1) = ends
        rates = np.concatenate(([r0], rates, [r1]))
        dists = np.concatenate(([d0], dists, [d1]))
    bad = np.flatnonzero(~((rates[1:] > rates[:-1])
                           & (dists[1:] < dists[:-1])))
    if bad.size:
        k = int(bad[0])
        raise RuntimeError(f"frontier not monotone between lambda="
                           f"{float(lams[k]):g} and lambda="
                           f"{float(lams[k + 1]):g}")
    return rates, dists


def rate_at_distortion(distortion: float) -> float:
    """Rate of the perfect-perception frontier at a given distortion.

    Each round evaluates R and D, as rdp_curve does, on BRACKET_POINTS
    geometric lam points spanning the bracket of the answer (without
    building frontier points), and keeps the grid interval
    where D crosses the target, BRACKET_POINTS - 1 times narrower in
    log(lam).  The next round's grid keeps those two points exactly, with
    their R and D, and evaluates only the points between them.  Once the
    bracket is under BRACKET_WIDTH in log(lam), a cubic through four grid
    points interpolates the rate at the target D.  Valid for distortions
    reachable with lam in (0, 1e4]; at or above D(1e-8) the answer is
    R(1e-8).
    """
    if not 0.0 < distortion < 2.0:
        raise ValueError(f"distortion must lie in (0, 2), got {distortion}")
    grid, ends = np.geomspace(1e-8, LAMBDA_MAX, BRACKET_POINTS), None
    while True:
        rates, d = _rates_and_distortions(grid, ends)
        above = int(np.count_nonzero(d > distortion))   # D falls along lam
        if above == BRACKET_POINTS:
            raise ValueError(f"distortion {distortion} below the lam <= 1e4 "
                             f"range")
        if above == 0:
            return float(rates[0])
        if math.log(grid[-1] / grid[0]) < BRACKET_WIDTH:
            break
        ends = [(rates[k], d[k]) for k in (above - 1, above)]
        # geomspace returns its end points exactly
        grid = np.geomspace(grid[above - 1], grid[above], BRACKET_POINTS)
    # Lagrange cubic in D through the four grid points around the target
    first = min(max(above - 2, 0), BRACKET_POINTS - 4)
    d = d[first:first + 4]
    rate = 0.0
    for i, r in enumerate(rates[first:first + 4]):
        others = np.delete(d, i)
        rate += r * np.prod((distortion - others) / (d[i] - others))
    return float(rate)


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
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not (0.0 < distortion <= 2.0 * sigma * sigma
            and math.isfinite(distortion)):
        raise ValueError(
            f"distortion must lie in (0, 2*sigma^2], got {distortion}")
    if not common_bits >= 0.0:
        raise ValueError(f"common_bits must be >= 0, got {common_bits}")
    # dividing by sigma twice keeps the ratio where 2 sigma^2 overflows
    d = 0.5 * (distortion / sigma) / sigma
    if d == 0.0:
        raise ValueError(f"distortion/(2*sigma^2) underflows to 0 at "
                         f"distortion {distortion}, sigma {sigma}")
    b = 2.0 ** (-2.0 * common_bits)
    a = 2.0 * d * (2.0 - d) / (
        (1.0 + b) + math.sqrt((1.0 - b) ** 2 + 4.0 * b * (1.0 - d) ** 2))
    return max(0.0, -0.5 * math.log2(a))
