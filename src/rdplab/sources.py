"""Scalar source models: density, CDF, quantile, sampling, truncation.

Three laws are supported:

* ``uniform:lo,hi``  -- uniform on the interval (lo, hi)
* ``gauss:mu,sigma`` -- Gaussian with mean mu and stddev sigma
* ``circle``         -- uniform angle on (-pi, pi]

The quantile follows the generalized inverse ``inf{x : F(x) > u}``; for
these continuous strictly-increasing CDFs that is the ordinary inverse.
The Gaussian CDF and quantile are scipy's ``ndtr`` and ``ndtri``: ndtr
keeps full relative accuracy in the left tail, and ndtri is within 1e-14
absolute of the exact root for every double u in (0, 1).  ``mean_var_on``
works elementwise on arrays of interval ends, and ``mean_cdf_from_lo`` on
their offsets from the low end of the support, which keep their digits.

Every law's ``pdf``, ``cdf`` and ``quantile`` compute on the float or
array they are given and return numpy's result: a scalar gives a scalar
(never a 0-d array) with the bits of the matching array element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

# Tails beyond mu +/- 10 sigma carry < 1.6e-23 mass, negligible against
# every tolerance used in this package; boundary tables stop there.
GAUSS_SUPPORT_SIGMAS = 10.0

# A truncation interval holding less parent mass than this is considered
# degenerate (an ill-formed boundary table, not a sampling request).
DEGENERATE_MASS = 1e-12


# Truncated-normal moments on intervals narrower than NARROW_SIGMAS
# standard deviations come from a Taylor series of order SERIES_ORDER.
# Against 120-digit mpmath on 41 centres in [-10, 10] sigma, that series
# is within 3e-14 relative in the variance at width 0.75 and 3e-15 below
# 0.6; the closed form is off by 1e-10 at 0.75, 2e-9 at 0.1 and 0.8 at
# 1e-4.
NARROW_SIGMAS = 0.75
SERIES_ORDER = 24


def _check_unit_interval(u):
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie in [0, 1)")


@dataclass(frozen=True)
class UniformSource:
    """Uniform law on the open interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")

    def spec_string(self) -> str:
        return f"uniform:{self.lo:g},{self.hi:g}"

    def effective_support(self):
        return self.lo, self.hi

    def pdf(self, x):
        return ((x >= self.lo) & (x <= self.hi)) / (self.hi - self.lo)

    def cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, u):
        _check_unit_interval(u)
        return self.lo + u * (self.hi - self.lo)

    def sample(self, rng: np.random.Generator, size=None):
        return self.lo + rng.random(size) * (self.hi - self.lo)

    def mean_var_on(self, a, b):
        """Mean and variance of the law restricted to [a, b]."""
        a = np.maximum(a, self.lo)
        b = np.minimum(b, self.hi)
        return 0.5 * (a + b), (b - a) ** 2 / 12.0

    def mean_cdf_from_lo(self, t0, t1):
        """Mean of F on [lo + t0, lo + t1]: a piecewise quadratic over
        s1 - s0 in units of the support, exactly (s0 + s1)/2 inside it."""
        s0, s1 = t0 / (self.hi - self.lo), t1 / (self.hi - self.lo)
        c0, c1 = np.clip(s0, 0.0, 1.0), np.clip(s1, 0.0, 1.0)
        above = np.maximum(s1 - np.maximum(s0, 1.0), 0.0)
        return (0.5 * (c1 - c0) * (c1 + c0) + above) / (s1 - s0)


@dataclass(frozen=True)
class GaussianSource:
    """Gaussian law N(mu, sigma^2)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"need sigma > 0, got {self.sigma}")
        lo, hi = self.effective_support()
        if not lo < hi:
            raise ValueError(f"mu +/- {GAUSS_SUPPORT_SIGMAS:g} sigma rounds "
                             f"to one point at mu {self.mu:g}, "
                             f"sigma {self.sigma:g}")

    def spec_string(self) -> str:
        return f"gauss:{self.mu:g},{self.sigma:g}"

    def effective_support(self):
        half = GAUSS_SUPPORT_SIGMAS * self.sigma
        return self.mu - half, self.mu + half

    def pdf(self, x):
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(math.tau))

    def cdf(self, x):
        return special.ndtr((x - self.mu) / self.sigma)

    def quantile(self, u):
        _check_unit_interval(u)
        return self.mu + self.sigma * special.ndtri(u)

    def sample(self, rng: np.random.Generator, size=None):
        return self.mu + self.sigma * rng.standard_normal(size)

    def mean_var_on(self, a, b):
        """Truncated-normal mean and variance on [a, b].

        Intervals narrower than NARROW_SIGMAS take both moments from
        ``_centred_moments``; the closed form's variance
        1 + (al*phi(al) - be*phi(be))/Z - m^2 falls from O(1) to width^2/12
        there and keeps only the digits the cancellation leaves.
        """
        a, b = np.broadcast_arrays(a, b)
        al = (a - self.mu) / self.sigma
        be = (b - self.mu) / self.sigma
        # reflect intervals above the mean: ndtr(be) - ndtr(al) cancels there
        up = al > 0
        lo, hi = np.where(up, -be, al), np.where(up, -al, be)
        z = special.ndtr(hi) - special.ndtr(lo)
        if np.any(z <= 0):
            k = np.argmax(z <= 0)
            raise ValueError(f"no mass on [{a.flat[k]}, {b.flat[k]}]")
        pa, pb = (np.exp(-0.5 * t * t) / math.sqrt(math.tau) for t in (lo, hi))
        m = (pa - pb) / z
        v = 1.0 + (lo * pa - hi * pb) / z - m * m
        m = np.where(up, -m, m)
        narrow = be - al < NARROW_SIGMAS
        if np.any(narrow):
            m[narrow], v[narrow] = _centred_moments(al[narrow], be[narrow])
        return self.mu + self.sigma * m, self.sigma ** 2 * v

    def mean_cdf_from_lo(self, t0, t1):
        """Mean of F on [lo + t0, lo + t1], (G(z1) - G(z0))/(z1 - z0) with
        G(z) = z*Phi(z) + phi(z) in standardized units; above the mean, where
        G(z) ~ z cancels, 1 minus the mean on the reflected interval."""
        z0, z1 = (t / self.sigma - GAUSS_SUPPORT_SIGMAS for t in (t0, t1))
        up = z0 > 0
        lo, hi = np.where(up, -z1, z0), np.where(up, -z0, z1)
        g_lo, g_hi = (z * special.ndtr(z) + np.exp(-0.5 * z * z)
                      / math.sqrt(math.tau) for z in (lo, hi))
        m = (g_hi - g_lo) / (hi - lo)
        return np.where(up, 1.0 - m, m)


def _centred_moments(al, be):
    """Mean and variance of N(0, 1) restricted to [al, be], from the Taylor
    series of its density about the centre c: on t in [-h, h] it is
    proportional to exp(-c*t - t^2/2) = sum_n He_n(c) (-t)^n / n!, with
    He_n the probabilists' Hermite polynomials.  With p_n = He_n(c) h^n / n!
    the mass and the first two moments of t are sums of p_n over n, and
    the variance subtracts a term of order c^2 h^4 from one of order h^2,
    so it cancels nothing.
    """
    c, h = 0.5 * (al + be), 0.5 * (be - al)
    p_prev, p = np.ones_like(c), c * h
    s0, s1, s2 = np.ones_like(c), -p * h / 3.0, h * h / 3.0
    for n in range(2, SERIES_ORDER + 1):
        p_prev, p = p, (c * h * p - h * h * p_prev) / n
        if n % 2:
            s1 = s1 - p * h / (n + 2)
        else:
            s0 = s0 + p / (n + 1)
            s2 = s2 + p * h * h / (n + 3)
    mt = s1 / s0
    return c + mt, s2 / s0 - mt * mt


@dataclass(frozen=True)
class CircleSource(UniformSource):
    """Uniform angle on (-pi, pi] (the unit-circle source seen as a scalar);
    ``cdf``, ``quantile`` and ``sample`` are its own entries only because
    benchmarks/tracing.py patches them per class (ROADMAP item 1)."""

    lo: float = field(default=-math.pi, init=False)
    hi: float = field(default=math.pi, init=False)
    cdf, quantile, sample = UniformSource.cdf, UniformSource.quantile, UniformSource.sample

    def spec_string(self) -> str:
        return "circle"


SourceModel = UniformSource | GaussianSource | CircleSource


def draw_truncated(parent: SourceModel, a, b, fa, fb,
                   rng: np.random.Generator, size):
    """Draw from ``parent`` conditioned on [a, b], given fa = F(a), fb = F(b).

    Inverse CDF: quantile(F(a) + U * (F(b) - F(a))), clipped to [a, b].
    ``a``, ``b``, ``fa`` and ``fb`` may be arrays of one interval per draw.
    """
    u = fa + rng.random(size) * (fb - fa)
    # F(a) + U*(F(b)-F(a)) can round up to exactly F(b); keep u < 1.
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    return np.clip(parent.quantile(u), a, b)


def parse_source(text: str) -> SourceModel:
    """Parse the source grammar ``uniform:lo,hi | gauss:mu,sigma | circle``."""
    text = text.strip()
    if text == "circle":
        return CircleSource()
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"malformed source spec {text!r}")
    try:
        p1, p2 = (float(v) for v in tail.split(","))
    except Exception as exc:
        raise ValueError(f"malformed source parameters in {text!r}") from exc
    if not (math.isfinite(p1) and math.isfinite(p2)):
        raise ValueError(f"source parameters must be finite in {text!r}")
    if head == "uniform":
        return UniformSource(p1, p2)
    if head == "gauss":
        return GaussianSource(p1, p2)
    raise ValueError(f"unknown source kind {head!r}")
