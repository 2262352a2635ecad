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
works elementwise on arrays of interval ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Tails beyond mu +/- 10 sigma carry < 1.6e-23 mass, negligible against
# every tolerance used in this package; boundary tables stop there.
GAUSS_SUPPORT_SIGMAS = 10.0

# A truncation interval holding less parent mass than this is considered
# degenerate (an ill-formed boundary table, not a sampling request).
DEGENERATE_MASS = 1e-12


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def _ret(a, scalar):
    return float(a) if scalar else a


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

    @property
    def kind(self) -> str:
        return "uniform"

    def spec_string(self) -> str:
        return f"uniform:{self.lo:g},{self.hi:g}"

    def support(self):
        return self.lo, self.hi

    def effective_support(self):
        return self.lo, self.hi

    def pdf(self, x):
        a, scalar = _as_array(x)
        inside = (a >= self.lo) & (a <= self.hi)
        return _ret(np.where(inside, 1.0 / (self.hi - self.lo), 0.0), scalar)

    def cdf(self, x):
        a, scalar = _as_array(x)
        return _ret(np.clip((a - self.lo) / (self.hi - self.lo), 0.0, 1.0), scalar)

    def quantile(self, u):
        a, scalar = _as_array(u)
        _check_unit_interval(a)
        return _ret(self.lo + a * (self.hi - self.lo), scalar)

    def sample(self, rng: np.random.Generator, size=None):
        return self.lo + rng.random(size) * (self.hi - self.lo)

    def mean_var_on(self, a, b):
        """Mean and variance of the law restricted to [a, b]."""
        a = np.maximum(a, self.lo)
        b = np.minimum(b, self.hi)
        return 0.5 * (a + b), (b - a) ** 2 / 12.0


@dataclass(frozen=True)
class GaussianSource:
    """Gaussian law N(mu, sigma^2)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"need sigma > 0, got {self.sigma}")

    @property
    def kind(self) -> str:
        return "gauss"

    def spec_string(self) -> str:
        return f"gauss:{self.mu:g},{self.sigma:g}"

    def support(self):
        return -math.inf, math.inf

    def effective_support(self):
        half = GAUSS_SUPPORT_SIGMAS * self.sigma
        return self.mu - half, self.mu + half

    def pdf(self, x):
        a, scalar = _as_array(x)
        z = (a - self.mu) / self.sigma
        val = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(math.tau))
        return _ret(val, scalar)

    def cdf(self, x):
        a, scalar = _as_array(x)
        return _ret(special.ndtr((a - self.mu) / self.sigma), scalar)

    def quantile(self, u):
        a, scalar = _as_array(u)
        _check_unit_interval(a)
        return _ret(self.mu + self.sigma * special.ndtri(a), scalar)

    def sample(self, rng: np.random.Generator, size=None):
        return self.mu + self.sigma * rng.standard_normal(size)

    def mean_var_on(self, a, b):
        """Truncated-normal mean and variance on [a, b]."""
        a, b = np.broadcast_arrays(a, b)
        al = (a - self.mu) / self.sigma
        be = (b - self.mu) / self.sigma
        # reflect intervals above the mean: ndtr(be) - ndtr(al) cancels there
        up = al > 0
        al, be = np.where(up, -be, al), np.where(up, -al, be)
        z = special.ndtr(be) - special.ndtr(al)
        if np.any(z <= 0):
            k = np.argmax(z <= 0)
            raise ValueError(f"no mass on [{a.flat[k]}, {b.flat[k]}]")
        pa, pb = (np.exp(-0.5 * t * t) / math.sqrt(math.tau) for t in (al, be))
        m = (pa - pb) / z
        v = 1.0 + (al * pa - be * pb) / z - m * m
        return self.mu + self.sigma * np.where(up, -m, m), self.sigma ** 2 * v


@dataclass(frozen=True)
class CircleSource:
    """Uniform angle on (-pi, pi] (the unit-circle source seen as a scalar)."""

    @property
    def kind(self) -> str:
        return "circle"

    def spec_string(self) -> str:
        return "circle"

    def support(self):
        return -math.pi, math.pi

    def effective_support(self):
        return -math.pi, math.pi

    def pdf(self, x):
        a, scalar = _as_array(x)
        inside = (a >= -math.pi) & (a <= math.pi)
        return _ret(np.where(inside, 1.0 / math.tau, 0.0), scalar)

    def cdf(self, x):
        a, scalar = _as_array(x)
        return _ret(np.clip((a + math.pi) / math.tau, 0.0, 1.0), scalar)

    def quantile(self, u):
        a, scalar = _as_array(u)
        _check_unit_interval(a)
        return _ret(-math.pi + a * math.tau, scalar)

    def sample(self, rng: np.random.Generator, size=None):
        return -math.pi + rng.random(size) * math.tau

    def mean_var_on(self, a, b):
        a = np.maximum(a, -math.pi)
        b = np.minimum(b, math.pi)
        return 0.5 * (a + b), (b - a) ** 2 / 12.0


SourceModel = UniformSource | GaussianSource | CircleSource


def draw_truncated(parent: SourceModel, a, b, fa, fb,
                   rng: np.random.Generator, size=None):
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
