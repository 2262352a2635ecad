"""Scalar source models: density, CDF, quantile, sampling, truncation.

Three laws are supported:

* ``uniform:lo,hi``  -- uniform on the interval (lo, hi)
* ``gauss:mu,sigma`` -- Gaussian with mean mu and stddev sigma
* ``circle``         -- uniform angle on (-pi, pi]

The quantile follows the generalized inverse ``inf{x : F(x) > u}``; for
these continuous strictly-increasing CDFs that is the ordinary inverse.
The Gaussian quantile is solved by a bisection/Newton hybrid on the
erfc-based CDF to absolute accuracy ~1e-13, which bounds the accuracy of
every boundary table built on top of it.
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

    def mean_var_on(self, a: float, b: float):
        """Mean and variance of the law restricted to [a, b]."""
        a = max(a, self.lo)
        b = min(b, self.hi)
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
        # 0.5*erfc(-z/sqrt(2)) keeps full relative accuracy in the left tail.
        a, scalar = _as_array(x)
        z = (a - self.mu) / self.sigma
        return _ret(0.5 * special.erfc(-z / math.sqrt(2.0)), scalar)

    def quantile(self, u):
        a, scalar = _as_array(u)
        _check_unit_interval(a)
        flat = np.atleast_1d(a)
        out = np.full(flat.shape, -math.inf)
        pos = flat > 0.0
        if pos.any():
            out[pos] = self.mu + self.sigma * _std_normal_quantile(flat[pos])
        return _ret(out.reshape(a.shape), scalar)

    def sample(self, rng: np.random.Generator, size=None):
        return self.mu + self.sigma * rng.standard_normal(size)

    def mean_var_on(self, a: float, b: float):
        """Truncated-normal mean and variance on [a, b]."""
        al = (a - self.mu) / self.sigma
        be = (b - self.mu) / self.sigma
        z = _std_cdf(be) - _std_cdf(al)
        if z <= 0:
            raise ValueError(f"no mass on [{a}, {b}]")
        pa, pb = _std_pdf(al), _std_pdf(be)
        m = (pa - pb) / z
        v = 1.0 + (al * pa - be * pb) / z - m * m
        return self.mu + self.sigma * m, self.sigma ** 2 * v


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

    def mean_var_on(self, a: float, b: float):
        a = max(a, -math.pi)
        b = min(b, math.pi)
        return 0.5 * (a + b), (b - a) ** 2 / 12.0


SourceModel = UniformSource | GaussianSource | CircleSource


def _std_pdf(z):
    return np.exp(-0.5 * np.asarray(z, dtype=float) ** 2) / math.sqrt(math.tau)


def _std_cdf(z):
    return 0.5 * special.erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0))


def _std_normal_quantile(u):
    """Solve Phi(z) = u for u in (0, 1), vectorized.

    Bracketed bisection narrows to ~2e-5, then safeguarded Newton polishes
    to ~1e-15; both phases keep the bracket so the iteration cannot escape.
    """
    u = np.asarray(u, dtype=float)
    lo = np.full(u.shape, -40.0)
    hi = np.full(u.shape, 40.0)
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        below = _std_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    z = 0.5 * (lo + hi)
    for _ in range(6):
        err = _std_cdf(z) - u
        step = err / np.maximum(_std_pdf(z), 1e-300)
        z_new = np.clip(z - step, lo, hi)
        below = _std_cdf(z_new) < u
        lo = np.where(below, z_new, lo)
        hi = np.where(below, hi, z_new)
        z = z_new
    return z


@dataclass(frozen=True)
class TruncatedLaw:
    """Parent law conditioned on [a, b] (density renormalized there)."""

    parent: SourceModel
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def mass(self) -> float:
        return self.parent.cdf(self.b) - self.parent.cdf(self.a)

    def pdf(self, x):
        arr, scalar = _as_array(x)
        inside = (arr >= self.a) & (arr <= self.b)
        dens = np.where(inside, self.parent.pdf(arr) / self.mass, 0.0)
        return _ret(dens, scalar)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draw: quantile(F(a) + U * (F(b) - F(a)))."""
        fa = self.parent.cdf(self.a)
        fb = self.parent.cdf(self.b)
        if fb - fa < DEGENERATE_MASS:
            raise ValueError(
                f"degenerate truncation [{self.a}, {self.b}]: parent mass "
                f"{fb - fa:.3e} (ill-formed boundary table?)")
        return draw_truncated(self.parent, self.a, self.b, fa, fb, rng, size)


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
