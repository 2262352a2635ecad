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
``sample(rng, size=None, out=None)`` and ``quantile(u, out=None)`` write
into ``out``, when given, rather than a fresh array, with the same bits,
and so does ``draw_truncated``: the Monte Carlo engine draws and decodes
into arrays it allocates once per run.  The engine does not call
``sample``: it draws each law's ``standard`` variate (``rng.DOUBLES`` or
``rng.NORMALS``) and maps a whole chunk of them in place with
``from_standard``, the map ``sample`` applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .rng import DOUBLES, NORMALS

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
# 1e-4.  The series stops early, slice by slice, at the last order whose
# terms can still move one of its three sums by a bit (``_series_order``):
# every term it omits is below 2^-56 of its sum, so the moments keep the
# bits of the order-SERIES_ORDER series.  On the tables of N(0, 1) it
# stops at order 3-5 for delta = 1e-3, 5-7 for 0.01, 19 for 0.25 and 23
# for 0.5.
NARROW_SIGMAS = 0.75
SERIES_ORDER = 24
# Intervals per slice of the series: a slice touches ten rows of 32 KiB,
# well inside a 2 MiB L2.
SERIES_SLICE = 4096


def _check_unit_interval(u):
    # fmin and fmax skip NaN, as the comparisons do; empty arrays pass
    if (np.fmin.reduce(u, axis=None, initial=math.inf) < 0.0
            or np.fmax.reduce(u, axis=None, initial=-math.inf) >= 1.0):
        raise ValueError("quantile argument must lie in [0, 1)")


@dataclass(frozen=True)
class UniformSource:
    """Uniform law on the open interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(
                f"need finite lo and hi, got ({self.lo}, {self.hi})")
        # an infinite width would make the CDF and density divide by inf
        if not 0 < self.hi - self.lo < math.inf:
            raise ValueError(f"need lo < hi and a finite width, got "
                             f"({self.lo}, {self.hi}) of width "
                             f"{self.hi - self.lo:g}")

    def effective_support(self):
        return self.lo, self.hi

    def pdf(self, x):
        return ((x >= self.lo) & (x <= self.hi)) / (self.hi - self.lo)

    def cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, u, out=None):
        _check_unit_interval(u)
        x = np.multiply(u, self.hi - self.lo, out=out)
        x += self.lo
        return x

    standard = DOUBLES

    def sample(self, rng: np.random.Generator, size=None, out=None):
        return self.from_standard(rng.random(size, out=out))

    def from_standard(self, u):
        """The law's values of uniforms u on [0, 1), in place for arrays."""
        u *= self.hi - self.lo
        u += self.lo
        return u

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
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(
                f"need finite mu and sigma, got ({self.mu}, {self.sigma})")
        if not self.sigma > 0:
            raise ValueError(f"need sigma > 0, got {self.sigma}")
        lo, hi = self.effective_support()
        if not 0 < hi - lo < math.inf:
            raise ValueError(f"mu +/- {GAUSS_SUPPORT_SIGMAS:g} sigma has "
                             f"width {hi - lo:g} at mu {self.mu:g}, sigma "
                             f"{self.sigma:g}; need a positive, finite width")

    def effective_support(self):
        half = GAUSS_SUPPORT_SIGMAS * self.sigma
        return self.mu - half, self.mu + half

    def pdf(self, x):
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(math.tau))

    def cdf(self, x):
        return special.ndtr((x - self.mu) / self.sigma)

    def quantile(self, u, out=None):
        _check_unit_interval(u)
        x = special.ndtri(u, out=out)
        x *= self.sigma
        x += self.mu
        return x

    standard = NORMALS

    def sample(self, rng: np.random.Generator, size=None, out=None):
        return self.from_standard(rng.standard_normal(size, out=out))

    def from_standard(self, z):
        """The law's values of standard normals z, in place for arrays."""
        z *= self.sigma
        z += self.mu
        return z

    def mean_var_on(self, a, b):
        """Truncated-normal mean and variance on [a, b].

        Every interval must hold floating-point mass, or ``no mass`` is
        raised.  Intervals narrower than NARROW_SIGMAS take both moments
        from ``_centred_moments``, which stops at the order each slice
        needs and keeps the bits of the order-SERIES_ORDER series; the
        closed form's variance 1 + (al*phi(al) - be*phi(be))/Z - m^2 falls
        from O(1) to width^2/12 there and keeps only the digits the
        cancellation leaves, so it runs on the wide intervals alone.  Each
        interval's moments are the same bits whatever the other intervals
        of the call, and scalars give numpy scalars.
        """
        a, b = np.broadcast_arrays(a, b)
        al = ((a - self.mu) / self.sigma).ravel()
        be = ((b - self.mu) / self.sigma).ravel()
        # reflect intervals above the mean: ndtr(be) - ndtr(al) cancels there
        up = al > 0
        lo, hi = np.where(up, -be, al), np.where(up, -al, be)
        z = special.ndtr(hi) - special.ndtr(lo)
        if np.any(z <= 0):
            k = np.argmax(z <= 0)
            raise ValueError(f"no mass on [{a.flat[k]}, {b.flat[k]}]")
        narrow = be - al < NARROW_SIGMAS
        m, v = np.empty_like(al), np.empty_like(al)
        m[narrow], v[narrow] = _centred_moments(al[narrow], be[narrow])
        wide = ~narrow
        lo, hi, z = lo[wide], hi[wide], z[wide]
        pa, pb = (np.exp(-0.5 * t * t) / math.sqrt(math.tau) for t in (lo, hi))
        m_wide = (pa - pb) / z
        v[wide] = 1.0 + (lo * pa - hi * pb) / z - m_wide * m_wide
        m[wide] = np.where(up[wide], -m_wide, m_wide)
        return (self.mu + self.sigma * m.reshape(a.shape),
                self.sigma ** 2 * v.reshape(a.shape))

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

    The sums run in place on slices of SERIES_SLICE intervals, each up to
    the order ``_series_order`` finds for its largest |c| and h; they
    take the same steps on the same doubles as the full series, so the
    moments have its bits.  Their error against the exact moments is
    therefore that of order SERIES_ORDER (see the comment on it).
    """
    c, h = 0.5 * (al + be), 0.5 * (be - al)
    mean, var = np.empty_like(c), np.empty_like(c)
    work = np.empty((6, min(c.size, SERIES_SLICE)))
    for i in range(0, c.size, SERIES_SLICE):
        cs, hs = c[i:i + SERIES_SLICE], h[i:i + SERIES_SLICE]
        # s1 and s2 are summed in the output slices
        s1, s2 = mean[i:i + SERIES_SLICE], var[i:i + SERIES_SLICE]
        ch, hh, p_prev, p, s0, t = work[:, :cs.size]
        h_max = float(np.max(hs))
        c_max = float(np.max(np.abs(cs, out=t)))
        order = _series_order(c_max * h_max, h_max * h_max)
        np.multiply(cs, hs, out=ch)
        np.multiply(hs, hs, out=hh)
        p_prev.fill(1.0)
        np.copyto(p, ch)
        # orders 0 and 1: s0 = 1, s1 = -c h^2 / 3, s2 = h^2 / 3
        s0.fill(1.0)
        np.divide(np.multiply(ch, hs, out=s1), -3.0, out=s1)
        np.divide(hh, 3.0, out=s2)
        for n in range(2, order + 1):
            # p_n = (c h p_{n-1} - h^2 p_{n-2}) / n, into p_{n-2}'s row
            np.multiply(ch, p, out=t)
            np.multiply(hh, p_prev, out=p_prev)
            np.subtract(t, p_prev, out=p_prev)
            p_prev /= n
            p_prev, p = p, p_prev
            if n % 2:
                np.multiply(p, hs, out=t)
                t /= n + 2
                s1 -= t
            else:
                s0 += np.divide(p, n + 1, out=t)
                np.multiply(p, hs, out=t)
                t *= hs
                t /= n + 3
                s2 += t
        s1 /= s0                       # the mean offset mt
        s2 /= s0
        s2 -= np.multiply(s1, s1, out=t)
        s1 += cs
    return mean, var


def _series_order(y, g):
    """Last order of ``_centred_moments`` whose terms can move a sum, for
    intervals with |c| h <= y and h^2 <= g (at least 1, at most
    SERIES_ORDER; NaN gives SERIES_ORDER).

    |He_n(c)| is at most He*_n(|c|), the Hermite polynomial with all its
    signs made positive, so |p_n| <= q_n with q_0 = 1, q_1 = y and
    q_n = (y q_{n-1} + g q_{n-2}) / n, which grows with y and g; for odd
    n also q_n <= y q_{n-1}.  Each sum is at least exp(-h^2/2) times its
    leading term (1, c h^2/3 and h^2/3, from the integrals of the weight
    exp(-c t - t^2/2)), so an even term relative to s0 or s2 is at most
    3 q_n / (n + 3) exp(g/2), and an odd one relative to s1 at most
    3 q_{n-1} / (n + 2) exp(g/2).  Past the returned order every such
    bound is below 2^-56, half of what can change a normal double with
    round to nearest; the halving covers the rounding of the terms
    themselves.  (A subnormal s1, where that fails, takes 0 < |c| < 2^-841
    with h > 2^-59; no two interval ends that far apart sum to so little.)
    """
    tol = 2.0 ** -56 * math.exp(-0.5 * g)
    q_prev, q = 1.0, y
    order = 1
    for n in range(2, SERIES_ORDER + 1):
        q_prev, q = q, (y * q + g * q_prev) / n
        bound = 3.0 * (q / (n + 3) if n % 2 == 0 else q_prev / (n + 2))
        if not bound < tol:
            order = n
    return order


@dataclass(frozen=True)
class CircleSource(UniformSource):
    """Uniform angle on (-pi, pi] (the unit-circle source seen as a scalar);
    ``cdf``, ``quantile`` and ``sample`` are its own entries only because
    benchmarks/tracing.py patches them per class (ROADMAP item 1)."""

    lo: float = field(default=-math.pi, init=False)
    hi: float = field(default=math.pi, init=False)
    cdf, quantile, sample = UniformSource.cdf, UniformSource.quantile, UniformSource.sample


SourceModel = UniformSource | GaussianSource | CircleSource


def draw_truncated(parent: SourceModel, a, b, fa, fb, u, out=None):
    """Draws from ``parent`` conditioned on [a, b], given fa = F(a), fb = F(b)
    and uniforms ``u`` on [0, 1), one per draw.

    Inverse CDF: quantile(F(a) + U * (F(b) - F(a))), clipped to [a, b].
    ``a``, ``b``, ``fa`` and ``fb`` may be arrays of one interval per draw.
    ``out``, when given, receives the draws and every step between; it may
    be ``fb`` itself, which is read first.
    """
    v = np.subtract(fb, fa, out=out)
    v = np.multiply(v, u, out=out)
    v = np.add(v, fa, out=out)
    # F(a) + U*(F(b)-F(a)) can round up to exactly F(b); keep u < 1.
    v = np.minimum(v, np.nextafter(1.0, 0.0), out=out)
    v = parent.quantile(v, out=out)
    # np.clip's bits, NaN and signed zeros included, in place
    return np.minimum(np.maximum(v, a, out=out), b, out=out)


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
    if head == "uniform":
        return UniformSource(p1, p2)
    if head == "gauss":
        return GaussianSource(p1, p2)
    raise ValueError(f"unknown source kind {head!r}")
