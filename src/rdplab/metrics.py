"""Shared estimators and the Monte Carlo block loop.

Distortion moments, plug-in entropies, the KS perception statistic,
differential entropy by quadrature, and :func:`simulate_blocks`, the one
loop over sample blocks that every simulator runs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_simpson
from .rng import BLOCK

# Asymptotic Kolmogorov-Smirnov critical coefficient at alpha = 0.01.
KS_COEFF_01 = 1.628

# Absolute tolerance of the differential-entropy quadrature.
ENTROPY_QUAD_TOL = 1e-9


def ks_threshold(n_samples: int) -> float:
    """alpha = 0.01 acceptance threshold for the one-sample KS statistic."""
    return KS_COEFF_01 / math.sqrt(n_samples)


class RunningMoments:
    """One-pass (Welford) mean/variance accumulator with associative merge.

    Parallel use: one accumulator per worker, merged in a fixed order so
    results stay bit-reproducible.
    """

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, values) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        cnt = values.size
        mu = float(values.mean())
        m2 = float(((values - mu) ** 2).sum())
        self._combine(cnt, mu, m2)

    def merge(self, other: "RunningMoments") -> None:
        self._combine(other.n, other.mean, other.m2)

    def _combine(self, n_b, mean_b, m2_b):
        if n_b == 0:
            return
        n_a = self.n
        delta = mean_b - self.mean
        n = n_a + n_b
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * n_a * n_b / n
        self.n = n

    def variance(self) -> float:
        if self.n < 2:
            return 0.0
        return self.m2 / (self.n - 1)

    def std(self) -> float:
        return math.sqrt(self.variance())

    def mc_radius(self) -> float:
        """Three-sigma Monte Carlo half-width of the mean estimate."""
        if self.n == 0:
            return 0.0
        return 3.0 * self.std() / math.sqrt(self.n)


def simulate_blocks(streams, samples: int, step, n_bins: int):
    """Run one Monte Carlo simulation over the sample blocks of ``streams``.

    ``step(rng, size)`` simulates one block and returns ``(err2, bins,
    recon)``: per-sample squared errors, integer bins in [0, n_bins) and
    reconstructions.  Blocks run in block order, so the result depends only
    on the seed.  Returns the distortion moments, the bin counts and the
    reconstructions of all samples in sample order.
    """
    dist = RunningMoments()
    counts = np.zeros(n_bins, dtype=np.int64)
    recon = np.empty(samples)
    for k, size, rng in streams.iter_blocks(samples):
        err2, bins, xhat = step(rng, size)
        dist.update(err2)
        counts += np.bincount(bins, minlength=n_bins)
        recon[k * BLOCK:k * BLOCK + size] = xhat
    return dist, counts, recon


def mse(pairs) -> tuple[float, float]:
    """Mean squared error over (x, xhat) pairs with its 3-sigma MC radius.

    ``pairs`` is either an iterable of 2-tuples or a pair of equal-length
    arrays.  Empty input is an error.
    """
    acc = RunningMoments()
    if isinstance(pairs, tuple) and len(pairs) == 2 \
            and isinstance(pairs[0], np.ndarray):
        x = np.asarray(pairs[0], dtype=float)
        xhat = np.asarray(pairs[1], dtype=float)
        if x.shape != xhat.shape:
            raise ValueError("x and xhat must have the same shape")
        acc.update((x - xhat) ** 2)
    else:
        for x, xhat in pairs:
            acc.update([(x - xhat) ** 2])
    if acc.n == 0:
        raise ValueError("mse of an empty stream")
    return acc.mean, acc.mc_radius()


def plugin_entropy(counts) -> float:
    """Plug-in entropy -sum p log2 p of a count table, in bits.

    Zero counts contribute nothing.  No bias correction is applied; at the
    sample sizes used here (>= 1e6) the bias is far below reporting
    precision.
    """
    if isinstance(counts, Mapping):
        values = np.asarray(list(counts.values()), dtype=float)
    else:
        values = np.asarray(counts, dtype=float).ravel()
    if np.any(values < 0):
        raise ValueError("negative count")
    total = values.sum()
    if total < 1:
        raise ValueError("plugin_entropy needs a total count >= 1")
    p = values[values > 0] / total
    # 0.0 - x, not -x: a single cell gives +0.0 rather than -0.0
    return float(0.0 - (p * np.log2(p)).sum())


def avg_conditional_entropy(per_group_counts: Iterable) -> float:
    """Average of per-group plug-in entropies (one tailored code per group)."""
    ents = [plugin_entropy(c) for c in per_group_counts]
    if not ents:
        raise ValueError("no groups")
    return float(np.mean(ents))


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 1:
        raise ValueError("ks_statistic needs at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus))


def differential_entropy_quadrature(pdf, support) -> float:
    """-integral p ln p over the support, in nats, by adaptive Simpson."""
    lo, hi = support

    def integrand(x):
        p = pdf(x)
        if p <= 0.0:
            return 0.0
        return -p * math.log(p)

    return adaptive_simpson(integrand, lo, hi, tol=ENTROPY_QUAD_TOL)


@dataclass(frozen=True)
class ExperimentResult:
    """Empirical statistics of one simulated coding scheme.

    ``rate_bits`` is the scheme's operational rate (index entropy for
    staggered coders, log2 L for fixed-rate dithered coders, average
    per-offset entropy over the offsets drawn for scalar staggered
    pipelines).
    ``index_entropy_bits`` is the plug-in entropy of the pooled transmitted
    index, kept as a diagnostic.
    """

    rate_bits: float
    mse: float
    perception_ks: float
    n_samples: int
    seed: int
    mc_radius_mse: float
    index_entropy_bits: float

    def __post_init__(self):
        if self.mse < 0 or not 0.0 <= self.perception_ks <= 1.0:
            raise ValueError("malformed experiment result")
