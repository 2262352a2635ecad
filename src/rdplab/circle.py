"""Unit-circle coders at perfect perceptual quality.

The source is a uniform angle on (-pi, pi]; distortion is the squared
Euclidean distance between points on the circle, 2 - 2*cos(theta -
theta_hat) (algebraically identical and cheaper than embedding in R^2).
Both routes compute it in forms that do not cancel when it is small: the
Monte Carlo step as 4t^2/(1 + t^2) with t = tan((theta - theta_hat)/2),
and the closed forms as sums of 1 - sinc terms, each from its Taylor
series at small arguments (``_one_minus_sinc``).

Three pieces live here:

* the closed-form rate-distortion pair of N staggered L-level quantizers,
  (log2 L, 2 - 2*sinc(pi/(L*N))*sinc(pi/L)), together with Monte Carlo
  simulators for the staggered and dithered schemes;
* the one-shot frontier {(log2 L, 2 - 2*sinc(pi/L))}, whose extreme
  points are all vertices of its lower convex hull (time-sharing
  segments join consecutive points);
* a numerical check that the optimal split of two adjacent cells is the
  midpoint in the non-degenerate regime.

Both simulators run one staggered step; the dithered coder is its
continuous-offset case (an offset uniform over one cell, no private
noise).  The deterministic-encoder baseline (1 bit, decoder noise over
half the circle) is the staggered scheme with L=2, N=1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .metrics import (ExperimentResult, ks_statistic, plugin_entropy,
                      simulate_chunks)
from .rng import DOUBLES, Offsets, SampleStreams
from .sources import CircleSource

# Largest L of the one-shot frontier: its 2^16 points print in under 2 s
# with a peak near 100 MB; each point costs about 0.7 KB until printed.
MAX_FRONTIER_LEVELS = 2 ** 16
# Largest L of the circle simulators: a run counts about L bins, and its
# entropy reads them, so 2^20 levels take about 8 MiB of counts.
MAX_LEVELS = 2 ** 20
# Largest grid of the two-cell split search: it holds 32 bytes per point
# (the grid and the objective's temporaries), so 2^22 points peak near
# 128 MiB, the order of the one-shot frontier's peak.
MAX_TWO_CELL_GRID = 2 ** 22


def wrap_angle(theta, out=None):
    """Canonical wrap onto (-pi, pi].  All circle arithmetic goes through here.

    ``out``, an array other than ``theta``, receives the angles in place of
    a fresh array.
    """
    turns = np.subtract(theta, math.pi, out=out)
    turns = np.ceil(np.divide(turns, math.tau, out=out), out=out)
    return np.subtract(theta, np.multiply(turns, math.tau, out=out), out=out)


def _one_minus_sinc(x: float) -> float:
    """1 - sin(x)/x to within a few ulp, relative.

    Below |x| = 1, where the subtraction would cancel, it sums the Taylor
    series x^2/6 - x^4/120 + ... in Horner form; the terms it leaves out
    are under 5e-17 of the sum.  At |x| >= 1 the difference is at least
    0.15, so the subtraction loses under 3 bits.
    """
    if abs(x) >= 1.0:
        return 1.0 - math.sin(x) / x
    x2 = x * x
    tail = 1.0
    for k in range(7, 0, -1):
        tail = 1.0 - x2 / ((2 * k + 2) * (2 * k + 3)) * tail
    return x2 / 6.0 * tail


@dataclass(frozen=True)
class FrontierPoint:
    """A (rate, distortion) pair with provenance and scheme parameters."""

    rate_bits: float
    distortion: float
    provenance: str
    params: str

    def __post_init__(self):
        if self.rate_bits < 0 or not 0.0 <= self.distortion <= 4.0:
            raise ValueError(
                f"frontier point out of range: ({self.rate_bits}, {self.distortion})")


def staggered_circle_rd(levels: int, offsets: int) -> FrontierPoint:
    """Closed-form rate-distortion pair of N staggered L-level quantizers."""
    if levels < 1 or offsets < 1:
        raise ValueError("levels and offsets must be >= 1")
    # 2 - 2*s1*s2 = 2(1 - s1) + 2*s1*(1 - s2), a sum of two terms >= 0,
    # since 2 - 2*s1*s2 cancels to 0 for s1, s2 near 1 at large L
    fine = _one_minus_sinc(math.pi / (levels * offsets))
    coarse = _one_minus_sinc(math.pi / levels)
    d = 2.0 * fine + 2.0 * (1.0 - fine) * coarse
    return FrontierPoint(math.log2(levels), d, "closed-form",
                         f"L={levels};N={offsets}")


def one_shot_frontier(l_max: int) -> list[FrontierPoint]:
    """Extreme points (log2 L, 2 - 2*sinc(pi/L)) for L = 1..l_max."""
    if not 1 <= l_max <= MAX_FRONTIER_LEVELS:
        raise ValueError(f"l_max must lie in [1, {MAX_FRONTIER_LEVELS}]")
    return [FrontierPoint(math.log2(levels), 2.0 * _one_minus_sinc(math.pi / levels),
                          "closed-form", f"L={levels}")
            for levels in range(1, l_max + 1)]


def simulate_staggered_circle(levels: int, offsets: int, samples: int,
                              streams: SampleStreams) -> ExperimentResult:
    """Monte Carlo run of the staggered circle coder.

    Per sample: draw theta uniform, pick one of N offset quantizers with
    the common randomness, transmit the cell index, reconstruct at the
    cell center plus private noise uniform over an arc of 2*pi/(L*N).
    """
    if levels < 1 or offsets < 1:
        raise ValueError("levels and offsets must be >= 1")
    return _simulate_circle(levels, samples, streams,
                            Offsets(offsets, np.float64),
                            functools.partial(_to_angle, levels * offsets),
                            noise_half=math.pi / (levels * offsets),
                            rate_bits=None)


def _to_angle(grids: int, n) -> None:
    """Offset indices n, in place, to their angles 2 pi n / grids."""
    n *= math.tau
    n /= grids


def simulate_dithered_circle(levels: int, samples: int,
                             streams: SampleStreams) -> ExperimentResult:
    """Monte Carlo run of the dithered circle coder at fixed rate log2 L.

    The dither is uniform over one cell arc (length 2*pi/L), shared by
    encoder and decoder, and shifts the grid; the reconstruction is the
    shifted cell center with no private noise, so its law is exactly
    uniform.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return _simulate_circle(levels, samples, streams, DOUBLES,
                            functools.partial(_to_dither, math.tau / levels),
                            noise_half=0.0, rate_bits=math.log2(levels))


def _to_dither(cell: float, u) -> None:
    """Uniforms u on [0, 1), in place, to dithers (0.5 - u) * cell."""
    np.subtract(0.5, u, out=u)
    u *= cell


def _simulate_circle(levels, samples, streams, offset_draw, to_offset,
                     noise_half, rate_bits):
    """Per sample: draw theta uniform (mapped in place as 2 pi U - pi) and
    the shared grid offset (by ``offset_draw``, mapped in place by
    ``to_offset``), transmit the nearest cell of the offset L-cell grid,
    reconstruct at its center plus private noise uniform on (-noise_half,
    noise_half), if nonzero.  A ``rate_bits`` of None reports the index
    entropy as the rate.  L beyond MAX_LEVELS is refused before anything
    is allocated.

    The offset lies within half a cell of 0 and theta in [-pi, pi], so the
    cell index i stays within L//2 + 1 of 0; the step counts bin
    i + L//2 + 2, always in range, and the run folds the bins modulo L.
    """
    if levels > MAX_LEVELS:
        raise ValueError(f"levels must be <= {MAX_LEVELS}, got {levels}")
    shift = levels // 2 + 2
    draws = (DOUBLES, offset_draw) + ((DOUBLES,) if noise_half else ())
    step = functools.partial(_circle_step, math.tau / levels, shift,
                             to_offset, noise_half)
    dist, counts, recon = simulate_chunks(
        streams, samples, draws, step, 2 * shift + 1)
    counts = _fold(counts, shift, levels)
    index_entropy = plugin_entropy(counts)
    return ExperimentResult(
        rate_bits=index_entropy if rate_bits is None else rate_bits,
        mse=dist.mean,
        perception_ks=ks_statistic(recon, CircleSource().cdf,
                                   overwrite_samples=True),
        n_samples=samples,
        seed=streams.seed,
        mc_radius_mse=dist.mc_radius(),
        index_entropy_bits=index_entropy,
    )


def _circle_step(cell, shift, to_offset, noise_half, theta, offset, *noise,
                 out) -> None:
    """The engine step of both circle coders (see ``_simulate_circle``)
    on cells of ``cell`` radians.  The squared errors come from
    ``_chord2``, which uses ``theta`` as scratch once the gaps are formed."""
    theta *= math.tau
    theta -= math.pi
    to_offset(offset)
    err2, bins, theta_hat = out
    t = np.subtract(theta, offset, out=err2)
    t /= cell
    t += 0.5
    np.add(np.floor(t, out=t), shift, out=bins, casting="unsafe")
    center = np.multiply(t, cell, out=err2)
    center += offset
    if noise_half:
        arc = np.multiply(noise[0], 2.0, out=theta_hat)
        arc -= 1.0
        arc *= noise_half
        center += arc
    wrap_angle(center, out=theta_hat)
    _chord2(np.subtract(theta, theta_hat, out=err2), scratch=theta)


def _chord2(d, scratch) -> None:
    """The squared chord 2 - 2*cos(d) of gaps ``d`` in (-2 pi, 2 pi), in
    place, as 4t^2/(1 + t^2) with t = tan(d/2); ``scratch``, an array of
    the same shape, is overwritten.

    The half-angle form keeps its relative accuracy at small gaps, where
    2 - 2*cos(d) cancels to 0, and on x86 with AVX-512 numpy's float64 tan
    has a SIMD loop where cos has a scalar one.  At d = +-pi, t is about
    1.6e16, so t^2 stays finite and the chord is 4.
    """
    d *= 0.5
    t = np.tan(d, out=d)
    t *= t
    np.add(t, 1.0, out=scratch)
    t *= 4.0
    t /= scratch


def _fold(bin_counts, shift, levels):
    """Counts of the cell indices i mod ``levels`` from the counts of the
    bins b = i + shift: bin 0 counts index -shift mod levels, and the bins
    after it follow in runs of ``levels``."""
    counts = np.zeros(levels, dtype=np.int64)
    first = -shift % levels             # the index bin 0 counts
    head = min(levels - first, bin_counts.size)
    counts[first:first + head] += bin_counts[:head]
    for b in range(head, bin_counts.size, levels):
        run = bin_counts[b:b + levels]
        counts[:run.size] += run
    return counts


# ---------------------------------------------------------------------------
# Two adjacent cells: optimal split location
# ---------------------------------------------------------------------------

def two_cell_objective(alpha, r: float, lam: float):
    """Split objective l(alpha; r) for two adjacent cells spanning angle 2*pi*r.

    l(a) = (r-a)ln(r-a) + (lam/pi)sin(pi(r-a)) + a ln a + (lam/pi)sin(pi a),
    an even function about a = r/2.  The entropy terms enter with a positive
    sign, so the rate-distortion Lagrangian of the split is minimized where
    l is maximized.
    """
    a = np.asarray(alpha, dtype=float)
    return ((r - a) * np.log(r - a) + (lam / math.pi) * np.sin(math.pi * (r - a))
            + a * np.log(a) + (lam / math.pi) * np.sin(math.pi * a))


@dataclass(frozen=True)
class TwoCellReport:
    """Grid search result for the optimal two-cell split."""

    alpha_opt: float
    is_midpoint: bool
    boundary_optimum: bool
    grid_step: float


def verify_two_cell_optimality(r: float, lam: float,
                               grid_size: int) -> TwoCellReport:
    """Locate the best two-cell split on a uniform grid over (0, r).

    The best split minimizes the Lagrangian, i.e. maximizes l(alpha; r).
    When the optimum sits at the first or last grid point the split is
    degenerate (one cell empties and the two cells merge); otherwise the
    report says whether the optimum is the midpoint r/2 to within one
    grid step.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not 3 <= grid_size <= MAX_TWO_CELL_GRID:
        raise ValueError(f"grid_size must lie in [3, {MAX_TWO_CELL_GRID}], "
                         f"got {grid_size}")
    step = r / (grid_size + 1)
    alpha = step * np.arange(1, grid_size + 1)
    values = two_cell_objective(alpha, r, lam)
    k = int(np.argmax(values))
    boundary = k in (0, grid_size - 1)
    alpha_opt = float(alpha[k])
    return TwoCellReport(
        alpha_opt=alpha_opt,
        is_midpoint=(not boundary) and abs(alpha_opt - r / 2.0) <= step,
        boundary_optimum=boundary,
        grid_step=step,
    )
