"""Unit-circle coders at perfect perceptual quality.

The source is a uniform angle on (-pi, pi]; distortion is the squared
Euclidean distance between points on the circle, computed throughout as
2 - 2*cos(theta - theta_hat) (algebraically identical and cheaper than
embedding in R^2).

Three pieces live here:

* the closed-form rate-distortion pair of N staggered L-level quantizers,
  (log2 L, 2 - 2*sinc(pi/(L*N))*sinc(pi/L)), together with Monte Carlo
  simulators for the staggered and dithered schemes;
* the one-shot frontier {(log2 L, 2 - 2*sinc(pi/L))} and its lower convex
  hull (time-sharing segments);
* a numerical check that the optimal split of two adjacent cells is the
  midpoint in the non-degenerate regime.

The deterministic-encoder baseline (1 bit, decoder noise over half the
circle) is exactly the staggered scheme with L=2, N=1 and is not a
separate code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import (ExperimentResult, ks_statistic, plugin_entropy,
                      simulate_blocks)
from .rng import SampleStreams
from .sources import CircleSource


def wrap_angle(theta):
    """Canonical wrap onto (-pi, pi].  All circle arithmetic goes through here."""
    return theta - math.tau * np.ceil((theta - math.pi) / math.tau)


def _sinc(x: float) -> float:
    """sin(x)/x with the removable singularity filled in."""
    return 1.0 if x == 0.0 else math.sin(x) / x


@dataclass(frozen=True)
class CircleScheme:
    """Description of a unit-circle coder.

    ``levels`` is the number of quantizer cells L; ``offsets`` is the
    number N of staggered quantizers, spaced 2*pi/(L*N) apart in angle
    (ignored for the dithered variant).  The staggered decoder adds
    private noise uniform over an arc of length 2*pi/(L*N) centered at
    the cell center.
    """

    variant: str
    levels: int
    offsets: int = 1

    def __post_init__(self):
        if self.variant not in ("staggered", "dithered"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.levels < 1 or self.offsets < 1:
            raise ValueError("levels and offsets must be >= 1")


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
    d = 2.0 - 2.0 * _sinc(math.pi / (levels * offsets)) * _sinc(math.pi / levels)
    return FrontierPoint(math.log2(levels), d, "closed-form",
                         f"L={levels};N={offsets}")


def one_shot_frontier(l_max: int) -> list[FrontierPoint]:
    """Extreme points (log2 L, 2 - 2*sinc(pi/L)) for L = 1..l_max."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    return [FrontierPoint(math.log2(levels), 2.0 - 2.0 * _sinc(math.pi / levels),
                          "closed-form", f"L={levels}")
            for levels in range(1, l_max + 1)]


def lower_convex_hull(points: list[FrontierPoint]) -> list[FrontierPoint]:
    """Vertices of the lower convex hull of distortion vs rate.

    Input must be sorted by rate.  Time-sharing between consecutive hull
    vertices realizes every point of the piecewise-linear frontier.
    """
    hull: list[FrontierPoint] = []
    for p in points:
        while len(hull) >= 2:
            p0, p1 = hull[-2], hull[-1]
            # p1 is dominated if it lies on or above chord p0 -> p
            cross = ((p1.rate_bits - p0.rate_bits) * (p.distortion - p0.distortion)
                     - (p.rate_bits - p0.rate_bits) * (p1.distortion - p0.distortion))
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def simulate_staggered_circle(scheme: CircleScheme, samples: int,
                              streams: SampleStreams) -> ExperimentResult:
    """Monte Carlo run of the staggered circle coder.

    Per sample: draw theta uniform, pick one of N offset quantizers with
    the common randomness, transmit the cell index, reconstruct at the
    cell center plus private noise uniform over an arc of 2*pi/(L*N).
    """
    if scheme.variant != "staggered":
        raise ValueError("scheme must be staggered")
    levels, offsets = scheme.levels, scheme.offsets
    cell = math.tau / levels
    noise_half = math.pi / (levels * offsets)

    def step(rng, size):
        theta = -math.pi + rng.random(size) * math.tau
        n = rng.integers(0, offsets, size)
        noise = (rng.random(size) * 2.0 - 1.0) * noise_half
        offset = math.tau * n / (levels * offsets)
        idx = np.floor((theta - offset) / cell + 0.5).astype(np.int64)
        theta_hat = wrap_angle(offset + idx * cell + noise)
        return 2.0 - 2.0 * np.cos(theta - theta_hat), idx % levels, theta_hat

    return _circle_result(simulate_blocks(streams, samples, step, levels),
                          samples, streams.seed, rate_bits=None)


def simulate_dithered_circle(levels: int, samples: int,
                             streams: SampleStreams) -> ExperimentResult:
    """Monte Carlo run of the dithered circle coder at fixed rate log2 L.

    The dither is uniform over one cell arc (length 2*pi/L), shared by
    encoder and decoder; the reconstruction is theta plus an independent
    copy of the dither, so its law is exactly uniform.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    cell = math.tau / levels

    def step(rng, size):
        theta = -math.pi + rng.random(size) * math.tau
        dither = (rng.random(size) - 0.5) * cell
        idx = np.floor((theta + dither) / cell + 0.5).astype(np.int64)
        theta_hat = wrap_angle(idx * cell - dither)
        return 2.0 - 2.0 * np.cos(theta - theta_hat), idx % levels, theta_hat

    return _circle_result(simulate_blocks(streams, samples, step, levels),
                          samples, streams.seed, rate_bits=math.log2(levels))


def _circle_result(blocks, samples, seed, rate_bits):
    dist, counts, recon = blocks
    index_entropy = plugin_entropy(counts)
    return ExperimentResult(
        rate_bits=index_entropy if rate_bits is None else rate_bits,
        mse=dist.mean,
        perception_ks=ks_statistic(recon, CircleSource().cdf),
        n_samples=samples,
        seed=seed,
        mc_radius_mse=dist.mc_radius(),
        index_entropy_bits=index_entropy,
    )


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


def two_cell_objective_prime(alpha, r: float, lam: float):
    """Derivative of :func:`two_cell_objective` with respect to alpha."""
    a = np.asarray(alpha, dtype=float)
    return (-np.log(r - a) - lam * np.cos(math.pi * (r - a))
            + np.log(a) + lam * np.cos(math.pi * a))


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
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
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
