"""The shared block loop against the per-simulator loops it replaced.

Each reference below is a stand-alone per-block loop: it keeps every
sample's code, counts codes with ``np.unique`` and inlines the clamped
inverse-CDF decoder.  The simulators run on ``metrics.simulate_blocks``,
count with ``np.bincount`` and share ``sources.draw_truncated``; every
field of their results must equal the reference bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from rdplab.circle import (CircleScheme, simulate_dithered_circle,
                           simulate_staggered_circle, wrap_angle)
from rdplab.metrics import (ExperimentResult, RunningMoments, ks_statistic,
                            plugin_entropy)
from rdplab.rng import SampleStreams
from rdplab.sources import (DEGENERATE_MASS, CircleSource, GaussianSource,
                            UniformSource)
from rdplab.stagger import (ACTIVE_EPS, InactiveCodeError, StaggeredSpec,
                            build_boundaries, encode, simulate_pipeline)

SAMPLE_COUNTS = (1000, 3000, 20480)   # 3000 is not a multiple of the block
TWO_PI = 2.0 * math.pi


def _uniform_angle_cdf(x):
    return np.clip((np.asarray(x, dtype=float) + math.pi) / TWO_PI, 0.0, 1.0)


def _circle_reference(dist, counts, recon, samples, seed, rate_bits):
    index_entropy = plugin_entropy(counts)
    return ExperimentResult(
        rate_bits=index_entropy if rate_bits is None else rate_bits,
        mse=dist.mean,
        perception_ks=ks_statistic(recon, _uniform_angle_cdf),
        n_samples=samples,
        seed=seed,
        mc_radius_mse=dist.mc_radius(),
        index_entropy_bits=index_entropy,
    )


def reference_staggered_circle(levels, offsets, samples, streams):
    cell = TWO_PI / levels
    noise_half = math.pi / (levels * offsets)
    dist = RunningMoments()
    counts = np.zeros(levels, dtype=np.int64)
    recon_parts = []
    for _, size, rng in streams.iter_blocks(samples):
        theta = -math.pi + rng.random(size) * TWO_PI
        n = rng.integers(0, offsets, size)
        noise = (rng.random(size) * 2.0 - 1.0) * noise_half
        offset = TWO_PI * n / (levels * offsets)
        idx = np.floor((theta - offset) / cell + 0.5).astype(np.int64)
        center = offset + idx * cell
        theta_hat = wrap_angle(center + noise)
        dist.update(2.0 - 2.0 * np.cos(theta - theta_hat))
        counts += np.bincount(idx % levels, minlength=levels)
        recon_parts.append(theta_hat)
    return _circle_reference(dist, counts, np.concatenate(recon_parts),
                             samples, streams.seed, None)


def reference_dithered_circle(levels, samples, streams):
    cell = TWO_PI / levels
    dist = RunningMoments()
    counts = np.zeros(levels, dtype=np.int64)
    recon_parts = []
    for _, size, rng in streams.iter_blocks(samples):
        theta = -math.pi + rng.random(size) * TWO_PI
        dither = (rng.random(size) - 0.5) * cell
        idx = np.floor((theta + dither) / cell + 0.5).astype(np.int64)
        theta_hat = wrap_angle(idx * cell - dither)
        dist.update(2.0 - 2.0 * np.cos(theta - theta_hat))
        counts += np.bincount(idx % levels, minlength=levels)
        recon_parts.append(theta_hat)
    return _circle_reference(dist, counts, np.concatenate(recon_parts),
                             samples, streams.seed, math.log2(levels))


def _reference_decode(table, j, rng):
    if np.any(j < table.j_first) or np.any(j > table.j_last):
        bad = int(j[(j < table.j_first) | (j > table.j_last)][0])
        raise InactiveCodeError(f"code {bad} outside the active table")
    k = j - table.j_first
    if np.any(table.prob[k] <= ACTIVE_EPS):
        bad = int(j[table.prob[k] <= ACTIVE_EPS][0])
        raise InactiveCodeError(f"code {bad} is not active")
    fa, fb = table.fa[k], table.fb[k]
    if np.any(fb - fa < DEGENERATE_MASS):
        bad = int(j[fb - fa < DEGENERATE_MASS][0])
        raise InactiveCodeError(f"code {bad} has a degenerate interval")
    u = fa + rng.random(j.size) * (fb - fa)
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    x = table.spec.source.quantile(u)
    return np.clip(x, table.a[k], table.b[k])


def reference_pipeline(spec, samples, streams):
    """Per-block pipeline loop; the rate averages the offsets drawn."""
    table = build_boundaries(spec)
    n_off = spec.n_offsets
    dist = RunningMoments()
    j_parts, n_parts, recon_parts = [], [], []
    for _, size, rng in streams.iter_blocks(samples):
        x = spec.source.sample(rng, size)
        n = rng.integers(0, n_off, size)
        i = encode(spec, x, n)
        j = n_off * i + n
        xhat = _reference_decode(table, j, rng)
        dist.update((x - xhat) ** 2)
        j_parts.append(j)
        n_parts.append(n)
        recon_parts.append(xhat)
    j_all = np.concatenate(j_parts)
    n_all = np.concatenate(n_parts)
    recon = np.concatenate(recon_parts)

    per_offset_entropies = []
    for n in range(n_off):
        _, counts = np.unique(j_all[n_all == n], return_counts=True)
        if counts.size:
            per_offset_entropies.append(plugin_entropy(counts))
    _, pooled_counts = np.unique(j_all, return_counts=True)
    return ExperimentResult(
        rate_bits=float(np.mean(per_offset_entropies)),
        mse=dist.mean,
        perception_ks=ks_statistic(recon, spec.source.cdf),
        n_samples=samples,
        seed=streams.seed,
        mc_radius_mse=dist.mc_radius(),
        index_entropy_bits=plugin_entropy(pooled_counts),
    )


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("levels, offsets", [(1, 3), (2, 4), (3, 5)])
def test_staggered_circle_matches_reference(levels, offsets, samples):
    got = simulate_staggered_circle(CircleScheme("staggered", levels, offsets),
                                    samples, SampleStreams(17))
    want = reference_staggered_circle(levels, offsets, samples,
                                      SampleStreams(17))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("levels", [1, 4])
def test_dithered_circle_matches_reference(levels, samples):
    got = simulate_dithered_circle(levels, samples, SampleStreams(23))
    want = reference_dithered_circle(levels, samples, SampleStreams(23))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


PIPELINE_SPECS = [
    StaggeredSpec(UniformSource(0.0, 1.0), 0.25, 2, origin=0.125),
    StaggeredSpec(GaussianSource(0.0, 1.0), 0.5, 2),
    StaggeredSpec(CircleSource(), math.pi / 2, 3),
    StaggeredSpec(GaussianSource(0.0, 1.0), 0.5, 2,
                  literal_paper_indexing=True),
]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("spec", PIPELINE_SPECS,
                         ids=["uniform", "gauss", "circle", "gauss-literal"])
def test_pipeline_matches_reference(spec, samples):
    got = simulate_pipeline(spec, samples, SampleStreams(29))
    want = reference_pipeline(spec, samples, SampleStreams(29))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("samples", [2, 5])
def test_pipeline_with_undrawn_offsets_matches_reference(samples):
    spec = StaggeredSpec(UniformSource(0.0, 1.0), 0.25, 8)
    got = simulate_pipeline(spec, samples, SampleStreams(3))
    want = reference_pipeline(spec, samples, SampleStreams(3))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_literal_indexing_fault_matches_reference(samples):
    spec = StaggeredSpec(UniformSource(0.0, 1.0), 0.25, 2, origin=0.125,
                         literal_paper_indexing=True)
    with pytest.raises(InactiveCodeError) as got:
        simulate_pipeline(spec, samples, SampleStreams(0))
    with pytest.raises(InactiveCodeError) as want:
        reference_pipeline(spec, samples, SampleStreams(0))
    assert str(got.value) == str(want.value)
