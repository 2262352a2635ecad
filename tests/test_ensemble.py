"""Seed ensembles: every Monte Carlo route checked against its exact law.

Bit-identity tests (golden rows, per-block references) pin the engine's
history, not its law: a mistake shared by the engine and its reference
would pass them.  Here each coder runs on 200 fixed seeds at 2^12 samples
and its printed numbers are held to exact oracles.

- MSE: z = (mse - oracle) / (mc_radius_mse / 3) is close to standard
  normal.  Its mean over 200 seeds has a standard error of about 0.071,
  so |mean z| <= 0.35 is about 4.9 standard errors (a false-alarm rate
  near 1e-6); its standard deviation lies in [0.75, 1.25].
- KS: the printed KS statistic's p-value under the finite-n Kolmogorov
  law, ``scipy.stats.kstwo.sf(ks, n)``, is uniform on [0, 1] when the
  decoded law is the source law; the ensemble of p-values must pass a
  KS uniformity test at p >= 1e-6.

The oracles are ``exact_code_distribution(spec).mse_exact`` for the
scalar pipelines, ``staggered_circle_rd(L, N).distortion`` for the
staggered circle and 2 - 2 sin(pi/L)/(pi/L) for the dithered circle.
The plug-in rate waits for an exact expected plug-in entropy.
"""

import math

import numpy as np
import pytest
import scipy.stats

import rdplab as rl
from rdplab.rng import SampleStreams

SEEDS = range(10000, 10200)
SAMPLES = 2 ** 12
MAX_MEAN_Z = 0.35
SD_Z = (0.75, 1.25)
MIN_UNIFORMITY_P = 1e-6


def pipeline(source, delta, offsets, origin=0.0):
    spec = rl.StaggeredSpec(source, delta, offsets, origin=origin)
    return (lambda streams: rl.simulate_pipeline(spec, SAMPLES, streams),
            lambda: rl.exact_code_distribution(spec).mse_exact)


def staggered_circle(levels, offsets):
    return (lambda streams: rl.simulate_staggered_circle(
                levels, offsets, SAMPLES, streams),
            lambda: rl.staggered_circle_rd(levels, offsets).distortion)


def dithered_circle(levels):
    arc = math.pi / levels
    return (lambda streams: rl.simulate_dithered_circle(
                levels, SAMPLES, streams),
            lambda: 2.0 - 2.0 * math.sin(arc) / arc)


CODERS = {
    "gauss-d0.25-n4": pipeline(rl.GaussianSource(0.0, 1.0), 0.25, 4),
    "gauss-d1-n3": pipeline(rl.GaussianSource(0.0, 1.0), 1.0, 3),
    "uniform-d0.25-n2": pipeline(rl.UniformSource(0.0, 1.0), 0.25, 2,
                                 origin=0.125),
    "staggered-circle-l2-n4": staggered_circle(2, 4),
    "staggered-circle-l3-n5": staggered_circle(3, 5),
    "dithered-circle-l4": dithered_circle(4),
}


@pytest.mark.parametrize("coder", CODERS)
def test_seed_ensemble_matches_exact_law(coder):
    run, oracle = CODERS[coder]
    target = oracle()
    z, ks_p = [], []
    for seed in SEEDS:
        res = run(SampleStreams(seed))
        assert res.n_samples == SAMPLES and res.mc_radius_mse > 0.0
        z.append((res.mse - target) / (res.mc_radius_mse / 3.0))
        ks_p.append(scipy.stats.kstwo.sf(res.perception_ks, SAMPLES))
    z = np.array(z)
    uniformity = scipy.stats.kstest(ks_p, "uniform").pvalue
    detail = (f"{coder}: mean z {z.mean():+.3f}, sd {z.std(ddof=1):.3f}, "
              f"KS-uniformity p {uniformity:.3g}")
    assert abs(z.mean()) <= MAX_MEAN_Z, detail
    assert SD_Z[0] <= z.std(ddof=1) <= SD_Z[1], detail
    assert uniformity >= MIN_UNIFORMITY_P, detail
