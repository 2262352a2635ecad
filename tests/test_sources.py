import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rdplab.rng import SampleStreams
from rdplab.sources import (CircleSource, GaussianSource, TruncatedLaw,
                            UniformSource, parse_source)

ALL_SOURCES = [UniformSource(0.0, 1.0), UniformSource(-2.0, 3.0),
               GaussianSource(0.0, 1.0), GaussianSource(1.5, 0.4),
               CircleSource()]


def bisect_gauss_quantile(u, tol=1e-9):
    """Independent oracle: bisection on the erf-based standard normal CDF."""
    lo, hi = -12.0, 12.0
    while hi - lo > tol / 4:
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2))) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cdf_trivial_values():
    assert UniformSource(0, 1).cdf(0.3) == pytest.approx(0.3, abs=1e-15)
    assert GaussianSource(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert UniformSource(0, 1).cdf(-1.0) == 0.0
    assert UniformSource(0, 1).cdf(2.0) == 1.0
    assert CircleSource().cdf(math.pi) == 1.0


def test_quantile_values():
    assert UniformSource(0, 1).quantile(0.25) == pytest.approx(0.25, abs=1e-15)
    assert GaussianSource(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    oracle = bisect_gauss_quantile(0.975)
    assert GaussianSource(0, 1).quantile(0.975) == pytest.approx(oracle, abs=1e-9)
    assert GaussianSource(0, 1).quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_quantile_matches_scipy_inverse():
    # In the tails the achievable absolute accuracy in z degrades like
    # eps/pdf(z) (u is only resolvable to machine eps); compare on the bulk
    # where 1e-11 is meaningful, the round-trip test covers the tails.
    u = np.linspace(1e-4, 1 - 1e-4, 501)
    got = GaussianSource(0.0, 1.0).quantile(u)
    assert np.max(np.abs(got - scipy.special.ndtri(u))) < 1e-11


def test_quantile_rejects_out_of_range():
    for src in ALL_SOURCES:
        with pytest.raises(ValueError):
            src.quantile(1.0)
        with pytest.raises(ValueError):
            src.quantile(-0.1)


def test_inverse_cdf_round_trip():
    rng = np.random.default_rng(42)
    u = rng.random(10_000)
    for src in ALL_SOURCES:
        x = src.quantile(u)
        assert np.max(np.abs(src.cdf(x) - u)) <= 1e-9, src.spec_string()


def test_density_normalization():
    for src in ALL_SOURCES:
        lo, hi = src.effective_support()
        total, _ = scipy.integrate.quad(src.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6), src.spec_string()


def test_sample_matches_cdf():
    streams = SampleStreams(7)
    for src in ALL_SOURCES:
        draws = src.sample(streams.block(0), 20_000)
        stat = scipy.stats.kstest(draws, src.cdf)
        assert stat.pvalue > 0.01, src.spec_string()


def test_truncated_support_and_uniform_mean():
    law = TruncatedLaw(UniformSource(0, 1), 0.2, 0.4)
    rng = SampleStreams(11).block(0)
    draws = law.sample(rng, 1_000_000)
    assert draws.min() >= 0.2 and draws.max() <= 0.4
    tol = 3.0 * (0.2 / math.sqrt(12)) / 1e3
    assert abs(draws.mean() - 0.3) <= tol


def test_truncated_half_normal_mean():
    # [0, 8] approximates [0, inf); half-normal mean sqrt(2/pi)
    law = TruncatedLaw(GaussianSource(0, 1), 0.0, 8.0)
    rng = SampleStreams(13).block(0)
    draws = law.sample(rng, 1_000_000)
    std = math.sqrt(1.0 - 2.0 / math.pi)
    assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) <= 3.0 * std / 1e3


def test_truncated_matches_rejection_sampling():
    src = GaussianSource(0, 1)
    law = TruncatedLaw(src, -0.3, 1.1)
    draws = law.sample(SampleStreams(5).block(0), 20_000)
    rng = np.random.default_rng(99)
    accepted = []
    while len(accepted) < 20_000:
        cand = rng.standard_normal(100_000)
        accepted.extend(cand[(cand >= -0.3) & (cand <= 1.1)].tolist())
    stat = scipy.stats.ks_2samp(draws, np.asarray(accepted[:20_000]))
    assert stat.pvalue > 0.01


def test_truncated_degenerate_interval_rejected():
    law = TruncatedLaw(GaussianSource(0, 1), 9.0, 9.5)   # mass ~ 1e-19
    with pytest.raises(ValueError, match="degenerate"):
        law.sample(SampleStreams(0).block(0), 10)
    with pytest.raises(ValueError):
        TruncatedLaw(UniformSource(0, 1), 0.5, 0.5)


def test_truncated_moments_against_scipy():
    src = GaussianSource(0.5, 2.0)
    m, v = src.mean_var_on(-1.0, 2.0)
    tn = scipy.stats.truncnorm((-1.0 - 0.5) / 2.0, (2.0 - 0.5) / 2.0, 0.5, 2.0)
    assert m == pytest.approx(tn.mean(), abs=1e-10)
    assert v == pytest.approx(tn.var(), abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_gaussian_round_trip_property(u):
    src = GaussianSource(0.3, 1.7)
    assert src.cdf(src.quantile(u)) == pytest.approx(u, abs=1e-9)


def test_parse_source():
    assert parse_source("uniform:0,1") == UniformSource(0.0, 1.0)
    assert parse_source("gauss:0,1") == GaussianSource(0.0, 1.0)
    assert parse_source("circle") == CircleSource()
    assert parse_source("gauss:1.5,0.4").spec_string() == "gauss:1.5,0.4"
    for bad in ("uniform", "uniform:1,0", "gauss:0,-1", "pareto:1,2", "gauss:a,b",
                "uniform:0,inf", "gauss:nan,1", "gauss:1e400,1"):
        with pytest.raises(ValueError):
            parse_source(bad)
