import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rdplab.rng import SampleStreams
from rdplab.sources import (CircleSource, GaussianSource, UniformSource,
                            draw_truncated, parse_source)
from rdplab.stagger import StaggeredSpec, build_boundaries, decode

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


def mpmath_gauss_quantile(mpmath, u):
    """Independent oracle: bisection for Phi(z) = u in 40-digit arithmetic."""
    with mpmath.workdps(40):
        target = mpmath.mpf(float(u))
        lo, hi = mpmath.mpf(-40), mpmath.mpf(40)
        for _ in range(80):               # bracket width 80 / 2^80 < 1e-22
            mid = (lo + hi) / 2
            if mpmath.ncdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


QUANTILE_RANGES = {
    # (0, 0.5]: down to the smallest subnormal
    "lower": np.concatenate([10.0 ** -np.linspace(0.31, 323, 40),
                             np.linspace(1e-3, 0.5, 20), [5e-324]]),
    # (0.5, 1 - 1e-10): Phi(z) is 1 - small here
    "upper": 0.5 + (0.5 - 1e-10) * np.linspace(1e-6, 1 - 1e-6, 40),
    # (1 - 1e-10, 1): the last representable doubles below 1
    "top": np.concatenate([1.0 - 10.0 ** -np.linspace(10.01, 15.9, 30),
                           [np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -52]]),
}


def test_quantile_matches_mpmath_root():
    mpmath = pytest.importorskip("mpmath")
    src = GaussianSource(0.0, 1.0)
    for part, u in QUANTILE_RANGES.items():
        exact = np.array([mpmath_gauss_quantile(mpmath, v) for v in u])
        err = np.max(np.abs(src.quantile(u) - exact))
        assert err <= 1e-14, f"{part}: {err:.3e}"


def test_quantile_symmetry():
    # for u in [0.5, 1), 1 - u is exact, so q(1 - u) = -q(u) should hold
    u = np.concatenate([QUANTILE_RANGES["upper"], QUANTILE_RANGES["top"]])
    src = GaussianSource(0.0, 1.0)
    assert np.max(np.abs(src.quantile(1.0 - u) + src.quantile(u))) <= 1e-14


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


def truncated(src, a, b, rng, size):
    return draw_truncated(src, a, b, src.cdf(a), src.cdf(b), rng, size)


def test_truncated_support_and_uniform_mean():
    rng = SampleStreams(11).block(0)
    draws = truncated(UniformSource(0, 1), 0.2, 0.4, rng, 1_000_000)
    assert draws.min() >= 0.2 and draws.max() <= 0.4
    tol = 3.0 * (0.2 / math.sqrt(12)) / 1e3
    assert abs(draws.mean() - 0.3) <= tol


def test_truncated_half_normal_mean():
    # [0, 8] approximates [0, inf); half-normal mean sqrt(2/pi)
    rng = SampleStreams(13).block(0)
    draws = truncated(GaussianSource(0, 1), 0.0, 8.0, rng, 1_000_000)
    std = math.sqrt(1.0 - 2.0 / math.pi)
    assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) <= 3.0 * std / 1e3


def test_truncated_matches_rejection_sampling():
    draws = truncated(GaussianSource(0, 1), -0.3, 1.1,
                      SampleStreams(5).block(0), 20_000)
    rng = np.random.default_rng(99)
    accepted = []
    while len(accepted) < 20_000:
        cand = rng.standard_normal(100_000)
        accepted.extend(cand[(cand >= -0.3) & (cand <= 1.1)].tolist())
    stat = scipy.stats.ks_2samp(draws, np.asarray(accepted[:20_000]))
    assert stat.pvalue > 0.01


def test_truncated_degenerate_interval_rejected():
    # the decoder refuses a truncation interval that holds (almost) no
    # source mass instead of drawing from it
    rng = SampleStreams(0).block(0)
    for src, a, b in [(GaussianSource(0, 1), 9.0, 9.5),   # mass ~ 1e-19
                      (UniformSource(0, 1), 0.5, 0.5)]:
        table = build_boundaries(StaggeredSpec(src, 0.25, 1))
        k = table.codes.size // 2
        cols = {}
        for name, v in [("a", a), ("b", b),
                        ("fa", src.cdf(a)), ("fb", src.cdf(b))]:
            col = getattr(table, name).copy()
            col[k] = v
            cols[name] = col
        table = dataclasses.replace(table, **cols)
        with pytest.raises(ValueError, match="degenerate"):
            decode(table, int(table.codes[k]), 0, rng, 10)


def test_truncated_moments_against_scipy():
    src = GaussianSource(0.5, 2.0)
    m, v = src.mean_var_on(-1.0, 2.0)
    tn = scipy.stats.truncnorm((-1.0 - 0.5) / 2.0, (2.0 - 0.5) / 2.0, 0.5, 2.0)
    assert m == pytest.approx(tn.mean(), abs=1e-10)
    assert v == pytest.approx(tn.var(), abs=1e-10)

    # arrays of intervals, elementwise; the last two lie far in the tails,
    # 8 to 9 sigma from the mean on either side
    a = np.array([-20.0, -3.0, 0.5, 1.9, 4.0, 16.5, -17.5])
    b = np.array([-2.0, 0.0, 0.6, 7.0, 20.0, 18.5, -15.5])
    m, v = src.mean_var_on(a, b)
    tn = scipy.stats.truncnorm((a - 0.5) / 2.0, (b - 0.5) / 2.0, 0.5, 2.0)
    assert m.shape == v.shape == a.shape
    np.testing.assert_allclose(m, tn.mean(), rtol=0, atol=1e-10)
    np.testing.assert_allclose(v, tn.var(), rtol=0, atol=1e-10)
    with pytest.raises(ValueError, match="no mass"):
        src.mean_var_on(np.array([0.0, 1e3]), np.array([1.0, 1e3 + 1]))

    # uniform laws: intervals crossing the support edges are clipped to it
    for law, lo, hi in ((UniformSource(-2.0, 3.0), -2.0, 3.0),
                        (CircleSource(), -math.pi, math.pi)):
        a = np.array([lo - 1.0, lo + 0.5, hi - 0.25, lo - 5.0])
        b = np.array([lo + 0.5, hi - 1.0, hi + 2.0, hi + 5.0])
        m, v = law.mean_var_on(a, b)
        a_in, b_in = np.maximum(a, lo), np.minimum(b, hi)
        ref = [scipy.stats.uniform(x, y - x) for x, y in zip(a_in, b_in)]
        np.testing.assert_allclose(m, [r.mean() for r in ref], rtol=1e-14)
        np.testing.assert_allclose(v, [r.var() for r in ref], rtol=1e-12)


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
