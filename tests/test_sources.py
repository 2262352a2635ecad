import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rdplab import stagger
from rdplab.rng import SampleStreams
from rdplab.sources import (NARROW_SIGMAS, SERIES_ORDER, SERIES_SLICE,
                            CircleSource, GaussianSource, UniformSource,
                            _centred_moments, _series_order, draw_truncated,
                            parse_source)
from rdplab.stagger import StaggeredSpec, build_boundaries, decode

ALL_SOURCES = [UniformSource(0.0, 1.0), UniformSource(-2.0, 3.0),
               GaussianSource(0.0, 1.0), GaussianSource(1.5, 0.4),
               CircleSource()]
# the test ids: each source's text for parse_source
SOURCE_IDS = ["uniform:0,1", "uniform:-2,3", "gauss:0,1", "gauss:1.5,0.4",
              "circle"]


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


def mpmath_gauss_quantile(u):
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
    src = GaussianSource(0.0, 1.0)
    for part, u in QUANTILE_RANGES.items():
        exact = np.array([mpmath_gauss_quantile(v) for v in u])
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


def test_quantile_guard_accepts_what_the_comparisons_accept():
    # the guard reduces with fmin/fmax; it must refuse exactly what
    # any(u < 0) or any(u >= 1) refuses: NaN, -0.0 and empty arrays pass
    values = [-0.0, 0.0, np.nextafter(1.0, 0.0), 1.0, -5e-324, math.nan]
    cases = [v for v in values] + [np.float64(v) for v in values]
    cases += [np.array([a, b]) for a in values for b in values]
    cases += [np.array([]), np.array(values), np.array(0.5),
              np.array([[0.2, 1.0]])]
    for u in cases:
        refused = bool(np.any(np.less(u, 0.0))
                       or np.any(np.greater_equal(u, 1.0)))
        for src in ALL_SOURCES:
            try:
                src.quantile(u)
            except ValueError:
                assert refused, (u, src)
            else:
                assert not refused, (u, src)


def test_inverse_cdf_round_trip():
    rng = np.random.default_rng(42)
    u = rng.random(10_000)
    for src in ALL_SOURCES:
        x = src.quantile(u)
        assert np.max(np.abs(src.cdf(x) - u)) <= 1e-9, repr(src)


def test_density_normalization():
    for src in ALL_SOURCES:
        lo, hi = src.effective_support()
        total, _ = scipy.integrate.quad(src.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6), repr(src)


def test_sample_matches_cdf():
    streams = SampleStreams(7)
    for src in ALL_SOURCES:
        draws = src.sample(streams.block(0), 20_000)
        stat = scipy.stats.kstest(draws, src.cdf)
        assert stat.pvalue > 0.01, repr(src)


def truncated(src, a, b, rng, size):
    return draw_truncated(src, a, b, src.cdf(a), src.cdf(b), rng.random(size))


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
            decode(table, np.full(10, table.codes[k]), rng.random(10))


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


def mpmath_truncnorm_moments(a, b):
    """Mean and variance of N(0, 1) on [a, b] in 60-digit arithmetic,
    reflected to the lower half so the mass never cancels against 1."""
    with mpmath.workdps(60):
        sign = -1 if a > 0 else 1
        lo, hi = sorted((sign * mpmath.mpf(a), sign * mpmath.mpf(b)))
        z = mpmath.ncdf(hi) - mpmath.ncdf(lo)
        pa, pb = mpmath.npdf(lo), mpmath.npdf(hi)
        m = (pa - pb) / z
        v = 1 + (lo * pa - hi * pb) / z - m * m
        return sign * m, v


def test_truncated_variance_on_narrow_cells_matches_mpmath():
    # the closed form 1 + (a phi(a) - b phi(b))/Z - m^2 cancels from O(1)
    # down to width^2/12; the library must keep the variance's digits
    src = GaussianSource(0.0, 1.0)
    centres = [0.0, 0.3, -0.3, 1.7, -1.7, 3.0, -3.0, 5.5, -5.5, 8.0, -8.0]
    for width, tol in [(1e-6, 1e-12), (1e-5, 1e-12), (1e-4, 1e-12),
                       (1e-3, 1e-12), (1e-2, 1e-12), (0.1, 2e-10)]:
        a = np.array([c - width / 2 for c in centres])
        b = np.array([c + width / 2 for c in centres])
        m, v = src.mean_var_on(a, b)
        for k in range(a.size):
            m_ref, v_ref = mpmath_truncnorm_moments(a[k], b[k])
            assert abs(float((v[k] - v_ref) / v_ref)) <= tol, (width, a[k])
            assert abs(float(m[k] - m_ref)) <= 1e-14, (width, a[k])


def reference_centred_moments(al, be):
    """The order-SERIES_ORDER series as it ran before it stopped early:
    every order, on whole arrays, as fresh temporaries."""
    c, h = 0.5 * (al + be), 0.5 * (be - al)
    p_prev, p = np.ones_like(c), c * h
    s0, s1, s2 = np.ones_like(c), -p * h / 3.0, h * h / 3.0
    for n in range(2, SERIES_ORDER + 1):
        p_prev, p = p, (c * h * p - h * h * p_prev) / n
        if n % 2:
            s1 = s1 - p * h / (n + 2)
        else:
            s0 = s0 + p / (n + 1)
            s2 = s2 + p * h * h / (n + 3)
    mt = s1 / s0
    return c + mt, s2 / s0 - mt * mt


def reference_mean_var_on(src, a, b):
    """GaussianSource.mean_var_on as it ran before: the closed form on
    every interval, replaced by the full series on the narrow ones."""
    a, b = np.broadcast_arrays(a, b)
    al = (a - src.mu) / src.sigma
    be = (b - src.mu) / src.sigma
    up = al > 0
    lo, hi = np.where(up, -be, al), np.where(up, -al, be)
    z = scipy.special.ndtr(hi) - scipy.special.ndtr(lo)
    pa, pb = (np.exp(-0.5 * t * t) / math.sqrt(math.tau) for t in (lo, hi))
    m = (pa - pb) / z
    v = 1.0 + (lo * pa - hi * pb) / z - m * m
    m = np.where(up, -m, m)
    narrow = be - al < NARROW_SIGMAS
    if np.any(narrow):
        m[narrow], v[narrow] = reference_centred_moments(al[narrow],
                                                         be[narrow])
    return src.mu + src.sigma * m, src.sigma ** 2 * v


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_early_stopped_series_has_the_full_series_bits():
    # centres over the whole support, widths from 1e-8 to the narrow cut
    centres = np.linspace(-10.0, 10.0, 801)
    widths = np.geomspace(1e-8, NARROW_SIGMAS, 120)[:-1]
    c, w = (x.ravel() for x in np.meshgrid(centres, widths))
    al, be = c - 0.5 * w, c + 0.5 * w
    assert al.size > 20 * SERIES_SLICE
    assert_same_bits(_centred_moments(al, be),
                     reference_centred_moments(al, be))
    # one slice of random intervals, whose largest |c| h sets the order
    rng = np.random.default_rng(3)
    c = rng.uniform(-10.0, 10.0, 3000)
    w = np.exp(rng.uniform(math.log(1e-8), math.log(NARROW_SIGMAS), 3000))
    assert_same_bits(_centred_moments(c - 0.5 * w, c + 0.5 * w),
                     reference_centred_moments(c - 0.5 * w, c + 0.5 * w))


def test_series_order_rule():
    # the order grows with |c| h and h^2, never passes the cap, and is
    # the cap on NaN or overflow
    h = np.array([5e-9, 5e-4, 5e-3, 0.125, 0.375])
    orders = [_series_order(10.0 * x, x * x) for x in h]
    assert orders == sorted(orders) and orders[-1] == SERIES_ORDER
    assert orders[0] < 8 and orders[1] <= 7 and orders[2] <= 9
    assert _series_order(0.0, 0.0) == 1
    for bad in (math.nan, math.inf):
        assert _series_order(bad, 0.01) == SERIES_ORDER


EXACT_SWEEP_GAUSS = [(delta, n) for delta in (0.25, 0.5) for n in (1, 2, 4)]
EXACT_SWEEP_GAUSS += [(0.01, 8), (1e-3, 8)]


@pytest.mark.parametrize("delta, n", EXACT_SWEEP_GAUSS)
def test_table_moments_have_the_full_series_bits(monkeypatch, delta, n):
    # the Gaussian tables of the benchmark's exact sweep; the 1e-3 grid's
    # build raises its known mass-identity fault, so its check is off here
    monkeypatch.setattr(stagger, "MASS_TOL", math.inf)
    src = GaussianSource(0.0, 1.0)
    table = build_boundaries(StaggeredSpec(src, delta, n))
    lo = np.concatenate((table.cell_lo, table.a))
    hi = np.concatenate((table.cell_hi, table.b))
    assert_same_bits(src.mean_var_on(lo, hi),
                     reference_mean_var_on(src, lo, hi))


def test_mean_var_on_is_elementwise_across_the_narrow_cut():
    src = GaussianSource(0.5, 2.0)
    rng = np.random.default_rng(8)
    # widths up to twice the cut, in units of sigma = 2
    centre = rng.uniform(-15.0, 16.0, 40)
    width = np.concatenate((rng.uniform(0.0, 4.0 * NARROW_SIGMAS, 30),
                            [2e-7, 1.0, 2.0 * NARROW_SIGMAS, 6.0, 0.3] * 2))
    a, b = centre - 0.5 * width, centre + 0.5 * width
    whole = src.mean_var_on(a, b)
    assert_same_bits(whole, reference_mean_var_on(src, a, b))
    # a 2-D call gives the same elements in its shape
    grid = src.mean_var_on(a.reshape(5, 8), b.reshape(5, 8))
    assert grid[0].shape == (5, 8)
    assert_same_bits([g.ravel() for g in grid], whole)
    for k in range(a.size):
        one = src.mean_var_on(a[k:k + 1], b[k:k + 1])
        assert_same_bits(one, [w[k:k + 1] for w in whole])
        # scalars give numpy scalars with the array's bits
        got = src.mean_var_on(float(a[k]), float(b[k]))
        assert all(type(g) is np.float64 for g in got)
        assert_same_bits(got, [w[k] for w in whole])


def test_mean_var_on_scalars_keep_their_results():
    src = GaussianSource(0.5, 2.0)
    for a, b in [(-1.0, 2.0), (-20.0, -2.0), (1.9, 7.0), (16.5, 18.5)]:
        got = src.mean_var_on(a, b)
        assert all(type(g) is np.float64 for g in got)
        assert_same_bits(got, reference_mean_var_on(src, a, b))
    # a narrow scalar interval takes the series, as the array element does
    m, v = src.mean_var_on(0.5, 0.6)
    assert type(m) is np.float64 and type(v) is np.float64
    assert_same_bits((m, v), reference_mean_var_on(src, np.array([0.5]),
                                                   np.array([0.6])))


def test_mean_var_on_nan_in_nan_out():
    src = GaussianSource(0.0, 1.0)
    a = np.array([math.nan, 0.0, -1.0, math.nan, 0.2])
    b = np.array([1.0, math.nan, 1.0, math.nan, 0.3])
    m, v = src.mean_var_on(a, b)
    nan = np.isnan(a) | np.isnan(b)
    assert np.isnan(m[nan]).all() and np.isnan(v[nan]).all()
    assert_same_bits((m[~nan], v[~nan]), src.mean_var_on(a[~nan], b[~nan]))


def test_mean_var_on_refuses_intervals_without_mass():
    src = GaussianSource(0.0, 1.0)
    # narrow intervals with no floating-point mass, a tail one and two of
    # zero width; each raises alone and among intervals that hold mass
    for a, b in [(40.0, 40.1), (-40.1, -40.0), (0.3, 0.3), (-7.0, -7.0)]:
        with pytest.raises(ValueError, match="no mass"):
            src.mean_var_on(a, b)
        with pytest.raises(ValueError, match="no mass"):
            src.mean_var_on(np.array([0.0, a, -1.0]), np.array([0.1, b, 2.0]))


POINTS = [-4.0, -2.0, -math.pi, -0.5, 0.0, 0.3, 1.0, math.pi, 3.0, 7.5,
          -math.inf, math.inf]
UNITS = [0.0, 5e-324, 1e-300, 0.025, 0.5, 0.75, 1.0 - 2 ** -53]


@pytest.mark.parametrize("method", ["pdf", "cdf", "quantile"])
@pytest.mark.parametrize("src", ALL_SOURCES, ids=SOURCE_IDS)
def test_scalar_gives_the_array_bits(src, method):
    # one convention: numpy decides, so a scalar argument gives a scalar
    # (never a 0-d array) with the bits of the matching array element;
    # the grids hold the support edges, points outside it and u = 0
    fn = getattr(src, method)
    args = (UNITS if method == "quantile"
            else POINTS + list(src.effective_support()))
    whole = fn(np.array(args))
    for k, x in enumerate(args):
        for arg in (x, np.float64(x)):
            got = fn(arg)
            assert not isinstance(got, np.ndarray)
            assert np.float64(got).tobytes() == whole[k].tobytes(), (arg, got)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_gaussian_round_trip_property(u):
    src = GaussianSource(0.3, 1.7)
    assert src.cdf(src.quantile(u)) == pytest.approx(u, abs=1e-9)


@pytest.mark.parametrize("law,params,names", [
    (UniformSource, (0.0, math.inf), "lo and hi"),
    (UniformSource, (-math.inf, 0.0), "lo and hi"),
    (UniformSource, (math.nan, 1.0), "lo and hi"),
    (GaussianSource, (0.0, math.inf), "mu and sigma"),
    (GaussianSource, (math.nan, 1.0), "mu and sigma"),
    (GaussianSource, (math.inf, 1.0), "mu and sigma"),
    (GaussianSource, (-math.inf, 1.0), "mu and sigma"),
])
def test_constructors_refuse_non_finite_parameters(law, params, names):
    with pytest.raises(ValueError, match=f"need finite {names}"):
        law(*params)


def test_parse_source():
    assert parse_source("uniform:0,1") == UniformSource(0.0, 1.0)
    assert parse_source("gauss:0,1") == GaussianSource(0.0, 1.0)
    assert parse_source("circle") == CircleSource()
    assert [parse_source(text) for text in SOURCE_IDS] == ALL_SOURCES
    for bad in ("uniform", "uniform:1,0", "gauss:0,-1", "pareto:1,2", "gauss:a,b",
                "uniform:0,inf", "gauss:nan,1", "gauss:1e400,1"):
        with pytest.raises(ValueError):
            parse_source(bad)
