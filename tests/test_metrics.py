import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from rdplab.metrics import (ExperimentResult, RunningMoments,
                            avg_conditional_entropy,
                            differential_entropy_quadrature, ks_statistic,
                            ks_threshold, mse, plugin_entropy)
from rdplab.rng import SampleStreams


def test_mse_trivial():
    mean, radius = mse([(3.0, 3.0)] * 10)
    assert mean == 0.0 and radius == 0.0
    mean, _ = mse([(0.0, 1.0), (0.0, -1.0)])
    assert mean == pytest.approx(1.0, abs=1e-15)
    mean, _ = mse(((0.0, 1.0), (0.0, -1.0)))   # tuple of pairs, not arrays
    assert mean == pytest.approx(1.0, abs=1e-15)


def test_mse_independent_uniforms():
    rng = SampleStreams(21).block(0)
    x = rng.random(1_000_000)
    xhat = rng.random(1_000_000)
    mean, radius = mse((x, xhat))
    # E(X - Xhat)^2 = 2 Var(U) = 1/6 for independent uniforms
    assert abs(mean - 1.0 / 6.0) <= radius


def test_mse_empty_rejected():
    with pytest.raises(ValueError):
        mse([])


def test_running_moments_merge_matches_bulk():
    rng = np.random.default_rng(3)
    data = rng.random(10_000)
    bulk = RunningMoments()
    bulk.update(data)
    merged = RunningMoments()
    for part in np.array_split(data, 7):
        piece = RunningMoments()
        piece.update(part)
        merged.merge(piece)
    assert merged.n == bulk.n
    assert merged.mean == pytest.approx(bulk.mean, rel=1e-12)
    assert merged.variance() == pytest.approx(bulk.variance(), rel=1e-10)


def test_plugin_entropy_values():
    assert plugin_entropy({0: 17}) == 0.0
    assert math.copysign(1.0, plugin_entropy({0: 17})) == 1.0   # not -0.0
    assert plugin_entropy({0: 5, 1: 5}) == pytest.approx(1.0, abs=1e-15)
    assert plugin_entropy([1, 2, 2, 2, 1]) == pytest.approx(2.25, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12)
       .filter(lambda c: sum(c) >= 1))
def test_plugin_entropy_bounded_by_log_support(counts):
    k = sum(1 for c in counts if c > 0)
    h = plugin_entropy(counts)
    assert -1e-12 <= h <= math.log2(k) + 1e-12
    positive = [c for c in counts if c > 0]
    if len(set(positive)) == 1:
        assert h == pytest.approx(math.log2(k), abs=1e-12)


def test_avg_conditional_entropy():
    assert avg_conditional_entropy([{0: 2, 1: 2}]) == pytest.approx(1.0)
    maps = [{0: 1, 1: 3}, {0: 1, 1: 3}]
    assert avg_conditional_entropy(maps) == pytest.approx(plugin_entropy(maps[0]))
    exact = avg_conditional_entropy([[1, 1, 1, 1], [1, 2, 2, 2, 1]])
    assert exact == pytest.approx((2.0 + 2.25) / 2.0, abs=1e-12)


def test_ks_null_case_large_sample():
    draws = SampleStreams(123).block(0).random(1_000_000)
    stat = ks_statistic(draws, lambda x: np.clip(x, 0.0, 1.0))
    assert stat < ks_threshold(1_000_000)


def test_ks_point_mass_at_median():
    stat = ks_statistic(np.full(1000, 0.5), lambda x: np.clip(x, 0.0, 1.0))
    assert stat >= 0.5


def test_ks_detects_shift():
    draws = SampleStreams(77).block(0).random(1_000_000)
    stat = ks_statistic(draws, lambda x: np.clip(x - 0.1, 0.0, 1.0))
    assert stat == pytest.approx(0.1, abs=0.005)


def test_differential_entropy_uniforms():
    h = differential_entropy_quadrature(
        lambda x: 1.0 / (2 * math.pi), (-math.pi, math.pi))
    assert h == pytest.approx(math.log(2 * math.pi), abs=1e-9)
    h = differential_entropy_quadrature(lambda x: 1.0, (0.0, 1.0))
    assert h == pytest.approx(0.0, abs=1e-9)


def test_differential_entropy_exponential_cosine_law():
    # Bessel-identity oracle: h = ln(2*pi*I0(2)) - 2*I1(2)/I0(2)
    lam = 2.0
    i0, i1 = scipy.special.i0(lam), scipy.special.i1(lam)
    oracle = math.log(2 * math.pi * i0) - lam * i1 / i0
    c = 2 * math.pi * i0

    def pdf(z):
        return math.exp(lam * math.cos(z)) / c

    h = differential_entropy_quadrature(pdf, (-math.pi, math.pi))
    assert h == pytest.approx(oracle, abs=1e-8)
    assert h == pytest.approx(1.2663213, abs=1e-6)


def test_experiment_result_validation():
    with pytest.raises(ValueError):
        ExperimentResult(rate_bits=1.0, mse=-0.1, perception_ks=0.0,
                         n_samples=1, seed=0, mc_radius_mse=0.0,
                         index_entropy_bits=1.0)


def test_quadrature_depth_cap_is_hard_error():
    from rdplab.quadrature import QuadratureError, adaptive_simpson

    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: math.sin(1.0 / (x + 1e-12)) / (x + 1e-12),
                         0.0, 1.0, tol=1e-12, max_depth=8)
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, 1.0, 0.0)
