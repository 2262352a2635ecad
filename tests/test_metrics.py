import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from rdplab.metrics import (ExperimentResult, RunningMoments,
                            avg_conditional_entropy, entropy_bits,
                            KS_SLICE, KS_WINDOW, ks_statistic,
                            ks_threshold, plugin_entropy)
from rdplab.frontier import VonMisesLikeLaw
from rdplab.rng import SampleStreams
from rdplab.sources import CircleSource, GaussianSource


def squared_error_moments(x, xhat):
    acc = RunningMoments()
    acc.update((np.asarray(x, dtype=float) - np.asarray(xhat, dtype=float)) ** 2)
    return acc.mean, acc.mc_radius()


def test_mse_trivial():
    mean, radius = squared_error_moments([3.0] * 10, [3.0] * 10)
    assert mean == 0.0 and radius == 0.0
    mean, _ = squared_error_moments([0.0, 0.0], [1.0, -1.0])
    assert mean == pytest.approx(1.0, abs=1e-15)


def test_mse_independent_uniforms():
    rng = SampleStreams(21).block(0)
    x = rng.random(1_000_000)
    xhat = rng.random(1_000_000)
    mean, radius = squared_error_moments(x, xhat)
    # E(X - Xhat)^2 = 2 Var(U) = 1/6 for independent uniforms
    assert abs(mean - 1.0 / 6.0) <= radius


def test_plugin_entropy_values():
    assert plugin_entropy([17]) == 0.0
    assert math.copysign(1.0, plugin_entropy([17])) == 1.0   # not -0.0
    assert plugin_entropy([5, 0, 5]) == pytest.approx(1.0, abs=1e-15)
    assert plugin_entropy([1, 2, 2, 2, 1]) == pytest.approx(2.25, abs=1e-12)
    assert entropy_bits(np.array([0.25, 0.0, 0.5, 0.25])) == 1.5
    assert math.copysign(1.0, entropy_bits(np.array([1.0, 0.0]))) == 1.0
    assert entropy_bits([0.5, 0.0, 0.5]) == 1.0
    assert entropy_bits((0.25, 0.25, 0.5)) == 1.5


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


def formula_plugin_entropy(counts):
    """The plug-in entropy as whole-array formulas, one fresh array per
    step: plugin_entropy must keep its bits."""
    values = np.asarray(counts, dtype=float).ravel()
    p = values / values.sum()
    p = p[p > 0]
    return float(0.0 - (p * np.log2(p)).sum())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["random", "sparse", "float"])
def test_plugin_entropy_keeps_the_formula_bits(seed, kind):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 1 << 17))
    counts = rng.integers(0, 1000, size)
    if kind == "sparse":                # mostly empty cells, a few counts
        counts[rng.random(size) < 0.97] = 0
        counts[0] += 1
    if kind == "float":
        counts = counts.astype(float)
    kept = counts.copy()
    assert plugin_entropy(counts) == formula_plugin_entropy(counts)
    assert plugin_entropy(counts.reshape(1, -1)) == plugin_entropy(counts)
    # the caller's counts, a float array included, are left as they were
    assert counts.tolist() == kept.tolist()


@pytest.mark.parametrize("probs", [[math.nan, 1.0], [math.inf, 1.0],
                                   [-0.5, 1.5]],
                         ids=["nan", "inf", "negative"])
def test_entropy_bits_refuses_bad_probabilities(probs):
    with pytest.raises(ValueError, match="finite, non-negative"):
        entropy_bits(probs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_plugin_entropy_refuses_counts_that_are_not_finite(bad):
    # a NaN or infinite count made 0.0 bits, with a numpy warning
    with pytest.raises(ValueError, match="finite counts"):
        plugin_entropy([bad, 1.0])
    with pytest.raises(ValueError, match="finite counts"):
        avg_conditional_entropy([[1, 1], [bad, 1.0]])


def test_avg_conditional_entropy():
    assert avg_conditional_entropy([[2, 2]]) == pytest.approx(1.0)
    groups = [[1, 3], [1, 3]]
    assert avg_conditional_entropy(groups) == pytest.approx(
        plugin_entropy(groups[0]))
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


def whole_array_ks(samples, cdf):
    """The KS formula on whole arrays: max of i/n - F and F - (i - 1)/n."""
    n = samples.size
    f = cdf(np.sort(samples))
    return float(max((np.arange(1, n + 1) / n - f).max(),
                     (f - np.arange(n) / n).max()))


@pytest.mark.parametrize("n", [1, 2, KS_SLICE - 1, KS_SLICE, KS_SLICE + 1,
                               3 * KS_SLICE + 5])
@pytest.mark.parametrize("law", [GaussianSource(0.0, 1.0), CircleSource()],
                         ids=["gauss:0,1", "circle"])
def test_ks_slices_give_the_whole_array_bits(law, n):
    draws = law.sample(SampleStreams(n).block(0), n)
    mass = np.full(n, law.quantile(0.5))
    # shifted draws put D- (or D+) near the median, in a middle slice; a
    # point mass puts D- in the first slice and D+ in the last
    for x in (draws, draws - 0.5, draws + 0.5, mass):
        assert ks_statistic(x, law.cdf) == whole_array_ks(x, law.cdf)


@pytest.mark.parametrize("n", [KS_SLICE + 1, 5 * KS_WINDOW * KS_WINDOW + 7])
def test_ks_windows_give_the_whole_array_bits(n):
    def uniform(x):
        return np.clip(x, 0.0, 1.0)

    grid = (np.arange(n) + 0.5) / n         # D = 1/(2n): every window opens
    draws = SampleStreams(n).block(0).random(n)
    ties = np.round(draws, 3)
    tail = np.where(draws > 1.0 - 2.0 / n, 2.0, draws)   # D in the short
    inner = grid.copy()                                  # last window; D
    inner[5 * KS_WINDOW + 60] -= 1e-9                   # inside a window
    for x in (grid, grid[::-1], draws, ties, tail, inner):
        assert ks_statistic(x, uniform) == whole_array_ks(x, uniform)
    nan = draws.copy()
    nan[n // 2] = np.nan
    assert math.isnan(ks_statistic(nan, uniform))
    assert math.isnan(whole_array_ks(nan, uniform))


def test_ks_runs_the_cdf_on_few_windows():
    n = 1 << 20
    draws = SampleStreams(5).block(0).random(n)
    seen = []

    def cdf(x):
        seen.append(x.size)
        return np.clip(x, 0.0, 1.0)

    stat = ks_statistic(draws, cdf)
    # the window ends, then a few open windows; not the 2^20 samples
    assert seen[0] == 2 * n // KS_WINDOW and sum(seen) < n // 10
    assert stat == whole_array_ks(draws, cdf)


@pytest.mark.parametrize("n", [1, KS_SLICE + 1])
def test_ks_overwrite_samples_gives_the_copying_bits(n):
    law = GaussianSource(0.0, 1.0)
    draws = law.sample(SampleStreams(n).block(0), n)
    kept = draws.copy()
    want = ks_statistic(draws, law.cdf)
    assert draws.tobytes() == kept.tobytes()      # the default copies
    assert ks_statistic(kept, law.cdf, overwrite_samples=True) == want
    # a list or a strided view has no float array to hand over
    assert ks_statistic(draws.tolist(), law.cdf, overwrite_samples=True) == want
    pairs = np.stack([draws, draws]).T
    assert ks_statistic(pairs[:, 0], law.cdf, overwrite_samples=True) == want


def neg_p_log_p(pdf):
    def integrand(z):
        p = pdf(z)
        return -p * math.log(p) if p > 0.0 else 0.0
    return integrand


def test_differential_entropy_uniforms():
    h, _ = scipy.integrate.quad(neg_p_log_p(lambda x: 1.0 / (2 * math.pi)),
                                -math.pi, math.pi, epsabs=1e-12)
    assert h == pytest.approx(math.log(2 * math.pi), abs=1e-9)
    h, _ = scipy.integrate.quad(neg_p_log_p(lambda x: 1.0), 0.0, 1.0,
                                epsabs=1e-12)
    assert h == pytest.approx(0.0, abs=1e-9)
    # the exponential-cosine law flattens to the circle uniform as lam -> 0
    h = math.log(math.tau) - VonMisesLikeLaw(1e-8).divergence_nats()
    assert h == pytest.approx(math.log(2 * math.pi), abs=1e-9)


def test_differential_entropy_exponential_cosine_law():
    # Bessel-identity oracle: h = ln(2*pi*I0(2)) - 2*I1(2)/I0(2)
    lam = 2.0
    i0, i1 = scipy.special.i0(lam), scipy.special.i1(lam)
    oracle = math.log(2 * math.pi * i0) - lam * i1 / i0
    h = math.log(math.tau) - VonMisesLikeLaw(lam).divergence_nats()
    assert h == pytest.approx(oracle, abs=1e-8)
    assert oracle == pytest.approx(1.2663213, abs=1e-6)
    # second route to h(Z) = ln C - lam*E[cos Z]: -integral p ln p of the pdf
    for lam in (0.01, 1.0, 2.0, 10.0, 100.0):
        law = VonMisesLikeLaw(lam)
        h, _ = scipy.integrate.quad(neg_p_log_p(law.pdf), -math.pi, math.pi,
                                    epsabs=1e-12, limit=400)
        assert math.log(math.tau) - law.divergence_nats() == pytest.approx(
            h, abs=1e-9), lam


def test_experiment_result_validation():
    with pytest.raises(ValueError):
        ExperimentResult(rate_bits=1.0, mse=-0.1, perception_ks=0.0,
                         n_samples=1, seed=0, mc_radius_mse=0.0,
                         index_entropy_bits=1.0)
