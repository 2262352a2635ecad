import io
import math
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdplab import circle, metrics
from rdplab.circle import (MAX_FRONTIER_LEVELS, FrontierPoint,
                           one_shot_frontier, simulate_dithered_circle,
                           simulate_staggered_circle, staggered_circle_rd,
                           two_cell_objective, verify_two_cell_optimality,
                           wrap_angle)
from rdplab.metrics import ks_threshold
from rdplab.cli import cli_dispatch
from rdplab.rng import SampleStreams

BASELINE_DETERMINISTIC = 2.0 - 8.0 / math.pi ** 2     # L=2, N=1
BASELINE_DITHERED = 2.0 - 4.0 / math.pi               # L=2, N -> inf


def closed_form_distortion(levels, offsets):
    """Independent re-derivation used as the oracle for the simulators."""
    def sinc(x):
        return math.sin(x) / x
    if levels == 1:
        return 2.0
    return 2.0 - 2.0 * sinc(math.pi / (levels * offsets)) * sinc(math.pi / levels)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_wrap_angle_range_and_period(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi + 1e-12
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)


def test_wrap_angle_endpoints():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


def test_closed_form_baselines():
    p = staggered_circle_rd(2, 1)
    assert p.rate_bits == 1.0
    assert p.distortion == pytest.approx(BASELINE_DETERMINISTIC, abs=1e-15)
    for offsets in (1, 3, 10):
        p = staggered_circle_rd(1, offsets)
        assert (p.rate_bits, p.distortion) == (0.0, 2.0)
    assert staggered_circle_rd(2, 2).distortion == pytest.approx(
        0.8536816634984874, abs=1e-12)


def test_closed_form_matches_independent_expression():
    for levels in (2, 3, 4, 8):
        for offsets in (1, 2, 5, 16):
            got = staggered_circle_rd(levels, offsets).distortion
            assert got == pytest.approx(closed_form_distortion(levels, offsets),
                                        abs=1e-14)


def test_closed_form_monotone_in_levels_and_offsets():
    for levels in (2, 4, 8):
        d = [staggered_circle_rd(levels, n).distortion for n in (1, 2, 4, 16)]
        assert all(a > b for a, b in zip(d, d[1:]))
    for offsets in (1, 2, 4, 16):
        d = [staggered_circle_rd(lv, offsets).distortion for lv in (2, 4, 8)]
        assert all(a > b for a, b in zip(d, d[1:]))


def test_many_offsets_approach_dithered_limit():
    for levels in (2, 4, 8):
        lim = one_shot_frontier(levels)[-1].distortion
        assert abs(staggered_circle_rd(levels, 10_000).distortion - lim) < 1e-6


def test_one_shot_frontier_points():
    points = one_shot_frontier(2)
    assert (points[0].rate_bits, points[0].distortion) == (0.0, 2.0)
    assert points[1].rate_bits == 1.0
    assert points[1].distortion == pytest.approx(BASELINE_DITHERED, abs=1e-15)
    with pytest.raises(ValueError):
        one_shot_frontier(0)
    # the cap is checked before any point is built
    for l_max in (MAX_FRONTIER_LEVELS + 1, 10 ** 400):
        with pytest.raises(ValueError, match=str(MAX_FRONTIER_LEVELS)):
            one_shot_frontier(l_max)


def test_every_extreme_point_is_a_hull_vertex():
    # each interior point lies strictly below the chord of its neighbours,
    # so the points themselves are the lower convex hull's vertices
    points = one_shot_frontier(64)
    for p0, p1, p2 in zip(points, points[1:], points[2:]):
        cross = ((p1.rate_bits - p0.rate_bits) * (p2.distortion - p0.distortion)
                 - (p2.rate_bits - p0.rate_bits) * (p1.distortion - p0.distortion))
        assert cross > 0, p1.params


def test_simulated_staggered_matches_closed_form():
    for levels, offsets, seed in ((2, 1, 7), (2, 4, 8), (4, 2, 9)):
        res = simulate_staggered_circle(levels, offsets, 200_000,
                                        SampleStreams(seed))
        target = closed_form_distortion(levels, offsets)
        assert abs(res.mse - target) <= res.mc_radius_mse
        assert res.perception_ks < ks_threshold(res.n_samples)
        assert res.rate_bits == pytest.approx(math.log2(levels), abs=1e-3)


def test_simulated_dithered_matches_extreme_points():
    for levels, seed in ((2, 17), (4, 18)):
        res = simulate_dithered_circle(levels, 200_000, SampleStreams(seed))
        target = closed_form_distortion(levels, 10**9)
        assert abs(res.mse - target) <= res.mc_radius_mse
        assert res.perception_ks < ks_threshold(res.n_samples)
        assert res.rate_bits == math.log2(levels)
        assert res.index_entropy_bits == pytest.approx(math.log2(levels), abs=1e-3)


def test_dithered_l4_value():
    res = simulate_dithered_circle(4, 200_000, SampleStreams(4))
    assert abs(res.mse - 0.1993673676857879) <= res.mc_radius_mse


def test_simulation_is_deterministic():
    a = simulate_staggered_circle(2, 2, 10_240, SampleStreams(42))
    b = simulate_staggered_circle(2, 2, 10_240, SampleStreams(42))
    assert a == b


def test_scheme_validation():
    for levels, offsets in ((0, 1), (2, 0)):
        with pytest.raises(ValueError, match="levels and offsets"):
            simulate_staggered_circle(levels, offsets, 10, SampleStreams(0))
    with pytest.raises(ValueError, match="levels"):
        simulate_dithered_circle(0, 10, SampleStreams(0))
    with pytest.raises(ValueError):
        FrontierPoint(-0.5, 1.0, "closed-form", "")
    with pytest.raises(ValueError):
        FrontierPoint(1.0, 4.5, "closed-form", "")


# -- two adjacent cells ------------------------------------------------------

def test_two_cell_objective_symmetric():
    r, lam = 0.7, 6.0
    alpha = r * np.arange(1, 2000) / 2000.0
    vals = two_cell_objective(alpha, r, lam)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-12


def test_two_cell_midpoint_optimum():
    rep = verify_two_cell_optimality(0.5, 10.0, 100_000)
    assert rep.is_midpoint and not rep.boundary_optimum
    assert abs(rep.alpha_opt - 0.25) <= rep.grid_step


def test_two_cell_small_lambda_degenerates():
    rep = verify_two_cell_optimality(0.5, 0.5, 10_001)
    assert rep.boundary_optimum and not rep.is_midpoint


def test_two_cell_input_validation():
    with pytest.raises(ValueError):
        verify_two_cell_optimality(1.5, 10.0, 100)
    with pytest.raises(ValueError):
        verify_two_cell_optimality(0.5, -1.0, 100)
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            verify_two_cell_optimality(0.5, lam, 100)
    with pytest.raises(ValueError):
        verify_two_cell_optimality(0.5, 10.0, 2)


def test_circle_at_the_levels_cap_counts_without_a_chunk_long_bincount(
        monkeypatch):
    # 2^20 cells and 2^20 samples: a bincount per chunk would add a fresh
    # 8 MiB array to the run's 8 MiB reconstructions and 8 MiB counts, and
    # an entropy with a float temporary per step would hold five 8 MiB
    # arrays besides them (42.1 MiB for the whole run); one range, since
    # tracemalloc sees neither a child's arrays nor the shared buffer
    monkeypatch.setattr(metrics, "WORKERS", 1)
    peaks, before = [], []
    engine = circle.simulate_chunks

    def measured(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        before.append(peak)
        tracemalloc.reset_peak()
        try:
            return engine(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - current)

    monkeypatch.setattr(circle, "simulate_chunks", measured)
    out = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            code = cli_dispatch(["circle-simulate", "--L", "1048576",
                                 "--N", "1", "--samples", "1048576",
                                 "--seed", "5"])
        # the peak since the engine began, or the one before it
        whole = max(tracemalloc.get_traced_memory()[1], *before)
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.getvalue().splitlines()[1:] == [
        "circle-staggered,L=1048576;N=1,19.1715768,5.98522481e-12,"
        "0.000610720785,monte-carlo,5,1048576"]
    assert len(peaks) == 1 and peaks[0] < 22 * 2 ** 20
    assert whole < 34 * 2 ** 20


@pytest.mark.parametrize("simulate", [
    lambda levels: simulate_staggered_circle(levels, 1, 1, SampleStreams(0)),
    lambda levels: simulate_dithered_circle(levels, 1, SampleStreams(0)),
], ids=["staggered", "dithered"])
def test_circle_simulators_refuse_levels_past_the_cap(simulate):
    # refused before the L-sized bins are allocated, which take about
    # 17 MiB at this L even for one sample
    assert circle.MAX_LEVELS == 2 ** 20
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^levels must be <= 1048576, "
                                             r"got 1048577$"):
            simulate(circle.MAX_LEVELS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5, 7, 64])
def test_bin_fold_counts_each_index_mod_levels(levels):
    # the circle step counts bin i + shift for cell index i; the fold must
    # give each i mod L its count, not a rotation of them (the entropy
    # cannot tell the two apart)
    shift = levels // 2 + 2
    bins = np.random.default_rng(levels).integers(0, 1000, 2 * shift + 1)
    index = np.arange(bins.size) - shift
    want = np.bincount(index % levels, weights=bins, minlength=levels)
    assert circle._fold(bins, shift, levels).tolist() == want.tolist()
