import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rdplab import stagger
from rdplab.metrics import entropy_bits, ks_threshold
from rdplab.rng import SampleStreams
from rdplab.sources import (DEGENERATE_MASS, CircleSource, GaussianSource,
                            UniformSource)
from rdplab.stagger import (ACTIVE_EPS, MAX_TABLE_CODES, BoundaryTable,
                            InactiveCodeError, StaggeredSpec, _by_offset,
                            build_boundaries, cell_left, decode,
                            dithered_reference, encode,
                            exact_code_distribution, simulate_pipeline)
from reference_tables import exact_ks_gap, paper_table, reference_table

UNIT = UniformSource(0.0, 1.0)
GAUSS = GaussianSource(0.0, 1.0)

# Grid anchored at the support edge: cell edges of offset 0 at 0, D, 2D, ...
ALIGNED = 0.125


def aligned_spec(n_offsets, delta=0.25):
    return StaggeredSpec(UNIT, delta, n_offsets, origin=delta / 2.0)


def oracle_pipeline_mse(spec):
    """Independent analytic oracle for the end-to-end MSE.

    Enumerates active codes from first principles, all codes as one array:
    conditioned on code j the input is the source on the cell and the
    reconstruction is an independent draw from the source on [a(j), b(j)].
    Conditional moments come from scipy.stats (truncnorm / arithmetic)
    rather than the library.
    """
    src = spec.source
    lo, hi = src.effective_support()
    table = build_boundaries(spec)
    keep = table.prob > 1e-12
    p, a, b = table.prob[keep], table.a[keep], table.b[keep]
    left = cell_left(spec, table.codes[keep])
    cl, cr = np.maximum(left, lo), np.minimum(left + spec.delta, hi)
    if isinstance(src, GaussianSource):
        mu, sigma = src.mu, src.sigma
        tc = scipy.stats.truncnorm((cl - mu) / sigma, (cr - mu) / sigma,
                                   loc=mu, scale=sigma)
        tr = scipy.stats.truncnorm((a - mu) / sigma, (b - mu) / sigma,
                                   loc=mu, scale=sigma)
        m_cell, v_cell = tc.mean(), tc.var()
        m_rec, v_rec = tr.mean(), tr.var()
    else:                           # flat density: uniform and circle kinds
        m_cell, v_cell = (cl + cr) / 2.0, (cr - cl) ** 2 / 12.0
        m_rec, v_rec = (a + b) / 2.0, (b - a) ** 2 / 12.0
    return float(np.sum(p * (v_cell + v_rec + (m_cell - m_rec) ** 2)))


def test_encode_examples():
    assert encode(StaggeredSpec(UNIT, 1.0, 2), 0.4, 0) == 0
    assert encode(StaggeredSpec(UNIT, 1.0, 2), 0.4, 1) == 0
    assert encode(StaggeredSpec(UNIT, 0.25, 2), 0.9, 1) == 3
    spec = StaggeredSpec(UNIT, 0.5, 4)
    idx = encode(spec, np.array([0.1, 0.6, -0.3]), np.array([0, 1, 2]))
    assert idx.tolist() == [0, 1, -1]


def test_encode_round_half_up():
    spec = StaggeredSpec(UNIT, 1.0, 1)
    assert encode(spec, 0.5, 0) == 1
    assert encode(spec, -0.5, 0) == 0
    assert encode(spec, 1.5, 0) == 2


def test_encode_rejects_bad_offset():
    with pytest.raises(ValueError):
        encode(StaggeredSpec(UNIT, 1.0, 2), 0.0, 2)


def test_encode_offset_guard_accepts_what_the_comparisons_accept():
    # the guard reduces with min/max; it must refuse exactly the offsets
    # outside [0, N), and pass empty arrays and scalars
    spec = StaggeredSpec(UNIT, 0.5, 3)
    values = [-(2 ** 63), -1, 0, 2, 3, 2 ** 63 - 1]
    cases = values + [np.int64(v) for v in values]
    cases += [np.array([a, b]) for a in values for b in values]
    cases += [np.array([], dtype=np.int64), np.array(values), np.array(1)]
    for n in cases:
        refused = bool(np.any(np.less(n, 0)) or np.any(np.greater_equal(n, 3)))
        x = np.zeros(np.shape(n))
        try:
            encode(spec, x, n)
        except ValueError:
            assert refused, n
        else:
            assert not refused, n


def test_encode_and_cell_left_scalars_give_the_array_bits():
    # a scalar argument gives a numpy scalar with the bits of the matching
    # element of the array result, at ties, far outside and at large codes
    spec = StaggeredSpec(GaussianSource(0.3, 2.0), 0.25, 3, origin=-0.1)
    x = [-0.1, 0.025, -0.225, 0.0, 1e-300, -40.0, 40.0, 1e6, -2.5e9]
    n = [0, 1, 2, 0, 1, 2, 0, 1, 2]
    idx = encode(spec, np.array(x), np.array(n))
    for k in range(len(x)):
        for xs, ns in ((x[k], n[k]), (np.float64(x[k]), np.int64(n[k]))):
            got = encode(spec, xs, ns)
            assert not isinstance(got, np.ndarray)
            assert got.dtype == idx.dtype and got == idx[k]
    j = [-(2 ** 40), -7, -1, 0, 1, 2, 3, 1000, 2 ** 52]
    left = cell_left(spec, np.array(j))
    for k in range(len(j)):
        for js in (j[k], np.int64(j[k])):
            got = cell_left(spec, js)
            assert not isinstance(got, np.ndarray)
            assert np.float64(got).tobytes() == left[k].tobytes()


def test_cell_left_values():
    assert cell_left(StaggeredSpec(UNIT, 1.0, 2), 3) == pytest.approx(1.0)
    assert cell_left(StaggeredSpec(UNIT, 1.0, 1), 0) == pytest.approx(-0.5)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-40, max_value=40))
def test_cells_one_quantizer_apart_differ_by_delta(j):
    spec = StaggeredSpec(UNIT, 0.3, 4, origin=0.05)
    gap = cell_left(spec, j + spec.n_offsets) - cell_left(spec, j)
    assert gap == pytest.approx(spec.delta, abs=1e-12)


def bisect_inf_of_code(spec, j, lo=-50.0, hi=50.0):
    """Oracle for cell_left: inf{x : some offset maps x to global code j}."""
    n = j % spec.n_offsets
    i = (j - n) // spec.n_offsets

    def hits(x):
        return encode(spec, x, n) >= i

    assert not hits(lo) and hits(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_cell_left_matches_bisection_oracle():
    for spec in (StaggeredSpec(UNIT, 1.0, 2), StaggeredSpec(UNIT, 0.25, 3),
                 StaggeredSpec(UNIT, 0.4, 1, origin=0.07)):
        for j in (-3, 0, 1, 5):
            assert cell_left(spec, j) == pytest.approx(
                bisect_inf_of_code(spec, j), abs=1e-9)


# -- boundary tables ---------------------------------------------------------

def test_boundaries_uniform_single_quantizer_aligned():
    table = build_boundaries(aligned_spec(1))
    assert table.codes.tolist() == [0, 1, 2, 3]
    assert table.a.tolist() == pytest.approx([0.0, 0.25, 0.5, 0.75])
    assert table.b.tolist() == pytest.approx([0.25, 0.5, 0.75, 1.0])
    # N=1 decoder interval is the full cell intersected with the support
    assert np.allclose(table.a, table.cell_lo)
    assert np.allclose(table.b, table.cell_hi)


def test_boundaries_uniform_interior_formula():
    # linear CDF, origin 0: a(j) = delta*j/N - delta/(2N) on interior codes
    spec = StaggeredSpec(UNIT, 0.25, 2)
    table = build_boundaries(spec)
    for k, j in enumerate(table.codes):
        expected = spec.delta * j / 2.0 - spec.delta / 4.0
        if 0.0 < expected < 1.0 - spec.delta:   # away from the clipped edges
            assert table.a[k] == pytest.approx(expected, abs=1e-12)


def test_interior_interval_is_centered_sub_interval():
    # per interior code: interval is the centered width-delta/N sub-interval,
    # so the conditional MSE is delta^2/12 * (1 + 1/N^2), approaching the
    # dithered distortion delta^2/12 as N grows
    prev_cond = math.inf
    for n_off in (2, 4, 8, 64):
        spec = aligned_spec(n_off)
        table = build_boundaries(spec)
        interior = 0
        for k, j in enumerate(table.codes):
            cl = cell_left(spec, int(j))
            cr = cl + spec.delta
            if cl < 0.0 or cr > 1.0:
                continue
            interior += 1
            width = table.b[k] - table.a[k]
            center = 0.5 * (table.a[k] + table.b[k])
            assert width == pytest.approx(spec.delta / n_off, abs=1e-12)
            assert center == pytest.approx(0.5 * (cl + cr), abs=1e-12)
            cond = (cr - cl) ** 2 / 12.0 + width ** 2 / 12.0
            assert cond == pytest.approx(
                spec.delta ** 2 / 12.0 * (1.0 + 1.0 / n_off ** 2), abs=1e-15)
        assert interior > 0
        assert cond < prev_cond
        prev_cond = cond
    assert prev_cond == pytest.approx(spec.delta ** 2 / 12.0, rel=0.001)


def test_mass_identity_uniform_and_gaussian():
    assert build_boundaries(aligned_spec(2)).mass_identity_error() <= 1e-9
    table = build_boundaries(StaggeredSpec(GAUSS, 0.5, 4))
    assert table.mass_identity_error() <= 1e-9
    assert np.all(table.prob > 1e-12)


def test_partition_property():
    for spec in (aligned_spec(2), StaggeredSpec(GAUSS, 0.5, 2),
                 StaggeredSpec(UNIT, 0.3, 3, origin=0.04)):
        table = build_boundaries(spec)
        lo, hi = spec.source.effective_support()
        assert table.a[0] == pytest.approx(lo, abs=1e-12)
        assert table.b[-1] == pytest.approx(hi, abs=1e-9)
        assert np.allclose(table.b[:-1], table.a[1:])
        assert np.all(table.b >= table.a)


def assert_matches_reference(spec):
    try:
        want = reference_table(spec)
    except (RuntimeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            build_boundaries(spec)
        assert str(got.value) == str(exc)
        return str(exc)
    table = build_boundaries(spec)
    for field in dataclasses.fields(BoundaryTable)[1:]:
        value, got = getattr(want, field.name), getattr(table, field.name)
        assert got.dtype == value.dtype and got.shape == value.shape, field
        assert got.tobytes() == value.tobytes(), (field.name, spec)
    return None


# the ids name the index convention too: the default one, the only one
# the library builds
@pytest.mark.parametrize("source", [UNIT, GaussianSource(2.0, 3.0),
                                    CircleSource()],
                         ids=["uniform-default", "gauss-default",
                              "circle-default"])
def test_one_pass_table_matches_separate_passes(source):
    for n_off in (1, 2, 3, 8):
        for delta in (0.07, 0.3, 1.0, 5.0):
            for origin in (0.0, 0.1, -0.37):
                assert_matches_reference(StaggeredSpec(
                    source, delta, n_off, origin))


def test_one_pass_table_keeps_its_faults():
    # both routes raise the same false mass-identity fault on the finest
    # exact-sweep grid, and the same size-cap error
    msg = assert_matches_reference(StaggeredSpec(GAUSS, 1e-3, 8))
    assert msg == "mass identity violated by 1.309e-09 (indexing fault?)"
    assert assert_matches_reference(StaggeredSpec(GAUSS, 0.01, 8)) is None
    msg = assert_matches_reference(StaggeredSpec(UNIT, 1e-9, 1))
    assert "a table takes at most" in msg


@st.composite
def table_specs(draw):
    """(law, delta, N, origin) with delta from 1e-3 to 10 support
    widths."""
    law = draw(st.sampled_from(["uniform", "gauss", "circle"]))
    if law == "uniform":
        lo = draw(st.floats(-5.0, 5.0))
        source = UniformSource(lo, lo + draw(st.floats(0.01, 100.0)))
    elif law == "gauss":
        source = GaussianSource(draw(st.floats(-5.0, 5.0)),
                                draw(st.floats(0.01, 100.0)))
    else:
        source = CircleSource()
    lo, hi = source.effective_support()
    delta = (hi - lo) * 10.0 ** draw(st.floats(-3.0, 1.0))
    origin = draw(st.one_of(st.just(0.0), st.just(lo + delta / 2.0),
                            st.floats(lo - delta, hi + delta)))
    return StaggeredSpec(source, delta, draw(st.integers(1, 8)), origin)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=table_specs())
def test_table_properties(spec):
    try:
        table = build_boundaries(spec)
    except RuntimeError as exc:
        # the fine-grid fault of the end codes' left-out tail mass
        assert str(exc).startswith("mass identity violated")
        return
    lo, hi = spec.source.effective_support()
    # the table alone decides which codes exist: one run, each with mass
    codes = table.codes
    assert np.array_equal(codes, np.arange(codes[0], codes[0] + codes.size))
    assert np.all(table.prob > ACTIVE_EPS)
    # the intervals tile the support, each holding source mass
    assert table.a[0] == lo and table.b[-1] == hi
    assert np.array_equal(table.b[:-1], table.a[1:])
    assert np.all(table.fb - table.fa >= DEGENERATE_MASS)
    # encode then decode lands in the code's interval, for every code drawn
    rng = SampleStreams(3).block(0)
    x = spec.source.sample(rng, 200)
    n = rng.integers(0, spec.n_offsets, 200)
    j = spec.n_offsets * encode(spec, x, n) + n
    k = j - table.j_first
    xhat = decode(table, j, rng.random(j.shape))
    assert np.all((xhat >= table.a[k]) & (xhat <= table.b[k]))
    # the exact route accepts the table too
    if spec.delta >= 1e-2 * (hi - lo):
        exact_code_distribution(spec)


def test_table_reads_the_cdf_twice(monkeypatch):
    calls = []
    cdf = GaussianSource.cdf

    def counted(self, x):
        calls.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(GaussianSource, "cdf", counted)
    spec = StaggeredSpec(GaussianSource(2.0, 3.0), 0.3, 4, origin=0.1)
    table = build_boundaries(spec)
    # the cell edges j_min - N .. j_max + N, then the A + 1 boundaries
    assert len(calls) == 2
    assert calls[1] == table.codes.size + 1


# The paper prints a(j) at the quantile of the mean of F over the cell
# edges j-N .. j-1; the tests build that table themselves (paper_table).
# Per spec: the exact KS gap of its decoder's output law and its
# mass-identity error.
PAPER_FINDINGS = [(StaggeredSpec(GAUSS, 0.5, 2), 0.194438, 0.0290),
                  (aligned_spec(2), 0.25, 0.25)]


def test_paper_table_is_a_shift_and_breaks_mass_identity():
    for spec, _, mass_error in PAPER_FINDINGS:
        default, paper = build_boundaries(spec), paper_table(spec)
        # the paper's a(j) is the default a(j - N) wherever both are interior
        shifted = 0
        for k, j in enumerate(paper.codes):
            back = j - spec.n_offsets - default.j_first
            if 0 < k and 0 < back < default.codes.size:
                assert paper.a[k] == default.a[back]
                shifted += 1
        assert shifted > 0
        assert paper.mass_identity_error() == pytest.approx(mass_error,
                                                            abs=1e-4)
        assert default.mass_identity_error() < 1e-12


def test_paper_table_has_an_exact_ks_gap():
    # the default table's decoder reproduces the source law to within the
    # sub-threshold tail mass; the paper's misses it by a fixed gap
    for spec, ks_gap, _ in PAPER_FINDINGS:
        assert exact_ks_gap(paper_table(spec)) == pytest.approx(ks_gap,
                                                                abs=1e-6)
        assert exact_ks_gap(build_boundaries(spec)) < 2e-12


def test_paper_table_breaks_perception(monkeypatch):
    # the Monte Carlo route meets the exact gap of the paper's table
    spec, ks_gap, _ = PAPER_FINDINGS[0]
    good = simulate_pipeline(spec, 100_000, SampleStreams(6))
    assert good.perception_ks < ks_threshold(good.n_samples)
    monkeypatch.setattr(stagger, "build_boundaries", paper_table)
    res = simulate_pipeline(spec, 100_000, SampleStreams(6))
    assert res.perception_ks == pytest.approx(0.194157, abs=1e-6)
    assert abs(res.perception_ks - ks_gap) < ks_threshold(res.n_samples)


def test_decode_stays_in_interval_and_rejects_inactive():
    spec = StaggeredSpec(GAUSS, 0.5, 2)
    table = build_boundaries(spec)
    rng = SampleStreams(1).block(0)
    a, b = table.a[-table.j_first], table.b[-table.j_first]
    draws = decode(table, np.zeros(1000, dtype=np.int64), rng.random(1000))
    assert np.all((draws >= a) & (draws <= b))
    with pytest.raises(InactiveCodeError):
        decode(table, np.array([20_000]), rng.random(1))
    # the offset-range check lives in the encoder, which makes the codes
    with pytest.raises(ValueError):
        encode(spec, 0.0, 5)


def test_paper_table_edge_code_is_degenerate():
    # the first code of the paper's aligned table is active but its
    # interval holds no source mass; the decoder refuses it rather than
    # drawing from an empty truncation
    table = paper_table(aligned_spec(2))
    assert table.prob[0] > ACTIVE_EPS
    assert table.fb[0] - table.fa[0] < DEGENERATE_MASS
    rng = SampleStreams(2).block(0)
    with pytest.raises(InactiveCodeError, match="degenerate"):
        decode(table, np.array([table.j_first]), rng.random(1))


def test_paper_table_exact_rejects_an_empty_interval(paper_tables):
    # the paper's aligned table starts with codes whose intervals are
    # empty; the exact route refuses the first one, as the decoder does,
    # rather than summing the distortion over the rest of the mass
    table = paper_table(aligned_spec(2))
    assert table.b[0] == table.a[0] == 0.0
    with pytest.raises(InactiveCodeError,
                       match=f"code {table.j_first} has a degenerate"):
        exact_code_distribution(aligned_spec(2))


def test_decode_matches_code_array_draws():
    # one decoder: a code array draws the clipped quantile of
    # F(a) + U (F(b) - F(a)), one uniform per code, in the array's shape
    table = build_boundaries(StaggeredSpec(GaussianSource(2.0, 3.0), 0.3, 3,
                                           origin=0.1))
    i, n = 4, 2
    j = 3 * i + n
    k = j - table.j_first
    src, a, b = table.spec.source, table.a[k], table.b[k]
    fa, fb = src.cdf(a), src.cdf(b)
    for size in ((), 7, (2, 3)):
        got = decode(table, np.full(size, j), SampleStreams(8).block(0).random(size))
        u = SampleStreams(8).block(0).random(size)
        want = np.clip(src.quantile(fa + u * (fb - fa)), a, b)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


# -- exact code statistics ---------------------------------------------------

def mask_split(values, codes, n_off):
    """Per-offset rows by one boolean mask per offset over all codes."""
    offset_of = np.mod(codes, n_off)
    return [values[offset_of == n] for n in range(n_off)]


@pytest.mark.parametrize("n_off", [1, 2, 3, 8])
@pytest.mark.parametrize("j_first", [-1001, -17, -8, -3, -1, 0, 1, 5, 8, 1003])
def test_offset_split_by_strides_matches_the_masks(j_first, n_off):
    for size in (1, n_off - 1, n_off, n_off + 1, 50, 51):
        if size < 1:
            continue
        codes = np.arange(j_first, j_first + size)
        values = np.random.default_rng(size).random(size)
        got = _by_offset(values, j_first, n_off)
        want = mask_split(values, codes, n_off)
        assert len(got) == n_off
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n_off", [1, 2, 3, 8])
@pytest.mark.parametrize("source, origin", [
    (GAUSS, 0.0),                          # codes from about -40 N
    (UniformSource(5.0, 6.0), 0.0),        # codes from about 20 N
    (UniformSource(-3.0, -2.0), 0.05),
])
def test_exact_per_offset_masses_match_the_masks(source, origin, n_off):
    spec = StaggeredSpec(source, 0.25, n_off, origin)
    dist = exact_code_distribution(spec)
    want = [m * n_off for m in mask_split(dist.pooled_masses, dist.codes,
                                          n_off)]
    assert len(dist.per_offset_masses) == n_off
    for g, w in zip(dist.per_offset_masses, want):
        assert g.tobytes() == w.tobytes()
    ents = [entropy_bits(m) for m in want]
    assert dist.per_offset_entropy_bits == ents


def test_exact_masses_uniform_aligned():
    dist = exact_code_distribution(aligned_spec(1))
    assert len(dist.per_offset_masses) == 1
    assert dist.per_offset_masses[0].tolist() == pytest.approx([0.25] * 4)
    assert dist.per_offset_entropy_bits[0] == pytest.approx(2.0, abs=1e-12)

    dist = exact_code_distribution(aligned_spec(2))
    by_size = sorted((m.tolist() for m in dist.per_offset_masses), key=len)
    assert by_size[0] == pytest.approx([0.25] * 4)
    assert by_size[1] == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125])
    assert sorted(dist.per_offset_entropy_bits) == pytest.approx([2.0, 2.25])
    assert dist.avg_conditional_entropy_bits == pytest.approx(2.125, abs=1e-12)


def test_exact_dithered_reference_uniform():
    dith = dithered_reference(UNIT, 0.25)
    assert dith.n_cells == 5
    assert dith.fixed_rate_bits == pytest.approx(math.log2(5.0), abs=1e-15)
    assert dith.masses.tolist() == pytest.approx(
        [0.125, 0.25, 0.25, 0.25, 0.125], abs=1e-9)
    assert dith.entropy_bits == pytest.approx(2.25, abs=1e-9)
    assert dith.mse == pytest.approx(0.25 ** 2 / 12.0)


def quad_dithered_masses(source, delta):
    """Per-cell masses of the dithered index from first principles: the
    density (F(t + delta/2) - F(t - delta/2))/delta of X + Z integrated
    over each cell by scipy.integrate.quad, with the kinks of the uniform
    laws' densities as break points."""
    lo, hi = source.effective_support()
    n = math.ceil((hi - lo + delta) / delta - 1e-9)
    edges = lo - delta / 2.0 + delta * np.arange(n + 1)
    kinks = np.array([lo, hi])[:, None] + np.array([-delta, delta]) / 2.0

    def density(t):
        return (source.cdf(t + delta / 2.0) - source.cdf(t - delta / 2.0)) / delta

    masses = []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        inner = kinks[(kinks > e0) & (kinks < e1)]
        masses.append(scipy.integrate.quad(
            density, e0, e1, epsabs=1e-15, epsrel=1e-13, limit=200,
            points=inner if inner.size else None)[0])
    return np.array(masses)


@pytest.mark.parametrize("source", [GAUSS, GaussianSource(2.0, 3.0), UNIT,
                                    CircleSource()],
                         ids=["gauss:0,1", "gauss:2,3", "uniform:0,1", "circle"])
def test_dithered_masses_match_per_cell_quadrature(source):
    lo, hi = source.effective_support()
    for widths in (1e-3, 1e-2, 0.1, 0.37, 1.0, 5.0):
        delta = widths * (hi - lo)
        cells = quad_dithered_masses(source, delta)
        # the dropped tails fold into the end cells, as in the library
        kept = np.nonzero(cells > ACTIVE_EPS)[0]
        ref = cells[kept]
        ref[0] += cells[:kept[0]].sum()
        ref[-1] += cells[kept[-1] + 1:].sum()
        dith = dithered_reference(source, delta)
        assert dith.n_cells == ref.size, widths
        assert np.max(np.abs(dith.masses - ref)) <= 1e-12, widths


@pytest.mark.parametrize("delta", [1e-3, 5e-4, 2e-4])
@pytest.mark.parametrize("source", [GAUSS, GaussianSource(2.0, 3.0)],
                         ids=["gauss:0,1", "gauss:2,3"])
def test_dithered_masses_sum_to_one_on_fine_grids(source, delta):
    # cells below ACTIVE_EPS add up to 3e-10 .. 5e-9 of tail mass here
    dith = dithered_reference(source, delta)
    assert abs(math.fsum(dith.masses) - 1.0) <= 1e-14


def test_dithered_masses_of_a_narrow_off_centre_gaussian():
    # measured from the support's low end, the cells of gauss:-1,1e-9 at
    # delta = sigma are those of gauss:0,1 at delta = 1; in absolute
    # coordinates each edge would carry rounding of ulp(1)/sigma = 2e-7
    start = time.perf_counter()
    narrow = dithered_reference(GaussianSource(-1.0, 1e-9), 1e-9)
    elapsed = time.perf_counter() - start
    unit = dithered_reference(GAUSS, 1.0)
    assert narrow.n_cells == unit.n_cells
    assert np.max(np.abs(narrow.masses - unit.masses)) <= 1e-12
    assert elapsed < 0.1


def test_dithered_reference_cell_cap():
    # 1e9 cells are refused before any array is sized; the cap itself builds
    with pytest.raises(ValueError, match="dithered cells"):
        dithered_reference(UNIT, 1e-9)
    delta = 1.0 / (MAX_TABLE_CODES - 1)
    assert dithered_reference(UNIT, delta).n_cells == MAX_TABLE_CODES
    # standardized edges of a narrow Gaussian would overflow
    with pytest.raises(ValueError, match="support widths"):
        dithered_reference(GaussianSource(0.0, 1e-300), 1e-150)


def test_exact_mse_matches_independent_oracle():
    for spec in (aligned_spec(1), aligned_spec(2), aligned_spec(4),
                 StaggeredSpec(GAUSS, 0.5, 2), StaggeredSpec(GAUSS, 0.25, 4),
                 StaggeredSpec(GaussianSource(2.0, 3.0), 0.3, 3, origin=0.1)):
        got = exact_code_distribution(spec).mse_exact
        assert got == pytest.approx(oracle_pipeline_mse(spec), rel=1e-9)


def test_exact_mse_uniform_values():
    # aligned grid: N=1 is exactly delta^2/6 (input and reconstruction are
    # independent uniforms on a shared full cell)
    assert exact_code_distribution(aligned_spec(1)).mse_exact == pytest.approx(
        0.25 ** 2 / 6.0, abs=1e-15)
    assert exact_code_distribution(aligned_spec(2)).mse_exact == pytest.approx(
        0.0060221354166667, abs=1e-12)


def test_uniform_monotonicity_in_offsets():
    stats = [exact_code_distribution(aligned_spec(n)) for n in (1, 2, 4, 8)]
    mses = [s.mse_exact for s in stats]
    rates = [s.avg_conditional_entropy_bits for s in stats]
    assert all(a > b for a, b in zip(mses, mses[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))


def test_conditioning_does_not_increase_rate():
    for spec in (aligned_spec(2), aligned_spec(4), StaggeredSpec(GAUSS, 0.5, 4)):
        dist = exact_code_distribution(spec)
        assert dist.avg_conditional_entropy_bits <= dist.pooled_entropy_bits + 1e-12


def test_rate_advantage_report_numbers():
    # the headline comparison at delta = 0.25 on the unit uniform source:
    # two staggered quantizers transmit at 2.125 bits with exact output law,
    # below the dithered fixed rate log2(5); dropping to one quantizer saves
    # nothing and strictly increases distortion.
    two = exact_code_distribution(aligned_spec(2))
    one = exact_code_distribution(aligned_spec(1))
    assert two.avg_conditional_entropy_bits == pytest.approx(2.125, abs=1e-12)
    assert two.dithered.fixed_rate_bits == pytest.approx(math.log2(5), abs=1e-15)
    assert two.avg_conditional_entropy_bits < two.dithered.fixed_rate_bits
    assert one.avg_conditional_entropy_bits <= two.avg_conditional_entropy_bits
    assert one.mse_exact > two.mse_exact
    assert two.dithered.mse == pytest.approx(0.00520833333, abs=1e-9)


# -- end-to-end simulation ---------------------------------------------------

def test_pipeline_matches_exact_mse():
    for spec, seed in ((aligned_spec(1), 31), (aligned_spec(2), 32),
                       (StaggeredSpec(GAUSS, 0.5, 2), 33)):
        res = simulate_pipeline(spec, 200_000, SampleStreams(seed))
        assert abs(res.mse - oracle_pipeline_mse(spec)) <= res.mc_radius_mse
        assert res.perception_ks < ks_threshold(res.n_samples)


def test_pipeline_rate_matches_exact_entropies():
    spec = aligned_spec(2)
    res = simulate_pipeline(spec, 200_000, SampleStreams(34))
    dist = exact_code_distribution(spec)
    assert res.rate_bits == pytest.approx(dist.avg_conditional_entropy_bits,
                                          abs=5e-3)
    assert res.index_entropy_bits == pytest.approx(dist.pooled_entropy_bits,
                                                   abs=5e-3)


def test_pipeline_deterministic():
    spec = StaggeredSpec(GAUSS, 0.5, 2)
    a = simulate_pipeline(spec, 10_240, SampleStreams(9))
    b = simulate_pipeline(spec, 10_240, SampleStreams(9))
    assert a == b


def test_pipeline_on_circle_source():
    spec = StaggeredSpec(CircleSource(), math.pi / 2, 2,
                         origin=-math.pi + math.pi / 4)
    res = simulate_pipeline(spec, 100_000, SampleStreams(44))
    assert res.perception_ks < ks_threshold(res.n_samples)
    assert abs(res.mse - oracle_pipeline_mse(spec)) <= res.mc_radius_mse


def test_spec_validation():
    with pytest.raises(ValueError):
        StaggeredSpec(UNIT, 0.0, 1)
    with pytest.raises(ValueError):
        StaggeredSpec(UNIT, 0.25, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            StaggeredSpec(UNIT, bad, 1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            StaggeredSpec(UNIT, 0.25, 1, origin=bad)


def test_dithered_reference_rejects_an_overflowing_distortion():
    with pytest.raises(ValueError, match=r"delta 1e\+160"):
        dithered_reference(GAUSS, 1e160)
    assert dithered_reference(UNIT, 2.0).mse == 2.0 ** 2 / 12.0


def test_grid_size_cap():
    # the exact-sweep's finest table (about 1.6e5 candidate codes) passes
    # the cap: it is built, and only its mass identity (the fine-grid fault
    # of ROADMAP item 2) refuses it
    with pytest.raises(RuntimeError, match="mass identity violated"):
        build_boundaries(StaggeredSpec(GAUSS, 1e-3, 8))
    for spec in (StaggeredSpec(UNIT, 1e-9, 1),
                 StaggeredSpec(UniformSource(-1e307, 1e307), 1.0, 1),
                 StaggeredSpec(UNIT, 0.25, 1, origin=1e300)):
        with pytest.raises(ValueError, match="a table takes at most"):
            build_boundaries(spec)
