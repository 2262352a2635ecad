"""Staggered uniform quantizers for general scalar sources.

N uniform quantizers with stepsize delta are offset by delta/N each; the
n-th encoder is f_n(x) = round((x - origin)/delta - n/N) with round-half-up
ties.  A global code index j = N*i + n orders all (cell, quantizer) pairs;
the cell with code j starts at origin + delta*(j/N - 1/2).

The decoder achieves an output law exactly equal to the source law by
resampling: code j is decoded to a draw from the source conditioned on an
interval [a(j), b(j)], where the boundaries are built so that

    F(b(j)) - F(a(j)) = P(code j emitted)        (mass identity)

and consecutive intervals tile the support (b(j) = a(j+1)).  The identity
telescopes exactly when a(j) is placed at the quantile of the average of
F at the cell edges j .. j+N-1.  The index convention the paper prints
(edges j-N .. j-1) moves every interval one full step away from its cell
and breaks the mass identity; ``tests/reference_tables.py`` builds that
table and ``tests/test_stagger.py`` pins its gaps.

A table evaluates the source CDF once on its cell edges (reaching N codes
past the candidate range on either side) and once on its boundaries; code
masses, the N-term averages and the clipped cells all slice the one edge
array.  The one decoder, ``decode(table, j, u)``, draws every code of an
array from its interval by the inverse CDF of its pre-drawn uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import (ExperimentResult, avg_conditional_entropy, entropy_bits,
                      ks_statistic, plugin_entropy, simulate_chunks)
from .rng import DOUBLES, Offsets, SampleStreams
from .sources import DEGENERATE_MASS, SourceModel, draw_truncated

# benchmarks/tracing.py patches this name until ROADMAP item 1 lands
adaptive_simpson = None

# Codes carrying less probability than this are excluded from boundary
# tables; decoding them is a hard error rather than an extrapolation.
ACTIVE_EPS = 1e-12

# Tolerance on the telescoping mass identity; a violation beyond this
# signals an implementation fault.
MASS_TOL = 1e-9

# Limit on the candidate codes a boundary table scans: a table build at
# the limit peaks near 100 MB.  Codes must also be exact as doubles.
MAX_TABLE_CODES = 2 ** 20
MAX_CODE_INDEX = 2.0 ** 53

# Squared errors on a support of width W reach W^2, and a Monte Carlo
# error bar sums their squares, W^4 per sample.  Up to this width both
# stay finite for any count of samples below 2^53.
MAX_SUPPORT_WIDTH = 1e70

# One cell covers the support long before delta reaches this many support
# widths.  Beyond it, cell edges standardized by a narrow Gaussian's sigma
# overflow.
MAX_DELTA_WIDTHS = 1e100


class InactiveCodeError(ValueError):
    """A code lies outside the boundary table, or its decoder interval
    holds (next to) no source mass."""


@dataclass(frozen=True)
class StaggeredSpec:
    """Parameters of the staggered-quantizer construction.

    ``origin`` anchors the quantizer grid: the 0-th encoder's cell edges
    sit at origin + (k + 1/2)*delta.  The default origin 0 gives the plain
    round-to-nearest encoder; pass origin = lo + delta/2 to align cell
    edges with the left support edge of a bounded source.
    """

    source: SourceModel
    delta: float
    n_offsets: int
    origin: float = 0.0

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, "
                             f"got {self.delta}")
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if self.n_offsets < 1:
            raise ValueError(f"n_offsets must be >= 1, got {self.n_offsets}")
        lo, hi = self.source.effective_support()
        if not self.delta <= MAX_DELTA_WIDTHS * (hi - lo):
            raise ValueError(f"delta {self.delta:g} exceeds "
                             f"{MAX_DELTA_WIDTHS:g} support widths")


def encode(spec: StaggeredSpec, x, n, out=None, work=None):
    """Cell index of x under the n-th offset quantizer (round-half-up).

    ``out`` (int64) and ``work`` (float), arrays shaped like x, take the
    indices and the arithmetic in place of fresh arrays; n/N borrows the
    memory of ``out`` until the indices overwrite it.
    """
    if np.min(n, initial=0) < 0 or np.max(n, initial=0) >= spec.n_offsets:
        raise ValueError(f"offset index out of range [0, {spec.n_offsets})")
    t = np.subtract(x, spec.origin, out=work)
    t = np.divide(t, spec.delta, out=work)
    shift = np.divide(n, spec.n_offsets,
                      out=None if out is None else out.view(np.float64))
    t = np.subtract(t, shift, out=work)
    t = np.floor(np.add(t, 0.5, out=work), out=work)
    if out is None:
        return t.astype(np.int64)
    np.copyto(out, t, casting="unsafe")
    return out


def cell_left(spec: StaggeredSpec, j):
    """Left edge of the cell with global code j: origin + delta*(j/N - 1/2)."""
    return spec.origin + spec.delta * (j / spec.n_offsets - 0.5)


@dataclass(frozen=True)
class BoundaryTable:
    """Active codes with their decoder intervals and exact probabilities.

    Immutable after construction; arrays are indexed by j - codes[0]
    (active codes form one contiguous run).
    """

    spec: StaggeredSpec
    codes: np.ndarray      # active global code indices, contiguous
    a: np.ndarray          # interval left ends
    b: np.ndarray          # interval right ends, b[k] == a[k+1]
    prob: np.ndarray       # P(code j emitted)
    fa: np.ndarray         # source CDF at a
    fb: np.ndarray         # source CDF at b
    cell_lo: np.ndarray    # cell start clipped to support
    cell_hi: np.ndarray    # cell end clipped to support

    @property
    def j_first(self) -> int:
        return int(self.codes[0])

    @property
    def j_last(self) -> int:
        return int(self.codes[-1])

    def mass_identity_error(self) -> float:
        """max_j |F(b(j)) - F(a(j)) - P(j)| over active codes."""
        return float(np.max(np.abs((self.fb - self.fa) - self.prob)))


def build_boundaries(spec: StaggeredSpec) -> BoundaryTable:
    """Boundary table for all codes with probability above ACTIVE_EPS.

    Boundary values at the support edges are clipped to the support, so
    the first and last intervals absorb the tail mass and the intervals
    partition the support exactly.  The source CDF is evaluated twice:
    once on every cell edge the table reads and once on the boundaries.
    """
    source, n_off = spec.source, spec.n_offsets
    lo, hi = source.effective_support()

    t_lo = n_off * ((lo - spec.origin) / spec.delta - 0.5)
    t_hi = n_off * ((hi - spec.origin) / spec.delta + 0.5)
    # an overflowed t_lo or t_hi is infinite and fails the first test
    if not (max(abs(t_lo), abs(t_hi)) < MAX_CODE_INDEX
            and t_hi - t_lo < MAX_TABLE_CODES):
        raise ValueError(f"delta {spec.delta:g}, origin {spec.origin:g} and "
                         f"{n_off} offsets give codes {t_lo:.3g} .. "
                         f"{t_hi:.3g}; a table takes at most "
                         f"{MAX_TABLE_CODES} codes, within +/-2^53")
    if not hi - lo <= MAX_SUPPORT_WIDTH:
        raise ValueError(f"support width {hi - lo:g} exceeds "
                         f"{MAX_SUPPORT_WIDTH:g}: squared errors would "
                         f"overflow")
    j_min = int(math.ceil(t_lo)) - 1
    j_max = int(math.floor(t_hi)) + 1
    # edges[e] is the left end of the cell with code j_min - N + e, so the
    # cell of code j_min + m spans edges[m + N] .. edges[m + 2N]
    edges = cell_left(spec, np.arange(j_min - n_off, j_max + n_off + 1))
    f_edges = source.cdf(edges)
    prob = (f_edges[2 * n_off:] - f_edges[n_off:-n_off]) / n_off
    active = np.nonzero(prob > ACTIVE_EPS)[0]
    first, last = int(active[0]), int(active[-1])
    codes = np.arange(j_min + first, j_min + last + 1)
    prob = prob[first:last + 1]

    # a(j) at the quantile of the average of F over the cell edges
    # j .. j+N-1.  Each table code carries mass, so every interior average
    # lies in (0, 1).
    u = np.zeros(codes.size + 1)
    for k in range(1, n_off + 1):
        e = first + 2 * n_off - k
        u += f_edges[e:e + u.size]
    u /= n_off
    # the first and last intervals reach the support edges, so they absorb
    # the summed mass of the sub-threshold codes outside the table, which
    # their prob leaves out; the mass identity sees it (1.3e-9 on the
    # Gaussian delta=1e-3 N=8 grid, beyond MASS_TOL)
    bounds = np.concatenate(
        ([lo], np.clip(source.quantile(u[1:-1]), lo, hi), [hi]))
    f_bounds = source.cdf(bounds)

    cells = np.clip(edges[first + n_off:last + 2 * n_off + 1], lo, hi)
    table = BoundaryTable(
        spec=spec,
        codes=codes,
        a=bounds[:-1],
        b=bounds[1:],
        prob=prob,
        fa=f_bounds[:-1],
        fb=f_bounds[1:],
        cell_lo=cells[:codes.size],
        cell_hi=cells[n_off:],
    )
    err = table.mass_identity_error()
    if err > MASS_TOL:
        raise RuntimeError(
            f"mass identity violated by {err:.3e} (indexing fault?)")
    return table


def decode(table: BoundaryTable, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reconstructions for an array of global codes j = N*i + n: each a
    draw from the source conditioned on [a(j), b(j)], by the inverse CDF of
    its uniform in ``u`` (on [0, 1), one per code).
    """
    return _decode_rows(table, np.subtract(j, table.j_first), u)


def _by_offset(values, j_first: int, n_off: int) -> list[np.ndarray]:
    """Views of ``values``, one per code of the contiguous run from
    ``j_first``, split by offset: code j belongs to offset j mod N, so
    offset n's codes start at row (n - j_first) mod N and repeat every N."""
    return [values[(n - j_first) % n_off::n_off] for n in range(n_off)]


def _decode_rows(table: BoundaryTable, k, u, out=None, work=(None,) * 3):
    """``decode`` of the codes on the table rows k = j - j_first.  ``out``
    and the three ``work`` arrays, float arrays shaped like k, take the
    draws and the gathered intervals in place of fresh arrays."""
    fa_k, a_k, b_k = work
    # "clip" gathers the rows that "raise" would, without raise's buffered
    # copy into out; a row outside the table is refused below
    fa = np.take(table.fa, k, out=fa_k, mode="clip")
    fb = np.take(table.fb, k, out=out, mode="clip")
    _refuse_faulty_rows(table, k, np.subtract(fb, fa, out=a_k))
    a = np.take(table.a, k, out=a_k, mode="clip")
    b = np.take(table.b, k, out=b_k, mode="clip")
    return draw_truncated(table.spec.source, a, b, fa, fb, u, out=out)


def _refuse_faulty_rows(table: BoundaryTable, k, width) -> None:
    """Refuse the table rows ``k`` if one lies outside the table or has a
    decoder interval holding less than DEGENERATE_MASS (``width`` gives
    F(b) - F(a) per row; it is read only for rows inside).  The
    InactiveCodeError names the first faulty row in the order of ``k``,
    whichever check it fails, so a run names the same code at any chunk
    length."""
    k, width = np.ravel(k), np.ravel(width)
    # fmin skips NaN, as the comparison does
    if (np.min(k, initial=0) >= 0 and np.max(k, initial=0) < table.codes.size
            and np.fmin.reduce(width, initial=math.inf) >= DEGENERATE_MASS):
        return
    outside = (k < 0) | (k >= table.codes.size)
    bad = int(np.argmax(outside | (width < DEGENERATE_MASS)))
    code = int(k[bad]) + table.j_first
    if outside[bad]:
        raise InactiveCodeError(f"code {code} outside the active table")
    raise InactiveCodeError(f"code {code} has a degenerate interval")


@dataclass(frozen=True)
class DitheredReference:
    """Exact rate/distortion accounting of the dithered comparison scheme.

    The dithered quantizer adds shared uniform noise on (-delta/2, delta/2]
    before rounding; its grid is anchored so the noise-widened support
    spans the minimal number of cells.  ``entropy_bits`` is the exact
    entropy of the transmitted index (one shared entropy code, since
    tailoring per noise realization is impossible); ``fixed_rate_bits`` is
    log2 of the number of active cells; the distortion is delta^2/12 for
    any source.
    """

    masses: np.ndarray
    entropy_bits: float
    fixed_rate_bits: float
    n_cells: int
    mse: float


def dithered_reference(source: SourceModel, delta: float) -> DitheredReference:
    """Exact cell masses of the index f(X + Z) under uniform dither Z: the
    index lies below the cell with left edge e with probability E[F(e - Z)],
    the mean of F on [e - delta/2, e + delta/2], so the masses telescope."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    mse = delta * delta / 12.0
    if not math.isfinite(mse):
        raise ValueError(f"delta {delta:g} gives a dithered distortion "
                         f"delta^2/12 beyond the float range")
    lo, hi = source.effective_support()
    cells = (hi - lo + delta) / delta - 1e-9
    if not (cells <= MAX_TABLE_CODES and delta <= MAX_DELTA_WIDTHS * (hi - lo)):
        raise ValueError(f"delta {delta:g} gives {cells:.3g} dithered cells; "
                         f"at most {MAX_TABLE_CODES}, within "
                         f"{MAX_DELTA_WIDTHS:g} support widths")
    # cell k has its left edge at lo + delta*(k - 1/2)
    t = delta * np.arange(-1, math.ceil(cells) + 1)
    every = np.diff(source.mean_cdf_from_lo(t[:-1], t[1:]))
    kept = np.nonzero(every > ACTIVE_EPS)[0]
    masses = every[kept]
    # the dropped tails fold into the end cells, so the masses sum to 1
    masses[0] += every[:kept[0]].sum()
    masses[-1] += every[kept[-1] + 1:].sum()
    n_cells = int(masses.size)
    return DitheredReference(
        masses=masses,
        entropy_bits=entropy_bits(masses),
        fixed_rate_bits=math.log2(n_cells),
        n_cells=n_cells,
        mse=mse,
    )


@dataclass(frozen=True)
class CodeDistribution:
    """Exact code statistics of a staggered spec plus the dithered baseline."""

    spec: StaggeredSpec
    codes: np.ndarray
    pooled_masses: np.ndarray                 # P(j), weights 1/N per offset
    per_offset_masses: list[np.ndarray]       # P(f_n(X) = i)
    per_offset_entropy_bits: list[float]
    avg_conditional_entropy_bits: float       # rate with one code per offset
    pooled_entropy_bits: float
    mse_exact: float                          # analytic end-to-end MSE
    dithered: DitheredReference


def exact_code_distribution(spec: StaggeredSpec) -> CodeDistribution:
    """Exact per-offset code masses, entropies, and pipeline distortion.

    The end-to-end MSE is computed analytically: conditioned on code j the
    input is the source restricted to the cell and the reconstruction is an
    independent draw from the source restricted to [a(j), b(j)], so each
    code contributes its two conditional variances plus the squared gap of
    the conditional means.  A table code whose interval holds less than
    DEGENERATE_MASS raises the decoder's error.
    """
    table = build_boundaries(spec)
    n_off = spec.n_offsets
    codes, prob = table.codes, table.prob
    # the decoder's own refusal, so both routes refuse the same codes
    _refuse_faulty_rows(table, np.arange(codes.size), table.fb - table.fa)

    per_mass = [m * n_off for m in _by_offset(prob, table.j_first, n_off)]
    per_ent = [entropy_bits(m) for m in per_mass]

    # the cells and the decoder intervals in one moments call
    m, v = spec.source.mean_var_on(np.concatenate((table.cell_lo, table.a)),
                                   np.concatenate((table.cell_hi, table.b)))
    m_cell, m_rec = np.split(m, 2)
    v_cell, v_rec = np.split(v, 2)
    mse = np.sum(prob * (v_cell + v_rec + (m_cell - m_rec) ** 2))

    return CodeDistribution(
        spec=spec,
        codes=codes,
        pooled_masses=prob,
        per_offset_masses=per_mass,
        per_offset_entropy_bits=per_ent,
        avg_conditional_entropy_bits=float(np.mean(per_ent)),
        pooled_entropy_bits=entropy_bits(prob),
        mse_exact=float(mse),
        dithered=dithered_reference(spec.source, spec.delta),
    )


def simulate_pipeline(spec: StaggeredSpec, samples: int,
                      streams: SampleStreams) -> ExperimentResult:
    """End-to-end Monte Carlo run: draw X, pick an offset with the common
    randomness, encode, decode by conditional resampling.

    The reported rate is the average per-offset plug-in entropy (tailored
    entropy codes) over the offsets drawn at least once; the pooled code
    entropy is kept as a diagnostic.
    """
    table = build_boundaries(spec)
    n_off = spec.n_offsets

    def step(x, n, u, out):
        spec.source.from_standard(x)
        err2, k, xhat, *work = out
        encode(spec, x, n, out=k, work=err2)
        # table rows k = j - j_first of the codes j = N*i + n
        k *= n_off
        k += n
        k -= table.j_first
        _decode_rows(table, k, u, out=xhat, work=(err2, *work))
        np.square(np.subtract(x, xhat, out=err2), out=err2)

    draws = (spec.source.standard, Offsets(n_off), DOUBLES)
    dist, counts, recon = simulate_chunks(streams, samples, draws, step,
                                          table.codes.size, work=2)
    per_offset = _by_offset(counts, table.j_first, n_off)
    return ExperimentResult(
        rate_bits=avg_conditional_entropy(c for c in per_offset if c.any()),
        mse=dist.mean,
        perception_ks=ks_statistic(recon, spec.source.cdf,
                                   overwrite_samples=True),
        n_samples=samples,
        seed=streams.seed,
        mc_radius_mse=dist.mc_radius(),
        index_entropy_bits=plugin_entropy(counts),
    )
