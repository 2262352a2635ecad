"""Shared estimators and the Monte Carlo engine.

Distortion moments (:class:`RunningMoments`), the entropy of a probability
vector and its plug-in form on count tables, the KS perception statistic
with its acceptance threshold, and :func:`simulate_chunks`, the one engine
every simulator runs: each 1024-sample block takes its raw Philox words
from its own substream (see ``rng``) into its row of a word matrix.  Once
per chunk of CHUNK_BLOCKS blocks the matrix's columns become uniforms and
offsets, and the simulator's one step runs on them: its affine maps, its
arithmetic and its guards, in place in arrays the engine allocates once
per block range; then each block's moments and the bin counts.  A run of
at least PARALLEL_MIN_BLOCKS blocks is split into WORKERS block ranges,
each after the first run in a child forked for the call.  Every range
writes its reconstructions, its count row and its blocks' moments into
the run's arrays, shared with the children when there are any, and the
caller combines the block moments in block order, so no chunk length or
worker count changes a result.  A child reports only through its exit
status; the caller runs the first range whose child raised again, to
raise its error itself.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .rng import BLOCK

# Blocks per chunk of the Monte Carlo engine.  Timing the circle step on
# 2^20 samples (2-core box), chunks of 16 to 64 blocks ran 1.6x faster
# than single blocks, and 256 blocks slower again.  A float chunk array of
# 32 blocks is 256 KiB, so a run's chunk arrays (five to seven of them,
# plus its slice of the reconstructions) take 1.5-2 MiB and about fit the
# box's 2 MiB L2 cache per core; at 64 blocks they took 3-4 MiB.  The word
# matrix adds 2.5 words per sample at most, 640 KiB.  With one
# re-keyed Philox per run, alternating in-process cycles of the
# benchmark's uniform-mc and gauss-mc calls ran 64 blocks slower than 32
# in about 4 of 5 cycles (by 3-7% in the medians), and 16 blocks level
# with 32 (faster in 32 of 60 cycles on each).
CHUNK_BLOCKS = 32

# Processes a Monte Carlo run of at least PARALLEL_MIN_BLOCKS blocks is
# split over: the cores this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else 1

# The fewest blocks whose run pays for its forks.  A fork, its page
# faults and its reaping cost about 10 ms on the 2-core box: a page fault
# takes 3-4 us on a fresh page of the shared buffer or on the first write
# to a page the child still shares, and each process of a 2^20-sample run
# takes about 2,300 of them.  Medians of 21 alternating calls at 1
# and 2 workers: 256 blocks ran 1.16x (Gaussian pipeline), 0.77x
# (uniform pipeline) and 0.87x (dithered circle); 384 blocks 1.11x, 1.01x
# and 1.08x; 512 blocks 1.38x, 1.11x and 1.22x; 1024 blocks 1.46x, 1.24x
# and 1.30x.
PARALLEL_MIN_BLOCKS = 512

# The exit status of a forked range's child whose range raised an
# Exception; the caller then runs that range again to raise it.  Status 1,
# Python's own on an uncaught exception, is left for a BaseException that
# escapes a range.
RANGE_RAISED = 2

# Sorted values per KS window, the unit in which the KS statistic skips
# the CDF (see ks_statistic).  After the sort, the Gaussian KS at 2^20
# samples (2-core box) took 3.8, 2.2, 1.9 and 5.3 ms with windows of 32,
# 64, 128 and 256 values, against 25 ms with the CDF on every sample; at
# 128, at most 6% of the windows opened on the 2^20-sample rows of the
# four Monte Carlo pipelines.
KS_WINDOW = 128

# Values per CDF call on the open KS windows (512 KB of doubles per
# array), and the sample count up to which the CDF runs on every sample.
KS_SLICE = 1 << 16

# How far a CDF may dip and the KS statistic keep its bits: a window opens
# when its bound comes within this of the largest term found so far.
KS_SLACK = 2.0 ** -40

# Asymptotic Kolmogorov-Smirnov critical coefficient at alpha = 0.01
# (scipy.stats.kstwobign.isf(0.01) = 1.62762, rounded up).  The exact
# finite-n coefficient, scipy.stats.kstwo.isf(0.01, n) * sqrt(n), lies
# below it: 1.6081 at n = 100, 1.6257 at 2^13 and 1.6275 at 2^20.
KS_COEFF_01 = 1.628


def ks_threshold(n_samples: int) -> float:
    """alpha = 0.01 acceptance threshold for the one-sample KS statistic.

    It uses the asymptotic coefficient KS_COEFF_01 at every n, which is
    above the exact finite-n critical value, so the test is slightly
    conservative: a sample of the law itself fails it a little less often
    than 1 time in 100, most so at small n.
    """
    return KS_COEFF_01 / math.sqrt(n_samples)


class RunningMoments:
    """One-pass (Welford) mean/variance accumulator.

    The engine keeps no accumulator while it runs: each block range writes
    its blocks' means and m2 into two run-long arrays indexed by block, and
    the caller combines them in block order, so every worker count folds
    the same sequence.  ``update`` folds one batch, as the per-block
    references in the tests do.  (Threads would not pay: splitting a run
    over two measured 0.8-1.13x on 2^20 Gaussian samples, 2-core box,
    since 1024-sample draws hand the interpreter lock back and forth.)
    """

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, values) -> None:
        """Merge the mean and m2 of ``values`` as one batch."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size:
            mean = values.mean()
            self._combine(values.size, float(mean),
                          float(np.square(values - mean).sum()))

    def _combine(self, n_b, mean_b, m2_b):
        if n_b == 0:
            return
        n_a = self.n
        delta = mean_b - self.mean
        n = n_a + n_b
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * n_a * n_b / n
        self.n = n

    def variance(self) -> float:
        if self.n < 2:
            return 0.0
        return self.m2 / (self.n - 1)

    def mc_radius(self) -> float:
        """Three-sigma Monte Carlo half-width of the mean estimate."""
        if self.n == 0:
            return 0.0
        return 3.0 * math.sqrt(self.variance()) / math.sqrt(self.n)


def simulate_chunks(streams, samples: int, draws, step, n_bins: int,
                    work: int = 0):
    """Run one Monte Carlo simulation over the sample blocks of ``streams``.

    A run of at least PARALLEL_MIN_BLOCKS blocks is split into up to
    WORKERS contiguous block ranges, each starting on a CHUNK_BLOCKS
    boundary, so every range runs the chunks one range would run.  Range 0
    runs in the calling process and each other range in a child forked for
    this call (see :func:`_run_forked`); a shorter run, or one on a
    machine with one core or without ``os.fork``, or from a process that
    runs other threads, is one range run in the calling process.

    Every range, wherever it runs, writes into the run's arrays (see
    :func:`_run_array`): its samples' reconstructions, its row of a
    (ranges x n_bins) count array, and each of its blocks' mean and m2 of
    the squared errors into two arrays indexed by block.  Once every range
    has run, the block moments are combined in block order and the count
    rows added into row 0, so no chunk length or worker count changes a
    result.

    In each range every other array is allocated once, for a chunk of at
    most CHUNK_BLOCKS whole blocks: one zeroed input array per draw in
    ``draws`` (``rng.DOUBLES``, ``rng.NORMALS`` or ``rng.Offsets``, in draw
    order), a uint64 word matrix with a row per block, the squared errors
    (float), the bins (int64) and ``work`` float scratch arrays.  A draw
    without a generator call owns ``words(BLOCK)`` adjacent columns of the
    matrix, in draw order.  Each block, from its own substream, makes the
    generator calls of its draws straight into its slices of the input
    arrays and takes the words of each run of columns between them in one
    ``random_raw`` call into its row; a short last block takes each draw's
    words in a call of their own, at the draw's first column.  Once per
    chunk the draws turn their columns into numbers, and ``step(*inputs,
    out=(err2, bins, recon, *work))`` simulates the chunk: it writes
    per-sample squared errors, integer bins in [0, n_bins) and
    reconstructions into the first three arrays of ``out``, and may use
    all of them as scratch.  A step may map its inputs in place, since
    every draw refills its input each chunk, but for one: a draw that
    draws nothing (``Offsets(1)``) leaves the zeros of the allocation,
    which each chunk's step reads as the previous chunk's step left them,
    so a step must map such an input's 0 to 0.  A step that raises ends
    its range, and the run raises the error of the first range that
    raised (a child reports that it raised by its exit status, and its
    range is run again here to raise the error), so a faulty sample must
    be named in sample order for every chunk length and worker count to
    name the same one.  Bins are counted with ``np.add.at``.  Returns the
    distortion moments, the bin counts and the reconstructions of all
    samples in sample order.
    """
    blocks = -(-samples // BLOCK)
    chunks = -(-blocks // CHUNK_BLOCKS)
    parts = 1
    # a child forked beside other threads may need a lock one of them held
    if (blocks >= PARALLEL_MIN_BLOCKS and hasattr(os, "fork")
            and threading.active_count() == 1):
        parts = min(WORKERS, chunks)
    # separate allocations, so that a caller may free the counts and keep
    # the reconstructions
    recon = _run_array(parts, float, samples)
    counts = _run_array(parts, np.int64, parts, n_bins)
    means, m2s = _run_array(parts, float, 2, blocks)
    edges = [min(i * chunks // parts * CHUNK_BLOCKS, blocks)
             for i in range(parts + 1)]
    _run_forked([
        functools.partial(_run_range, streams, samples, draws, step, work,
                          edges[i], edges[i + 1], recon, counts[i], means,
                          m2s)
        for i in range(parts)])
    dist = RunningMoments()
    for k, (mean, m2) in enumerate(zip(means.tolist(), m2s.tolist())):
        dist._combine(min(BLOCK, samples - k * BLOCK), mean, m2)
    for row in counts[1:]:
        counts[0] += row
    return dist, counts[0], recon


def _run_array(parts: int, dtype, *shape):
    """A zeroed array of a run: on the heap for a one-range run, in an
    anonymous shared ``mmap`` that forked ranges write into otherwise."""
    if parts == 1:
        return np.zeros(shape, dtype)
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def _run_range(streams, samples, draws, step, work, start, stop, recon,
               counts, means, m2s):
    """The chunks of blocks start .. stop-1 (start on a CHUNK_BLOCKS
    boundary) as ``simulate_chunks`` describes them: the reconstructions
    go into their samples of ``recon``, the bins are added to ``counts``
    and each block's mean and m2 go into its entries of ``means`` and
    ``m2s``."""
    blocks = min(CHUNK_BLOCKS, stop - start)
    rows = blocks * BLOCK
    inputs = [np.zeros(rows, draw.dtype) for draw in draws]
    # draw i's words start at column first[i], adjacent in draw order;
    # ``words`` holds the (draw, input, columns) of each draw with words,
    # ``steps`` a full block's (call, input, c0, c1): each generator call,
    # and one random_raw per run of columns c0 .. c1-1 between calls
    words, steps, first, col, c0 = [], [], [], 0, 0
    for i, draw in enumerate(draws):
        first.append(col)
        if draw.draw is not None:
            steps += [(None, None, c0, col), (draw.draw, i, 0, 0)]
            c0 = col
        elif draw.words(BLOCK):
            col += draw.words(BLOCK)
            words.append((draw, i, slice(first[i], col)))
    steps.append((None, None, c0, col))
    raw = np.zeros((blocks, col), np.uint64)
    err2, bins = np.empty(rows), np.empty(rows, dtype=np.int64)
    scratch = [np.empty(rows) for _ in range(work)]
    for k, size, rng in streams.iter_blocks(samples, start, stop):
        row = (k - start) % CHUNK_BLOCKS    # the block's row in its chunk
        at = row * BLOCK
        if size < BLOCK:                    # the last block
            steps = [(d.draw, i, first[i],
                      first[i] + (0 if d.draw else d.words(size)))
                     for i, d in enumerate(draws)]
        for call, i, c0, c1 in steps:
            if call is not None:
                call(rng, inputs[i][at:at + size])
            elif c1 > c0:
                raw[row, c0:c1] = rng.bit_generator.random_raw(c1 - c0)
        filled, drawn = at + size, k * BLOCK + size
        if row + 1 < CHUNK_BLOCKS and k + 1 < stop:
            continue
        for draw, i, cols in words:
            draw.numbers(raw[:row + 1, cols],
                         inputs[i][:at + BLOCK].reshape(row + 1, BLOCK))
        out = [err2[:filled], bins[:filled], recon[drawn - filled:drawn],
               *(buf[:filled] for buf in scratch)]
        step(*(buf[:filled] for buf in inputs), out=out)
        _block_moments(out[0], means[k - row:k + 1], m2s[k - row:k + 1])
        np.add.at(counts, out[1], 1)


def _block_moments(values, means, m2s) -> None:
    """Write the mean and m2 of each block of BLOCK values in ``values``
    (the last block may be shorter) into ``means`` and ``m2s``, with the
    bits of one ``RunningMoments.update`` per block; ``values`` becomes
    scratch."""
    full = values.size // BLOCK
    for rows, at in ((values[:full * BLOCK].reshape(-1, BLOCK), np.s_[:full]),
                     (values[full * BLOCK:].reshape(1, -1), np.s_[full:])):
        if rows.size:
            rows.mean(axis=1, out=means[at])
            np.subtract(rows, means[at, None], out=rows)
            np.square(rows, out=rows).sum(axis=1, out=m2s[at])


def _run_forked(ranges) -> None:
    """Run every range of ``ranges``, the first in this process and each
    other one in a child forked for it.

    A child inherits its range's closure and its range writes its results
    into the run's shared arrays, so it reports only through its exit
    status (see :func:`_child`).  A range that gets no child (the fork
    failed) runs here, after the first.  This process reaps every child
    before it returns or raises, killing them first when it raises
    itself, and then raises the error of the first range that raised.  A
    range needs nothing from the blocks before it, so it raises the same
    exception wherever it runs: the first child whose range raised has
    its range run again here, which raises its exception.  A child that
    ends otherwise, or whose range returns when run again, comes back as
    a RuntimeError that names its wait status.
    """
    errors, children = [None] * len(ranges), {}    # range -> pid
    try:
        for i, run in enumerate(ranges[1:], 1):
            try:
                pid = os.fork()
            except OSError:             # no process to spare
                break
            if pid == 0:
                _child(run)
            children[i] = pid
        for i, run in enumerate(ranges):
            if i not in children:
                errors[i] = _error(run)
    except BaseException:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = {i: os.waitpid(pid, 0)[1] for i, pid in children.items()}
    for i, run in enumerate(ranges):
        status = statuses.get(i, 0)
        if status == RANGE_RAISED << 8:
            errors[i] = _error(run)
        if status and errors[i] is None:
            raise RuntimeError(f"the worker of range {i} ended with wait "
                               f"status {status}")
        if errors[i] is not None:
            raise errors[i]


def _error(run):
    """The exception ``run()`` raised, or None once it returns."""
    try:
        run()
    except Exception as exc:
        return exc
    return None


def _child(run) -> None:
    """Run one forked range and leave by ``os._exit``: with status 0 once
    it returns, RANGE_RAISED once it raised an Exception, and 1 if
    anything else escapes it."""
    code = 1
    try:
        code = 0 if _error(run) is None else RANGE_RAISED
    finally:
        os._exit(code)


def entropy_bits(probs) -> float:
    """Entropy -sum p log2 p of a probability vector, in bits.

    Zero entries contribute nothing.
    """
    probs = np.asarray(probs, dtype=float)
    return _entropy_of_positive(probs[probs > 0])


def _entropy_of_positive(p, out=None) -> float:
    """-sum p log2 p over positive ``p``, the terms written into ``out``
    (a float array as long as ``p``, not overlapping it) when given."""
    terms = np.log2(p, out=out)
    terms *= p
    # 0.0 - x, not -x: a single cell gives +0.0 rather than -0.0
    return float(0.0 - terms.sum())


def plugin_entropy(counts) -> float:
    """Plug-in entropy of an array of counts, in bits.

    No bias correction is applied, so the estimate falls short of the
    entropy.  For gauss:0,1 delta=0.25 N=4 at 2^20 samples (55 codes per
    offset, each offset's count Binomial(2^20, 1/4)) the exact expected
    shortfall, a binomial sum over each code's count, is 1.099e-4 bits per
    offset, which shows in the 4th decimal of the rate.  The Miller-Madow
    estimate (K - 1) / (2 n ln 2) for K cells with mass and n counts gives
    1.49e-4 there: it overstates the shortfall, since it assumes every
    cell holds many counts, while about 19 of the 55 codes per offset have
    n p < 1.

    The counts become probabilities in one float copy, whose memory then
    takes the terms: two L-long float arrays at most for L cells.
    """
    # a copy, even of a float array: the caller's counts must not change
    values = np.array(counts, dtype=float).ravel()
    if np.any(values < 0):
        raise ValueError("negative count")
    total = values.sum()
    if total < 1:
        raise ValueError("plugin_entropy needs a total count >= 1")
    values /= total
    p = values[values > 0]
    return _entropy_of_positive(p, out=values[:p.size])


def avg_conditional_entropy(per_group_counts: Iterable) -> float:
    """Average of per-group plug-in entropies (one tailored code per group)."""
    ents = [plugin_entropy(c) for c in per_group_counts]
    if not ents:
        raise ValueError("no groups")
    return float(np.mean(ents))


def ks_statistic(samples, cdf, *, overwrite_samples: bool = False) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable: the
    largest i/n - F(x_(i)) or F(x_(i)) - (i - 1)/n over the sorted samples.

    The samples are sorted once and cut into windows of KS_WINDOW values.
    F never decreases, so no term of the window of sorted positions p..q
    (0-based) exceeds (q + 1)/n - F(x_p) or F(x_q) - p/n.  The CDF first
    runs on the window ends alone, then on the windows whose bound comes
    within KS_SLACK of the largest term found at the ends, KS_SLICE values
    at a time; no other window can hold the maximum.  Each term is computed
    as the whole-array formula computes it, so the statistic has that
    formula's bits.  With ``overwrite_samples`` a contiguous float array is
    sorted in place rather than copied (as scipy.linalg's ``overwrite_a``),
    so the caller must not read it again; the statistic is the same.
    """
    n = np.size(samples)
    if n < 1:
        raise ValueError("ks_statistic needs at least one sample")
    x = np.asarray(samples, dtype=float).ravel()
    if overwrite_samples:
        x.sort()
    else:
        x = np.sort(x)
    if n <= KS_SLICE:       # too few samples for the windows to stay shut
        return float(_ks_terms(np.arange(n), np.asarray(cdf(x), dtype=float),
                               n))
    first = np.arange(0, n, KS_WINDOW)
    last = np.minimum(first + KS_WINDOW, n) - 1
    ends = np.concatenate((first, last))
    f = np.asarray(cdf(x[ends]), dtype=float)
    stat = _ks_terms(ends, f, n)
    bound = np.maximum((last + 1.0) / n - f[:first.size],
                       f[first.size:] - first / n)
    # a NaN sample sorts last, so stat is NaN and no window opens
    opened = first[bound + KS_SLACK > stat]
    per_call = KS_SLICE // KS_WINDOW
    for s in range(0, opened.size, per_call):
        at = (opened[s:s + per_call, None] + np.arange(KS_WINDOW)).ravel()
        at = at[at < n]                     # the last window may be short
        f = np.asarray(cdf(x[at]), dtype=float)
        stat = np.maximum(stat, _ks_terms(at, f, n))
    return float(stat)


def _ks_terms(at, f, n: int) -> float:
    """Largest KS term i/n - F or F - (i - 1)/n at the sorted positions
    ``at`` (0-based, so i = at + 1) whose CDF values are ``f``."""
    grid = at + 1.0
    grid /= n                                   # i/n
    d_plus = np.subtract(grid, f, out=grid).max()
    grid = at / n                               # (i - 1)/n
    return np.maximum(d_plus, np.subtract(f, grid, out=grid).max())


@dataclass(frozen=True)
class ExperimentResult:
    """Empirical statistics of one simulated coding scheme.

    ``rate_bits`` is the scheme's operational rate (index entropy for
    staggered coders, log2 L for fixed-rate dithered coders, average
    per-offset entropy over the offsets drawn for scalar staggered
    pipelines).
    ``index_entropy_bits`` is the plug-in entropy of the pooled transmitted
    index, kept as a diagnostic.
    """

    rate_bits: float
    mse: float
    perception_ks: float
    n_samples: int
    seed: int
    mc_radius_mse: float
    index_entropy_bits: float

    def __post_init__(self):
        if self.mse < 0 or not 0.0 <= self.perception_ks <= 1.0:
            raise ValueError("malformed experiment result")
