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
each after the first run by a helper process.  A process forks its
helpers at its first split run and keeps them for every later one; they
share with it one anonymous ``mmap`` arena, made before they fork.  Each
helper gets its range as a pickled job, whose arrays (a boundary table)
the caller has copied into the arena, and answers with one status byte.
One layout places a run's arrays in the arena and its job's arrays after
them, and one runner runs the ranges of every run, split or not.
Every range writes its reconstructions, its count row and its blocks'
moments into the run's arrays, in the arena when the run is split, and
the caller combines the block moments in block order, so no chunk length
or worker count changes a result.  The caller runs again the first range
whose helper reports that it raised, to raise its error itself.
"""

from __future__ import annotations

import atexit
import functools
import math
import mmap
import os
import pickle
import signal
import threading
from collections import namedtuple
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

# The fewest blocks whose run pays for splitting in a process that has no
# helpers yet: the call forks them, and the process reaps them at exit.
# Fresh processes making one call (then retire_helpers), 2 workers against
# 1, medians of 8 alternating processes per size on the 2-core box, for
# the staggered and dithered circles and the Gaussian and uniform
# pipelines: 64 and 98 blocks ran 0.45-0.80x, 256 blocks 0.71-1.00x, 384
# blocks 0.79-1.03x, 512 blocks 0.83-0.94x (circles) and 1.01-1.10x
# (pipelines), 768 blocks 0.84-1.23x.  Later calls, with the helpers
# running, ran 0.90-1.10x at 64 blocks and 1.06-1.66x at 512.
PARALLEL_MIN_BLOCKS = 512

# The status byte of a helper whose range raised an Exception; the caller
# then runs that range again to raise it.  A helper whose range returned
# writes 0.
RANGE_RAISED = 2

# Bytes of a run's job per sample, its boundary table included, beyond
# which the run is not split.  The table of a split run lies twice in the
# caller, on the heap and in the arena, which keeps the largest one sent,
# and each helper adds a count row.  On the 2-core box a 2^20-sample
# uniform pipeline ran 1.15-1.31x faster at 2 workers with tables of 10^5
# to 4 x 10^5 codes (6 to 24 bytes per sample), but its peak RSS rose
# from 71 to 81 MB and from 93 to 131 MB; with 909,092 codes it ran 1.07x
# faster and rose from 140 to 217 MB.
MAX_JOB_BYTES_PER_SAMPLE = 2

# The arena grows in steps of this many bytes, so that runs of one sample
# count with different bin counts or tables share it.  Pages that no run
# writes take no memory.
ARENA_GRAIN = 1 << 20

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
    than 1 time in 100, most so at small n.  No library route calls it: it
    is the tests' KS acceptance rule, until each row reports its own
    verdict.
    """
    return KS_COEFF_01 / math.sqrt(n_samples)


class RunningMoments:
    """One-pass (Welford) mean/variance accumulator.

    The engine keeps no accumulator while it runs: each block range writes
    its blocks' means and m2 into two run-long arrays indexed by block, and
    the caller combines them in block order, so every worker count folds
    the same sequence.  ``update`` folds one batch; no library route calls
    it, but the tests' per-block references do, and benchmarks/tracing.py
    wraps it.  (Threads would not pay: splitting a run over two measured
    0.8-1.13x on 2^20 Gaussian samples, 2-core box, since 1024-sample
    draws hand the interpreter lock back and forth.)
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
    boundary, so every range runs the chunks one range would run.  Every
    run, split or not, runs its ranges through :func:`_run_split`: range 0
    in the calling process and each other range in a helper process this
    process keeps across calls.  The streams, draws and step travel to the
    helpers pickled, so a step that must split is a module-level
    function, or one bound with ``functools.partial``.  Their contiguous
    arrays, a boundary table's, travel out of band (PEP 574): the caller
    copies them into the arena after the run's arrays, where
    :func:`_run_layout` places them, once per call, and the helpers load
    them from there.  A shorter run, one on a machine with one core or
    without ``os.fork``, one from a process that runs other threads, and
    one whose step or draws do not pickle, or pickle to more than
    MAX_JOB_BYTES_PER_SAMPLE bytes per sample in all (a large boundary
    table), is one range run in the calling process.

    Every range, wherever it runs, writes into the run's arrays (see
    :func:`_run_arrays`): its samples' reconstructions, its row of a
    (ranges x n_bins) count array, and each of its blocks' mean and m2 of
    the squared errors into two arrays indexed by block.  Once every range
    has run, the block moments are combined in block order and the count
    rows added, so no chunk length or worker count changes a result.

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
    raised (a helper reports that its range raised, and the range is run
    again here to raise the error), so a faulty sample must be named in
    sample order for every chunk length and worker count to name the
    same one.  Bins are counted with ``np.add.at``.

    Returns the distortion moments, the bin counts (an array of their
    own) and the reconstructions of all samples in sample order.  A split
    run's reconstructions are borrowed: a view into the arena, valid until
    the next split run in this process, so a caller that keeps them past
    that must copy them.  The simulators sort them in place for the KS at
    once.
    """
    blocks = -(-samples // BLOCK)
    chunks = -(-blocks // CHUNK_BLOCKS)
    parts, job, pool = 1, None, None
    # a helper forked beside other threads may need a lock one of them held
    if (blocks >= PARALLEL_MIN_BLOCKS and hasattr(os, "fork")
            and threading.active_count() == 1):
        parts = min(WORKERS, chunks)
    run = (streams, samples, draws, step, work, CHUNK_BLOCKS)
    if parts > 1:
        job = _pickled(run + (n_bins, parts),
                       MAX_JOB_BYTES_PER_SAMPLE * samples)
    if job is None:
        parts, job = 1, (None, ())
    stream, buffers = job
    layout, spans, end = _run_layout(samples, parts, n_bins, buffers)
    if parts > 1:
        pool = _pool_for(parts - 1, end)
        for buf, (at, nbytes) in zip(buffers, spans):
            pool.arena[at:at + nbytes] = buf.raw()
    recon, counts, moments = _run_arrays(layout,
                                         None if pool is None else pool.arena)
    counts[...] = 0                     # the ranges write everything else
    edges = [min(i * chunks // parts * CHUNK_BLOCKS, blocks)
             for i in range(parts + 1)]
    ranges = [functools.partial(_run_range, *run, edges[i], edges[i + 1],
                                recon, counts[i], moments)
              for i in range(parts)]
    _run_split(pool, ranges, edges, stream, spans)
    dist = RunningMoments()
    for k, (mean, m2) in enumerate(zip(*moments.tolist())):
        dist._combine(min(BLOCK, samples - k * BLOCK), mean, m2)
    # a split run's counts leave the arena as an array of their own; a
    # one-range run's row is returned as a view, copying nothing
    return dist, counts[0] if parts == 1 else counts.sum(axis=0), recon


def _pickled(job, cap: int):
    """``job`` pickled with its contiguous arrays out of band (PEP 574):
    the pickle stream and the arrays' buffers, or None if it does not
    pickle or its stream and arrays come to more than ``cap`` bytes."""
    buffers = []
    try:
        stream = pickle.dumps(job, 5, buffer_callback=buffers.append)
    except (pickle.PicklingError, TypeError, AttributeError):
        return None
    if len(stream) + sum(buf.raw().nbytes for buf in buffers) > cap:
        return None
    return stream, buffers


def _run_layout(samples: int, parts: int, n_bins: int, buffers=()):
    """Where a run lies in the arena, from byte 0: the (shape, dtype,
    offset) of each of its arrays, the reconstructions, the (parts x
    n_bins) counts and the (2 x blocks) block means and m2, one after
    another; after them the (offset, nbytes) span of each out-of-band job
    buffer in ``buffers``, 8-byte aligned; and the byte where the last
    one ends."""
    layout, spans, at = [], [], 0
    for shape, dtype in (((samples,), np.float64),
                         ((parts, n_bins), np.int64),
                         ((2, -(-samples // BLOCK)), np.float64)):
        layout.append((shape, dtype, at))
        at += np.dtype(dtype).itemsize * math.prod(shape)
    for buf in buffers:
        at = -(-at // 8) * 8
        spans.append((at, buf.raw().nbytes))
        at += spans[-1][1]
    return layout, spans, at


def _run_arrays(layout, arena=None):
    """The arrays of a run's ``layout`` (see :func:`_run_layout`): zeroed
    arrays on the heap, or views of ``arena``, which hold what the arena's
    last run left."""
    if arena is None:
        return [np.zeros(shape, dtype) for shape, dtype, _ in layout]
    return [np.frombuffer(arena, dtype, math.prod(shape), at).reshape(shape)
            for shape, dtype, at in layout]


def _run_range(streams, samples, draws, step, work, chunk_blocks, start,
               stop, recon, counts, moments):
    """The chunks of at most ``chunk_blocks`` blocks of blocks start ..
    stop-1 (start on a chunk boundary of the run) as ``simulate_chunks``
    describes them: the reconstructions go into their samples of
    ``recon``, the bins are added to ``counts`` and each block's mean and
    m2 go into its column of ``moments``."""
    blocks = min(chunk_blocks, stop - start)
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
    means, m2s = moments
    for k, size, rng in streams.iter_blocks(samples, start, stop):
        row = (k - start) % chunk_blocks    # the block's row in its chunk
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
        if row + 1 < chunk_blocks and k + 1 < stop:
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


def _run_split(pool, ranges, edges, stream, spans) -> None:
    """Run every range of ``ranges`` (blocks ``edges[i]`` ..
    ``edges[i + 1]`` - 1 of the run pickled in ``stream``, whose
    out-of-band arrays lie at ``spans`` in the arena), the first in this
    process and each other one in a helper of ``pool``; with no pool (a run
    that is not split) its one range runs here.

    A helper gets its range's index and blocks and the spans, pickled, then
    the stream, writes its results into the arena and reports by one
    status byte (see :func:`_serve`).  A range that gets no helper (none
    could be forked, or its job could not be written) runs here, after
    the first.  This process reads the status of every helper it sent a
    job before it returns or raises, so no helper writes into the arena
    after the call; when it raises itself, it kills its busy helpers
    instead.  Then it raises the error of the first range that raised, as
    itself.  A range needs nothing from the blocks before it, so it raises
    the same exception wherever it runs: a helper whose range raised has
    its range run again here, which raises its exception.  A helper that
    ends (its status pipe reaches end of file), or whose range returns
    when run again here, comes back as a RuntimeError that names its
    range.
    """
    errors, rerun, busy = [None] * len(ranges), set(), {}
    helpers = [] if pool is None else pool.helpers[:len(ranges) - 1]
    try:
        for i, helper in enumerate(helpers, 1):
            if pool.send(helper, pickle.dumps((i, edges[i], edges[i + 1],
                                               spans)) + stream):
                busy[i] = helper
        for i, run in enumerate(ranges):
            if i not in busy:
                errors[i] = _error(run)
        for i, helper in list(busy.items()):
            status = os.read(helper.status, 1)
            del busy[i]
            if not status:
                errors[i] = RuntimeError(
                    f"the worker of range {i} ended with wait status "
                    f"{pool.end(helper)}")
            elif status[0] == RANGE_RAISED:
                rerun.add(i)
    except BaseException:
        for helper in busy.values():
            pool.end(helper, kill=True)
        raise
    for i, run in enumerate(ranges):
        if i in rerun:
            errors[i] = _error(run) or RuntimeError(
                f"the worker of range {i} raised, and the range returns "
                f"when run again here")
        if errors[i] is not None:
            raise errors[i]


def _error(run):
    """The exception ``run()`` raised, or None once it returns."""
    try:
        run()
    except Exception as exc:
        return exc
    return None


# A helper process, and this process's ends of its pipes: the write end
# of its job pipe and the read end of its status pipe
_Helper = namedtuple("_Helper", "pid jobs status")


class _Pool:
    """This process's helpers and the arena it shares with them.

    The arena, an anonymous shared ``mmap``, is made before the first
    helper forks, so every helper maps the same pages.  It is never made
    smaller: it keeps the largest split run's arrays and the largest table
    sent, and a pool whose arena is too small for a run is retired for a
    larger one.
    """

    def __init__(self, size: int):
        self.arena = mmap.mmap(-1, -(-size // ARENA_GRAIN) * ARENA_GRAIN)
        self.helpers: list[_Helper] = []

    def fork(self, count: int) -> None:
        """Fork helpers until there are ``count``, or a fork fails."""
        while len(self.helpers) < count:
            (job_r, job_w), (status_r, status_w) = os.pipe(), os.pipe()
            try:
                pid = os.fork()
            except OSError:             # no process to spare
                for fd in (job_r, job_w, status_r, status_w):
                    os.close(fd)
                return
            if pid == 0:
                _serve(job_r, status_w, self.arena, (job_w, status_r))
            os.close(job_r)
            os.close(status_w)
            self.helpers.append(_Helper(pid, job_w, status_r))

    def send(self, helper: _Helper, data: bytes) -> bool:
        """Write ``data`` to ``helper``'s job pipe; a helper whose pipe
        fails is ended, and False returned."""
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(helper.jobs, view):]
        except OSError:                 # the helper is gone
            self.end(helper, kill=True)
            return False
        return True

    def drop(self, helper: _Helper) -> None:
        """Forget ``helper`` and close this process's ends of its pipes."""
        self.helpers.remove(helper)
        os.close(helper.jobs)
        os.close(helper.status)

    def end(self, helper: _Helper, kill: bool = False):
        """Drop ``helper``, whose closed job pipe ends it, SIGKILL it first
        if ``kill``, and reap it: its wait status, or None if something
        else reaped it."""
        self.drop(helper)
        if kill:
            os.kill(helper.pid, signal.SIGKILL)
        try:
            return os.waitpid(helper.pid, 0)[1]
        except ChildProcessError:
            return None


# This process's pool, or None before its first split run and in a child
# that a fork has just made
_pool: _Pool | None = None


def _pool_for(count: int, size: int) -> _Pool:
    """This process's pool, with an arena of at least ``size`` bytes and
    up to ``count`` helpers: it forgets the helpers that have ended,
    retires the pool for a new one if its arena is too small, and forks
    the helpers that are missing."""
    global _pool
    if _pool is not None:
        for helper in list(_pool.helpers):
            try:
                ended = os.waitpid(helper.pid, os.WNOHANG)[0] != 0
            except ChildProcessError:
                ended = True
            if ended:
                _pool.drop(helper)
        if len(_pool.arena) < size:
            retire_helpers()
    if _pool is None:
        _pool = _Pool(size)
    _pool.fork(count)
    return _pool


def retire_helpers() -> None:
    """End this process's helpers: close their job pipes, on which each
    leaves, and reap them.  The next split run forks new ones.  Runs at
    exit, so no helper outlives its process."""
    global _pool
    pool, _pool = _pool, None
    while pool is not None and pool.helpers:
        pool.end(pool.helpers[0])


def _forget_helpers() -> None:
    """In a child a fork has just made: close the inherited ends of the
    parent's helper pipes, so that the parent's helpers still leave when
    the parent closes them, and start without helpers."""
    global _pool
    while _pool is not None and _pool.helpers:
        _pool.drop(_pool.helpers[0])
    _pool = None


atexit.register(retire_helpers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _serve(jobs: int, status: int, arena, inherited) -> None:
    """A helper's life: close the ``inherited`` pipe ends, then for each
    job on the ``jobs`` pipe (its range's index, first and last-plus-one
    block and the arena spans of the job's out-of-band arrays, then the
    pickled run) run the range into its arrays in ``arena``, laid out by
    :func:`_run_layout`, and write its status byte to ``status``: 0 once
    the range returns, RANGE_RAISED once it raised an Exception.  Leaves by
    ``os._exit``: with status 0 when the job pipe reaches end of file, and
    1 if anything else escapes, a job that does not load included."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        jobs, view = open(jobs, "rb"), memoryview(arena)
        while True:
            try:
                i, start, stop, spans = pickle.load(jobs)
            except EOFError:
                code = 0
                break
            *run, n_bins, parts = pickle.load(jobs, buffers=[
                view[at:at + nbytes] for at, nbytes in spans])
            recon, counts, moments = _run_arrays(
                _run_layout(run[1], parts, n_bins)[0], arena)
            error = _error(functools.partial(
                _run_range, *run, start, stop, recon, counts[i], moments))
            os.write(status, bytes([0 if error is None else RANGE_RAISED]))
    finally:
        os._exit(code)


def entropy_bits(probs) -> float:
    """Entropy -sum p log2 p of a probability vector, in bits.

    Zero entries contribute nothing; a negative or non-finite entry raises
    ValueError.
    """
    probs = np.asarray(probs, dtype=float)
    if not np.all(np.isfinite(probs) & (probs >= 0)):
        raise ValueError("entropy_bits needs finite, non-negative "
                         "probabilities")
    return _entropy_of_positive(probs[probs > 0])


def _entropy_of_positive(p, out=None) -> float:
    """-sum p log2 p over positive ``p``, the terms written into ``out``
    (a float array as long as ``p``, not overlapping it) when given."""
    terms = np.log2(p, out=out)
    terms *= p
    # 0.0 - x, not -x: a single cell gives +0.0 rather than -0.0
    return float(0.0 - terms.sum())


def plugin_entropy(counts) -> float:
    """Plug-in entropy of an array of counts, in bits.  The counts must
    be finite and non-negative, with a total of at least 1.

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
    # a sum is finite only if every count is
    if not math.isfinite(total):
        raise ValueError("plugin_entropy needs finite counts")
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
