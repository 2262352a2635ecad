"""The chunked Monte Carlo engine against the per-block loops it replaced.

Each reference below is a stand-alone per-block loop: it builds each
block's generator from ``SeedSequence(seed, spawn_key=(k,))`` itself,
keeps every sample's code, counts codes with ``np.unique``, merges
moments one block at a time and inlines the clamped inverse-CDF decoder.
The simulators run on ``metrics.simulate_chunks``, which draws per block
but computes per chunk, counts with ``np.add.at`` and shares
``sources.draw_truncated``; every field of their results must equal the
reference bit for bit, at any chunk length.  The two circle simulators
share one step, the dithered coder being its continuous-offset case, so
the two circle references pin that step from both sides.
"""

import dataclasses
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rdplab import metrics, stagger
from rdplab.circle import (simulate_dithered_circle, simulate_staggered_circle,
                           wrap_angle)
from rdplab.metrics import (ExperimentResult, RunningMoments, ks_statistic,
                            plugin_entropy)
from rdplab.rng import BLOCK, DOUBLES, SampleStreams
from rdplab.sources import (DEGENERATE_MASS, CircleSource, GaussianSource,
                            UniformSource)
from rdplab.stagger import (ACTIVE_EPS, InactiveCodeError, StaggeredSpec,
                            encode, simulate_pipeline)
from reference_tables import paper_table

SAMPLE_COUNTS = (1000, 3000, 20480)   # 3000 is not a multiple of the block
TWO_PI = 2.0 * math.pi


def _uniform_angle_cdf(x):
    return np.clip((np.asarray(x, dtype=float) + math.pi) / TWO_PI, 0.0, 1.0)


def reference_blocks(streams, samples):
    """(block size, generator) per block, keyed by numpy's SeedSequence."""
    for k in range(math.ceil(samples / BLOCK)):
        ss = np.random.SeedSequence(streams.seed, spawn_key=(k,))
        yield min(BLOCK, samples - k * BLOCK), np.random.Generator(
            np.random.Philox(ss))


def _circle_reference(dist, counts, recon, samples, seed, rate_bits):
    index_entropy = plugin_entropy(counts)
    return ExperimentResult(
        rate_bits=index_entropy if rate_bits is None else rate_bits,
        mse=dist.mean,
        perception_ks=ks_statistic(recon, _uniform_angle_cdf),
        n_samples=samples,
        seed=seed,
        mc_radius_mse=dist.mc_radius(),
        index_entropy_bits=index_entropy,
    )


def reference_staggered_circle(levels, offsets, samples, streams):
    cell = TWO_PI / levels
    noise_half = math.pi / (levels * offsets)
    dist = RunningMoments()
    counts = np.zeros(levels, dtype=np.int64)
    recon_parts = []
    for size, rng in reference_blocks(streams, samples):
        theta = -math.pi + rng.random(size) * TWO_PI
        n = rng.integers(0, offsets, size)
        noise = (rng.random(size) * 2.0 - 1.0) * noise_half
        offset = TWO_PI * n / (levels * offsets)
        idx = np.floor((theta - offset) / cell + 0.5).astype(np.int64)
        center = offset + idx * cell
        theta_hat = wrap_angle(center + noise)
        dist.update(2.0 - 2.0 * np.cos(theta - theta_hat))
        counts += np.bincount(idx % levels, minlength=levels)
        recon_parts.append(theta_hat)
    return _circle_reference(dist, counts, np.concatenate(recon_parts),
                             samples, streams.seed, None)


def reference_dithered_circle(levels, samples, streams):
    cell = TWO_PI / levels
    dist = RunningMoments()
    counts = np.zeros(levels, dtype=np.int64)
    recon_parts = []
    for size, rng in reference_blocks(streams, samples):
        theta = -math.pi + rng.random(size) * TWO_PI
        dither = (rng.random(size) - 0.5) * cell
        idx = np.floor((theta + dither) / cell + 0.5).astype(np.int64)
        theta_hat = wrap_angle(idx * cell - dither)
        dist.update(2.0 - 2.0 * np.cos(theta - theta_hat))
        counts += np.bincount(idx % levels, minlength=levels)
        recon_parts.append(theta_hat)
    return _circle_reference(dist, counts, np.concatenate(recon_parts),
                             samples, streams.seed, math.log2(levels))


def _reference_decode(table, j, rng):
    if np.any(j < table.j_first) or np.any(j > table.j_last):
        bad = int(j[(j < table.j_first) | (j > table.j_last)][0])
        raise InactiveCodeError(f"code {bad} outside the active table")
    k = j - table.j_first
    if np.any(table.prob[k] <= ACTIVE_EPS):
        bad = int(j[table.prob[k] <= ACTIVE_EPS][0])
        raise InactiveCodeError(f"code {bad} is not active")
    fa, fb = table.fa[k], table.fb[k]
    if np.any(fb - fa < DEGENERATE_MASS):
        bad = int(j[fb - fa < DEGENERATE_MASS][0])
        raise InactiveCodeError(f"code {bad} has a degenerate interval")
    u = fa + rng.random(j.size) * (fb - fa)
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    x = table.spec.source.quantile(u)
    return np.clip(x, table.a[k], table.b[k])


def reference_pipeline(spec, samples, streams):
    """Per-block pipeline loop; the rate averages the offsets drawn."""
    table = stagger.build_boundaries(spec)
    n_off = spec.n_offsets
    dist = RunningMoments()
    j_parts, n_parts, recon_parts = [], [], []
    for size, rng in reference_blocks(streams, samples):
        x = spec.source.sample(rng, size)
        n = rng.integers(0, n_off, size)
        i = encode(spec, x, n)
        j = n_off * i + n
        xhat = _reference_decode(table, j, rng)
        dist.update((x - xhat) ** 2)
        j_parts.append(j)
        n_parts.append(n)
        recon_parts.append(xhat)
    j_all = np.concatenate(j_parts)
    n_all = np.concatenate(n_parts)
    recon = np.concatenate(recon_parts)

    per_offset_entropies = []
    for n in range(n_off):
        _, counts = np.unique(j_all[n_all == n], return_counts=True)
        if counts.size:
            per_offset_entropies.append(plugin_entropy(counts))
    _, pooled_counts = np.unique(j_all, return_counts=True)
    return ExperimentResult(
        rate_bits=float(np.mean(per_offset_entropies)),
        mse=dist.mean,
        perception_ks=ks_statistic(recon, spec.source.cdf),
        n_samples=samples,
        seed=streams.seed,
        mc_radius_mse=dist.mc_radius(),
        index_entropy_bits=plugin_entropy(pooled_counts),
    )


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("levels, offsets", [(1, 3), (2, 4), (3, 5), (4, 1)])
def test_staggered_circle_matches_reference(levels, offsets, samples):
    got = simulate_staggered_circle(levels, offsets, samples, SampleStreams(17))
    want = reference_staggered_circle(levels, offsets, samples,
                                      SampleStreams(17))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("levels", [1, 3, 4])
def test_dithered_circle_matches_reference(levels, samples):
    got = simulate_dithered_circle(levels, samples, SampleStreams(23))
    want = reference_dithered_circle(levels, samples, SampleStreams(23))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


# offset counts 2, 2, 3, then 4 (the benchmark's Gaussian pipeline),
# 1 (no offset drawn) and 64: the engine reads power-of-two offsets from
# raw words, the references call rng.integers
PIPELINE_SPECS = [
    StaggeredSpec(UniformSource(0.0, 1.0), 0.25, 2, origin=0.125),
    StaggeredSpec(GaussianSource(0.0, 1.0), 0.5, 2),
    StaggeredSpec(CircleSource(), math.pi / 2, 3),
    StaggeredSpec(GaussianSource(0.0, 1.0), 0.25, 4),
    StaggeredSpec(UniformSource(0.0, 1.0), 0.25, 1, origin=0.125),
    StaggeredSpec(UniformSource(0.0, 1.0), 1.0, 64),
]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("spec", PIPELINE_SPECS,
                         ids=["uniform", "gauss", "circle", "gauss-mc",
                              "uniform-n1", "uniform-n64"])
def test_pipeline_matches_reference(spec, samples):
    got = simulate_pipeline(spec, samples, SampleStreams(29))
    want = reference_pipeline(spec, samples, SampleStreams(29))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("samples", [2, 5])
def test_pipeline_with_undrawn_offsets_matches_reference(samples):
    spec = StaggeredSpec(UniformSource(0.0, 1.0), 0.25, 8)
    got = simulate_pipeline(spec, samples, SampleStreams(3))
    want = reference_pipeline(spec, samples, SampleStreams(3))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


# the aligned uniform spec, whose table in the paper's printed index
# convention starts with two codes that hold no mass
ALIGNED_N2 = PIPELINE_SPECS[0]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_literal_indexing_fault_matches_reference(paper_tables, samples):
    with pytest.raises(InactiveCodeError) as got:
        simulate_pipeline(ALIGNED_N2, samples, SampleStreams(0))
    with pytest.raises(InactiveCodeError) as want:
        reference_pipeline(ALIGNED_N2, samples, SampleStreams(0))
    assert str(got.value) == str(want.value)


SIMULATORS = {
    "staggered-circle":
        lambda n: simulate_staggered_circle(3, 5, n, SampleStreams(31)),
    "dithered-circle": lambda n: simulate_dithered_circle(3, n, SampleStreams(31)),
    "pipeline": lambda n: simulate_pipeline(PIPELINE_SPECS[1], n,
                                            SampleStreams(31)),
}


def _chunk_lengths():
    return (1, 3, metrics.CHUNK_BLOCKS)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("name", SIMULATORS)
def test_chunk_length_changes_no_result(monkeypatch, name, samples):
    # one substream per block, each built once, whatever the chunk length
    original = SampleStreams.block
    results = []
    for chunk_blocks in _chunk_lengths():
        monkeypatch.setattr(metrics, "CHUNK_BLOCKS", chunk_blocks)
        built = []

        def block(self, index, key=None, into=None):
            built.append(index)
            return original(self, index, key, into)

        monkeypatch.setattr(SampleStreams, "block", block)
        results.append(dataclasses.asdict(SIMULATORS[name](samples)))
        assert built == list(range(math.ceil(samples / BLOCK)))
    assert results[0] == results[1] == results[2]


# Offsets(1) draws nothing, so each chunk's step reads the zeros the engine
# allocated once per run, as the previous chunk's step left them; the
# pipeline's first table row is code -14, not 0
GAUSS_N1 = StaggeredSpec(GaussianSource(0.0, 1.0), 0.5, 1)
UNDRAWN_OFFSETS = {
    "staggered-circle": (
        lambda n: simulate_staggered_circle(3, 1, n, SampleStreams(37)),
        lambda n: reference_staggered_circle(3, 1, n, SampleStreams(37))),
    "pipeline": (
        lambda n: simulate_pipeline(GAUSS_N1, n, SampleStreams(37)),
        lambda n: reference_pipeline(GAUSS_N1, n, SampleStreams(37))),
}


@pytest.mark.parametrize("name", UNDRAWN_OFFSETS)
def test_chunk_length_keeps_undrawn_offsets(monkeypatch, name):
    # 34 blocks: more than one chunk at every chunk length
    simulate, reference = UNDRAWN_OFFSETS[name]
    samples = 34_000
    want = dataclasses.asdict(reference(samples))
    for chunk_blocks in _chunk_lengths():
        monkeypatch.setattr(metrics, "CHUNK_BLOCKS", chunk_blocks)
        assert dataclasses.asdict(simulate(samples)) == want


# A run of at least PARALLEL_MIN_BLOCKS blocks splits over the workers;
# this one has a short last chunk that ends in a short block
SPLIT_SAMPLES = (metrics.PARALLEL_MIN_BLOCKS + 4) * BLOCK + 517
WORKER_COUNTS = (1, 2, 3)


def _count_forks(monkeypatch):
    """The pids of the children forked from now on, in this process."""
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS + (SPLIT_SAMPLES,))
def test_chunk_length_changes_no_decoder_error(monkeypatch, paper_tables,
                                               samples):
    # the decoder names the first faulty sample in sample order, which no
    # chunk length or worker count moves
    messages = []
    for chunk_blocks in _chunk_lengths():
        monkeypatch.setattr(metrics, "CHUNK_BLOCKS", chunk_blocks)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(metrics, "WORKERS", workers)
            with pytest.raises(InactiveCodeError) as got:
                simulate_pipeline(ALIGNED_N2, samples, SampleStreams(0))
            messages.append(str(got.value))
    assert messages == [messages[0]] * len(messages)


# the three simulators, and the pipeline with an offset count that calls
# ``integers`` per block, as the Gaussian one calls ``standard_normal``
SPLIT_SIMULATORS = dict(SIMULATORS, **{
    "pipeline-n3": lambda n: simulate_pipeline(PIPELINE_SPECS[2], n,
                                               SampleStreams(31))})


@pytest.mark.parametrize("name", SPLIT_SIMULATORS)
def test_worker_count_changes_no_result(monkeypatch, name):
    forked = _count_forks(monkeypatch)
    results = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(metrics, "WORKERS", workers)
        forked.clear()
        results.append(dataclasses.asdict(
            SPLIT_SIMULATORS[name](SPLIT_SAMPLES)))
        assert len(forked) == workers - 1
    assert results == [results[0]] * 3
    _assert_no_child_left()


def _fork_fails():
    raise BlockingIOError("Resource temporarily unavailable")


@pytest.mark.parametrize("no_child", ["without-fork", "fork-fails",
                                      "beside-a-thread"])
def test_a_run_without_children_runs_every_range_here(monkeypatch, no_child):
    spec = PIPELINE_SPECS[3]
    monkeypatch.setattr(metrics, "WORKERS", 1)
    want = dataclasses.asdict(simulate_pipeline(spec, SPLIT_SAMPLES,
                                                SampleStreams(7)))
    monkeypatch.setattr(metrics, "WORKERS", 3)
    forked, done = [], threading.Event()
    thread = threading.Thread(target=done.wait)
    if no_child == "without-fork":
        monkeypatch.delattr(os, "fork")
    elif no_child == "fork-fails":
        monkeypatch.setattr(os, "fork", _fork_fails)
    else:
        forked = _count_forks(monkeypatch)
        thread.start()
    try:
        got = simulate_pipeline(spec, SPLIT_SAMPLES, SampleStreams(7))
    finally:
        done.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert dataclasses.asdict(got) == want
    assert forked == []
    _assert_no_child_left()


# The aligned uniform spec on a grid so fine that the two faulty codes of
# its paper table hold 7.5e-6 of the mass: seed 8 draws neither of them
# in its first 256 blocks, range 0 of the split run at 2 workers.
RARE_FAULT = StaggeredSpec(UniformSource(0.0, 1.0), 1e-5, 2)
RARE_SEED = 8


def test_only_a_later_range_faults(monkeypatch, paper_tables):
    # the first fault lies past range 0 at 2 workers, which holds range 0
    # at 3, and each worker count names it
    chunks = -(-math.ceil(SPLIT_SAMPLES / BLOCK) // metrics.CHUNK_BLOCKS)
    clean = chunks // 2 * metrics.CHUNK_BLOCKS * BLOCK
    simulate_pipeline(RARE_FAULT, clean, SampleStreams(RARE_SEED))
    messages = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(metrics, "WORKERS", workers)
        with pytest.raises(InactiveCodeError) as got:
            simulate_pipeline(RARE_FAULT, SPLIT_SAMPLES,
                              SampleStreams(RARE_SEED))
        messages.append(str(got.value))
    assert messages == [messages[0]] * 3


class _TaggedStreams(SampleStreams):
    """Streams that record each block they yield in ``yielded``."""

    yielded: list = []

    def iter_blocks(self, n_samples, start=0, stop=None):
        for k, size, rng in super().iter_blocks(n_samples, start, stop):
            self.yielded.append(k)
            yield k, size, rng


def _faulting_step(faulty, exc_type):
    """A step over one uniform that raises ``exc_type`` naming the first
    block of ``faulty`` in its chunk."""
    def step(u, out):
        blocks = _TaggedStreams.yielded[-math.ceil(u.size / BLOCK):]
        hit = sorted(faulty.intersection(blocks))
        if hit:
            raise exc_type(f"block {hit[0]}")
        out[0][...] = u
        out[1][...] = 0
        out[2][...] = u
    return step


def _run_tagged(step):
    _TaggedStreams.yielded.clear()
    return metrics.simulate_chunks(_TaggedStreams(3), SPLIT_SAMPLES,
                                   (DOUBLES,), step, 1)


def test_the_first_faulty_range_names_the_fault(monkeypatch):
    # blocks 200 and 400 lie in ranges 1 and 2 at 3 workers, so range 0
    # runs clean, and in ranges 0 and 1 at 2 workers; the one-range run
    # names block 200
    step = _faulting_step({400, 200}, ValueError)
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(metrics, "WORKERS", workers)
        with pytest.raises(ValueError, match="^block 200$"):
            _run_tagged(step)
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _NeedsTwo(Exception):
    """Pickles, but cannot be rebuilt from its one argument."""

    def __init__(self, message, extra):
        super().__init__(message)


@pytest.mark.parametrize("exc_type, raised", [
    (_Unpicklable, _Unpicklable), (lambda m: _NeedsTwo(m, 0), _NeedsTwo)],
    ids=["unpicklable", "unrebuildable"])
def test_a_child_error_that_cannot_be_pickled_is_named(monkeypatch,
                                                       exc_type, raised):
    # the caller runs the faulty range again and raises its error itself
    monkeypatch.setattr(metrics, "WORKERS", 2)
    step = _faulting_step({400}, exc_type)
    with pytest.raises(raised, match="^block 400$"):
        _run_tagged(step)
    _assert_no_child_left()


def test_a_child_that_dies_before_it_reports_is_named(monkeypatch):
    monkeypatch.setattr(metrics, "WORKERS", 2)
    caller = os.getpid()

    def step(u, out):
        if os.getpid() != caller:
            os._exit(3)
        out[0][...] = u
        out[1][...] = 0
        out[2][...] = u

    with pytest.raises(RuntimeError, match=f"^the worker of range 1 ended "
                                           f"with wait status {3 << 8}$"):
        _run_tagged(step)
    _assert_no_child_left()


@pytest.mark.parametrize("exc_type, status", [
    (ValueError, metrics.RANGE_RAISED << 8), (SystemExit, 1 << 8)],
    ids=["raises", "exits"])
def test_a_child_that_fails_only_there_is_named(monkeypatch, exc_type,
                                                status):
    # a range that raises in its child alone returns when run again here,
    # and a SystemExit ends its child with another status
    monkeypatch.setattr(metrics, "WORKERS", 2)
    caller = os.getpid()

    def step(u, out):
        if os.getpid() != caller:
            raise exc_type("only in the child")
        out[0][...] = u
        out[1][...] = 0
        out[2][...] = u

    with pytest.raises(RuntimeError, match=f"^the worker of range 1 ended "
                                           f"with wait status {status}$"):
        _run_tagged(step)
    _assert_no_child_left()


def test_a_caller_that_raises_kills_its_children(monkeypatch):
    # each of the child's chunks would sleep 5 s
    monkeypatch.setattr(metrics, "WORKERS", 2)
    caller = os.getpid()

    def step(u, out):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(5)

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run_tagged(step)
    assert time.monotonic() - started < 2.0
    _assert_no_child_left()


@pytest.mark.parametrize("case", ["returns", "parent-range-raises",
                                  "child-range-raises"])
def test_no_child_outlives_a_call(monkeypatch, request, case):
    monkeypatch.setattr(metrics, "WORKERS", 2)
    forked = _count_forks(monkeypatch)
    if case == "returns":
        simulate_pipeline(PIPELINE_SPECS[3], SPLIT_SAMPLES, SampleStreams(1))
    else:
        request.getfixturevalue("paper_tables")
        spec, seed = ((ALIGNED_N2, 0) if case == "parent-range-raises"
                      else (RARE_FAULT, RARE_SEED))
        with pytest.raises(InactiveCodeError):
            simulate_pipeline(spec, SPLIT_SAMPLES, SampleStreams(seed))
    assert len(forked) == 1
    _assert_no_child_left()


def test_runs_share_no_scratch():
    # A, then B (other offsets, table and chunk length) and a circle run,
    # then A again
    a = StaggeredSpec(GaussianSource(0.0, 1.0), 0.25, 4)
    b = StaggeredSpec(UniformSource(0.0, 1.0), 1.0, 64)
    first = simulate_pipeline(a, 3000, SampleStreams(41))
    simulate_pipeline(b, 20480, SampleStreams(43))
    simulate_staggered_circle(5, 3, 1000, SampleStreams(43))
    again = simulate_pipeline(a, 3000, SampleStreams(41))
    assert dataclasses.asdict(again) == dataclasses.asdict(first)


@pytest.mark.parametrize("codes, message", [
    ([3, 0, 8], "code 0 has a degenerate interval"),
    ([3, 8, 0], "code 8 outside the active table"),
])
def test_decoder_names_its_first_faulty_code(codes, message):
    # codes -1 and 0 of the paper's table hold no mass, and 8 lies past
    # its last code; whichever check fails, the earlier code is named
    table = paper_table(ALIGNED_N2)
    assert table.codes.tolist() == list(range(-1, 8))
    with pytest.raises(InactiveCodeError, match=f"^{message}$"):
        stagger.decode(table, np.array(codes), np.zeros(len(codes)))


def _engine_excess(monkeypatch, samples):
    """Bytes a uniform pipeline's engine call peaks at under tracemalloc
    beyond its reconstructions; its three draws all take raw words."""
    spec = StaggeredSpec(UniformSource(0.0, 1.0), 0.25, 2, origin=0.125)
    engine, peaks = stagger.simulate_chunks, []

    def measured(*args, **kwargs):
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return engine(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - current)

    monkeypatch.setattr(stagger, "simulate_chunks", measured)
    tracemalloc.start()
    try:
        simulate_pipeline(spec, samples, SampleStreams(5))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    return peaks[0] - 8 * samples


def test_engine_scratch_is_per_chunk_not_per_run(monkeypatch):
    # input, word, error, bin and work arrays of one chunk: 2.8 MiB, in
    # one range, since tracemalloc sees neither a child's arrays nor the
    # shared buffer of a split run
    monkeypatch.setattr(metrics, "WORKERS", 1)
    excess = _engine_excess(monkeypatch, 2 ** 20)
    assert 0 < excess <= 4 * 2 ** 20
    assert abs(_engine_excess(monkeypatch, 2 ** 21) - excess) <= 2 ** 16
    # split over two processes, the parent holds one range's chunk arrays
    # and no reconstructions
    monkeypatch.setattr(metrics, "WORKERS", 2)
    assert _engine_excess(monkeypatch, 2 ** 20) <= excess
