"""Block substreams against numpy's own SeedSequence derivation.

``SampleStreams`` hashes the Philox keys of a whole range of blocks at
once and re-keys one generator per run to each block in turn; each
block's generator must still be the one numpy builds from
``SeedSequence(seed, spawn_key=(k,))``.  ``doubles`` and ``offsets`` read
uniforms and power-of-two offsets from raw Philox words; they must be the
ones ``Generator.random`` and ``Generator.integers`` draw.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from rdplab import metrics
from rdplab.circle import simulate_dithered_circle, simulate_staggered_circle
from rdplab.rng import (BLOCK, DOUBLES, Offsets, SampleStreams, _fresh_state,
                        doubles)
from rdplab.sources import GaussianSource, UniformSource
from rdplab.stagger import StaggeredSpec, simulate_pipeline

FAR = 10 ** 400 + 3                   # 401 digits: 42 entropy words
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 128 + 1, FAR]
SEED_IDS = ["0", "1", "2^32-1", "2^32", "2^128+1", "FAR"]
# 2^32 and 2^43 take two spawn words, 2^32 - 1 is the last one-word block
WIDE_BLOCKS = [2 ** 32 - 1, 2 ** 32, 2 ** 43]


def numpy_block(seed, k):
    ss = np.random.SeedSequence(seed, spawn_key=(k,))
    return np.random.Generator(np.random.Philox(ss))


def assert_same_generator(got, want):
    a, b = got.bit_generator.state, want.bit_generator.state
    assert a["bit_generator"] == b["bit_generator"] == "Philox"
    for field in ("key", "counter"):
        assert a["state"][field].tolist() == b["state"][field].tolist()
    assert got.random(3).tolist() == want.random(3).tolist()
    assert got.integers(0, 7, 5).tolist() == want.integers(0, 7, 5).tolist()


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_block_generators_match_numpy(seed):
    # a yielded generator is valid until the next iteration, so each one
    # is compared as it comes
    streams = SampleStreams(seed)
    seen = []
    for k, _, rng in streams.iter_blocks(2048 * BLOCK):
        seen.append(k)
        assert_same_generator(rng, numpy_block(seed, k))
    assert seen == list(range(2048))
    for k in WIDE_BLOCKS:
        assert_same_generator(streams.block(k), numpy_block(seed, k))
    # a block range, across a KEY_BLOCKS boundary to the short last block
    seen = []
    for k, size, rng in streams.iter_blocks(1030 * BLOCK - 5, 1000):
        seen.append((k, size))
        assert_same_generator(rng, numpy_block(seed, k))
    assert seen == [(k, BLOCK) for k in range(1000, 1029)] + [(1029, 1019)]


@pytest.mark.parametrize("start, stop", [(5, 5), (-1, 3), (0, 11), (11, 12)])
def test_block_range_must_lie_in_the_run(start, stop):
    with pytest.raises(ValueError, match="not a range of the run's 10$"):
        list(SampleStreams(0).iter_blocks(10 * BLOCK, start, stop))


@pytest.mark.parametrize("as_list", [True, False], ids=["tolist", "array"])
def test_new_block_generator_takes_its_key_exactly(as_list):
    # a listed key whose two words straddle 2^63 reads as float64 unless
    # it is made uint64 first; about half the keys do so
    streams = SampleStreams(5)
    keys = streams.keys(0, 50)
    assert 10 < np.sum((keys >= 2 ** 63).sum(axis=1) == 1) < 40
    for k, key in enumerate(keys):
        rng = streams.block(k, key.tolist() if as_list else key)
        assert_same_generator(rng, numpy_block(5, k))


def plain_state(rng):
    """A generator's ``bit_generator.state`` with its arrays as lists."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def field_names(state):
    return {k: field_names(v) if isinstance(v, dict) else None
            for k, v in state.items()}


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@pytest.mark.parametrize("as_list", [True, False], ids=["tolist", "array"])
def test_rekeyed_generator_is_a_fresh_block_generator(seed, as_list):
    # a block leaves a spare 32-bit half-word and a part-used buffer; the
    # next block's re-key must leave nothing of it
    streams = SampleStreams(seed)
    rng = streams.block(3)
    rng.integers(0, 3, 1)
    rng.bit_generator.random_raw(1)
    used = rng.bit_generator.state
    assert used["has_uint32"] == 1 and 0 < used["buffer_pos"] < 4
    fresh = streams.block(7)
    # fails first if numpy's Philox ever gains a state field the re-key
    # does not set
    assert field_names(fresh.bit_generator.state) == \
        field_names(_fresh_state([0, 0]))
    key = streams.keys(7, 8)
    assert streams.block(7, key.tolist()[0] if as_list else key[0],
                         into=rng) is rng
    assert plain_state(rng) == plain_state(fresh)
    assert rng.standard_normal(5).tolist() == fresh.standard_normal(5).tolist()
    assert rng.random(3).tolist() == fresh.random(3).tolist()
    assert rng.bit_generator.random_raw(3).tolist() == \
        fresh.bit_generator.random_raw(3).tolist()
    assert rng.integers(0, 7, 5).tolist() == fresh.integers(0, 7, 5).tolist()
    assert plain_state(rng) == plain_state(fresh)


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_keys_across_the_two_word_boundary(seed):
    start = 2 ** 32 - 3                 # three one-word, three two-word blocks
    keys = SampleStreams(seed).keys(start, start + 6)
    for row, k in zip(keys, range(start, start + 6)):
        want = np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(
            2, np.uint64)
        assert row.tolist() == want.tolist()


def test_run_builds_one_seed_sequence_and_each_block_once(monkeypatch):
    # the slow path built one SeedSequence and one seeded Philox per block;
    # now one Philox per run is re-keyed to each block in turn
    real, real_philox = np.random.SeedSequence, np.random.Philox
    made, built, philox = [], [], []

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    def counting_philox(*args, **kwargs):
        philox.append(args)
        return real_philox(*args, **kwargs)

    original = SampleStreams.block

    def block(self, index, key=None, into=None):
        rng = original(self, index, key, into)
        built.append((index, rng))
        return rng

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(SampleStreams, "block", block)
    # four chunks, the last one a single 5-sample block
    samples = 3 * metrics.CHUNK_BLOCKS * BLOCK + 5
    simulate_staggered_circle(2, 3, samples, SampleStreams(9))
    assert len(made) <= 1
    assert len(philox) == 1
    assert [k for k, _ in built] == list(range(math.ceil(samples / BLOCK)))
    assert not any(isinstance(rng.bit_generator.seed_seq, real)
                   for _, rng in built)


@pytest.mark.parametrize("run", [
    lambda: simulate_dithered_circle(2, 10, SampleStreams(-1)),
    lambda: simulate_pipeline(StaggeredSpec(GaussianSource(0.0, 1.0), 0.5, 2),
                              3 * metrics.CHUNK_BLOCKS * BLOCK,
                              SampleStreams(-1)),
], ids=["one-block", "multi-chunk"])
def test_negative_seed_is_refused_before_any_draw(run):
    # numpy's own refusal came only at the first draw, naming no seed
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run()


OFFSET_SIZES = (1, 5, 1023, 1024)


def engine_numbers(draw, rngs, size):
    """The numbers ``draw`` gives a full block from ``rngs[0]`` and then a
    last block of ``size`` samples from ``rngs[1]``, made as the engine
    makes them: zeroed inputs, and a generator call per block or each
    block's raw words at the column start of its row of a word matrix,
    where another draw's column lies on either side; then the draw's
    columns turned into numbers at once."""
    out = np.zeros((2, BLOCK), draw.dtype)
    width = 0 if draw.draw is not None else draw.words(BLOCK)
    raw = np.zeros((2, width + 2), np.uint64)
    for row, (rng, n) in enumerate(zip(rngs, (BLOCK, size))):
        if draw.draw is not None:
            draw.draw(rng, out[row, :n])
        elif width:
            raw[row, 1:1 + draw.words(n)] = \
                rng.bit_generator.random_raw(draw.words(n))
    if width:
        draw.numbers(raw[:, 1:1 + width], out)
    return out[0], out[1, :size]


def block_pairs(seed, size):
    """Two (full block, last block of ``size``) generator pairs, for the
    engine and for numpy's own draws."""
    return [[numpy_block(seed, k) for k in (0, size)] for _ in range(2)]


@pytest.mark.parametrize("seed", SEEDS[:4], ids=SEED_IDS[:4])
def test_power_of_two_offsets_match_integers(seed):
    # numpy's bounded method never rejects for n = 2^k <= 2^32; this test
    # fails first if numpy ever changes how it draws these integers
    for k in range(33):
        for dtype in (np.int64, np.float64):
            for size in OFFSET_SIZES:
                got, want = block_pairs(seed, size)
                outs = engine_numbers(Offsets(2 ** k, dtype), got, size)
                for out, g, w, n in zip(outs, got, want, (BLOCK, size)):
                    assert out.dtype == dtype
                    assert out.tolist() == w.integers(0, 2 ** k, n).tolist(), \
                        (k, size)
                    # the draws after the offsets are the same too
                    assert g.random(3).tolist() == w.random(3).tolist(), \
                        (k, size)


@pytest.mark.parametrize("seed", SEEDS[:4], ids=SEED_IDS[:4])
def test_doubles_match_random(seed):
    for size in OFFSET_SIZES:
        got, want = block_pairs(seed, size)
        outs = engine_numbers(DOUBLES, got, size)
        for out, g, w, n in zip(outs, got, want, (BLOCK, size)):
            assert out.tolist() == w.random(n).tolist(), size
            assert g.random(3).tolist() == w.random(3).tolist(), size
        # a fresh array, and the caller's words left as they were
        words = numpy_block(seed, size).bit_generator.random_raw(size)
        kept = words.copy()
        assert doubles(words).tolist() == outs[1].tolist()
        assert words.tolist() == kept.tolist()


class _NoRawWords:
    """Generator stand-in that records ``integers`` calls and refuses to
    hand out its raw words."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def integers(self, *args):
        self.calls.append(args)
        return self.rng.integers(*args)

    @property
    def bit_generator(self):
        raise AssertionError("raw words read for an n that may reject")


@pytest.mark.parametrize("n", [3, 5, 2 ** 33, 2 ** 40])
def test_other_offset_counts_take_integers(n):
    draw = Offsets(n)
    assert draw.words(BLOCK) == 0
    for size in OFFSET_SIZES:
        got = [_NoRawWords(numpy_block(3, k)) for k in (0, size)]
        outs = engine_numbers(draw, got, size)
        for out, g, k, m in zip(outs, got, (0, size), (BLOCK, size)):
            assert g.calls == [(0, n, m)]
            assert out.tolist() == \
                numpy_block(3, k).integers(0, n, m).tolist()


class _CountingGenerator:
    """Generator proxy that counts the calls made on it, raw words
    included."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls
        self.bit_generator = self

    def random_raw(self, size):
        self._calls["random_raw"] += 1
        return self._rng.bit_generator.random_raw(size)

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)
        return counted


@dataclasses.dataclass(frozen=True)
class _CountingStreams(SampleStreams):
    """Streams whose blocks count their generator calls, one Counter per
    block in ``calls``."""

    calls: list = dataclasses.field(default_factory=list)

    def block(self, index, key=None, into=None):
        self.calls.append(Counter())
        rng = super().block(index, key, None if into is None else into._rng)
        return _CountingGenerator(rng, self.calls[-1])


def _gauss(n):
    return lambda s, samples: simulate_pipeline(
        StaggeredSpec(GaussianSource(0.0, 1.0), 0.25, n), samples, s)


def _uniform(n):
    return lambda s, samples: simulate_pipeline(
        StaggeredSpec(UniformSource(0.0, 1.0), 0.25, n, origin=0.125),
        samples, s)


@pytest.mark.parametrize("run, calls", [
    (_gauss(4), {"standard_normal": 1, "random_raw": 1}),
    (_gauss(3), {"standard_normal": 1, "integers": 1, "random_raw": 1}),
    (_uniform(2), {"random_raw": 1}),
    (_uniform(1), {"random_raw": 1}),
    # integers splits the uniform x's words from the decoder's
    (_uniform(3), {"random_raw": 2, "integers": 1}),
    (lambda s, n: simulate_staggered_circle(2, 4, n, s), {"random_raw": 1}),
    (lambda s, n: simulate_staggered_circle(3, 1, n, s), {"random_raw": 1}),
    (lambda s, n: simulate_dithered_circle(4, n, s), {"random_raw": 1}),
], ids=["gauss-n4", "gauss-n3", "uniform-n2", "uniform-n1", "uniform-n3",
        "staggered-circle", "staggered-circle-n1", "dithered-circle"])
def test_full_block_makes_one_call_per_kind_of_draw(run, calls):
    # every word of a full block comes from one random_raw call; only
    # numpy's ziggurat and offset counts that may reject call more
    samples = 3 * BLOCK + 5
    streams = _CountingStreams(7)
    got = run(streams, samples)
    assert len(streams.calls) == 4
    for block in streams.calls[:3]:
        assert block == Counter(calls)
    assert dataclasses.asdict(got) == \
        dataclasses.asdict(run(SampleStreams(7), samples))
