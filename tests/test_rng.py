"""Block substreams against numpy's own SeedSequence derivation.

``SampleStreams`` hashes the Philox keys of a whole range of blocks at
once; each block's generator must still be the one numpy builds from
``SeedSequence(seed, spawn_key=(k,))``.  ``draw_offsets`` reads
power-of-two offsets from raw Philox words; they must be the ones
``Generator.integers`` draws.
"""

import math

import numpy as np
import pytest

from rdplab import metrics
from rdplab.circle import simulate_dithered_circle, simulate_staggered_circle
from rdplab.rng import BLOCK, SampleStreams, draw_offsets
from rdplab.sources import GaussianSource
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
    streams = SampleStreams(seed)
    blocks = list(streams.iter_blocks(2048 * BLOCK))
    assert [k for k, _, _ in blocks] == list(range(2048))
    for k, _, rng in blocks:
        assert_same_generator(rng, numpy_block(seed, k))
    for k in WIDE_BLOCKS:
        assert_same_generator(streams.block(k), numpy_block(seed, k))


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_keys_across_the_two_word_boundary(seed):
    start = 2 ** 32 - 3                 # three one-word, three two-word blocks
    keys = SampleStreams(seed).keys(start, start + 6)
    for row, k in zip(keys, range(start, start + 6)):
        want = np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(
            2, np.uint64)
        assert row.tolist() == want.tolist()


def test_run_builds_one_seed_sequence_and_each_block_once(monkeypatch):
    # the slow path built one SeedSequence and one seeded Philox per block
    real = np.random.SeedSequence
    made, built = [], []

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    original = SampleStreams.block

    def block(self, index, key=None):
        rng = original(self, index, key)
        built.append((index, rng))
        return rng

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    monkeypatch.setattr(SampleStreams, "block", block)
    # four chunks, the last one a single 5-sample block
    samples = 3 * metrics.CHUNK_BLOCKS * BLOCK + 5
    simulate_staggered_circle(2, 3, samples, SampleStreams(9))
    assert len(made) <= 1
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


@pytest.mark.parametrize("seed", SEEDS[:4], ids=SEED_IDS[:4])
def test_power_of_two_offsets_match_integers(seed):
    # numpy's bounded method never rejects for n = 2^k <= 2^32; this test
    # fails first if numpy ever changes how it draws these integers
    for k in range(33):
        for size in OFFSET_SIZES:
            got, want = numpy_block(seed, size), numpy_block(seed, size)
            out = np.full(size, -1, dtype=np.int64)
            assert draw_offsets(got, 2 ** k, out) is out
            assert out.tolist() == want.integers(0, 2 ** k, size).tolist(), \
                (k, size)
            # the draws after the offsets are the same too
            assert got.random(3).tolist() == want.random(3).tolist(), (k, size)


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
    for size in OFFSET_SIZES:
        got = _NoRawWords(numpy_block(3, size))
        out = np.empty(size, dtype=np.int64)
        draw_offsets(got, n, out)
        assert got.calls == [(0, n, size)]
        assert out.tolist() == numpy_block(3, size).integers(0, n, size).tolist()
