"""Reproducible random streams for Monte Carlo runs.

Every simulator in this package consumes randomness through a
:class:`SampleStreams` handle.  Samples are partitioned into fixed-size
blocks of ``BLOCK`` draws; block ``k`` always uses the counter-based
(Philox) substream ``Philox(SeedSequence(seed, spawn_key=(k,)))``.  The
Monte Carlo engine (``metrics.simulate_chunks``) draws block by block
straight into chunk arrays it allocates once per run, and
``tests/test_block_loop.py`` checks that every chunk length gives
bit-identical results, each substream built once.  Seeds are
non-negative integers of any size; a negative seed is refused when the
streams are made.

Keys.  A Philox substream is fixed by its 128-bit key, which
``SeedSequence.generate_state(2, uint64)`` hashes out of the sequence's
4-word entropy pool.  The pool of ``SeedSequence(seed, spawn_key=(k,))``
is the pool of ``SeedSequence(seed)``, the same for every block, with the
32-bit spawn word(s) of ``k`` (one word below 2^32, two up to 2^64) mixed
in.  :meth:`SampleStreams.keys` builds that pool once and then mixes and
hashes the keys of a whole range of blocks in uint32 numpy arithmetic,
with the multipliers of numpy's SeedSequence: 0.2 ms per 1024 keys, and
one SeedSequence per range rather than one per block.  Each block's
generator then takes its key through :class:`_BlockKey`, a minimal
``ISeedSequence``, for about 9 us per block instead of about 27 us for a
fresh SeedSequence and Philox (2-core box, numpy 2.4).  The keys, and so
every draw, are bit-identical to numpy's own derivation;
``tests/test_rng.py`` pins them against it.

Offsets.  The staggered coders draw a shared offset index in [0, N) per
sample.  :func:`draw_offsets` writes a block's offsets into the caller's
array with the bits of ``Generator.integers(0, N, size)``.  For a
power-of-two N up to 2^32 it reads them straight from the raw Philox
words: numpy's bounded-integer method (Lemire, ACM TOMACS 2019) never
rejects for such N, so each offset is the top log2 N bits of one 32-bit
half-word.  In the block loop, on fresh generators, 1024 offsets took
about 12 us this way against 19 us through ``integers`` (2-core box,
numpy 2.4).  ``tests/test_rng.py`` pins it against ``integers`` and fails
first if numpy ever changes its method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Substream granularity in samples.  Execution chunks are whole numbers
# of blocks, so chunking never changes which stream produced which sample.
BLOCK = 1024

# numpy's SeedSequence hash constants (pool of 4 uint32 words)
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, start: int) -> np.ndarray:
    """The (before, after) hash constants of the pool-word calls start ..
    start+3: a (2, 4, 1) uint32 array; call c uses init * mult^c, then
    init * mult^(c+1)."""
    h = [init * pow(mult, start + i, 1 << 32) & _MASK32
         for i in range(_POOL_WORDS + 1)]
    return np.array([h[:-1], h[1:]], dtype=np.uint32)[:, :, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values`` with its constant."""
    v = (values ^ consts[0]) * consts[1]
    return v ^ (v >> 16)


class _BlockKey(ISeedSequence):
    """Seed sequence whose state is one precomputed Philox key: Philox asks
    for ``generate_state(2, np.uint64)``, its 128-bit key, and nothing
    else."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def draw_offsets(rng: np.random.Generator, n: int, out: np.ndarray
                 ) -> np.ndarray:
    """Write ``rng.integers(0, n, out.size)`` into the int64 array ``out``,
    bit for bit, and return ``out``.

    For a power-of-two n <= 2^32, numpy multiplies each 32-bit word by n
    and keeps the high word; the low word never falls below its rejection
    threshold (2^32 - n) mod n = 0, so the offsets are the top log2 n bits
    of the words, low half first from each 64-bit Philox output.  n = 1
    draws nothing, as numpy does.  Any other n may reject and redraw, so it
    keeps ``integers``.  Later draws of doubles (``random``,
    ``standard_normal``) match those after ``integers``; a later 32-bit
    draw would not, since ``integers`` keeps the spare half of an odd
    count.  ``rng`` must hold no spare half when called: every generator of
    this package draws doubles or offsets only.
    """
    if n == 1:
        out.fill(0)
    elif 1 < n <= 1 << 32 and n & (n - 1) == 0:
        words = rng.bit_generator.random_raw((out.size + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")[:out.size]
        halves >>= 33 - int(n).bit_length()
        out[...] = halves
    else:
        out[...] = rng.integers(0, n, out.size)
    return out


@dataclass(frozen=True)
class SampleStreams:
    """Splittable family of counter-based (Philox) generators; the seed is
    a non-negative integer of any size."""

    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def keys(self, start: int, stop: int) -> np.ndarray:
        """Philox keys of blocks start .. stop-1 (0 <= start, stop <= 2^64),
        a (stop - start, 2) uint64 array: row k - start is
        ``SeedSequence(seed, spawn_key=(k,)).generate_state(2, np.uint64)``."""
        pool = np.random.SeedSequence(self.seed).pool
        # hashmix calls that built the pool: 4 to fill it, 12 to cross-mix
        # it, 4 for each entropy word of the seed beyond the 4th
        seed_words = max(1, -(-int(self.seed).bit_length() // 32))
        calls = 16 + _POOL_WORDS * max(0, seed_words - _POOL_WORDS)
        k = np.arange(start, stop, dtype=np.uint64)
        mixer = np.repeat(pool[:, None], k.size, axis=1)
        # a second spawn word (the high half of k) only from block 2^32 on
        wide = slice(int(np.searchsorted(k, np.uint64(1 << 32))), None)
        for i, rows in enumerate((slice(None), wide)):
            word = (k[rows] >> np.uint64(32 * i)).astype(np.uint32)
            consts = _hash_consts(_INIT_A, _MULT_A, calls + _POOL_WORDS * i)
            part = mixer[:, rows]
            m = _MIX_L * part - _MIX_R * _hash(word, consts)
            part[...] = m ^ (m >> 16)
        state = _hash(mixer, _hash_consts(_INIT_B, _MULT_B, 0))
        # little-endian word pairs, as generate_state views them
        return np.ascontiguousarray(state.T, dtype="<u4").view("<u8") \
            .astype(np.uint64)

    def block(self, index: int, key: np.ndarray | None = None
              ) -> np.random.Generator:
        """Generator for the ``index``-th sample block; ``key``, when
        given, must be ``self.keys(index, index + 1)[0]``."""
        if key is None:
            key = self.keys(index, index + 1)[0]
        return np.random.Generator(np.random.Philox(_BlockKey(key)))

    def iter_blocks(self, n_samples: int):
        """Yield ``(block_index, block_size, generator)`` covering n_samples."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        keys = self.keys(0, -(-n_samples // BLOCK))
        for k, key in enumerate(keys):
            yield k, min(BLOCK, n_samples - k * BLOCK), self.block(k, key)
