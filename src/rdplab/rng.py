"""Reproducible random streams for Monte Carlo runs.

Every simulator in this package consumes randomness through a
:class:`SampleStreams` handle.  Samples are partitioned into fixed-size
blocks of ``BLOCK`` draws; block ``k`` always uses the counter-based
(Philox) substream ``Philox(SeedSequence(seed, spawn_key=(k,)))``.  The
Monte Carlo engine (``metrics.simulate_chunks``) draws block by block
straight into chunk arrays it allocates once per block range, and
``tests/test_block_loop.py`` checks that every chunk length and worker
count gives bit-identical results, each block keyed once.  A range of
blocks needs nothing from the blocks before it, so the engine splits a
long run into ranges drawn by separate processes.  Seeds are
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
one SeedSequence per range rather than one per block.  A run, or each
block range of a split run, takes its keys in ranges of KEY_BLOCKS
blocks and builds one generator, for its first block, as
``Philox(key=key)``.  :meth:`SampleStreams.iter_blocks`
re-keys that generator to each further block through
:meth:`SampleStreams.block`, which sets numpy's public
``bit_generator.state`` to exactly a freshly built block generator's: the
block's key, counter 0, an empty buffer (``buffer_pos`` 4) and no spare
32-bit half-word (``has_uint32`` and ``uinteger`` 0).  So a yielded
generator is valid until the next block.  1024 re-keys take about
2.3 ms, against about 4.5 ms to build 1024 generators from their keys and
about 15 ms to build them from fresh SeedSequences (best of 30, 2-core
box, numpy 2.4).  The keys, and so every draw, are bit-identical to numpy's own
derivation; ``tests/test_rng.py`` pins them against it, pins a re-keyed
generator's state and draws against a fresh one's, and fails first if
numpy's Philox ever gains a state field the re-key does not set.

Words.  A block draws its inputs in a fixed order: the source value x,
the offset index (staggered coders) and the decoder's uniform (pipeline),
or the angle, the offset or dither and the private noise (circle coders).
Every uniform on [0, 1) is one raw 64-bit Philox word w, as
``Generator.random`` draws it: (w >> 11) * 2^-53.  A power-of-two offset
count N up to 2^32 takes one 32-bit half-word per offset, low half first,
so ceil(size/2) words per block: numpy's bounded-integer method (Lemire,
ACM TOMACS 2019) never rejects for such N, and the offset is the top
log2 N bits of the half.  N = 1 draws nothing.  Only two draws remain
generator calls per block: ``standard_normal`` for a Gaussian x, whose
ziggurat must stay numpy's, and ``integers`` for an offset count that may
reject.  The engine (``metrics.simulate_chunks``) keeps the words of the
other draws in one matrix, a row per block of a chunk and adjacent
columns per draw in draw order, and a full block takes each run of them
between generator calls in one ``random_raw`` call.  Once per chunk,
:func:`doubles` and :func:`offsets` turn each draw's columns into numbers
with numpy's bits; :data:`DOUBLES`, :data:`NORMALS` and :class:`Offsets`
tell the engine how each input is drawn.  ``tests/test_rng.py`` pins the
helpers against ``Generator.random`` and ``Generator.integers`` and fails
first if numpy ever changes either method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Substream granularity in samples.  Execution chunks are whole numbers
# of blocks, so chunking never changes which stream produced which sample.
BLOCK = 1024

# Blocks whose keys a run derives at once.  Held as Python ints, a key
# takes about 150 bytes, so a run holds at most 150 KB of keys however
# many blocks it draws.
KEY_BLOCKS = 1024

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


def _fresh_state(key) -> dict:
    """The ``bit_generator.state`` of a Philox just built on ``key``:
    counter 0, an empty buffer and no spare 32-bit half-word."""
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def doubles(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``Generator.random``'s doubles on [0, 1) of the raw Philox words:
    (w >> 11) * 2^-53, exact.  ``out``, a C-contiguous float64 array of
    the words' shape, receives them in place of a fresh array."""
    if out is None:
        out = np.empty(np.shape(words))
    top = np.right_shift(words, 11, out=out.view(np.uint64))
    # below 2^53 the cast is exact; on one axis copyto casts in place
    # element by element, where a ufunc, or copyto on more axes, would
    # copy the overlapping input first
    flat = out.reshape(-1)
    np.copyto(flat, top.reshape(-1), casting="unsafe")
    flat *= 2.0 ** -53
    return out


def offsets(words: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``Generator.integers(0, n, m)`` for a power-of-two n in [2, 2^32]
    and an even m, along the last axis of ``out`` (m values, any integer or
    float dtype), from the m/2 raw words along the last axis of ``words``
    (little-endian uint64, contiguous along it, and shifted in place),
    written into ``out`` and returned.

    numpy multiplies each 32-bit half-word by n and keeps the high word;
    the low word never falls below its rejection threshold
    (2^32 - n) mod n = 0, so the offsets are the top log2 n bits of the
    halves, low half first from each word.
    """
    halves = words.view("<u4")
    halves >>= 33 - int(n).bit_length()
    # a plain cast: a ufunc writing another dtype would buffer it
    np.copyto(out, halves)
    return out


# The engine's draws.  Each one names the dtype of its input array and
# ``draw(rng, out)``, its generator call per block, or None.  A draw
# without a call takes ``words(size)`` raw words per block of ``size``
# samples, and ``numbers(words, out)`` turns a chunk's words, a row per
# block, into its numbers, a row of BLOCK per block.

class _Doubles:
    """Uniforms on [0, 1): one raw word per sample."""

    dtype = np.float64
    draw = None

    @staticmethod
    def words(size: int) -> int:
        return size

    numbers = staticmethod(doubles)


class _Normals:
    """Standard normals: numpy's ziggurat, one ``standard_normal`` call per
    block straight into the block's slice."""

    dtype = np.float64

    @staticmethod
    def draw(rng: np.random.Generator, out: np.ndarray) -> None:
        rng.standard_normal(out=out)


DOUBLES, NORMALS = _Doubles(), _Normals()


@dataclass(frozen=True)
class Offsets:
    """Offset indices in [0, n), as ``Generator.integers(0, n, size)``
    draws them, in an input array of ``dtype``.  A power-of-two n <= 2^32
    takes ceil(size/2) raw words per block, made numbers by
    :func:`offsets`; n = 1 draws nothing and leaves the zeros the engine
    allocated once per run, so a step that maps its offsets in place must
    map 0 to 0; any other n may reject and redraw, so it calls
    ``integers`` per block."""

    n: int
    dtype: type = np.int64

    @property
    def _raw(self) -> bool:
        return 1 < self.n <= 1 << 32 and self.n & (self.n - 1) == 0

    def words(self, size: int) -> int:
        return (size + 1) // 2 if self._raw else 0

    @property
    def draw(self):
        return None if self.n == 1 or self._raw else self._integers

    def _integers(self, rng: np.random.Generator, out: np.ndarray) -> None:
        out[...] = rng.integers(0, self.n, out.size)

    def numbers(self, words: np.ndarray, out: np.ndarray) -> np.ndarray:
        return offsets(words, self.n, out)


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

    def block(self, index: int, key=None,
              into: np.random.Generator | None = None) -> np.random.Generator:
        """Generator for the ``index``-th sample block; ``key``, when
        given, must be ``self.keys(index, index + 1)[0]`` or its
        ``tolist()``.  With ``into``, a Philox generator, that generator
        is re-keyed to the block and returned in place of a new one."""
        if key is None:
            key = self.keys(index, index + 1)[0]
        if into is None:
            # Philox reads a list whose words straddle 2^63 as float64
            return np.random.Generator(
                np.random.Philox(key=np.array(key, dtype=np.uint64)))
        into.bit_generator.state = _fresh_state(key)
        return into

    def iter_blocks(self, n_samples: int, start: int = 0,
                    stop: int | None = None):
        """Yield ``(block_index, block_size, generator)`` for blocks
        start .. stop-1 (all of them by default) of a run of n_samples.
        One generator serves the range, re-keyed to each block, so a
        yielded generator is valid until the next iteration.  Every block
        has its own key, so ranges of one run, drawn in any order or in
        separate processes, draw what the whole run draws."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        blocks = -(-n_samples // BLOCK)
        stop = blocks if stop is None else stop
        if not 0 <= start < stop <= blocks:
            raise ValueError(f"blocks {start} .. {stop - 1} are not a range "
                             f"of the run's {blocks}")
        rng = None
        for first in range(start, stop, KEY_BLOCKS):
            keys = self.keys(first, min(first + KEY_BLOCKS, stop))
            for k, key in enumerate(keys.tolist(), first):
                rng = self.block(k, key, rng)
                yield k, min(BLOCK, n_samples - k * BLOCK), rng
