"""Reproducible random streams for Monte Carlo runs.

Every simulator in this package consumes randomness through a
:class:`SampleStreams` handle.  Samples are partitioned into fixed-size
blocks of ``BLOCK`` draws; block ``k`` always uses the counter-based
substream derived from ``(seed, k)``.  The Monte Carlo engine
(``metrics.simulate_chunks``) draws block by block into chunks of blocks,
and ``tests/test_block_loop.py`` checks that every chunk length gives
bit-identical results, each substream built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Substream granularity in samples.  Execution chunks are whole numbers
# of blocks, so chunking never changes which stream produced which sample.
BLOCK = 1024


@dataclass(frozen=True)
class SampleStreams:
    """Splittable family of counter-based (Philox) generators."""

    seed: int

    def block(self, index: int) -> np.random.Generator:
        """Generator for the ``index``-th sample block (stateless derivation)."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return np.random.Generator(np.random.Philox(ss))

    def iter_blocks(self, n_samples: int):
        """Yield ``(block_index, block_size, generator)`` covering n_samples."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        full, rem = divmod(n_samples, BLOCK)
        for k in range(full):
            yield k, BLOCK, self.block(k)
        if rem:
            yield full, rem, self.block(full)
