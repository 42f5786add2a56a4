"""Keyed sample pools: a random sample as a function of its coordinates.

A pool is ``POOL_SIZE`` samples drawn from a constant seed, the same in
every process, a chunk at a time on first use.  A key — e.g. (cell seed,
DU id, slot offset, symbol, port) — mixed to 64 bits by :func:`mix64`
selects a window of it: the same window in any order, batch, shard or
process, with no generator state carried from one read to the next.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Samples in a pool: two windows of width ``w`` overlap with probability
#: about ``2 w / POOL_SIZE`` (DESIGN.md, "Blocked slot pass").
POOL_SIZE = 1 << 18
_CHUNK = 1 << 14  # samples a build draws at once: no pool-sized float
_MASK = (1 << 64) - 1


def mix64(*words):
    """SplitMix64's finaliser chained over the words, ``h = fmix(h ^
    word)`` from 0.  A word is a non-negative int or a ``uint64`` array;
    arrays broadcast, so one call mixes every row of a slot."""
    h = 0
    for word in words:
        z = ((h ^ word) + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        h = z ^ (z >> 31)
    return h


class KeyedPool:
    """``POOL_SIZE`` samples of ``dtype`` that ``draw(rng, n)`` makes from
    ``np.random.default_rng(seed)``; nothing is drawn before first use."""

    def __init__(self, seed: int, dtype: type, draw: Callable[..., np.ndarray]):
        self._seed, self._dtype, self._draw = seed, dtype, draw
        self._samples = None

    @property
    def samples(self) -> np.ndarray:
        """The pool, read-only, built ``_CHUNK`` samples at a time."""
        if self._samples is None:
            rng = np.random.default_rng(self._seed)
            samples = np.empty(POOL_SIZE, self._dtype)
            for start in range(0, POOL_SIZE, _CHUNK):
                samples[start : start + _CHUNK] = self._draw(rng, _CHUNK)
            samples.flags.writeable = False
            self._samples = samples
        return self._samples

    def windows(self, keys: np.ndarray, width: int) -> np.ndarray:
        """``(len(keys), width)``: row ``i`` starts at ``keys[i] %
        (POOL_SIZE - width + 1)``, so no window wraps.  (Not through
        ``sliding_window_view``: it kept 0.9 MiB more resident.)"""
        samples, fits = self.samples, POOL_SIZE - width + 1
        step = samples.itemsize
        every = np.ndarray((fits, width), samples.dtype, samples, strides=(step, step))
        return every[(keys % np.uint64(fits)).astype(np.intp)]
