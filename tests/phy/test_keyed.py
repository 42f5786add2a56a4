"""Keyed sample pools: the mix against its scalar oracle, the pool's lazy
chunked build, and the window addressing."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.keyed import POOL_SIZE, KeyedPool, mix64
from tests.conformance.reference import scalar_mix64

WORDS = st.integers(0, (1 << 64) - 1)


class TestMix64:
    @settings(max_examples=100, deadline=None)
    @given(
        prefix=st.lists(WORDS, min_size=0, max_size=3),
        rows=st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=8),
    )
    def test_array_words_mix_as_the_scalar_oracle_row_by_row(self, prefix, rows):
        first, second = (np.array(column, dtype=np.uint64) for column in zip(*rows))
        mixed = mix64(*prefix, first, second)
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [
            scalar_mix64(*prefix, a, b) for a, b in rows
        ]

    def test_int_words_mix_to_an_int(self):
        assert mix64(1, 2, 3) == scalar_mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(1, 3, 2)


def _normal_pool(seed):
    return KeyedPool(seed, np.int8, lambda rng, n: np.rint(rng.normal(0, 4.6, n)))


#: One pool the window property reads (built on its first example).
SHARED = _normal_pool(5)


class TestKeyedPool:
    def test_the_chunked_build_is_one_draw_of_the_whole_pool(self):
        samples = _normal_pool(3).samples
        one_draw = np.rint(np.random.default_rng(3).normal(0, 4.6, POOL_SIZE))
        assert samples.dtype == np.int8 and len(samples) == POOL_SIZE
        assert (samples == one_draw.astype(np.int8)).all()
        assert not samples.flags.writeable

    def test_the_build_holds_no_pool_sized_float(self):
        """2**18 int8 samples: a one-shot float64 draw would peak at 2 MiB
        (plus its rounded copy); chunks keep the build near the pool."""
        np.rint(np.random.default_rng(0).normal(0, 1, 8))  # warm numpy
        pool = _normal_pool(4)
        tracemalloc.start()
        try:
            pool.samples
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < POOL_SIZE + 512 * 1024, f"peak {peak} B"

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(WORDS, min_size=1, max_size=6),
           width=st.integers(1, 8000))
    def test_a_window_starts_at_the_key_modulo_the_fitting_starts(self, keys, width):
        pool = SHARED
        windows = pool.windows(np.array(keys, dtype=np.uint64), width)
        assert windows.shape == (len(keys), width)
        for key, window in zip(keys, windows):
            start = key % (POOL_SIZE - width + 1)
            assert start + width <= POOL_SIZE
            assert (window == pool.samples[start : start + width]).all()

