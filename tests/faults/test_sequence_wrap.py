"""Exhaustive 255 -> 0 wrap coverage for :class:`SequenceTracker`.

The 8-bit ``seq_id`` makes every comparison modular: a wrap must read as
``delta == 1``, a loss spanning the wrap must count its true gap, and the
half-window rule has a hard ambiguity edge — ``delta == 128`` is the
largest decodable forward gap (127 lost), while ``delta == 129`` means
the packet is 127 numbers *behind* the stream head.  These tests pin
that edge exhaustively and exercise it under duplication and reorder.
"""

from repro.faults.sequence import DUPLICATE_WINDOW, SeqVerdict, SequenceTracker


def tracker(**kwargs):
    return SequenceTracker(**kwargs)


class TestExhaustiveWrap:
    def test_increment_is_clean_from_every_start(self):
        # 256 streams, one per starting seq: +1 is NEW/no-gap everywhere,
        # including 255 -> 0.
        t = tracker()
        for start in range(256):
            t.observe(start, start)
            status = t.observe(start, (start + 1) % 256)
            assert status.verdict is SeqVerdict.NEW
            assert status.gap == 0, start
        assert t.gaps == 0 and t.lost_in_gaps == 0

    def test_every_delta_from_every_head(self):
        # The full 256 x 255 (head, delta) grid: forward half advances
        # with gap == delta - 1, the back half classifies as behind.
        t = tracker()
        for head in range(256):
            for delta in range(1, 256):
                key = (head, delta)
                t.observe(key, head)
                status = t.observe(key, (head + delta) % 256)
                if delta <= 128:
                    assert status.verdict is SeqVerdict.NEW, key
                    assert status.gap == delta - 1, key
                else:
                    assert status.verdict is SeqVerdict.REORDERED, key
                    assert status.gap == 0, key

    def test_ambiguity_edge(self):
        # delta == 128: largest decodable loss (127 skipped).
        t = tracker()
        t.observe("s", 200)
        assert t.observe("s", (200 + 128) % 256).gap == 127
        # delta == 129: indistinguishable from 127 behind — must NOT be
        # read as a 128-packet gap.
        t2 = tracker()
        t2.observe("s", 200)
        status = t2.observe("s", (200 + 129) % 256)
        assert status.verdict is SeqVerdict.REORDERED
        assert t2.lost_in_gaps == 0

    def test_loss_spanning_the_wrap_counts_true_gap(self):
        t = tracker()
        t.observe("s", 250)
        status = t.observe("s", 3)  # lost 251..255, 0..2
        assert status.verdict is SeqVerdict.NEW
        assert status.gap == 8
        assert t.lost_in_gaps == 8


class TestWrapUnderDuplication:
    def test_duplicates_straddling_the_wrap(self):
        t = tracker()
        for seq in (254, 255, 0, 1):
            assert t.observe("s", seq, context="c").verdict is SeqVerdict.NEW
        # Retransmit both sides of the boundary.
        assert t.observe("s", 255, context="c").verdict is SeqVerdict.DUPLICATE
        assert t.observe("s", 0, context="c").verdict is SeqVerdict.DUPLICATE
        assert t.duplicates == 2 and t.gaps == 0

    def test_seq_reuse_with_new_context_is_fresh_traffic(self):
        # A full 256-packet lap (or an unsequenced source pinning seq 0)
        # repeats the number with a *different* context: not a duplicate.
        t = tracker()
        t.observe("s", 0, context="lap-0")
        assert t.observe("s", 0, context="lap-1").verdict is SeqVerdict.NEW
        assert t.duplicates == 0

    def test_window_eviction_bounds_duplicate_memory(self):
        t = tracker()
        for seq in range(DUPLICATE_WINDOW + 2):
            t.observe("s", seq, context="c")
        # seq 0 was evicted from the window: an ancient replay now reads
        # as a late original, not a duplicate.
        assert t.observe("s", 0, context="c").verdict is SeqVerdict.REORDERED
        # The window's newest numbers are still inside it.
        newest = DUPLICATE_WINDOW
        assert t.observe("s", newest, context="c").verdict is SeqVerdict.DUPLICATE


class TestWrapUnderReorder:
    def test_straggler_across_the_wrap(self):
        t = tracker()
        arrivals = (254, 0, 255, 1)  # 255 overtaken by 0
        verdicts = [t.observe("s", seq, context=seq).verdict
                    for seq in arrivals]
        assert verdicts == [
            SeqVerdict.NEW,
            SeqVerdict.NEW,        # gap: 255 presumed lost
            SeqVerdict.REORDERED,  # ...then it limps in late
            SeqVerdict.NEW,
        ]
        # The gap was charged when 0 arrived; the straggler's later
        # arrival does not retroactively un-count it.
        assert t.lost_in_gaps == 1 and t.reordered == 1

    def test_reordered_then_retransmitted_is_a_dup(self):
        t = tracker()
        t.observe("s", 254, context=254)
        t.observe("s", 0, context=0)
        assert t.observe("s", 255, context=255).verdict is SeqVerdict.REORDERED
        assert t.observe("s", 255, context=255).verdict is SeqVerdict.DUPLICATE


class TestDeterministicSoak:
    def test_loss_and_dup_accounting_over_three_laps(self, rng):
        # 700 packets (two wraps), known drop and immediate-dup sets:
        # the tracker's ledger must reconcile exactly.
        drops = set(rng.choice(range(1, 700), size=40, replace=False).tolist())
        pool = sorted(set(range(700)) - drops)
        dups = set(rng.choice(pool, size=25, replace=False).tolist())
        t = tracker()
        for ordinal in range(700):
            if ordinal in drops:
                continue
            seq = ordinal % 256
            status = t.observe("s", seq, context=ordinal)
            assert status.verdict is SeqVerdict.NEW
            if ordinal in dups:
                redo = t.observe("s", seq, context=ordinal)
                assert redo.verdict is SeqVerdict.DUPLICATE
        assert t.lost_in_gaps == len(drops)
        assert t.duplicates == len(dups)
        assert t.reordered == 0
