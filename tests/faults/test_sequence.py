"""SequenceTracker: 8-bit wraparound, duplicates, gaps, reordering."""

from repro.faults import SequenceTracker, SeqVerdict
from repro.faults.sequence import DUPLICATE_WINDOW
from repro.obs import Observability

KEY = ("ru", 0)


class TestWraparound:
    def test_wrap_after_255_is_progress_not_retransmission(self):
        tracker = SequenceTracker()
        for seq in range(256):
            assert tracker.observe(KEY, seq).verdict is SeqVerdict.NEW
        # seq 0 again: one step forward modulo 256, not a 255-step retreat.
        status = tracker.observe(KEY, 0)
        assert status.verdict is SeqVerdict.NEW
        assert status.gap == 0
        assert tracker.duplicates == 0
        assert tracker.reordered == 0

    def test_gap_across_the_wrap_boundary(self):
        tracker = SequenceTracker()
        tracker.observe(KEY, 254)
        status = tracker.observe(KEY, 2)  # 255, 0, 1 lost
        assert status.verdict is SeqVerdict.NEW
        assert status.gap == 3
        assert tracker.lost_in_gaps == 3

    def test_raw_integers_are_reduced_modulo(self):
        tracker = SequenceTracker()
        tracker.observe(KEY, 300)  # == 44
        assert tracker.observe(KEY, 45).verdict is SeqVerdict.NEW


class TestDuplicates:
    def test_immediate_repeat_is_duplicate(self):
        tracker = SequenceTracker()
        tracker.observe(KEY, 7)
        assert tracker.observe(KEY, 7).verdict is SeqVerdict.DUPLICATE
        assert tracker.duplicates == 1

    def test_recently_seen_behind_head_is_duplicate(self):
        tracker = SequenceTracker()
        for seq in range(10):
            tracker.observe(KEY, seq)
        assert tracker.observe(KEY, 5).verdict is SeqVerdict.DUPLICATE

    def test_old_number_beyond_window_is_reordered(self):
        tracker = SequenceTracker()
        for seq in range(200):
            tracker.observe(KEY, seq)
        # 130 is behind the head and long since evicted from the window:
        # a late original, not a retransmission.
        assert 200 - 130 > DUPLICATE_WINDOW
        assert tracker.observe(KEY, 130).verdict is SeqVerdict.REORDERED
        assert tracker.reordered == 1


class TestContext:
    def test_same_seq_same_context_is_duplicate(self):
        tracker = SequenceTracker()
        tracker.observe(KEY, 0, context="sym0")
        assert (
            tracker.observe(KEY, 0, context="sym0").verdict
            is SeqVerdict.DUPLICATE
        )

    def test_same_seq_new_context_is_fresh_traffic(self):
        """An unsequenced source reusing seq 0 every symbol is not
        retransmitting; only (seq, context) repeats are duplicates."""
        tracker = SequenceTracker()
        for symbol in range(5):
            status = tracker.observe(KEY, 0, context=f"sym{symbol}")
            assert status.verdict is SeqVerdict.NEW
        assert tracker.duplicates == 0
        # ... but replaying an already-seen symbol is caught.
        assert (
            tracker.observe(KEY, 0, context="sym4").verdict
            is SeqVerdict.DUPLICATE
        )

    def test_contextless_observe_matches_any(self):
        tracker = SequenceTracker()
        tracker.observe(KEY, 3, context="a")
        assert tracker.observe(KEY, 3).verdict is SeqVerdict.DUPLICATE


class TestStreams:
    def test_streams_are_independent(self):
        tracker = SequenceTracker()
        tracker.observe(("a",), 10)
        tracker.observe(("b",), 200)
        assert tracker.observe(("a",), 11).verdict is SeqVerdict.NEW
        assert tracker.observe(("b",), 201).verdict is SeqVerdict.NEW
        assert len(tracker._streams) == 2
        assert tracker.gaps == 0

    def test_gap_counting(self):
        tracker = SequenceTracker()
        tracker.observe(KEY, 0)
        tracker.observe(KEY, 5)
        tracker.observe(KEY, 6)
        tracker.observe(KEY, 10)
        assert tracker.gaps == 2
        assert tracker.lost_in_gaps == 4 + 3


class TestValidationAndObs:
    def test_obs_export(self):
        obs = Observability(enabled=True)
        tracker = SequenceTracker(name="t", obs=obs)
        tracker.observe(KEY, 0)
        tracker.observe(KEY, 0)  # duplicate
        tracker.observe(KEY, 4)  # gap of 3
        snapshot = obs.registry.snapshot()
        assert snapshot["seq_anomalies_total"]["series"]["t,duplicate"] == 1
        assert snapshot["seq_gaps_total"]["series"]["t"] == 1
        assert snapshot["seq_lost_packets_total"]["series"]["t"] == 3
