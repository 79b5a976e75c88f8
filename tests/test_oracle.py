import numpy as np
import pytest

from coneighbor import oracle
from coneighbor.config import MATCH_PAPER
from coneighbor.errors import ConfigError
from coneighbor.history import HistoryStore
from coneighbor.memory import (ExactNeighborLog, HashTableMemory,
                               TemporalDiverseMemory)
from coneighbor.oracle import (StreamReport, _audit_pairs, check_stream,
                               run_suite, summarize)


class TestCheckStream:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_tables_never_mismatch(self, seed):
        report = check_stream(num_nodes=12, num_events=150, long_width=512,
                              short_width=64, seq_len=4, seed=seed)
        assert report.ok
        assert report.pairs_checked > 0
        # width 512 with 12 ids: every pair stays injective
        assert report.pairs_injective == report.pairs_checked

    def test_narrow_tables_skip_collided_pairs(self):
        report = check_stream(num_nodes=25, num_events=300, long_width=16,
                              short_width=4, seq_len=4, seed=5)
        assert report.ok
        assert report.pairs_injective < report.pairs_checked

    def test_first_order_only_schema(self):
        report = check_stream(num_nodes=10, num_events=120, long_width=256,
                              short_width=32, seq_len=4, seed=7,
                              two_order=False, neighbor_update=False)
        assert report.ok and report.pairs_injective > 0

    def test_invalid_sequence_length_rejected(self):
        with pytest.raises(ConfigError, match="seq_len"):
            check_stream(10, 50, 16, 4, seq_len=0, seed=0)
        with pytest.raises(ConfigError, match="seq_len"):
            run_suite(streams=1, seq_len=0)


class TestAuditTiming:
    # 996 events in batches of 200; with 5 checkpoints the first stop, 199,
    # ends a batch, and the last, 995, is audited after the replay ends
    @pytest.mark.parametrize("checkpoints, stops", [
        (1, [995]), (2, [497, 995]), (5, [199, 398, 597, 796, 995])])
    def test_each_audit_sees_events_through_its_stop(self, checkpoints, stops,
                                                     monkeypatch):
        written = {"tables": 0, "history": 0, "log": 0}
        seen = []

        def count(cls, attr, key, size):
            orig = getattr(cls, attr)

            def spy(*a, **kw):
                written[key] += size(a)
                return orig(*a, **kw)
            monkeypatch.setattr(cls, attr, spy)

        count(TemporalDiverseMemory, "apply_link_update", "tables",
              lambda a: np.size(a[1]))
        count(HistoryStore, "record_batch", "history", lambda a: np.size(a[1]))
        count(ExactNeighborLog, "apply_link_update", "log",
              lambda a: np.size(a[1]))
        audit = oracle._audit_pairs

        def spy_audit(tdm, log, report):
            seen.append(dict(written))
            return audit(tdm, log, report)
        monkeypatch.setattr(oracle, "_audit_pairs", spy_audit)

        report = check_stream(num_nodes=8, num_events=996, long_width=64,
                              short_width=16, seq_len=4, seed=3,
                              checkpoints=checkpoints)
        assert report.ok
        assert seen == [dict.fromkeys(written, stop + 1) for stop in stops]


class TestAuditDetectsCorruption:
    def replay(self):
        """Tables, exact log and history after three links in lockstep."""
        tdm = TemporalDiverseMemory(6, 64, 16, 1, 3)
        log = ExactNeighborLog(6)
        hist = HistoryStore(6)
        for i, (u, v) in enumerate([(0, 1), (1, 2), (0, 3)]):
            squ = hist.recent_batch([u], [float(i)], 3)
            sqv = hist.recent_batch([v], [float(i)], 3)
            tdm.apply_link_update([u], [v], squ, sqv)
            log.apply_link_update([u], [v], squ, sqv)
            hist.record_batch([u], [v], [float(i)], [i])
        return tdm, log, hist

    def test_desynchronized_state_is_flagged(self):
        tdm, log, hist = self.replay()
        # one extra write applied to the log only; (2,3) already share
        # neighbors, so several pair intersections shift
        log.apply_link_update([2], [3], hist.recent_batch([2], [9.0], 3),
                              hist.recent_batch([3], [9.0], 3))
        report = StreamReport(0, 6, 4, 64, 16)
        _audit_pairs(tdm, log, report)
        assert not report.ok
        tables = {m[0] for m in report.mismatches}
        assert "long" in tables and "short" in tables

    def test_a_miscounting_counter_is_flagged(self, monkeypatch):
        # strict mode that also counts empty == empty, as paper mode does
        count = HashTableMemory.count_windows

        def miscount(mem, anchors, peers, mode=MATCH_PAPER):
            return count(mem, anchors, peers, MATCH_PAPER)
        monkeypatch.setattr(HashTableMemory, "count_windows", miscount)
        tdm, log, _ = self.replay()
        report = StreamReport(0, 6, 3, 64, 16)
        _audit_pairs(tdm, log, report)
        assert {m[0] for m in report.mismatches} == {"long", "short"}


class TestSuite:
    def test_small_suite_summary(self):
        reports = run_suite(streams=8, max_nodes=15, max_events=150, seed=1)
        summary = summarize(reports)
        assert summary["streams"] == 8
        assert summary["mismatches"] == 0
        assert summary["first_mismatches"] == []
        assert (summary["pairs_injective"]
                + summary["pairs_collision_skipped"]
                == summary["pairs_checked"])

    def test_suite_is_deterministic(self):
        a = summarize(run_suite(streams=4, max_events=100, seed=9))
        b = summarize(run_suite(streams=4, max_events=100, seed=9))
        assert a == b
