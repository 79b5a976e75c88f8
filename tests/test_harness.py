import dataclasses
import itertools
import json
import multiprocessing
import os
import re
import threading
import time

import numpy as np
import pytest

from coneighbor import harness, metrics, model
from coneighbor.config import MATCH_PAPER, RunConfig
from coneighbor.data import (TEST, VAL, from_arrays, scored_event_mask,
                             train_event_indices)
from coneighbor.harness import (HASHTABLE_AXIS, FeatureTables, build_split,
                                destination_pool_for_training,
                                endpoint_windows, evaluate,
                                evaluate_checkpoint, feature_tables,
                                model_dims, replay_train, run, run_sweep,
                                stack_pair_features, stream_batches,
                                train_epoch, write_json)
from coneighbor.history import HistoryStore, NeighborSequenceBatch
from coneighbor.memory import TemporalDiverseMemory, check_slot_consistency
from coneighbor.model import (LinkPredictor, SequenceFeatures, adam_init,
                              copy_params, init_params, load_params)
from coneighbor.oracle import check_stream
from coneighbor.synthetic import (TriadicStreamConfig, random_stream,
                                  triadic_closure_stream)

TINY = dict(seq_len=5, hidden=12, time_dim=8, out_dim=12, layers=1,
            batch_size=200, float32=True)


def tiny_cfg(**kw):
    return RunConfig(**{**TINY, **kw})


@pytest.fixture(scope="module")
def rand_graph():
    return random_stream(40, 1200, seed=11, edge_dim=2)


@pytest.fixture(scope="module")
def triadic_graph():
    return triadic_closure_stream(
        TriadicStreamConfig(num_nodes=600, community_size=200,
                            num_events=8_000, bootstrap=1_000, seed=3))


def fresh_state(g, cfg):
    split = build_split(g, cfg)
    tdm = TemporalDiverseMemory.from_seed(g.num_nodes, cfg.long_size,
                                          cfg.short_size, cfg.seed)
    hist = HistoryStore(g.num_nodes)
    return split, tdm, hist


class TestFeatureTables:
    def test_trailing_zero_rows(self, rand_graph):
        ft = feature_tables(rand_graph, tiny_cfg())
        assert ft.node_ext.shape == (rand_graph.num_nodes + 1, 0)
        assert ft.edge_ext.shape == (rand_graph.num_events + 1, 2)
        assert not ft.edge_ext[-1].any()
        np.testing.assert_allclose(ft.edge_ext[:-1],
                                   rand_graph.edge_feats.astype(np.float32))

    def test_dtype_follows_config(self, rand_graph):
        assert feature_tables(rand_graph, tiny_cfg()).dtype == np.float32
        assert feature_tables(rand_graph,
                              tiny_cfg(float32=False)).dtype == np.float64


class TestStackPairFeatures:
    def build_sides(self, g, cfg):
        split, tdm, hist = fresh_state(g, cfg)
        replay_train(g, split, tdm, hist, cfg)
        lo, hi = split.phase_range(VAL)
        ev = np.arange(lo, min(lo + 40, hi))
        u, v, t = g.src[ev], g.dst[ev], g.t[ev]
        squ = hist.recent_batch(u, t, cfg.seq_len)
        sqv = hist.recent_batch(v, t, cfg.seq_len)
        return tdm, hist, [(squ, v), (sqv, u)]

    def test_scaled_counts_in_unit_interval(self, rand_graph):
        cfg = tiny_cfg()
        tdm, hist, sides = self.build_sides(rand_graph, cfg)
        feats = stack_pair_features(feature_tables(rand_graph, cfg), cfg,
                                    tdm, hist, sides)
        for block in (feats.co_long, feats.co_short):
            assert block.min() >= 0.0 and block.max() <= 1.0
        assert feats.co_long.any()    # replayed state produces real counts

    def test_no_cne_zeroes_only_structure_blocks(self, rand_graph):
        cfg = tiny_cfg()
        tdm, hist, sides = self.build_sides(rand_graph, cfg)
        ft = feature_tables(rand_graph, cfg)
        full = stack_pair_features(ft, cfg, tdm, hist, sides)
        bare = stack_pair_features(ft, cfg.replace(no_cne=True), tdm, hist,
                                   sides)
        assert not bare.co_long.any() and not bare.co_short.any()
        np.testing.assert_array_equal(full.dt, bare.dt)
        np.testing.assert_array_equal(full.node, bare.node)
        np.testing.assert_array_equal(full.edge, bare.edge)

    def test_no_td_zeroes_only_short_block(self, rand_graph):
        cfg = tiny_cfg()
        tdm, hist, sides = self.build_sides(rand_graph, cfg)
        ft = feature_tables(rand_graph, cfg)
        full = stack_pair_features(ft, cfg, tdm, hist, sides)
        notd = stack_pair_features(ft, cfg.replace(no_td=True), tdm, hist,
                                   sides)
        assert not notd.co_short.any()
        np.testing.assert_array_equal(full.co_long, notd.co_long)

    @pytest.mark.parametrize("matching", ["paper", "strict"])
    def test_ablation_flags_keep_inputs_byte_identical(self, rand_graph,
                                                      matching):
        cfg = tiny_cfg(matching=matching)
        tdm, hist, sides = self.build_sides(rand_graph, cfg)
        ft = feature_tables(rand_graph, cfg)
        full = stack_pair_features(ft, cfg, tdm, hist, sides)
        zero = np.zeros_like(full.co_long)
        for no_cne, no_td, no_nup, no_tup in itertools.product([False, True],
                                                               repeat=4):
            got = stack_pair_features(
                ft, cfg.replace(no_cne=no_cne, no_td=no_td, no_nup=no_nup,
                                no_tup=no_tup), tdm, hist, sides)
            want_long = zero if no_cne else full.co_long
            want_short = zero if no_cne or no_td else full.co_short
            for name, want in (("dt", full.dt), ("node", full.node),
                               ("edge", full.edge), ("co_long", want_long),
                               ("co_short", want_short)):
                block = getattr(got, name)
                assert block.dtype == want.dtype and block.shape == want.shape
                assert block.tobytes() == want.tobytes(), name

    def test_no_td_never_reads_the_short_table(self, rand_graph):
        cfg = tiny_cfg(no_td=True)
        tdm, hist, sides = self.build_sides(rand_graph, cfg)
        ft = feature_tables(rand_graph, cfg)
        want = stack_pair_features(ft, cfg, tdm, hist, sides)
        tdm.short = None
        got = stack_pair_features(ft, cfg, tdm, hist, sides)
        np.testing.assert_array_equal(got.co_long, want.co_long)
        assert not got.co_short.any()

    def test_padding_rows_read_zero_edge_features(self, rand_graph):
        cfg = tiny_cfg()
        tdm, hist, sides = self.build_sides(rand_graph, cfg)
        feats = stack_pair_features(feature_tables(rand_graph, cfg), cfg,
                                    tdm, hist, sides)
        valid = np.concatenate([s.valid for s, _ in sides])
        eidx = np.concatenate([hist.deltas_and_edges(s)[1] for s, _ in sides])
        pad_edge = feats.edge[(~valid) | (eidx < 0)]
        assert not pad_edge.any()


def per_side_features(ft, cfg, tdm, hist, sides) -> SequenceFeatures:
    """Encoder inputs with every side's window gathered and counted on its
    own: the reference for the shared path."""
    out = {f.name: [] for f in dataclasses.fields(SequenceFeatures)}
    for seq, other in sides:
        peers = seq.peers
        dt, eidx = hist.deltas_and_edges(seq)
        for name, off in (("long", cfg.no_cne),
                          ("short", cfg.no_cne or cfg.no_td)):
            if off:
                out[f"co_{name}"].append(np.zeros(peers.shape + (2,),
                                                  ft.dtype))
                continue
            mem = getattr(tdm, name)
            c = mem.count_windows(np.column_stack([seq.anchors, other]),
                                  peers, cfg.matching)
            c[~seq.valid] = mem.width if cfg.matching == MATCH_PAPER else 0
            out[f"co_{name}"].append((c / mem.width).astype(ft.dtype))
        out["dt"].append(dt.astype(ft.dtype))
        out["node"].append(ft.node_ext[peers])
        out["edge"].append(ft.edge_ext[np.where(eidx < 0,
                                                len(ft.edge_ext) - 1, eidx)])
    return SequenceFeatures(**{k: np.concatenate(v) for k, v in out.items()})


class TestSharedWindows:
    """Each window is extracted once and gathered once per table."""

    @pytest.mark.parametrize("length", [1, 3, 8])
    def test_endpoint_windows_equal_two_walks(self, rand_graph, length):
        g = rand_graph
        hist = HistoryStore(g.num_nodes)
        hist.record_batch(g.src[:600], g.dst[:600], g.t[:600], np.arange(600))
        # query times before, at (ties) and after the recorded entries
        ev = np.arange(550, 700)
        u, v, t = g.src[ev], g.dst[ev], g.t[ev]
        squ, sqv = endpoint_windows(hist, u, v, t, length)
        for got, anchors in ((squ, u), (sqv, v)):
            want = hist.recent_batch(anchors, t, length)
            for f in dataclasses.fields(NeighborSequenceBatch):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), f.name

    @pytest.mark.parametrize("phase,kw", [
        (VAL, {}),
        (VAL, dict(matching="strict")),
        (VAL, dict(no_td=True)),
        (VAL, dict(no_cne=True)),
        (VAL, dict(float32=False)),
        (VAL, dict(mode="inductive")),
        ("train", {}),
        ("train", dict(matching="strict")),
    ])
    def test_shared_gather_equals_per_side_counting(self, rand_graph,
                                                    monkeypatch, phase, kw):
        g, cfg = rand_graph, tiny_cfg(**kw)
        split, tdm, hist = fresh_state(g, cfg)
        dims = model_dims(g, cfg)
        params = init_params(dims, 0, dtype=np.float32)
        pred = LinkPredictor(dims, cfg.dropout)
        ft, pool = feature_tables(g, cfg), destination_pool_for_training(g, split)

        rows, checked = [], []
        inner_count = TemporalDiverseMemory.co_encode_batch

        def count(self, own, other, peers, *a, **k):
            rows.append(len(peers))
            return inner_count(self, own, other, peers, *a, **k)

        def stack(ft_, cfg_, tdm_, hist_, sides):
            rows.clear()
            got = stack_pair_features(ft_, cfg_, tdm_, hist_, sides)
            want = per_side_features(ft_, cfg_, tdm_, hist_, sides)
            for f in dataclasses.fields(SequenceFeatures):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), f.name
            B = len(sides[0][0])
            # u's window serves (u, v) and (u, negative): three windows
            assert rows == ([] if cfg.no_cne else [B, B, B])
            checked.append(B)
            return got

        monkeypatch.setattr(TemporalDiverseMemory, "co_encode_batch", count)
        monkeypatch.setattr(harness, "stack_pair_features", stack)
        if phase == "train":
            train_epoch(g, split, tdm, hist, pred, params, adam_init(params),
                        cfg, 0, ft, pool)
            assert sum(checked) == train_event_indices(g, split).size
        else:
            replay_train(g, split, tdm, hist, cfg)
            evaluate(g, split, tdm, hist, pred, params, cfg, phase, ft, pool)
            scored = scored_event_mask(g, split, phase)
            assert sum(checked) == scored.sum()
            if cfg.mode == "inductive":     # the masked path is exercised
                assert 0 < scored.sum() < scored.size


class TestTrainEpoch:
    def test_two_node_smoke(self):
        g = from_arrays([0, 1] * 5, [1, 0] * 5, np.arange(10.0))
        cfg = tiny_cfg(seq_len=3, hidden=4, time_dim=4, out_dim=4, epochs=1)
        split, tdm, hist = fresh_state(g, cfg)
        dims = model_dims(g, cfg)
        params = init_params(dims, 0, dtype=np.float32)
        pred = LinkPredictor(dims, cfg.dropout)
        ft = feature_tables(g, cfg)
        pool = destination_pool_for_training(g, split)
        m = train_epoch(g, split, tdm, hist, pred, params, adam_init(params),
                        cfg, 0, ft, pool)
        assert np.isfinite(m.loss)
        assert 0.0 <= m.ap <= 1.0 and 0.0 <= m.auc <= 1.0

    def test_zero_lr_leaves_parameters_unchanged(self, rand_graph):
        cfg = tiny_cfg(lr=0.0, epochs=1)
        split, tdm, hist = fresh_state(rand_graph, cfg)
        dims = model_dims(rand_graph, cfg)
        params = init_params(dims, 0, dtype=np.float32)
        before = copy_params(params)
        pred = LinkPredictor(dims, cfg.dropout)
        train_epoch(rand_graph, split, tdm, hist, pred, params,
                    adam_init(params), cfg, 0,
                    feature_tables(rand_graph, cfg),
                    destination_pool_for_training(rand_graph, split))
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_loss_decreases_on_structured_stream(self, triadic_graph):
        cfg = tiny_cfg(epochs=3, lr=5e-4, seed=0)
        res = run(triadic_graph, cfg, dataset="triadic")
        assert res["train_loss"][-1] < res["train_loss"][0]
        assert max(res["val_ap"]) > 0.55
        assert res["test_ap"] > 0.55


class TestEvaluate:
    def test_evaluate_advances_the_state(self, rand_graph):
        """Scoring val leaves the state of a replay through the val events."""
        cfg = tiny_cfg()
        split, tdm, hist = fresh_state(rand_graph, cfg)
        replay_train(rand_graph, split, tdm, hist, cfg)
        table_before = tdm.long.table.copy()
        dims = model_dims(rand_graph, cfg)
        params = init_params(dims, 0, dtype=np.float32)
        evaluate(rand_graph, split, tdm, hist, LinkPredictor(dims, cfg.dropout),
                 params, cfg, VAL, feature_tables(rand_graph, cfg),
                 destination_pool_for_training(rand_graph, split))
        assert (tdm.long.table != table_before).any()

        def cut(lo, hi):
            return [np.arange(s, min(s + cfg.batch_size, hi))
                    for s in range(lo, hi, cfg.batch_size)]

        _, ref_tdm, ref_hist = fresh_state(rand_graph, cfg)
        batches = cut(0, split.train_end) + cut(split.train_end, split.val_end)
        for _ in stream_batches(rand_graph, batches, ref_tdm, ref_hist, cfg):
            pass
        for mem, ref in ((tdm.long, ref_tdm.long), (tdm.short, ref_tdm.short)):
            np.testing.assert_array_equal(mem.table, ref.table)
        nodes = np.arange(rand_graph.num_nodes)
        later = np.full(nodes.size, rand_graph.t[-1] + 1)
        got = hist.recent_batch(nodes, later, 64)
        want = ref_hist.recent_batch(nodes, later, 64)
        np.testing.assert_array_equal(hist.deltas_and_edges(got)[1],
                                      ref_hist.deltas_and_edges(want)[1])

    def test_untrained_model_scores_near_chance(self):
        g = random_stream(50, 3000, seed=2)
        cfg = tiny_cfg()
        split, tdm, hist = fresh_state(g, cfg)
        replay_train(g, split, tdm, hist, cfg)
        dims = model_dims(g, cfg)
        params = init_params(dims, 5, dtype=np.float32)
        pred = LinkPredictor(dims, cfg.dropout)
        m = evaluate(g, split, tdm, hist, pred, params, cfg, TEST,
                     feature_tables(g, cfg), destination_pool_for_training(g, split))
        assert abs(m.auc - 0.5) < 0.05

    def test_inductive_run_completes(self, rand_graph):
        cfg = tiny_cfg(mode="inductive", epochs=1)
        res = run(rand_graph, cfg)
        assert res["mode"] == "inductive"
        assert 0.0 <= res["test_ap"] <= 1.0


ENCODE = LinkPredictor.encode


class TestOverlappedScoring:
    """evaluate scores each batch as one job on the pool while the calling
    thread writes the batch back and builds the next one: the scores
    reach the metrics in the one-thread order with the one-thread bytes,
    and no job outlives the call."""

    @staticmethod
    def checkpoint_scores(monkeypatch, workers, g, cfg):
        """evaluate_checkpoint's metrics without wall_time, the bytes of
        every (scores, labels) pair handed to average_precision, and the
        threads encode ran on."""
        monkeypatch.setattr(model, "_WORKERS", workers)
        handed, threads = [], []

        def ap(scores, labels):
            handed.append((scores.tobytes(), labels.tobytes()))
            return metrics.average_precision(scores, labels)

        def encode(self, *a, **kw):
            threads.append(threading.current_thread())
            return ENCODE(self, *a, **kw)

        monkeypatch.setattr(harness, "average_precision", ap)
        monkeypatch.setattr(LinkPredictor, "encode", encode)
        dims = model_dims(g, cfg)
        params = init_params(dims, 1, time_span=float(g.t[-1] - g.t[0]),
                             dtype=np.float32)
        res = evaluate_checkpoint(g, cfg, params, dims)
        del res["wall_time"]
        return res, handed, threads

    @pytest.mark.parametrize("kw", [
        {},
        dict(layers=2),
        dict(matching="strict"),
        dict(mode="inductive", batch_size=8),
        dict(batch_size=2000),          # every phase is a single batch
    ])
    def test_scores_do_not_depend_on_the_worker_count(self, rand_graph,
                                                      monkeypatch, kw):
        g, cfg = rand_graph, tiny_cfg(**kw)
        one = self.checkpoint_scores(monkeypatch, 1, g, cfg)
        two = self.checkpoint_scores(monkeypatch, 2, g, cfg)
        assert one[0] == two[0]
        assert len(one[1]) == 2 and one[1] == two[1]      # val, then test
        main = threading.main_thread()
        assert one[2] and all(t is main for t in one[2])
        assert len(two[2]) == len(one[2])
        assert not any(t is main for t in two[2])        # every job pooled
        split = build_split(g, cfg)
        for phase in (VAL, TEST):
            lo, hi = split.phase_range(phase)
            mask = scored_event_mask(g, split, phase)
            scores = [mask[ev - lo].any()
                      for ev in harness._cut(np.arange(lo, hi), cfg.batch_size)]
            if cfg.mode == "inductive":   # some batches score nothing
                assert 0 < sum(scores) < len(scores)
            if cfg.batch_size > g.num_events:
                assert len(scores) == 1

    @staticmethod
    def val_phase(g, cfg):
        """A predictor, and a call that scores val with a given predictor
        on state replayed through train."""
        split, tdm, hist, ft, pool = harness._stream_setup(g, cfg)
        replay_train(g, split, tdm, hist, cfg)
        dims = model_dims(g, cfg)
        params = init_params(dims, 1, dtype=np.float32)
        return LinkPredictor(dims, cfg.dropout), lambda pred: evaluate(
            g, split, tdm, hist, pred, params, cfg, VAL, ft, pool)

    def val_scores(self, monkeypatch, workers, g, cfg, pred=None):
        """val's metrics and the bytes of its scores, on fresh state."""
        monkeypatch.setattr(model, "_WORKERS", workers)
        fresh, score_val = self.val_phase(g, cfg)
        handed = []
        monkeypatch.setattr(harness, "average_precision",
                            lambda s, y: handed.append(s.tobytes()) or
                            metrics.average_precision(s, y))
        return score_val(pred or fresh), handed

    @pytest.mark.parametrize("failing", [0, 3, -1])
    def test_a_failing_job_raises_once_no_job_runs(self, rand_graph,
                                                   monkeypatch, failing):
        g, cfg = rand_graph, tiny_cfg(batch_size=20)
        lo, hi = build_split(g, cfg).phase_range(VAL)
        k = failing % -(-(hi - lo) // cfg.batch_size)
        pred, score_val = self.val_phase(g, cfg)
        monkeypatch.setattr(model, "_WORKERS", 2)
        started, running = [], []

        def encode(self, *a, **kw):
            started.append(None)
            running.append(None)
            try:
                time.sleep(0.01)
                if len(started) == k + 1:
                    raise RuntimeError(f"batch {k} failed")
                return ENCODE(self, *a, **kw)
            finally:
                running.pop()

        monkeypatch.setattr(LinkPredictor, "encode", encode)
        with pytest.raises(RuntimeError, match=f"batch {k} failed"):
            score_val(pred)
        assert not running              # every job had finished
        assert len(started) == k + 1    # and none was started after it
        monkeypatch.setattr(LinkPredictor, "encode", ENCODE)
        # the predictor then scores as it would have: the one-thread bytes
        assert (self.val_scores(monkeypatch, 2, g, cfg, pred)
                == self.val_scores(monkeypatch, 1, g, cfg))

    def test_a_calling_thread_error_waits_for_the_job(self, rand_graph,
                                                      monkeypatch):
        g, cfg = rand_graph, tiny_cfg()
        pred, score_val = self.val_phase(g, cfg)
        monkeypatch.setattr(model, "_WORKERS", 2)
        scored = []

        def encode(self, *a, **kw):
            time.sleep(0.05)
            out = ENCODE(self, *a, **kw)
            scored.append(threading.current_thread())
            return out

        def update(*a, **kw):
            # batch 0's write, made while batch 0 is being scored
            raise RuntimeError("update failed")

        monkeypatch.setattr(LinkPredictor, "encode", encode)
        monkeypatch.setattr(TemporalDiverseMemory, "apply_link_update", update)
        with pytest.raises(RuntimeError, match="update failed"):
            score_val(pred)
        assert len(scored) == 1         # batch 0's job ran to its end
        assert scored[0] is not threading.main_thread()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_job_error_comes_before_a_later_calling_thread_error(
            self, rand_graph, monkeypatch, workers):
        # one thread scores batch 0 before it writes batch 0 back, so
        # batch 0's scoring error is the first in batch order
        g, cfg = rand_graph, tiny_cfg()
        pred, score_val = self.val_phase(g, cfg)
        monkeypatch.setattr(model, "_WORKERS", workers)

        def encode(self, *a, **kw):
            time.sleep(0.05)
            raise RuntimeError("scoring failed")

        def update(*a, **kw):
            raise ValueError("update failed")

        monkeypatch.setattr(LinkPredictor, "encode", encode)
        monkeypatch.setattr(TemporalDiverseMemory, "apply_link_update", update)
        with pytest.raises(RuntimeError, match="scoring failed"):
            score_val(pred)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_scores_on_its_own_pool(self, rand_graph,
                                                   monkeypatch):
        # the parent's pool threads do not exist in a forked child, so a
        # child that used the parent's pool would wait on them forever
        g, cfg = rand_graph, tiny_cfg()
        want = self.val_scores(monkeypatch, 2, g, cfg)
        assert model._POOL is not None

        def child():
            assert self.val_scores(monkeypatch, 2, g, cfg) == want
            assert model._POOL is not None

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(30)
        if proc.exitcode is None:
            proc.kill()
            proc.join()
        assert proc.exitcode == 0


class TestStreamSetup:
    def test_history_never_grows_in_a_full_replay(self, rand_graph):
        """The history has room for the whole stream from the start: a
        replay through train, val and test, twice over a reset, keeps the
        one log."""
        g, cfg = rand_graph, tiny_cfg()
        split, tdm, hist, ft, pool = harness._stream_setup(g, cfg)
        log = hist._log
        dims = model_dims(g, cfg)
        params = init_params(dims, 0, dtype=np.float32)
        pred = LinkPredictor(dims, cfg.dropout)
        for _ in range(2):
            tdm.reset()
            hist.reset()
            replay_train(g, split, tdm, hist, cfg)
            for phase in (VAL, TEST):
                evaluate(g, split, tdm, hist, pred, params, cfg, phase, ft,
                         pool)
            assert hist._log is log
            assert hist._size == log.shape[0] == 1 + 2 * g.num_events


class TestSelfLoops:
    def test_replay_writes_self_loops_as_documented(self):
        """Node 0 only ever links to itself; everything else is random.

        Each self-loop logs two entries with peer 0, and 0 is written into
        its own rows at its own slot and nowhere else.
        """
        r = np.random.default_rng(4)
        src, dst = r.integers(1, 12, size=(2, 500))
        loop = r.random(500) < 0.1
        src[loop] = dst[loop] = 0
        other = ~loop & (r.random(500) < 0.1)    # self-loops on other nodes
        dst[other] = src[other]
        g = from_arrays(src, dst, np.sort(r.integers(0, 250, size=500)))
        cfg = tiny_cfg(long_size=8, short_size=2, batch_size=37)
        split, tdm, hist = fresh_state(g, cfg)
        replay_train(g, split, tdm, hist, cfg)

        train_loops = np.count_nonzero(loop[:split.train_end])
        assert train_loops > 3
        # a window after the last event, long enough for the whole log
        window = hist.recent_batch([0], [g.t[-1] + 1], 2 * train_loops + 2)
        assert window.valid[0].sum() == 1 + 2 * train_loops
        assert (window.peers[0, window.valid[0]] == 0).all()
        for mem in (tdm.long, tdm.short):
            check_slot_consistency(mem)
            row = np.full(mem.width, mem.sentinel)
            row[mem.slot_of(0)] = 0
            np.testing.assert_array_equal(mem.table[0], row)
            assert not (mem.table[1:] == 0).any()


def _run_consumer(name, monkeypatch):
    """Run one stream consumer with its reads and writes traced.

    Reads (windows, their times and edges, co-neighbor counts) log "s"
    and writes (tables, history) log "u".  Returns the trace and the number of batches.
    """
    g = random_stream(30, 1000, seed=4)
    cfg = tiny_cfg(epochs=1, batch_size=50,
                   mode="inductive" if name.endswith("inductive") else
                   "transductive")
    split, tdm, hist = fresh_state(g, cfg)
    dims = model_dims(g, cfg)
    params = init_params(dims, 0, dtype=np.float32)
    pred = LinkPredictor(dims, cfg.dropout)
    ft, pool = feature_tables(g, cfg), destination_pool_for_training(g, split)
    if name.startswith("evaluate"):
        replay_train(g, split, tdm, hist, cfg)     # untraced: state only

    calls = []
    for cls, attr, tag in ((HistoryStore, "recent_batch", "s"),
                           (HistoryStore, "deltas_and_edges", "s"),
                           (TemporalDiverseMemory, "co_encode_batch", "s"),
                           (TemporalDiverseMemory, "apply_link_update", "u"),
                           (HistoryStore, "record_batch", "u")):
        def spy(*a, _orig=getattr(cls, attr), _tag=tag, **kw):
            calls.append(_tag)
            return _orig(*a, **kw)
        monkeypatch.setattr(cls, attr, spy)

    def batches(n):
        return -(-n // cfg.batch_size)

    if name == "train_epoch":
        train_epoch(g, split, tdm, hist, pred, params, adam_init(params),
                    cfg, 0, ft, pool)
        n = batches(train_event_indices(g, split).size)
    elif name == "replay_train":
        replay_train(g, split, tdm, hist, cfg)
        n = batches(train_event_indices(g, split).size)
    elif name == "check_stream":
        # 500 events in batches of 200, cut after the audit stop 249 too
        check_stream(num_nodes=30, num_events=500, long_width=64,
                     short_width=16, seq_len=4, seed=4)
        n = 4
    else:
        phase = TEST if "test" in name else VAL
        evaluate(g, split, tdm, hist, pred, params, cfg, phase, ft, pool)
        lo, hi = split.phase_range(phase)
        n = batches(hi - lo)
    return "".join(calls), n


class TestCausalityAudit:
    @staticmethod
    def check(trace, n_batches):
        # strictly alternating groups: all of a batch's reads happen
        # before any of its writes, once per batch
        assert re.fullmatch(r"(s+u+)+", trace)
        assert trace.count("su") == n_batches

    def test_samples_precede_updates_in_every_batch(self, monkeypatch):
        self.check(*_run_consumer("train_epoch", monkeypatch))

    @pytest.mark.parametrize("name", ["evaluate-val-transductive",
                                      "evaluate-val-inductive",
                                      "evaluate-test-transductive",
                                      "replay_train", "check_stream"])
    def test_every_other_consumer_reads_before_it_writes(self, name,
                                                         monkeypatch):
        self.check(*_run_consumer(name, monkeypatch))


class TestRunDriver:
    def test_determinism_across_runs(self, rand_graph):
        cfg = tiny_cfg(epochs=2, seed=9)
        a = run(rand_graph, cfg)
        b = run(rand_graph, cfg)
        for key in ("epoch", "train_loss", "val_ap", "val_auc", "best_epoch",
                    "test_ap", "test_auc"):
            assert a[key] == b[key], key

    def test_metrics_do_not_depend_on_the_worker_count(self, rand_graph,
                                                       monkeypatch, tmp_path):
        # 400 pairs a step, 218 to a block: two shards at two workers
        cfg = tiny_cfg(epochs=2, seed=4, layers=2)
        shards = []
        real = model._run_shards
        monkeypatch.setattr(model, "_run_shards",
                            lambda fn, n: shards.append(n) or real(fn, n))
        metrics = []
        for workers in (1, 2):
            monkeypatch.setattr(model, "_WORKERS", workers)
            write_json(tmp_path / "metrics.json", run(rand_graph, cfg))
            metrics.append(json.loads((tmp_path / "metrics.json").read_text()))
            del metrics[-1]["wall_time"]
        assert max(shards) == 2
        assert metrics[0] == metrics[1]

    def test_seed_changes_results(self, rand_graph):
        a = run(rand_graph, tiny_cfg(epochs=1, seed=0))
        b = run(rand_graph, tiny_cfg(epochs=1, seed=1))
        assert a["test_ap"] != b["test_ap"]

    def test_checkpoint_reproduces_reported_metrics(self, rand_graph,
                                                    tmp_path):
        cfg = tiny_cfg(epochs=2, seed=3)
        path = tmp_path / "best.npz"
        res = run(rand_graph, cfg, checkpoint_path=path)
        params, dims, stored, stream = load_params(path)
        assert stored == cfg.to_dict()
        assert stream == rand_graph.fingerprint()
        rerun = evaluate_checkpoint(rand_graph, cfg, params, dims)
        assert rerun["val_ap"] == res["val_ap"][res["best_epoch"]]
        assert rerun["test_ap"] == res["test_ap"]
        assert rerun["test_auc"] == res["test_auc"]

    def test_early_stopping_respects_patience(self, rand_graph):
        cfg = tiny_cfg(epochs=6, patience=1, seed=0)
        res = run(rand_graph, cfg)
        # once validation AP fails to improve `patience` times, the loop ends
        assert len(res["epoch"]) <= cfg.epochs
        assert res["best_epoch"] in res["epoch"]


class TestSweep:
    def test_two_rows_deterministic(self, rand_graph):
        cfg = tiny_cfg(epochs=1, seed=2)
        rows = run_sweep(rand_graph, cfg, HASHTABLE_AXIS, [16, 64])
        again = run_sweep(rand_graph, cfg, HASHTABLE_AXIS, [16, 64])
        assert [r["value"] for r in rows] == [16, 64]
        assert [r["test_ap"] for r in rows] == [r["test_ap"] for r in again]

    def test_unknown_axis_rejected(self, rand_graph):
        from coneighbor.errors import ConfigError
        with pytest.raises(ConfigError):
            run_sweep(rand_graph, tiny_cfg(), "widths", [4])
        with pytest.raises(ConfigError):
            run_sweep(rand_graph, tiny_cfg(), HASHTABLE_AXIS, [])


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"b": 1, "a": [1.5, 2]})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_and_writes_nothing(self, tmp_path,
                                                        value):
        from coneighbor.errors import NumericalError
        path = tmp_path / "m.json"
        with pytest.raises(NumericalError, match="m.json"):
            write_json(path, {"a": [1.0, value]})
        assert not path.exists()
