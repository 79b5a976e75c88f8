"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces public functions and methods of the layer modules
with wrappers that record one span per call: name, start, end, parent
span and batch id.  Spans live in flat in-memory arrays and are written
out once, when the run ends.  The program's source is not touched: a
module-level function is replaced in every ``coneighbor`` module that
imported it by name, a method on its class.

A layer's self time is the duration of its spans minus the part their
direct child spans cover.  Batches are delimited by ``record_batch``,
which every stream loop calls once per batch after its table writes.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) per layer.  Fine-grained helpers inside a layer
# (slot hashing, per-row inserts) are left alone: wrapping them would
# cost more than the work they do.
TRACED = {
    "data": ["load_events", "from_arrays", "chronological_split",
             "select_inductive_nodes", "with_inductive", "train_event_indices",
             "scored_event_mask", "destination_pool", "sample_negative"],
    "history": ["HistoryStore.recent_batch", "HistoryStore.record_batch",
                "HistoryStore.snapshot", "HistoryStore.restore",
                "HistoryStore.reset", "NeighborSequenceBatch.row"],
    "memory": ["TemporalDiverseMemory.apply_link_update",
               "TemporalDiverseMemory.co_encode_batch",
               "TemporalDiverseMemory.snapshot", "TemporalDiverseMemory.restore",
               "TemporalDiverseMemory.reset"],
    "model": ["LinkPredictor.encode", "LinkPredictor.score",
              "LinkPredictor.loss_and_grads", "init_params", "copy_params",
              "save_params", "adam_init", "adam_step", "bce_loss"],
    "metrics": ["average_precision", "auc_roc"],
    "harness": ["run", "evaluate_checkpoint", "replay_train", "train_epoch",
                "evaluate", "build_split", "feature_tables",
                "stack_pair_features", "destination_pool_for_training"],
}

ENTRY = ("harness.run", "harness.evaluate_checkpoint", "harness.replay_train")
# stream loops: their self time is glue that no stage accounts for
LOOPS = ENTRY + ("harness.train_epoch", "harness.evaluate")


def resident_mb() -> float:
    """Current resident memory of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _training(args, kw) -> bool:
    # LinkPredictor.encode(self, params, feats, training=False, rng=None)
    return bool(kw.get("training", args[3] if len(args) > 3 else False))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid, self.parent, self.batch = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack: list[int] = []
        self.batch_no = 0
        self.counts: dict[str, float] = {}
        self.loop_rss_mb = 0.0      # largest resident memory at a batch end
        self.memory = None          # the last TemporalDiverseMemory seen
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + float(n)

    def wrap(self, fn, name, after=None):
        """Wrap ``fn``; ``name`` is a string or a function of (args, kw)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            i = len(tracer.start)
            stack = tracer._stack
            tracer.nid.append(tracer._id(name if isinstance(name, str)
                                         else name(args, kw)))
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.batch.append(tracer.batch_no)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kw)
            finally:
                tracer.end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kw, out)
            return out

        return traced

    # -- per-name counters, taken at the boundary --------------------------

    def _after(self, span: str):
        if span == "history.recent_batch":
            def after(tr, args, kw, out):
                tr.count("history.recent_batch.padded", (~out.valid).sum())
                tr.count("history.recent_batch.positions", out.valid.size)
        elif span == "history.record_batch":
            def after(tr, args, kw, out):
                tr.batch_no += 1
                tr.loop_rss_mb = max(tr.loop_rss_mb, resident_mb())
        elif span in ("memory.apply_link_update", "memory.co_encode_batch"):
            def after(tr, args, kw, out):
                tr.memory = args[0]
                if span == "memory.co_encode_batch":
                    tr.count("memory.co_encode_batch.positions", np.size(args[3]))
        elif span == "model.encode":
            def after(tr, args, kw, out):
                tr.count("model.encode.rows", np.size(args[2].dt))
        else:
            after = None
        return after

    def install(self, package: str = "coneighbor") -> None:
        """Wrap every TRACED attribute that exists in the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == package or n.startswith(package + ".")) and m]
        for layer, attrs in TRACED.items():
            module = sys.modules.get(f"{package}.{layer}")
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, fn_name, None) if owner is not None else None
                if not callable(fn) or isinstance(
                        vars(owner).get(fn_name), (classmethod, staticmethod)):
                    self.missing.append(f"{layer}.{attr}")
                    continue
                span = f"{layer}.{fn_name}"
                name = span
                if span == "model.encode":
                    name = lambda a, k: ("model.encode_train" if _training(a, k)
                                         else "model.encode_eval")
                wrapped = self.wrap(fn, name, self._after(span))
                if owner_name:
                    setattr(owner, fn_name, wrapped)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {"nid": np.frombuffer(self.nid, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "batch": np.frombuffer(self.batch, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "names": np.array(self.names)}


def layer_metrics(a: dict, counts: dict, gauges: dict, calls: int) -> dict:
    """Per-layer times, counts and ratios from span arrays.

    ``counts`` are the tracer's boundary counters, summed over calls;
    ``gauges`` are (value, unit) pairs reported as they are.  Times and
    counts are per entry-point call.
    Spans outside an entry call (set-up loads) only feed
    ``data.load_events.s``, the median time of one load.
    """
    names = [str(n) for n in a["names"]]
    nid, parent = a["nid"], a["parent"]
    dur = a["end"] - a["start"]
    n = dur.shape[0]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=n)
    self_t = dur - child
    root = np.arange(n)
    for i in range(n):                  # parents precede their children
        if parent[i] >= 0:
            root[i] = root[parent[i]]
    name_of = np.array(names + [""])[nid]
    layer = np.array([s.split(".", 1)[0] for s in names] + [""])[nid]
    entry = np.isin(name_of, ENTRY) & (parent < 0)
    inside = entry[root]
    wall = dur[entry].sum()

    def total(span, what=None):
        sel = inside & (name_of == span)
        return (dur if what is None else what)[sel].sum() / calls

    def calls_of(span):
        return np.count_nonzero(inside & (name_of == span)) / calls

    m = {}
    loads = dur[name_of == "data.load_events"]
    m["data.load_events.s"] = (float(np.median(loads)), "s")
    m["data.sample_negative.s"] = (total("data.sample_negative"), "s")
    pos = max(1.0, counts.get("history.recent_batch.positions", 0.0))
    m["history.recent_batch.s"] = (total("history.recent_batch"), "s")
    m["history.recent_batch.calls"] = (calls_of("history.recent_batch"), "count")
    m["history.recent_batch.pad_fraction"] = (
        counts.get("history.recent_batch.padded", 0.0) / pos, "ratio")
    m["history.record_batch.s"] = (total("history.record_batch"), "s")
    m["history.row.s"] = (total("history.row"), "s")
    m["memory.apply_link_update.s"] = (total("memory.apply_link_update"), "s")
    m["memory.apply_link_update.calls"] = (
        calls_of("memory.apply_link_update"), "count")
    m["memory.co_encode_batch.s"] = (total("memory.co_encode_batch"), "s")
    m["memory.co_encode_batch.positions"] = (
        counts.get("memory.co_encode_batch.positions", 0.0) / calls, "count")
    m["memory.snapshot_restore.s"] = (
        total("memory.snapshot") + total("memory.restore"), "s")
    m["model.encode_train.s"] = (total("model.encode_train"), "s")
    m["model.backward.s"] = (total("model.loss_and_grads", self_t), "s")
    m["model.adam_step.s"] = (total("model.adam_step"), "s")
    m["model.encode_eval.s"] = (total("model.encode_eval"), "s")
    m["model.encode.rows"] = (
        counts.get("model.encode.rows", 0.0) / calls, "count")
    m["metrics.average_precision.s"] = (total("metrics.average_precision"), "s")
    m["metrics.auc_roc.s"] = (total("metrics.auc_roc"), "s")
    m["harness.stack_pair_features.self_s"] = (
        total("harness.stack_pair_features", self_t), "s")
    for lay in TRACED:
        s = self_t[inside & (layer == lay)].sum()
        m[f"{lay}.self_s"] = (s / calls, "s")
        m[f"{lay}.share"] = (s / wall if wall else 0.0, "ratio")

    # batch time: from the loop's start or the previous batch's record
    # to this batch's record
    rec = np.flatnonzero(inside & (name_of == "history.record_batch"))
    batch_ms = []
    for p in np.unique(parent[rec]):
        ends = a["end"][rec[parent[rec] == p]]
        batch_ms.append(np.diff(np.r_[a["start"][p], ends]) * 1e3)
    batch_ms = np.concatenate(batch_ms) if batch_ms else np.zeros(1)
    m["harness.batch_ms.p50"] = (float(np.percentile(batch_ms, 50)), "ms")
    m["harness.batch_ms.p90"] = (float(np.percentile(batch_ms, 90)), "ms")
    m["harness.batches"] = (rec.size / calls, "count")
    glue = self_t[inside & np.isin(name_of, LOOPS)].sum()
    m["trace.coverage"] = (1.0 - glue / wall if wall else 0.0, "ratio")
    m["trace.wall_s"] = (wall / calls, "s")
    m["trace.spans"] = (np.count_nonzero(inside) / calls, "count")
    m.update(gauges)
    return {k: (float(v), u) for k, (v, u) in m.items()}
