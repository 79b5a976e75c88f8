"""One benchmark workload in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --csv STREAM.csv --out PREFIX

Pins BLAS to one thread before numpy is imported, imports the program
from the checkout's ``src``, times ``load_events`` on the stream CSV (the
set-up), then calls the workload's harness entry point until ``--seconds``
of calls have been measured (at least one call).  Writes PREFIX.json with
timings, peak memory and what the output checks need; PREFIX.npz holds
arrays for those checks and, when tracing, PREFIX.spans.npz the spans.
"""

import os
import sys

from workloads import BLAS_ENV, WORKLOADS

for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import coneighbor  # noqa: E402
from coneighbor import data, harness, memory, model  # noqa: E402
from coneighbor.config import RunConfig  # noqa: E402
from coneighbor.history import HistoryStore  # noqa: E402

from reference import table_digest  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SETUP_MIN_LOADS = 3
SETUP_MIN_SECONDS = 1.5


def call_train(g, cfg: RunConfig, arrays: dict) -> dict:
    t0 = time.perf_counter()
    res = harness.run(g, cfg)
    wall = time.perf_counter() - t0
    return {"wall": wall, "test_ap": res["test_ap"], "test_auc": res["test_auc"],
            "val_ap": res["val_ap"]}


def call_replay(g, cfg: RunConfig, arrays: dict) -> dict:
    split = harness.build_split(g, cfg)
    tdm = memory.TemporalDiverseMemory.from_seed(
        g.num_nodes, cfg.long_size, cfg.short_size, cfg.seed)
    hist = HistoryStore(g.num_nodes)
    t0 = time.perf_counter()
    harness.replay_train(g, split, tdm, hist, cfg)
    wall = time.perf_counter() - t0
    for table in (tdm.long, tdm.short):
        memory.check_slot_consistency(table)    # raises, failing the process
    return {"wall": wall,
            "digest": table_digest([tdm.long.table, tdm.short.table],
                                   g.num_nodes)}


def call_eval(g, cfg: RunConfig, arrays: dict) -> dict:
    dims = model.ModelDims(node_dim=g.node_dim, edge_dim=g.edge_dim,
                           time_dim=cfg.time_dim, hidden=cfg.hidden,
                           out_dim=cfg.out_dim, layers=cfg.layers)
    dtype = np.float32 if cfg.float32 else np.float64
    params = model.init_params(dims, cfg.seed, time_span=float(g.t[-1] - g.t[0]),
                               dtype=dtype)
    store: list = []
    inner = harness.average_precision

    def average_precision(scores, labels):
        # keep the (scores, labels) the harness hands to the metrics layer
        store.append((np.array(scores, dtype=np.float64), np.array(labels)))
        return inner(scores, labels)

    harness.average_precision = average_precision
    try:
        t0 = time.perf_counter()
        res = harness.evaluate_checkpoint(g, cfg, params, dims)
        wall = time.perf_counter() - t0
    finally:
        harness.average_precision = inner
    (s_val, y_val), (s_test, y_test) = store
    call = len([k for k in arrays if k.startswith("val_scores")])
    arrays.update({f"val_scores{call}": s_val, f"val_labels{call}": y_val,
                   f"test_scores{call}": s_test, f"test_labels{call}": y_test})
    arrays.update({f"param_{k}": v for k, v in params.items()})
    return {"wall": wall, "val_ap": res["val_ap"], "test_ap": res["test_ap"]}


CALLS = {"run": call_train, "replay_train": call_replay,
         "evaluate_checkpoint": call_eval}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--csv", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = Path(coneighbor.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"imported coneighbor from {src}, not from {ROOT / 'src'}")
    spec = WORKLOADS[args.workload]
    cfg = RunConfig(seed=args.seed, **spec["config"]).validate()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    loads = []
    while len(loads) < SETUP_MIN_LOADS or sum(loads) < SETUP_MIN_SECONDS:
        g = None                       # drop the previous copy first
        t0 = time.perf_counter()
        g = data.load_events(args.csv)
        loads.append(time.perf_counter() - t0)

    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    call = CALLS[spec["entry"]]
    arrays: dict = {}
    calls = []
    while not calls or sum(c["wall"] for c in calls) < args.seconds:
        calls.append(call(g, cfg, arrays))

    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "setup_loads": loads, "calls": calls,
           "setup_rss_mb": setup_rss_mb,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        spans = tracer.arrays()
        gauges = {"harness.loop_rss_mb": (tracer.loop_rss_mb, "MB")}
        for name in ("long", "short"):
            mem = getattr(tracer.memory, name, None)
            fill = 0.0 if mem is None else (mem.table[:mem.num_nodes] != mem.sentinel).mean()
            gauges[f"memory.{name}.fill_ratio"] = (fill, "ratio")
        out["layers"] = layer_metrics(spans, tracer.counts, gauges, len(calls))
        out["trace_missing"] = tracer.missing
        np.savez(args.out + ".spans.npz", **spans)
    if arrays:
        np.savez(args.out + ".npz", **arrays)
    with open(args.out + ".json", "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
