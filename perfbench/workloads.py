"""Workload definitions shared by the runner and the workload process.

Every workload is one call of a public harness entry point on a stream
generated from the benchmark's seed.  The run configuration is spelled
out in full where it shapes the reference checks (split fractions, batch
size, table widths, window length), so the runner's reference and the
program agree by construction rather than by shared defaults.  Why each
workload was chosen is recorded in README.md and BENCHMARK.json.
"""

STREAMS = {
    # coneighbor.synthetic.triadic_closure_stream(TriadicStreamConfig(...))
    "triadic": {"num_nodes": 2000, "num_events": 50_000},
    # coneighbor.synthetic.random_stream(num_nodes, num_events, seed)
    "random": {"num_nodes": 20_000, "num_events": 200_000},
}

WORKLOADS = {
    "train-triadic": {
        "stream": "triadic",
        "entry": "run",
        "config": {"train_frac": 0.70, "val_frac": 0.15, "seq_len": 10,
                   "layers": 1, "float32": True, "batch_size": 200,
                   "epochs": 1},
    },
    "replay-sparse": {
        "stream": "random",
        "entry": "replay_train",
        "config": {"train_frac": 0.70, "val_frac": 0.15, "seq_len": 20,
                   "long_size": 64, "short_size": 16, "batch_size": 200},
    },
    "eval-wide": {
        "stream": "triadic",
        "entry": "evaluate_checkpoint",
        "config": {"train_frac": 0.70, "val_frac": 0.15, "seq_len": 32,
                   "long_size": 256, "short_size": 64, "layers": 1,
                   "float32": True, "batch_size": 50},
    },
}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def phase_bounds(num_events: int, config: dict) -> tuple[int, int]:
    """(train_end, val_end) exactly as a chronological split places them."""
    train_end = int(num_events * config["train_frac"] // 1)
    val_end = int((config["train_frac"] + config["val_frac"]) * num_events // 1)
    return train_end, val_end


def job_size(name: str) -> tuple[int, int]:
    """(stream events, stream batches) one entry-point call covers.

    Both are properties of the job, not of how the program loops over it:
    a call that replays a phase twice still covers its events once.
    """
    spec = WORKLOADS[name]
    cfg = spec["config"]
    n = STREAMS[spec["stream"]]["num_events"]
    train_end, val_end = phase_bounds(n, cfg)
    ranges = [(0, train_end)]
    if spec["entry"] != "replay_train":
        ranges += [(train_end, val_end), (val_end, n)]
    bs = cfg["batch_size"]
    events = sum(hi - lo for lo, hi in ranges)
    batches = sum(-(-(hi - lo) // bs) for lo, hi in ranges)
    return events, batches
