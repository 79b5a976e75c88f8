"""Benchmark of the coneighbor stream harness, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Run from the root of a checkout.  The stream for the seed is generated
with ``coneighbor.synthetic`` and written once to CSV under
``perfbench/_work``; the program only ever sees that file, through
``load_events``.  Each workload runs in a fresh process with BLAS pinned
to one thread (``workload.py``), one process at a time, and its outputs
are checked against ``reference.py``.

With ``--trace 0`` the last line of output reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from a traced
process, plus the tracing overhead against an untraced process run just
before it.  The lines above it name every metric with its unit, the
failed fraction and the environment.  See README.md for the metrics.
"""

import os
import sys

from workloads import BLAS_ENV, STREAMS, WORKLOADS, job_size, phase_bounds

for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RUN_LIMIT_S = 170.0        # a run must end within 180 s
LOCK_WAIT_S = 120.0
EVAL_SAMPLED_BATCHES = 3   # per phase, checked score by score
SCORE_ATOL = 1e-5          # float32 program against the float64 reference
AP_ATOL = 1e-4             # allows the tie convention to differ


class CheckFailed(Exception):
    pass


def fail_unless(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- inputs -----------------------------------------------------------------

def generate(kind: str, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    from coneighbor import synthetic
    size = STREAMS[kind]
    if kind == "triadic":
        return synthetic.triadic_closure_stream(synthetic.TriadicStreamConfig(
            num_nodes=size["num_nodes"], num_events=size["num_events"], seed=seed))
    return synthetic.random_stream(size["num_nodes"], size["num_events"], seed=seed)


def stream_inputs(kind: str, seed: int):
    """(csv path, {src, dst, t}) for the seed, generated once and reused."""
    import numpy as np
    csv = WORK / f"{kind}-seed{seed}.csv"
    npz = WORK / f"{kind}-seed{seed}.npz"
    if not (npz.exists() and csv.exists()):
        g = generate(kind, seed)
        tmp = csv.with_suffix(".csv.tmp")
        with open(tmp, "w") as fh:
            # repr() is the shortest string that parses back to the same float
            fh.writelines(f"{s},{d},{t!r}\n" for s, d, t in
                          zip(g.src.tolist(), g.dst.tolist(), g.t.tolist()))
        back = np.loadtxt(tmp, delimiter=",", dtype=np.float64, ndmin=2)
        fail_unless(np.array_equal(back[:, 0], g.src) and np.array_equal(back[:, 1], g.dst)
                    and np.array_equal(back[:, 2], g.t),
                    f"{csv.name} does not round-trip the generated stream")
        os.replace(tmp, csv)
        tmp = npz.with_suffix(".tmp.npz")
        np.savez(tmp, src=g.src, dst=g.dst, t=g.t, num_nodes=g.num_nodes)
        os.replace(tmp, npz)
    with np.load(npz) as z:
        arrays = {k: z[k] for k in z.files}
    return csv, arrays


# -- environment --------------------------------------------------------------

def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    try:
        # the ceiling keeps git from searching directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                env=env, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {"blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "cpu_count": os.cpu_count(), "cpu_affinity": affinity,
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "python": platform.python_version(),
            "git_commit": commit or "not a git checkout"}


# -- one workload process ---------------------------------------------------------

def run_process(name: str, seed: int, seconds: float, trace: int, csv: Path,
                deadline: float) -> dict:
    prefix = WORK / f"{name}-seed{seed}-trace{trace}"
    for suffix in (".json", ".npz", ".spans.npz"):
        Path(str(prefix) + suffix).unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--csv", str(csv), "--out", str(prefix)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{name} process did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise CheckFailed(f"{name} process exited {proc.returncode}:\n"
                          + proc.stderr[-3000:])
    with open(str(prefix) + ".json") as fh:
        out = json.load(fh)
    out["npz"] = str(prefix) + ".npz"
    return out


# -- output checks ---------------------------------------------------------------

def check_train(out: dict, arrays: dict, spec: dict, seed: int) -> None:
    for c in out["calls"]:
        for key in ("test_ap", "test_auc"):
            fail_unless(math.isfinite(c[key]) and 0.0 < c[key] <= 1.0,
                        f"{key} {c[key]} is not a finite value in (0, 1]")


def check_replay(out: dict, arrays: dict, spec: dict, seed: int) -> None:
    from reference import replay_digest
    train_end, _ = phase_bounds(arrays["t"].shape[0], spec["config"])
    want = replay_digest(arrays["src"], arrays["dst"], arrays["t"],
                         int(arrays["num_nodes"]), spec["config"], seed, train_end)
    for c in out["calls"]:
        fail_unless(c["digest"] == want,
                    f"table digest {c['digest'][:12]} != reference {want[:12]}")


def check_eval(out: dict, arrays: dict, spec: dict, seed: int) -> None:
    import numpy as np
    from reference import EvalReference, average_precision
    src, dst, t = arrays["src"], arrays["dst"], arrays["t"]
    cfg = spec["config"]
    train_end, val_end = phase_bounds(t.shape[0], cfg)
    ref = EvalReference(src, dst, t, int(arrays["num_nodes"]), cfg, seed,
                        (0, train_end, val_end, t.shape[0]))
    with np.load(out["npz"]) as z:
        got = {k: z[k] for k in z.files}
    params = {k[len("param_"):]: v for k, v in got.items() if k.startswith("param_")}
    rng = np.random.default_rng([seed, 0x5A3])
    picks = []
    for phase, key in ((1, "val"), (2, "test")):
        batches = ref.phase_batches(phase)
        chosen = np.sort(rng.choice(len(batches), EVAL_SAMPLED_BATCHES, replace=False))
        negs = ref.negatives(phase, int(chosen[-1]) + 1)
        offsets = np.r_[0, np.cumsum([2 * (b - a) for a, b in batches])]
        picks += [(batches[i], negs[i], key, offsets[i]) for i in chosen]
    expected = [ref.batch_scores(params, a, b, neg) for (a, b), neg, _, _ in picks]

    for i, c in enumerate(out["calls"]):
        for key in ("val", "test"):
            s, y = got[f"{key}_scores{i}"], got[f"{key}_labels{i}"]
            want = average_precision(s, y)
            fail_unless(abs(c[f"{key}_ap"] - want) <= AP_ATOL,
                        f"{key} AP {c[key + '_ap']} != reference {want}")
        for ((a, b), _, key, off), (pp, pn) in zip(picks, expected):
            B = b - a
            s = got[f"{key}_scores{i}"][off:off + 2 * B]
            y = got[f"{key}_labels{i}"][off:off + 2 * B]
            fail_unless(y[:B].all() and not y[B:].any(),
                        f"{key} batch at {a}: labels are not B positives then B negatives")
            err = float(np.abs(s - np.r_[pp, pn]).max())
            fail_unless(err <= SCORE_ATOL,
                        f"{key} batch at {a}: scores differ from reference by {err:.3g}")


CHECKS = {"run": check_train, "replay_train": check_replay,
          "evaluate_checkpoint": check_eval}


# -- one workload -------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    spec = WORKLOADS[name]
    events, batches = job_size(name)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "loadavg_before": loadavg(), "env": environment(), "errors": []}
    outs, attempted, failed = [], 0, 0
    try:
        csv, arrays = stream_inputs(spec["stream"], seed)
        # the traced process is compared against an untraced one run first
        modes = (0, 1) if trace else (0,)
    except CheckFailed as exc:
        record["errors"].append(str(exc))
        attempted = failed = batches
        modes = ()
    for tr in modes:
        try:
            out = run_process(name, seed, seconds, tr, csv, deadline)
        except CheckFailed as exc:
            record["errors"].append(str(exc))
            attempted += batches
            failed += batches
            continue
        n = len(out["calls"])
        attempted += n * batches
        try:
            CHECKS[spec["entry"]](out, arrays, spec, seed)
        except CheckFailed as exc:
            record["errors"].append(f"trace {tr}: {exc}")
            failed += n * batches
        except Exception:            # a crashing check is a failed check
            record["errors"].append(f"trace {tr}: " + traceback.format_exc())
            failed += n * batches
        outs.append(out)

    metrics = {}
    untraced = [o for o in outs if o["trace"] == 0]
    traced = [o for o in outs if o["trace"] == 1]
    if untraced and not trace:
        o = untraced[0]
        wall = statistics.median(c["wall"] for c in o["calls"])
        metrics["events_per_s"] = (events / wall, "1/s")
        metrics["setup_s"] = (statistics.median(o["setup_loads"]), "s")
        metrics["peak_rss_mb"] = (o["peak_rss_mb"], "MB")
    if untraced and traced:
        metrics = dict(traced[0]["layers"])
        base = statistics.median(c["wall"] for c in untraced[0]["calls"])
        metrics["trace.overhead"] = (metrics["trace.wall_s"][0] / base, "ratio")
    record.update(attempted=attempted, failed=failed,
                  failed_fraction=failed / max(attempted, 1),
                  calls=[o["calls"] for o in outs], metrics=metrics,
                  trace_missing=traced[0]["trace_missing"] if traced else [],
                  loadavg_after=loadavg(), elapsed_s=time.monotonic() - started)
    if spec["entry"] == "run" and untraced:
        record["test_ap"] = untraced[0]["calls"][0]["test_ap"]
    with open(WORK / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def describe(rec: dict) -> str:
    parts = [f"{k}={v:.6g} {u}" for k, (v, u) in rec["metrics"].items()]
    parts.append(f"failed_fraction={rec['failed_fraction']:.6g} "
                 f"({rec['failed']}/{rec['attempted']} batches)")
    if "test_ap" in rec:
        parts.append(f"test_ap={rec['test_ap']:.6g}")
    return f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: " + "  ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coneighbor" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'coneighbor'}; "
              "run from the root of a coneighbor checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    with open(WORK / ".lock", "w") as lock:
        # one benchmark at a time: concurrent BLAS work distorts every timing
        waited = time.monotonic()
        while True:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if time.monotonic() - waited > LOCK_WAIT_S:
                    print("error: another benchmark run holds the lock", file=sys.stderr)
                    return 3
                time.sleep(0.5)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]

    print("env: " + json.dumps(records[0]["env"], sort_keys=True))
    for rec in records:
        print(f"loadavg {rec['workload']}: before {rec['loadavg_before']} | "
              f"after {rec['loadavg_after']}")
        for err in rec["errors"]:
            print(f"FAILED {rec['workload']}: {err}")
        print(describe(rec))
    prefix = len(records) > 1
    result = {
        "correct": all(not r["errors"] and r["metrics"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
                    for r in records for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
