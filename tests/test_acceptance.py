"""End-to-end acceptance gates for the whole package.

Each test prints one [acceptance] PASS/FAIL line (visible with -s or in
captured output on failure) and asserts the gate.  The UCI gate needs
data/uci.csv; scripts/fetch_uci.py documents how to obtain it, and the
test skips with instructions when the file is absent.

The ablation and sensitivity gates share one set of trained runs, so this
module takes several minutes; everything else finishes in seconds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from coneighbor.bench import run_bench
from coneighbor.cli import main as cli_main
from coneighbor.config import ABLATION_BASE, ABLATION_VARIANTS, RunConfig
from coneighbor.data import CsvLayout, from_arrays, load_events
from coneighbor.harness import (build_split, destination_pool_for_training,
                                replay_train, run, stack_pair_features,
                                feature_tables)
from coneighbor.history import HistoryStore
from coneighbor.memory import TemporalDiverseMemory
from coneighbor.metrics import auc_roc, average_precision
from coneighbor.model import (LinkPredictor, ModelDims, copy_params,
                              init_params)
from coneighbor.oracle import run_suite, summarize
from coneighbor.synthetic import TriadicStreamConfig, triadic_closure_stream

UCI_PATH = Path(__file__).resolve().parent.parent / "data" / "uci.csv"


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -- 1: sketch counts equal exact set intersections under injectivity ---


def test_01_oracle_equivalence_over_100_streams():
    # best of 3 timed runs, so a busy moment on the host does not decide
    # the bound; every run must be free of mismatches
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        reports = run_suite(streams=100, max_nodes=30, max_events=500,
                            seq_len=4, seed=0)
        runs.append((time.perf_counter() - t0, summarize(reports)))
    elapsed, s = min(runs, key=lambda r: r[0])
    ok = (all(r["mismatches"] == 0 for _, r in runs) and s["streams"] >= 100
          and elapsed < 5.0)
    _gate("oracle-equivalence", ok,
          f"{s['streams']} streams, {s['pairs_injective']} injective pairs, "
          f"{s['mismatches']} mismatches, {elapsed:.2f}s")


# -- 2: pinned three-node structure-encoding example --------------------


def test_02_worked_structure_encoding_example():
    tdm = TemporalDiverseMemory(20, long_width=8, short_width=4,
                                long_multiplier=1, short_multiplier=3)
    u, v, a = 0, 1, 2
    # one write of the ordered (row, value) list; the last write to a
    # slot wins
    writes = [(node, 8) for node in (u, v, a)]
    for s in range(1, 5):
        writes += [(u, s), (v, s), (a, s + 8)]
    for s in range(5, 8):
        writes += [(u, s), (a, s), (v, s + 8)]
    tdm.long.write(*np.array(writes).T)

    def long_counts(own, other, peers):
        """One 1-row window counted against its anchor and the other."""
        lng, _ = tdm.co_encode_batch([own], [other], np.array([peers]),
                                     np.ones((1, len(peers)), dtype=bool))
        return lng[0]

    pair_counts = tuple(tdm.long.count_windows(
        np.array([[u], [u], [v]]), np.array([[a], [v], [a]]))[:, 0, 0].tolist())
    fu, fv = long_counts(u, v, [u, a, a]), long_counts(v, u, [v, a, u])
    want_u = np.array([[8, 5], [4, 1], [4, 1]])
    want_v = np.array([[8, 5], [1, 4], [5, 8]])
    ok = (pair_counts == (4, 5, 1)
          and np.array_equal(fu, want_u)
          and np.array_equal(fv, want_v))
    _gate("worked-example", ok,
          f"pair counts {pair_counts}, u rows {fu.tolist()}, "
          f"v rows {fv.tolist()}")


# -- 3: analytic gradients equal finite differences ---------------------


def test_03_gradient_check_against_finite_differences():
    t0 = time.perf_counter()
    g = from_arrays([0, 1, 2, 3, 0, 2, 1, 3, 0, 1, 2, 0],
                    [1, 2, 3, 0, 2, 1, 3, 2, 3, 0, 0, 1],
                    np.arange(12.0),
                    edge_feats=np.random.default_rng(0).normal(size=(12, 2)))
    g.node_feats = np.random.default_rng(1).normal(size=(g.num_nodes, 3))
    cfg = RunConfig(seq_len=4, hidden=8, time_dim=8, out_dim=6, layers=2,
                    batch_size=200)
    split, = (build_split(g, cfg),)
    tdm = TemporalDiverseMemory.from_seed(g.num_nodes, cfg.long_size,
                                          cfg.short_size, cfg.seed)
    hist = HistoryStore(g.num_nodes)
    replay_train(g, split, tdm, hist, cfg)

    lo, hi = split.phase_range("val")
    ev = np.arange(lo, hi)
    u, v, t = g.src[ev], g.dst[ev], g.t[ev]
    squ = hist.recent_batch(u, t, cfg.seq_len)
    sqv = hist.recent_batch(v, t, cfg.seq_len)
    neg = np.roll(v, 1)
    sqn = hist.recent_batch(neg, t, cfg.seq_len)
    ft = feature_tables(g, cfg.replace(float32=False))
    feats = stack_pair_features(ft, cfg, tdm, hist,
                                [(squ, v), (sqv, u), (squ, neg), (sqn, u)])
    B = ev.size
    r = np.arange(B)
    pos = (r, B + r)
    negp = (2 * B + r, 3 * B + r)

    dims = ModelDims(node_dim=3, edge_dim=2, time_dim=cfg.time_dim,
                     hidden=cfg.hidden, out_dim=cfg.out_dim,
                     layers=cfg.layers)
    params = init_params(dims, seed=0, time_span=12.0)
    pred = LinkPredictor(dims, dropout=0.0)
    _, grads, _ = pred.loss_and_grads(params, feats, pos, negp)

    h = 1e-5
    worst_name, worst = "", 0.0
    for k in params:
        num = np.zeros_like(params[k])
        for idx in np.ndindex(params[k].shape):
            p2 = copy_params(params)
            p2[k][idx] += h
            up = pred.loss_and_grads(p2, feats, pos, negp)[0]
            p2[k][idx] -= 2 * h
            down = pred.loss_and_grads(p2, feats, pos, negp)[0]
            num[idx] = (up - down) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(grads[k])), 1e-8)
        err = float((np.abs(num - grads[k]) / denom).max())
        if err > worst:
            worst_name, worst = k, err
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _gate("gradient-check", ok,
          f"max rel err {worst:.2e} in {worst_name!r}, {elapsed:.1f}s")


# -- 4: real-data quality bar -------------------------------------------


@pytest.mark.skipif(not UCI_PATH.exists(), reason=(
    "data/uci.csv not present; run scripts/fetch_uci.py on a machine with "
    "network access and re-run this gate"))
def test_04_uci_transductive_quality():
    g = load_events(UCI_PATH, CsvLayout())
    cfg = RunConfig(epochs=10, float32=True)
    t0 = time.perf_counter()
    res = run(g, cfg, dataset="uci")
    elapsed = time.perf_counter() - t0
    ap, auc = res["test_ap"], res["test_auc"]
    ok = (ap >= 0.92 and auc >= 0.90 and ap >= 0.8620
          and len(res["epoch"]) <= 10 and elapsed < 45 * 60)
    _gate("uci-quality", ok,
          f"AP {ap:.4f}, AUC {auc:.4f}, {len(res['epoch'])} epochs, "
          f"{elapsed / 60:.1f}min")


# -- 5 and 6: trained ablation and sensitivity directions ---------------

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def ablation_runs():
    """Test AP for each (variant, seed) on the triadic-closure stream."""
    out = {}
    for seed in SEEDS:
        g = triadic_closure_stream(TriadicStreamConfig(seed=seed))
        for name, kw in ABLATION_VARIANTS.items():
            cfg = RunConfig(seed=seed, **ABLATION_BASE, **kw)
            out[name, seed] = run(g, cfg, dataset="triadic")["test_ap"]
    return out


def test_05_structure_features_carry_the_signal(ablation_runs):
    full = np.mean([ablation_runs["full", s] for s in SEEDS])
    bare = np.mean([ablation_runs["no_cne", s] for s in SEEDS])
    ok = full - bare >= 0.05
    _gate("ablation-margin", ok,
          f"mean AP full {full:.4f} vs no_cne {bare:.4f}, "
          f"margin {full - bare:+.4f} (need >= +0.05)")


def test_06_wider_long_table_scores_higher(ablation_runs):
    wide = np.mean([ablation_runs["full", s] for s in SEEDS])
    narrow = np.mean([ablation_runs["narrow", s] for s in SEEDS])
    ok = wide >= narrow
    _gate("width-sensitivity", ok,
          f"mean AP at width 64 {wide:.4f} vs width 8 {narrow:.4f}")


# -- 7: near-linear scaling of the structure-encoding path --------------


def test_07_encoding_cost_scales_linearly():
    report = run_bench(batch_size=200, num_nodes=400, num_events=10_000,
                       repeats=7, seed=0)
    r_seq = report.seq_axis.doubling_ratio
    r_wid = report.width_axis.doubling_ratio
    ok = 1.5 <= r_seq <= 2.5 and 1.5 <= r_wid <= 2.5
    _gate("linear-scaling", ok,
          f"doubling ratios: sequence {r_seq:.2f}, width {r_wid:.2f} "
          f"(accept 1.5..2.5); not gated: sequence top-3 fit "
          f"{report.seq_top_ratio:.2f}, width fixed part "
          f"{report.fixed_ns_per_position():.1f} ns/position")


# -- 8: metrics agree with an independent quadratic implementation ------


def _naive_ap(scores, labels):
    # one threshold per distinct score; tied items share it
    n_pos = sum(bool(y) for y in labels)
    total = 0.0
    for t in sorted(set(scores), reverse=True):
        at = sum(bool(y) for s, y in zip(scores, labels) if s == t)
        above = [bool(y) for s, y in zip(scores, labels) if s >= t]
        total += at / n_pos * (sum(above) / len(above))
    return total


def _naive_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_08_metrics_match_naive_to_1e12():
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        if rng.random() < 0.5:
            scores = rng.random(n)
        else:
            scores = rng.integers(0, 5, n) / 5.0    # force ties
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.any():
            worst = max(worst, abs(average_precision(scores, labels)
                                   - _naive_ap(scores, labels)))
            checked += 1
        if labels.any() and not labels.all():
            worst = max(worst, abs(auc_roc(scores, labels)
                                   - _naive_auc(scores, labels)))
    fixed = (average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
             and average_precision([0.9, 0.1], [0, 1]) == 0.5
             and auc_roc([0.9, 0.1], [0, 1]) == 0.0
             and auc_roc([0.4, 0.4], [1, 0]) == 0.5)
    ok = worst <= 1e-12 and fixed and checked >= 900
    _gate("metric-correctness", ok,
          f"{checked} score sets, worst abs diff {worst:.2e}, "
          f"fixed cases {'ok' if fixed else 'broken'}")


# -- 9: byte-identical metrics JSON for identical seeded runs -----------


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items()
                if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def test_09_seeded_runs_are_byte_identical(tmp_path):
    g = triadic_closure_stream(
        TriadicStreamConfig(num_nodes=600, community_size=200,
                            num_events=6_000, bootstrap=1_000, seed=5))
    csv = tmp_path / "stream.csv"
    lines = [f"{u},{v},{t}" for u, v, t in zip(g.src, g.dst, g.t)]
    csv.write_text("\n".join(lines) + "\n")

    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["train", "--data", str(csv), "--out", str(out),
                         "--epochs", "2", "--seq-len", "6", "--hidden", "16",
                         "--time-dim", "8", "--out-dim", "16", "--layers",
                         "1", "--float32", "--seed", "123"])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        blobs.append(json.dumps(_strip_wall_time(metrics), sort_keys=True))
    ok = blobs[0] == blobs[1]
    _gate("determinism", ok,
          f"{len(blobs[0])} canonical bytes compared, "
          f"{'identical' if ok else 'diverged'}")
