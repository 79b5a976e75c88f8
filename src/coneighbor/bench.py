"""Per-batch structure-encoding timing against sequence length and width.

The claim under test is that building the structure features for a batch
costs time linear in the sequence length and linear in the table width:
per sample, O(l_s) for window extraction plus O(l_s * M) for the slot-wise
comparisons.  Each axis fits a straight line over a doubling grid of the
swept parameter and reports the fitted time ratio between the top value
and half of it.  A ratio near 2 means linear; ratios far above 2 would
indicate superlinear behavior.  A point's time is its best repeat; each
repeat round times every point once, so host drift hits them alike.

The sequence axis times extraction plus co-encoding for a fixed batch of
pairs, since both grow with l_s.  The width axis times the co-neighbor
count (``co_encode_batch``) alone, on windows extracted once outside the
timer: extraction does not depend on M, so timing it there would only add
a fixed offset that pulls the ratio towards 1 as the count gets faster.
Its line is fitted to the three largest widths, so a count quadratic in M
reads well above 2 (a fit over the whole grid would flatten it to 2.39).

Two diagnostics are reported next to the gated ratios and gate nothing:
the sequence axis fitted over its three largest lengths only, where a cost
superlinear in l_s would show first, and the width axis's time per counted
window position at every width, with the fitted line's fixed part per
position, which pulls the width ratio towards 1 as the count gets faster.

Dense-layer work is excluded on both axes: it does not depend on M at all,
so including it would only blur the quantity the claim is about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .data import SplitSpec
from .harness import (endpoint_windows, feature_tables, replay_train,
                       stack_pair_features)
from .history import HistoryStore
from .memory import TemporalDiverseMemory
from .synthetic import random_stream

DEFAULT_SEQ_LENS = (4, 10, 20, 32, 64, 100)
DEFAULT_WIDTHS = (16, 32, 64, 128, 256)
WIDTH_FIT_POINTS = 3    # the width axis fits its largest widths only
SEQ_TOP_FIT_POINTS = 3  # the reported, ungated fit of the largest lengths
WIDTH_SEQ_LEN = 20      # window length on the width axis


@dataclass
class AxisResult:
    axis: str
    values: list[int]
    seconds: list[float]
    slope: float
    intercept: float
    doubling_ratio: float


@dataclass
class BenchReport:
    seq_axis: AxisResult
    width_axis: AxisResult
    # the sequence axis fitted over its SEQ_TOP_FIT_POINTS largest lengths
    seq_top_ratio: float
    # window positions one timed width-axis call counts
    width_positions: int
    notes: list[str] = field(default_factory=list)

    def ns_per_position(self) -> list[float]:
        return [s / self.width_positions * 1e9 for s in self.width_axis.seconds]

    def fixed_ns_per_position(self) -> float:
        """The width line's intercept, per counted position."""
        return self.width_axis.intercept / self.width_positions * 1e9

    def to_dict(self) -> dict:
        return {
            "sequence_length": {
                "values": self.seq_axis.values,
                "seconds": self.seq_axis.seconds,
                "doubling_ratio": self.seq_axis.doubling_ratio,
                "top_fit_doubling_ratio": self.seq_top_ratio,
            },
            "hashtable_size": {
                "values": self.width_axis.values,
                "seconds": self.width_axis.seconds,
                "doubling_ratio": self.width_axis.doubling_ratio,
                "positions": self.width_positions,
                "ns_per_position": self.ns_per_position(),
                "fixed_ns_per_position": self.fixed_ns_per_position(),
            },
            "notes": self.notes,
        }


def _fit_axis(axis: str, values, seconds, top: int | None = None) -> AxisResult:
    """Fit a line to the timings, or to the ``top`` largest values only."""
    x = np.asarray(values, dtype=np.float64)
    y = np.asarray(seconds, dtype=np.float64)
    keep = np.argsort(x)[-top:] if top else slice(None)
    slope, intercept = np.polyfit(x[keep], y[keep], 1)
    hi = float(x.max())
    f = np.polyval([slope, intercept], [hi, hi / 2.0])
    if f[1] <= 0:
        raise ConfigError("degenerate fit; increase repeats or sizes")
    return AxisResult(axis, [int(v) for v in values],
                      [float(s) for s in seconds],
                      float(slope), float(intercept), float(f[0] / f[1]))


def _prepare(num_nodes: int, num_events: int, cfg: RunConfig, seed: int):
    """Replay a random stream so history and memory hold realistic state."""
    g = random_stream(num_nodes, num_events, seed=seed)
    hist = HistoryStore(g.num_nodes)
    tdm = TemporalDiverseMemory.from_seed(g.num_nodes, cfg.long_size,
                                          cfg.short_size, seed)
    whole = SplitSpec(g.num_events, g.num_events, g.num_events)
    replay_train(g, whole, tdm, hist, cfg)
    return g, hist, tdm


def _best_of(repeats: int, steps) -> list[float]:
    """Best-of-repeats wall time of every step, each round in order."""
    best = [np.inf] * len(steps)
    for _ in range(repeats):
        for i, step in enumerate(steps):
            t0 = time.perf_counter()
            step()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _pairs(g, batch: np.ndarray):
    """(u, v, query times) for the batch, queried after the whole stream."""
    return (g.src[batch], g.dst[batch],
            np.full(batch.shape[0], float(g.t[-1]) + 1.0))


def _encoding_step(g, hist, tdm, cfg: RunConfig, batch: np.ndarray):
    """A call of sequence extraction + co-encoding."""
    ft = feature_tables(g, cfg)
    u, v, query_t = _pairs(g, batch)

    def step():
        squ, sqv = endpoint_windows(hist, u, v, query_t, cfg.seq_len)
        stack_pair_features(ft, cfg, tdm, hist, [(squ, v), (sqv, u)])
    return step


def _count_step(g, hist, tdm, cfg: RunConfig, batch: np.ndarray):
    """A call of co_encode_batch alone, on both endpoints' windows
    extracted once, outside the timer."""
    u, v, query_t = _pairs(g, batch)
    sides = list(zip(endpoint_windows(hist, u, v, query_t, cfg.seq_len),
                     (v, u)))

    def step():
        for seq, other in sides:
            tdm.co_encode_batch(seq.anchors, other, seq.peers, seq.valid,
                                cfg.matching)
    return step


def run_bench(batch_size: int = 200, num_nodes: int = 400,
              num_events: int = 10_000, seq_lens=DEFAULT_SEQ_LENS,
              widths=DEFAULT_WIDTHS, repeats: int = 7,
              seed: int = 0) -> BenchReport:
    """Measure both axes and fit the scaling lines."""
    if min(batch_size, repeats) < 1 or num_nodes < 2 or seed < 0:
        raise ConfigError("bench needs batch_size >= 1, repeats >= 1, "
                          "num_nodes >= 2 and seed >= 0")
    rng = np.random.default_rng([seed, 0xBEC])
    base = RunConfig()

    # sequence-length axis: fixed width, growing window
    g, hist, tdm = _prepare(num_nodes, num_events,
                            base.replace(seq_len=int(max(seq_lens))), seed)
    batch = rng.integers(0, g.num_events, size=batch_size)
    seq_secs = _best_of(repeats, [
        _encoding_step(g, hist, tdm, base.replace(seq_len=int(L)), batch)
        for L in seq_lens])
    seq_axis = _fit_axis("sequence_length", seq_lens, seq_secs)
    seq_top = _fit_axis("sequence_length", seq_lens, seq_secs,
                        top=SEQ_TOP_FIT_POINTS)

    # width axis: fixed window, growing long table (short follows at 1/4)
    steps = []
    for M in widths:
        M = int(M)
        cfg = base.replace(seq_len=WIDTH_SEQ_LEN, long_size=M,
                           short_size=max(1, M // 4))
        steps.append(_count_step(*_prepare(num_nodes, num_events, cfg, seed),
                                 cfg, batch))
    width_secs = _best_of(repeats, steps)
    width_axis = _fit_axis("hashtable_size", widths, width_secs,
                           top=WIDTH_FIT_POINTS)

    notes = [
        "sequence_length axis times recent_batch extraction + co-encode "
        "feature stacking",
        "hashtable_size axis times co_encode_batch alone, on windows "
        "extracted once outside the timer, and fits its "
        f"{WIDTH_FIT_POINTS} largest widths",
        f"batch_size={batch_size} pairs, best of {repeats} repeat rounds",
        f"sequence_length top_fit_doubling_ratio fits its "
        f"{SEQ_TOP_FIT_POINTS} largest lengths and is not gated",
    ]
    # both endpoints' windows of every pair
    return BenchReport(seq_axis, width_axis, seq_top.doubling_ratio,
                       2 * batch_size * WIDTH_SEQ_LEN, notes)


def _ratio_line(ax: AxisResult) -> str:
    return (f"  fitted doubling ratio at top of range: "
            f"{ax.doubling_ratio:.2f} (linear scaling -> ~2)")


def format_report(report: BenchReport) -> str:
    seq, wid = report.seq_axis, report.width_axis
    lines = [f"axis {seq.axis}:"]
    lines += [f"  {v:>6d}  {s * 1e3:9.3f} ms"
              for v, s in zip(seq.values, seq.seconds)]
    lines.append(_ratio_line(seq))
    lines.append(f"  fit of the {SEQ_TOP_FIT_POINTS} largest lengths "
                 f"(not gated): {report.seq_top_ratio:.2f}")
    lines.append(f"axis {wid.axis}:")
    lines += [f"  {v:>6d}  {s * 1e3:9.3f} ms  {ns:8.1f} ns/position"
              for v, s, ns in zip(wid.values, wid.seconds,
                                  report.ns_per_position())]
    lines.append(_ratio_line(wid))
    lines.append(f"  fitted fixed part: {wid.intercept * 1e3:.3f} ms "
                 f"({report.fixed_ns_per_position():.1f} ns/position over "
                 f"{report.width_positions} positions)")
    lines.append("claimed per-sample cost: O(l_s) extraction + "
                 "O(l_s*M) co-neighbor encoding")
    return "\n".join(lines)
