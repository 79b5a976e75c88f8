"""Replay-based equivalence checking: sketch counts vs exact sets.

Each check replays one random stream twice in lockstep, once into the
width-limited sketches and once into an unbounded-set log, using the
identical update schema and the same pre-batch windows.  At checkpoints
it compares strict-mode slot counts with exact intersection sizes for
every node pair whose inserted ids map injectively to slots; under
injectivity no overwrite ever fired, so the sketch must agree exactly.
Non-injective pairs are where the sketch is allowed to degrade; they are
counted and reported, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MATCH_STRICT, RunConfig
from .history import HistoryStore
from .memory import ExactNeighborLog, TemporalDiverseMemory, slot_injective
from .synthetic import random_stream


@dataclass
class StreamReport:
    seed: int
    num_nodes: int
    num_events: int
    long_width: int
    short_width: int
    pairs_checked: int = 0
    pairs_injective: int = 0
    mismatches: list = field(default_factory=list)   # (table, a, b, got, want)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _audit_pairs(tdm: TemporalDiverseMemory, log: ExactNeighborLog,
                 report: StreamReport) -> None:
    n = tdm.num_nodes
    for name, mem in (("long", tdm.long), ("short", tdm.short)):
        # strict counts for all pairs at once: (n,1,M) vs (1,n,M)
        t = mem.table[:n]
        eq = (t[:, None, :] == t[None, :, :]) & (t[:, None, :] != mem.sentinel)
        counts = eq.sum(axis=2)
        for a in range(n):
            for b in range(a + 1, n):
                union = log.stored(a) | log.stored(b)
                report.pairs_checked += 1
                if not slot_injective(mem, union):
                    continue
                report.pairs_injective += 1
                got, want = int(counts[a, b]), log.common(a, b)
                if got != want:
                    report.mismatches.append((name, a, b, got, want))


def check_stream(num_nodes: int, num_events: int, long_width: int,
                 short_width: int, seq_len: int, seed: int,
                 two_order: bool = True, neighbor_update: bool = True,
                 checkpoints: int = 2) -> StreamReport:
    """Replay one stream and audit all node pairs at a few checkpoints."""
    g = random_stream(num_nodes, num_events, seed=seed)
    hist = HistoryStore(g.num_nodes)
    tdm = TemporalDiverseMemory.from_seed(g.num_nodes, long_width,
                                          short_width, seed)
    log = ExactNeighborLog(g.num_nodes)
    report = StreamReport(seed, g.num_nodes, g.num_events,
                          long_width, short_width)
    E = g.num_events
    stops = np.unique(np.linspace(0, E - 1, checkpoints + 1)[1:].astype(int))
    # replay in batches as the harness does, cutting one after each audit
    cuts = np.union1d(np.r_[np.arange(0, E, RunConfig().batch_size), E],
                      stops + 1)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ev = np.arange(lo, hi)
        u, v, t = g.src[ev], g.dst[ev], g.t[ev]
        squ = hist.recent_batch(u, t, seq_len)
        sqv = hist.recent_batch(v, t, seq_len)
        tdm.apply_link_update(u, v, squ, sqv, two_order=two_order,
                              neighbor_update=neighbor_update)
        for j in range(ev.size):
            log.apply_link_update(int(u[j]), int(v[j]), squ.row(j),
                                  sqv.row(j), two_order=two_order,
                                  neighbor_update=neighbor_update)
        hist.record_batch(u, v, t, ev)
        if hi - 1 in stops:
            _audit_pairs(tdm, log, report)
    return report


def run_suite(streams: int = 100, max_nodes: int = 30, max_events: int = 500,
              seq_len: int = 4, seed: int = 0) -> list[StreamReport]:
    """Randomized equivalence suite over many small streams.

    Widths are drawn from a mix that includes values small enough to force
    collisions (exercising the injectivity filter) and values large enough
    to stay collision-free for every id.
    """
    rng = np.random.default_rng([seed, 0x0AC])
    widths = (16, 32, 64, 512)
    reports = []
    for s in range(streams):
        n = int(rng.integers(5, max_nodes + 1))
        e = int(rng.integers(20, max_events + 1))
        w = int(widths[rng.integers(len(widths))])
        reports.append(check_stream(n, e, long_width=w,
                                    short_width=max(2, w // 4),
                                    seq_len=seq_len,
                                    seed=int(rng.integers(1 << 31))))
    return reports


def summarize(reports: list[StreamReport]) -> dict:
    total_pairs = sum(r.pairs_checked for r in reports)
    injective = sum(r.pairs_injective for r in reports)
    mismatches = [(r.seed, m) for r in reports for m in r.mismatches]
    return {
        "streams": len(reports),
        "pairs_checked": total_pairs,
        "pairs_injective": injective,
        "pairs_collision_skipped": total_pairs - injective,
        "mismatches": len(mismatches),
        "first_mismatches": [
            {"stream_seed": s, "table": m[0], "a": m[1], "b": m[2],
             "got": m[3], "want": m[4]} for s, m in mismatches[:5]],
    }
