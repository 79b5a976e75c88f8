"""Replay-based equivalence checking: sketch counts vs exact sets.

Each check replays one random stream twice in lockstep, once into the
width-limited sketches and once into an unbounded-set log, using the
identical update schema and the same pre-batch windows.  At checkpoints
it compares strict-mode counts from ``HashTableMemory.count_windows``, the
counter the model reads, with exact intersection sizes for every node
pair whose written ids map injectively to slots; under injectivity no
overwrite ever fired, so the sketch must agree exactly.
Non-injective pairs are where the sketch is allowed to degrade; they are
counted and reported, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MATCH_STRICT, RunConfig
from .errors import ConfigError
from .harness import stream_batches
from .history import HistoryStore
from .memory import ExactNeighborLog, TemporalDiverseMemory
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
    """Compare strict counts with exact intersections over all node pairs.

    A pair's written ids A | B map injectively to slots iff each set does
    on its own and the two sets never hold different ids in one slot.
    When both are injective every common id fills the same slot in both,
    so that holds iff the slots occupied by both number |A & B|.
    """
    n = tdm.num_nodes
    ids = np.arange(n)
    member = np.zeros((n, n), dtype=np.int64)     # member[a, j]: j in A
    for a in range(n):
        member[a, list(log.stored(a))] = 1
    common = member @ member.T
    a_idx, b_idx = np.triu_indices(n, k=1)        # row-major: a, then b
    for name, mem in (("long", tdm.long), ("short", tdm.short)):
        # per-node slot occupancy: occ[a, s] ids of A in slot s
        onehot = np.zeros((n, mem.width), dtype=np.int64)
        onehot[ids, mem.slot_of(ids)] = 1
        occ = member @ onehot
        alone = (occ <= 1).all(axis=1)
        injective = (alone[:, None] & alone[None, :]
                     & (occ @ occ.T == common))[a_idx, b_idx]
        # counts[a, b]: node b's row counted against anchor a
        counts = mem.count_windows(ids[:, None], np.broadcast_to(ids, (n, n)),
                                   MATCH_STRICT)[..., 0]
        report.pairs_checked += a_idx.size
        report.pairs_injective += int(injective.sum())
        a, b = a_idx[injective], b_idx[injective]
        got, want = counts[a, b], common[a, b]
        for k in np.flatnonzero(got != want):
            report.mismatches.append((name, int(a[k]), int(b[k]),
                                      int(got[k]), int(want[k])))


def check_stream(num_nodes: int, num_events: int, long_width: int,
                 short_width: int, seq_len: int, seed: int,
                 two_order: bool = True, neighbor_update: bool = True,
                 checkpoints: int = 2) -> StreamReport:
    """Replay one stream and audit all node pairs at a few checkpoints."""
    cfg = RunConfig(seq_len=seq_len, no_tup=not two_order,
                    no_nup=not neighbor_update).validate()
    g = random_stream(num_nodes, num_events, seed=seed)
    hist = HistoryStore(g.num_nodes)
    tdm = TemporalDiverseMemory.from_seed(g.num_nodes, long_width,
                                          short_width, seed)
    log = ExactNeighborLog(g.num_nodes)
    report = StreamReport(seed, g.num_nodes, g.num_events,
                          long_width, short_width)
    E = g.num_events
    stops = np.unique(np.linspace(0, E - 1, checkpoints + 1)[1:].astype(int))
    # replay in batches as the harness does, cutting one after each stop;
    # a stop is audited once its batch is written, when the next arrives
    cuts = np.union1d(np.r_[np.arange(0, E, cfg.batch_size), E], stops + 1)
    batches = np.split(np.arange(E), cuts[1:-1])
    for ev, squ, sqv in stream_batches(g, batches, tdm, hist, cfg):
        if ev[0] - 1 in stops:
            _audit_pairs(tdm, log, report)
        log.apply_link_update(g.src[ev], g.dst[ev], squ, sqv, two_order,
                              neighbor_update)
    _audit_pairs(tdm, log, report)     # the last stop is the last event
    return report


def run_suite(streams: int = 100, max_nodes: int = 30, max_events: int = 500,
              seq_len: int = 4, seed: int = 0) -> list[StreamReport]:
    """Randomized equivalence suite over many small streams.

    Widths are drawn from a mix that includes values small enough to force
    collisions (exercising the injectivity filter) and values large enough
    to stay collision-free for every id.
    """
    if streams < 1 or max_nodes < 5 or max_events < 20 or seed < 0:
        raise ConfigError("the suite needs streams >= 1, max_nodes >= 5, "
                          "max_events >= 20 and seed >= 0")
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
