"""Training and evaluation loops for streaming link prediction.

The discipline is predict-then-update: within a batch every score is
computed against memory and history state from before the batch, then the
batch's positive events are written back in stream order.  One driver,
``stream_batches``, does this for training, evaluation, replay and the
oracle.  Epochs reset the state and replay the stream from the start.
Because the state only depends on the event stream (never on model
parameters), the post-val state is identical in every epoch, which lets
``run`` score test with the best parameters straight from the last
epoch's validation pass.

Evaluation advances the state through val and test events (stale
neighborhoods would otherwise degrade test scores), so a phase is scored
against the state its predecessors left; calling it twice is not a repeat.

Evaluation scores a batch as one job while the calling thread writes it
back and builds the next (``parallel.overlapped``).  Every table and
history access and every draw stays on the calling thread; a job reads
only its own fresh features, the parameters and the scoring weights,
none of which a phase writes, so it cannot change a score.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .config import INDUCTIVE, RunConfig
from .data import (TEST, VAL, SplitSpec, TemporalGraph,
                   chronological_split, destination_pool, sample_negative,
                   scored_event_mask, select_inductive_nodes,
                   train_event_indices, with_inductive)
from .errors import ConfigError, NumericalError, UndefinedMetricError
from .history import HistoryStore, NeighborSequenceBatch
from .memory import TemporalDiverseMemory
from .metrics import auc_roc, average_precision
from .model import (LinkPredictor, ModelDims, SequenceFeatures, adam_init,
                    adam_step, copy_params, init_params, save_params)
from .parallel import overlapped


@dataclass
class Metrics:
    ap: float
    auc: float


@dataclass
class FeatureTables:
    """Gather tables with a trailing zero row for padding lookups."""

    node_ext: np.ndarray   # (N+1, d_N)
    edge_ext: np.ndarray   # (E+1, d_E)
    dtype: np.dtype


def feature_tables(g: TemporalGraph, cfg: RunConfig) -> FeatureTables:
    dtype = np.dtype(np.float32 if cfg.float32 else np.float64)
    node_ext = np.zeros((g.num_nodes + 1, g.node_dim), dtype=dtype)
    node_ext[:-1] = g.node_feats
    edge_ext = np.zeros((g.num_events + 1, g.edge_dim), dtype=dtype)
    edge_ext[:-1] = g.edge_feats
    return FeatureTables(node_ext, edge_ext, dtype)


def _take(seq: NeighborSequenceBatch, idx) -> NeighborSequenceBatch:
    return NeighborSequenceBatch(seq.anchors[idx], seq.t[idx],
                                 seq.peers[idx], seq.entries[idx],
                                 seq.valid[idx])


def stack_pair_features(ft: FeatureTables, cfg: RunConfig,
                        tdm: TemporalDiverseMemory, hist: HistoryStore,
                        sides: list[tuple[NeighborSequenceBatch, np.ndarray]],
                        ) -> SequenceFeatures:
    """Build encoder inputs for a list of (sequence, other-anchor) sides.

    Structure counts are pair-specific: each side is counted against its
    own anchor and against the partner it is being scored with, one
    partner per window row.  Sides that name the same window object share
    one gather of its peer rows and one count against its own anchors, per
    table, and one gather of its times and edges from hist, which must
    not have been reset since the windows were taken.  Counts are scaled
    by the table width so inputs live in [0, 1].  The ablation switches
    zero-fill the corresponding blocks and leave every other input
    byte-identical.
    """
    # distinct windows in order of first use, the partners of each, and
    # per side (window, its partners' column in the window's counts)
    wins, parts, use = [], [], []
    for seq, other in sides:
        w = next((i for i, s in enumerate(wins) if s is seq), None)
        if w is None:
            w = len(wins)
            wins.append(seq)
            parts.append([])
        parts[w].append(np.asarray(other, dtype=np.int64))
        use.append((w, len(parts[w])))

    def stack(arrays):
        return np.concatenate([arrays[w] for w, _ in use])

    dt, eidx = zip(*(hist.deltas_and_edges(seq) for seq in wins))
    peers = stack([seq.peers for seq in wins])
    K, l = peers.shape
    co_long = np.zeros((K, l, 2), dtype=ft.dtype)
    co_short = np.zeros((K, l, 2), dtype=ft.dtype)
    if not cfg.no_cne:
        out = [(co_long, tdm.long)]
        if not cfg.no_td:
            out.append((co_short, tdm.short))
        counts = []
        for seq, p in zip(wins, parts):
            c = tdm.co_encode_batch(seq.anchors, np.column_stack(p),
                                    seq.peers, seq.valid, cfg.matching,
                                    short=not cfg.no_td)
            counts.append([(x / mem.width).astype(ft.dtype)
                           for x, (_, mem) in zip(c, out)])
        r = 0
        for w, j in use:
            n = len(wins[w])
            for (co, _), c in zip(out, counts[w]):
                co[r:r + n, :, 0] = c[..., 0]
                co[r:r + n, :, 1] = c[..., j]
            r += n
    eidx = stack(eidx)
    edge_rows = np.where(eidx < 0, ft.edge_ext.shape[0] - 1, eidx)
    return SequenceFeatures(dt=stack(dt).astype(ft.dtype),
                            node=ft.node_ext[peers],
                            edge=ft.edge_ext[edge_rows],
                            co_long=co_long, co_short=co_short)


def endpoint_windows(hist: HistoryStore, u: np.ndarray, v: np.ndarray,
                     t: np.ndarray, length: int):
    """(squ, sqv): both endpoints' windows at t, from one history walk."""
    sq = hist.recent_batch(np.concatenate([u, v]), np.concatenate([t, t]),
                           length)
    B = len(u)
    return _take(sq, slice(None, B)), _take(sq, slice(B, None))


def stream_batches(g: TemporalGraph, batches, tdm: TemporalDiverseMemory,
                   hist: HistoryStore, cfg: RunConfig):
    """Predict-then-update over a stream cut into batches of event indices.

    Yields (ev, squ, sqv): the batch and its endpoints' windows, taken
    before the batch.  When the consumer asks for the next batch, this one
    is written to the tables and the history; a consumer that stops early
    leaves its last batch unwritten.  Every stream loop runs through here.
    """
    for ev in batches:
        u, v, t = g.src[ev], g.dst[ev], g.t[ev]
        squ, sqv = endpoint_windows(hist, u, v, t, cfg.seq_len)
        yield ev, squ, sqv
        tdm.apply_link_update(u, v, squ, sqv, two_order=not cfg.no_tup,
                              neighbor_update=not cfg.no_nup,
                              update_short=not cfg.no_td)
        hist.record_batch(u, v, t, ev)


def _cut(idx: np.ndarray, size: int) -> list[np.ndarray]:
    return [idx[lo:lo + size] for lo in range(0, idx.size, size)]


def _pair_features(g: TemporalGraph, ev: np.ndarray,
                   squ: NeighborSequenceBatch, sqv: NeighborSequenceBatch,
                   tdm: TemporalDiverseMemory, hist: HistoryStore,
                   cfg: RunConfig, ft: FeatureTables, pool: np.ndarray,
                   rng: np.random.Generator):
    """Encoder inputs for B positive pairs and one negative each.

    Draws the negatives, then their windows.  The four sides are (u, v),
    (v, u), (u, negative) and (negative, u); u's window serves the first
    and the third.  Returns the feature stack and the (left, right) row
    indices of the positive and negative pairs.
    """
    u, v, t = g.src[ev], g.dst[ev], g.t[ev]
    B = ev.size
    neg = sample_negative(B, pool, rng)
    sqn = hist.recent_batch(neg, t, cfg.seq_len)
    sides = [(squ, v), (sqv, u), (squ, neg), (sqn, u)]
    r = np.arange(B)
    return (stack_pair_features(ft, cfg, tdm, hist, sides), (r, B + r),
            (2 * B + r, 3 * B + r))


def _metrics(phase: str, scored: list) -> Metrics:
    """AP/AUC over the batches' (pos, neg) scores, in batch order."""
    if not scored:
        raise UndefinedMetricError(f"no scored events in phase {phase!r}")
    s = np.concatenate([x for pair in scored for x in pair])
    y = np.concatenate([np.r_[np.ones(pp.size, dtype=bool),
                              np.zeros(pn.size, dtype=bool)]
                        for pp, pn in scored])
    return Metrics(ap=average_precision(s, y), auc=auc_roc(s, y))


def train_epoch(g: TemporalGraph, split: SplitSpec,
                tdm: TemporalDiverseMemory, hist: HistoryStore,
                predictor: LinkPredictor, params, adam, cfg: RunConfig,
                epoch: int, ft: FeatureTables,
                train_pool: np.ndarray) -> float:
    """One pass over the train stream; returns the mean loss per positive
    event.  Caller resets state beforehand."""
    rng_neg = np.random.default_rng([cfg.seed, 0x4E6, epoch])
    rng_drop = np.random.default_rng([cfg.seed, 0xD80, epoch])
    idx = train_event_indices(g, split)
    if not idx.size:
        raise UndefinedMetricError("no scored events in phase 'train'")
    loss_sum = 0.0
    for ev, squ, sqv in stream_batches(g, _cut(idx, cfg.batch_size), tdm,
                                       hist, cfg):
        feats, pos, neg = _pair_features(g, ev, squ, sqv, tdm, hist, cfg, ft,
                                         train_pool, rng_neg)
        loss, grads, _ = predictor.loss_and_grads(
            params, feats, pos, neg, training=True, rng=rng_drop)
        adam_step(params, grads, adam, lr=cfg.lr)
        loss_sum += loss * ev.size
    return loss_sum / idx.size


def evaluate(g: TemporalGraph, split: SplitSpec,
             tdm: TemporalDiverseMemory, hist: HistoryStore,
             predictor: LinkPredictor, params, cfg: RunConfig, phase: str,
             ft: FeatureTables, eval_pool: np.ndarray) -> Metrics:
    """Score one phase without touching parameters.

    The state advances through every phase event, so the next phase is
    scored against it.  In inductive mode only events touching a masked
    node are scored, but all events advance the state.  A batch is scored
    while the next is built (see the module docstring).
    """
    lo, hi = split.phase_range(phase)
    mask = scored_event_mask(g, split, phase)
    rng_neg = np.random.default_rng([cfg.seed, 0xEA7, lo])
    batches = _cut(np.arange(lo, hi), cfg.batch_size)
    weights = predictor.scoring_weights(params)

    def inputs():
        for ev, squ, sqv in stream_batches(g, batches, tdm, hist, cfg):
            m = np.flatnonzero(mask[ev - lo])
            if m.size:
                yield _pair_features(g, ev[m], _take(squ, m), _take(sqv, m),
                                     tdm, hist, cfg, ft, eval_pool, rng_neg)

    def score(feats, pos, neg):
        H = predictor.encode(params, feats, weights=weights)
        return (predictor.score(params, H[pos[0]], H[pos[1]]),
                predictor.score(params, H[neg[0]], H[neg[1]]))

    return _metrics(phase, overlapped(score, inputs()))


def build_split(g: TemporalGraph, cfg: RunConfig) -> SplitSpec:
    split = chronological_split(g, cfg.train_frac, cfg.val_frac)
    if cfg.mode == INDUCTIVE:
        nodes = select_inductive_nodes(g, split, cfg.inductive_fraction, cfg.seed)
        split = with_inductive(split, nodes)
    return split


def _stream_setup(g: TemporalGraph, cfg: RunConfig):
    """Validate cfg; build the split, empty state, feature tables, eval pool.

    Everything here is a function of (g, cfg) alone, so training and a
    later checkpoint evaluation replay the stream against the same state.
    The history has room for every event's two entries from the start, so
    no replay grows it.
    """
    cfg.validate()
    split = build_split(g, cfg)
    tdm = TemporalDiverseMemory.from_seed(g.num_nodes, cfg.long_size,
                                          cfg.short_size, cfg.seed)
    hist = HistoryStore(g.num_nodes, capacity=1 + 2 * g.num_events)
    return split, tdm, hist, feature_tables(g, cfg), destination_pool(g)


def model_dims(g: TemporalGraph, cfg: RunConfig) -> ModelDims:
    """The encoder's shape: the stream's feature widths and cfg's sizes."""
    return ModelDims(node_dim=g.node_dim, edge_dim=g.edge_dim,
                     time_dim=cfg.time_dim, hidden=cfg.hidden,
                     out_dim=cfg.out_dim, layers=cfg.layers)


def run(g: TemporalGraph, cfg: RunConfig, dataset: str = "stream",
        checkpoint_path=None) -> dict:
    """Full train/validate/test cycle with early stopping on validation AP."""
    t0 = time.perf_counter()
    split, tdm, hist, ft, eval_pool = _stream_setup(g, cfg)
    dims = model_dims(g, cfg)
    span = float(g.t[-1] - g.t[0])
    params = init_params(dims, cfg.seed, time_span=span, dtype=ft.dtype)
    predictor = LinkPredictor(dims, cfg.dropout)
    adam = adam_init(params)
    train_pool = destination_pool_for_training(g, split)

    epochs, train_loss, val_ap, val_auc = [], [], [], []
    best_ap, best_epoch, best_params, bad = -np.inf, -1, None, 0
    for epoch in range(cfg.epochs):
        tdm.reset()
        hist.reset()
        train_loss.append(train_epoch(g, split, tdm, hist, predictor,
                                      params, adam, cfg, epoch, ft,
                                      train_pool))
        # validation advances the state: the next epoch resets it, and after
        # the last epoch the test phase starts from it
        vm = evaluate(g, split, tdm, hist, predictor, params, cfg, VAL,
                      ft, eval_pool)
        epochs.append(epoch)
        val_ap.append(vm.ap)
        val_auc.append(vm.auc)
        if vm.ap > best_ap:
            best_ap, best_epoch, bad = vm.ap, epoch, 0
            best_params = copy_params(params)
        else:
            bad += 1
            if bad >= cfg.patience:
                break

    final = best_params if best_params is not None else params
    if checkpoint_path is not None:
        save_params(checkpoint_path, final, dims, cfg.to_dict(),
                    g.fingerprint())
    # state is the post-val replay of the last epoch; replays are
    # parameter-independent, so it matches the best epoch's state exactly
    tm = evaluate(g, split, tdm, hist, predictor, final, cfg, TEST,
                  ft, eval_pool)
    return {
        "dataset": dataset,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "epoch": epochs,
        "train_loss": train_loss,
        "val_ap": val_ap,
        "val_auc": val_auc,
        "best_epoch": best_epoch,
        "test_ap": tm.ap,
        "test_auc": tm.auc,
        "wall_time": time.perf_counter() - t0,
    }


def destination_pool_for_training(g: TemporalGraph, split: SplitSpec) -> np.ndarray:
    """Destinations observed in the (filtered) train stream."""
    idx = train_event_indices(g, split)
    pool = np.unique(g.dst[idx])
    return pool if pool.size else destination_pool(g)


def replay_train(g: TemporalGraph, split: SplitSpec,
                 tdm: TemporalDiverseMemory, hist: HistoryStore,
                 cfg: RunConfig) -> None:
    """Advance memory and history through the train stream, no model."""
    batches = _cut(train_event_indices(g, split), cfg.batch_size)
    for _ in stream_batches(g, batches, tdm, hist, cfg):
        pass


def evaluate_checkpoint(g: TemporalGraph, cfg: RunConfig, params,
                        dims: ModelDims, dataset: str = "stream") -> dict:
    """Replay the train stream for state, then score val and test."""
    t0 = time.perf_counter()
    split, tdm, hist, ft, eval_pool = _stream_setup(g, cfg)
    predictor = LinkPredictor(dims, cfg.dropout)
    replay_train(g, split, tdm, hist, cfg)
    vm = evaluate(g, split, tdm, hist, predictor, params, cfg, VAL,
                  ft, eval_pool)
    tm = evaluate(g, split, tdm, hist, predictor, params, cfg, TEST,
                  ft, eval_pool)
    return {
        "dataset": dataset,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "val_ap": vm.ap,
        "val_auc": vm.auc,
        "test_ap": tm.ap,
        "test_auc": tm.auc,
        "wall_time": time.perf_counter() - t0,
    }


HASHTABLE_AXIS = "hashtable_size"
SEQUENCE_AXIS = "sequence_length"


def run_sweep(g: TemporalGraph, cfg: RunConfig, axis: str, values,
              dataset: str = "stream") -> list[dict]:
    """One full run per value; the short table tracks the long one at 1/4."""
    if not len(values):
        raise ConfigError("sweep needs at least one value")
    rows = []
    for v in values:
        v = int(v)
        if axis == HASHTABLE_AXIS:
            c = cfg.replace(long_size=v, short_size=max(1, v // 4))
        elif axis == SEQUENCE_AXIS:
            c = cfg.replace(seq_len=v)
        else:
            raise ConfigError(f"unknown sweep axis {axis!r}")
        res = run(g, c, dataset=dataset)
        rows.append({"axis": axis, "value": v, "test_ap": res["test_ap"],
                     "test_auc": res["test_auc"],
                     "best_epoch": res["best_epoch"],
                     "wall_time": res["wall_time"]})
    return rows


def write_json(path, obj) -> None:
    """Write obj as JSON; a NaN or infinity raises NumericalError instead."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericalError(f"{path} not written: {e}") from e
    with open(path, "w") as fh:
        fh.write(text + "\n")
