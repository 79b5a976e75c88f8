"""Reference results the benchmark checks the program against.

Nothing here imports the program.  The reference rebuilds, from the raw
event arrays alone, what the predict-then-update stream loop must produce:

* causal windows: an anchor's window at a query holds its partners from
  events in earlier batches and strictly earlier time, newest first,
  behind the anchor itself;
* table state: every link writes a fixed list of (row, value) pairs in
  rule order (each endpoint learns the other, each endpoint learns the
  other's past partners, those partners learn the new endpoint), value v
  lands in slot (q * v) mod M and the last write to a slot wins.  The
  writes depend only on windows, never on table contents, so the state
  after any prefix of the stream is the last write per slot over it;
* scores for sampled batches, through an independent float64 forward
  pass of the encoder;
* average precision with one threshold per distinct score.
"""

from __future__ import annotations

import hashlib

import numpy as np

WRITE_CHUNK = 8192   # events per write chunk; bounds the reference's memory


def batch_starts(num_events: int, bounds, batch_size: int) -> np.ndarray:
    """Index of the first event of the batch holding each event.

    ``bounds`` are the phase starts plus the end; every phase restarts
    its batching at its own first event.
    """
    out = np.empty(num_events, dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        i = np.arange(lo, hi)
        out[lo:hi] = lo + (i - lo) // batch_size * batch_size
    return out


def hash_multipliers(seed: int) -> tuple[int, int]:
    """The long and short tables' odd multipliers drawn for the seed."""
    rng = np.random.default_rng([seed, 0x4A5])
    q_long = int(rng.integers(0, 1 << 20)) * 2 + 1
    q_short = q_long
    while q_short == q_long:
        q_short = int(rng.integers(0, 1 << 20)) * 2 + 1
    return q_long, q_short


class Windows:
    """Causal windows of every node, as the batched stream loop sees them."""

    def __init__(self, src, dst, t, bstart, num_nodes: int, length: int):
        E = src.shape[0]
        node = np.stack([src, dst], axis=1).ravel()   # log order: u then v
        order = np.argsort(node, kind="stable")
        self.node = node[order]
        self.peer = np.stack([dst, src], axis=1).ravel()[order]
        self.event = np.repeat(np.arange(E), 2)[order]
        self.t = t
        self.bstart = bstart
        self.sentinel = num_nodes
        self.length = length
        _, self.trank = np.unique(t, return_inverse=True)
        self.nt = int(self.trank.max()) + 1
        # a node's log is ordered by event, so its batch starts and time
        # ranks are non-decreasing: "recorded before the batch" and
        # "strictly earlier" both select a prefix of it
        self.key_b = self.node * (E + 1) + bstart[self.event]
        self.key_t = self.node * self.nt + self.trank[self.event]

    def query(self, anchors, events):
        """Windows of ``anchors`` at the time and batch of ``events``.

        Returns (peers, dt, valid), each (Q, length).
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        events = np.asarray(events, dtype=np.int64)
        E = self.t.shape[0]
        first = np.searchsorted(self.node, anchors, side="left")
        end = np.minimum(
            np.searchsorted(self.key_b, anchors * (E + 1) + self.bstart[events]),
            np.searchsorted(self.key_t, anchors * self.nt + self.trank[events]))
        k = np.minimum(self.length - 1, end - first)
        back = np.arange(self.length - 1)
        valid = back[None, :] < k[:, None]
        pos = np.where(valid, end[:, None] - 1 - back[None, :], 0)
        Q = anchors.shape[0]
        peers = np.full((Q, self.length), self.sentinel, dtype=np.int64)
        dt = np.zeros((Q, self.length), dtype=np.float64)
        ok = np.ones((Q, self.length), dtype=bool)
        peers[:, 0] = anchors
        peers[:, 1:] = np.where(valid, self.peer[pos], self.sentinel)
        dt[:, 1:] = np.where(valid, self.t[events][:, None]
                             - self.t[self.event[pos]], 0.0)
        ok[:, 1:] = valid
        return peers, dt, ok


class Tables:
    """Long and short slot tables advanced by last-write-wins chunks."""

    def __init__(self, num_nodes: int, widths, multipliers):
        self.num_nodes = num_nodes
        self.widths = tuple(widths)
        self.multipliers = tuple(multipliers)
        self.tables = [np.full((num_nodes + 1, m), num_nodes, dtype=np.int64)
                       for m in self.widths]
        self.applied = 0   # events [0, applied) are written

    def advance(self, windows: Windows, src, dst, upto: int) -> None:
        """Write the links of events [applied, upto) in stream order."""
        for lo in range(self.applied, upto, WRITE_CHUNK):
            ev = np.arange(lo, min(lo + WRITE_CHUNK, upto))
            u, v = src[ev], dst[ev]
            pu, _, vu = windows.query(u, ev)
            pv, _, vv = windows.query(v, ev)
            pu, vu, pv, vv = pu[:, 1:], vu[:, 1:], pv[:, 1:], vv[:, 1:]
            n = pu.shape[1]
            uu = np.repeat(u[:, None], n, axis=1)
            vvn = np.repeat(v[:, None], n, axis=1)
            one = np.ones((ev.size, 1), dtype=bool)
            # rule order per event, left to right; row-major flattening
            # keeps events in stream order
            rows = np.concatenate([u[:, None], v[:, None], uu, vvn, pu, pv], 1)
            vals = np.concatenate([v[:, None], u[:, None], pv, pu, vvn, uu], 1)
            keep = np.concatenate([one, one, vv, vu, vu, vv], 1)
            rows, vals = rows[keep], vals[keep]
            for table, m, q in zip(self.tables, self.widths, self.multipliers):
                lin = rows * m + (vals * q) % m
                _, first_rev = np.unique(lin[::-1], return_index=True)
                last = lin.size - 1 - first_rev
                table.reshape(-1)[lin[last]] = vals[last]
        self.applied = max(self.applied, upto)

    def digest(self) -> str:
        return table_digest(self.tables, self.num_nodes)


def table_digest(tables, num_nodes: int) -> str:
    """sha256 over the node rows of each table, as C-order int64."""
    h = hashlib.sha256()
    for table in tables:
        h.update(np.ascontiguousarray(table[:num_nodes], dtype=np.int64).tobytes())
    return h.hexdigest()


def replay_digest(src, dst, t, num_nodes: int, config: dict, seed: int,
                  train_end: int) -> str:
    """Digest of both tables after replaying events [0, train_end)."""
    bstart = batch_starts(t.shape[0], [0, train_end, t.shape[0]],
                          config["batch_size"])
    windows = Windows(src, dst, t, bstart, num_nodes, config["seq_len"])
    tables = Tables(num_nodes, (config["long_size"], config["short_size"]),
                    hash_multipliers(seed))
    tables.advance(windows, src, dst, train_end)
    return tables.digest()


def _layer_norm(x, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)


def encode(params, dt, co_long, co_short) -> np.ndarray:
    """Encoder forward without dropout; node and edge features are empty.

    The phase ``dt * freq`` is rounded to the parameters' dtype, as the
    program computes it: at float32 its rounding error grows with dt and
    would otherwise dominate the comparison.  Everything after it runs
    in float64.
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    freq = p["time_freq"]
    dtype = params["time_freq"].dtype
    args = (dt.astype(dtype)[..., None] * params["time_freq"]).astype(np.float64)
    te = np.empty_like(args)
    te[..., 0::2] = np.cos(args[..., 0::2])
    te[..., 1::2] = np.sin(args[..., 1::2])
    te *= np.sqrt(1.0 / freq.shape[0])
    shape = dt.shape + (p["proj_node_b"].shape[0],)
    z = np.concatenate([
        np.broadcast_to(p["proj_node_b"], shape),
        np.broadcast_to(p["proj_edge_b"], shape),
        te @ p["proj_time_w"] + p["proj_time_b"],
        co_long @ p["proj_co_long_w"] + p["proj_co_long_b"],
        co_short @ p["proj_co_short_w"] + p["proj_co_short_b"]], axis=-1)
    layer = 0
    while f"fuse{layer}_w" in p:
        z = _layer_norm(z @ p[f"fuse{layer}_w"] + p[f"fuse{layer}_b"])
        layer += 1
    return z.mean(axis=1) @ p["out_w"] + p["out_b"]


def score(params, h_a, h_b) -> np.ndarray:
    w = np.asarray(params["merge_w"], dtype=np.float64)[:, 0]
    logit = np.concatenate([h_a, h_b], axis=-1) @ w + float(params["merge_b"][0])
    return 1.0 / (1.0 + np.exp(-logit))


def average_precision(scores, labels) -> float:
    """Precision averaged over recall steps, one threshold per distinct score."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    tp = np.cumsum(y)[last]
    precision = tp / (last + 1)
    recall_step = np.diff(np.r_[0, tp]) / y.sum()
    return float((recall_step * precision).sum())


class EvalReference:
    """Scores of sampled batches of an evaluation replay.

    Mirrors evaluation after a train replay: batches restart at each phase
    boundary, each batch is scored against the state before it, and
    negatives are uniform draws from the stream's destinations, one
    generator per phase keyed by the phase start.
    """

    def __init__(self, src, dst, t, num_nodes: int, config: dict, seed: int,
                 bounds):
        self.src, self.dst, self.t = src, dst, t
        self.config = config
        self.seed = seed
        self.bounds = bounds    # (0, train_end, val_end, num_events)
        bstart = batch_starts(t.shape[0], bounds, config["batch_size"])
        self.windows = Windows(src, dst, t, bstart, num_nodes, config["seq_len"])
        self.tables = Tables(num_nodes, (config["long_size"], config["short_size"]),
                             hash_multipliers(seed))
        self.pool = np.unique(dst)

    def phase_batches(self, phase: int):
        """[(start, stop)] of the batches of phase 1 (val) or 2 (test)."""
        lo, hi = self.bounds[phase], self.bounds[phase + 1]
        bs = self.config["batch_size"]
        return [(a, min(a + bs, hi)) for a in range(lo, hi, bs)]

    def negatives(self, phase: int, upto: int):
        """Negative draws of the first ``upto`` batches of a phase."""
        rng = np.random.default_rng([self.seed, 0xEA7, self.bounds[phase]])
        return [self.pool[rng.integers(0, self.pool.size, size=b - a)]
                for a, b in self.phase_batches(phase)[:upto]]

    def _co(self, own, other, peers, valid):
        out = []
        for table, m in zip(self.tables.tables, self.tables.widths):
            rows = table[peers]                                   # (K, l, M)
            c = np.stack([(rows == table[own][:, None, :]).sum(-1),
                          (rows == table[other][:, None, :]).sum(-1)], axis=2)
            c[~valid] = m                  # paper matching: padding is full
            out.append(c / m)
        return out

    def batch_scores(self, params, start: int, stop: int, neg):
        """(positive, negative) scores of the batch of events [start, stop)."""
        self.tables.advance(self.windows, self.src, self.dst, start)
        ev = np.arange(start, stop)
        u, v = self.src[ev], self.dst[ev]
        pu, du, vu = self.windows.query(u, ev)
        pv, dv, vv = self.windows.query(v, ev)
        pn, dn, vn = self.windows.query(neg, ev)
        sides = [(u, v, pu, du, vu), (v, u, pv, dv, vv),
                 (u, neg, pu, du, vu), (neg, u, pn, dn, vn)]
        H = []
        for own, other, peers, dt, valid in sides:
            co_long, co_short = self._co(own, other, peers, valid)
            H.append(encode(params, dt, co_long, co_short))
        return score(params, H[0], H[1]), score(params, H[2], H[3])
