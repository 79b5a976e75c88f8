"""Per-node interaction histories and causal sequence extraction.

Every node keeps an append-only log of (peer, t, edge_idx).  Queries return
fixed-length sequences: the anchor itself first (time delta 0), then past
partners most-recent-first, padded with the sentinel id.  Only interactions
strictly before the query time are visible, so sequences never leak the
event being predicted or anything simultaneous with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderingError

NO_EDGE = -1   # edge_idx placeholder for the self entry and padding


@dataclass
class NeighborSequence:
    """Fixed-length causal window for one anchor at one query time."""

    anchor: int
    t: float
    peers: np.ndarray   # (l_s,) int64; peers[0] == anchor; padding == sentinel
    dt: np.ndarray      # (l_s,) float64; t - interaction time, 0 at padding
    eidx: np.ndarray    # (l_s,) int64; NO_EDGE for self entry and padding
    valid: np.ndarray   # (l_s,) bool; True for self entry and real history

    def __len__(self) -> int:
        return self.peers.shape[0]


@dataclass
class NeighborSequenceBatch:
    """Row-stacked sequences; row(i) views the i-th anchor's window."""

    anchors: np.ndarray  # (B,) int64
    t: np.ndarray        # (B,) float64
    peers: np.ndarray    # (B, l_s) int64
    dt: np.ndarray       # (B, l_s) float64
    eidx: np.ndarray     # (B, l_s) int64
    valid: np.ndarray    # (B, l_s) bool

    def __len__(self) -> int:
        return self.anchors.shape[0]

    def row(self, i: int) -> NeighborSequence:
        return NeighborSequence(int(self.anchors[i]), float(self.t[i]),
                                self.peers[i], self.dt[i],
                                self.eidx[i], self.valid[i])


class HistoryStore:
    """Append-only interaction log with monotone-timestamp enforcement.

    The log is four parallel arrays, one entry per (node, event) side:
    the peer, the time, the edge index and ``prev``, the same node's
    previous entry (-1 at its first).  ``head`` holds each node's newest
    entry, so a node's history is the chain head -> prev -> ... in
    newest-first order.  Capacity doubles as the log fills.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.sentinel = num_nodes
        self._size = 0
        self._peer = np.empty(0, dtype=np.int64)
        self._t = np.empty(0, dtype=np.float64)
        self._eidx = np.empty(0, dtype=np.int64)
        self._prev = np.empty(0, dtype=np.int64)
        self._head = np.full(num_nodes, -1, dtype=np.int64)

    def record(self, u: int, v: int, t: float, edge_idx: int) -> None:
        """Append the interaction to both endpoint logs."""
        self.record_batch([u], [v], [t], [edge_idx])

    def record_batch(self, src, dst, t, edge_idx) -> None:
        """Append a batch of interactions in order, both sides of each.

        Raises OrderingError, and records nothing, if some node's times
        would decrease, against its stored entries or within the batch.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        # log order: event by event, the src side before the dst side
        owner = np.stack([src, dst], axis=1).ravel()
        n = owner.size
        lo, end = self._size, self._size + n
        self._reserve(end)
        self._peer[lo:end] = np.stack([dst, src], axis=1).ravel()
        self._t[lo:end] = np.repeat(np.asarray(t, dtype=np.float64), 2)
        self._eidx[lo:end] = np.repeat(np.asarray(edge_idx, dtype=np.int64), 2)

        # each entry's predecessor is the node's entry before it in the
        # batch, else the node's stored head
        order = np.argsort(owner, kind="stable")
        o_owner, o_pos = owner[order], lo + order
        first = np.ones(n, dtype=bool)
        first[1:] = o_owner[1:] != o_owner[:-1]
        last = np.ones(n, dtype=bool)
        last[:-1] = first[1:]
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = o_pos[:-1]
        prev[first] = self._head[o_owner[first]]
        bad = np.flatnonzero((prev >= 0) & (self._t[o_pos] < self._t[prev]))
        if bad.size:
            k = bad[0]
            raise OrderingError(
                f"event at t={self._t[o_pos[k]]} precedes node "
                f"{o_owner[k]}'s last t={self._t[prev[k]]}")
        # the entries written above stay invisible until the heads move
        self._prev[o_pos] = prev
        self._head[o_owner[last]] = o_pos[last]
        self._size = end

    def _reserve(self, size: int) -> None:
        cap = self._t.shape[0]
        if size <= cap:
            return
        cap = max(size, 2 * cap)
        for name in ("_peer", "_t", "_eidx", "_prev"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:self._size] = old[:self._size]
            setattr(self, name, new)

    def recent_sequence(self, anchor: int, t: float, length: int) -> NeighborSequence:
        return self.recent_batch([anchor], [t], length).row(0)

    def recent_batch(self, anchors, ts, length: int) -> NeighborSequenceBatch:
        """Extract causal windows for several anchors at once.

        Position 0 of each window is the anchor itself with dt 0; the rest
        are its interactions strictly before the query time, newest first.
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        B = anchors.shape[0]
        peers = np.full((B, length), self.sentinel, dtype=np.int64)
        dt = np.zeros((B, length), dtype=np.float64)
        eidx = np.full((B, length), NO_EDGE, dtype=np.int64)
        valid = np.zeros((B, length), dtype=bool)
        peers[:, 0] = anchors
        valid[:, 0] = True
        cur = self._head[anchors]
        # skip entries at or after the query time, ties included; a node's
        # times never decrease, so every entry behind them is strictly earlier
        late = np.flatnonzero(cur >= 0)
        while late.size:
            late = late[self._t[cur[late]] >= ts[late]]
            cur[late] = self._prev[cur[late]]
            late = late[cur[late] >= 0]
        live = np.flatnonzero(cur >= 0)
        for k in range(1, length):
            if not live.size:
                break
            e = cur[live]
            peers[live, k] = self._peer[e]
            dt[live, k] = ts[live] - self._t[e]
            eidx[live, k] = self._eidx[e]
            valid[live, k] = True
            cur[live] = self._prev[e]
            live = live[cur[live] >= 0]
        return NeighborSequenceBatch(anchors, ts, peers, dt, eidx, valid)

    def reset(self) -> None:
        self._size = 0
        self._head.fill(-1)
