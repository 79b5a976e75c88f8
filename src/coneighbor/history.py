"""Per-node interaction histories and causal sequence extraction.

Every node keeps an append-only log of (peer, t, edge_idx).  Queries return
fixed-length windows: the anchor itself first, then past partners
most-recent-first, padded with the sentinel id.  Only interactions strictly
before the query time are visible, so windows never leak the event being
predicted or anything simultaneous with it.

A window holds the log entries it walked, not their times and edges: the
table updates read only its peers.  Feature stacking turns a window into
time deltas and edge indices with ``HistoryStore.deltas_and_edges``, which
reads the log, so it must run before the log is reset.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import OrderingError

NO_EDGE = -1   # edge_idx of the empty entry: the self entry and padding
ENTRY = np.dtype([("prev", np.int64), ("peer", np.int64),
                  ("eidx", np.int64), ("t", np.float64)])


def _empty_log(cap: int) -> np.ndarray:
    """cap uninitialised log entries in pages mapped for them alone.

    From malloc, a freed log of several MB raises glibc's mmap threshold,
    so the next, growing log is served from the heap, and the holes it
    leaves as it doubles stay resident.  Mapped pages go back to the
    system when the log is dropped.
    """
    return np.frombuffer(mmap.mmap(-1, cap * ENTRY.itemsize), dtype=ENTRY)


@dataclass
class NeighborSequenceBatch:
    """Fixed-length causal windows, one row per anchor and query time."""

    anchors: np.ndarray  # (B,) int64
    t: np.ndarray        # (B,) float64
    peers: np.ndarray    # (B, l_s) int64; [:, 0] == anchors; padding == sentinel
    entries: np.ndarray  # (B, l_s) int64 log entries; 0 at [:, 0] and padding
    valid: np.ndarray    # (B, l_s) bool; True for self entry and real history

    def __len__(self) -> int:
        return self.anchors.shape[0]


class HistoryStore:
    """Append-only interaction log with monotone-timestamp enforcement.

    The log holds one 32-byte record per (node, event) side: ``prev``, the
    same node's previous entry, then the peer, the edge index and the
    time.  A walk step that reaches an entry thus brings its other fields
    into cache with it; ``_prev``, ``_peer``, ``_eidx`` and ``_t`` are
    strided views of the records.  ``head`` holds each node's newest
    entry, so a node's history is the chain head -> prev -> ... in
    newest-first order.  Entry 0 is the empty entry (prev = 0, peer =
    sentinel, edge index ``NO_EDGE``, t = -inf) and stands for "no entry":
    a new node's head and a first entry's prev point at it, and following
    prev from it stays there.  The log starts with room for ``capacity``
    entries, the empty entry included, and doubles when it fills; ``reset``
    keeps it.
    """

    def __init__(self, num_nodes: int, capacity: int = 1):
        self.num_nodes = num_nodes
        self.sentinel = num_nodes
        self._size = 1
        self._log = _empty_log(capacity)
        self._log[0] = (0, self.sentinel, NO_EDGE, -np.inf)
        self._field_views()
        self._head = np.zeros(num_nodes, dtype=np.int64)

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
        for side, peer in ((slice(lo, end, 2), dst), (slice(lo + 1, end, 2), src)):
            self._peer[side] = peer
            self._t[side] = t
            self._eidx[side] = edge_idx

        # each entry's predecessor is the node's entry before it in the
        # batch, else the node's stored head (the empty entry, at -inf, if
        # it has none)
        order = np.argsort(owner, kind="stable")
        o_owner, o_pos = owner[order], lo + order
        first = np.ones(n, dtype=bool)
        first[1:] = o_owner[1:] != o_owner[:-1]
        last = np.ones(n, dtype=bool)
        last[:-1] = first[1:]
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = o_pos[:-1]
        prev[first] = self._head[o_owner[first]]
        bad = np.flatnonzero(self._t[o_pos] < self._t[prev])
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
        cap = self._log.shape[0]
        if size <= cap:
            return
        log = _empty_log(max(size, 2 * cap))
        log[:self._size] = self._log[:self._size]
        self._log = log
        self._field_views()

    def _field_views(self) -> None:
        self._prev, self._peer, self._eidx, self._t = (
            self._log[name] for name in ENTRY.names)

    def recent_batch(self, anchors, ts, length: int) -> NeighborSequenceBatch:
        """Extract causal windows for several anchors at once.

        Position 0 of each window is the anchor itself; the rest are its
        interactions strictly before the query time, newest first.  Every
        step works on all anchors: one prev gather per window position
        builds the (B, length) matrix of entries, 0 at position 0 and where
        the window is padded, and the peers are one gather from it.
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        prev = self._prev
        cur = self._head[anchors]
        # skip entries at or after the query time, ties included; a node's
        # times never decrease, so every entry behind them is strictly earlier.
        # The empty entry ties only a query at -inf, and the walk ends there.
        late = self._t[cur] >= ts
        while np.count_nonzero(late):
            cur = np.where(late, prev[cur], cur)
            late = (self._t[cur] >= ts) & (cur != 0)
        walk = np.zeros((anchors.shape[0], length), dtype=np.int64)
        for k in range(1, length):
            if not np.count_nonzero(cur):
                break
            walk[:, k] = cur
            cur = prev[cur]
        # the empty entry carries the padding's peer
        peers = self._peer[walk]
        peers[:, 0] = anchors
        valid = walk != 0
        valid[:, 0] = True
        return NeighborSequenceBatch(anchors, ts, peers, walk, valid)

    def deltas_and_edges(self, window: NeighborSequenceBatch,
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(dt, eidx) of a window's entries, both (B, l_s).

        dt is the query time minus the interaction time, 0 at position 0
        and padding; eidx is the edge index, ``NO_EDGE`` there.  Reads the
        log, so the window must come from this store since its last reset.
        """
        entries = window.entries
        eidx = self._eidx[entries]
        dt = np.zeros(entries.shape, dtype=np.float64)
        np.subtract(window.t[:, None], self._t[entries], out=dt,
                    where=entries != 0)
        return dt, eidx

    def reset(self) -> None:
        self._size = 1
        self._head.fill(0)
