"""Hashed neighbor sketches, slot-wise co-neighbor counting, and updates.

Each node owns a fixed-width slot array standing in for its neighbor set.
A neighbor v lands in slot (q*v) mod M; a write to an occupied slot
simply overwrites it, which is the forgetting mechanism that keeps the
sketch bounded.  Counting equal slot values between two rows approximates
the common-neighbor count of the two nodes in a single vectorized pass.

Because q is coprime to M, a slot s already fixes v mod M, so a slot only
stores the quotient v // M, and two ids in one slot are equal exactly when
their quotients are.  The store uses the narrowest unsigned dtype that
holds every quotient plus an empty marker, the dtype's largest value: one
byte per slot while (num_nodes - 1) // M < 255.  ``HashTableMemory.table``
decodes the store into a read-only int64 copy of ids, with the sentinel id
num_nodes where a slot is empty, for audits and tests.

Counts run over blocks of rows of about COUNT_BLOCK_BYTES of compact
slots, so each block's comparison stays in cache: the block's peer rows
are gathered once, position-major, compared against the anchor rows, and
the matches are counted by popcount over 8-byte words of the comparison
(a plain sum where M is not a multiple of 8).

Two matching modes exist.  ``paper`` counts every position where the rows
agree, including empty==empty, so a node compared with itself always scores
the full width M.  ``strict`` counts only agreeing non-empty slots, which
equals the exact set intersection whenever the hash is injective on the
written ids; ``oracle.py`` audits ``count_windows`` in this mode.

The temporal-diverse variant pairs a wide table (long horizon) with a
narrow one (short horizon) under independent hash multipliers: the narrow
table overwrites faster and therefore tracks only recent neighbors.  A
batch of links becomes one write list, checked once and written to both
tables; it reads the windows' peers and valid masks, not their entries.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .config import MATCH_PAPER, MATCH_STRICT, MATCHINGS
from .errors import ConfigError


# compact slots per counting block: a block's comparison temporaries then
# stay in a core's L2 cache
COUNT_BLOCK_BYTES = 64 * 1024
# decoded int64 ids per audit block; with the block's hashes and masks
# about 1 MB of temporaries
AUDIT_BLOCK_BYTES = 256 * 1024


def _check_mode(mode: str) -> None:
    if mode not in MATCHINGS:
        raise ConfigError(f"unknown matching mode {mode!r}")


def _check_ids(rows: np.ndarray, values: np.ndarray, num_nodes: int) -> None:
    """IndexError unless every row and value lies in [0, num_nodes).

    Checked before any key is packed: a huge row would wrap into range.
    """
    if (min(rows.min(), values.min()) < 0
            or max(rows.max(), values.max()) >= num_nodes):
        raise IndexError(f"write rows and values must lie in [0, {num_nodes})")


def _store_dtype(top: int) -> np.dtype:
    """Narrowest unsigned dtype holding 0..top below its largest value."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if top < np.iinfo(t).max)


def _count_true(eq: np.ndarray, dtype) -> np.ndarray:
    """Trues over the last axis of a C-contiguous bool array, as dtype.

    Popcount gives each 8-byte word's count (at most 8).  Whole groups of 8
    such counts are summed by one multiply of their bytes read as a word,
    and the few columns left per row are added as columns: a numpy
    reduction over a short last axis costs more per row than that.
    """
    if eq.shape[-1] % 8:
        return eq.sum(axis=-1, dtype=dtype)
    pc = np.bitwise_count(eq.view(np.uint64))
    if pc.shape[-1] % 8 == 0:
        pc = pc.view(np.uint64) * np.uint64(0x0101010101010101)
        pc >>= np.uint64(56)                 # sum of the 8 counts, <= 64
    out = pc[..., 0].astype(dtype)
    for i in range(1, pc.shape[-1]):
        out += pc[..., i]
    return out


class HashTableMemory:
    """N slot-rows of width M plus one permanently empty row for padding.

    Row index ``sentinel`` (== num_nodes) backs padded sequence positions:
    gathers through it are valid and see an all-empty row, and ``write``
    raises IndexError for it.  ``store`` holds each slot's quotient
    id // M, or ``empty``; ``table`` decodes it to ids.
    """

    def __init__(self, num_nodes: int, width: int, multiplier: int):
        if width < 1:
            raise ConfigError("table width must be >= 1")
        if multiplier < 1 or gcd(multiplier, width) != 1:
            raise ConfigError(
                f"hash multiplier {multiplier} must be positive and coprime "
                f"to the width {width}; otherwise some slots are never used")
        self.num_nodes = num_nodes
        self.width = width
        self.multiplier = multiplier
        self.sentinel = num_nodes
        dtype = _store_dtype((num_nodes - 1) // width)
        self.empty = np.iinfo(dtype).max
        self.store = np.full((num_nodes + 1, width), self.empty, dtype=dtype)
        # counts reach M, past uint16 only on very wide tables
        self._count_dtype = np.promote_types(np.uint16,
                                             np.min_scalar_type(width))
        # slot_of and the stored quotient for every id, so a write reads
        # them instead of hashing; the sentinel has no entry and cannot be
        # written
        ids = np.arange(num_nodes)
        self._slots = self.slot_of(ids)
        self._quot = (ids // width).astype(dtype)
        # id mod M of the ids that hash to slot s: s / q mod M
        self._resid = np.arange(width) * pow(multiplier, -1, width) % width

    @property
    def table(self) -> np.ndarray:
        """The stored ids as a read-only int64 array; empty slots read as
        the sentinel."""
        out = self._decode(self.store)
        out.flags.writeable = False
        return out

    def _decode(self, rows: np.ndarray) -> np.ndarray:
        """Stored rows (a slice of ``store``) as int64 ids; empty slots
        read as the sentinel."""
        out = np.multiply(rows, self.width, dtype=np.int64)
        out += self._resid
        np.copyto(out, self.sentinel, where=rows == self.empty)
        return out

    def slot_of(self, node_id):
        """(q * id) mod M, elementwise on arrays."""
        return (np.asarray(node_id, dtype=np.int64) * self.multiplier) % self.width

    def write(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Write values[i] into row rows[i] in order of i.

        A row or value outside [0, num_nodes), the sentinel included,
        raises IndexError and writes nothing.  Where several writes hit the
        same slot the last one wins (see ``_write``).
        """
        if values.size == 0:
            return
        _check_ids(rows, values, self.num_nodes)
        self._write(rows, values)

    def _write(self, rows: np.ndarray, values: np.ndarray) -> None:
        """``write`` without its checks: rows and values must be non-empty
        and lie in [0, num_nodes).

        The last write to a slot is resolved here by keeping the last
        occurrence of each slot, not left to numpy's unspecified order for
        duplicate fancy-assignment indices: each write's key packs its flat
        slot above its position i in b low bits, so one unstable sort
        orders the keys by slot and then by i, and the last key of each run
        of equal slots names the winner.
        """
        n = values.size
        b = (n - 1).bit_length()
        if self.store.size << b > np.iinfo(np.int64).max:
            raise ConfigError(
                f"a table of {self.store.size} slots cannot take {n} writes "
                "at once: the packed sort keys would overflow int64")
        keys = np.multiply(rows, self.width, dtype=np.int64)
        keys += self._slots[values]
        keys <<= b
        keys |= np.arange(n)
        keys.sort()
        slot = keys >> b
        last = np.empty(n, dtype=bool)
        np.not_equal(slot[1:], slot[:-1], out=last[:-1])
        last[-1] = True
        won = keys[last]
        slot = won >> b
        won &= (1 << b) - 1
        self.store.reshape(-1)[slot] = self._quot[values[won]]

    def count_windows(self, anchors: np.ndarray, peers: np.ndarray,
                      mode: str = MATCH_PAPER) -> np.ndarray:
        """Counts of each window position's peer against the row's anchors.

        anchors: (K, n) ids; peers: (K, l) ids, where the sentinel reads as
        an all-empty row.  Returns (K, l, n) unsigned counts, a view of an
        (l, n, K) array.

        Rows run in blocks of about COUNT_BLOCK_BYTES of compact peer
        slots, and no array larger than one block's comparison is built.
        A block is gathered position-major, (l, rows, M), so each anchor
        row broadcasts along the outer axis and each comparison is one
        long contiguous loop per position and anchor.
        """
        _check_mode(mode)
        K, l = peers.shape
        c = np.empty((l, anchors.shape[1], K), self._count_dtype)
        step = max(1, COUNT_BLOCK_BYTES // max(1, l * self.store[0].nbytes))
        for lo in range(0, K, step):
            blk = slice(lo, lo + step)
            rows_p = np.take(self.store, peers[blk].T, axis=0)[:, None]
            rows_a = np.take(self.store, anchors[blk].T, axis=0)
            eq = rows_p == rows_a                    # (l, n, rows, M)
            if mode == MATCH_STRICT:
                eq &= rows_a != self.empty
            c[..., blk] = _count_true(eq, self._count_dtype)
        return c.transpose(2, 0, 1)

    def reset(self) -> None:
        self.store.fill(self.empty)


class TemporalDiverseMemory:
    """Long- and short-horizon neighbor sketches updated in lockstep."""

    def __init__(self, num_nodes: int, long_width: int, short_width: int,
                 long_multiplier: int, short_multiplier: int):
        if short_width >= long_width:
            raise ConfigError("short table must be narrower than the long table")
        if long_multiplier == short_multiplier:
            raise ConfigError("long and short tables need distinct multipliers")
        self.num_nodes = num_nodes
        self.sentinel = num_nodes
        self.long = HashTableMemory(num_nodes, long_width, long_multiplier)
        self.short = HashTableMemory(num_nodes, short_width, short_multiplier)

    @classmethod
    def from_seed(cls, num_nodes: int, long_width: int, short_width: int,
                  seed: int) -> "TemporalDiverseMemory":
        """Draw two distinct odd multipliers deterministically from the seed.

        A draw that shares a factor with either width is drawn again.  An
        odd multiplier never does with a power-of-two width, so there the
        draws are the first two distinct odd ones.
        """
        rng = np.random.default_rng([seed, 0x4A5])

        def draw() -> int:
            while True:
                q = int(rng.integers(0, 1 << 20)) * 2 + 1
                if gcd(q, long_width * short_width) == 1:
                    return q

        q_long = q_short = draw()
        while q_short == q_long:
            q_short = draw()
        return cls(num_nodes, long_width, short_width, q_long, q_short)

    # -- reads ---------------------------------------------------------

    def co_encode_batch(self, anchor_own: np.ndarray, anchor_other: np.ndarray,
                        peers: np.ndarray, valid: np.ndarray,
                        mode: str = MATCH_PAPER, *, short: bool = True,
                        ) -> tuple[np.ndarray, np.ndarray | None]:
        """Structure features for a stack of sequences.

        Row k's peers p_1..p_l are gathered once per table, a block of rows
        at a time, and counted against anchor_own[k] and against
        anchor_other[k], which is one id or, as a (K, m) array, m ids.  Per
        position that gives n = 1 + m counts: to anchor_own, then to each
        other anchor.  Padding positions (valid False) are overridden to the
        no-information value: full width under paper matching, zero under
        strict.

        Returns (long_counts, short_counts), each (K, l, n) unsigned
        (uint16 up to a width of 65535); with short False the short table
        is not read and short_counts is None.
        """
        anchors = np.column_stack([anchor_own, anchor_other]).astype(np.int64)
        pad = ~np.asarray(valid)[..., None]
        out = []
        for mem in (self.long, self.short) if short else (self.long,):
            c = mem.count_windows(anchors, peers, mode)
            np.copyto(c, mem.width if mode == MATCH_PAPER else 0, where=pad)
            out.append(c)
        return out[0], out[1] if short else None

    # -- writes --------------------------------------------------------

    def apply_link_update(self, u, v, seq_u, seq_v, two_order: bool = True,
                          neighbor_update: bool = True,
                          update_short: bool = True) -> None:
        """Write a batch of observed links into the sketches.

        u and v are (B,) endpoint ids and seq_u, seq_v their
        NeighborSequenceBatch windows from before the batch.  The writes
        are exactly those of applying the links one by one in stream
        order.  Per link the rule order is fixed: (1) each endpoint learns
        the other; (2) each endpoint learns the other's sampled past
        partners; (3) those past partners learn the new endpoint.  Within
        a rule, window order; position 0 (the anchor itself) and padding
        are skipped.  Later writes win slot conflicts.  A row or value
        outside [0, num_nodes) raises IndexError before either table
        changes.
        """
        u = np.asarray(u, dtype=np.int64)[:, None]
        v = np.asarray(v, dtype=np.int64)[:, None]
        pu, pv = seq_u.peers[:, 1:], seq_v.peers[:, 1:]
        ku, kv = seq_u.valid[:, 1:], seq_v.valid[:, 1:]
        uu = np.broadcast_to(u, pv.shape)
        vv = np.broadcast_to(v, pu.shape)
        one = np.ones(u.shape, dtype=bool)
        # one column block per enabled rule; row-major flattening keeps
        # links in stream order and, within a link, rules and windows in
        # order
        rows, vals, keep = [u, v], [v, u], [one, one]
        if two_order:
            rows += [uu, vv]
            vals += [pv, pu]
            keep += [kv, ku]
        if neighbor_update:
            rows += [pu, pv]
            vals += [vv, uu]
            keep += [ku, kv]
        idx = np.flatnonzero(np.concatenate(keep, axis=1))
        if not idx.size:
            return
        rows = np.concatenate(rows, axis=1).ravel()[idx]
        vals = np.concatenate(vals, axis=1).ravel()[idx]
        _check_ids(rows, vals, self.num_nodes)
        for mem in (self.long, self.short) if update_short else (self.long,):
            mem._write(rows, vals)

    def reset(self) -> None:
        self.long.reset()
        self.short.reset()


class ExactNeighborLog:
    """Unbounded-set twin of the sketch memory for oracle testing.

    Replays the identical update schema with real Python sets, so the
    intersection sizes are exact.  Width-limited sketches agree with this
    oracle in strict mode whenever their hash is injective on the ids that
    were written.
    """

    def __init__(self, num_nodes: int):
        self._sets: list[set[int]] = [set() for _ in range(num_nodes)]

    def apply_link_update(self, u, v, seq_u, seq_v, two_order: bool = True,
                          neighbor_update: bool = True) -> None:
        """TemporalDiverseMemory.apply_link_update's batch, applied one
        link at a time in stream order and rule order; position 0 and
        padding are skipped."""
        s = self._sets
        for a, b, pu, ku, pv, kv in zip(
                np.asarray(u).tolist(), np.asarray(v).tolist(),
                seq_u.peers[:, 1:].tolist(), seq_u.valid[:, 1:].tolist(),
                seq_v.peers[:, 1:].tolist(), seq_v.valid[:, 1:].tolist()):
            peers_u = [i for i, ok in zip(pu, ku) if ok]
            peers_v = [j for j, ok in zip(pv, kv) if ok]
            s[a].add(b)
            s[b].add(a)
            if two_order:
                s[a].update(peers_v)
                s[b].update(peers_u)
            if neighbor_update:
                for i in peers_u:
                    s[i].add(b)
                for j in peers_v:
                    s[j].add(a)

    def stored(self, node: int) -> set[int]:
        return self._sets[node]


def check_slot_consistency(mem: HashTableMemory) -> None:
    """Audit: every stored id sits in its own hash slot; pad row untouched.

    The store is decoded and checked a block of about AUDIT_BLOCK_BYTES of
    int64 ids at a time, so a large table needs no table-sized temporary.
    An id outside the valid range is reported before a misplaced id
    anywhere in the table, as when the whole table was checked at once.
    """
    rows = max(1, AUDIT_BLOCK_BYTES // (8 * mem.width))
    slots = np.arange(mem.width)
    misplaced = False
    for lo in range(0, mem.store.shape[0], rows):
        block = mem.store[lo:lo + rows]
        # a filled slot may decode to the sentinel id, so test the store
        ids, filled = mem._decode(block), block != mem.empty
        if np.any(filled & ((ids < 0) | (ids >= mem.num_nodes))):
            raise AssertionError("stored value outside the valid id range")
        misplaced = misplaced or bool(
            np.any(filled & (mem.slot_of(ids) != slots)))
    if misplaced:
        raise AssertionError("stored value found outside its hash slot")
    if np.any(filled[-1]):              # the last block ends in the pad row
        raise AssertionError("padding row was written")
