import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coneighbor import memory, oracle
from coneighbor.config import MATCH_PAPER, MATCH_STRICT
from coneighbor.errors import ConfigError
from coneighbor.harness import _take
from coneighbor.history import HistoryStore, NeighborSequenceBatch
from coneighbor.memory import (ExactNeighborLog, HashTableMemory,
                               TemporalDiverseMemory, check_slot_consistency)


def windows(anchors, peers, valid=None):
    """A window batch, one row per anchor, whose entries are all the
    empty entry: the table updates read only peers and valid."""
    peers = np.asarray(peers, dtype=np.int64)
    valid = (np.ones(peers.shape, dtype=bool) if valid is None
             else np.asarray(valid, dtype=bool))
    return NeighborSequenceBatch(np.asarray(anchors, dtype=np.int64),
                                 np.ones(len(peers)), peers,
                                 np.zeros(peers.shape, dtype=np.int64),
                                 valid)


def seq(anchor, peers, valid=None):
    """anchor's window as a 1-row batch."""
    return windows([anchor], [peers], None if valid is None else [valid])


def rows(batch, j):
    """Row j of a window batch, as a 1-row batch."""
    return _take(batch, slice(j, j + 1))


def fill(mem, pairs):
    """Write the (row, value) pairs in order: the last write to a slot
    wins."""
    mem.write(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T)


def pair_count(mem, a, b, mode=MATCH_PAPER):
    """b's row counted against anchor a by count_windows."""
    return int(mem.count_windows(np.array([[a]]), np.array([[b]]),
                                 mode)[0, 0, 0])


def encode_pair(tdm, u, v, seq_u, seq_v, mode=MATCH_PAPER):
    """((long, short) of u's side, (long, short) of v's side), each
    (l, 2): a 1-row window counted against its anchor and the other."""
    return tuple(
        tuple(c[0] for c in tdm.co_encode_batch([own], [other], s.peers,
                                                  s.valid, mode))
        for own, other, s in ((u, v, seq_u), (v, u, seq_v)))


class TestHashTableBasics:
    def test_new_memory_all_sentinel(self):
        m = HashTableMemory(3, 4, 1)
        assert (m.table == 3).all()
        assert m.table.shape == (4, 4)   # one extra row backs padding reads

    def test_even_multiplier_rejected(self):
        with pytest.raises(ConfigError):
            HashTableMemory(10, 8, 4)

    @pytest.mark.parametrize("q,M", [(3, 48), (9, 12), (5, 10), (6, 9)])
    def test_multiplier_sharing_a_factor_with_the_width_rejected(self, q, M):
        with pytest.raises(ConfigError, match="coprime"):
            HashTableMemory(10, M, q)

    def test_even_multiplier_coprime_to_an_odd_width_accepted(self):
        m = HashTableMemory(10, 9, 4)
        assert sorted(m.slot_of(np.arange(9))) == list(range(9))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError):
            HashTableMemory(10, 0, 1)

    @pytest.mark.parametrize("q,M,node,slot", [(3, 8, 5, 7), (1, 16, 5, 5),
                                               (7, 10, 10, 0)])
    def test_slot_of(self, q, M, node, slot):
        m = HashTableMemory(64, M, q)
        assert m.slot_of(node) == slot

    def test_slot_of_no_overflow_for_large_multipliers(self):
        m = HashTableMemory(1000, 64, 999_999_999)
        assert m.slot_of(999) == (999 * 999_999_999) % 64

    def test_insert_lands_in_slot(self):
        m = HashTableMemory(8, 4, 1)
        fill(m, [(0, 5)])
        assert m.table[0, 1] == 5

    def test_collision_overwrites(self):
        m = HashTableMemory(16, 4, 1)
        fill(m, [(0, 3)])
        fill(m, [(0, 7)])   # 7 mod 4 == 3 mod 4
        assert m.table[0, 3] == 7

    def test_reinsert_idempotent(self):
        m = HashTableMemory(8, 4, 1)
        fill(m, [(0, 5)])
        before = m.table.copy()
        fill(m, [(0, 5)])
        np.testing.assert_array_equal(m.table, before)

    def test_write_keeps_last_on_duplicate_slot(self):
        m = HashTableMemory(16, 4, 1)
        m.write(np.zeros(3, dtype=np.int64), np.array([3, 7, 11]))  # slot 3
        assert m.table[0, 3] == 11

    def test_write_empty_is_a_no_op(self):
        m = HashTableMemory(8, 4, 1)
        fill(m, [(2, 5)])
        before = m.table.copy()
        m.write(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        np.testing.assert_array_equal(m.table, before)

    @pytest.mark.parametrize("value", [8, 9])
    def test_write_rejects_the_sentinel_and_larger_values(self, value):
        m = HashTableMemory(8, 4, 3)
        before = m.table.copy()
        with pytest.raises(IndexError):
            m.write(np.array([1, 2]), np.array([5, value]))
        np.testing.assert_array_equal(m.table, before)

    # the one write path of a table; the id suffix names it
    @pytest.mark.parametrize("method", ["write"])
    @pytest.mark.parametrize("row, value", [(10, 3), (-1, 3), (0, -1),
                                            (0, 10), (2 ** 62, 3)])
    def test_rows_and_values_outside_the_nodes_rejected(self, method, row,
                                                        value):
        # row 10 is the padding row; value 10 would decode to it; row 2^62
        # would wrap its packed sort key round to row 0
        m = HashTableMemory(10, 4, 1)
        fill(m, [(2, 5)])
        before = m.store.copy()
        with pytest.raises(IndexError):
            getattr(m, method)(np.array([1, row]), np.array([4, value]))
        np.testing.assert_array_equal(m.store, before)
        assert (m.table[m.sentinel] == m.sentinel).all()

    def test_write_rejects_keys_that_overflow_int64(self):
        m = HashTableMemory(1, 1, 1)
        # a read-only view of 2^59 slots; 16 writes take 4 key bits: 2^63
        m.store = np.broadcast_to(np.uint8(1), (2 ** 30, 2 ** 29))
        with pytest.raises(ConfigError, match="overflow"):
            m.write(np.zeros(16, dtype=np.int64), np.zeros(16, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(0, 40), st.integers(1, 60),
       st.integers(1, 5), st.integers(0, 50).map(lambda k: 2 * k + 1),
       st.integers(1, 6))
@example(0, 0, 5, 3, 1, 2)          # b = 0 keys, and nothing to write
@example(1, 1, 5, 3, 1, 2)
@example(2, 2, 5, 3, 1, 2)          # b = 1
@example(3, 1023, 9, 4, 3, 2)       # b = 10
@example(4, 1024, 9, 4, 3, 2)
@example(5, 1025, 9, 4, 3, 9)       # b = 11
def test_write_equals_insert_loop(seed, n, num_nodes, width, q, spread):
    """write() leaves what inserting the same (row, value) pairs one at a
    time, in order, into an int64 reference table does.

    Rows come from the last `spread` nodes, so the flat slot indices reach
    the top of the table, and widths of a few slots make most writes
    collide, many times over for the longer lists.  Multipliers sharing a
    factor with the width are not valid tables.
    """
    assume(gcd(q, width) == 1)
    r = np.random.default_rng(seed)
    rows = r.integers(max(0, num_nodes - spread), num_nodes, size=n)
    values = r.integers(0, num_nodes, size=n)
    fast = HashTableMemory(num_nodes, width, q)
    ref = Int64Tables(num_nodes, width, q)
    start = r.integers(num_nodes, size=(2, 10))      # non-empty start
    for mem in (fast, ref):
        mem.write(*start)
        mem.write(rows, values)
    np.testing.assert_array_equal(fast.table, ref.table)


class TestCoCount:
    def test_fresh_tables_paper_literal_full_width(self):
        m = HashTableMemory(10, 64, 5)
        assert pair_count(m, 2, 7, MATCH_PAPER) == 64
        assert pair_count(m, 2, 7, MATCH_STRICT) == 0

    def test_self_pair_reads_full_width(self):
        m = HashTableMemory(10, 8, 3)
        fill(m, [(0, 4)])
        assert pair_count(m, 0, 0, MATCH_PAPER) == 8

    def test_slot_enumeration_example(self):
        # H_a = [4,.,6,.], H_b = [4,5,.,.] with q=1, M=4
        m = HashTableMemory(10, 4, 1)
        fill(m, [(0, 4), (0, 6), (1, 4), (1, 5)])
        assert pair_count(m, 0, 1, MATCH_STRICT) == 1
        assert pair_count(m, 0, 1, MATCH_PAPER) == 2

    def test_gathered_version_matches_reference(self, rng):
        m, ref = HashTableMemory(20, 8, 3), Int64Tables(20, 8, 3)
        writes = rng.integers(20, size=(2, 60))
        m.write(*writes)
        ref.write(*writes)
        anchors = rng.integers(0, 20, (6, 1))
        peers = rng.integers(0, 21, (6, 4))   # includes the padding row
        # every position valid: padding-row peers are counted as stored,
        # an all-empty row, not overridden
        valid = np.ones(peers.shape, dtype=bool)
        for mode in (MATCH_PAPER, MATCH_STRICT):
            np.testing.assert_array_equal(
                m.count_windows(anchors, peers, mode),
                ref.counts(anchors, peers, valid, mode))

    def test_unknown_mode_rejected(self):
        # a misspelt mode must not count as paper matching
        m = HashTableMemory(10, 8, 3)
        with pytest.raises(ConfigError, match="strictt"):
            m.count_windows(np.array([[1]]), np.array([[2]]), "strictt")


class Int64Tables:
    """Reference sketch: full int64 ids, one insert per write, == counts."""

    def __init__(self, num_nodes, width, q):
        self.n, self.width, self.q = num_nodes, width, q
        self.table = np.full((num_nodes + 1, width), num_nodes, dtype=np.int64)

    def write(self, rows, values):
        for row, val in zip(rows, values):
            self.table[row, (int(val) * self.q) % self.width] = val

    def counts(self, anchors, peers, valid, mode):
        rows_p = self.table[peers]
        c = np.empty(peers.shape + anchors.shape[1:], dtype=np.int64)
        for j in range(anchors.shape[1]):
            rows_a = self.table[anchors[:, j]][:, None, :]
            eq = rows_p == rows_a
            if mode == MATCH_STRICT:
                eq &= rows_a != self.n
            c[..., j] = eq.sum(axis=2)
        c[~valid] = self.width if mode == MATCH_PAPER else 0
        return c


@st.composite
def compact_tables(draw):
    """(num_nodes, width, multiplier): widths that are and are not whole
    8-slot words, and node counts small or with a largest quotient
    (N - 1) // M of 254 or 255, either side of the uint8/uint16 boundary."""
    top = draw(st.sampled_from([None, 254, 255]))
    widths = [1, 3, 8, 12, 16, 24] + ([64, 72, 128] if top is None else [])
    width = draw(st.sampled_from(widths))
    q = draw(st.sampled_from([q for q in (1, 3, 5, 7, 9, 11)
                              if gcd(q, width) == 1]))
    if top is None:
        num_nodes = draw(st.integers(1, 3 * width + 5))
    else:
        num_nodes = draw(st.integers(top * width + 1, (top + 1) * width))
    return num_nodes, width, q


@settings(max_examples=120, deadline=None)
@given(compact_tables(), st.integers(0, 2 ** 16), st.integers(0, 300),
       st.integers(1, 6), st.integers(1, 3), st.sampled_from([MATCH_PAPER,
                                                             MATCH_STRICT]))
@example((255 * 8, 8, 3), 0, 200, 5, 2, MATCH_PAPER)     # top quotient 254
@example((255 * 8 + 1, 8, 3), 0, 200, 5, 2, MATCH_STRICT)   # 255
def test_compact_tables_equal_int64_reference(table, seed, writes, l, m, mode):
    """Decoded ids and counts equal a table of full int64 ids.

    Writes go to a few rows, so the ids collide in their slots, and half of
    them are the largest ids, so the largest quotient is stored.  Windows
    mix those rows with padded positions, which name the sentinel row.
    """
    num_nodes, width, q = table
    r = np.random.default_rng(seed)
    # the table under test is the short one; the long one is never written
    tdm = TemporalDiverseMemory(num_nodes, 2 * width, width, 14 * width + 1, q)
    mem, ref = tdm.short, Int64Tables(num_nodes, width, q)
    assert mem.store.dtype == (np.uint8 if (num_nodes - 1) // width < 255
                               else np.uint16)
    hot = r.integers(0, num_nodes, size=4)
    rows = r.choice(hot, size=writes)
    values = np.where(r.random(writes) < 0.5, r.integers(0, num_nodes, writes),
                      r.integers(max(0, num_nodes - 2 * width), num_nodes,
                                 writes))
    mem.write(rows, values)
    ref.write(rows, values)
    np.testing.assert_array_equal(mem.table, ref.table)

    K = 7
    ids = np.append(hot, r.integers(0, num_nodes, size=2))
    anchors = r.choice(ids, size=(K, 1 + m))
    peers = r.choice(ids, size=(K, l))
    valid = r.random((K, l)) < 0.7
    peers[~valid] = num_nodes
    _, got = tdm.co_encode_batch(anchors[:, 0], anchors[:, 1:], peers, valid,
                                 mode)
    np.testing.assert_array_equal(got, ref.counts(anchors, peers, valid, mode))


class TestCompactTables:
    def test_decoded_table_is_read_only(self):
        m = HashTableMemory(8, 4, 3)
        fill(m, [(0, 5)])
        with pytest.raises(ValueError):
            m.table[0, 0] = 1
        assert m.table[0, m.slot_of(5)] == 5

    @pytest.mark.parametrize("num_nodes", [4 * 255, 4 * 255 + 1])
    def test_bad_write_leaves_the_store_untouched(self, num_nodes):
        m = HashTableMemory(num_nodes, 4, 3)
        m.write(np.array([0, 1]), np.array([num_nodes - 1, 2]))
        before = m.store.copy()
        with pytest.raises(IndexError):
            m.write(np.array([1, 2]), np.array([5, num_nodes]))
        np.testing.assert_array_equal(m.store, before)
        assert m.table[0, m.slot_of(num_nodes - 1)] == num_nodes - 1

    def test_audit_rejects_a_quotient_past_the_last_id(self):
        m = HashTableMemory(10, 4, 3)
        m.store[0, 1] = 3              # decodes to 3*4 + 3 = 15 >= 10
        with pytest.raises(AssertionError, match="valid id range"):
            check_slot_consistency(m)

    def test_audit_rejects_a_quotient_decoding_to_the_sentinel(self):
        m = HashTableMemory(10, 4, 3)
        m.store[0, 2] = 2              # decodes to 2*4 + 2 = 10, the sentinel
        np.testing.assert_array_equal(m.table[0], [10, 10, 10, 10])
        with pytest.raises(AssertionError, match="outside the valid id range"):
            check_slot_consistency(m)

    def test_audit_rejects_a_written_padding_row(self):
        m = HashTableMemory(10, 4, 3)
        m.store[10, 1] = 0
        with pytest.raises(AssertionError, match="padding row"):
            check_slot_consistency(m)

    @pytest.mark.parametrize("row,col,value,what", [
        (0, 1, 3, "valid id range"), (6, 2, 3, "valid id range"),
        (10, 1, 0, "padding row")])
    def test_audit_checks_every_block(self, monkeypatch, row, col, value,
                                      what):
        monkeypatch.setattr(memory, "AUDIT_BLOCK_BYTES", 3 * 8 * 4)
        m = HashTableMemory(10, 4, 3)
        m.write(np.arange(10), (np.arange(10) + 1) % 10)
        check_slot_consistency(m)
        m.store[row, col] = value
        with pytest.raises(AssertionError, match=what):
            check_slot_consistency(m)

    def test_audit_needs_no_table_sized_temporary(self):
        # the decoded int64 table alone would be 10 MB
        m = HashTableMemory(20_000, 64, 5)
        rows = np.arange(20_000)
        m.write(rows, (rows * 7 + 1) % 20_000)
        tracemalloc.start()
        try:
            check_slot_consistency(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                max_size=80),
       st.integers(0, 14), st.integers(0, 14),
       st.sampled_from([1, 3, 5, 7]), st.sampled_from([4, 8, 16]))
def test_co_count_symmetry_and_bounds(ops, a, b, q, M):
    m = HashTableMemory(15, M, q)
    fill(m, ops)
    paper = pair_count(m, a, b, MATCH_PAPER)
    strict = pair_count(m, a, b, MATCH_STRICT)
    assert paper == pair_count(m, b, a, MATCH_PAPER)
    assert strict == pair_count(m, b, a, MATCH_STRICT)
    assert 0 <= strict <= paper <= M
    check_slot_consistency(m)


class TestWorkedExample:
    """Three-node structure-encoding trace with pinned counts.

    Long table M=8, q=1, engineered so that V(u,v)=5, V(u,a)=4, V(v,a)=1
    under paper-literal matching; the short table stays empty, so its
    paper-literal counts are uniformly M_s.
    """

    def build(self):
        tdm = TemporalDiverseMemory(20, long_width=8, short_width=4,
                                    long_multiplier=1, short_multiplier=3)
        u, v, a = 0, 1, 2
        writes = [(node, 8) for node in (u, v, a)]   # slot 0: all agree
        for s in range(1, 5):                  # slots 1-4: u and v agree
            writes += [(u, s), (v, s), (a, s + 8)]
        for s in range(5, 8):                  # slots 5-7: u and a agree
            writes += [(u, s), (a, s), (v, s + 8)]
        fill(tdm.long, writes)
        return tdm, u, v, a

    def test_pairwise_counts(self):
        tdm, u, v, a = self.build()
        assert pair_count(tdm.long, u, v) == 5
        assert pair_count(tdm.long, u, a) == 4
        assert pair_count(tdm.long, v, a) == 1

    def test_sequence_encoding(self):
        tdm, u, v, a = self.build()
        (lu, su), (lv, _) = encode_pair(tdm, u, v, seq(u, [u, a, a]),
                                        seq(v, [v, a, u]))
        np.testing.assert_array_equal(lu, [[8, 5], [4, 1], [4, 1]])
        np.testing.assert_array_equal(lv, [[8, 5], [1, 4], [5, 8]])
        np.testing.assert_array_equal(su, np.full((3, 2), 4))

    def test_strict_mode_differs_on_self(self):
        tdm, u, v, a = self.build()
        (lu, _), _ = encode_pair(tdm, u, v, seq(u, [u, a, a]),
                                 seq(v, [v, a, u]), mode=MATCH_STRICT)
        # all 8 of u's slots are filled, so the self pair still reads 8
        np.testing.assert_array_equal(lu[0], [8, 5])


class TestCoEncode:
    def test_empty_tables_strict_all_zero_except_flags(self):
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        (lu, su), _ = encode_pair(tdm, 0, 1,
                                  seq(0, [0, 6, 6], valid=[1, 0, 0]),
                                  seq(1, [1, 6, 6], valid=[1, 0, 0]),
                                  mode=MATCH_STRICT)
        np.testing.assert_array_equal(lu, np.zeros((3, 2)))
        np.testing.assert_array_equal(su, np.zeros((3, 2)))

    def test_padding_overridden_per_mode(self):
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        fill(tdm.long, [(0, 2)])    # partially filled row
        s_u = seq(0, [0, 2, 6], valid=[1, 1, 0])
        s_v = seq(1, [1, 6, 6], valid=[1, 0, 0])
        (lu, _), (lv, _) = encode_pair(tdm, 0, 1, s_u, s_v, mode=MATCH_PAPER)
        assert lu[2, 0] == 8 and lu[2, 1] == 8
        assert lv[1, 0] == 8 and lv[2, 0] == 8
        (lu, _), (lv, _) = encode_pair(tdm, 0, 1, s_u, s_v, mode=MATCH_STRICT)
        assert lu[2, 0] == 0 and lv[1, 0] == 0

    @pytest.mark.parametrize("mode", [MATCH_PAPER, MATCH_STRICT])
    def test_several_other_anchors_equal_one_at_a_time(self, rng, mode):
        tdm = TemporalDiverseMemory(30, 16, 4, 5, 3)
        for mem in (tdm.long, tdm.short):
            mem.write(*rng.integers(30, size=(2, 300)))
        B, l, m = 20, 5, 3
        own = rng.integers(0, 30, B)
        others = rng.integers(0, 30, (B, m))
        peers = rng.integers(0, 30, (B, l))
        valid = rng.random((B, l)) < 0.8
        peers[~valid] = 30
        lng, sht = tdm.co_encode_batch(own, others, peers, valid, mode)
        assert lng.shape == sht.shape == (B, l, 1 + m)
        for j in range(m):
            l1, s1 = tdm.co_encode_batch(own, others[:, j], peers, valid, mode)
            np.testing.assert_array_equal(lng[..., [0, 1 + j]], l1)
            np.testing.assert_array_equal(sht[..., [0, 1 + j]], s1)

    def test_batch_equals_sequential(self, rng):
        tdm = TemporalDiverseMemory(30, 16, 4, 5, 3)
        for mem in (tdm.long, tdm.short):
            mem.write(*rng.integers(30, size=(2, 300)))
        B, l = 50, 6
        own = rng.integers(0, 30, B)
        other = rng.integers(0, 30, B)
        peers = rng.integers(0, 30, (B, l))
        valid = rng.random((B, l)) < 0.8
        peers[~valid] = 30
        for mode in (MATCH_PAPER, MATCH_STRICT):
            lng, sht = tdm.co_encode_batch(own, other, peers, valid, mode)
            for i in range(B):
                l1, s1 = tdm.co_encode_batch(own[i:i + 1], other[i:i + 1],
                                             peers[i:i + 1], valid[i:i + 1],
                                             mode)
                np.testing.assert_array_equal(lng[i], l1[0])
                np.testing.assert_array_equal(sht[i], s1[0])


class TestLinkUpdate:
    def test_first_order_only(self):
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        tdm.apply_link_update([0], [1], seq(0, [0]), seq(1, [1]),
                              two_order=False, neighbor_update=False)
        for mem in (tdm.long, tdm.short):
            assert mem.table[0, mem.slot_of(1)] == 1
            assert mem.table[1, mem.slot_of(0)] == 0
            assert (mem.table != mem.sentinel).sum() == 2

    def test_three_rules_trace(self):
        # link (u,v) with seq_u=[u], seq_v=[v,a]: 2-order gives H_u <- a,
        # the neighbor rule gives H_a <- u
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        u, v, a = 0, 1, 2
        tdm.apply_link_update([u], [v], seq(u, [u]), seq(v, [v, a]))
        L = tdm.long
        assert L.table[u, L.slot_of(v)] == v
        assert L.table[u, L.slot_of(a)] == a
        assert L.table[v, L.slot_of(u)] == u
        assert L.table[a, L.slot_of(u)] == u
        # v's row holds only u: seq_u carried no non-self entries
        assert (L.table[v] != L.sentinel).sum() == 1
        assert (L.table[3] != L.sentinel).sum() == 0

    def test_update_order_sensitivity_under_collision(self):
        # ids 1 and 9 share a slot at M=8, q=1; processing order decides
        def run(order):
            tdm = TemporalDiverseMemory(12, 8, 4, 1, 3)
            for u, v in order:
                tdm.apply_link_update([u], [v], seq(u, [u]), seq(v, [v]),
                                      two_order=False, neighbor_update=False)
            return tdm.long.table[0].copy()

        fwd = run([(0, 1), (0, 9)])
        rev = run([(0, 9), (0, 1)])
        assert fwd[1] == 9 and rev[1] == 1

    def test_padding_never_inserted(self):
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        s_u = seq(0, [0, 6, 6], valid=[1, 0, 0])
        s_v = seq(1, [1, 6, 6], valid=[1, 0, 0])
        tdm.apply_link_update([0], [1], s_u, s_v)
        check_slot_consistency(tdm.long)
        check_slot_consistency(tdm.short)

    def test_two_order_inserts_follow_sequence_order(self):
        # 1 then 9 collide in the long table; the later entry must win
        tdm = TemporalDiverseMemory(12, 8, 4, 1, 3)
        tdm.apply_link_update([0], [1], seq(0, [0]), seq(1, [1, 1, 9]),
                              neighbor_update=False)
        assert tdm.long.table[0, 1] == 9

    def test_short_table_skipped_on_request(self):
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        tdm.apply_link_update([0], [1], seq(0, [0]), seq(1, [1]),
                              update_short=False)
        assert (tdm.short.table == tdm.short.sentinel).all()
        assert (tdm.long.table != tdm.long.sentinel).sum() == 2

    @pytest.mark.parametrize("u, v, peer", [
        (6, 1, 2), (0, -1, 2),          # an endpoint out of range
        (0, 1, 6), (0, 1, -1),          # a valid past partner out of range
    ])
    @pytest.mark.parametrize("two_order", [True, False])
    def test_bad_id_raises_and_leaves_both_tables(self, u, v, peer,
                                                  two_order):
        # the good first link's writes come before the bad id in the list
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        tdm.apply_link_update([2], [3], seq(2, [2]), seq(3, [3]))
        before = [tdm.long.store.copy(), tdm.short.store.copy()]
        squ = windows([4, u], [[4, 5], [u, 5]])
        sqv = windows([5, v], [[5, 4], [v, peer]])
        with pytest.raises(IndexError):
            tdm.apply_link_update([4, u], [5, v], squ, sqv,
                                  two_order=two_order)
        np.testing.assert_array_equal(tdm.long.store, before[0])
        np.testing.assert_array_equal(tdm.short.store, before[1])

    def test_first_batch_writes_only_the_endpoint_pairs(self, monkeypatch):
        # before any record every window is the anchor and padding, so
        # each table takes (u, v) and (v, u) per link, in link order
        u, v = np.array([0, 3, 3]), np.array([1, 2, 0])
        hist = HistoryStore(6)
        squ, sqv = (hist.recent_batch(x, np.ones(3), 4) for x in (u, v))
        assert not squ.valid[:, 1:].any() and not sqv.valid[:, 1:].any()
        tdm = TemporalDiverseMemory(6, 8, 4, 1, 3)
        seen = []
        write = HashTableMemory._write

        def spy(mem, rows, values):
            seen.append((mem, rows.tolist(), values.tolist()))
            write(mem, rows, values)

        monkeypatch.setattr(HashTableMemory, "_write", spy)
        tdm.apply_link_update(u, v, squ, sqv)
        pairs = ([0, 1, 3, 2, 3, 0], [1, 0, 2, 3, 0, 3])
        assert seen == [(tdm.long, *pairs), (tdm.short, *pairs)]


def _link_writes(u, v, seq_u, seq_v, two_order, neighbor_update):
    """Reference: one link's (row, value) writes, in rule order."""
    peers_u = seq_u.peers[0, 1:][seq_u.valid[0, 1:]]
    peers_v = seq_v.peers[0, 1:][seq_v.valid[0, 1:]]
    writes = [(u, v), (v, u)]
    if two_order:
        writes += [(u, int(j)) for j in peers_v] + [(v, int(i)) for i in peers_u]
    if neighbor_update:
        writes += [(int(i), v) for i in peers_u] + [(int(j), u) for j in peers_v]
    return writes


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 12), st.integers(1, 5),
       st.integers(1, 5), st.sampled_from([(2, 1), (4, 2), (8, 2), (16, 4)]),
       st.booleans(), st.booleans(), st.booleans())
def test_batched_update_equals_event_loop(seed, B, len_u, len_v, widths,
                                          two_order, neighbor_update,
                                          update_short):
    """One batched call writes exactly what a loop of one-link calls does,
    and what the links' writes in rule order do to int64 reference tables.

    Six ids and tables a few slots wide force slot collisions, repeated
    endpoints within the batch and self-loops; windows carry padding.
    """
    n = 6
    r = np.random.default_rng(seed)
    u, v = r.integers(n, size=B), r.integers(n, size=B)

    def windows(anchors, length):
        peers = r.integers(n, size=(B, length))
        valid = r.random((B, length)) < 0.7
        peers[:, 0], valid[:, 0] = anchors, True
        peers[~valid] = n
        return NeighborSequenceBatch(anchors, np.zeros(B), peers,
                                     np.zeros((B, length), dtype=np.int64),
                                     valid)

    squ, sqv = windows(u, len_u), windows(v, len_v)
    flags = dict(two_order=two_order, neighbor_update=neighbor_update,
                 update_short=update_short)
    batched, looped = (TemporalDiverseMemory(n, *widths, 3, 5)
                       for _ in range(2))
    ref_long, ref_short = (Int64Tables(n, w, q) for w, q in zip(widths, (3, 5)))
    start = r.integers(n, size=(2, 20))            # same non-empty start
    for mem in (batched.long, batched.short, looped.long, looped.short,
                ref_long, ref_short):
        mem.write(*start)
    batched.apply_link_update(u, v, squ, sqv, **flags)
    for j in range(B):
        looped.apply_link_update(u[j:j + 1], v[j:j + 1], rows(squ, j),
                                 rows(sqv, j), **flags)
        writes = _link_writes(int(u[j]), int(v[j]), rows(squ, j),
                              rows(sqv, j), two_order, neighbor_update)
        for ref in (ref_long, ref_short) if update_short else (ref_long,):
            ref.write(*zip(*writes))
    for tdm in (batched, looped):
        np.testing.assert_array_equal(tdm.long.table, ref_long.table)
        np.testing.assert_array_equal(tdm.short.table, ref_short.table)


class TestShortLongDivergence:
    def test_two_phase_stream_evicts_from_short(self):
        tdm = TemporalDiverseMemory(64, 64, 4, 1, 3)
        for mem in (tdm.long, tdm.short):
            fill(mem, [(0, nb) for nb in (1, 2, 3, 4)])   # phase one
            # phase two overwrites all short slots
            fill(mem, [(0, nb) for nb in (5, 6, 7, 8)])
        long_ids = set(tdm.long.table[0]) - {tdm.long.sentinel}
        short_ids = set(tdm.short.table[0]) - {tdm.short.sentinel}
        assert long_ids == {1, 2, 3, 4, 5, 6, 7, 8}
        assert short_ids == {5, 6, 7, 8}


class TestExactOracle:
    def test_disjoint_neighborhoods(self):
        log = ExactNeighborLog(10)
        log.apply_link_update([0], [1], seq(0, [0]), seq(1, [1]),
                              two_order=False, neighbor_update=False)
        log.apply_link_update([2], [3], seq(2, [2]), seq(3, [3]),
                              two_order=False, neighbor_update=False)
        assert not log.stored(0) & log.stored(2)

    def test_identical_neighborhoods(self):
        log = ExactNeighborLog(10)
        for nb in (2, 3, 4):
            log.apply_link_update([0], [nb], seq(0, [0]), seq(nb, [nb]),
                                  two_order=False, neighbor_update=False)
            log.apply_link_update([1], [nb], seq(1, [1]), seq(nb, [nb]),
                                  two_order=False, neighbor_update=False)
        assert len(log.stored(0) & log.stored(1)) == 3

    # three links: (0, 1) and (1, 2) share node 1, and (3, 3) is a
    # self-loop.  Windows are those before the batch, padded with the
    # sentinel 8.
    LINKS = ([0, 1, 3], [1, 2, 3])
    WINDOWS = {0: ([0, 4, 8], [1, 1, 0]), 1: ([1, 5, 8], [1, 1, 0]),
               2: ([2, 8, 8], [1, 0, 0]), 3: ([3, 6, 7], [1, 1, 1])}
    # each rule's additions per node: (1) the other endpoint, (2) the
    # other endpoint's past partners, (3) partners learn the endpoint
    FIRST = [{1}, {0, 2}, {1}, {3}, set(), set(), set(), set()]
    TWO_ORDER = [{5}, {4}, {5}, {6, 7}, set(), set(), set(), set()]
    NEIGHBOR = [set(), set(), set(), set(), {1}, {0, 2}, {3}, {3}]

    def window_batch(self, anchors):
        peers, valid = zip(*(self.WINDOWS[a] for a in anchors))
        return windows(anchors, peers, valid)

    @pytest.mark.parametrize("two_order", [True, False])
    @pytest.mark.parametrize("neighbor_update", [True, False])
    def test_batch_equals_hand_computed_and_slices_in_order(
            self, two_order, neighbor_update):
        u, v = (np.array(x) for x in self.LINKS)
        squ, sqv = (self.window_batch(x) for x in self.LINKS)
        batched, sliced = ExactNeighborLog(8), ExactNeighborLog(8)
        batched.apply_link_update(u, v, squ, sqv, two_order, neighbor_update)
        for j in range(u.size):
            sliced.apply_link_update(u[j:j + 1], v[j:j + 1], rows(squ, j),
                                     rows(sqv, j), two_order, neighbor_update)
        rules = [self.FIRST] + [r for on, r in ((two_order, self.TWO_ORDER),
                                                (neighbor_update, self.NEIGHBOR))
                                if on]
        want = [set().union(*sets) for sets in zip(*rules)]
        assert [batched.stored(a) for a in range(8)] == want
        assert [sliced.stored(a) for a in range(8)] == want

    def test_instance_equivalence_with_fixed_q(self, rng):
        """Random stream into a long table injective on every id: the audit
        finds every long pair injective and every audited count exact."""
        n = 25
        tdm = TemporalDiverseMemory(n, 32, 8, 5, 3)
        assert np.unique(tdm.long.slot_of(np.arange(n))).size == n
        log = ExactNeighborLog(n)
        hist = HistoryStore(n)
        for i in range(300):
            u = int(rng.integers(n))
            v = (u + 1 + int(rng.integers(n - 1))) % n
            squ = hist.recent_batch([u], [float(i)], 4)
            sqv = hist.recent_batch([v], [float(i)], 4)
            tdm.apply_link_update([u], [v], squ, sqv)
            log.apply_link_update([u], [v], squ, sqv)
            hist.record_batch([u], [v], [float(i)], [i])
        report = oracle.StreamReport(0, n, 300, 32, 8)
        oracle._audit_pairs(tdm, log, report)
        assert report.ok
        assert report.pairs_injective >= n * (n - 1) // 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(5, 18), st.integers(10, 120))
def test_collision_free_equivalence_property(seed, n, events):
    """With a long width several times the max degree, strict counts equal
    the exact oracle on every long pair, and on every injective short one."""
    r = np.random.default_rng(seed)
    hist = HistoryStore(n)
    log = ExactNeighborLog(n)
    M = 1
    while M < 4 * n:    # >= 4x any possible degree, and covers all ids
        M *= 2
    tdm = TemporalDiverseMemory(n, M, max(2, M // 4), 1, 3)
    assert np.unique(tdm.long.slot_of(np.arange(n))).size == n
    for i in range(events):
        u = int(r.integers(n))
        v = (u + 1 + int(r.integers(n - 1))) % n
        squ = hist.recent_batch([u], [float(i)], 3)
        sqv = hist.recent_batch([v], [float(i)], 3)
        tdm.apply_link_update([u], [v], squ, sqv)
        log.apply_link_update([u], [v], squ, sqv)
        hist.record_batch([u], [v], [float(i)], [i])
    check_slot_consistency(tdm.long)
    report = oracle.StreamReport(seed, n, events, M, max(2, M // 4))
    oracle._audit_pairs(tdm, log, report)
    assert report.ok
    assert report.pairs_injective >= n * (n - 1) // 2


def _first_two_distinct_odd(seed):
    """The first two distinct odd draws for the seed, with no width check."""
    rng = np.random.default_rng([seed, 0x4A5])
    q_long = int(rng.integers(0, 1 << 20)) * 2 + 1
    q_short = q_long
    while q_short == q_long:
        q_short = int(rng.integers(0, 1 << 20)) * 2 + 1
    return q_long, q_short


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.integers(1, 200), st.integers(0, 2 ** 16))
@example(12, 36, 0)     # width 48: these seeds drew multipliers
@example(12, 36, 1)     # divisible by 3, which reached 16 of 48 slots
@example(12, 36, 2)
@example(12, 36, 5)
def test_every_slot_reachable_at_any_width(short_width, extra, seed):
    tdm = TemporalDiverseMemory.from_seed(1, short_width + extra,
                                          short_width, seed)
    for mem in (tdm.long, tdm.short):
        assert np.unique(mem.slot_of(np.arange(mem.width))).size == mem.width


@pytest.mark.parametrize("widths", [(2, 1), (8, 4), (64, 16), (256, 64),
                                    (512, 128)])
@pytest.mark.parametrize("seed", range(6))
def test_power_of_two_widths_draw_the_same_multipliers(widths, seed):
    tdm = TemporalDiverseMemory.from_seed(3, *widths, seed)
    assert ((tdm.long.multiplier, tdm.short.multiplier)
            == _first_two_distinct_odd(seed))


def test_tdm_config_validation():
    with pytest.raises(ConfigError):
        TemporalDiverseMemory(5, 8, 8, 1, 3)      # short not narrower
    with pytest.raises(ConfigError):
        TemporalDiverseMemory(5, 8, 4, 3, 3)      # multipliers equal
    tdm = TemporalDiverseMemory.from_seed(5, 8, 4, seed=0)
    assert tdm.long.multiplier % 2 == 1
    assert tdm.short.multiplier % 2 == 1
    assert tdm.long.multiplier != tdm.short.multiplier
