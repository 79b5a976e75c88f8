import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneighbor.errors import OrderingError
from coneighbor.history import NO_EDGE, HistoryStore


def record(h, u, v, t, idx):
    h.record_batch([u], [v], [t], [idx])


def window(h, anchor, t, length):
    """anchor's window at query time t, as a 1-row batch."""
    return h.recent_batch([anchor], [t], length)


def log_entries(h, node, length=64):
    """Entries in node's log: a window after every event, long enough for all."""
    valid = window(h, node, 1e9, length).valid[0]
    assert not valid[-1]
    return int(valid[1:].sum())


def test_record_is_symmetric():
    h = HistoryStore(4)
    record(h, 0, 1, 1.0, 0)
    assert [log_entries(h, n) for n in range(3)] == [1, 1, 0]


def test_out_of_order_rejected():
    h = HistoryStore(4)
    record(h, 0, 1, 5.0, 0)
    with pytest.raises(OrderingError):
        record(h, 1, 2, 3.0, 1)


def test_equal_timestamps_both_kept():
    h = HistoryStore(4)
    record(h, 0, 1, 5.0, 0)
    record(h, 0, 2, 5.0, 1)
    seq = window(h, 0, 6.0, 4)
    np.testing.assert_array_equal(seq.peers[0, :3], [0, 2, 1])  # newest first


def test_no_history_is_self_plus_padding():
    h = HistoryStore(3)
    seq = window(h, 1, 2.0, 3)
    np.testing.assert_array_equal(seq.peers[0], [1, 3, 3])
    np.testing.assert_array_equal(seq.valid[0], [True, False, False])
    np.testing.assert_array_equal(seq.entries[0], [0, 0, 0])
    dt, eidx = h.deltas_and_edges(seq)
    np.testing.assert_array_equal(dt[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(eidx[0], [NO_EDGE, NO_EDGE, NO_EDGE])


def test_repeated_partner_window():
    # u meets a at t=1 and t=2; at t=3 the window of length 3 is [u, a, a]
    h = HistoryStore(2)
    u, a = 0, 1
    record(h, u, a, 1.0, 0)
    record(h, u, a, 2.0, 1)
    seq = window(h, u, 3.0, 3)
    np.testing.assert_array_equal(seq.peers[0], [u, a, a])
    dt, eidx = h.deltas_and_edges(seq)
    np.testing.assert_allclose(dt[0], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(eidx[0], [NO_EDGE, 1, 0])
    assert seq.valid[0].all()


def test_strictly_before_query_time():
    h = HistoryStore(3)
    record(h, 0, 1, 2.0, 0)
    record(h, 0, 2, 3.0, 1)
    seq = window(h, 0, 3.0, 3)   # the t=3 event must not be visible
    np.testing.assert_array_equal(seq.peers[0], [0, 1, 3])


def test_window_drops_oldest():
    h = HistoryStore(12)
    for i in range(10):
        record(h, 0, i + 1, float(i), i)
    seq = window(h, 0, 100.0, 4)
    np.testing.assert_array_equal(seq.peers[0], [0, 10, 9, 8])
    np.testing.assert_allclose(h.deltas_and_edges(seq)[0][0],
                               [0.0, 91.0, 92.0, 93.0])


def test_batch_matches_single(rng):
    h = HistoryStore(8)
    t = 0.0
    for i in range(60):
        u, v = rng.choice(8, 2, replace=False)
        t += float(rng.random())
        record(h, int(u), int(v), t, i)
    anchors = rng.integers(0, 8, 20)
    times = np.sort(rng.uniform(0, t, 20))
    batch = h.recent_batch(anchors, times, 5)
    for i in range(20):
        single = window(h, int(anchors[i]), float(times[i]), 5)
        for name in ("peers", "entries", "valid"):
            np.testing.assert_array_equal(getattr(batch, name)[i],
                                          getattr(single, name)[0])
        for got, want in zip(h.deltas_and_edges(batch),
                             h.deltas_and_edges(single)):
            np.testing.assert_array_equal(got[i], want[0])


def test_record_batch_rejects_decrease_within_batch():
    h = HistoryStore(4)
    record(h, 0, 1, 1.0, 0)
    with pytest.raises(OrderingError):
        # node 2 sees t=5 and then t=4 inside the one batch
        h.record_batch([2, 0, 1], [3, 1, 2], [5.0, 6.0, 4.0], [1, 2, 3])
    # nothing appended
    assert [log_entries(h, n) for n in range(4)] == [1, 1, 0, 0]


def record_all(h, events):
    h.record_batch([e[0] for e in events], [e[1] for e in events],
                   [e[2] for e in events], range(len(events)))


def oracle_window(events, anchor, query_t, length):
    """(peer, t, idx) of anchor's newest length-1 entries before query_t."""
    log = []
    for i, (u, v, t) in enumerate(events):
        if u == anchor:
            log.append((v, t, i))
        if v == anchor:
            log.append((u, t, i))
    return [e for e in reversed(log) if e[1] < query_t][:length - 1]


def assert_rows_match_oracle(h, batch, events, sentinel):
    dts, eidxs = h.deltas_and_edges(batch)
    for i in range(len(batch)):
        anchor, t = batch.anchors[i], batch.t[i]
        peers, dt, eidx, valid = (batch.peers[i], dts[i], eidxs[i],
                                  batch.valid[i])
        want = oracle_window(events, anchor, t, peers.size)
        n = 1 + len(want)
        assert peers[0] == anchor and valid[0]
        assert dt[0] == 0.0 and eidx[0] == NO_EDGE
        assert [int(p) for p in peers[1:n]] == [e[0] for e in want]
        assert list(dt[1:n]) == [t - e[1] for e in want]
        assert [int(e) for e in eidx[1:n]] == [e[2] for e in want]
        assert valid[:n].all() and not valid[n:].any()
        assert (peers[n:] == sentinel).all()
        assert (eidx[n:] == NO_EDGE).all() and (dt[n:] == 0).all()


@pytest.mark.parametrize("length", range(1, 10))
def test_histories_shorter_than_window(length):
    """Every walk reaches a history's end before the window's: the walk
    stops early, and everything after it is padding."""
    rng = np.random.default_rng(length)
    n, events, logged = 8, [], np.zeros(8, dtype=int)
    for t in range(60):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        logged[u] += 1
        logged[v] += 1
        if logged.max() > length - 2:    # a self-loop logs twice
            logged[u] -= 1
            logged[v] -= 1
            continue
        events.append((u, v, float(t // 3)))
    h = HistoryStore(n)
    record_all(h, events)
    anchors = np.tile(np.arange(n), 3)
    last = events[-1][2] if events else 0.0
    times = np.repeat([last + 1.0, last, last / 2], n)   # ties included
    batch = h.recent_batch(anchors, times, length)
    if length > 1:
        assert not batch.valid[:, -1].any()
    assert_rows_match_oracle(h, batch, events, n)


def test_many_ties_at_query_time():
    """A run of entries at the query time is skipped, whatever its length,
    and anchors without ties keep their windows."""
    events = [(0, 1, 1.0), (0, 2, 2.0)] + [(0, 3, 5.0)] * 12 + [(1, 2, 5.0)]
    events += [(3, 2, 5.0)] * 5
    h = HistoryStore(5)
    record_all(h, events)
    anchors = [0, 1, 2, 3, 4, 0]
    batch = h.recent_batch(anchors, [5.0, 5.0, 5.0, 5.0, 5.0, 6.0], 6)
    np.testing.assert_array_equal(batch.peers[0], [0, 2, 1, 5, 5, 5])
    np.testing.assert_array_equal(batch.peers[3], [3, 5, 5, 5, 5, 5])
    np.testing.assert_array_equal(batch.peers[5], [0, 3, 3, 3, 3, 3])
    assert_rows_match_oracle(h, batch, events, 5)


def test_query_before_every_entry_is_anchor_alone():
    h = HistoryStore(3)
    record_all(h, [(0, 1, 2.0), (0, 2, 3.0)])
    batch = h.recent_batch([0, 1, 0], [2.0, 1.0, -np.inf], 4)
    np.testing.assert_array_equal(batch.valid, [[True] + [False] * 3] * 3)
    np.testing.assert_array_equal(batch.peers[:, 1:], 3)


def test_reset_leaves_anchor_alone():
    h = HistoryStore(4)
    record_all(h, [(0, 1, 1.0), (1, 2, 2.0), (0, 0, 3.0)])
    h.reset()
    seq = h.recent_batch([0, 1, 2, 3], [9.0] * 4, 5)
    np.testing.assert_array_equal(seq.peers[:, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(seq.peers[:, 1:], 4)
    dt, eidx = h.deltas_and_edges(seq)
    np.testing.assert_array_equal(eidx, NO_EDGE)
    np.testing.assert_array_equal(dt, 0.0)
    assert seq.valid.sum() == 4
    # and the log takes new entries from the start again
    record_all(h, [(2, 3, 1.0)])
    assert [log_entries(h, n) for n in range(4)] == [0, 0, 1, 1]


def test_logged_entries_equal_records(rng):
    """Each record adds one entry per side; no entry of the log's own
    (the empty entry) ever shows in a window."""
    n = 7
    src = rng.integers(0, n, 50)
    dst = rng.integers(0, n, 50)
    h = HistoryStore(n)
    for lo in range(0, 50, 9):
        h.record_batch(src[lo:lo + 9], dst[lo:lo + 9],
                       np.arange(lo, min(lo + 9, 50), dtype=float),
                       np.arange(lo, min(lo + 9, 50)))
    want = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    assert [log_entries(h, v, 128) for v in range(n)] == want.tolist()
    window = h.recent_batch(np.arange(n), np.full(n, 1e9), 128)
    eidx = h.deltas_and_edges(window)[1]
    assert (eidx[:, 1:][window.valid[:, 1:]] >= 0).all()


# few distinct timestamps, so ties cross chunk boundaries and the query time
events_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5),
              st.integers(0, 8).map(float)),
    min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(events_strategy, st.lists(st.integers(0, 40), max_size=6),
       st.integers(0, 5), st.integers(0, 9).map(float), st.integers(1, 6))
def test_sequence_matches_enumeration_oracle(events, cuts, anchor, query_t,
                                             length):
    """Replay a stream in chunks and compare against a plain-list reference.

    Self-loops are kept: the anchor then logs the event once per side.
    """
    events = sorted(events, key=lambda e: e[2])
    h = HistoryStore(6)
    bounds = sorted([0, len(events)] + [min(c, len(events)) for c in cuts])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = events[lo:hi]
        h.record_batch([e[0] for e in chunk], [e[1] for e in chunk],
                       [e[2] for e in chunk], range(lo, hi))
    log = []   # (peer, t, idx) as seen by `anchor`, append order
    for i, (u, v, t) in enumerate(events):
        if u == anchor:
            log.append((v, t, i))
        if v == anchor:
            log.append((u, t, i))

    seq = window(h, anchor, query_t, length)
    dt, eidx = h.deltas_and_edges(seq)
    past = [e for e in log if e[1] < query_t]
    want = list(reversed(past))[:length - 1]

    assert seq.peers.shape == (1, length)
    assert seq.peers[0, 0] == anchor and seq.valid[0, 0]
    assert dt[0, 0] == 0.0
    got = [(int(p), float(query_t - d), int(e))
           for p, d, e, ok in zip(seq.peers[0, 1:], dt[0, 1:],
                                  eidx[0, 1:], seq.valid[0, 1:]) if ok]
    approx = [(p, pytest.approx(t), i) for p, t, i in want]
    assert got == approx
    # padding after the valid prefix
    n_valid = 1 + len(want)
    assert not seq.valid[0, n_valid:].any()
    assert (seq.peers[0, n_valid:] == 6).all()
    # strict causality: every valid non-self delta is positive
    assert (dt[0, 1:][seq.valid[0, 1:]] > 0).all()
