import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneighbor import data
from coneighbor.data import (CsvLayout, chronological_split, destination_pool,
                             from_arrays, load_events, sample_negative,
                             scored_event_mask, select_inductive_nodes,
                             train_event_indices, with_inductive)
from coneighbor.errors import (ConfigError, DataError, EmptyInputError,
                               EmptyMaskError, InsufficientDataError,
                               ParseError, SchemaError)


def write(tmp_path, text, name="events.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadEvents:
    def test_canonical_no_header(self, tmp_path):
        g = load_events(write(tmp_path, "0,1,1.5\n1,2,2.5\n"))
        assert g.num_events == 2
        assert g.num_nodes == 3
        np.testing.assert_array_equal(g.src, [0, 1])
        np.testing.assert_array_equal(g.dst, [1, 2])
        np.testing.assert_allclose(g.t, [1.5, 2.5])

    def test_header_sniffed(self, tmp_path):
        g = load_events(write(tmp_path, "src,dst,t\n0,1,1.0\n"))
        assert g.num_events == 1

    def test_label_column_ignored(self, tmp_path):
        # four columns: the fourth is a label, not a feature
        g = load_events(write(tmp_path, "0,1,1.0,1\n1,2,2.0,0\n"))
        assert g.edge_dim == 0

    def test_label_plus_features(self, tmp_path):
        g = load_events(write(tmp_path, "0,1,1.0,0,0.5,0.25\n"))
        assert g.edge_dim == 2
        np.testing.assert_allclose(g.edge_feats[0], [0.5, 0.25])

    def test_fourth_column_as_feature_when_told(self, tmp_path):
        p = write(tmp_path, "0,1,1.0,0.5\n")
        g = load_events(p, CsvLayout(label_column=False))
        assert g.edge_dim == 1

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path, "0,1,1.0\n0,x,2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_events(p)

    def test_inconsistent_arity(self, tmp_path):
        p = write(tmp_path, "0,1,1.0,0,0.5\n0,1,2.0,0\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_events(p)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_events(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_events(write(tmp_path, "src,dst,t\n"))

    @pytest.mark.parametrize("text,line,node", [
        ("1,-2,1\n", 1, -2),
        ("src,dst,t\n0,1,1.0\n\n-3,1,2.0\n", 4, -3),
        # the first bad row in file order, not in time order
        ("\n0,1,5.0\n1,2,6.0\n2,-1,7.0\n-5,1,1.0\n", 4, -1),
    ])
    def test_negative_node_id_reports_line(self, tmp_path, text, line, node):
        with pytest.raises(ParseError,
                           match=f"^line {line}: node id {node} is negative$"):
            load_events(write(tmp_path, text))

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        # the header is the first non-blank row and sets no arity; the
        # first data row does, and line numbers count blank lines
        p = write(tmp_path, "\n\nsrc,dst\n\n0,1,1.0,0.5\n\n1,2,x,0.5\n")
        with pytest.raises(ParseError, match="line 7"):
            load_events(p)
        p = write(tmp_path, "\nsrc,dst\n\n0,1,1.0,0.5\n1,2,2.0,0.25\n\n")
        g = load_events(p)
        assert g.num_events == 2 and g.edge_dim == 0    # a label column
        p = write(tmp_path, "\n0,1,1.0\n\n0,1\n")
        with pytest.raises(SchemaError, match="line 4"):
            load_events(p)

    @pytest.mark.parametrize("text, what", [("\n\n", "no rows"),
                                            ("\nsrc,dst,t\n\n", "header only")])
    def test_blank_only_inputs(self, tmp_path, text, what):
        with pytest.raises(EmptyInputError, match=what):
            load_events(write(tmp_path, text))

    def test_out_of_order_rows_sorted(self, tmp_path):
        g = load_events(write(tmp_path, "0,1,5.0\n1,2,3.0\n"))
        np.testing.assert_allclose(g.t, [3.0, 5.0])
        assert g.src[0] == 1

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        g = load_events(write(tmp_path, "0,1,2.0\n2,3,2.0\n1,3,2.0\n"))
        np.testing.assert_array_equal(g.src, [0, 2, 1])

    def test_gapped_ids_densified_with_mapping(self, tmp_path):
        g = load_events(write(tmp_path, "10,20,1.0\n5,10,2.0\n"))
        assert g.num_nodes == 3
        assert g.id_map == {5: 0, 10: 1, 20: 2}
        np.testing.assert_array_equal(g.src, [1, 0])
        np.testing.assert_array_equal(g.dst, [2, 1])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, bad):
        with pytest.raises(DataError):
            load_events(write(tmp_path, f"0,1,1.0\n1,2,{bad}\n2,0,2.0\n"))

    def test_dense_ids_keep_identity(self, tmp_path):
        g = load_events(write(tmp_path, "0,1,1.0\n2,0,2.0\n"))
        assert g.id_map is None

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1.5", "1e20"])
    def test_non_integer_node_id_reports_line(self, tmp_path, column, bad):
        # not finite, not integral, or outside int64: never truncated
        row = ["2", "0", "2.0"]
        row[column] = bad
        p = write(tmp_path, "0,1,1.0\n" + ",".join(row) + "\n1,2,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_events(p)

    def test_integral_float_node_id_accepted(self, tmp_path):
        g = load_events(write(tmp_path, "0,1.0,1.0\n3.0,1,2.0\n"))
        assert g.id_map == {0: 0, 1: 1, 3: 2}
        np.testing.assert_array_equal(g.src, [0, 2])
        np.testing.assert_array_equal(g.dst, [1, 1])

    @pytest.mark.parametrize("delimiter", ["", "ab", None])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ConfigError, match="one character"):
            CsvLayout(delimiter=delimiter)

    def test_well_formed_file_takes_the_column_parse(self, tmp_path,
                                                     monkeypatch):
        # a numpy change that sent every file to the row reader would only
        # show as a slower load; here it fails
        def refuse(path, fmt):
            raise AssertionError("the row reader ran on a well-formed file")
        monkeypatch.setattr(data, "_load_rows", refuse)
        p = write(tmp_path, "src,dst,t,label,f1,f2\n"
                            "10,20,2.5,1,0.5,-1e-3\n\n"
                            "5,10,1.0,0,+3,.25\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_events(p)
        assert g.id_map == {5: 0, 10: 1, 20: 2}
        np.testing.assert_array_equal(g.src, [0, 1])
        np.testing.assert_array_equal(g.dst, [1, 2])
        np.testing.assert_array_equal(g.t, [1.0, 2.5])
        np.testing.assert_array_equal(g.edge_feats, [[3.0, 0.25], [0.5, -1e-3]])

    @pytest.mark.parametrize("bad", ["1.5", "nan", "inf", "1e20",
                                     "9223372036854775808"])
    def test_non_integer_id_refused_with_warnings_ignored(self, tmp_path, bad):
        # a caller that silences warnings must not let a float-spelled id
        # through the column parse
        p = write(tmp_path, f"0,1,1.0\n{bad},2,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError, match="line 2"):
                load_events(p)

    def test_column_parse_that_only_warns_is_refused(self, tmp_path,
                                                     monkeypatch):
        # numpy releases that read an int via a float warn and return a
        # truncated id instead of raising; the row reader must decide
        def warn_and_truncate(fh, dtype, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated",
                          DeprecationWarning)
            return np.ones(2, dtype=dtype)
        monkeypatch.setattr(np, "loadtxt", warn_and_truncate)
        p = write(tmp_path, "0,1,1.0\n1.5,2,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError, match="line 2"):
                load_events(p)


# spellings that one of the two parsers may refuse, by column kind
ODD_IDS = ["+3", " 4 ", "007", "-0", "3.0", "-2", "1e3", "1_0", "1.5", "nan",
           "\u0663", "9223372036854775808", "-9223372036854775809", '"5"',
           "", "x", "#1"]
ODD_NUMBERS = ["nan", "inf", "-Infinity", "NaN", "1_000", ".5", "1.", " 2.5 ",
               "+4", "1e400", "1e-320", "0x1p3", "\u0663", '"2.0"', "", "x",
               "#1"]
ODD_LABELS = ["yes", '"a,b"', '"x', "", "1.5", "-1", "1_0"]
ODD_LINES = ["", " ", "\t", "#", "# note", ",,", '"', "0,1"]


@st.composite
def csv_texts(draw):
    """A CSV text near the canonical layout, with a few odd spellings or
    lines, and the layout to load it with."""
    k = draw(st.integers(0, 3))
    label = draw(st.booleans())
    ids = st.integers(0, 30) | st.integers(0, 2 ** 63 - 1)
    numbers = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers(-5, 99).map(str))
    rows = draw(st.lists(st.tuples(ids, ids, numbers,
                                   st.sampled_from(["0", "1"]),
                                   st.lists(numbers, min_size=k, max_size=k)),
                         min_size=1, max_size=6))
    cells = [[str(u), str(v), t] + ([y] if label else []) + f
             for u, v, t, y, f in rows]
    lines = [None] * len(cells)     # None: the event row of that index
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(cells) - 1))
        kind = draw(st.sampled_from(["cell", "quote", "drop", "extra", "line"]))
        c = draw(st.integers(0, len(cells[r]) - 1))
        if kind == "cell":
            odd = (ODD_IDS if c < 2 else ODD_LABELS if label and c == 3
                   else ODD_NUMBERS)
            cells[r][c] = draw(st.sampled_from(odd))
        elif kind == "quote":
            cells[r][c] = f'"{cells[r][c]}"'
        elif kind == "drop":
            cells[r].pop()
        elif kind == "extra":
            cells[r].append("0")
        else:
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(ODD_LINES)))
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", " "]))
    rows = iter(cells)
    body = [delimiter.join(next(rows)) if line is None else line
            for line in lines]
    header = draw(st.sampled_from([None, "src,dst,t", "a", "1,2", ""]))
    if header is not None:
        body.insert(0, header.replace(",", delimiter))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(body) + draw(st.sampled_from([end, ""]))
    fmt = CsvLayout(has_header=draw(st.sampled_from([None, True, False])),
                    label_column=draw(st.sampled_from([None, True, False])),
                    delimiter=delimiter)
    return text, fmt


def _outcome(load, path, fmt):
    """The graph, or the type and message of what loading raised; loading
    must not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return load(path, fmt)
        except Exception as exc:
            return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_column_parse_agrees_with_row_reader(tmp_path_factory, case):
    text, fmt = case
    p = tmp_path_factory.mktemp("csv") / "events.csv"
    p.write_bytes(text.encode())
    got = _outcome(load_events, p, fmt)
    want = _outcome(data._load_rows, p, fmt)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    for name in ("src", "dst", "t", "edge_feats"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert (got.num_nodes, got.id_map) == (want.num_nodes, want.id_map)


class TestSplit:
    def test_boundaries_70_85(self):
        g = from_arrays(np.zeros(100, int), np.ones(100, int), np.arange(100.0))
        s = chronological_split(g)
        assert (s.train_end, s.val_end) == (70, 85)

    def test_floor_boundaries(self):
        g = from_arrays(np.zeros(10, int), np.ones(10, int), np.arange(10.0))
        s = chronological_split(g)
        assert (s.train_end, s.val_end) == (7, 8)

    def test_too_few_events(self):
        g = from_arrays([0, 1], [1, 0], [0.0, 1.0])
        with pytest.raises(InsufficientDataError):
            chronological_split(g)

    def test_phase_ranges_partition(self):
        g = from_arrays(np.zeros(40, int), np.ones(40, int), np.arange(40.0))
        s = chronological_split(g)
        ranges = [s.phase_range(p) for p in ("train", "val", "test")]
        assert ranges[0][0] == 0 and ranges[-1][1] == 40
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo


class TestInductive:
    def graph(self):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 10, 60)
        dst = (src + 1 + rng.integers(0, 9, 60)) % 10
        return from_arrays(src, dst, np.arange(60.0))

    def test_fraction_counts_eval_nodes(self):
        g = self.graph()
        s = chronological_split(g)
        nodes = select_inductive_nodes(g, s, fraction=0.2, seed=0)
        tail = slice(s.train_end, g.num_events)
        seen = set(g.src[tail]) | set(g.dst[tail])
        assert len(nodes) == int(0.2 * len(seen))
        assert nodes <= seen

    def test_empty_selection_raises(self):
        g = self.graph()
        s = chronological_split(g)
        with pytest.raises(EmptyMaskError):
            select_inductive_nodes(g, s, fraction=0.01, seed=0)

    def test_deterministic_per_seed(self):
        g = self.graph()
        s = chronological_split(g)
        a = select_inductive_nodes(g, s, 0.3, seed=5)
        b = select_inductive_nodes(g, s, 0.3, seed=5)
        c = select_inductive_nodes(g, s, 0.3, seed=6)
        assert a == b
        assert a != c  # overwhelmingly likely for this graph

    def test_train_filter_removes_masked(self):
        g = self.graph()
        s = with_inductive(chronological_split(g),
                           select_inductive_nodes(g, chronological_split(g), 0.3, 0))
        idx = train_event_indices(g, s)
        for i in idx:
            assert g.src[i] not in s.inductive_nodes
            assert g.dst[i] not in s.inductive_nodes

    def test_scored_events_touch_masked(self):
        g = self.graph()
        base = chronological_split(g)
        s = with_inductive(base, select_inductive_nodes(g, base, 0.3, 0))
        for phase in ("val", "test"):
            lo, _ = s.phase_range(phase)
            mask = scored_event_mask(g, s, phase)
            for off in np.flatnonzero(mask):
                i = lo + off
                assert (g.src[i] in s.inductive_nodes
                        or g.dst[i] in s.inductive_nodes)

    def test_transductive_scores_everything(self):
        g = self.graph()
        s = chronological_split(g)
        assert scored_event_mask(g, s, "val").all()


class TestNegativeSampling:
    def test_draws_come_from_pool(self, rng):
        pool = np.array([3, 5, 9])
        neg = sample_negative(50, pool, rng)
        assert set(neg) <= set(pool)

    def test_collision_with_true_destination_allowed(self, rng):
        pool = np.array([4])
        neg = sample_negative(10, pool, rng)
        np.testing.assert_array_equal(neg, np.full(10, 4))

    def test_deterministic_under_seeded_rng(self):
        pool = np.arange(20)
        a = sample_negative(30, pool, np.random.default_rng(9))
        b = sample_negative(30, pool, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_roughly_uniform(self):
        pool = np.arange(10)
        draws = sample_negative(10_000, pool, np.random.default_rng(0))
        freq = np.bincount(draws, minlength=10) / 10_000
        # each p=0.1 with sigma ~ 0.003 at n=1e4; allow 5 sigma
        assert np.all(np.abs(freq - 0.1) < 0.015)

    def test_destination_pool_sorted_unique(self, tiny_graph):
        pool = destination_pool(tiny_graph)
        np.testing.assert_array_equal(pool, np.unique(tiny_graph.dst))


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 40), st.integers(3, 120), st.integers(0, 2 ** 16))
def test_from_arrays_invariants(num_nodes, num_events, seed):
    r = np.random.default_rng(seed)
    src = r.integers(0, num_nodes, num_events)
    dst = r.integers(0, num_nodes, num_events)
    t = r.uniform(0, 100, num_events)
    g = from_arrays(src, dst, t)
    assert np.all(np.diff(g.t) >= 0)
    assert g.src.max() < g.num_nodes and g.dst.max() < g.num_nodes
    assert g.src.min() >= 0
    # ids are dense: every id below num_nodes occurs somewhere
    seen = np.union1d(g.src, g.dst)
    np.testing.assert_array_equal(seen, np.arange(g.num_nodes))


@pytest.mark.parametrize("kw", [
    dict(src=[0, 1, 2]),                    # src longer than dst and t
    dict(dst=[1, 2, 0]),                    # dst longer than src and t
    dict(t=[0.0, 1.0, 2.0]),                # t longer than src and dst
    dict(edge_feats=np.ones((3, 2))),       # a feature row with no event
])
def test_length_mismatch_rejected(kw):
    with pytest.raises(SchemaError, match="one entry or row per event"):
        from_arrays(**{**dict(src=[0, 1], dst=[1, 2], t=[0.0, 1.0]), **kw})


def test_negative_node_ids_rejected():
    with pytest.raises(DataError):
        from_arrays([-1, 0], [0, 1], [0.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_timestamps_rejected(bad):
    with pytest.raises(DataError):
        from_arrays([0, 1, 2], [1, 2, 0], [1.0, bad, 2.0])


class TestFingerprint:
    def base(self):
        return dict(src=[0, 1, 2], dst=[1, 2, 0], t=[1.0, 2.0, 3.0])

    def test_same_stream_same_fingerprint(self):
        a = from_arrays(**self.base()).fingerprint()
        b = from_arrays(**self.base(), edge_feats=np.ones((3, 2))).fingerprint()
        assert a == b       # features are not part of it
        assert (a["num_nodes"], a["num_events"]) == (3, 3)

    @pytest.mark.parametrize("key,value", [("src", [0, 1, 1]),
                                           ("dst", [1, 2, 1]),
                                           ("t", [1.0, 2.0, 3.5])])
    def test_any_endpoint_or_time_changes_it(self, key, value):
        changed = dict(self.base(), **{key: value})
        assert (from_arrays(**changed).fingerprint()["sha256"]
                != from_arrays(**self.base()).fingerprint()["sha256"])
