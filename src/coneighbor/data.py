"""Event-stream loading, chronological splits, and negative sampling.

An event stream is a timestamp-sorted sequence of interactions (src, dst, t)
with optional per-event feature vectors.  Node ids are re-indexed to a dense
0..num_nodes-1 range on load; the value ``num_nodes`` itself is reserved as
the padding sentinel throughout the package and never appears as an endpoint.

CSV files are parsed two ways, and no option chooses between them.  A file
whose event cells are all plain numbers, in the spellings numpy's tokenizer
reads, is parsed a column at a time by one ``np.loadtxt`` call.  If that
parse, or building the graph from its columns, refuses the file for any
reason, the row reader parses it again with the csv module and Python's
``int`` and ``float``: it alone reads ``3.0`` ids, quoted cells, ``1_000``
and non-numeric labels, and it alone decides every error and line number.
The two give the same graph wherever both accept a file.
"""

from __future__ import annotations

import csv
import hashlib
import warnings
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import INDUCTIVE, TRANSDUCTIVE
from .errors import (
    ConfigError,
    DataError,
    EmptyInputError,
    EmptyMaskError,
    InsufficientDataError,
    ParseError,
    SchemaError,
)

TRAIN, VAL, TEST = "train", "val", "test"


@dataclass(frozen=True)
class CsvLayout:
    """Column layout of an edge-stream CSV file.

    The canonical layout is ``src,dst,t[,label][,f1..fk]``.  A label column,
    when present, is ignored; this package only does link prediction.  Fields
    left as ``None`` are sniffed: the header by attempting to parse the first
    row as numbers, the label column by assuming any fourth column is one.
    """

    has_header: bool | None = None
    label_column: bool | None = None
    delimiter: str = ","

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, not "
                              f"{self.delimiter!r}")


@dataclass
class TemporalGraph:
    """Struct-of-arrays view of a timestamp-sorted event stream."""

    src: np.ndarray          # (E,) int64, values in [0, num_nodes)
    dst: np.ndarray          # (E,) int64
    t: np.ndarray            # (E,) float64, non-decreasing
    edge_feats: np.ndarray   # (E, d_E) float64
    node_feats: np.ndarray   # (num_nodes, d_N) float64
    num_nodes: int
    id_map: dict[int, int] | None = None   # original id -> dense id, if remapped

    @property
    def num_events(self) -> int:
        return self.src.shape[0]

    @property
    def edge_dim(self) -> int:
        return self.edge_feats.shape[1]

    @property
    def node_dim(self) -> int:
        return self.node_feats.shape[1]

    def fingerprint(self) -> dict:
        """Node count, event count and a sha256 of src, dst and t: what a
        checkpoint records of the stream its state is replayed from."""
        h = hashlib.sha256()
        for a, dtype in ((self.src, "<i8"), (self.dst, "<i8"), (self.t, "<f8")):
            h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
        return {"num_nodes": int(self.num_nodes),
                "num_events": int(self.num_events), "sha256": h.hexdigest()}


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split boundaries plus the optional inductive node mask."""

    train_end: int
    val_end: int
    num_events: int
    mode: str = TRANSDUCTIVE
    inductive_nodes: frozenset[int] = field(default_factory=frozenset)

    def phase_range(self, phase: str) -> tuple[int, int]:
        if phase == TRAIN:
            return 0, self.train_end
        if phase == VAL:
            return self.train_end, self.val_end
        if phase == TEST:
            return self.val_end, self.num_events
        raise ValueError(f"unknown phase {phase!r}")


def _sniff_header(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return True
    return False


def _node_id(cell: str) -> int:
    """A node id; one spelled as a float, such as ``3.0``, must be integral."""
    try:
        return int(cell)
    except ValueError:
        x = float(cell)
    if not x.is_integer():      # also false for inf and nan
        raise ValueError(f"node id {cell!r} is not an integer")
    return int(x)


def _feature_start(path: Path, fmt: CsvLayout, ncols: int) -> int:
    """Index of the first feature column, given the first event row's
    column count; the label column, sniffed or told, sits before it."""
    if ncols < 3:
        raise SchemaError(
            f"{path}: need at least src,dst,t columns, got {ncols}")
    has_label = fmt.label_column
    if has_label is None:
        has_label = ncols >= 4
    if has_label and ncols < 4:
        raise SchemaError(
            f"{path}: label column requested but only {ncols} columns")
    return 4 if has_label else 3


def load_events(path: str | Path, fmt: CsvLayout = CsvLayout()) -> TemporalGraph:
    """Load a CSV event stream, sort it by time, and densify node ids.

    Rows must agree on column count (feature arity).  Malformed cells raise
    ``ParseError`` with the 1-based line number; so does a node id that is
    not an integer (``1.5``, ``inf``, ``nan``), is negative or does not fit
    in int64.  Sorting is stable, so events sharing a timestamp keep their
    file order.

    Well-formed files take ``_parse_columns``; a file that it or
    ``from_arrays`` refuses takes ``_load_rows``, which reports the error
    (see the module docstring).
    """
    path = Path(path)
    try:
        return from_arrays(*_parse_columns(path, fmt))
    except Exception:
        return _load_rows(path, fmt)


def _parse_columns(path: Path, fmt: CsvLayout):
    """The header sniff on the first rows, then one ``np.loadtxt`` pass.

    Every cell is parsed as a number, the label too, so that a quote, a
    ``#`` or a ragged row makes loadtxt raise instead of splitting a row
    otherwise than the csv module; ``usecols`` would switch off loadtxt's
    per-row column count check.  Raises StopIteration when there is no
    event row, and turns any warning loadtxt gives into an error, so the
    row reader decides every file loadtxt does not read cleanly.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=fmt.delimiter)
        rows = (row for row in reader if row)
        row = next(rows)
        has_header = fmt.has_header
        if has_header is None:
            has_header = _sniff_header(row)
        skip = reader.line_num if has_header else 0
        if has_header:
            row = next(rows)
        ncols = len(row)
        feat_start = _feature_start(path, fmt, ncols)
        fields = [("src", "<i8"), ("dst", "<i8"), ("t", "<f8")]
        if ncols > 3:
            fields.append(("rest", "<f8", (ncols - 3,)))
        fh.seek(0)
        # a warning is a refusal too: some numpy 2.x releases read an int
        # via a float (so ``1.5`` as 1) with only a DeprecationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = np.loadtxt(fh, dtype=fields, delimiter=fmt.delimiter,
                              comments=None, quotechar=None, skiprows=skip,
                              ndmin=1)
    feats = cols["rest"][:, feat_start - 3:] if feat_start < ncols else None
    return cols["src"], cols["dst"], cols["t"], feats


def _load_rows(path: Path, fmt: CsvLayout) -> TemporalGraph:
    """load_events a row at a time with the csv module: the reader that
    decides every error and accepts every spelling Python's int and float
    read."""
    has_header = fmt.has_header
    seen_row = False
    ncols = negative = None
    # int64 arrays: appending an id that does not fit raises OverflowError
    src, dst = array("q"), array("q")
    ts, feats = array("d"), []
    with path.open(newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh, delimiter=fmt.delimiter), 1):
            if not row:
                continue
            if not seen_row:
                seen_row = True
                if has_header is None:
                    has_header = _sniff_header(row)
                if has_header:
                    continue
            if ncols is None:
                ncols = len(row)
                feat_start = _feature_start(path, fmt, ncols)
                has_feats = feat_start < ncols
            if len(row) != ncols:
                raise SchemaError(
                    f"{path}: line {line_no}: expected {ncols} columns, got {len(row)}")
            try:
                try:    # the common case, without a call per id
                    u, v = int(row[0]), int(row[1])
                except ValueError:
                    u, v = _node_id(row[0]), _node_id(row[1])
                src.append(u)
                dst.append(v)
                if (u < 0 or v < 0) and negative is None:
                    # raised after the last row: a malformed row wins
                    negative = line_no, f"node id {min(u, v)} is negative"
                ts.append(float(row[2]))
                if has_feats:
                    feats.append([float(c) for c in row[feat_start:]])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            except OverflowError:
                raise ParseError(line_no, "node id outside int64") from None
    if not seen_row:
        raise EmptyInputError(f"{path}: no rows")
    if ncols is None:
        raise EmptyInputError(f"{path}: header only, no events")
    if negative is not None:
        raise ParseError(*negative)
    return from_arrays(src, dst, ts, edge_feats=(
        np.asarray(feats, dtype=np.float64) if has_feats else None))


def from_arrays(src, dst, t, edge_feats=None, node_feats=None) -> TemporalGraph:
    """Build a TemporalGraph from raw arrays: sort by time, densify ids.

    src, dst and t must be 1-d and of one length, and edge_feats, if
    given, 2-d with one row per event; anything else raises SchemaError.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    if edge_feats is None:
        edge_feats = np.zeros((src.size, 0), dtype=np.float64)
    else:
        edge_feats = np.asarray(edge_feats, dtype=np.float64)
    if (src.ndim != 1 or dst.shape != src.shape or t.shape != src.shape
            or edge_feats.ndim != 2 or len(edge_feats) != src.size):
        raise SchemaError(
            f"need 1-d src, dst, t and 2-d edge_feats with one entry or row "
            f"per event, got shapes {src.shape}, {dst.shape}, {t.shape} "
            f"and {edge_feats.shape}")
    if src.size == 0:
        raise EmptyInputError("no events")
    if not np.isfinite(t).all():
        raise DataError("timestamps must be finite")
    order = np.argsort(t, kind="stable")
    src, dst, t = src[order], dst[order], t[order]
    edge_feats = edge_feats[order]

    ids = np.unique(np.concatenate([src, dst]))
    if ids[0] < 0:
        raise DataError("negative node ids")
    id_map = None
    if ids[0] != 0 or ids[-1] != ids.size - 1:
        # gaps or offset: remap to dense 0..n-1 preserving numeric order
        src = np.searchsorted(ids, src)
        dst = np.searchsorted(ids, dst)
        id_map = {int(orig): i for i, orig in enumerate(ids)}
    num_nodes = int(ids.size)
    if node_feats is None:
        node_feats = np.zeros((num_nodes, 0), dtype=np.float64)
    else:
        node_feats = np.asarray(node_feats, dtype=np.float64)
        if node_feats.shape[0] != num_nodes:
            raise SchemaError("node_feats rows != num_nodes")
    return TemporalGraph(src, dst, t, edge_feats, node_feats,
                         num_nodes, id_map)


def chronological_split(g: TemporalGraph, train_frac: float = 0.70,
                        val_frac: float = 0.15) -> SplitSpec:
    """Index-based split of the sorted stream: floor(f*E) boundaries."""
    E = g.num_events
    train_end = int(np.floor(train_frac * E))
    val_end = int(np.floor((train_frac + val_frac) * E))
    if train_end < 1 or val_end <= train_end or val_end >= E:
        raise InsufficientDataError(
            f"cannot split {E} events into non-empty train/val/test")
    return SplitSpec(train_end=train_end, val_end=val_end, num_events=E)


def select_inductive_nodes(g: TemporalGraph, split: SplitSpec,
                           fraction: float = 0.10, seed: int = 0) -> frozenset[int]:
    """Pick floor(fraction * |eval nodes|) nodes seen in val/test, uniformly."""
    tail = slice(split.train_end, g.num_events)
    seen = np.unique(np.concatenate([g.src[tail], g.dst[tail]]))
    k = int(np.floor(fraction * seen.size))
    if k < 1:
        raise EmptyMaskError(
            f"fraction {fraction} of {seen.size} eval nodes selects none")
    rng = np.random.default_rng(seed)
    picked = rng.choice(seen, size=k, replace=False)
    return frozenset(int(n) for n in picked)


def with_inductive(split: SplitSpec, nodes: frozenset[int]) -> SplitSpec:
    return replace(split, mode=INDUCTIVE, inductive_nodes=nodes)


def _touches(g: TemporalGraph, lo: int, hi: int, nodes: frozenset[int]) -> np.ndarray:
    mask_vals = np.zeros(g.num_nodes, dtype=bool)
    mask_vals[list(nodes)] = True
    return mask_vals[g.src[lo:hi]] | mask_vals[g.dst[lo:hi]]


def train_event_indices(g: TemporalGraph, split: SplitSpec) -> np.ndarray:
    """Trainable event indices; inductive mode drops events touching masked nodes."""
    idx = np.arange(split.train_end)
    if split.mode == INDUCTIVE and split.inductive_nodes:
        idx = idx[~_touches(g, 0, split.train_end, split.inductive_nodes)]
    return idx


def scored_event_mask(g: TemporalGraph, split: SplitSpec, phase: str) -> np.ndarray:
    """Within-phase mask of events that contribute to evaluation metrics.

    Transductive mode scores every event.  Inductive mode scores only events
    with at least one masked endpoint; the rest still advance the state.
    """
    lo, hi = split.phase_range(phase)
    if split.mode == INDUCTIVE and split.inductive_nodes:
        return _touches(g, lo, hi, split.inductive_nodes)
    return np.ones(hi - lo, dtype=bool)


def destination_pool(g: TemporalGraph) -> np.ndarray:
    """Sorted unique destinations observed in the stream."""
    pool = np.unique(g.dst)
    if pool.size == 0:
        raise EmptyInputError("no destinations to sample from")
    return pool


def sample_negative(count: int, dst_pool: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the destination pool, one per requested slot.

    Draws may collide with the true destination of the paired positive; such
    collisions are kept, matching the random sampling convention.
    """
    return dst_pool[rng.integers(0, dst_pool.size, size=count)]
