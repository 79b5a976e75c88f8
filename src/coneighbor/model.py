"""Sequence encoder, link scorer, exact manual backprop, and Adam.

The encoder maps each padded neighbor sequence to a vector: Fourier-style
time encoding of the deltas, affine projections of node features, edge
features, time encoding, and the two structure-count blocks to a shared
width d, concatenation to width 5d, L affine+layernorm+dropout fusion
layers, mean-pooling over sequence positions, and an affine readout.  Two
encoded endpoints are scored with a sigmoid over an affine merge.

The projections and the first fusion layer are computed as the one affine
map they compose to.  Block b's projection x_b @ P_b + p_b meets only the
d rows W0_b of fuse0_w, so layer 0's input to its layernorm is
sum_b x_b @ (P_b @ W0_b) + (fuse0_b + sum_b p_b @ W0_b).  The raw block
inputs are only d_N + d_E + d_T + 4 wide, so this never builds the
(S, l, 5d) concatenation; the parameters and the function are unchanged.

Every fusion layer is one matmul u = A V, where A = [a, 1] is its input
with a ones column and V = [W - row means of W; b - mean(b)] (layer 0:
the folded weight and bias).  Layer norm ignores a common shift of its
input row, so the centring lives in V: u leaves the matmul with
zero-mean rows, and layer norm only scales them, y = inv * u with
inv = 1 / sqrt(|u|^2 / 5d + eps).  Training drops each of y's 5d outputs
with a mask m.  A position is kept if its uint16 draw is >= t, where
t = min(round(p * 2^16), 2^16 - 1) and the draws are the generator's raw
64-bit output read as uint16s; kept outputs are scaled by
g = 1 / (1 - t / 2^16), the quantised keep rate.

A training step (loss_and_grads) takes the pairs, positives first, in
blocks of whole pairs sized by PAIR_BLOCK_BYTES, forward and backward
while each is in cache.  A block gathers its sequences interleaved,
[a0, b0, a1, b1, ...], so readout rows 2i and 2i + 1 are pair i's merge
input; a sequence that two pairs name is encoded twice.  Pair i's masks
are one run of 2 L l 5d draws, layer by layer, side a then side b, and
the runs follow in pair order, whatever the block size: when a run ends
mid-word (L l 5d odd), blocks hold an even number of pairs.  A block
builds layer 0's A = [raw inputs, 1, D] once, D = dt * d(time
encoding)/d(args), and keeps each layer's u, inv and m, never y:
  inner layers write z = (m * u) * (inv * g) into the next [z, 1];
  the last layer pools pool = sum_p (s * inv_p) * (m_p * u_p), one matvec
    per sequence, where s = g / l carries the mean-pool's 1/l.
After scoring, the backward pass runs from dz = dH @ out_w^T through
every layer: G = dz * m, G *= inv * g (s * inv on the last layer),
e_p = inv_p^2 / 5d * <G_p, u_p>, G -= e * u; the layer adds A^T G and
passes dz = G @ W^T down.  G is the exact gradient with respect to u.
The one with respect to the uncentred A [W; b] is G minus each row's
mean, a per-row constant: centring the summed A^T G over the output axis
once per batch removes it, and the centred weights' rows sum to zero.
Layer 0's A^T G holds its weight and bias gradients and D^T G, which the
centred time rows of the folded weight contract to the time_freq
gradient.  The block's (rows, 5d) temporaries live in scratch that the
predictor sizes at first use and reuses, one set per thread.

A step runs its blocks as W contiguous shards: the calling thread runs
shard 0 and a shared thread pool the others, W = min(blocks,
MAX_WORKERS, CPUs // BLAS threads), so W = 1 when BLAS is unpinned.
Every sum (each layer's A^T G, the merge and out gradients) takes its
blocks' terms in block order: shard 0 adds its own as it goes, the other
shards keep theirs, and the caller adds them after shard 0's, so each
sum has the one-thread operands in the one-thread order.  Shard s draws
its masks from a copy of the generator advanced to its first block's
64-bit word (every block before it ends on a whole word), and the
generator ends past every draw.  Loss, gradients, probabilities and
generator state are therefore the same bytes at any W.  Evaluation hands
the pool one scoring job at a time when W > 1 (``overlapped``).

Scoring (encode) runs inner layers in blocks of whole sequences sized by
BLOCK_BYTES, building layer 0's [raw inputs, 1] per block as training
does, and collapses the last layer, never building its (S, l, 5d)
output.  With a_p the last layer's k-wide input at position p and
A_p = [a_p, 1], the form every layer's input already has, layer norm
needs only |A_p V|^2 = |A_p R^T|^2, where R is the triangular factor of
one float64 QR of V^T, applied whole: at most k+1 columns wide, and a sum
of squares, so nothing cancels.  Mean-pooling is linear, so it moves
before the output map: h = (sum_p inv_p / l * A_p) @ (V @ out_w) + out_b.
Training keeps the full layer: the masks make the pooled sum nonlinear
in A_p.  Every layer's V, R and V @ out_w depend on the parameters
alone, so ``scoring_weights`` builds them once per evaluation phase.

Everything is plain numpy.  Gradients are computed in closed form by
walking each block's intermediates backwards; the test suite checks every
parameter tensor against central finite differences.
"""

from __future__ import annotations

import copy
import json
import math
import os
import threading
from dataclasses import astuple, dataclass
from zipfile import BadZipFile

import numpy as np

from .errors import CheckpointError, ConfigError, NumericalError

PARAMS_VERSION = 4
# checkpoint entries that are not parameters
_META = ("__version__", "__dims__", "__config__", "__stream__")
CLAMP_EPS = 1e-7
LN_EPS = 1e-5
# the five d-wide blocks of the fused input, in concatenation order
BLOCKS = ("node", "edge", "time", "co_long", "co_short")
# bytes of one (rows, 5d) slice per scoring block: a block's temporaries
# then fit a 2 MiB L2 cache.  Each of a block's numpy calls lets another
# thread take the GIL, so a scoring job on the pool (harness.evaluate)
# in blocks of 256 KiB stalled the stream loop beside it
BLOCK_BYTES = 512 * 1024
# the same for a training block of pairs, which keeps every layer's
# (rows, 5d) temporaries until its backward pass
PAIR_BLOCK_BYTES = 512 * 1024
# raw 64-bit draws per generator call: 64 KiB, under glibc's default mmap
# threshold, so drawing a block's masks maps no fresh pages
DRAW_WORDS = 8192
# the variables that set each BLAS call's thread count, first match wins
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ModelDims:
    node_dim: int
    edge_dim: int
    time_dim: int
    hidden: int
    out_dim: int
    layers: int

    def validate(self) -> "ModelDims":
        if self.node_dim < 0 or self.edge_dim < 0:
            raise ConfigError("feature dims must be >= 0")
        if self.time_dim < 2 or self.time_dim % 2:
            raise ConfigError("time_dim must be an even integer >= 2")
        if min(self.hidden, self.out_dim, self.layers) < 1:
            raise ConfigError("hidden, out_dim, layers must be positive")
        return self

    @property
    def fused(self) -> int:
        # five concatenated d-wide blocks: node, edge, time, long counts,
        # short counts
        return 5 * self.hidden


@dataclass
class SequenceFeatures:
    """Raw per-sequence inputs, stacked over S sequences of length l."""

    dt: np.ndarray        # (S, l) float
    node: np.ndarray      # (S, l, d_N)
    edge: np.ndarray      # (S, l, d_E)
    co_long: np.ndarray   # (S, l, 2) already scaled to [0, 1]
    co_short: np.ndarray  # (S, l, 2)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
            dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def init_time_frequencies(time_dim: int, time_span: float,
                          dtype=np.float64) -> np.ndarray:
    """Geometric ladder 1/10^((i-1)*alpha/d_T), slowest period ~2x the span."""
    span = max(float(time_span), 1.0)
    alpha = max(0.0, time_dim / (time_dim - 1) * np.log10(2.0 * span / (2 * np.pi)))
    i = np.arange(time_dim, dtype=np.float64)
    return (10.0 ** (-i * alpha / time_dim)).astype(dtype)


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order ``init_params`` draws them."""
    dims.validate()
    d, f = dims.hidden, dims.fused
    shapes = {"time_freq": (dims.time_dim,)}
    for name, fan_in in zip(BLOCKS, (dims.node_dim, dims.edge_dim,
                                     dims.time_dim, 2, 2)):
        shapes[f"proj_{name}_w"] = (fan_in, d)
        shapes[f"proj_{name}_b"] = (d,)
    for layer in range(dims.layers):
        shapes[f"fuse{layer}_w"] = (f, f)
        shapes[f"fuse{layer}_b"] = (f,)
    shapes["out_w"] = (f, dims.out_dim)
    shapes["out_b"] = (dims.out_dim,)
    shapes["merge_w"] = (2 * dims.out_dim, 1)
    shapes["merge_b"] = (1,)
    return shapes


def init_params(dims: ModelDims, seed: int, time_span: float = 1.0,
                dtype=np.float64) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, geometric time frequencies."""
    rng = np.random.default_rng([seed, 0x0DE])
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(dims).items():
        if name == "time_freq":
            p[name] = init_time_frequencies(dims.time_dim, time_span, dtype)
        elif name.endswith("_w"):
            p[name] = _glorot(rng, *shape, dtype)
        else:
            p[name] = np.zeros(shape, dtype=dtype)
    return p


def copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def save_params(path, params: dict[str, np.ndarray], dims: ModelDims,
                config: dict, stream: dict) -> None:
    """Write the parameters with the dims and the run config that made them,
    and the fingerprint of the stream they were trained on
    (``TemporalGraph.fingerprint``)."""
    np.savez(path, __version__=PARAMS_VERSION,
             __dims__=np.array(astuple(dims)),
             __config__=np.array(json.dumps(config, sort_keys=True)),
             __stream__=np.array(json.dumps(stream, sort_keys=True)),
             **params)


def load_params(path) -> tuple[dict[str, np.ndarray], ModelDims, dict, dict]:
    """Parameters, dims, run config and stream fingerprint of a checkpoint
    from ``save_params``.

    A missing file raises OSError; any other file that is not a checkpoint
    of this version raises CheckpointError, and so does one whose parameter
    names and shapes differ from ``param_shapes`` of its dims.
    """
    try:
        with np.load(path) as z:
            version = int(z["__version__"])
            if version != PARAMS_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            dims = ModelDims(*(int(x) for x in z["__dims__"]))
            config = json.loads(str(z["__config__"]))
            stream = json.loads(str(z["__stream__"]))
            for name, value in (("__config__", config), ("__stream__", stream)):
                if not isinstance(value, dict):
                    raise CheckpointError(f"checkpoint {path}: {name} is not "
                                          "a JSON object")
            params = {k: z[k] for k in z.files if k not in _META}
        want = param_shapes(dims)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, EOFError, BadZipFile) as e:
        raise CheckpointError(f"unreadable checkpoint {path}: {e}") from e
    got = {k: v.shape for k, v in params.items()}
    bad = sorted(k for k in want.keys() | got.keys()
                 if want.get(k) != got.get(k))
    if bad:
        raise CheckpointError(f"checkpoint {path}: parameters {bad} missing, "
                            f"unexpected or misshapen for {dims}")
    return params, dims, config, stream


def time_encode(dt: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """sqrt(1/d_T) * [cos(dt*w_1), sin(dt*w_2), cos(dt*w_3), ...].

    Even output columns are cosines, odd are sines, each with its own
    frequency.  A zero delta therefore encodes to the fixed pattern
    sqrt(1/d_T)*[1, 0, 1, 0, ...].
    """
    args = dt[..., None] * freqs
    out = np.empty_like(args)
    out[..., 0::2] = np.cos(args[..., 0::2])
    out[..., 1::2] = np.sin(args[..., 1::2])
    # a scale of out's own dtype keeps a float32 product in float32
    out *= out.dtype.type(np.sqrt(1.0 / freqs.shape[0]))
    return out


def _centre(w: np.ndarray) -> np.ndarray:
    """w minus its mean over the last (output) axis."""
    return w - w.mean(axis=-1, keepdims=True)


def _inv_std(x: np.ndarray, n: int, eps: float = LN_EPS) -> np.ndarray:
    """1 / sqrt(sum of squares over the last axis / n + eps), as (..., 1)."""
    inv = np.einsum("...i,...i->...", x, x)[..., None]
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    return inv


def _blocks(n: int, size: int, budget: int, align: int = 1) -> list[slice]:
    """Slices of n items of size bytes, each about budget bytes; every
    block but the last holds a whole multiple of align items."""
    c = -(-max(1, budget // size) // align) * align
    return [slice(lo, min(lo + c, n)) for lo in range(0, n, c)]


def _dropout_mask(rng: np.random.Generator, t: int, out: np.ndarray) -> None:
    """Fill the flat bool array out with keep flags: a position is kept if
    its uint16 draw is >= t.  The draws are the generator's raw 64-bit
    output read as uint16s, DRAW_WORDS words per call."""
    for lo in range(0, out.size, 4 * DRAW_WORDS):
        c = min(4 * DRAW_WORDS, out.size - lo)
        raw = rng.bit_generator.random_raw(-(-c // 4)).view(np.uint16)
        np.greater_equal(raw[:c], t, out=out[lo:lo + c])


# most workers a training step uses: BENCH_10.json measured speed and
# peak memory at 2 (2 CPUs); more threads contend for the GIL, and their
# speed and memory are unmeasured
MAX_WORKERS = 2


def _default_workers() -> int:
    """Threads for a training step's pair blocks and for scoring (the
    stream loop and one scoring job): the CPUs this process may run on
    over the threads each BLAS call takes, the first of BLAS_ENV that is
    set, at most MAX_WORKERS.  Unset, unreadable or below 1 (OpenBLAS
    then starts a thread per core), BLAS takes every CPU: one worker."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = next((os.environ[v] for v in BLAS_ENV if os.environ.get(v)), "")
    try:
        blas = int(blas)
    except ValueError:
        blas = cpus
    if blas < 1:
        blas = cpus
    return max(1, min(MAX_WORKERS, cpus // blas))


# worker count of a training step and of scoring; the tests set it directly
_WORKERS = _default_workers()
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """The shared executor, made at first use.  It starts a thread only
    when no started one is idle, so a step of W shards keeps W - 1."""
    global _POOL
    # imported here: with its logging import it adds 0.6 MB to every
    # process, and only one that trains on several workers needs it
    from concurrent.futures import ThreadPoolExecutor
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(os.cpu_count(), "coneighbor-shard")
        return _POOL


def _drop_pool() -> None:
    # a forked child has none of its parent's threads
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _run_shards(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], fn(0) on this thread and the rest on the
    pool.  Returns, or raises the first error in shard order, only once
    every call has finished."""
    futures = [_pool().submit(fn, s) for s in range(1, n)]
    try:
        first = fn(0)
    finally:
        for fu in futures:
            fu.exception()          # waits for the call, raises nothing
    return [first] + [fu.result() for fu in futures]


def overlapped(fn, items) -> list:
    """[fn(*x) for x in items].  When _WORKERS > 1 each call is a job on
    the pool that runs while the caller draws the next x, at most one job
    at a time.  Returns, or raises the first error in item order, only
    once no job is running."""
    if _WORKERS == 1:
        return [fn(*x) for x in items]
    out, job = [], None
    try:
        for x in items:
            if job is not None:
                out.append(job.result())
            job = _pool().submit(fn, *x)
        if job is not None:
            out.append(job.result())
    except BaseException:
        if job is not None:
            job.result()        # waits; the job's error comes first in order
        raise
    return out


def _add_block(grads, gv, head, atg) -> None:
    """Add one pair block's terms from ``_pair_block`` to the sums."""
    for k, term in head.items():
        grads[k] += term
    for g, term in zip(gv, atg):
        g += term


class _PerThread(threading.local):
    """A predictor's scratch buffers, one dict per thread."""

    def __init__(self):
        self.buffers = {}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_loss(p_pos: np.ndarray, p_neg: np.ndarray,
             eps: float = CLAMP_EPS) -> float:
    """Mean over pairs of -log p(link) - log(1 - p(no-link)), probs clamped."""
    pp = np.clip(p_pos, eps, 1.0 - eps)
    pn = np.clip(p_neg, eps, 1.0 - eps)
    return float(-np.log(pp).mean() - np.log1p(-pn).mean())


class LinkPredictor:
    """Encoder and scorer; parameters travel in plain dicts."""

    def __init__(self, dims: ModelDims, dropout: float):
        self.dims = dims.validate()
        if not 0.0 <= dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        self.dropout = dropout
        # dropout on the 1/2^16 grid of the uint16 draws: t of every 2^16
        # draw values drop, and the inverted scale uses that quantised rate
        self._drop_t = min(round(dropout * 65536), 65535)
        self._keep_scale = 1.0 / (1.0 - self._drop_t / 65536)
        self._local = _PerThread()

    # -- forward -------------------------------------------------------

    def encode(self, params, feats: SequenceFeatures, *,
               weights=None) -> np.ndarray:
        """Sequences -> (S, d_o) node representations, for scoring: no
        dropout, and the last layer in collapsed form (see the module
        docstring).  weights is ``scoring_weights(params)``, computed here
        when not given."""
        if weights is None:
            weights = self.scoring_weights(params)
        layers, R, VW = weights
        S, l = feats.dt.shape
        f = self.dims.fused
        dtype = np.result_type(feats.dt, feats.node, feats.edge, feats.co_long,
                               feats.co_short, params["time_freq"],
                               layers[0])
        z = None
        for V in layers[:-1]:
            z_in, z = z, np.empty((S, l, f + 1), dtype)
            z[..., f] = 1.0
            for blk in _blocks(S, l * f * np.dtype(dtype).itemsize,
                               BLOCK_BYTES):
                n = blk.stop - blk.start
                ab = (self._layer0_input(params, feats, blk, self._scratch(
                    "a0", (n, l, V.shape[0]), dtype)) if z_in is None
                      else z_in[blk])
                ub = self._scratch(("u", 0), (n, l, f), dtype)
                np.matmul(ab.reshape(-1, V.shape[0]), V, out=ub.reshape(-1, f))
                np.multiply(ub, _inv_std(ub, f), out=z[blk, :, :f])
        return self._collapsed_last_layer(params, feats, z, R.astype(dtype),
                                          VW, dtype)

    def scoring_weights(self, params):
        """What encode derives from params alone: the centred weights of
        every layer (layer 0 folded), the last layer's triangular factor R
        in float64 and its V @ out_w.  Params that do not change, as in an
        evaluation phase, need them once."""
        layers = self._centred_weights(params)
        V = layers[-1]
        R = np.linalg.qr(V.T.astype(np.float64), mode="r")
        return layers, R, V @ params["out_w"]

    def _collapsed_last_layer(self, params, feats, z, R, VW, dtype):
        """(S, d_o) readout of the last layer, without dropout, from its
        (S, l, k + 1) input A = [a, 1]: z, or layer 0's when z is None,
        built per block; the module docstring derives the form."""
        S, l = feats.dt.shape
        k1 = R.shape[1]
        wc = np.empty((S, k1), dtype)        # sum_p inv_p * A_p
        # no temporary here is wider than k + 1
        for blk in _blocks(S, l * k1 * np.dtype(dtype).itemsize, BLOCK_BYTES):
            ab = (self._layer0_input(params, feats, blk, self._scratch(
                "a0", (blk.stop - blk.start, l, k1), dtype)) if z is None
                  else z[blk])
            u = ab.reshape(-1, k1) @ R.T
            # |u|^2 = |y|^2 of the f-wide layer output y
            c = _inv_std(u, self.dims.fused).reshape(-1, 1, l)
            np.matmul(c, ab, out=wc[blk, None])
        return wc @ (VW / l) + params["out_b"]

    def _fold_layer0(self, params):
        """Projections composed with fuse0: (sum_b k_b, 5d) weight, 5d bias."""
        d = self.dims.hidden
        w0 = params["fuse0_w"]
        ws, b = [], params["fuse0_b"]
        for i, name in enumerate(BLOCKS):
            w0_b = w0[i * d:(i + 1) * d]
            ws.append(params[f"proj_{name}_w"] @ w0_b)
            b = b + params[f"proj_{name}_b"] @ w0_b
        return np.concatenate(ws), b

    def _centred_weights(self, params):
        """Per layer V = [W - row means of W; b - mean(b)]; layer 0 folded.

        Every output row of [a_in, 1] @ V then has zero mean, which is the
        centring layer norm would do on each (S, l, 5d) row.
        """
        layers = [self._fold_layer0(params)] + [
            (params[f"fuse{k}_w"], params[f"fuse{k}_b"])
            for k in range(1, self.dims.layers)]
        return [np.vstack([_centre(w), _centre(b)]) for w, b in layers]

    def score(self, params, h_a: np.ndarray, h_b: np.ndarray) -> np.ndarray:
        """Pairwise link probability; order of (a, b) matters."""
        cat = np.concatenate([h_a, h_b], axis=-1)
        logit = cat @ params["merge_w"][:, 0] + params["merge_b"][0]
        return _sigmoid(logit)

    # -- loss + gradients ---------------------------------------------

    def loss_and_grads(self, params, feats: SequenceFeatures,
                       pos_pairs, neg_pairs, training: bool = False,
                       rng: np.random.Generator | None = None):
        """Scalar loss, exact parameter gradients, and the pair probabilities.

        pos_pairs/neg_pairs are (a_idx, b_idx) index arrays into the stacked
        sequence axis; a is always the representation placed first in the
        merge concatenation.  A sequence is encoded once per pair side
        that names it (see the module docstring).
        """
        drop = training and self.dropout > 0.0
        if drop and rng is None:
            raise ConfigError("training with dropout needs an rng")
        a, b = (np.concatenate([pos_pairs[i], neg_pairs[i]]).astype(np.int64)
                for i in (0, 1))
        n_pos, P = len(pos_pairs[0]), a.shape[0]
        weights = self._centred_weights(params)
        l = feats.dt.shape[1]
        f, L = self.dims.fused, self.dims.layers
        dtype = np.result_type(feats.dt, feats.node, feats.edge, feats.co_long,
                               feats.co_short, params["time_freq"],
                               weights[0])
        # two pairs' draws end on a 64-bit word when one pair's do not
        blocks = _blocks(P, 2 * l * f * np.dtype(dtype).itemsize,
                         PAIR_BLOCK_BYTES, align=1 if L * l * f % 2 == 0 else 2)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        # per layer A^T G (layer 0's A: [raw inputs, 1, D])
        gv = [np.zeros((V.shape[0] + (0 if k else self.dims.time_dim), f),
                       dtype) for k, V in enumerate(weights)]
        is_pos = np.arange(P) < n_pos
        count = np.where(is_pos, n_pos, P - n_pos).astype(dtype)
        probs = np.empty(P, dtype)
        W = max(1, min(len(blocks), _WORKERS))     # no pairs: one empty shard
        if drop and not isinstance(rng.bit_generator, (np.random.PCG64,
                                                       np.random.PCG64DXSM)):
            W = 1       # only these advance by one 64-bit word per draw
        cut = [len(blocks) * s // W for s in range(W + 1)]
        shards = [blocks[lo:hi] for lo, hi in zip(cut, cut[1:])]
        # shard 0 draws from rng, shard s from a copy advanced to its first
        # block's word: every block before it ends on a whole word
        gens = [rng if drop else None] + [
            np.random.Generator(copy.deepcopy(rng.bit_generator).advance(
                sh[0].start * 2 * L * l * f // 4)) if drop else None
            for sh in shards[1:]]

        def shard(s):
            """Shard 0 adds each block into grads and gv; the others keep
            theirs, to be added after it in block order."""
            kept = []
            for blk in shards[s]:
                atg = ([self._scratch(("atg", k), g.shape, dtype)
                        for k, g in enumerate(gv)] if s == 0 else
                       [np.empty_like(g) for g in gv])
                probs[blk], head = self._pair_block(
                    params, feats, weights, a[blk], b[blk], is_pos[blk],
                    count[blk], atg, gens[s])
                if s == 0:
                    _add_block(grads, gv, head, atg)
                else:
                    kept.append((head, atg))
            return kept

        for kept in _run_shards(shard, W)[1:]:
            for head, atg in kept:
                _add_block(grads, gv, head, atg)
        if drop and W > 1:
            # rng ends past every draw, where the last shard's copy ended;
            # its buffered 32-bit half-word, which raw draws never touch,
            # is kept
            state = rng.bit_generator.state
            state["state"] = gens[-1].bit_generator.state["state"]
            rng.bit_generator.state = state

        for g in gv:
            g -= g.mean(axis=-1, keepdims=True)
        for layer in range(1, L):
            grads[f"fuse{layer}_w"] += gv[layer][:f]
            grads[f"fuse{layer}_b"] += gv[layer][f]

        # layer 0 in folded form: with G_b = x_b^T G and s = sum(G),
        # d fuse0_w[b] = P_b^T G_b + p_b (x) s, d P_b = G_b W0_b^T,
        # d p_b = W0_b s
        d, d_T = self.dims.hidden, self.dims.time_dim
        k = weights[0].shape[0] - 1
        G, s, gt = gv[0][:k], gv[0][k], gv[0][k + 1:]
        w0 = params["fuse0_w"]
        grads["fuse0_b"] += s
        lo = 0
        for i, name in enumerate(BLOCKS):
            rows = slice(i * d, (i + 1) * d)
            w0_b, p_w = w0[rows], params[f"proj_{name}_w"]
            kb = p_w.shape[0]          # kb may be zero
            G_b = G[lo:lo + kb]
            grads["fuse0_w"][rows] += p_w.T @ G_b + np.outer(params[f"proj_{name}_b"], s)
            grads[f"proj_{name}_w"] += G_b @ w0_b.T
            grads[f"proj_{name}_b"] += w0_b @ s
            lo += kb
        # the time rows of the folded layer-0 weight contract D^T G to the
        # time_freq gradient
        lo_t = feats.node.shape[-1] + feats.edge.shape[-1]
        w_t = weights[0][lo_t:lo_t + d_T]
        grads["time_freq"] += np.sqrt(1.0 / d_T) * np.einsum("ij,ij->i", gt,
                                                             w_t)
        p_pos, p_neg = probs[:n_pos], probs[n_pos:]
        return bce_loss(p_pos, p_neg), grads, (p_pos, p_neg)

    def _scratch(self, name, shape, dtype) -> np.ndarray:
        """An uninitialised array kept by the predictor for the calling
        thread and reused, grown when a call needs more; valid until the
        thread's next request for name."""
        n = math.prod(shape)
        buffers = self._local.buffers
        buf = buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < n:
            buf = buffers[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)

    def _pair_block(self, params, feats, weights, a, b, is_pos, count,
                    atg, rng):
        """Forward, score and backward of m pairs: returns the
        probabilities and the block's terms of the merge and out
        gradients, and writes each layer's A^T G into atg.  count holds
        each pair's class size; rng is None when nothing is dropped."""
        m, l = a.shape[0], feats.dt.shape[1]
        n, f, d_T = 2 * m, self.dims.fused, self.dims.time_dim
        L, last = self.dims.layers, self.dims.layers - 1
        dtype = atg[0].dtype
        k = weights[0].shape[0] - 1
        q = (m, 2, l, f)                # a pair's two sequences on one axis
        idx = np.stack([a, b], axis=1).ravel()    # [a0, b0, a1, b1, ...]
        a0 = self._layer0_input(params, feats, idx,
                                self._scratch("a0", (n, l, k + 1 + d_T), dtype))
        drop = rng is not None
        gamma = self._keep_scale if drop else 1.0
        scales = [gamma] * last + [gamma / l]    # s = g / l on the last
        if drop:
            # each pair's run of 2 L l f draws: layer by layer, a then b
            masks = self._scratch("masks", (m, L, 2, l, f), bool)
            _dropout_mask(rng, self._drop_t, masks.reshape(-1))

        # forward; G holds the last layer's m * u until the backward pass
        G = self._scratch("G", (n, l, f), dtype)
        us, invs, ins = [], [], [a0[..., :k + 1]]
        for layer, V in enumerate(weights):
            u = self._scratch(("u", layer), (n, l, f), dtype)
            np.matmul(ins[layer].reshape(-1, V.shape[0]), V,
                      out=u.reshape(-1, f))
            us.append(u)
            invs.append(_inv_std(u, f))
            out = (G if layer == last else
                   self._scratch(("z", layer + 1), (n, l, f + 1), dtype))
            mu = out[..., :f]
            if drop:
                np.multiply(u.reshape(q), masks[:, layer], out=mu.reshape(q))
            if layer < last:
                out[..., f] = 1.0
                np.multiply(mu if drop else u, invs[-1] * gamma, out=mu)
                ins.append(out)
        # pool = sum_p (s * inv_p) * (m_p * u_p)
        pool = np.matmul((invs[last] * scales[last]).reshape(n, 1, l),
                         G if drop else us[last]).reshape(n, f)
        H = pool @ params["out_w"] + params["out_b"]

        # score: pair i's merge input is rows 2i and 2i + 1 of H
        cat = H.reshape(m, -1)
        w_m = params["merge_w"][:, 0]
        p = _sigmoid(cat @ w_m + params["merge_b"][0])
        interior = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
        dlogit = np.where(interior, (p - is_pos) / count, 0.0)
        dH = (dlogit[:, None] * w_m).reshape(n, -1)
        head = {"merge_w": (cat.T @ dlogit)[:, None],
                "merge_b": dlogit.sum(keepdims=True),
                "out_w": pool.T @ dH, "out_b": dH.sum(axis=0)}

        # backward through every layer while the block is in cache; a
        # layer's u is dead once e * u is taken, so its buffer takes e * u
        # and then the next dz
        dz = (dH @ params["out_w"].T)[:, None, :]
        for layer in reversed(range(L)):
            u, inv = us[layer], invs[layer]
            if drop:
                np.multiply(dz.reshape(m, 2, -1, f), masks[:, layer],
                            out=G.reshape(q))
            else:
                G[...] = dz
            G *= inv * scales[layer]
            e = np.vecdot(G, u)[..., None]
            e *= inv * inv
            e /= f
            G -= np.multiply(u, e, out=u)
            A = a0 if layer == 0 else ins[layer]
            G2 = G.reshape(-1, f)
            np.matmul(A.reshape(-1, A.shape[-1]).T, G2, out=atg[layer])
            if layer:
                dz = np.matmul(G2, weights[layer][:f].T,
                               out=u.reshape(-1, f)).reshape(n, l, f)
        return p, head

    def _layer0_input(self, params, feats, idx, out):
        """Write layer 0's input [raw inputs, 1] of the sequences idx into
        out[..., :k + 1], k = d_N + d_E + d_T + 4, and, when out is wider
        (training), D = dt * d(time encoding)/d(args) of its trig columns,
        unscaled, into out[..., k + 1:]; returns out."""
        d_N, d_T = feats.node.shape[-1], self.dims.time_dim
        t0 = d_N + feats.edge.shape[-1]
        k = t0 + d_T + 4
        dt = feats.dt[idx][..., None]
        out[..., :d_N] = feats.node[idx]
        out[..., d_N:t0] = feats.edge[idx]
        out[..., t0 + d_T:k - 2] = feats.co_long[idx]
        out[..., k - 2:k] = feats.co_short[idx]
        out[..., k] = 1.0
        te = out[..., t0:t0 + d_T]
        # cos and sin of the arguments, contiguous, in G's buffer (unused yet)
        cos, sin = self._scratch("G", (2,) + dt.shape[:2] + (d_T,), out.dtype)
        np.multiply(dt, params["time_freq"], out=cos)
        np.sin(cos, out=sin)
        np.cos(cos, out=cos)
        scale = out.dtype.type(np.sqrt(1.0 / d_T))
        np.multiply(cos[..., 0::2], scale, out=te[..., 0::2])
        np.multiply(sin[..., 1::2], scale, out=te[..., 1::2])
        if out.shape[-1] > k + 1:
            # d/d(args) of [cos, sin, ...] is [-sin, cos, ...]
            np.multiply(sin[..., 0::2], -dt, out=out[..., k + 1::2])
            np.multiply(cos[..., 1::2], dt, out=out[..., k + 2::2])
        return out


# -- optimizer --------------------------------------------------------


@dataclass
class AdamState:
    """Moments per parameter, the step count, and ``scratch``: two rows as
    long as the largest parameter, which every step works in so that it
    allocates no parameter-sized array.  All parameters share one dtype."""
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: np.ndarray
    step: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    size = max(p.size for p in params.values())
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()},
                     scratch=np.empty((2, size),
                                      np.result_type(*params.values())))


def adam_step(params, grads, state: AdamState, lr: float = 1e-4,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One in-place Adam update with bias correction.

    Computes ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 - beta2)
    g g`` and ``p -= lr (m / c1) / (sqrt(v / c2) + eps)`` operation by
    operation in that order, into the state's scratch rows.

    Aborts with diagnostics if any gradient is non-finite; silently
    producing NaN parameters would poison every later batch.
    """
    for k, g in grads.items():
        # min and max carry any NaN and reach any inf, without a g-sized mask
        if not np.isfinite([g.min(initial=0), g.max(initial=0)]).all():
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise NumericalError(
                f"non-finite gradient in {k!r} at step {state.step + 1} "
                f"({bad}/{g.size} entries)")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for k, p in params.items():
        g = grads[k]
        m = state.m[k]
        v = state.v[k]
        a, b = (row[:p.size].reshape(p.shape) for row in state.scratch)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)
        v *= beta2
        np.multiply(1.0 - beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, c1, out=a)
        np.multiply(lr, a, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        p -= np.divide(a, b, out=a)
