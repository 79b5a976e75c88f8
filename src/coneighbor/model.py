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

Layer norm ignores a common shift of its input row, so its centring lives
in the weights: every layer computes with W - (row means of W) and
b - mean(b), its rows leave the matmul with zero mean, and layer norm
only scales them.  The backward pass drops the mean(dy) term, which is a
per-row constant, and centres the small weight and bias gradients once
per batch instead; the centred weights carry the gradient to each layer's
input.  On the last layer the dropout scale 1/(1-p) joins the mean-pool's
1/l in one pooling vector.  The time-frequency gradient is contracted
from A^T da, where A = dt * d(time encoding)/d(args), against the centred
time rows of the folded layer-0 weight.

Both passes run in blocks of whole sequences, sized by BLOCK_BYTES so that
one block's (rows, 5d) temporaries stay in a core's L2 cache instead of
streaming whole-batch arrays through memory once per elementwise step.
The forward pass keeps layers as the outer loop, so the dropout draws are
taken in the same order as one whole-array draw per layer.

Scoring uses encode(..., tape=False), which collapses the last layer and
never builds its (S, l, 5d) output.  With A_p = [a_p, 1] the layer's
input at position p and V = [W; b] its centred weight and bias, layer
norm needs only |A_p V|^2 = |A_p R^T|^2, where R is the triangular factor
of one float64 QR of V^T: at most k+1 columns wide for a k-wide input,
and a sum of squares, so nothing cancels.  Mean-pooling is linear, so it
moves before the output map: h = (sum_p inv_p / l * A_p) @ (V @ out_w)
+ out_b.  Training keeps the tape and the full layer: dropout masks each
of the 5d outputs, so the pooled sum is no longer linear in A_p, and the
backward pass needs every position's output.

Scoring never builds the whole (S, l, k) raw input either: each block's
time encoding and concatenation are made inside the block loop that
consumes them (the collapsed last layer's, or layer 0's when there are
more layers), so they stay in cache, and no whole-batch input is
allocated, filled and freed on every scored batch.  Only the training
tape keeps the whole input, for the backward pass.

Everything is plain numpy.  Gradients are computed in closed form by
walking the recorded intermediates backwards; the test suite checks every
parameter tensor against central finite differences.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field
from zipfile import BadZipFile

import numpy as np

from .errors import ConfigError, NumericalError, SnapshotError

PARAMS_VERSION = 3
# checkpoint entries that are not parameters
_META = ("__version__", "__dims__", "__config__", "__stream__")
CLAMP_EPS = 1e-7
LN_EPS = 1e-5
# the five d-wide blocks of the fused input, in concatenation order
BLOCKS = ("node", "edge", "time", "co_long", "co_short")
# bytes of one (rows, 5d) slice per encoder block: a block's temporaries
# then fit a 2 MiB L2 cache several times over
BLOCK_BYTES = 256 * 1024


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
    of this version raises SnapshotError, and so does one whose parameter
    names and shapes differ from ``param_shapes`` of its dims.
    """
    try:
        with np.load(path) as z:
            version = int(z["__version__"])
            if version != PARAMS_VERSION:
                raise SnapshotError(f"unsupported checkpoint version {version}")
            dims = ModelDims(*(int(x) for x in z["__dims__"]))
            config = json.loads(str(z["__config__"]))
            stream = json.loads(str(z["__stream__"]))
            if not isinstance(stream, dict):
                raise SnapshotError(f"checkpoint {path}: __stream__ is not "
                                    "a stream fingerprint")
            params = {k: z[k] for k in z.files if k not in _META}
        want = param_shapes(dims)
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError, EOFError, BadZipFile) as e:
        raise SnapshotError(f"unreadable checkpoint {path}: {e}") from e
    got = {k: v.shape for k, v in params.items()}
    bad = sorted(k for k in want.keys() | got.keys()
                 if want.get(k) != got.get(k))
    if bad:
        raise SnapshotError(f"checkpoint {path}: parameters {bad} missing, "
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


def _layer_norm_centred(x: np.ndarray, eps: float = LN_EPS) -> np.ndarray:
    """Layer norm, in place, of rows that already have zero mean.

    Scales each row over the last axis to unit RMS and returns inv_std,
    shaped (..., 1), for the backward pass.
    """
    inv = _inv_std(x, x.shape[-1], eps)
    x *= inv
    return inv


def _layer_norm_centred_backward(dy: np.ndarray, y: np.ndarray,
                                 inv: np.ndarray) -> np.ndarray:
    """In place, dy becomes inv * (dy - y * mean(dy * y)).

    The full layer-norm gradient also subtracts mean(dy), a per-row
    constant; the caller removes it by centring what it accumulates.
    """
    m2 = np.einsum("...i,...i->...", dy, y)[..., None]
    m2 /= y.shape[-1]
    dy -= y * m2
    dy *= inv
    return dy


def _time_encode_grad(dt: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """dt * d/d(args) of time_encode's trig columns, without its scale."""
    args = dt[..., None] * freqs
    out = np.empty_like(args)
    out[..., 0::2] = -np.sin(args[..., 0::2])
    out[..., 1::2] = np.cos(args[..., 1::2])
    out *= dt[..., None]
    return out


def _sequence_blocks(S: int, l: int, f: int, dtype) -> list[slice]:
    """Slices of whole sequences, each about BLOCK_BYTES of an (l, f) stack."""
    c = max(1, BLOCK_BYTES // (l * f * np.dtype(dtype).itemsize))
    return [slice(lo, min(lo + c, S)) for lo in range(0, S, c)]


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


@dataclass
class GradientTape:
    """Forward intermediates needed for the exact backward pass."""

    feats: SequenceFeatures
    x: np.ndarray                    # raw block inputs, concatenated
    # (z_in, y, inv_std, mask) per layer; layer 0's input is x, so z_in is None
    layers: list = field(default_factory=list)
    pool: np.ndarray | None = None
    h: np.ndarray | None = None


class LinkPredictor:
    """Stateless compute graph; parameters travel in plain dicts."""

    def __init__(self, dims: ModelDims, dropout: float):
        self.dims = dims.validate()
        if not 0.0 <= dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        self.dropout = dropout

    # -- forward -------------------------------------------------------

    def encode(self, params, feats: SequenceFeatures, training: bool = False,
               rng: np.random.Generator | None = None, *, tape: bool = True):
        """Sequences -> (S, d_o) node representations plus the tape.

        With tape False, for scoring only, the tape is None and the last
        layer is computed in collapsed form (see the module docstring).
        """
        if training and self.dropout > 0.0 and rng is None:
            raise ConfigError("training forward with dropout needs an rng")
        if training and not tape:
            raise ConfigError("a training forward pass must keep its tape")
        weights = self._centred_weights(params)
        S, l = feats.dt.shape
        f, last = self.dims.fused, self.dims.layers - 1
        dtype = np.result_type(feats.dt, feats.node, feats.edge, feats.co_long,
                               feats.co_short, params["time_freq"],
                               weights[0][0])
        blocks = _sequence_blocks(S, l, f, dtype)
        drop = training and self.dropout > 0.0
        if drop:
            c = blocks[0].stop if blocks else 0
            draws = np.empty((c, l, f))           # float64, as rng.random gives
            z_last = np.empty((c, l, f), dtype)   # last layer's y * mask
        # mean-pool over positions, padded ones included in the divisor,
        # carrying the last layer's inverted-dropout scale
        pool_vec = np.full(l, self._pool_scale(l, drop), dtype)

        # without a tape the raw inputs x are built a block at a time
        x = self._inputs(params, feats) if tape else None
        rec = GradientTape(feats=feats, x=x)
        pool = np.empty((S, f), dtype)
        z_in, a_in = None, x
        for layer, (w, b) in enumerate(weights if tape else weights[:-1]):
            if layer:
                z_in = a_in = z
            y = np.empty((S, l, f), dtype)
            inv = np.empty((S, l, 1), dtype)
            mask = np.empty((S, l, f), dtype=bool) if drop else None
            z = np.empty_like(y) if drop and layer < last else y
            for blk in blocks:
                yb = y[blk]
                ab = self._block_input(params, feats, a_in, blk)
                np.matmul(ab.reshape(-1, ab.shape[-1]), w,
                          out=yb.reshape(-1, f))
                yb += b
                inv[blk] = _layer_norm_centred(yb)
                zb = yb
                if drop:
                    n = blk.stop - blk.start
                    np.greater_equal(rng.random(out=draws[:n]), self.dropout,
                                     out=mask[blk])
                    zb = z[blk] if layer < last else z_last[:n]
                    np.multiply(yb, mask[blk], out=zb)
                    if layer < last:
                        zb /= 1.0 - self.dropout
                if layer == last:
                    np.matmul(pool_vec, zb, out=pool[blk])
            rec.layers.append((z_in, y, inv, mask))

        if not tape:
            a_in = z if last else None
            return self._collapsed_last_layer(params, feats, a_in,
                                              *weights[last], dtype), None
        h = pool @ params["out_w"] + params["out_b"]
        rec.pool, rec.h = pool, h
        return h, rec

    def _inputs(self, params, feats: SequenceFeatures,
                blk: slice = slice(None)) -> np.ndarray:
        """Raw block inputs of the sequences blk, concatenated: (n, l, k)."""
        te = time_encode(feats.dt[blk], params["time_freq"])
        return np.concatenate([feats.node[blk], feats.edge[blk], te,
                               feats.co_long[blk], feats.co_short[blk]],
                              axis=-1)

    def _block_input(self, params, feats, a_in, blk):
        """Rows blk of a layer's input a_in; None stands for the raw
        inputs, which are then built for those rows only."""
        return self._inputs(params, feats, blk) if a_in is None else a_in[blk]

    def _collapsed_last_layer(self, params, feats, a_in, w, b, dtype):
        """(S, d_o) readout of the last layer, without dropout, from its
        (S, l, k) input a_in (None: the raw inputs, built per block); the
        module docstring derives the form."""
        S, l = feats.dt.shape
        k = w.shape[0]
        V = np.vstack([w, b])
        R = np.linalg.qr(V.T.astype(np.float64), mode="r").astype(dtype)
        r_w, r_b = R[:, :k].T, R[:, k]
        wc = np.empty((S, k + 1), dtype)        # sum_p inv_p * A_p
        # no temporary here is wider than k + 1
        for blk in _sequence_blocks(S, l, k + 1, dtype):
            ab = self._block_input(params, feats, a_in, blk)
            u = ab.reshape(-1, k) @ r_w
            u += r_b
            # |u|^2 = |y|^2 of the f-wide layer output y
            c = _inv_std(u, self.dims.fused).reshape(-1, 1, l)
            np.matmul(c, ab, out=wc[blk, None, :k])
            wc[blk, k] = c.sum(axis=(1, 2))
        return wc @ (V @ params["out_w"] / l) + params["out_b"]

    def _pool_scale(self, l: int, drop: bool) -> float:
        """1/l of the mean-pool, times the last layer's 1/(1-p) if dropped."""
        return 1.0 / (l * (1.0 - self.dropout)) if drop else 1.0 / l

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
        """Per layer (W - row means of W, b - mean(b)); layer 0 folded.

        Every output row of a_in @ W + b then has zero mean, which is the
        centring layer norm would do on each (S, l, 5d) row.
        """
        layers = [self._fold_layer0(params)] + [
            (params[f"fuse{k}_w"], params[f"fuse{k}_b"])
            for k in range(1, self.dims.layers)]
        return [(_centre(w), _centre(b)) for w, b in layers]

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
        merge concatenation.
        """
        H, tape = self.encode(params, feats, training=training, rng=rng)
        pa, pb = (np.asarray(i, dtype=np.int64) for i in pos_pairs)
        na, nb = (np.asarray(i, dtype=np.int64) for i in neg_pairs)
        pos_pairs, neg_pairs = (pa, pb), (na, nb)
        p_pos = self.score(params, H[pa], H[pb])
        p_neg = self.score(params, H[na], H[nb])
        loss = bce_loss(p_pos, p_neg)

        eps = CLAMP_EPS
        interior_p = (p_pos > eps) & (p_pos < 1.0 - eps)
        interior_n = (p_neg > eps) & (p_neg < 1.0 - eps)
        dlogit_p = np.where(interior_p, -(1.0 - p_pos) / pa.shape[0], 0.0)
        dlogit_n = np.where(interior_n, p_neg / na.shape[0], 0.0)

        grads = {k: np.zeros_like(v) for k, v in params.items()}
        d_o = self.dims.out_dim
        w_m = params["merge_w"][:, 0]
        dH = np.zeros_like(H)
        for (ia, ib), dlg, pp in ((pos_pairs, dlogit_p, p_pos),
                                  (neg_pairs, dlogit_n, p_neg)):
            cat = np.concatenate([H[ia], H[ib]], axis=-1)
            grads["merge_w"][:, 0] += cat.T @ dlg
            grads["merge_b"][0] += dlg.sum()
            dcat = dlg[:, None] * w_m
            np.add.at(dH, ia, dcat[:, :d_o])
            np.add.at(dH, ib, dcat[:, d_o:])

        self._backward_encode(params, grads, tape, dH)
        return loss, grads, (p_pos, p_neg)

    def _backward_encode(self, params, grads, tape: GradientTape,
                         dH: np.ndarray) -> None:
        feats = tape.feats
        S, l = feats.dt.shape
        d, f, d_T = self.dims.hidden, self.dims.fused, self.dims.time_dim
        last = self.dims.layers - 1
        x = tape.x
        weights = self._centred_weights(params)
        drop = tape.layers[last][3] is not None

        grads["out_w"] += tape.pool.T @ dH
        grads["out_b"] += dH.sum(axis=0)
        dpool = dH @ params["out_w"].T
        dpool *= self._pool_scale(l, drop)

        # per layer, a_in^T da and sum(da), where da lacks layer norm's
        # per-row mean(dy) term; centring these sums over the output axis
        # removes it.  The centred weights need no such step: their rows
        # sum to zero, so da @ W^T carries the exact gradient to a_in.
        gw = [np.zeros((w.shape[0], f), np.result_type(w, dpool))
              for w, _ in weights]
        gb = [np.zeros(f, dpool.dtype) for _ in weights]
        # A^T da over the time-encoding inputs; the centred time rows of
        # the folded layer-0 weight contract it to the time_freq gradient
        lo_t = feats.node.shape[-1] + feats.edge.shape[-1]
        w_t = weights[0][0][lo_t:lo_t + d_T]
        gt = np.zeros((d_T, f), np.result_type(feats.dt, dpool))

        # no draws here, so each block runs through every layer while its
        # gradients are still in cache
        for blk in _sequence_blocks(S, l, f, dpool.dtype):
            dz = dpool[blk][:, None, :]
            for layer in reversed(range(self.dims.layers)):
                z_in, y, inv, mask = tape.layers[layer]
                if mask is None:
                    dy = np.array(np.broadcast_to(dz, y[blk].shape))
                else:
                    dy = dz * mask[blk]
                    if layer < last:
                        dy /= 1.0 - self.dropout
                da = _layer_norm_centred_backward(dy, y[blk], inv[blk])
                da = da.reshape(-1, f)
                a_in = x if layer == 0 else z_in
                gw[layer] += a_in[blk].reshape(-1, a_in.shape[-1]).T @ da
                gb[layer] += da.sum(axis=0)
                if layer:
                    dz = (da @ weights[layer][0].T).reshape(dy.shape)
            A = _time_encode_grad(feats.dt[blk], params["time_freq"])
            gt += A.reshape(-1, d_T).T @ da

        for g in gw + gb:
            g -= g.mean(axis=-1, keepdims=True)
        for layer in range(1, self.dims.layers):
            grads[f"fuse{layer}_w"] += gw[layer]
            grads[f"fuse{layer}_b"] += gb[layer]

        # layer 0 in folded form: with G_b = x_b^T da and s = sum(da),
        # d fuse0_w[b] = P_b^T G_b + p_b (x) s, d P_b = G_b W0_b^T,
        # d p_b = W0_b s
        G, s = gw[0], gb[0]
        w0 = params["fuse0_w"]
        grads["fuse0_b"] += s
        lo = 0
        for i, name in enumerate(BLOCKS):
            rows = slice(i * d, (i + 1) * d)
            w0_b, p_w = w0[rows], params[f"proj_{name}_w"]
            k = p_w.shape[0]          # k may be zero
            G_b = G[lo:lo + k]
            grads["fuse0_w"][rows] += p_w.T @ G_b + np.outer(params[f"proj_{name}_b"], s)
            grads[f"proj_{name}_w"] += G_b @ w0_b.T
            grads[f"proj_{name}_b"] += w0_b @ s
            lo += k

        sc = np.sqrt(1.0 / d_T)
        grads["time_freq"] += sc * np.einsum("ij,ij->i", gt, w_t)


# -- optimizer --------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params, grads, state: AdamState, lr: float = 1e-4,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One in-place Adam update with bias correction.

    Aborts with diagnostics if any gradient is non-finite; silently
    producing NaN parameters would poison every later batch.
    """
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
