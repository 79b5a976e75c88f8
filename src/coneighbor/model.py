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
g = 1 / (1 - t / 2^16), the quantised keep rate.  The tape keeps u, inv
and m, never y:
  inner layers write z = (m * u) * (inv * g) straight into the next
    layer's input [z, 1];
  the last layer pools pool = sum_p (s * inv_p) * (m_p * u_p), one matvec
    per sequence with per-position weights, where s = g / l carries the
    mean-pool's 1/l and the dropout scale.
The backward pass takes a block of sequences through every layer:
  G = dz * m, then G *= inv * g (s * inv on the last layer);
  e_p = inv_p^2 / 5d * <G_p, u_p>, then G -= e * u.
G is then the exact gradient with respect to u.  The one with respect to
the uncentred A [W; b] is G minus each row's mean, a per-row constant:
the weight and bias gradients, A^T G, are centred over the output axis
once per batch, which removes it, and the centred weights pass G @ W^T
down to an inner layer's input, their rows summing to zero.  Layer 0's
A is [raw inputs, 1, D] with D = dt * d(time encoding)/d(args), so one
GEMM gives its weight and bias gradients and D^T G, which the centred
time rows of the folded layer-0 weight contract to the time_freq
gradient.

Both passes run in blocks of whole sequences, sized by BLOCK_BYTES so that
one block's (rows, 5d) temporaries stay in a core's L2 cache instead of
streaming whole-batch arrays through memory once per elementwise step.
The forward pass keeps layers as the outer loop and every block but the
last a whole multiple of 4 sequences, so a layer's per-block draws end on
64-bit words and concatenate to one whole-layer draw, whatever
BLOCK_BYTES is.  Layer 0's input is built per block in both passes, so no
whole-batch (S, l, k) input is allocated on any batch.

Scoring uses encode(..., tape=False), which collapses the last layer and
never builds its (S, l, 5d) output.  With A_p the layer's input at
position p, layer norm needs only |A_p V|^2 = |A_p R^T|^2, where R is
the triangular factor of one float64 QR of V^T: at most k+1 columns wide
for a k-wide input, and a sum of squares, so nothing cancels.
Mean-pooling is linear, so it moves before the output map:
h = (sum_p inv_p / l * A_p) @ (V @ out_w) + out_b.  Training keeps the
full layer: dropout masks each of the 5d outputs, so the pooled sum is
no longer linear in A_p.  Scoring builds the raw input a block at a time
inside the loop that consumes it, as training does.

Everything is plain numpy.  Gradients are computed in closed form by
walking the recorded intermediates backwards; the test suite checks every
parameter tensor against central finite differences.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field
from zipfile import BadZipFile

import numpy as np

from .errors import CheckpointError, ConfigError, NumericalError

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


def _time_encode_and_grad(dt: np.ndarray, freqs: np.ndarray):
    """time_encode(dt, freqs), and dt * d/d(args) of its trig columns
    without its scale, from one cos and one sin of every argument."""
    args = dt[..., None] * freqs
    te, grad = np.cos(args), np.sin(args)
    # swap the odd columns: te = [cos, sin, ...], grad = [sin, cos, ...]
    odd = te[..., 1::2].copy()
    te[..., 1::2] = grad[..., 1::2]
    grad[..., 1::2] = odd
    te *= te.dtype.type(np.sqrt(1.0 / freqs.shape[0]))
    grad[..., 0::2] *= -1.0
    grad *= dt[..., None]
    return te, grad


def _sequence_blocks(S: int, l: int, f: int, dtype,
                     align: int = 1) -> list[slice]:
    """Slices of whole sequences, each about BLOCK_BYTES of an (l, f) stack;
    every block but the last holds a whole multiple of align sequences."""
    c = max(1, BLOCK_BYTES // (l * f * np.dtype(dtype).itemsize))
    c = -(-c // align) * align
    return [slice(lo, min(lo + c, S)) for lo in range(0, S, c)]


def _dropout_mask(rng: np.random.Generator, t: int, out: np.ndarray) -> None:
    """Fill the bool array out with keep flags: a position is kept if its
    uint16 draw is >= t.  The draws are the generator's raw 64-bit output
    read as uint16s, so masks of 4k positions each concatenate to one."""
    n = out.size
    raw = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    np.greater_equal(raw.reshape(out.shape), t, out=out)


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
    # (z_in, u, inv_std, mask) per layer: z_in is an inner layer's input
    # [z, 1], None for layer 0, whose input is rebuilt per block
    layers: list = field(default_factory=list)
    pool: np.ndarray | None = None


class LinkPredictor:
    """Stateless compute graph; parameters travel in plain dicts."""

    def __init__(self, dims: ModelDims, dropout: float):
        self.dims = dims.validate()
        if not 0.0 <= dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        self.dropout = dropout
        # dropout on the 1/2^16 grid of the uint16 draws: t of every 2^16
        # draw values drop, and the inverted scale uses that quantised rate
        self._drop_t = min(round(dropout * 65536), 65535)
        self._keep_scale = 1.0 / (1.0 - self._drop_t / 65536)

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
                               weights[0])
        drop = training and self.dropout > 0.0
        gamma = self._keep_scale if drop else 1.0
        # whole multiples of 4 sequences, so each block's uint16 draws end
        # on a 64-bit word and the blocks' draws make one per layer
        blocks = _sequence_blocks(S, l, f, dtype, align=4)
        c = blocks[0].stop if blocks else 0
        # inner layers' u, per block, when no tape keeps it
        ubuf = np.empty((c, l, f), dtype) if last and not tape else None
        mu = np.empty((c, l, f), dtype) if drop else None   # last m * u
        pool = np.empty((S, f), dtype) if tape else None
        rec = GradientTape(feats=feats, pool=pool)
        for layer, V in enumerate(weights if tape else weights[:-1]):
            z_in = z if layer else None
            u = np.empty((S, l, f), dtype) if tape else None
            inv = np.empty((S, l, 1), dtype) if tape else None
            mask = np.empty((S, l, f), dtype=bool) if drop else None
            if layer < last:
                z = np.empty((S, l, f + 1), dtype)
                z[..., f] = 1.0
            for blk in blocks:
                n = blk.stop - blk.start
                # layer 0's input [raw inputs, 1] is built per block
                ab = (self._inputs(params, feats, blk, tail=1) if z_in is None
                      else z_in[blk, :, :V.shape[0]])
                ub = u[blk] if tape else ubuf[:n]
                np.matmul(ab.reshape(-1, V.shape[0]), V, out=ub.reshape(-1, f))
                ib = _inv_std(ub, f)
                if tape:
                    inv[blk] = ib
                mb = ub
                if drop:
                    _dropout_mask(rng, self._drop_t, mask[blk])
                    mb = z[blk, :, :f] if layer < last else mu[:n]
                    np.multiply(ub, mask[blk], out=mb)
                if layer < last:
                    np.multiply(mb, ib * gamma, out=z[blk, :, :f])
                else:
                    # pool = sum_p (s * inv_p) * (m_p * u_p)
                    ib *= self._pool_scale(l, drop)
                    np.matmul(ib.reshape(n, 1, l), mb,
                              out=pool[blk].reshape(n, 1, f))
            rec.layers.append((z_in, u, inv, mask))

        if not tape:
            return self._collapsed_last_layer(
                params, feats, z[..., :f] if last else None, weights[last],
                dtype), None
        return pool @ params["out_w"] + params["out_b"], rec

    def _inputs(self, params, feats: SequenceFeatures,
                blk: slice = slice(None), tail: int = 0) -> np.ndarray:
        """Raw block inputs of the sequences blk, concatenated: (n, l, k).

        tail 1 appends a ones column, the input of V's bias row; tail 2 also
        appends dt * d(time encoding)/d(args), unscaled, for the backward
        pass: (n, l, k + 1 + d_T).
        """
        dt, freqs = feats.dt[blk], params["time_freq"]
        if tail == 2:
            te, grad = _time_encode_and_grad(dt, freqs)
        else:
            te = time_encode(dt, freqs)
        parts = [feats.node[blk], feats.edge[blk], te, feats.co_long[blk],
                 feats.co_short[blk]]
        if tail:
            parts.append(np.ones(dt.shape + (1,), te.dtype))
        if tail == 2:
            parts.append(grad)
        return np.concatenate(parts, axis=-1)

    def _collapsed_last_layer(self, params, feats, a_in, V, dtype):
        """(S, d_o) readout of the last layer, without dropout, from its
        (S, l, k) input a_in (None: the raw inputs, built per block); the
        module docstring derives the form."""
        S, l = feats.dt.shape
        k = V.shape[0] - 1
        R = np.linalg.qr(V.T.astype(np.float64), mode="r").astype(dtype)
        r_w, r_b = R[:, :k].T, R[:, k]
        wc = np.empty((S, k + 1), dtype)        # sum_p inv_p * A_p
        # no temporary here is wider than k + 1
        for blk in _sequence_blocks(S, l, k + 1, dtype):
            ab = (self._inputs(params, feats, blk) if a_in is None
                  else a_in[blk])
            u = ab.reshape(-1, k) @ r_w
            u += r_b
            # |u|^2 = |y|^2 of the f-wide layer output y
            c = _inv_std(u, self.dims.fused).reshape(-1, 1, l)
            np.matmul(c, ab, out=wc[blk, None, :k])
            wc[blk, k] = c.sum(axis=(1, 2))
        return wc @ (V @ params["out_w"] / l) + params["out_b"]

    def _pool_scale(self, l: int, drop: bool) -> float:
        """1/l of the mean-pool, times the keep scale g if dropped."""
        return (self._keep_scale if drop else 1.0) / l

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
        weights = self._centred_weights(params)
        drop = tape.layers[last][3] is not None

        grads["out_w"] += tape.pool.T @ dH
        grads["out_b"] += dH.sum(axis=0)
        dpool = dH @ params["out_w"].T

        # per layer A^T G, where G lacks the per-row mean term; centring
        # these sums over the output axis removes it.  The centred weights
        # need no such step: their rows sum to zero, so G @ W^T carries
        # the exact gradient to an inner layer's input.
        gv = [np.zeros((V.shape[0] + (0 if layer else d_T), f), dpool.dtype)
              for layer, V in enumerate(weights)]
        scales = [self._keep_scale if drop else 1.0] * last
        scales.append(self._pool_scale(l, drop))

        # no draws here, so each block runs through every layer while its
        # gradients are still in cache
        for blk in _sequence_blocks(S, l, f, dpool.dtype):
            dz = dpool[blk][:, None, :]
            for layer in reversed(range(self.dims.layers)):
                z_in, u, inv, mask = tape.layers[layer]
                ub, ib = u[blk], inv[blk]
                if mask is None:
                    G = np.array(np.broadcast_to(dz, ub.shape))
                else:
                    G = dz * mask[blk]
                G *= ib * scales[layer]
                e = np.vecdot(G, ub)[..., None]
                e *= ib * ib
                e /= f
                G -= e * ub
                G = G.reshape(-1, f)
                # layer 0's A: [raw inputs, 1, D]
                a = (z_in[blk] if layer else
                     self._inputs(params, feats, blk, tail=2))
                gv[layer] += a.reshape(-1, a.shape[-1]).T @ G
                if layer:
                    dz = (G @ weights[layer][:f].T).reshape(ub.shape)

        for g in gv:
            g -= g.mean(axis=-1, keepdims=True)
        for layer in range(1, self.dims.layers):
            grads[f"fuse{layer}_w"] += gv[layer][:f]
            grads[f"fuse{layer}_b"] += gv[layer][f]

        # layer 0 in folded form: with G_b = x_b^T G and s = sum(G),
        # d fuse0_w[b] = P_b^T G_b + p_b (x) s, d P_b = G_b W0_b^T,
        # d p_b = W0_b s
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
