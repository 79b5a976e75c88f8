import dataclasses
import inspect
import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest

from coneighbor import model
from coneighbor.config import RunConfig
from coneighbor.errors import CheckpointError, ConfigError, NumericalError
from coneighbor.model import (BLOCKS, CLAMP_EPS, PARAMS_VERSION, AdamState,
                              LinkPredictor, ModelDims, SequenceFeatures,
                              adam_init, adam_step, bce_loss, copy_params,
                              init_params, init_time_frequencies, load_params,
                              param_shapes, save_params, time_encode)


def make_feats(rng, S=6, l=3, d_N=2, d_E=1):
    return SequenceFeatures(
        dt=rng.uniform(0.0, 5.0, (S, l)),
        node=rng.normal(size=(S, l, d_N)),
        edge=rng.normal(size=(S, l, d_E)),
        co_long=rng.uniform(0.0, 1.0, (S, l, 2)),
        co_short=rng.uniform(0.0, 1.0, (S, l, 2)))


SMALL = ModelDims(node_dim=2, edge_dim=1, time_dim=4, hidden=3, out_dim=2,
                  layers=2)
POS = (np.array([0, 1]), np.array([2, 3]))
NEG = (np.array([0, 1]), np.array([4, 5]))


class TestDims:
    def test_fused_is_five_blocks(self):
        assert SMALL.fused == 15

    @pytest.mark.parametrize("kw", [dict(time_dim=5), dict(time_dim=0),
                                    dict(hidden=0), dict(layers=0),
                                    dict(node_dim=-1), dict(out_dim=0)])
    def test_invalid_dims_rejected(self, kw):
        with pytest.raises(ConfigError):
            dataclasses.replace(SMALL, **kw).validate()


class TestTimeEncode:
    def test_zero_delta_pattern(self):
        freqs = np.array([0.5, 1.0, 2.0, 4.0])
        enc = time_encode(np.zeros((2, 3)), freqs)
        want = np.sqrt(1.0 / 4) * np.array([1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(enc, np.broadcast_to(want, (2, 3, 4)))

    def test_even_cos_odd_sin_per_column(self):
        freqs = np.array([0.3, 0.7, 1.3, 2.9])
        dt = np.array([[1.7]])
        enc = time_encode(dt, freqs)[0, 0]
        sc = np.sqrt(1.0 / 4)
        np.testing.assert_allclose(
            enc, sc * np.array([np.cos(1.7 * 0.3), np.sin(1.7 * 0.7),
                                np.cos(1.7 * 1.3), np.sin(1.7 * 2.9)]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [False, True])
    def test_layer0_input_is_the_concatenated_raw_inputs(self, rng, dtype,
                                                         training):
        # the one layer-0 builder writes time_encode's columns bit for bit,
        # for scoring's [raw inputs, 1] and training's [raw inputs, 1, D]
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=6, hidden=4,
                         out_dim=3, layers=1)
        params, feats = TestTapeFreeEncode.setup(rng, dims, dtype=dtype)
        feats.dt *= dtype(1e4)
        S, l = feats.dt.shape
        width = 2 + 1 + 6 + 4 + 1 + (6 if training else 0)
        out = LinkPredictor(dims, 0.1)._layer0_input(
            params, feats, slice(None), np.empty((S, l, width), dtype))
        want = np.concatenate(
            [feats.node, feats.edge, time_encode(feats.dt, params["time_freq"]),
             feats.co_long, feats.co_short, np.ones((S, l, 1), dtype)], axis=-1)
        assert out.dtype == want.dtype == dtype
        assert out[..., :14].tobytes() == want.tobytes()

    def test_frequency_ladder_geometric_and_span_anchored(self):
        span = 500.0
        freqs = init_time_frequencies(8, span)
        assert freqs[0] == 1.0
        ratios = freqs[1:] / freqs[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        # slowest component completes half a cycle over twice the span
        assert 2 * np.pi / freqs[-1] == pytest.approx(2 * span, rel=1e-12)

    def test_short_span_collapses_to_unit_frequencies(self):
        np.testing.assert_array_equal(init_time_frequencies(6, 1.0),
                                      np.ones(6))


class TestLayerNorm:
    """The forward helper only finds 1/RMS: centring lives in the weights."""

    def test_rows_standardized(self, rng):
        x = rng.normal(3.0, 2.5, (5, 64))
        x -= x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = model._inv_std(x, x.shape[-1])
        y = x * inv
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        # unit RMS up to the eps under the square root
        np.testing.assert_allclose(np.sqrt(np.mean(y * y, axis=-1)), 1.0,
                                   atol=1e-5)
        np.testing.assert_allclose(inv, 1.0 / np.sqrt(var + model.LN_EPS))

    def test_constant_row_maps_to_zero(self):
        # a constant row leaves the centred weights as a zero row
        x = np.zeros((2, 8))
        inv = model._inv_std(x, 8)
        np.testing.assert_array_equal(x * inv, np.zeros((2, 8)))
        np.testing.assert_allclose(inv, 1.0 / np.sqrt(model.LN_EPS))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_matches_out_of_place(self, rng, dtype):
        x = rng.normal(3.0, 2.5, (4, 6, 25))
        x -= x.mean(axis=-1, keepdims=True)
        x = x.astype(dtype)
        want_inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True)
                                 + model.LN_EPS)
        inv = model._inv_std(x, x.shape[-1])
        assert inv.shape == (4, 6, 1) and inv.dtype == dtype
        rtol = 1e-12 if dtype == np.float64 else 1e-6
        np.testing.assert_allclose(inv, want_inv, rtol=rtol)


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        p = init_params(SMALL, seed=3)
        for name, w in p.items():
            if name.endswith("_b"):
                assert not w.any()
            elif name.endswith("_w"):
                limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
                assert np.abs(w).max() <= limit
        assert p["merge_w"].shape == (2 * SMALL.out_dim, 1)
        assert p["fuse1_w"].shape == (15, 15)

    def test_shapes_and_order_are_param_shapes(self):
        p = init_params(SMALL, seed=3)
        assert [(k, v.shape) for k, v in p.items()] == list(
            param_shapes(SMALL).items())

    def test_seed_determinism_and_dtype(self):
        a = init_params(SMALL, seed=7, dtype=np.float32)
        b = init_params(SMALL, seed=7, dtype=np.float32)
        c = init_params(SMALL, seed=8, dtype=np.float32)
        for k in a:
            assert a[k].dtype == np.float32
            np.testing.assert_array_equal(a[k], b[k])
        assert any((a[k] != c[k]).any() for k in a if k.endswith("_w"))


class TestScore:
    def test_order_sensitive_by_construction(self):
        p = init_params(SMALL, seed=0)
        p["merge_w"][:, 0] = np.r_[np.zeros(SMALL.out_dim),
                                   np.ones(SMALL.out_dim)]
        pred = LinkPredictor(SMALL, dropout=0.0)
        h_a = np.array([[1.0, 0.0]])
        h_b = np.array([[0.0, 3.0]])
        ab = pred.score(p, h_a, h_b)
        ba = pred.score(p, h_b, h_a)
        assert ab != ba      # the merge sees only its second argument here

    def test_sigmoid_range_and_symmetry_point(self):
        p = init_params(SMALL, seed=0)
        pred = LinkPredictor(SMALL, dropout=0.0)
        h = np.zeros((4, SMALL.out_dim))
        s = pred.score(p, h, h)
        np.testing.assert_allclose(s, 0.5)   # zero logits from zero biases


class TestBce:
    def test_pinned_values(self):
        assert bce_loss(np.array([0.5]), np.array([0.5])) == pytest.approx(
            2 * np.log(2.0))
        assert bce_loss(np.array([1.0]), np.array([0.0])) == pytest.approx(
            -2 * np.log1p(-CLAMP_EPS))

    def test_clamp_keeps_loss_finite(self):
        v = bce_loss(np.array([0.0, 1e-30]), np.array([1.0]))
        assert np.isfinite(v)
        # both sides clamp to eps distance from their target
        assert v == pytest.approx(-2 * np.log(CLAMP_EPS), rel=1e-6)

    def test_averages_within_each_class(self):
        got = bce_loss(np.array([0.9, 0.8]), np.array([0.3]))
        want = -(np.log(0.9) + np.log(0.8)) / 2 - np.log(0.7)
        assert got == pytest.approx(want)


def numeric_grads(pred, params, feats, keys, h=1e-5, rng_seed=None):
    """Central finite differences; the dropout stream is replayed per call."""

    def loss_of(p):
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        return pred.loss_and_grads(p, feats, POS, NEG,
                                   training=rng_seed is not None, rng=rng)[0]

    out = {}
    for k in keys:
        g = np.zeros_like(params[k])
        for idx in np.ndindex(params[k].shape):
            p2 = copy_params(params)
            p2[k][idx] += h
            up = loss_of(p2)
            p2[k][idx] -= 2 * h
            down = loss_of(p2)
            g[idx] = (up - down) / (2 * h)
        out[k] = g
    return out


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


class TestGradients:
    def test_every_tensor_matches_finite_differences(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.0)
        params = init_params(SMALL, seed=1, time_span=5.0)
        feats = make_feats(rng)
        _, grads, _ = pred.loss_and_grads(params, feats, POS, NEG)
        numeric = numeric_grads(pred, params, feats, list(params))
        for k in params:
            err = max_rel_err(grads[k], numeric[k])
            assert err < 1e-5, f"{k}: rel err {err:.2e}"

    def test_matches_under_dropout_with_replayed_masks(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.3)
        params = init_params(SMALL, seed=2, time_span=5.0)
        feats = make_feats(rng)
        _, grads, _ = pred.loss_and_grads(params, feats, POS, NEG,
                                          training=True,
                                          rng=np.random.default_rng(99))
        keys = ["fuse0_w", "proj_time_w", "time_freq", "merge_w", "out_b"]
        numeric = numeric_grads(pred, params, feats, keys, rng_seed=99)
        for k in keys:
            err = max_rel_err(grads[k], numeric[k])
            assert err < 1e-5, f"{k}: rel err {err:.2e}"

    def test_zero_width_feature_blocks_supported(self, rng):
        dims = ModelDims(node_dim=0, edge_dim=0, time_dim=4, hidden=3,
                         out_dim=2, layers=1)
        pred = LinkPredictor(dims, dropout=0.0)
        params = init_params(dims, seed=0)
        feats = make_feats(rng, d_N=0, d_E=0)
        loss, grads, _ = pred.loss_and_grads(params, feats, POS, NEG)
        assert np.isfinite(loss)
        assert grads["proj_node_w"].shape == (0, 3)
        assert all(np.all(np.isfinite(g)) for g in grads.values())


def full_layer_norm(a):
    """Row-wise layer norm with its own mean subtraction, no gain or bias."""
    ac = a - a.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(ac * ac, axis=-1, keepdims=True) + model.LN_EPS)
    return ac * inv, inv


def interleaved(feats, pos, neg):
    """The pairs' gathered stack [a0, b0, a1, b1, ...], positives first."""
    idx = np.stack([np.r_[pos[0], neg[0]], np.r_[pos[1], neg[1]]], axis=1)
    return SequenceFeatures(*(x[idx.ravel()]
                              for x in dataclasses.astuple(feats)))


def pair_masks(rng, P, dims, l, p):
    """Per layer, the (2P, l, 5d) keep masks of P pairs' interleaved stack.

    Pair i's masks are one run of 2 L l 5d uint16 draws, layer by layer,
    side a then side b, read from the generator's raw 64-bit output; the
    runs follow each other in pair order.  A position is kept if its draw
    is >= round(p * 2^16).
    """
    L, f = dims.layers, dims.fused
    n = P * L * 2 * l * f
    raw = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    keep = raw.reshape(P, L, 2, l, f) >= round(p * 2 ** 16)
    return [keep[:, k].reshape(2 * P, l, f) for k in range(L)]


def unfolded_forward(pred, params, feats, masks=None):
    """Reference forward: project every block, concatenate to 5d, then
    every fusion layer with its own layer norm and the masks (None: no
    dropout), dividing kept outputs by the quantised keep rate."""
    dims = pred.dims
    keep = 1.0 - round(pred.dropout * 2 ** 16) / 2 ** 16
    xs = dict(zip(BLOCKS, (feats.node, feats.edge,
                           time_encode(feats.dt, params["time_freq"]),
                           feats.co_long, feats.co_short)))
    z = np.concatenate([xs[n] @ params[f"proj_{n}_w"] + params[f"proj_{n}_b"]
                        for n in BLOCKS], axis=-1)
    layers = []
    for layer in range(dims.layers):
        y, inv = full_layer_norm(z @ params[f"fuse{layer}_w"]
                                 + params[f"fuse{layer}_b"])
        layers.append((z, y, inv))
        z = y if masks is None else y * masks[layer] / keep
    pool = z.mean(axis=1)
    return pool @ params["out_w"] + params["out_b"], xs, layers, pool


def unfolded_loss_and_grads(pred, params, feats, pos, neg, rng):
    """Reference: the unfolded forward and backward on the interleaved
    stack of the pairs.

    Training mode; masks follow pair_masks (all kept when p is 0).  Layer
    norm centres every row and its backward pass keeps the mean(dy) term.
    Probabilities must stay off the clamp.
    """
    dims = pred.dims
    keep = 1.0 - round(pred.dropout * 2 ** 16) / 2 ** 16
    d, f, d_o = dims.hidden, dims.fused, dims.out_dim
    n_pos, P = pos[0].size, pos[0].size + neg[0].size
    feats = interleaved(feats, pos, neg)
    S, l = feats.dt.shape
    freqs = params["time_freq"]
    masks = pair_masks(rng, P, dims, l, pred.dropout)
    H, xs, layers, pool = unfolded_forward(pred, params, feats, masks)

    w_m, b_m = params["merge_w"][:, 0], params["merge_b"][0]
    cat = H.reshape(P, 2 * d_o)
    p = 1.0 / (1.0 + np.exp(-(cat @ w_m + b_m)))
    probs = [p[:n_pos], p[n_pos:]]
    assert ((p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)).all()
    loss = -np.log(probs[0]).mean() - np.log1p(-probs[1]).mean()

    g = {k: np.zeros_like(v) for k, v in params.items()}
    dlg = np.r_[-(1.0 - probs[0]) / n_pos, probs[1] / (P - n_pos)]
    g["merge_w"][:, 0] += cat.T @ dlg
    g["merge_b"][0] += dlg.sum()
    dH = (dlg[:, None] * w_m).reshape(S, d_o)
    g["out_w"] += pool.T @ dH
    g["out_b"] += dH.sum(axis=0)
    dz = np.broadcast_to((dH @ params["out_w"].T)[:, None, :] / l, (S, l, f))
    for layer in reversed(range(dims.layers)):
        z_in, y, inv = layers[layer]
        dy = dz * masks[layer] / keep
        da = inv * (dy - dy.mean(axis=-1, keepdims=True)
                    - y * (dy * y).mean(axis=-1, keepdims=True))
        g[f"fuse{layer}_w"] += z_in.reshape(-1, f).T @ da.reshape(-1, f)
        g[f"fuse{layer}_b"] += da.sum(axis=(0, 1))
        dz = da @ params[f"fuse{layer}_w"].T
    for i, n in enumerate(BLOCKS):
        dblk = dz[..., i * d:(i + 1) * d]
        g[f"proj_{n}_w"] += (xs[n].reshape(S * l, -1).T
                             @ dblk.reshape(S * l, d))
        g[f"proj_{n}_b"] += dblk.sum(axis=(0, 1))
    args = feats.dt[..., None] * freqs
    dte = dz[..., 2 * d:3 * d] @ params["proj_time_w"].T
    dargs = np.where(np.arange(freqs.size) % 2, np.cos(args), -np.sin(args))
    g["time_freq"] += (np.sqrt(1.0 / freqs.size)
                       * (dargs * dte * feats.dt[..., None]).sum(axis=(0, 1)))
    return loss, g, probs


def perturbed_params(dims, rng):
    params = init_params(dims, seed=4, time_span=5.0)
    for v in params.values():    # non-zero biases reach every fold term
        v += rng.normal(scale=0.2, size=v.shape)
    return params


def check_against_reference(pred, params, feats, pos, neg, rtol=1e-10):
    loss, grads, probs = pred.loss_and_grads(
        params, feats, pos, neg, training=True,
        rng=np.random.default_rng(21))
    want_loss, want_grads, want_probs = unfolded_loss_and_grads(
        pred, params, feats, pos, neg, np.random.default_rng(21))
    assert loss == pytest.approx(want_loss, rel=rtol)
    for got, want in zip(probs, want_probs):
        np.testing.assert_allclose(got, want, rtol=rtol)
    assert set(grads) == set(want_grads)
    for k, want in want_grads.items():
        atol = rtol * np.abs(want).max(initial=0.0)
        np.testing.assert_allclose(grads[k], want, rtol=rtol, atol=atol,
                                   err_msg=k)


class TestFoldedLayer0:
    """The folded, weight-centred, blocked training step against the
    reference on the interleaved stack."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("feat_dim", [0, 3])
    def test_matches_unfolded_reference(self, rng, monkeypatch, layers,
                                        feat_dim):
        self.check(rng, monkeypatch, layers, 0.3, feat_dim)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("feat_dim", [0, 3])
    def test_matches_unfolded_reference_without_dropout(
            self, rng, monkeypatch, layers, feat_dim):
        self.check(rng, monkeypatch, layers, 0.0, feat_dim)

    def check(self, rng, monkeypatch, layers, dropout, feat_dim):
        dims = ModelDims(node_dim=feat_dim, edge_dim=feat_dim, time_dim=6,
                         hidden=4, out_dim=3, layers=layers)
        # 4 float64 pairs per block: 6 pairs end in a ragged block of 2
        monkeypatch.setattr(model, "PAIR_BLOCK_BYTES",
                            4 * 2 * 5 * dims.fused * 8)
        pred = LinkPredictor(dims, dropout=dropout)
        params = perturbed_params(dims, rng)
        feats = make_feats(rng, S=10, l=5, d_N=feat_dim, d_E=feat_dim)
        # sequences 0, 1, 2 and 6 serve two pairs each; 8 and 9 serve none
        pos = (np.array([0, 1, 2]), np.array([3, 4, 5]))
        neg = (np.array([0, 1, 6]), np.array([6, 7, 2]))
        check_against_reference(pred, params, feats, pos, neg)


class TestBlockedEncoder:
    """Blocks of whole pairs compute the one-block function and draws."""

    def outputs(self, monkeypatch, block_pairs, S, layers, training,
                hidden=4):
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=6, hidden=hidden,
                         out_dim=3, layers=layers)
        l, f = 5, dims.fused
        # block_pairs whole float64 pairs per block
        monkeypatch.setattr(model, "PAIR_BLOCK_BYTES",
                            block_pairs * 2 * l * f * 8)
        r = np.random.default_rng(S)
        params = perturbed_params(dims, r)
        feats = make_feats(r, S=S, l=l, d_N=2, d_E=1)
        pred = LinkPredictor(dims, dropout=0.3)
        a = np.arange(S)
        pos, neg = (a, np.roll(a, 1)), (np.roll(a, 2), a)
        return pred.loss_and_grads(params, feats, pos, neg,
                                   training=training,
                                   rng=np.random.default_rng(21))

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("S", [10, 8, 2, 1])
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_one_block(self, monkeypatch, layers, S, training):
        # 2S pairs, 3 per block: S=10 and S=8 end in a ragged block, S=1
        # fits in one
        self.check(monkeypatch, 3, S, layers, training)

    @pytest.mark.parametrize("S", [7, 5])
    def test_block_draws_not_a_multiple_of_4(self, monkeypatch, S):
        # hidden 1 and l 5: a pair's run is 50 L uint16 draws, so with an
        # odd L blocks of 1 or 3 pairs would end mid-word; training rounds
        # them up to even pairs, and the result equals the one-block run
        for block_pairs in (1, 3):
            for layers in (1, 2, 3):
                self.check(monkeypatch, block_pairs, S, layers, True,
                           hidden=1)

    def check(self, monkeypatch, block_pairs, S, layers, training, hidden=4):
        loss, grads, probs = self.outputs(monkeypatch, block_pairs, S,
                                          layers, training, hidden)
        loss1, grads1, probs1 = self.outputs(monkeypatch, 10 ** 6, S,
                                             layers, training, hidden)
        assert loss == pytest.approx(loss1, rel=1e-12)
        for got, want in zip(probs, probs1):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        for k, want in grads1.items():
            atol = 1e-12 * np.abs(want).max(initial=0.0)
            np.testing.assert_allclose(grads[k], want, rtol=1e-12, atol=atol,
                                       err_msg=k)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("hidden", [1, 4])
    @pytest.mark.parametrize("block_pairs", [1, 3, 10 ** 6])
    def test_masks_are_per_pair_runs(self, rng, monkeypatch, block_pairs,
                                     hidden, layers):
        # blocks of 1 pair, an odd 3 (the 7 pairs end ragged) and one
        # whole block; with hidden 1 and an odd L a pair's run ends
        # mid-word, so the blocks hold 2 and 4 pairs
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=6, hidden=hidden,
                         out_dim=3, layers=layers)
        monkeypatch.setattr(model, "PAIR_BLOCK_BYTES",
                            block_pairs * 2 * 5 * dims.fused * 8)
        pred = LinkPredictor(dims, dropout=0.3)
        feats = make_feats(rng, S=8, l=5, d_N=2, d_E=1)
        pos = (np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7]))
        neg = (np.array([0, 1, 2]), np.array([7, 6, 0]))
        check_against_reference(pred, perturbed_params(dims, rng), feats,
                                pos, neg)

    def test_training_never_builds_an_s_l_5d_array(self, rng, monkeypatch):
        peak, one = self.traced_step(rng, monkeypatch, workers=1)
        # scratch for one block of about PAIR_BLOCK_BYTES per (rows, 5d)
        # array, kept by the predictor
        assert peak < one / 2

    def test_each_worker_keeps_one_blocks_scratch(self, rng, monkeypatch):
        peak, one = self.traced_step(rng, monkeypatch, workers=2)
        assert peak < 2 * one / 2

    @staticmethod
    def traced_step(rng, monkeypatch, workers):
        """Traced peak of one training step at the given worker count, and
        the size of one (S, l, 5d) array."""
        monkeypatch.setattr(model, "_WORKERS", workers)
        dims = ModelDims(node_dim=0, edge_dim=0, time_dim=50, hidden=50,
                         out_dim=50, layers=1)
        S, l = 200, 32
        pred = LinkPredictor(dims, dropout=0.1)
        params, feats = TestTapeFreeEncode.setup(rng, dims, S=S, l=l,
                                                 dtype=np.float32)
        one = S * l * dims.fused * np.dtype(np.float32).itemsize   # 6.4 MB
        a = np.arange(S // 2)
        tracemalloc.start()
        try:
            pred.loss_and_grads(params, feats, (a[::2], a[1::2]),
                                (a[::2] + S // 2, a[1::2] + S // 2),
                                training=True, rng=np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, one


class TestWorkers:
    """Pair blocks split into contiguous shards, one per worker thread,
    give the bytes of one thread: every sum adds its terms in block order
    and every shard draws from its own offset of the generator."""

    @staticmethod
    def step(monkeypatch, workers, layers, dropout, hidden, dtype,
             pred=None):
        monkeypatch.setattr(model, "_WORKERS", workers)
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=6, hidden=hidden,
                         out_dim=3, layers=layers)
        l, S = 5, 11
        # 3 pairs per block, 22 pairs: 8 blocks, the last one ragged; at
        # hidden 1 and an odd L a pair's draws end mid-word, and blocks
        # hold 4 pairs
        monkeypatch.setattr(model, "PAIR_BLOCK_BYTES",
                            3 * 2 * l * dims.fused * np.dtype(dtype).itemsize)
        r = np.random.default_rng(layers * 10 + hidden)
        params = {k: v.astype(dtype)
                  for k, v in perturbed_params(dims, r).items()}
        feats = make_feats(r, S=S, l=l, d_N=2, d_E=1)
        feats = SequenceFeatures(*(x.astype(dtype) for x in
                                   dataclasses.astuple(feats)))
        pred = pred or LinkPredictor(dims, dropout=dropout)
        gen = np.random.default_rng(21)
        gen.integers(0, 10, dtype=np.uint32)    # buffers a 32-bit half-word
        a = np.arange(S)
        loss, grads, probs = pred.loss_and_grads(
            params, feats, (a, np.roll(a, 1)), (np.roll(a, 2), a),
            training=True, rng=gen)
        return loss, grads, probs, gen.bit_generator.state

    def assert_identical(self, got, want):
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys()
        for k in want[1]:
            assert got[1][k].tobytes() == want[1][k].tobytes(), k
        for g, w in zip(got[2], want[2]):
            assert g.tobytes() == w.tobytes()
        np.testing.assert_equal(got[3], want[3])    # the generator state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("hidden", [1, 4])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_bytes_do_not_depend_on_the_worker_count(
            self, monkeypatch, layers, hidden, dropout, dtype):
        one = self.step(monkeypatch, 1, layers, dropout, hidden, dtype)
        for workers in (2, 3):
            self.assert_identical(
                self.step(monkeypatch, workers, layers, dropout, hidden,
                          dtype), one)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.Philox,
                                               np.random.PCG64DXSM])
    def test_any_bit_generator_gives_the_one_thread_bytes(
            self, monkeypatch, bit_generator):
        # only the PCG64 family advances one 64-bit word per draw; the
        # others run on one worker
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: np.random.Generator(
                                bit_generator(seed)))
        one = self.step(monkeypatch, 1, 2, 0.3, 4, np.float64)
        self.assert_identical(
            self.step(monkeypatch, 3, 2, 0.3, 4, np.float64), one)

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_failing_shard_raises_after_every_shard_finished(
            self, monkeypatch, failing):
        real = model._run_shards
        finished = []

        def run_shards(fn, n):
            def shard(s):
                if s == failing:
                    raise RuntimeError(f"shard {s} failed")
                time.sleep(0.05)
                out = fn(s)
                finished.append(s)
                return out
            return real(shard, n)

        monkeypatch.setattr(model, "_run_shards", run_shards)
        pred = LinkPredictor(ModelDims(node_dim=2, edge_dim=1, time_dim=6,
                                       hidden=4, out_dim=3, layers=2),
                             dropout=0.3)
        with pytest.raises(RuntimeError, match=f"shard {failing} failed"):
            self.step(monkeypatch, 3, 2, 0.3, 4, np.float64, pred)
        # the error surfaced only once the other two shards were done
        assert sorted(finished) == sorted({0, 1, 2} - {failing})
        monkeypatch.setattr(model, "_run_shards", real)
        # the predictor then trains as it would have: the one-thread bytes
        self.assert_identical(
            self.step(monkeypatch, 3, 2, 0.3, 4, np.float64, pred),
            self.step(monkeypatch, 1, 2, 0.3, 4, np.float64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_pairs_leave_the_gradients_and_generator_alone(
            self, monkeypatch, workers):
        monkeypatch.setattr(model, "_WORKERS", workers)
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=6, hidden=4,
                         out_dim=3, layers=2)
        r = np.random.default_rng(4)
        params = perturbed_params(dims, r)
        feats = make_feats(r, S=5, l=4, d_N=2, d_E=1)
        gen = np.random.default_rng(21)
        before = gen.bit_generator.state
        none = np.zeros(0, np.int64)
        with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning):
            loss, grads, (p_pos, p_neg) = LinkPredictor(
                dims, dropout=0.3).loss_and_grads(
                    params, feats, (none, none), (none, none),
                    training=True, rng=gen)
        assert np.isnan(loss)           # the mean of no pairs
        assert not any(g.any() for g in grads.values())
        assert p_pos.size == p_neg.size == 0
        np.testing.assert_equal(gen.bit_generator.state, before)

    @pytest.mark.parametrize("cpus, blas, workers", [
        (64, "1", model.MAX_WORKERS),  # more were never measured
        (2, "1", 2),
        (2, None, 1),                  # BLAS takes every CPU
        (4, "2", 2),
        (4, "4", 1),
        (4, "many", 1),
        (4, "0", 1),                   # OpenBLAS starts one per core
        (4, "-1", 1),
    ])
    def test_default_workers(self, monkeypatch, cpus, blas, workers):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        for v in model.BLAS_ENV:
            monkeypatch.delenv(v, raising=False)
        if blas is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        assert model._default_workers() == workers

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        # the parent's pool threads do not exist in a forked child, so a
        # child that used the pool would wait on them forever
        want = self.step(monkeypatch, 2, 2, 0.3, 4, np.float64)
        proc = multiprocessing.get_context("fork").Process(
            target=lambda: self.assert_identical(
                self.step(monkeypatch, 2, 2, 0.3, 4, np.float64), want))
        proc.start()
        proc.join(30)
        if proc.exitcode is None:
            proc.kill()
            proc.join()
        assert proc.exitcode == 0


class TestTapeFreeEncode:
    """encode: the collapsed last layer, with no tape, against the
    full-layer forward that training runs (the tape path), here the
    unfolded reference."""

    @staticmethod
    def setup(rng, dims, S=8, l=5, dtype=np.float64):
        params = perturbed_params(dims, rng)
        feats = make_feats(rng, S=S, l=l, d_N=dims.node_dim,
                           d_E=dims.edge_dim)
        cast = lambda a: a.astype(dtype)
        return ({k: cast(v) for k, v in params.items()},
                SequenceFeatures(*map(cast, dataclasses.astuple(feats))))

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("feat_dim, hidden", [
        (2, 4),      # k+1 = 15 < 5d = 20
        (0, 4),      # zero-width node and edge blocks
        (7, 1),      # k+1 = 25 > 5d = 5: R has 5d rows
    ])
    @pytest.mark.parametrize("block_seqs", [3, 10 ** 6])
    def test_matches_the_tape_path(self, rng, monkeypatch, layers, feat_dim,
                                   hidden, block_seqs):
        dims = ModelDims(node_dim=feat_dim, edge_dim=feat_dim, time_dim=6,
                         hidden=hidden, out_dim=3, layers=layers)
        k, l = 2 * feat_dim + 6 + 4, 5
        # 3 float64 sequences per collapsed block: S=8 ends ragged
        monkeypatch.setattr(model, "BLOCK_BYTES", block_seqs * l * (k + 1) * 8)
        pred = LinkPredictor(dims, dropout=0.3)
        params, feats = self.setup(rng, dims, l=l)
        want = unfolded_forward(pred, params, feats)[0]
        h = pred.encode(params, feats)
        np.testing.assert_allclose(h, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_built_once_give_the_same_bytes(self, rng, layers,
                                                    dtype):
        # one weights object serves every batch of a phase
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=6, hidden=4,
                         out_dim=3, layers=layers)
        pred = LinkPredictor(dims, dropout=0.2)
        params, _ = self.setup(rng, dims, dtype=dtype)
        weights = pred.scoring_weights(params)
        for _ in range(3):
            _, feats = self.setup(rng, dims, dtype=dtype)
            want = pred.encode(params, feats)
            got = pred.encode(params, feats, weights=weights)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_weights_are_keyword_only(self):
        # the benchmark tracer reads a fourth positional argument as training
        kind = inspect.signature(LinkPredictor.encode).parameters[
            "weights"].kind
        assert kind is inspect.Parameter.KEYWORD_ONLY

    @pytest.mark.parametrize("layers", [1, 2])
    def test_float32_close_to_a_float64_forward(self, layers):
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=8, hidden=6,
                         out_dim=4, layers=layers)
        pred = LinkPredictor(dims, dropout=0.1)
        p64, f64 = self.setup(np.random.default_rng(3), dims, S=20, l=7)
        p32, f32 = self.setup(np.random.default_rng(3), dims, S=20, l=7,
                              dtype=np.float32)
        want = pred.encode(p64, f64)
        h = pred.encode(p32, f32)
        assert h.dtype == np.float32
        np.testing.assert_allclose(h, want, rtol=0,
                                   atol=1e-5 * np.abs(want).max())

    def test_never_builds_an_s_l_5d_array(self, rng):
        dims = ModelDims(node_dim=0, edge_dim=0, time_dim=50, hidden=50,
                         out_dim=50, layers=1)
        S, l = 200, 32
        pred = LinkPredictor(dims, dropout=0.1)
        params, feats = self.setup(rng, dims, S=S, l=l, dtype=np.float32)
        one = S * l * dims.fused * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            pred.encode(params, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one

    @pytest.mark.parametrize("layers", [1, 2])
    def test_builds_the_raw_input_per_block(self, rng, layers):
        dims = ModelDims(node_dim=0, edge_dim=0, time_dim=50, hidden=10,
                         out_dim=10, layers=layers)
        S, l, k = 800, 32, 54
        pred = LinkPredictor(dims, dropout=0.1)
        params, feats = self.setup(rng, dims, S=S, l=l, dtype=np.float32)
        whole = S * l * k * np.dtype(np.float32).itemsize    # 5.5 MB
        tracemalloc.start()
        try:
            pred.encode(params, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-batch build would hold the input and its time encoding,
        # about 2x whole; with two layers, layer 0's (S, l, 5d) output
        # (0.93x whole) is the next layer's input either way
        assert peak < whole * (0.5 if layers == 1 else 1.6)


class TestDropout:
    def test_requires_rng_in_training(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.2)
        with pytest.raises(ConfigError):
            pred.loss_and_grads(init_params(SMALL, 0), make_feats(rng), POS,
                                NEG, training=True)

    def test_mask_replay_and_inverted_scaling(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.5)
        params = perturbed_params(SMALL, rng)
        feats = make_feats(rng)

        def step(seed):
            return pred.loss_and_grads(params, feats, POS, NEG, training=True,
                                       rng=np.random.default_rng(seed))

        (l1, g1, _), (l2, g2, _), (l3, _, _) = step(5), step(5), step(6)
        assert l1 == l2 and l1 != l3
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])
        # 0.5 is exact on the 1/2^16 grid: kept outputs are doubled
        check_against_reference(pred, params, feats, POS, NEG)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_quantised_keep_rate_and_scale(self, rng, p):
        t = round(p * 2 ** 16)
        keep = 1.0 - t / 2 ** 16
        n = 10 ** 6
        mask = np.empty(n, dtype=bool)
        model._dropout_mask(np.random.default_rng(8), t, mask)
        sigma = np.sqrt(keep * (1.0 - keep) / n)
        assert abs(mask.mean() - keep) < 5 * sigma
        # one call's chunks make one whole draw
        np.testing.assert_array_equal(
            mask, pair_masks(np.random.default_rng(8), 1, dataclasses.replace(
                SMALL, hidden=1, layers=1), n // 10, p)[0].ravel())
        # the scale applied to kept outputs is exactly 1 / (1 - t/2^16),
        # as the reference divides, not 1 / (1 - p)
        pred = LinkPredictor(SMALL, dropout=p)
        check_against_reference(pred, perturbed_params(SMALL, rng),
                                make_feats(rng), POS, NEG)
        assert 1.0 / keep != 1.0 / (1.0 - p)

    def test_eval_mode_ignores_dropout(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.9)
        params = init_params(SMALL, seed=0)
        feats = make_feats(rng)
        np.testing.assert_array_equal(pred.encode(params, feats),
                                      pred.encode(params, feats))
        # outside training nothing is drawn or dropped
        plain = LinkPredictor(SMALL, dropout=0.0)
        got = pred.loss_and_grads(params, feats, POS, NEG)
        want = plain.loss_and_grads(params, feats, POS, NEG)
        assert got[0] == want[0]
        for k in want[1]:
            np.testing.assert_array_equal(got[1][k], want[1][k])

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError):
            LinkPredictor(SMALL, dropout=1.0)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([1.0, -2.0, 0.5])}
        grads = {"w": np.array([0.5, -0.25, 0.0])}
        st = adam_init(params)
        adam_step(params, grads, st, lr=1e-3)
        # bias correction makes m-hat == g and v-hat == g*g at step one
        np.testing.assert_allclose(params["w"],
                                   [1.0 - 1e-3 * (0.5 / (0.5 + 1e-8)),
                                    -2.0 + 1e-3 * (0.25 / (0.25 + 1e-8)),
                                    0.5])
        assert st.step == 1

    def test_nonfinite_gradient_names_the_tensor(self):
        params = {"ok": np.zeros(2), "bad_w": np.zeros(3)}
        grads = {"ok": np.zeros(2), "bad_w": np.array([0.0, np.nan, np.inf])}
        st = adam_init(params)
        with pytest.raises(NumericalError, match="bad_w"):
            adam_step(params, grads, st)
        assert st.step == 0     # the aborted step left state untouched

    def test_state_accumulates_across_steps(self):
        params = {"w": np.array([0.0])}
        st = adam_init(params)
        for _ in range(3):
            adam_step(params, {"w": np.array([1.0])}, st, lr=0.1)
        assert st.step == 3
        assert params["w"][0] < -0.29   # three near-full steps downhill

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_textbook_update_bit_for_bit(self, rng, dtype):
        params = init_params(SMALL, seed=3, dtype=dtype)
        want = copy_params(params)
        m = {k: np.zeros_like(p) for k, p in want.items()}
        v = {k: np.zeros_like(p) for k, p in want.items()}
        st = adam_init(params)
        for t in range(1, 21):
            grads = {k: rng.normal(size=p.shape).astype(dtype)
                     for k, p in params.items()}
            adam_step(params, grads, st, lr=1e-2)
            textbook_adam(want, grads, m, v, t, lr=1e-2)
            for k in want:
                np.testing.assert_array_equal(params[k], want[k])
                np.testing.assert_array_equal(st.m[k], m[k])
                np.testing.assert_array_equal(st.v[k], v[k])
                assert params[k].dtype == dtype

    def test_a_step_allocates_no_parameter_sized_array(self):
        params = {"big": np.ones((250, 250)), "b": np.ones(250),
                  "empty": np.ones((0, 3))}
        grads = {k: np.full_like(p, 0.5) for k, p in params.items()}
        st = adam_init(params)
        adam_step(params, grads, st)
        tracemalloc.start()
        try:
            adam_step(params, grads, st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # textbook_adam's expressions build six 500 kB temporaries for "big",
        # and even a boolean mask of it would take 62.5 kB
        assert peak < 10_000


def textbook_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                  eps=1e-8):
    """Adam with bias correction as whole-array expressions."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for k, g in grads.items():
        m[k] = beta1 * m[k] + (1.0 - beta1) * g
        v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        params[k] = params[k] - lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)


STREAM = {"num_nodes": 5, "num_events": 9, "sha256": "0" * 64}


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        params = init_params(SMALL, seed=4)
        path = tmp_path / "ckpt.npz"
        config = RunConfig(seed=4, long_size=32, short_size=8).to_dict()
        stream = {"num_nodes": 7, "num_events": 40, "sha256": "ab" * 32}
        save_params(path, params, SMALL, config, stream)
        loaded, dims, stored, fingerprint = load_params(path)
        assert dims == SMALL
        assert stored == config
        assert fingerprint == stream
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

    @pytest.mark.parametrize("cut", ["missing", "extra", "misshapen"])
    def test_params_must_match_the_stored_dims(self, tmp_path, cut):
        params = init_params(SMALL, seed=4)
        if cut == "missing":
            del params["merge_b"]
        elif cut == "extra":
            params["spare_w"] = np.zeros(2)
        else:
            params["proj_time_w"] = params["proj_time_w"][:, :-1]
        path = tmp_path / "ckpt.npz"
        save_params(path, params, SMALL, RunConfig().to_dict(), STREAM)
        with pytest.raises(CheckpointError,
                           match="missing, unexpected or misshapen"):
            load_params(path)

    def test_wide_dims_rejected_without_allocating_them(self, tmp_path):
        # a small file whose dims claim (5*400)^2 float64 fusion weights,
        # 64 MB: the shapes are checked before anything that size exists
        wide = dataclasses.replace(SMALL, hidden=400, layers=2)
        path = tmp_path / "wide.npz"
        save_params(path, {"merge_b": np.zeros(1)}, wide, RunConfig().to_dict(),
                    STREAM)
        assert path.stat().st_size < 4096
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="misshapen"):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, __version__=99, __dims__=np.arange(6), w=np.zeros(2))
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_missing_config_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, __version__=PARAMS_VERSION, __dims__=np.arange(6),
                 w=np.zeros(2))
        with pytest.raises(CheckpointError, match="__config__"):
            load_params(path)

    @pytest.mark.parametrize("stream", [None, "[1, 2]"])
    def test_missing_or_malformed_stream_rejected(self, tmp_path, stream):
        path = tmp_path / "bad.npz"
        extra = {} if stream is None else {"__stream__": np.array(stream)}
        np.savez(path, __version__=PARAMS_VERSION, __dims__=np.arange(6),
                 __config__=np.array("{}"), w=np.zeros(2), **extra)
        with pytest.raises(CheckpointError, match="__stream__"):
            load_params(path)

    @pytest.mark.parametrize("config", ["null", "[1, 2]", '"x"'])
    def test_malformed_config_rejected(self, tmp_path, config):
        path = tmp_path / "bad.npz"
        np.savez(path, __version__=PARAMS_VERSION, __dims__=np.arange(6),
                 __config__=np.array(config), __stream__=np.array("{}"),
                 w=np.zeros(2))
        with pytest.raises(CheckpointError, match="__config__"):
            load_params(path)


class TestDeterminism:
    def test_loss_and_grads_bitwise_repeatable(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.25)
        params = init_params(SMALL, seed=6)
        feats = make_feats(rng)
        out1 = pred.loss_and_grads(params, feats, POS, NEG, training=True,
                                   rng=np.random.default_rng(11))
        out2 = pred.loss_and_grads(params, feats, POS, NEG, training=True,
                                   rng=np.random.default_rng(11))
        assert out1[0] == out2[0]
        for k in out1[1]:
            np.testing.assert_array_equal(out1[1][k], out2[1][k])
