import dataclasses
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


def raw_bit_mask(rng, shape, p):
    """One whole-array mask: a position is kept if its uint16 draw, read
    from the generator's raw 64-bit output, is >= round(p * 2^16)."""
    n = int(np.prod(shape))
    raw = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return raw.reshape(shape) >= round(p * 2 ** 16)


def unfolded_loss_and_grads(pred, params, feats, pos, neg, rng):
    """Reference: project every block, concatenate to 5d, then fuse0.

    Training mode; every layer divides its dropped output by the quantised
    keep rate 1 - round(p * 2^16) / 2^16, and each layer's mask is one
    whole-array raw_bit_mask (all kept when p is 0).  Layer norm centres
    every row and its backward pass keeps the mean(dy) term.  Probabilities
    must stay off the clamp.
    """
    dims = pred.dims
    keep = 1.0 - round(pred.dropout * 2 ** 16) / 2 ** 16
    d, f = dims.hidden, dims.fused
    S, l = feats.dt.shape
    freqs = params["time_freq"]
    args = feats.dt[..., None] * freqs
    xs = dict(zip(BLOCKS, (feats.node, feats.edge, time_encode(feats.dt, freqs),
                           feats.co_long, feats.co_short)))
    z = np.concatenate([xs[n] @ params[f"proj_{n}_w"] + params[f"proj_{n}_b"]
                        for n in BLOCKS], axis=-1)
    layers = []
    for layer in range(dims.layers):
        y, inv = full_layer_norm(z @ params[f"fuse{layer}_w"]
                                 + params[f"fuse{layer}_b"])
        mask = raw_bit_mask(rng, y.shape, pred.dropout)
        layers.append((z, y, inv, mask))
        z = y * mask / keep
    pool = z.mean(axis=1)
    H = pool @ params["out_w"] + params["out_b"]

    w_m, b_m = params["merge_w"][:, 0], params["merge_b"][0]
    probs = [1.0 / (1.0 + np.exp(-(np.concatenate([H[a], H[b]], axis=-1) @ w_m
                                   + b_m))) for a, b in (pos, neg)]
    assert all(((p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)).all() for p in probs)
    loss = -np.log(probs[0]).mean() - np.log1p(-probs[1]).mean()

    g = {k: np.zeros_like(v) for k, v in params.items()}
    dH = np.zeros_like(H)
    for (a, b), dlg in ((pos, -(1.0 - probs[0]) / pos[0].size),
                        (neg, probs[1] / neg[0].size)):
        g["merge_w"][:, 0] += np.concatenate([H[a], H[b]], axis=-1).T @ dlg
        g["merge_b"][0] += dlg.sum()
        np.add.at(dH, a, dlg[:, None] * w_m[:dims.out_dim])
        np.add.at(dH, b, dlg[:, None] * w_m[dims.out_dim:])
    g["out_w"] += pool.T @ dH
    g["out_b"] += dH.sum(axis=0)
    dz = np.broadcast_to((dH @ params["out_w"].T)[:, None, :] / l, (S, l, f))
    for layer in reversed(range(dims.layers)):
        z_in, y, inv, mask = layers[layer]
        dy = dz * mask / keep
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
    dte = dz[..., 2 * d:3 * d] @ params["proj_time_w"].T
    dargs = np.where(np.arange(freqs.size) % 2, np.cos(args), -np.sin(args))
    g["time_freq"] += (np.sqrt(1.0 / freqs.size)
                       * (dargs * dte * feats.dt[..., None]).sum(axis=(0, 1)))
    return loss, g, probs


class TestFoldedLayer0:
    """The folded, weight-centred, blocked encoder against the reference."""

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
        # 3 float64 sequences per block, which training rounds up to 4:
        # S=10 ends in a ragged block of 2
        monkeypatch.setattr(model, "BLOCK_BYTES", 3 * 5 * dims.fused * 8)
        pred = LinkPredictor(dims, dropout=dropout)
        params = init_params(dims, seed=4, time_span=5.0)
        for v in params.values():    # non-zero biases reach every fold term
            v += rng.normal(scale=0.2, size=v.shape)
        feats = make_feats(rng, S=10, l=5, d_N=feat_dim, d_E=feat_dim)
        pos = (np.array([0, 1, 2]), np.array([3, 4, 5]))
        neg = (np.array([0, 1, 6]), np.array([6, 7, 2]))
        loss, grads, probs = pred.loss_and_grads(
            params, feats, pos, neg, training=True,
            rng=np.random.default_rng(21))
        want_loss, want_grads, want_probs = unfolded_loss_and_grads(
            pred, params, feats, pos, neg, np.random.default_rng(21))

        assert loss == pytest.approx(want_loss, rel=1e-10)
        for got, want in zip(probs, want_probs):
            np.testing.assert_allclose(got, want, rtol=1e-10)
        assert set(grads) == set(want_grads)
        for k, want in want_grads.items():
            atol = 1e-10 * np.abs(want).max(initial=0.0)
            np.testing.assert_allclose(grads[k], want, rtol=1e-10, atol=atol,
                                       err_msg=k)


class TestBlockedEncoder:
    """Blocks of whole sequences compute the one-block function and draws."""

    def outputs(self, monkeypatch, block_seqs, S, layers, training,
                hidden=4):
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=6, hidden=hidden,
                         out_dim=3, layers=layers)
        l, f = 5, dims.fused
        # block_seqs whole float64 sequences per block
        monkeypatch.setattr(model, "BLOCK_BYTES", block_seqs * l * f * 8)
        r = np.random.default_rng(S)
        params = init_params(dims, seed=4, time_span=5.0)
        for v in params.values():
            v += r.normal(scale=0.2, size=v.shape)
        feats = make_feats(r, S=S, l=l, d_N=2, d_E=1)
        pred = LinkPredictor(dims, dropout=0.3)
        a = np.arange(S)
        pos, neg = (a, np.roll(a, 1)), (np.roll(a, 2), a)
        h, tape = pred.encode(params, feats, training=training,
                              rng=np.random.default_rng(21))
        loss, grads, _ = pred.loss_and_grads(params, feats, pos, neg,
                                             training=training,
                                             rng=np.random.default_rng(21))
        return h, tape, loss, grads

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("S", [10, 8, 2, 1])
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_one_block(self, monkeypatch, layers, S, training):
        # 3 sequences per block, rounded up to 4: S=10 ends in a ragged
        # block of 2, S=8 in two whole blocks, S=2 and S=1 fit in one
        self.check(monkeypatch, 3, S, layers, training)

    @pytest.mark.parametrize("S", [7, 5])
    def test_block_draws_not_a_multiple_of_4(self, monkeypatch, S):
        # hidden 1 and l 5: a sequence takes 25 uint16 draws, so blocks of
        # 1 or 3 sequences would end mid-word; training rounds them up to 4
        # sequences, and the result equals the one-block run
        for block_seqs in (1, 3):
            self.check(monkeypatch, block_seqs, S, 2, True, hidden=1)

    def check(self, monkeypatch, block_seqs, S, layers, training, hidden=4):
        h, tape, loss, grads = self.outputs(monkeypatch, block_seqs, S,
                                            layers, training, hidden)
        h1, tape1, loss1, grads1 = self.outputs(monkeypatch, 10 ** 6, S,
                                                layers, training, hidden)
        np.testing.assert_allclose(h, h1, rtol=1e-12, atol=1e-12)
        for got, want in zip(tape.layers, tape1.layers):
            for a, b in zip(got, want):
                if a is None or b is None:
                    assert a is None and b is None
                else:
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        assert loss == pytest.approx(loss1, rel=1e-12)
        for k, want in grads1.items():
            atol = 1e-12 * np.abs(want).max(initial=0.0)
            np.testing.assert_allclose(grads[k], want, rtol=1e-12, atol=atol,
                                       err_msg=k)

    @pytest.mark.parametrize("S", [8, 1])
    def test_masks_are_whole_layer_draws(self, monkeypatch, S):
        _, tape, _, _ = self.outputs(monkeypatch, 3, S, 2, True)
        r = np.random.default_rng(21)
        for _, u, _, mask in tape.layers:
            np.testing.assert_array_equal(mask, raw_bit_mask(r, u.shape, 0.3))


class TestTapeFreeEncode:
    """encode(tape=False): the collapsed last layer against the tape path."""

    @staticmethod
    def setup(rng, dims, S=8, l=5, dtype=np.float64):
        params = init_params(dims, seed=4, time_span=5.0)
        for v in params.values():    # non-zero biases reach every term
            v += rng.normal(scale=0.2, size=v.shape)
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
        want, _ = pred.encode(params, feats)
        h, tape = pred.encode(params, feats, tape=False)
        assert tape is None
        np.testing.assert_allclose(h, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("layers", [1, 2])
    def test_float32_close_to_a_float64_forward(self, layers):
        dims = ModelDims(node_dim=2, edge_dim=1, time_dim=8, hidden=6,
                         out_dim=4, layers=layers)
        pred = LinkPredictor(dims, dropout=0.1)
        p64, f64 = self.setup(np.random.default_rng(3), dims, S=20, l=7)
        p32, f32 = self.setup(np.random.default_rng(3), dims, S=20, l=7,
                              dtype=np.float32)
        want, _ = pred.encode(p64, f64)
        h, _ = pred.encode(p32, f32, tape=False)
        assert h.dtype == np.float32
        np.testing.assert_allclose(h, want, rtol=0,
                                   atol=1e-5 * np.abs(want).max())

    def test_training_needs_the_tape(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.0)
        with pytest.raises(ConfigError, match="tape"):
            pred.encode(init_params(SMALL, 0), make_feats(rng),
                        training=True, tape=False)

    def test_never_builds_an_s_l_5d_array(self, rng):
        dims = ModelDims(node_dim=0, edge_dim=0, time_dim=50, hidden=50,
                         out_dim=50, layers=1)
        S, l = 200, 32
        pred = LinkPredictor(dims, dropout=0.1)
        params, feats = self.setup(rng, dims, S=S, l=l, dtype=np.float32)
        one = S * l * dims.fused * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            pred.encode(params, feats, tape=False)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            pred.encode(params, feats)
            tape_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape_peak > one      # the tape path does build it
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
            pred.encode(params, feats, tape=False)
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
            pred.encode(init_params(SMALL, 0), make_feats(rng), training=True)

    def test_mask_replay_and_inverted_scaling(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.5)
        params = init_params(SMALL, seed=0)
        feats = make_feats(rng)
        h1, tape1 = pred.encode(params, feats, training=True,
                                rng=np.random.default_rng(5))
        h2, _ = pred.encode(params, feats, training=True,
                            rng=np.random.default_rng(5))
        h3, _ = pred.encode(params, feats, training=True,
                            rng=np.random.default_rng(6))
        np.testing.assert_array_equal(h1, h2)
        assert (h1 != h3).any()
        # the second layer's input is the first layer's dropped output,
        # then a ones column; 0.5 is exact on the 1/2^16 grid
        z_in1 = tape1.layers[1][0]
        _, u0, inv0, mask0 = tape1.layers[0]
        np.testing.assert_allclose(z_in1[..., :-1], u0 * inv0 * mask0 / 0.5)
        np.testing.assert_array_equal(z_in1[..., -1], 1.0)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_quantised_keep_rate_and_scale(self, rng, p):
        t = round(p * 2 ** 16)
        keep = 1.0 - t / 2 ** 16
        n = 10 ** 6
        mask = np.empty(n, dtype=bool)
        model._dropout_mask(np.random.default_rng(8), t, mask)
        sigma = np.sqrt(keep * (1.0 - keep) / n)
        assert abs(mask.mean() - keep) < 5 * sigma
        # the scale applied to an inner layer's kept outputs is exactly
        # 1 / (1 - t/2^16), not 1 / (1 - p)
        pred = LinkPredictor(SMALL, dropout=p)
        _, tape = pred.encode(init_params(SMALL, seed=0), make_feats(rng),
                              training=True, rng=np.random.default_rng(5))
        _, u0, inv0, mask0 = tape.layers[0]
        np.testing.assert_array_equal(tape.layers[1][0][..., :-1],
                                      (u0 * mask0) * (inv0 * (1.0 / keep)))
        assert 1.0 / keep != 1.0 / (1.0 - p)

    def test_eval_mode_ignores_dropout(self, rng):
        pred = LinkPredictor(SMALL, dropout=0.9)
        params = init_params(SMALL, seed=0)
        feats = make_feats(rng)
        h1, tape = pred.encode(params, feats)
        h2, _ = pred.encode(params, feats)
        np.testing.assert_array_equal(h1, h2)
        assert tape.layers[0][3] is None

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
