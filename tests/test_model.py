import math

import numpy as np
import pytest

import chemlm.model.network as network
from chemlm.model import (
    Checkpoint,
    ModelConfig,
    backward,
    cross_entropy,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from chemlm.training import pad_batch

TINY = ModelConfig(
    n_layers=2,
    d_model=16,
    n_heads=2,
    d_ff=32,
    max_seq_len=12,
    vocab_size=11,
    dropout_rate=0.0,
)


def param_count(params):
    return sum(int(t.size) for t in params.values())


def tiny_batch(rng, batch=3, length=8, cfg=TINY):
    ids = rng.integers(0, cfg.vocab_size, size=(batch, length + 1))
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    mask = np.ones_like(targets, dtype=float)
    return inputs, targets, mask


class TestConfig:
    def test_head_split_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(2, 30, 4, 64, 16, 10)

    def test_dict_round_trip(self):
        assert ModelConfig.from_dict(TINY.to_dict()) == TINY

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(2, 16, 2, 32, 12, 11, dropout_rate=1.0)


class TestInit:
    def test_deterministic(self):
        a = init_params(TINY, seed=3)
        b = init_params(TINY, seed=3)
        assert sorted(a) == sorted(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_seed_changes_weights(self):
        a = init_params(TINY, seed=3)
        b = init_params(TINY, seed=4)
        assert not np.array_equal(a["tok_emb"], b["tok_emb"])

    def test_tied_model_has_no_head(self):
        params = init_params(TINY, seed=0)
        assert "head.w" not in params
        untied = ModelConfig(**{**TINY.to_dict(), "tie_embeddings": False})
        assert "head.w" in init_params(untied, seed=0)

    def test_float64_everywhere(self):
        for v in init_params(TINY, seed=0).values():
            assert v.dtype == np.float64

    def test_param_count(self):
        # 2 embeddings + per layer: 2 layer norms, 4 attention projections, 2 MLP
        # matrices with their biases; then the final layer norm
        d, f, v, t = TINY.d_model, TINY.d_ff, TINY.vocab_size, TINY.max_seq_len
        per_layer = 4 * d + 4 * (d * d + d) + (d * f + f) + (f * d + d)
        params = init_params(TINY, seed=0)
        assert param_count(params) == v * d + t * d + TINY.n_layers * per_layer + 2 * d

    def test_layernorm_starts_at_identity(self):
        params = init_params(TINY, seed=0)
        np.testing.assert_array_equal(params["h0.ln1.g"], np.ones(TINY.d_model))
        np.testing.assert_array_equal(params["h0.ln1.b"], np.zeros(TINY.d_model))


class TestForward:
    def test_shapes(self, rng):
        params = init_params(TINY, seed=0)
        inputs, _, _ = tiny_batch(rng)
        logits, _ = forward(params, TINY, inputs, train_mode=False)
        assert logits.shape == (3, 8, TINY.vocab_size)

    def test_eval_deterministic(self, rng):
        params = init_params(TINY, seed=0)
        inputs, _, _ = tiny_batch(rng)
        a, _ = forward(params, TINY, inputs, train_mode=False)
        b, _ = forward(params, TINY, inputs, train_mode=False)
        np.testing.assert_array_equal(a, b)

    def test_causality(self, rng):
        # changing a later token must not move earlier logits
        params = init_params(TINY, seed=0)
        inputs, _, _ = tiny_batch(rng, batch=1)
        logits, _ = forward(params, TINY, inputs, train_mode=False)
        changed = inputs.copy()
        changed[0, 5] = (changed[0, 5] + 1) % TINY.vocab_size
        logits2, _ = forward(params, TINY, changed, train_mode=False)
        np.testing.assert_allclose(logits2[0, :5], logits[0, :5], atol=1e-12)
        assert not np.allclose(logits2[0, 5:], logits[0, 5:])

    def test_sequence_too_long(self, rng):
        params = init_params(TINY, seed=0)
        too_long = rng.integers(0, TINY.vocab_size, size=(1, TINY.max_seq_len + 1))
        with pytest.raises(ValueError, match="max_seq_len"):
            forward(params, TINY, too_long, train_mode=False)

    def test_kv_cache_continues_a_forward(self, rng):
        # the positions after k, fed with the keys and values of the first
        # k, get the logits one forward over the whole sequence gives them,
        # in float64 (sampling) and float32 (training's dtype)
        ids = rng.integers(0, TINY.vocab_size, size=(3, TINY.max_seq_len))
        for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            params = {k: v.astype(dtype) for k, v in init_params(TINY, seed=0).items()}
            full, _ = forward(params, TINY, ids, train_mode=False)
            assert full.dtype == dtype
            for k in range(1, ids.shape[1]):
                kv = {}
                head, _ = forward(params, TINY, ids[:, :k], train_mode=False, kv=kv)
                tail, _ = forward(params, TINY, ids[:, k:], train_mode=False, kv=kv)
                np.testing.assert_allclose(np.concatenate((head, tail), axis=1), full, rtol=0, atol=atol)
                assert sorted(kv) == [f"h{i}.attn." for i in range(TINY.n_layers)]
                assert kv["h0.attn."][0].shape == (3, TINY.n_heads, ids.shape[1], TINY.d_head)

    def test_kv_cache_counts_toward_the_context(self, rng):
        params = init_params(TINY, seed=0)
        kv = {}
        forward(params, TINY, rng.integers(0, TINY.vocab_size, size=(1, TINY.max_seq_len - 1)), kv=kv)
        with pytest.raises(ValueError, match="max_seq_len"):
            forward(params, TINY, rng.integers(0, TINY.vocab_size, size=(1, 2)), kv=kv)

    def test_kv_cache_is_written_in_place(self, rng):
        # the first call allocates each layer's buffers at the full context;
        # every later step writes into them, so no step copies the cache
        ids = rng.integers(0, TINY.vocab_size, size=(2, TINY.max_seq_len))
        for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            params = {k: v.astype(dtype) for k, v in init_params(TINY, seed=0).items()}
            _, full = forward(params, TINY, ids, train_mode=False)
            kv = {}
            forward(params, TINY, ids[:, :3], train_mode=False, kv=kv)
            first = {name: (k, v) for name, (k, v, _) in kv.items()}
            for k, v in first.values():
                assert k.shape == v.shape == (2, TINY.n_heads, TINY.max_seq_len, TINY.d_head)
                assert k.dtype == v.dtype == dtype
            for n in range(4, TINY.max_seq_len + 1):
                forward(params, TINY, ids[:, n - 1:n], train_mode=False, kv=kv)
                for i in range(TINY.n_layers):
                    k, v, filled = kv[f"h{i}.attn."]
                    assert filled == n
                    assert np.shares_memory(k, first[f"h{i}.attn."][0])
                    assert np.shares_memory(v, first[f"h{i}.attn."][1])
                    # the filled prefix holds the keys and values a full forward computes
                    full_ks, full_vs = full[2][i][1][4:6]
                    np.testing.assert_allclose(k[:, :, :n], full_ks[:, :, :n], rtol=0, atol=atol)
                    np.testing.assert_allclose(v[:, :, :n], full_vs[:, :, :n], rtol=0, atol=atol)

    def test_refused_call_leaves_the_kv_cache_unchanged(self, rng):
        params = init_params(TINY, seed=0)
        ids = rng.integers(0, TINY.vocab_size, size=(1, TINY.max_seq_len))
        kv = {}
        forward(params, TINY, ids[:, :-2], train_mode=False, kv=kv)
        before = {name: (k.copy(), v.copy(), n) for name, (k, v, n) in kv.items()}
        with pytest.raises(ValueError, match="max_seq_len"):
            forward(params, TINY, rng.integers(0, TINY.vocab_size, size=(1, 3)), kv=kv)
        for name, (k, v, n) in kv.items():
            k0, v0, n0 = before[name]
            assert n == n0 == TINY.max_seq_len - 2
            assert np.array_equal(k[:, :, :n], k0[:, :, :n])
            assert np.array_equal(v[:, :, :n], v0[:, :, :n])
        # and the cache still continues the sequence
        tail, _ = forward(params, TINY, ids[:, -2:], train_mode=False, kv=kv)
        full, _ = forward(params, TINY, ids, train_mode=False)
        np.testing.assert_allclose(tail, full[:, -2:], rtol=0, atol=1e-12)

    def test_dropout_needs_rng(self, rng):
        cfg = ModelConfig(**{**TINY.to_dict(), "dropout_rate": 0.1})
        params = init_params(cfg, seed=0)
        inputs, _, _ = tiny_batch(rng, cfg=cfg)
        with pytest.raises(ValueError, match="rng"):
            forward(params, cfg, inputs, train_mode=True)

    def test_dropout_reproducible_and_varying(self, rng):
        cfg = ModelConfig(**{**TINY.to_dict(), "dropout_rate": 0.3})
        params = init_params(cfg, seed=0)
        inputs, _, _ = tiny_batch(rng, cfg=cfg)
        a, _ = forward(params, cfg, inputs, train_mode=True, rng=np.random.default_rng(9))
        b, _ = forward(params, cfg, inputs, train_mode=True, rng=np.random.default_rng(9))
        c, _ = forward(params, cfg, inputs, train_mode=True, rng=np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_off_in_eval(self, rng):
        cfg = ModelConfig(**{**TINY.to_dict(), "dropout_rate": 0.5})
        params = init_params(cfg, seed=0)
        inputs, _, _ = tiny_batch(rng, cfg=cfg)
        a, _ = forward(params, cfg, inputs, train_mode=False)
        b, _ = forward(params, cfg, inputs, train_mode=False)
        np.testing.assert_array_equal(a, b)


class TestCrossEntropy:
    def test_uniform_logits(self):
        v = 7
        logits = np.zeros((2, 3, v))
        targets = np.zeros((2, 3), dtype=int)
        mask = np.ones((2, 3))
        loss, _ = cross_entropy(logits, targets, mask)
        assert loss == pytest.approx(np.log(v), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 1, 4))
        logits[0, 0, 2] = 50.0
        loss, _ = cross_entropy(logits, np.array([[2]]), np.ones((1, 1)))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_mask_drops_positions(self, rng):
        logits = rng.normal(size=(1, 4, 5))
        targets = rng.integers(0, 5, size=(1, 4))
        full, _ = cross_entropy(logits, targets, np.ones((1, 4)))
        half_mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        half, _ = cross_entropy(logits, targets, half_mask)
        manual = 0.0
        for t in range(2):
            z = logits[0, t]
            manual += -(z[targets[0, t]] - np.log(np.exp(z - z.max()).sum()) - z.max())
        assert half == pytest.approx(manual / 2, abs=1e-12)
        assert full != pytest.approx(half, abs=1e-9)

    def test_all_masked_rejected(self):
        logits = np.zeros((1, 2, 4))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.zeros((1, 2), dtype=int), np.zeros((1, 2)))

    def test_gradient_sums_to_zero_per_position(self, rng):
        # softmax minus one-hot has zero sum over the vocabulary axis
        logits = rng.normal(size=(2, 3, 6))
        targets = rng.integers(0, 6, size=(2, 3))
        _, dlogits = cross_entropy(logits, targets, np.ones((2, 3)))
        np.testing.assert_allclose(dlogits.sum(axis=-1), 0.0, atol=1e-12)

    def test_stable_for_huge_logits(self):
        logits = np.full((1, 1, 3), 5000.0)
        logits[0, 0, 0] = 5010.0
        loss, dlogits = cross_entropy(logits, np.array([[0]]), np.ones((1, 1)))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(dlogits))


def fd_check(cfg, n_coords, rng, eps=1e-4):
    """Max relative error between analytic and central-difference grads."""
    params = init_params(cfg, seed=1)
    inputs, targets, mask = tiny_batch(rng, batch=2, length=cfg.max_seq_len - 2, cfg=cfg)
    loss, grads = loss_and_grads(params, cfg, inputs, targets, mask)

    names = sorted(params)
    worst = 0.0
    for _ in range(n_coords):
        name = names[int(rng.integers(len(names)))]
        flat_index = int(rng.integers(params[name].size))
        idx = np.unravel_index(flat_index, params[name].shape)
        orig = params[name][idx]
        params[name][idx] = orig + eps
        up, _ = loss_and_grads(params, cfg, inputs, targets, mask)
        params[name][idx] = orig - eps
        down, _ = loss_and_grads(params, cfg, inputs, targets, mask)
        params[name][idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[name][idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


class TestGradients:
    def test_finite_differences_tied(self, rng):
        assert fd_check(TINY, 60, rng) < 1e-4

    def test_finite_differences_untied(self, rng):
        cfg = ModelConfig(**{**TINY.to_dict(), "tie_embeddings": False})
        assert fd_check(cfg, 60, rng) < 1e-4

    def test_loss_scale_linearity(self, rng):
        params = init_params(TINY, seed=1)
        inputs, targets, mask = tiny_batch(rng)
        _, grads = loss_and_grads(params, TINY, inputs, targets, mask)
        logits, cache = forward(params, TINY, inputs, train_mode=False)
        _, dlogits = cross_entropy(logits, targets, mask)
        doubled = backward(params, TINY, cache, 2.0 * dlogits)
        for k in grads:
            np.testing.assert_allclose(doubled[k], 2.0 * grads[k], atol=1e-12)

    def test_unused_embedding_rows_get_zero_grad(self, rng):
        params = init_params(TINY, seed=1)
        # use only ids 0..4; rows 5.. of tok_emb must see zero gradient
        # (tied models route the head gradient into every row, so untie)
        cfg = ModelConfig(**{**TINY.to_dict(), "tie_embeddings": False})
        params = init_params(cfg, seed=1)
        inputs = rng.integers(0, 5, size=(2, 6))
        targets = rng.integers(0, 5, size=(2, 6))
        mask = np.ones((2, 6))
        _, grads = loss_and_grads(params, cfg, inputs, targets, mask)
        np.testing.assert_array_equal(grads["tok_emb"][5:], 0.0)
        assert np.abs(grads["tok_emb"][:5]).max() > 0

    def test_masked_positions_do_not_leak(self, rng):
        # gradient with a padded tail equals gradient on the bare batch
        # when the padded targets are masked out
        params = init_params(TINY, seed=1)
        inputs, targets, mask = tiny_batch(rng, batch=1, length=6)
        _, grads_bare = loss_and_grads(params, TINY, inputs, targets, mask)

        pad = 2
        inputs_p = np.concatenate([inputs, np.full((1, 2), pad)], axis=1)
        targets_p = np.concatenate([targets, np.full((1, 2), pad)], axis=1)
        mask_p = np.concatenate([mask, np.zeros((1, 2))], axis=1)
        _, grads_padded = loss_and_grads(params, TINY, inputs_p, targets_p, mask_p)
        for k in grads_bare:
            np.testing.assert_allclose(grads_padded[k], grads_bare[k], atol=1e-10)


class TestCheckpoint:
    def roundtrip_args(self):
        params = init_params(TINY, seed=5)
        return Checkpoint(
            params=params,
            config=TINY,
            vocab_hash="ab" * 32,
            rng_state={"streams": [1, 2, 3]},
            step=17,
        )

    def save(self, ck, path):
        save_checkpoint(path, ck.params, ck.config, ck.vocab_hash, ck.rng_state, ck.step)

    def test_round_trip(self, tmp_path):
        ck = self.roundtrip_args()
        path = tmp_path / "model.bin"
        self.save(ck, path)
        back = load_checkpoint(path)
        assert back.config == TINY
        assert back.vocab_hash == ck.vocab_hash
        assert back.step == 17
        assert back.rng_state == ck.rng_state
        assert sorted(back.params) == sorted(ck.params)
        for k, v in ck.params.items():
            np.testing.assert_array_equal(back.params[k], v)

    def test_resave_is_byte_identical(self, tmp_path):
        ck = self.roundtrip_args()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        self.save(ck, p1)
        self.save(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "model.bin"
        self.save(self.roundtrip_args(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "model.bin"
        self.save(self.roundtrip_args(), path)
        raw = path.read_bytes()
        patched = raw.replace(b'"format_version":1', b'"format_version":9', 1)
        path.write_bytes(patched)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.bin"
        self.save(self.roundtrip_args(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_loaded_model_reproduces_logits(self, tmp_path, rng):
        ck = self.roundtrip_args()
        inputs, _, _ = tiny_batch(rng)
        before, _ = forward(ck.params, TINY, inputs, train_mode=False)
        path = tmp_path / "model.bin"
        self.save(ck, path)
        after, _ = forward(load_checkpoint(path).params, TINY, inputs, train_mode=False)
        np.testing.assert_array_equal(before, after)


def float32_params(cfg, seed):
    return {k: v.astype(np.float32) for k, v in init_params(cfg, seed=seed).items()}


class TestFloat32:
    """Training computes in float32; nothing in a step may widen to float64."""

    def padded_batch(self, rng):
        seqs = [rng.integers(1, TINY.vocab_size, size=n) for n in (TINY.max_seq_len, 7, 4)]
        inputs, targets, mask = pad_batch(seqs, pad_id=0)
        assert mask.min() == 0.0
        return inputs, targets, mask

    def test_a_step_stays_in_float32(self, rng):
        cfg = ModelConfig(**{**TINY.to_dict(), "dropout_rate": 0.1})
        params = float32_params(cfg, seed=1)
        inputs, targets, mask = self.padded_batch(rng)
        logits, cache = forward(params, cfg, inputs, train_mode=True, rng=np.random.default_rng(3))
        loss, dlogits = cross_entropy(logits, targets, mask)
        assert logits.dtype == dlogits.dtype == loss.dtype == np.float32
        for name, g in backward(params, cfg, cache, dlogits).items():
            assert g.dtype == np.float32, name
        loss, grads = loss_and_grads(params, cfg, inputs, targets, mask, rng=np.random.default_rng(3))
        assert loss.dtype == np.float32
        for name, g in grads.items():
            assert g.dtype == np.float32, name

    def test_agrees_with_float64(self, rng):
        # float32 rounding (eps 1.2e-7) through two layers; gradients are
        # compared against the largest gradient entry, since some (the key
        # biases) are zero up to rounding
        params = init_params(TINY, seed=1)
        inputs, targets, mask = self.padded_batch(rng)
        loss64, grads64 = loss_and_grads(params, TINY, inputs, targets, mask.astype(np.float64))
        loss32, grads32 = loss_and_grads(float32_params(TINY, seed=1), TINY, inputs, targets, mask)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        scale = max(np.abs(g).max() for g in grads64.values())
        for name, g in grads64.items():
            np.testing.assert_allclose(grads32[name], g, rtol=0, atol=1e-3 * scale, err_msg=name)


# The kernels as they were before they were rewritten with `out=` and
# in-place operators; the rewrites evaluate the same operations in the
# same order, so they must give the same bits.

def ref_layernorm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + network.LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def ref_layernorm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def ref_linear_fwd(x, w, b):
    return x @ w + b, (x, w)


def ref_linear_bwd(dy, cache):
    x, w = cache
    dx = dy @ w.T
    dw = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    db = dy.sum(axis=(0, 1))
    return dx, dw, db


GELU_C = math.sqrt(2.0 / math.pi)


def ref_gelu_fwd(x):
    u = GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def ref_gelu_bwd(dy, cache):
    x, t = cache
    du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def ref_dropout_fwd(x, rate, train_mode, rng):
    if not train_mode or rate == 0.0:
        return x, None
    keep = rng.random(x.shape, dtype=x.dtype) >= rate
    scale = 1.0 / (1.0 - rate)
    return x * keep * scale, (keep, scale)


def ref_dropout_bwd(dy, cache):
    if cache is None:
        return dy
    keep, scale = cache
    return dy * keep * scale


def ref_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_attention_bwd(dout, cache, grads, prefix):
    """The attention backward with its old `dscores` and dropout; the
    projections go through the current `_linear_bwd`."""
    cq, ck, cv, qs, ks, vs, att, att_d, catt_drop, co, cout_drop, shape = cache
    b, t, d, h, dh = shape
    dout = ref_dropout_bwd(dout, cout_drop)
    dmerged, grads[prefix + "wo"], grads[prefix + "bo"] = network._linear_bwd(dout, co)
    dctx = dmerged.reshape(b, t, h, dh).transpose(0, 2, 1, 3)
    datt_d = dctx @ vs.transpose(0, 1, 3, 2)
    dvs = att_d.transpose(0, 1, 3, 2) @ dctx
    datt = ref_dropout_bwd(datt_d, catt_drop)
    dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    dscores /= math.sqrt(dh)
    dqs = dscores @ ks
    dks = dscores.transpose(0, 1, 3, 2) @ qs

    def merge(y):
        return y.transpose(0, 2, 1, 3).reshape(b, t, d)

    dq, grads[prefix + "wq"], grads[prefix + "bq"] = network._linear_bwd(merge(dqs), cq)
    dk, grads[prefix + "wk"], grads[prefix + "bk"] = network._linear_bwd(merge(dks), ck)
    dv, grads[prefix + "wv"], grads[prefix + "bv"] = network._linear_bwd(merge(dvs), cv)
    return dq + dk + dv


def snapshot(obj):
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (tuple, list)):
        return type(obj)(snapshot(o) for o in obj)
    if isinstance(obj, dict):
        return {k: snapshot(v) for k, v in obj.items()}
    return obj


def assert_identical(got, want):
    """Same structure, and every array the same dtype, shape and bits."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            assert_identical(got[k], want[k])
    else:
        assert got == want


DTYPES = [np.float32, np.float64]


class TestKernels:
    """Each in-place kernel against its old expression, bit for bit, with
    its inputs and the forward cache left as they were."""

    def normal(self, rng, dtype, *shape, scale=1.0):
        return rng.normal(0.0, scale, shape).astype(dtype)

    def check(self, new, ref, *args):
        before = snapshot(args)
        got = new(*args)
        assert_identical(args, before)
        assert_identical(got, ref(*args))
        return got

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layernorm(self, rng, dtype):
        # a train step's shape, and a decode step's [chunk, 1, d_model]
        for b_, t, d in ((3, 7, 16), (64, 1, 64)):
            x = self.normal(rng, dtype, b_, t, d, scale=3.0)
            g = self.normal(rng, dtype, d) + dtype(1.0)
            b = self.normal(rng, dtype, d)
            _, cache = self.check(network._layernorm_fwd, ref_layernorm_fwd, x, g, b)
            dy = self.normal(rng, dtype, b_, t, d)
            self.check(network._layernorm_bwd, ref_layernorm_bwd, dy, cache)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gelu(self, rng, dtype):
        x = self.normal(rng, dtype, 3, 7, 32, scale=3.0)
        _, cache = self.check(network._gelu_fwd, ref_gelu_fwd, x)
        self.check(network._gelu_bwd, ref_gelu_bwd, self.normal(rng, dtype, 3, 7, 32), cache)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rate, train_mode", [(0.3, True), (0.3, False), (0.0, True)])
    def test_dropout(self, rng, dtype, rate, train_mode):
        x = self.normal(rng, dtype, 3, 7, 16)
        got, cache = network._dropout_fwd(x, rate, train_mode, np.random.default_rng(1))
        want, ref_cache = ref_dropout_fwd(x.copy(), rate, train_mode, np.random.default_rng(1))
        assert_identical((got, cache), (want, ref_cache))
        self.check(network._dropout_bwd, ref_dropout_bwd, self.normal(rng, dtype, 3, 7, 16), cache)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("buffered", [False, True])
    # 0.5 + 2**-26 rounds to 0.5 in float32, which the draws compare with
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.5 + 2**-26])
    def test_keep_mask_is_the_float_draw(self, dtype, buffered, rate):
        # a float32 mask read from raw words: same mask, same generator state
        # afterwards, down to the buffered 32-bit half a checkpoint records
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        if buffered:  # an odd float32 draw leaves a 32-bit half buffered
            got_rng.random(dtype=np.float32)
            want_rng.random(dtype=np.float32)
        for size in (0, 1, 2, 3, 4, 5, 96, 97, 4096):
            shape = (size // 2, 2) if size % 2 == 0 else (size,)
            got = network._keep_mask(shape, np.dtype(dtype), rate, got_rng)
            want = want_rng.random(shape, dtype=dtype) >= rate
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want, strict=True)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, size

    def test_keep_mask_keeps_a_draw_equal_to_float32_rate(self):
        # a rate just above a float32 draw rounds down onto it, and numpy's
        # float32 comparison keeps that draw
        draws = np.random.default_rng(5).random(1000, dtype=np.float32)
        value = float(draws[draws >= 0.5][0])
        rate = value + 2**-30
        assert np.float32(rate) == value != rate
        got = network._keep_mask((1000,), np.dtype(np.float32), rate, np.random.default_rng(5))
        np.testing.assert_array_equal(got, draws >= rate)
        assert got[draws == value].all()

    def test_float32_scores_add_a_float32_mask(self, rng, monkeypatch):
        cfg = ModelConfig(**{**TINY.to_dict(), "dropout_rate": 0.0})
        params = {k: v.astype(np.float32) for k, v in init_params(cfg, seed=2).items()}
        x = self.normal(rng, np.float32, 3, 7, cfg.d_model)
        added = []
        mask = network._causal_mask

        def recording_mask(t, past, dtype):
            added.append(np.dtype(dtype))
            return mask(t, past, dtype)

        monkeypatch.setattr(network, "_causal_mask", recording_mask)
        _, cache = network._attention_fwd(x, params, "h0.attn.", cfg, 0.0, False, None, None)
        assert added == [np.float32] and mask(7, 0, np.float32).dtype == np.float32
        # the float64 mask as the scores added it before: the masked scores
        # differ in their last bits, but their exp is 0 either way
        monkeypatch.setattr(network, "_causal_mask", lambda t, past, _: mask(t, past, np.float64))
        _, want = network._attention_fwd(x, params, "h0.attn.", cfg, 0.0, False, None, None)
        att, want_att = cache[6], want[6]
        assert att.dtype == np.float32
        np.testing.assert_array_equal(att, want_att, strict=True)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax(self, rng, dtype):
        scores = self.normal(rng, dtype, 2, 3, 6, 6, scale=4.0)
        scores += network._causal_mask(6, 0, dtype)
        self.check(network._softmax, ref_softmax, scores)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_attention_backward(self, rng, dtype, rate):
        cfg = ModelConfig(**{**TINY.to_dict(), "dropout_rate": rate})
        params = {k: v.astype(dtype) for k, v in init_params(cfg, seed=2).items()}
        x = self.normal(rng, dtype, 3, 7, cfg.d_model)
        out, cache = network._attention_fwd(x, params, "h0.attn.", cfg, rate, True, np.random.default_rng(4), None)
        dout = self.normal(rng, dtype, *out.shape)
        got_grads, want_grads = {}, {}
        self.check(
            lambda *a: (network._attention_bwd(*a, got_grads, "h0.attn."), got_grads),
            lambda *a: (ref_attention_bwd(*a, want_grads, "h0.attn."), want_grads),
            dout, cache,
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(3, 7, 16, 32), (16, 27, 64, 256), (64, 1, 64, 64)])
    def test_linear_agrees_with_the_stacked_matmul(self, rng, dtype, shape):
        # one 2-D matmul over the flattened rows and numpy's stack of
        # per-row-block matmuls may take different BLAS kernels (a decode
        # step's [1, d] blocks are matrix-vector products), so each output
        # is held to the rounding of a d-term dot product
        b, t, d, n = shape
        x, dy = self.normal(rng, dtype, b, t, d), self.normal(rng, dtype, b, t, n)
        w, bias = self.normal(rng, dtype, d, n), self.normal(rng, dtype, n)
        before = snapshot((x, w, bias, dy))
        y, cache = network._linear_fwd(x, w, bias)
        grads = network._linear_bwd(dy, cache)
        assert_identical((x, w, bias, dy), before)
        want_y, want_cache = ref_linear_fwd(x, w, bias)
        want_grads = ref_linear_bwd(dy, want_cache)
        tol = 8 * np.finfo(dtype).eps * math.sqrt(max(d, n, b * t))
        for got, want in zip((y, *grads), (want_y, *want_grads)):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("tie, rate", [(True, 0.0), (False, 0.2)])
    def test_backward_leaves_the_forward_cache_alone(self, rng, dtype, tie, rate):
        cfg = ModelConfig(**{**TINY.to_dict(), "dropout_rate": rate, "tie_embeddings": tie})
        params = {k: v.astype(dtype) for k, v in init_params(cfg, seed=1).items()}
        inputs, targets, mask = tiny_batch(rng, cfg=cfg)
        logits, cache = forward(params, cfg, inputs, train_mode=True, rng=np.random.default_rng(2))
        _, dlogits = cross_entropy(logits, targets, mask.astype(dtype))
        kept_params, kept_cache, kept_dlogits = snapshot(params), snapshot(cache), dlogits.copy()
        first = backward(params, cfg, cache, dlogits)
        assert_identical((params, cache, dlogits), (kept_params, kept_cache, kept_dlogits))
        assert_identical(backward(params, cfg, cache, dlogits), first)


class TestNonFinite:
    def test_loss_and_grads_flags_bad_params(self, rng):
        params = init_params(TINY, seed=1)
        params["tok_emb"][0, 0] = np.nan
        inputs, targets, mask = tiny_batch(rng)
        with pytest.raises(FloatingPointError):
            loss_and_grads(params, TINY, inputs, targets, mask)
