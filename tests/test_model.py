import numpy as np
import pytest

from chemlm.model import (
    Checkpoint,
    ModelConfig,
    backward,
    cross_entropy,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    param_count,
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
        params = init_params(TINY, seed=0)
        assert param_count(params) == sum(v.size for v in params.values())

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


class TestNonFinite:
    def test_loss_and_grads_flags_bad_params(self, rng):
        params = init_params(TINY, seed=1)
        params["tok_emb"][0, 0] = np.nan
        inputs, targets, mask = tiny_batch(rng)
        with pytest.raises(FloatingPointError):
            loss_and_grads(params, TINY, inputs, targets, mask)
