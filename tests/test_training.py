import math
import os
import warnings

import numpy as np
import pytest

from chemlm import training
from chemlm.errors import TrainingDiverged
from chemlm.model import ModelConfig, load_checkpoint
from chemlm.rounding import round_coords
from chemlm.structures import Atom, Molecule
from chemlm.synth import synth_corpus
from chemlm.tokenize import Scheme, build_vocab, encode
from chemlm.training import (
    LR_END_DEFAULT,
    Adam,
    MAX_AUGMENT_ATTEMPTS,
    TrainConfig,
    clip_global_norm,
    lr_schedule,
    pad_batch,
    train,
)


def tiny_corpus():
    return [
        Molecule([Atom("C", 0.0, 0.0, 0.0), Atom("O", 1.2, 0.0, 0.0)]),
        Molecule([Atom("N", 0.0, 0.0, 0.0), Atom("N", 1.1, 0.0, 0.0)]),
        Molecule(
            [
                Atom("O", 0.0, 0.0, 0.0),
                Atom("C", 1.16, 0.0, 0.0),
                Atom("O", 2.32, 0.0, 0.0),
            ]
        ),
    ]


def setup_run(total_steps=8, **overrides):
    """(encoded tiny corpus, vocab, model config, train config)."""
    corpus = tiny_corpus()
    vocab = build_vocab(corpus, Scheme("atom_coord", 2))
    model_cfg = ModelConfig(
        n_layers=1,
        d_model=16,
        n_heads=2,
        d_ff=32,
        max_seq_len=16,
        vocab_size=len(vocab.tokens),
        dropout_rate=overrides.pop("dropout_rate", 0.0),
    )
    train_cfg = TrainConfig(
        batch_size=2,
        lr_start=1e-3,
        total_steps=total_steps,
        seed=overrides.pop("seed", 11),
        **overrides,
    )
    return [encode(s, vocab) for s in corpus], vocab, model_cfg, train_cfg


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig(batch_size=4, lr_start=1e-3, total_steps=10, seed=0)
        assert cfg.lr_end == LR_END_DEFAULT
        assert cfg.grad_clip == 1.0
        assert not cfg.augment

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0, lr_start=1e-3, total_steps=10, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1, lr_start=1e-7, total_steps=10, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1, lr_start=1e-3, total_steps=0, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1, lr_start=1e-3, total_steps=10, seed=0, grad_clip=-1)
        with pytest.raises(ValueError, match="grad_clip must be finite"):
            TrainConfig(batch_size=1, lr_start=1e-3, total_steps=10, seed=0, grad_clip=math.inf)
        for attempts in (0, MAX_AUGMENT_ATTEMPTS + 1):
            with pytest.raises(ValueError, match="augment_attempts"):
                TrainConfig(batch_size=1, lr_start=1e-3, total_steps=10, seed=0,
                            augment_attempts=attempts)

class TestLrSchedule:
    def cfg(self, total=100):
        return TrainConfig(batch_size=1, lr_start=1e-3, total_steps=total, seed=0)

    def test_endpoints(self):
        cfg = self.cfg()
        assert lr_schedule(0, cfg) == pytest.approx(1e-3)
        assert lr_schedule(100, cfg) == pytest.approx(LR_END_DEFAULT)

    def test_midpoint(self):
        cfg = self.cfg()
        assert lr_schedule(50, cfg) == pytest.approx((1e-3 + LR_END_DEFAULT) / 2)

    def test_clamped_after_total(self):
        cfg = self.cfg()
        assert lr_schedule(5000, cfg) == pytest.approx(LR_END_DEFAULT)

    def test_monotone_decreasing(self):
        cfg = self.cfg()
        values = [lr_schedule(s, cfg) for s in range(0, 120)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class ReferenceAdam:
    """Adam as it was before its updates were made in place."""

    def __init__(self, params):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads, lr):
        self.t += 1
        c1 = 1.0 - training.ADAM_BETA1**self.t
        c2 = 1.0 - training.ADAM_BETA2**self.t
        for k, g in grads.items():
            self.m[k] = training.ADAM_BETA1 * self.m[k] + (1.0 - training.ADAM_BETA1) * g
            self.v[k] = training.ADAM_BETA2 * self.v[k] + (1.0 - training.ADAM_BETA2) * g * g
            params[k] -= lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + training.ADAM_EPS)


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_matches_the_reference_bit_for_bit(self, rng, dtype):
        shapes = {"w": (16, 24), "b": (24,), "e": (11, 16)}
        start = {k: rng.normal(0.0, 0.02, s).astype(dtype) for k, s in shapes.items()}
        got, want = {k: v.copy() for k, v in start.items()}, {k: v.copy() for k, v in start.items()}
        opt, ref = Adam(got), ReferenceAdam(want)
        for step in range(5):
            grads = {k: rng.normal(0.0, 10.0 ** -step, s).astype(dtype) for k, s in shapes.items()}
            kept = {k: g.copy() for k, g in grads.items()}
            opt.step(got, grads, lr=1e-3 * (1 + step))
            ref.step(want, grads, lr=1e-3 * (1 + step))
            for k in shapes:
                np.testing.assert_array_equal(grads[k], kept[k])
                for a, b in ((got[k], want[k]), (opt.m[k], ref.m[k]), (opt.v[k], ref.v[k])):
                    assert a.dtype == b.dtype == dtype
                    assert np.array_equal(a, b), k

    def test_minimizes_a_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        opt = Adam(params)
        for _ in range(2000):
            grads = {"x": 2.0 * params["x"]}
            opt.step(params, grads, lr=1e-2)
        np.testing.assert_allclose(params["x"], 0.0, atol=1e-4)

    def test_bias_correction_first_step(self):
        # with bias correction the first update is about lr in magnitude,
        # regardless of the gradient scale
        params = {"x": np.array([0.0])}
        opt = Adam(params)
        opt.step(params, {"x": np.array([1e-6])}, lr=0.1)
        assert abs(params["x"][0] + 0.1) < 1e-3


class TestClip:
    def test_large_gradient_scaled(self):
        grads = {"a": np.array([3.0, 4.0])}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grads["a"], [0.6, 0.8])

    def test_small_gradient_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_global_norm(grads, 1.0)
        np.testing.assert_allclose(grads["a"], [0.3, 0.4])

    def test_zero_max_norm_disables(self):
        grads = {"a": np.array([30.0, 40.0])}
        clip_global_norm(grads, 0.0)
        np.testing.assert_allclose(grads["a"], [30.0, 40.0])

    def test_norm_spans_tensors(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert clip_global_norm(grads, 10.0) == pytest.approx(5.0)


class TestPadBatch:
    def test_shapes_and_shift(self):
        inputs, targets, mask = pad_batch([(0, 5, 6, 1), (0, 7, 1)], pad_id=2)
        assert inputs.shape == targets.shape == mask.shape == (2, 3)
        np.testing.assert_array_equal(inputs[0], [0, 5, 6])
        np.testing.assert_array_equal(targets[0], [5, 6, 1])
        np.testing.assert_array_equal(inputs[1], [0, 7, 1])
        np.testing.assert_array_equal(targets[1], [7, 1, 2])
        np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 1, 0]])

    def test_equal_lengths_no_padding(self):
        _, _, mask = pad_batch([(0, 3, 1), (0, 4, 1)], pad_id=2)
        assert mask.min() == 1.0


class TestTrain:
    def test_same_seed_identical_trajectories(self):
        sequences, vocab, model_cfg, train_cfg = setup_run()
        a = train(sequences, vocab, model_cfg, train_cfg)
        b = train(sequences, vocab, model_cfg, train_cfg)
        assert a.losses == b.losses
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self):
        sequences, vocab, model_cfg, cfg_a = setup_run(seed=11)
        _, _, _, cfg_b = setup_run(seed=12)
        a = train(sequences, vocab, model_cfg, cfg_a)
        b = train(sequences, vocab, model_cfg, cfg_b)
        assert a.losses != b.losses

    def test_loss_decreases_on_overfit(self):
        sequences, vocab, model_cfg, train_cfg = setup_run(total_steps=60)
        result = train(sequences, vocab, model_cfg, train_cfg)
        window = 20
        averages = [
            sum(result.losses[i : i + window]) / window
            for i in range(0, len(result.losses) - window + 1, window)
        ]
        assert averages[-1] < averages[0]

    def test_logged_lr_matches_schedule(self):
        sequences, vocab, model_cfg, train_cfg = setup_run()
        seen = []
        train(sequences, vocab, model_cfg, train_cfg,
              log=lambda s, loss, lr, grad_norm: seen.append((s, lr)))
        for step, lr in seen:
            assert lr == pytest.approx(lr_schedule(step - 1, train_cfg))

    def test_logged_grad_norm_is_the_unclipped_norm(self):
        # a clip far below every norm: the log must still see the norm
        # clip_global_norm measured, not the clipped one
        sequences, vocab, model_cfg, train_cfg = setup_run(total_steps=3, grad_clip=1e-6)
        seen = []
        train(sequences, vocab, model_cfg, train_cfg,
              log=lambda s, loss, lr, grad_norm: seen.append(grad_norm))
        assert len(seen) == 3
        assert all(isinstance(g, float) and 1e-3 < g < 1e6 for g in seen)

    def test_extra_padding_does_not_change_loss(self):
        # a batch where one sequence is longer forces PAD on the others;
        # the first-step loss must match the unpadded single-sequence sum
        sequences, vocab, model_cfg, _ = setup_run()
        from chemlm.model import cross_entropy, forward, init_params

        params = init_params(model_cfg, seed=0)
        seqs = [s.ids for s in sequences[:2]]

        inputs, targets, mask = pad_batch(seqs, vocab.pad_id)
        batched, _ = cross_entropy(
            forward(params, model_cfg, inputs, train_mode=False)[0], targets, mask
        )

        total, n = 0.0, 0
        for seq in seqs:
            i1, t1, m1 = pad_batch([seq], vocab.pad_id)
            loss1, _ = cross_entropy(
                forward(params, model_cfg, i1, train_mode=False)[0], t1, m1
            )
            total += float(loss1) * int(m1.sum())
            n += int(m1.sum())
        assert batched == pytest.approx(total / n, abs=1e-9)

    def test_divergence_aborts_with_context(self, tmp_path):
        # Adam updates are scale-normalized, so training (in float32) only
        # overflows at an absurd learning rate; that is exactly the abort
        # path we want. At 1e20 the first update stays finite and the
        # second forward overflows; at 1e160 the first update does, and no
        # checkpoint is written.
        sequences, vocab, model_cfg, _ = setup_run()
        for lr, checkpoints in ((1e20, 1), (1e160, 0)):
            out = tmp_path / repr(lr)
            out.mkdir()
            hot = TrainConfig(
                batch_size=2, lr_start=lr, total_steps=50, seed=11,
                lr_end=lr / 10, checkpoint_interval=1,
            )
            with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as ei:
                train(sequences, vocab, model_cfg, hot, out_dir=str(out))
            assert ei.value.step >= 0
            assert len(os.listdir(out)) == checkpoints
            if checkpoints:
                assert load_checkpoint(ei.value.checkpoint_path).step == 1
            else:
                assert ei.value.checkpoint_path is None

    @pytest.mark.parametrize("lr, steps", [(1e300, 1), (1e20, 5)])
    def test_divergence_emits_no_warning(self, lr, steps):
        # the overflow is reported once, as TrainingDiverged; numpy's
        # RuntimeWarnings (Adam's update at 1e300, the second backward at
        # 1e20) would be errors here
        sequences, vocab, model_cfg, _ = setup_run()
        hot = TrainConfig(batch_size=2, lr_start=lr, lr_end=1e-5, total_steps=steps, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged):
                train(sequences, vocab, model_cfg, hot)

    def test_checkpoints_written(self, tmp_path):
        sequences, vocab, model_cfg, train_cfg = setup_run(
            total_steps=6, checkpoint_interval=2
        )
        result = train(sequences, vocab, model_cfg, train_cfg, out_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "checkpoint_0000002.bin",
            "checkpoint_0000004.bin",
            "checkpoint_0000006.bin",
        ]
        assert result.checkpoint_path == str(tmp_path / "checkpoint_0000006.bin")

    def test_final_checkpoint_contents(self, tmp_path, monkeypatch):
        optimizers = []

        class RecordingAdam(Adam):
            def __init__(self, params):
                super().__init__(params)
                optimizers.append(self)

        monkeypatch.setattr(training, "Adam", RecordingAdam)
        sequences, vocab, model_cfg, train_cfg = setup_run(total_steps=4, dropout_rate=0.1)
        result = train(sequences, vocab, model_cfg, train_cfg, out_dir=str(tmp_path))
        ck = load_checkpoint(result.checkpoint_path)
        assert ck.step == 4
        assert ck.vocab_hash == vocab.content_hash()
        assert ck.config == model_cfg
        assert set(ck.rng_state) == {"shuffle", "augment", "dropout"}
        # training runs in float32; the checkpoint widens it exactly
        (adam,) = optimizers
        for k in result.params:
            assert result.params[k].dtype == adam.m[k].dtype == adam.v[k].dtype == np.float32, k
            assert ck.params[k].dtype == np.float64
            np.testing.assert_array_equal(ck.params[k].astype(np.float32), result.params[k], strict=True)

    def test_vocab_size_mismatch_rejected(self):
        sequences, vocab, model_cfg, train_cfg = setup_run()
        wrong = ModelConfig(**{**model_cfg.to_dict(), "vocab_size": len(vocab.tokens) + 1})
        with pytest.raises(ValueError, match="vocab"):
            train(sequences, vocab, wrong, train_cfg)

    def test_context_too_short_rejected(self):
        sequences, vocab, model_cfg, train_cfg = setup_run()
        small = ModelConfig(**{**model_cfg.to_dict(), "max_seq_len": 4})
        with pytest.raises(ValueError, match="exceeds"):
            train(sequences, vocab, small, train_cfg)

    def test_augmented_training_runs_and_is_deterministic(self):
        _, _, model_cfg, _ = setup_run()
        vocab = build_vocab(tiny_corpus(), Scheme("atom_coord", 2), dense_coordinate_range=True)
        sequences = [encode(s, vocab) for s in tiny_corpus()]
        model_cfg = ModelConfig(**{**model_cfg.to_dict(), "vocab_size": len(vocab.tokens)})
        cfg = TrainConfig(
            batch_size=2, lr_start=1e-3, total_steps=6, seed=3, augment=True
        )
        a = train(sequences, vocab, model_cfg, cfg)
        b = train(sequences, vocab, model_cfg, cfg)
        assert a.losses == b.losses

    def crystal_checkpoint(self, out_dir, **overrides):
        """The checkpoint bytes and losses of 4 steps on 6 perovskites."""
        corpus = [round_coords(c, 2) for c in synth_corpus("perovskite", 6, seed=5)]
        vocab = build_vocab(corpus, Scheme("atom_coord", 2))
        sequences = [encode(c, vocab) for c in corpus]
        model_cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, max_seq_len=40,
                                vocab_size=len(vocab.tokens))
        cfg = TrainConfig(batch_size=3, lr_start=1e-3, total_steps=4, seed=3, **overrides)
        result = train(sequences, vocab, model_cfg, cfg, out_dir=str(out_dir))
        with open(result.checkpoint_path, "rb") as fh:
            return fh.read(), result.losses

    def test_unshifted_crystals_skip_augmentation(self, tmp_path, monkeypatch):
        # without --crystal-shift nothing moves a crystal, so train neither
        # decodes the corpus nor encodes a batch item
        want = self.crystal_checkpoint(tmp_path / "off")
        def refuse(*args, **kwargs):
            raise AssertionError("augmentation work for an unmoved crystal")
        monkeypatch.setattr(training, "encode", refuse)
        monkeypatch.setattr(training, "decode", refuse)
        assert self.crystal_checkpoint(tmp_path / "on", augment=True) == want

    def test_unshifted_crystals_train_as_when_re_encoded(self, tmp_path, monkeypatch):
        # the skipped work re-encoded each decoded crystal, unmoved and
        # without a draw, to its corpus ids: a shift that leaves the crystal
        # as it is takes that path and gives the same bytes
        want = self.crystal_checkpoint(tmp_path / "skipped", augment=True)
        encoded = []
        def counting_encode(*args, **kwargs):
            encoded.append(args[0])
            return encode(*args, **kwargs)
        monkeypatch.setattr(training, "encode", counting_encode)
        monkeypatch.setattr(training, "augment_structure", lambda s, rng, shift: s)
        got = self.crystal_checkpoint(tmp_path / "re_encoded", augment=True, crystal_shift=True)
        assert len(encoded) == 4 * 3
        assert got == want

    def test_empty_corpus_rejected(self):
        _, vocab, model_cfg, train_cfg = setup_run()
        with pytest.raises(ValueError, match="empty"):
            train([], vocab, model_cfg, train_cfg)


class FakeMallopt:
    """A C function that records its (option, value) calls."""

    def __init__(self, returns):
        self.calls = []
        self.returns = returns

    def __call__(self, option, value):
        self.calls.append((option, value))
        return self.returns


class FakeLibc:
    def __init__(self, returns=1):
        self.mallopt = FakeMallopt(returns)


class TestAllocator:
    def checkpoint_bytes(self, tmp_path, name):
        sequences, vocab, model_cfg, train_cfg = setup_run(total_steps=3, dropout_rate=0.1)
        result = train(sequences, vocab, model_cfg, train_cfg, out_dir=str(tmp_path / name))
        with open(result.checkpoint_path, "rb") as fh:
            return fh.read()

    def test_train_sets_both_thresholds(self, tmp_path, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(training, "_libc", lambda: libc)
        self.checkpoint_bytes(tmp_path, "run")
        # mmap threshold 32 MiB, then trim threshold 1 GiB: setting either
        # one turns off glibc's dynamic mmap threshold
        assert libc.mallopt.calls == [(-3, 32 * 2**20), (-1, 2**30)]

    def test_keep_freed_pages_reports_what_took(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(training, "_libc", lambda: libc)
        assert training.keep_freed_pages() is True
        refusing = FakeLibc(returns=0)
        monkeypatch.setattr(training, "_libc", lambda: refusing)
        assert training.keep_freed_pages() is False
        assert refusing.mallopt.calls == [(-3, 32 * 2**20)]
        for missing in (object(), None):
            monkeypatch.setattr(training, "_libc", lambda missing=missing: missing)
            assert training.keep_freed_pages() is False

    def test_without_mallopt_the_checkpoint_is_unchanged(self, tmp_path, monkeypatch):
        want = self.checkpoint_bytes(tmp_path, "real")
        for name, libc in (("no_mallopt", object()), ("refused", FakeLibc(returns=0))):
            monkeypatch.setattr(training, "_libc", lambda libc=libc: libc)
            assert self.checkpoint_bytes(tmp_path, name) == want, name
