import numpy as np
import pytest

import chemlm.sampling as sampling_module
from chemlm.model import Checkpoint, ModelConfig, forward, init_params
from chemlm.sampling import (
    SampleConfig,
    sample,
    sample_from_checkpoint,
    truncation_rate,
)
from chemlm.structures import Atom, Molecule
from chemlm.synth import synth_corpus
from chemlm.tokenize import Scheme, TokenSequence, build_vocab


@pytest.fixture(scope="module")
def setup():
    corpus = [
        Molecule([Atom("C", 0.0, 0.0, 0.0), Atom("O", 1.2, 0.0, 0.0)]),
        Molecule([Atom("N", 0.0, 0.0, 0.0), Atom("N", 1.1, 0.0, 0.0)]),
    ]
    vocab = build_vocab(corpus, Scheme("atom_coord", 2))
    cfg = ModelConfig(
        n_layers=1,
        d_model=16,
        n_heads=2,
        d_ff=32,
        max_seq_len=24,
        vocab_size=len(vocab.tokens),
        dropout_rate=0.0,
    )
    params = init_params(cfg, seed=7)
    return params, cfg, vocab


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(n_samples=0, max_len=10)
        with pytest.raises(ValueError):
            SampleConfig(n_samples=1, max_len=1)
        with pytest.raises(ValueError):
            SampleConfig(n_samples=1, max_len=10, temperature=-0.5)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_temperature_must_be_finite(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            SampleConfig(n_samples=1, max_len=10, temperature=temperature)


def reference_draw(logits, temperature, u):
    """The per-row draw the sampler made before it drew all rows at once."""
    if temperature == 0.0:
        return int(np.argmax(logits))
    z = logits / temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, len(p) - 1)


def row_uniforms(seed, n):
    """Each row's first uniform from its own [seed, row] rng, as the sampler draws them."""
    return np.array([np.random.default_rng([seed, i]).random() for i in range(n)])


class TestDraw:
    def test_rows_match_the_per_row_draw_at_temperatures_0_and_1(self, rng):
        # float64 exp, sum and cumsum along the last axis give each row the
        # values they give it alone, so the draw is the same bit for bit
        for n, v in ((1, 5), (7, 11), (64, 101), (33, 801)):
            logits = rng.normal(0.0, 3.0, size=(n, v))
            before = logits.copy()
            for temperature in (0.0, 1.0):
                u = row_uniforms(4, n)
                got = sampling_module._draw(logits, temperature, u)
                want = [reference_draw(row, temperature, ui) for row, ui in zip(logits, u)]
                assert got.tolist() == want
            np.testing.assert_array_equal(logits, before)

    def test_other_temperatures_agree_with_the_per_row_draw(self, rng):
        # the row max is subtracted before dividing, so z may move in its
        # last bit; no draw of this size lands on such a boundary
        logits = rng.normal(0.0, 3.0, size=(64, 101))
        for temperature in (0.3, 0.7, 1.5, 4.0):
            u = row_uniforms(5, 64)
            got = sampling_module._draw(logits, temperature, u)
            want = [reference_draw(row, temperature, ui) for row, ui in zip(logits, u)]
            assert got.tolist() == want

    def test_ties_and_u_on_a_cdf_boundary(self):
        # four equal logits: the CDF is exactly 0.25, 0.5, 0.75, 1.0, and a u
        # equal to a boundary belongs to the next id, as searchsorted(side="right")
        logits = np.zeros((6, 4))
        us = [0.0, 0.25, 0.5, 0.75, 0.2499999999999999, 0.9999999999999999]
        want_ids = [0, 1, 2, 3, 0, 3]
        got = sampling_module._draw(logits, 1.0, np.array(us))
        assert got.tolist() == want_ids
        assert [reference_draw(row, 1.0, u) for row, u in zip(logits, us)] == want_ids
        # greedy takes the first of tied maxima
        tied = np.array([[0.0, 2.0, 2.0, 1.0], [3.0, 3.0, 3.0, 3.0]])
        assert sampling_module._draw(tied, 0.0, np.array([0.5, 0.5])).tolist() == [1, 0]
        assert [reference_draw(row, 0.0, 0.5) for row in tied] == [1, 0]

    def test_tiny_temperature_draws_among_the_maxima(self):
        # 1e-320 is subnormal: dividing the logits by it first overflowed to
        # inf - inf = nan, and every draw returned id 0
        logits = np.array([[0.5, 2.0, -1.0, 1.9], [4.0, 0.0, 4.0, -3.0]])
        rng = np.random.default_rng(0)
        for _ in range(20):
            got = sampling_module._draw(logits, 1e-320, rng.random(2)).tolist()
            assert got[0] == 1 and got[1] in (0, 2)


class TestSample:
    def test_shape_of_output(self, setup):
        params, cfg, vocab = setup
        seqs = sample(params, cfg, vocab, SampleConfig(n_samples=5, max_len=12, seed=1))
        assert len(seqs) == 5
        for s in seqs:
            assert s.ids[0] == vocab.bos_id
            assert len(s.ids) <= 12

    def test_terminates_at_eos_or_cap(self, setup):
        params, cfg, vocab = setup
        seqs = sample(params, cfg, vocab, SampleConfig(n_samples=8, max_len=10, seed=2))
        for s in seqs:
            content = s.ids[1:]
            if s.truncated:
                assert vocab.eos_id not in content
                assert len(s.ids) == 10
            else:
                assert content[-1] == vocab.eos_id
                assert content.count(vocab.eos_id) == 1

    def test_fixed_seed_reproducible(self, setup):
        params, cfg, vocab = setup
        c = SampleConfig(n_samples=6, max_len=12, seed=3)
        a = sample(params, cfg, vocab, c)
        b = sample(params, cfg, vocab, c)
        assert [s.ids for s in a] == [s.ids for s in b]
        assert [s.truncated for s in a] == [s.truncated for s in b]

    def test_seed_matters(self, setup):
        params, cfg, vocab = setup
        a = sample(params, cfg, vocab, SampleConfig(n_samples=6, max_len=12, seed=3))
        b = sample(params, cfg, vocab, SampleConfig(n_samples=6, max_len=12, seed=4))
        assert [s.ids for s in a] != [s.ids for s in b]

    def test_greedy_is_deterministic_and_identical_across_sequences(self, setup):
        params, cfg, vocab = setup
        seqs = sample(
            params, cfg, vocab,
            SampleConfig(n_samples=4, max_len=12, temperature=0.0, seed=9),
        )
        assert len({s.ids for s in seqs}) == 1

    def test_chunking_does_not_change_results(self, setup, monkeypatch):
        params, cfg, vocab = setup
        c = SampleConfig(n_samples=7, max_len=12, seed=5)
        whole = sample(params, cfg, vocab, c)
        monkeypatch.setattr(sampling_module, "CHUNK", 3)
        chunked = sample(params, cfg, vocab, c)
        assert [s.ids for s in whole] == [s.ids for s in chunked]

    def test_low_temperature_limit_is_greedy(self, setup):
        params, cfg, vocab = setup
        greedy = sample(params, cfg, vocab, SampleConfig(n_samples=1, max_len=12, temperature=0.0, seed=6))
        cold = sample(params, cfg, vocab, SampleConfig(n_samples=5, max_len=12, temperature=1e-4, seed=6))
        for s in cold:
            assert s.ids == greedy[0].ids

    def test_subnormal_temperature_is_greedy(self, setup):
        params, cfg, vocab = setup
        greedy = sample(params, cfg, vocab, SampleConfig(n_samples=1, max_len=12, temperature=0.0, seed=6))
        cold = sample(params, cfg, vocab, SampleConfig(n_samples=5, max_len=12, temperature=1e-320, seed=6))
        for s in cold:
            assert s.ids == greedy[0].ids

    def test_max_len_beyond_context_rejected(self, setup):
        params, cfg, vocab = setup
        with pytest.raises(ValueError, match="max_seq_len"):
            sample(params, cfg, vocab, SampleConfig(n_samples=1, max_len=cfg.max_seq_len + 1))

    def test_vocab_size_mismatch_rejected(self, setup):
        params, cfg, vocab = setup
        wrong = ModelConfig(**{**cfg.to_dict(), "vocab_size": len(vocab.tokens) + 3})
        with pytest.raises(ValueError, match="vocab"):
            sample(params, wrong, vocab, SampleConfig(n_samples=1, max_len=8))


def reference_sample(params, model_cfg, vocab, cfg):
    """The full-prefix sampler: one whole forward over every active row's
    prefix per new token, with the same chunks and rngs, drawing row by row."""
    out = [None] * cfg.n_samples
    for start in range(0, cfg.n_samples, sampling_module.CHUNK):
        indices = range(start, min(start + sampling_module.CHUNK, cfg.n_samples))
        rngs = {i: np.random.default_rng([cfg.seed, i]) for i in indices}
        seqs = {i: [vocab.bos_id] for i in indices}
        active = list(indices)
        while active:
            prefix = np.array([seqs[i] for i in active], dtype=np.int64)
            logits, _ = forward(params, model_cfg, prefix, train_mode=False)
            still = []
            for row, i in enumerate(active):
                seqs[i].append(reference_draw(logits[row, -1], cfg.temperature, rngs[i].random()))
                if seqs[i][-1] == vocab.eos_id:
                    out[i] = TokenSequence(ids=seqs[i], truncated=False)
                elif len(seqs[i]) >= cfg.max_len:
                    out[i] = TokenSequence(ids=seqs[i], truncated=True)
                else:
                    still.append(i)
            active = still
    return out


@pytest.fixture(scope="module", params=["molecule", "perovskite", "pocket"])
def kind_model(request):
    """A two-layer model for one kind, vocabulary from a few synthesized structures."""
    vocab = build_vocab(synth_corpus(request.param, 4, seed=0), Scheme("atom_coord", 1))
    cfg = ModelConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32, max_seq_len=40,
        vocab_size=len(vocab.tokens), dropout_rate=0.0,
    )
    return init_params(cfg, seed=11), cfg, vocab


class TestAgainstFullPrefix:
    # at temperature 1 the EOS logit is raised, so that rows of one chunk
    # end at different steps and leave the others' cached K/V behind: the
    # final layer norm's bias shifts every hidden state along lnf.b, and
    # EOS's (tied) embedding row, which is never fed back, gains a multiple
    # of it
    @pytest.mark.parametrize("temperature, eos_bias", [(0.0, 0.0), (1.0, 0.06)])
    def test_token_for_token_identical(self, kind_model, monkeypatch, temperature, eos_bias):
        params, cfg, vocab = kind_model
        params = {**params, "lnf.b": np.random.default_rng(12).normal(0.0, 1.0, cfg.d_model)}
        params["tok_emb"] = params["tok_emb"].copy()
        params["tok_emb"][vocab.eos_id] += eos_bias * params["lnf.b"]
        monkeypatch.setattr(sampling_module, "CHUNK", 3)
        c = SampleConfig(n_samples=7, max_len=cfg.max_seq_len, temperature=temperature, seed=5)
        got = sample(params, cfg, vocab, c)
        want = reference_sample(params, cfg, vocab, c)
        assert [s.ids for s in got] == [s.ids for s in want]
        assert [s.truncated for s in got] == [s.truncated for s in want]
        if temperature:
            assert len({len(s.ids) for s in want}) > 2

    # a larger EOS bias makes rows of one chunk end at many different steps,
    # so the cache is compacted several times inside each chunk; at
    # temperature 0 every row of a chunk is the same sequence and they end together
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_compaction_mid_chunk(self, kind_model, monkeypatch, temperature):
        params, cfg, vocab = kind_model
        params = {**params, "lnf.b": np.random.default_rng(12).normal(0.0, 1.0, cfg.d_model)}
        params["tok_emb"] = params["tok_emb"].copy()
        params["tok_emb"][vocab.eos_id] += 0.1 * params["lnf.b"]
        monkeypatch.setattr(sampling_module, "CHUNK", 8)
        steps = []  # per decode step: layer 0's buffers and every layer's filled prefix

        def spy(*args, kv, **kwargs):
            out = forward(*args, kv=kv, **kwargs)
            k0, v0, n = kv["h0.attn."]
            filled = [(k[:, :, :n].copy(), v[:, :, :n].copy()) for k, v, _ in kv.values()]
            steps.append((k0, v0, filled, n))
            return out

        monkeypatch.setattr(sampling_module, "forward", spy)
        c = SampleConfig(n_samples=16, max_len=cfg.max_seq_len, temperature=temperature, seed=5)
        got = sample(params, cfg, vocab, c)
        want = reference_sample(params, cfg, vocab, c)
        assert [s.ids for s in got] == [s.ids for s in want]
        assert [s.truncated for s in got] == [s.truncated for s in want]

        starts = [j for j, step in enumerate(steps) if step[3] == 1]
        assert len(starts) == 2 and starts[0] == 0
        for chunk, (a, b) in enumerate(zip(starts, starts[1:] + [len(steps)])):
            k0, v0, _, _ = steps[a]
            rows = []
            for k, v, filled, n in steps[a:b]:
                # each chunk's steps write into the buffers its first step allocated
                assert np.shares_memory(k, k0) and np.shares_memory(v, v0)
                # and their filled prefix holds, row for row, the keys and values
                # one full forward over the still active sequences computes
                active = [i for i in range(8 * chunk, 8 * chunk + 8) if len(want[i].ids) > n]
                _, cache = forward(params, cfg, [want[i].ids[:n] for i in active], train_mode=False)
                for (fk, fv), block in zip(filled, cache[2]):
                    np.testing.assert_allclose(fk, block[1][4], rtol=0, atol=1e-12)
                    np.testing.assert_allclose(fv, block[1][5], rtol=0, atol=1e-12)
                rows.append(len(active))
            assert rows[0] == 8
            compactions = sum(r < prev for prev, r in zip(rows, rows[1:]))
            assert compactions >= (2 if temperature else 0)


class TestFromCheckpoint:
    def test_hash_checked(self, setup):
        params, cfg, vocab = setup
        ck = Checkpoint(params, cfg, vocab.content_hash(), {}, 0)
        seqs = sample_from_checkpoint(ck, vocab, SampleConfig(n_samples=2, max_len=10, seed=1))
        assert len(seqs) == 2

        stale = Checkpoint(params, cfg, "0" * 64, {}, 0)
        with pytest.raises(ValueError, match="hash"):
            sample_from_checkpoint(stale, vocab, SampleConfig(n_samples=2, max_len=10))


class TestTruncationRate:
    def test_rate(self, setup):
        params, cfg, vocab = setup
        seqs = sample(params, cfg, vocab, SampleConfig(n_samples=10, max_len=10, seed=0))
        rate = truncation_rate(seqs)
        assert rate == sum(1 for s in seqs if s.truncated) / 10
        assert truncation_rate([]) == 0.0
