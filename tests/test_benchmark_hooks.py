"""The pipeline benchmark's tracer (benchmarks/tracing.py) wraps chemlm
functions at fixed module attributes. Entering it reads every one of
them, so renaming a patched attribute away fails here in seconds rather
than only in the long benchmark self-test."""

import os

import pytest

import chemlm.cli
import chemlm.metrics.report
import chemlm.sampling
from chemlm.model import ModelConfig, init_params
from chemlm.synth import synth_corpus
from chemlm.tokenize import Scheme, build_vocab, encode

BENCHMARKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks")


def test_tracer_installs_and_restores_every_patch_point(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracing import Tracer

    originals = (chemlm.cli.parse_document, chemlm.metrics.report.canonical_key)
    with Tracer().installed():
        assert chemlm.cli.parse_document is not originals[0]
        assert chemlm.metrics.report.canonical_key is not originals[1]
    assert (chemlm.cli.parse_document, chemlm.metrics.report.canonical_key) == originals


def test_sampler_forward_counts_one_position_per_token(monkeypatch):
    # the tracer counts the positions of every forward the sampler makes
    # with train_mode false, so one per generated token is a
    # positions_per_token of 1; it finds train_mode by keyword or as the
    # first argument after ids, so a sampler passing kv positionally reads
    # as training here
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracing import Tracer

    vocab = build_vocab(synth_corpus("molecule", 4, seed=0), Scheme("atom_coord", 1))
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, max_seq_len=30,
                      vocab_size=len(vocab.tokens), dropout_rate=0.0)
    tracer = Tracer()
    with tracer.installed():
        seqs = chemlm.sampling.sample(
            init_params(cfg, seed=0), cfg, vocab, chemlm.sampling.SampleConfig(5, 30, seed=1)
        )
    generated = sum(len(s.ids) - 1 for s in seqs)
    assert generated > len(seqs)
    assert tracer.counts["model.sample_positions"] == generated
    assert tracer.counts["model.logits_bytes"] == 0


@pytest.mark.parametrize("kind", ["molecule", "perovskite"])
def test_evaluate_enters_the_decode_validity_and_key_spans(monkeypatch, kind):
    # the tracer sees decoding, validity and keys only while evaluate
    # still calls them through chemlm.metrics.report's attributes
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracing import Tracer

    corpus = synth_corpus(kind, 4, seed=0)
    vocab = build_vocab(corpus, Scheme("atom_coord", 2))
    sequences = [encode(s, vocab) for s in corpus]
    tracer = Tracer()
    with tracer.installed():
        result = chemlm.metrics.report.evaluate_sequences(sequences, vocab, corpus)
    assert result.report.n_valid > 0
    for span in ("tokenize.decode", "metrics.validity", "metrics.keys"):
        assert tracer.calls[span] > 0, span
