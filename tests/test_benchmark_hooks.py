"""The pipeline benchmark's tracer (benchmarks/tracing.py) wraps chemlm
functions at fixed module attributes. Entering it reads every one of
them, so renaming a patched attribute away fails here in seconds rather
than only in the long benchmark self-test."""

import json
import os

import pytest

import chemlm.cli
import chemlm.metrics.report
import chemlm.rounding
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


@pytest.mark.parametrize("scheme", ["atom_coord", "char"])
def test_prepare_rounds_each_structure_once(monkeypatch, tmp_path, scheme):
    # the writers and the tokenizer only format, so prepare's one
    # round_coords per structure is the only rounding the tracer sees
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracing import Tracer

    synth = str(tmp_path / "synth")
    assert chemlm.cli.main(["synth", "--kind", "molecule", "--n", "5", "--seed", "2",
                            "--out", synth]) == 0
    tracer = Tracer()
    with tracer.installed():
        assert chemlm.cli.main(["prepare", "--input", os.path.join(synth, "structures"),
                                "--scheme", scheme, "--precision", "2",
                                "--out", str(tmp_path / "prepare")]) == 0
    assert tracer.calls["rounding.round"] == 5


@pytest.mark.parametrize("scheme", ["atom_coord", "char"])
def test_prepare_formats_each_coordinate_once(monkeypatch, tmp_path, scheme):
    # round_coords keeps the text it formats on the structure it returns,
    # so the vocabulary, the writer and the encoder format nothing again;
    # that text lives on the object only, so a second prepare of the same
    # files in one process formats as much as the first, as a separate
    # CLI run would: a process-wide cache would flatter the benchmark
    synth = str(tmp_path / "synth")
    assert chemlm.cli.main(["synth", "--kind", "molecule", "--n", "5", "--seed", "2",
                            "--out", synth]) == 0
    calls = []
    fmt_fixed = chemlm.rounding.fmt_fixed

    def counting(x, precision):
        calls.append(x)
        return fmt_fixed(x, precision)

    monkeypatch.setattr(chemlm.rounding, "fmt_fixed", counting)
    counts = []
    for run in range(2):
        calls.clear()
        out = str(tmp_path / f"prepare{run}")
        assert chemlm.cli.main(["prepare", "--input", os.path.join(synth, "structures"),
                                "--scheme", scheme, "--precision", "2", "--out", out]) == 0
        counts.append(len(calls))
    with open(os.path.join(out, "stats.json"), encoding="utf-8") as fh:
        histogram = json.load(fh)["atom_count_histogram"]
    atoms = sum(int(n) * count for n, count in histogram.items())
    assert counts == [3 * atoms, 3 * atoms]
