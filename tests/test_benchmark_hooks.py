"""The pipeline benchmark's tracer (benchmarks/tracing.py) wraps chemlm
functions at fixed module attributes. Entering it reads every one of
them, so renaming a patched attribute away fails here in seconds rather
than only in the long benchmark self-test."""

import os

import chemlm.cli
import chemlm.metrics.report

BENCHMARKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks")


def test_tracer_installs_and_restores_every_patch_point(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracing import Tracer

    originals = (chemlm.cli.parse_document, chemlm.metrics.report.canonical_key)
    with Tracer().installed():
        assert chemlm.cli.parse_document is not originals[0]
        assert chemlm.metrics.report.canonical_key is not originals[1]
    assert (chemlm.cli.parse_document, chemlm.metrics.report.canonical_key) == originals
