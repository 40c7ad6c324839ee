"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces the public functions of each chemlm layer,
at the module attributes where the callers look them up, with wrappers
that record a span per call, and puts the originals back on exit. Spans
nest: a layer's self time is its spans' duration minus the time of the
wrapped calls made inside them. Spans are summed in memory and read out
once per round; nothing is written while the pipeline runs.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import chemlm.cli
import chemlm.manifest
import chemlm.metrics.report
import chemlm.model.network
import chemlm.sampling
import chemlm.tokenize.codec
import chemlm.training
from chemlm.errors import DecodeError

#: Per-layer metrics of one traced round: name -> unit.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "manifest.hash_s": "s",
    "manifest.bytes_hashed": "bytes",
    "formats.parse_s": "s",
    "formats.write_s": "s",
    "formats.files": "count",
    "formats.prune_s": "s",
    "rounding.round_s": "s",
    "tokenize.build_vocab_s": "s",
    "tokenize.encode_s": "s",
    "tokenize.encode_calls": "count",
    "tokenize.decode_s": "s",
    "tokenize.decode_attempts": "count",
    "tokenize.decode_failed": "count",
    "model.forward_train_s": "s",
    "model.backward_s": "s",
    "model.cross_entropy_s": "s",
    "model.logits_bytes": "computed_bytes",
    "model.forward_sample_s": "s",
    "model.sample_positions": "count",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "training.step_s": "s",
    "training.adam_s": "s",
    "training.clip_s": "s",
    "training.pad_batch_s": "s",
    "training.steps": "count",
    "training.target_tokens": "tokens",
    "training.computed_positions": "count",
    "training.mask_fill_ratio": "ratio",
    "sampling.self_s": "s",
    "sampling.tokens": "tokens",
    "sampling.truncated": "count",
    "sampling.positions_per_token": "ratio",
    "metrics.validity_s": "s",
    "metrics.keys_s": "s",
    "metrics.properties_s": "s",
    "metrics.emd_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

# (module, attribute, span name). Every caller in chemlm reaches these
# functions through one of the listed module attributes.
_SPANS = [
    (chemlm.cli, "tree_hash", "manifest.hash"),
    (chemlm.cli, "hash_outputs", "manifest.hash"),
    (chemlm.cli, "parse_document", "formats.parse"),
    (chemlm.cli, "write_structure", "formats.write"),
    (chemlm.cli, "prune_pocket", "formats.prune"),
    (chemlm.cli, "round_coords", "rounding.round"),
    (chemlm.tokenize.codec, "round_coords", "rounding.round"),
    (chemlm.cli, "build_vocab", "tokenize.build_vocab"),
    (chemlm.cli, "encode", "tokenize.encode"),
    (chemlm.training, "encode", "tokenize.encode"),
    (chemlm.model.network, "backward", "model.backward"),
    (chemlm.model.network, "cross_entropy", "model.cross_entropy"),
    (chemlm.training, "save_checkpoint", "model.checkpoint_save"),
    (chemlm.cli, "load_checkpoint", "model.checkpoint_load"),
    (chemlm.cli, "train", "training.train"),
    (chemlm.training.Adam, "step", "training.adam"),
    (chemlm.training, "clip_global_norm", "training.clip"),
    (chemlm.training, "pad_batch", "training.pad_batch"),
    (chemlm.cli, "sample_from_checkpoint", "sampling.sample"),
    (chemlm.metrics.report, "molecule_validity", "metrics.validity"),
    (chemlm.metrics.report, "crystal_structural_validity", "metrics.validity"),
    (chemlm.metrics.report, "charge_neutrality", "metrics.validity"),
    (chemlm.metrics.report, "pocket_residue_check", "metrics.validity"),
    (chemlm.metrics.report, "pocket_overlap_check", "metrics.validity"),
    (chemlm.metrics.report, "canonical_key", "metrics.keys"),
    (chemlm.metrics.report, "unique_novel", "metrics.keys"),
    (chemlm.metrics.report, "emd_1d", "metrics.emd"),
]


class Tracer:
    """Span and count totals for the commands run while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inner_s = defaultdict(float)  # (parent, child) -> inclusive seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [name, child seconds]

    @contextmanager
    def span(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            parent = self._stack[-1] if self._stack else [None, 0.0]
            parent[1] += duration
            self.inner_s[(parent[0], name)] += duration

    def _wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result)
            return result

        return wrapper

    def _forward(self, fn):
        def wrapper(params, cfg, ids, *args, **kwargs):
            train_mode = kwargs.get("train_mode", args[0] if args else False)
            shape = np.shape(ids)
            b, t = (1, shape[0]) if len(shape) == 1 else shape[:2]
            if train_mode:
                name = "model.forward_train"
                logits = b * t * cfg.vocab_size * 8
                self.counts["model.logits_bytes"] = max(self.counts["model.logits_bytes"], logits)
            else:
                name = "model.forward_sample"
                self.counts["model.sample_positions"] += b * t
            with self.span(name):
                return fn(params, cfg, ids, *args, **kwargs)

        return wrapper

    def _decode(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("tokenize.decode"):
                try:
                    return fn(*args, **kwargs)
                except DecodeError:
                    self.counts["tokenize.decode_failed"] += 1
                    raise

        return wrapper

    def _sha256(self, fn):
        def wrapper(path):
            self.counts["manifest.bytes_hashed"] += os.path.getsize(path)
            return fn(path)

        return wrapper

    def _properties(self, fn):
        def wrapper(kind):
            return {
                name: self._wrap("metrics.properties", prop)
                for name, prop in fn(kind).items()
            }

        return wrapper

    def _padded(self, result):
        inputs, _, mask = result
        self.counts["training.target_tokens"] += int(mask.sum())
        self.counts["training.computed_positions"] += int(inputs.size)

    def _sampled(self, sequences):
        self.counts["sampling.tokens"] += sum(len(s.ids) - 1 for s in sequences)
        self.counts["sampling.truncated"] += sum(1 for s in sequences if s.truncated)

    @contextmanager
    def installed(self):
        """Wrap every layer function listed above; restore them on exit."""
        count = {"training.pad_batch": self._padded, "sampling.sample": self._sampled}
        patches = [
            (owner, attr, self._wrap(name, getattr(owner, attr), count.get(name)))
            for owner, attr, name in _SPANS
        ]
        patches += [
            (chemlm.model.network, "forward", self._forward(chemlm.model.network.forward)),
            (chemlm.sampling, "forward", self._forward(chemlm.sampling.forward)),
            (chemlm.metrics.report, "decode", self._decode(chemlm.metrics.report.decode)),
            (chemlm.manifest, "file_sha256", self._sha256(chemlm.manifest.file_sha256)),
            (chemlm.cli, "file_sha256",
             self._wrap("manifest.hash", self._sha256(chemlm.cli.file_sha256))),
            (chemlm.metrics.report, "property_functions",
             self._properties(chemlm.metrics.report.property_functions)),
            (chemlm.cli, "property_functions", self._properties(chemlm.cli.property_functions)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Per-layer values of everything recorded, keyed as PER_LAYER_UNITS."""
        s, c, calls = self.self_s, self.counts, self.calls
        steps = calls["training.adam"]
        train_inner = sum(
            v for (parent, child), v in self.inner_s.items()
            if parent == "training.train"
            and child in ("tokenize.encode", "model.checkpoint_save")
        )
        train_total = sum(v for (_, child), v in self.inner_s.items() if child == "training.train")
        return {
            "cli.self_s": s["cli"],
            "manifest.hash_s": s["manifest.hash"],
            "manifest.bytes_hashed": c["manifest.bytes_hashed"],
            "formats.parse_s": s["formats.parse"],
            "formats.write_s": s["formats.write"],
            "formats.files": calls["formats.parse"] + calls["formats.write"],
            "formats.prune_s": s["formats.prune"],
            "rounding.round_s": s["rounding.round"],
            "tokenize.build_vocab_s": s["tokenize.build_vocab"],
            "tokenize.encode_s": s["tokenize.encode"],
            "tokenize.encode_calls": calls["tokenize.encode"],
            "tokenize.decode_s": s["tokenize.decode"],
            "tokenize.decode_attempts": calls["tokenize.decode"],
            "tokenize.decode_failed": c["tokenize.decode_failed"],
            "model.forward_train_s": s["model.forward_train"],
            "model.backward_s": s["model.backward"],
            "model.cross_entropy_s": s["model.cross_entropy"],
            "model.logits_bytes": c["model.logits_bytes"],
            "model.forward_sample_s": s["model.forward_sample"],
            "model.sample_positions": c["model.sample_positions"],
            "model.checkpoint_save_s": s["model.checkpoint_save"],
            "model.checkpoint_load_s": s["model.checkpoint_load"],
            "training.step_s": (train_total - train_inner) / steps if steps else 0.0,
            "training.adam_s": s["training.adam"],
            "training.clip_s": s["training.clip"],
            "training.pad_batch_s": s["training.pad_batch"],
            "training.steps": steps,
            "training.target_tokens": c["training.target_tokens"],
            "training.computed_positions": c["training.computed_positions"],
            "training.mask_fill_ratio": (
                c["training.target_tokens"] / c["training.computed_positions"]
                if c["training.computed_positions"] else 0.0
            ),
            "sampling.self_s": s["sampling.sample"],
            "sampling.tokens": c["sampling.tokens"],
            "sampling.truncated": c["sampling.truncated"],
            "sampling.positions_per_token": (
                c["model.sample_positions"] / c["sampling.tokens"] if c["sampling.tokens"] else 0.0
            ),
            "metrics.validity_s": s["metrics.validity"],
            "metrics.keys_s": s["metrics.keys"],
            "metrics.properties_s": s["metrics.properties"],
            "metrics.emd_s": s["metrics.emd"],
            "trace.spans": sum(calls.values()),
        }
