"""Command-line pipeline: synth, prepare, train, sample, evaluate, report.

Every command creates its output directory, writes its artifacts through
`manifest.output_file`, and finishes with a timing sidecar (wall clock,
excluded from determinism) plus a manifest (deterministic content),
written last. After a successful run, the files that an earlier run of
the same command wrote there and this one did not are removed, so a
reused directory ends as a fresh one would; only names the command
writes are removed, never one of the run's inputs. Exit codes: 0
success, 1 user error, 2 internal error. A flat key=value config file
can supply any flag's value; command-line flags win over the file, the
file wins over defaults.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from .errors import ArtifactError, ChemlmError
from .formats import EXTENSIONS, FileDocument, parse_document, prune_pocket, write_structure
from .geometry import centroid, pair_distances
from .manifest import (
    file_sha256,
    hash_outputs,
    output_file,
    owned_outputs,
    read_manifest,
    recording_writes,
    remove_stale,
    replace_file,
    tree_hash,
    write_manifest,
    write_timing,
)
from .metrics import MetricsReport, decode_sequences, evaluate_structures, property_functions
from .model import ModelConfig, load_checkpoint
from .rounding import round_coords
from .sampling import SampleConfig, sample_from_checkpoint, truncation_rate
from .synth import synth_corpus
from .tokenize import Scheme, TokenSequence, Vocabulary, build_vocab, encode
from .training import MAX_AUGMENT_ATTEMPTS, TrainConfig, train

OUTPUT_ROOT_ENV = "CHEMLM_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


class CliError(Exception):
    """A user-facing problem: bad flags, bad files, impossible request."""


class _Parser(argparse.ArgumentParser):
    """A command's parser, with the --config and --out flags every command takes."""

    def __init__(self, prog):
        super().__init__(prog=prog)
        self.add_argument("--config", help="key=value config file")
        self.add_argument("--out")

    # user errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USER, f"{self.prog}: error: {message}\n")


def _onoff(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")


def _seed(value: str) -> int:
    """A seed flag's value; numpy's generators take non-negative seeds only."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return seed


def load_config_file(path) -> list:
    """key=value lines -> ["--key", "value", ...] argparse prefix."""
    args = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                args.extend([f"--{key.strip()}", value.strip()])
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return args


@contextmanager
def _phase(phases, name):
    """Record the wall-clock seconds of the enclosed block as phases[name]."""
    t0 = time.time()
    yield
    phases[name] = time.time() - t0


def _write_csv(path, header, rows, opener=output_file):
    with opener(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_structures(directory, named, precision):
    """Write (file name, structure) pairs into `directory` at `precision`."""
    os.makedirs(directory, exist_ok=True)
    for name, s in named:
        with output_file(os.path.join(directory, name)) as fh:
            fh.write(write_structure(s, precision))


def _read_structure_files(directory):
    """Sorted (name, structure-or-None, error) triples for one directory.

    All structure files must share one of the .xyz/.cif/.pdb extensions;
    files with any other extension, and subdirectories, are skipped.
    """
    if not os.path.isdir(directory):
        raise CliError(f"not a directory: {directory}")
    by_ext = {}
    for name in sorted(os.listdir(directory)):
        full = os.path.join(directory, name)
        if not os.path.isfile(full):
            continue
        ext = os.path.splitext(name)[1].lower()
        by_ext.setdefault(ext, []).append(name)
    known = {ext: names for ext, names in by_ext.items() if ext in EXTENSIONS.values()}
    if len(known) > 1:
        raise CliError(f"mixed structure formats in {directory}: {sorted(known)}")
    if not known:
        raise CliError(f"no structure files (.xyz/.cif/.pdb) in {directory}")
    ext, names = next(iter(known.items()))
    kind = {v: k for k, v in EXTENSIONS.items()}[ext]
    out = []
    for name in names:
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                text = fh.read()
            out.append((name, parse_document(FileDocument(kind, text, name)), ""))
        except (ChemlmError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            out.append((name, None, str(exc)))
    return out


def _load_bundle(bundle_dir):
    """(vocab, token sequences) from a prepare bundle's vocab.txt and corpus.txt."""
    vocab_path = os.path.join(bundle_dir, "vocab.txt")
    if not os.path.isfile(vocab_path):
        raise CliError(f"no vocab.txt in bundle {bundle_dir}")
    vocab = Vocabulary.load(vocab_path)
    corpus_path = os.path.join(bundle_dir, "corpus.txt")
    try:
        with open(corpus_path, encoding="utf-8") as fh:
            sequences = [TokenSequence(tuple(map(int, line.split()))) for line in fh]
    except ValueError as exc:  # a non-integer id, or UnicodeDecodeError
        raise ArtifactError(f"malformed {corpus_path}: {exc}") from exc
    if not sequences:
        raise ArtifactError(f"no sequences in {corpus_path}")
    for line_no, seq in enumerate(sequences, start=1):
        if len(seq.ids) < 2:
            raise ArtifactError(f"{corpus_path}: line {line_no} holds {len(seq.ids)} ids; "
                                "a sequence needs at least 2")
    return vocab, sequences


# ---------------------------------------------------------------- synth

#: The largest `synth --residues`. A pocket's synthesis time grows faster
#: than its residue count (1 000 residues take about a second, 10 000
#: several), so a count far beyond any real pocket would never finish.
MAX_RESIDUES = 1000

#: The largest `synth --n`. Files are named by a six-digit index, which
#: sorts in index order only below 10**6; a larger corpus would also be
#: built whole in memory first.
MAX_STRUCTURES = 1_000_000


def build_synth_parser():
    p = _Parser(prog="chemlm synth")
    p.add_argument("--kind", required=True, choices=["molecule", "perovskite", "pocket"])
    p.add_argument("--n", type=int, required=True,
                   help=f"number of structures, at most {MAX_STRUCTURES}")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--precision", type=int, default=3, choices=[1, 2, 3])
    p.add_argument("--residues", type=int, default=0,
                   help=f"pocket kind only: fixed residue count, at most {MAX_RESIDUES} "
                        "(0 = random 6-10)")
    return p


def cmd_synth(args, out_dir, phases):
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.n > MAX_STRUCTURES:
        raise CliError(f"--n must be <= {MAX_STRUCTURES}")
    if args.residues < 0:
        raise CliError("--residues must be >= 0")
    if args.residues > MAX_RESIDUES:
        raise CliError(f"--residues must be <= {MAX_RESIDUES}")
    if args.residues and args.kind != "pocket":
        raise CliError(f"--residues only applies to --kind pocket, not {args.kind}")
    kwargs = {"n_residues": args.residues} if args.residues else {}
    with _phase(phases, "generate"):
        corpus = synth_corpus(args.kind, args.n, args.seed, **kwargs)

    with _phase(phases, "write"):
        ext = EXTENSIONS[corpus[0].kind]
        named = ((f"{i:06d}{ext}", s) for i, s in enumerate(corpus))
        _write_structures(os.path.join(out_dir, "structures"), named, args.precision)
    return {
        "kind": args.kind,
        "n": args.n,
        "seed": args.seed,
        "precision": args.precision,
    }


# -------------------------------------------------------------- prepare

def build_prepare_parser():
    p = _Parser(prog="chemlm prepare")
    p.add_argument("--input", required=True, help="directory of structure files")
    p.add_argument("--scheme", required=True, choices=["char", "atom_coord"])
    p.add_argument("--precision", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--dense-coords", type=_onoff, default=False,
                   help="atom_coord: cover the whole min..max coordinate grid")
    p.add_argument("--prune", type=_onoff, default=True,
                   help="pockets: prune to the target atom range")
    p.add_argument("--prune-lo", type=int, default=200)
    p.add_argument("--prune-hi", type=int, default=250)
    return p


def cmd_prepare(args, out_dir, phases):
    if args.prune and not 1 <= args.prune_lo <= args.prune_hi:
        raise CliError(f"bad target range [{args.prune_lo}, {args.prune_hi}]")
    with _phase(phases, "parse"):
        triples = _read_structure_files(args.input)
        failures = [(n, e) for n, s, e in triples if s is None]
        parsed = [(n, s) for n, s, _ in triples if s is not None]
        if not parsed:
            raise CliError(f"no parseable structure files in {args.input}")

    with _phase(phases, "prune"):
        prune_stats = []
        prepared = []
        for name, s in parsed:
            if s.kind == "pocket" and args.prune:
                center = tuple(centroid(s.coords))
                result = prune_pocket(s, center, (args.prune_lo, args.prune_hi))
                prune_stats.append(
                    {
                        "file": name,
                        "atoms": len(result.pocket),
                        "removed_residues": result.removed_residues,
                        "below_min": result.below_min,
                    }
                )
                s = result.pocket
            prepared.append((name, round_coords(s, args.precision)))

    with _phase(phases, "encode"):
        scheme = Scheme(kind=args.scheme, precision=args.precision)
        structures = [s for _, s in prepared]
        vocab = build_vocab(structures, scheme, dense_coordinate_range=args.dense_coords)
        vocab.save(os.path.join(out_dir, "vocab.txt"))
        _write_structures(os.path.join(out_dir, "structures"), prepared, args.precision)
        with replace_file(os.path.join(out_dir, "corpus.txt")) as fh:
            for _, s in prepared:
                fh.write(" ".join(str(i) for i in encode(s, vocab).ids))
                fh.write("\n")

    atom_counts = Counter(len(s) for s in structures)
    element_counts = Counter(sym for s in structures for sym in s.symbols)
    stats = {
        "n_structures": len(prepared),
        "n_failures": len(failures),
        "structure_kind": structures[0].kind,
        "scheme": scheme.kind,
        "precision": scheme.precision,
        "vocab_size": len(vocab.tokens),
        "atom_count_histogram": {str(k): v for k, v in sorted(atom_counts.items())},
        "element_frequencies": dict(sorted(element_counts.items())),
    }
    if prune_stats:
        in_range = sum(1 for r in prune_stats if args.prune_lo <= r["atoms"] <= args.prune_hi)
        stats["prune"] = {
            "target": [args.prune_lo, args.prune_hi],
            "in_range": in_range,
            "per_file": prune_stats,
        }
    with output_file(os.path.join(out_dir, "stats.json")) as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(os.path.join(out_dir, "failures.csv"), ["file", "error"], failures)
    return {
        "scheme": scheme.kind,
        "precision": scheme.precision,
        "n_structures": len(prepared),
        "n_failures": len(failures),
        "vocab_hash": vocab.content_hash(),
        "input_hash": tree_hash(args.input),
    }


# ---------------------------------------------------------------- train

def build_train_parser():
    p = _Parser(prog="chemlm train")
    p.add_argument("--corpus", required=True, help="prepare output directory")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr-start", type=float, default=1e-3)
    p.add_argument("--lr-end", type=float, default=9e-6)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--augment", type=_onoff, default=False)
    p.add_argument("--augment-attempts", type=int, default=8,
                   help=f"draws per batch item, at most {MAX_AUGMENT_ATTEMPTS}")
    p.add_argument("--crystal-shift", type=_onoff, default=False)
    p.add_argument("--grad-clip", type=float, default=1.0)
    p.add_argument("--checkpoint-interval", type=int, default=0)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=0, help="0 = 4 * d_model")
    p.add_argument("--max-seq-len", type=int, default=0, help="0 = longest corpus sequence")
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--tie-embeddings", type=_onoff, default=True)
    return p


def cmd_train(args, out_dir, phases):
    with _phase(phases, "load"):
        vocab, sequences = _load_bundle(args.corpus)
    if args.crystal_shift and vocab.structure_kind != "crystal":
        raise CliError("--crystal-shift only applies to crystals, "
                       f"not a {vocab.structure_kind} bundle")

    max_seq_len = args.max_seq_len or max(len(s) for s in sequences)
    model_cfg = ModelConfig(
        n_layers=args.layers,
        d_model=args.d_model,
        n_heads=args.heads,
        d_ff=args.d_ff or 4 * args.d_model,
        max_seq_len=max_seq_len,
        vocab_size=len(vocab.tokens),
        dropout_rate=args.dropout,
        tie_embeddings=args.tie_embeddings,
    )
    train_cfg = TrainConfig(
        batch_size=args.batch_size,
        lr_start=args.lr_start,
        lr_end=args.lr_end,
        total_steps=args.steps,
        seed=args.seed,
        augment=args.augment,
        augment_attempts=args.augment_attempts,
        crystal_shift=args.crystal_shift,
        grad_clip=args.grad_clip,
        checkpoint_interval=args.checkpoint_interval,
    )

    with _phase(phases, "train"):
        result = train(sequences, vocab, model_cfg, train_cfg, out_dir=out_dir)

    steps = enumerate(zip(result.losses, result.lrs), start=1)
    _write_csv(
        os.path.join(out_dir, "losses.csv"),
        ["step", "loss", "lr"],
        ([i, repr(loss), repr(lr)] for i, (loss, lr) in steps),
        replace_file,
    )
    train_config = {f.name: getattr(train_cfg, f.name) for f in dataclasses.fields(train_cfg)}
    train_config.update(scheme=vocab.scheme.kind, precision=vocab.scheme.precision)
    return {
        "model_config": model_cfg.to_dict(),
        "train_config": train_config,
        "vocab_hash": vocab.content_hash(),
        "corpus_hash": file_sha256(os.path.join(args.corpus, "corpus.txt")),
        "final_loss": result.losses[-1],
        "checkpoint": os.path.basename(result.checkpoint_path),
    }


# --------------------------------------------------------------- sample

def build_sample_parser():
    p = _Parser(prog="chemlm sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True, help="vocab.txt from the training bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-len", type=int, default=0, help="0 = model context length")
    p.add_argument("--seed", type=_seed, default=0)
    return p


def cmd_sample(args, out_dir, phases):
    with _phase(phases, "load"):
        ck = load_checkpoint(args.checkpoint)
        vocab = Vocabulary.load(args.vocab)

    cfg = SampleConfig(
        n_samples=args.n,
        max_len=args.max_len or ck.config.max_seq_len,
        temperature=args.temperature,
        seed=args.seed,
    )
    with _phase(phases, "sample"):
        sequences = sample_from_checkpoint(ck, vocab, cfg)

    _write_csv(
        os.path.join(out_dir, "samples.csv"),
        ["index", "truncated", "ids"],
        (
            [i, int(seq.truncated), " ".join(str(t) for t in seq.ids)]
            for i, seq in enumerate(sequences)
        ),
        replace_file,
    )
    total_tokens = sum(len(s.ids) for s in sequences)
    seconds = phases["sample"]
    phases["tokens_per_second"] = total_tokens / seconds if seconds > 0 else 0.0
    return {
        "n_samples": cfg.n_samples,
        "temperature": cfg.temperature,
        "max_len": cfg.max_len,
        "seed": cfg.seed,
        "truncation_rate": truncation_rate(sequences),
        "vocab_hash": vocab.content_hash(),
        "checkpoint_hash": file_sha256(args.checkpoint),
        "checkpoint_step": ck.step,
    }


def read_samples_csv(path):
    sequences = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "truncated", "ids"]:
            raise CliError(f"{path} is not a samples.csv (bad header {header!r})")
        for row in reader:
            try:
                ids = tuple(int(t) for t in row[2].split())
                sequences.append(TokenSequence(ids=ids, truncated=bool(int(row[1]))))
            except (IndexError, ValueError) as exc:
                raise CliError(f"{path}: bad samples row {reader.line_num}: {row!r}") from exc
    if not sequences:
        raise CliError(f"no sequences in {path}")
    return sequences


def _check_samples_vocab(samples_path, vocab):
    """Refuse samples that the `sample` manifest beside them records as
    drawn with another vocabulary; samples with no such record pass."""
    try:
        made_by = read_manifest(os.path.dirname(samples_path))
    except FileNotFoundError:
        return
    except ValueError as exc:
        raise ArtifactError(f"unreadable manifest beside {samples_path}: {exc}") from exc
    recorded = made_by.get("vocab_hash") if made_by.get("command") == "sample" else None
    if recorded not in (None, vocab.content_hash()):
        raise ArtifactError(f"vocabulary hash mismatch: {samples_path} was sampled with "
                            f"vocabulary {recorded}, not the --train bundle's")


# ------------------------------------------------------------- evaluate

def build_evaluate_parser():
    p = _Parser(prog="chemlm evaluate")
    p.add_argument("--samples", required=True,
                   help="samples.csv from `sample`, or a directory of structure files")
    p.add_argument("--train", required=True, help="prepare output directory (training corpus)")
    p.add_argument("--eval-seed", type=_seed, default=0)
    p.add_argument("--overlap-threshold", type=float, default=1.1)
    return p


def cmd_evaluate(args, out_dir, phases):
    if not 0 < args.overlap_threshold < math.inf:
        raise CliError("overlap threshold must be positive and finite, "
                       f"got {args.overlap_threshold}")
    with _phase(phases, "load"):
        vocab, sequences = _load_bundle(args.train)
        train_structures, failures = decode_sequences(sequences, vocab)
        if failures:
            line = min(failures)
            raise ArtifactError(f"{os.path.join(args.train, 'corpus.txt')}: line {line + 1} "
                                f"does not decode: {failures[line]}")

    ext = EXTENSIONS[vocab.structure_kind]
    with _phase(phases, "evaluate"):
        if os.path.isdir(args.samples):
            triples = _read_structure_files(args.samples)
            held = os.path.splitext(triples[0][0])[1].lower()
            if held != ext:
                raise ArtifactError(f"wrong structure kind: {args.samples} holds {held} files, "
                                    f"the --train bundle {vocab.structure_kind}s")
            structures = [s for _, s, _ in triples]
            failures = {
                i: f"unparseable file {name}: {e}"
                for i, (name, s, e) in enumerate(triples)
                if s is None
            }
        else:
            sequences = read_samples_csv(args.samples)
            _check_samples_vocab(args.samples, vocab)
            structures, failures = decode_sequences(sequences, vocab)
        result = evaluate_structures(
            structures,
            train_structures,
            decode_failures=failures,
            overlap_threshold=args.overlap_threshold,
            eval_seed=args.eval_seed,
        )

    with _phase(phases, "write"):
        with output_file(os.path.join(out_dir, "report.json")) as fh:
            fh.write(result.report.to_json())
        _write_csv(
            os.path.join(out_dir, "failures.csv"),
            ["index", "bucket", "reason"],
            ([row.index, row.bucket, row.reason] for row in result.rows),
        )
        for name in sorted(result.train_values):
            rows = [["train", repr(v)] for v in result.train_values[name]]
            rows += [["sample", repr(v)] for v in result.sample_values[name]]
            _write_csv(os.path.join(out_dir, f"values_{name}.csv"), ["source", "value"], rows)

        # decoded structures, for the report command's distribution CSVs;
        # decoding and the extension check fix every kind to the vocabulary's
        named = ((f"{i:06d}{ext}", s) for i, s in enumerate(result.structures) if s is not None)
        _write_structures(os.path.join(out_dir, "structures"), named, vocab.scheme.precision)

    r = result.report
    return {
        "eval_seed": args.eval_seed,
        "overlap_threshold": args.overlap_threshold,
        "structure_kind": r.structure_kind,
        "n_samples": r.n_samples,
        "n_decode_failed": r.n_decode_failed,
        "n_valid": r.n_valid,
        "valid_pct": r.valid_pct,
        "train_hash": file_sha256(os.path.join(args.train, "corpus.txt")),
    }


# --------------------------------------------------------------- report

def _fmt_cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(labels, reports) -> str:
    rows = [("", list(labels))]
    keys = [
        ("kind", lambda r: r.structure_kind),
        ("samples", lambda r: r.n_samples),
        ("decode failed", lambda r: r.n_decode_failed),
        ("valid %", lambda r: r.valid_pct),
        ("unique %", lambda r: r.unique_pct),
        ("novel %", lambda r: r.novel_pct),
    ]
    extra_names = sorted({k for r in reports for k in r.extra_validity_pct})
    for name in extra_names:
        keys.append((f"{name} valid %", lambda r, n=name: r.extra_validity_pct.get(n)))
    emd_names = sorted({k for r in reports for k in r.emd} | {k for r in reports for k in r.emd_oracle})
    for name in emd_names:
        keys.append((f"EMD {name}", lambda r, n=name: r.emd.get(n)))
        keys.append((f"EMD {name} (train oracle)", lambda r, n=name: r.emd_oracle.get(n)))
    for label, fn in keys:
        rows.append((label, [_fmt_cell(fn(r)) for r in reports]))

    label_w = max(len(r[0]) for r in rows)
    col_ws = [
        max(len(str(rows[i][1][j])) for i in range(len(rows)))
        for j in range(len(reports))
    ]
    lines = []
    for label, cells in rows:
        parts = [label.ljust(label_w)]
        parts.extend(str(c).rjust(col_ws[j]) for j, c in enumerate(cells))
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines) + "\n"


def _histogram_csv(path, values, bins=20):
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    _write_csv(
        path,
        ["bin_lo", "bin_hi", "count"],
        ([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)] for i, c in enumerate(counts)),
    )


def build_report_parser():
    p = _Parser(prog="chemlm report")
    p.add_argument("--reports", required=True, nargs="+", help="report.json files")
    p.add_argument("--structures", help="evaluate output structures/ directory")
    return p


def cmd_report(args, out_dir, phases):
    with _phase(phases, "table"):
        labels = []
        reports = []
        for path in args.reports:
            try:
                with open(path, encoding="utf-8") as fh:
                    reports.append(MetricsReport.from_json(fh.read()))
            except OSError as exc:
                raise CliError(f"cannot read report {path}: {exc}") from exc
            except ValueError as exc:
                raise CliError(f"{path}: {exc}") from exc
            labels.append(os.path.basename(os.path.dirname(os.path.abspath(path))) or path)
        table = render_table(labels, reports)
        with output_file(os.path.join(out_dir, "table.txt")) as fh:
            fh.write(table)
        sys.stdout.write(table)

    extras = {"n_reports": len(reports)}
    if args.structures:
        with _phase(phases, "distributions"):
            triples = _read_structure_files(args.structures)
            structures = [s for _, s, _ in triples if s is not None]
            if structures:
                kind = structures[0].kind
                for name, fn in property_functions(kind).items():
                    _histogram_csv(
                        os.path.join(out_dir, f"hist_{name}.csv"),
                        [fn(s) for s in structures],
                    )
                rows = []
                for name, s, _ in triples:
                    # a crystal's coordinates are fractional: no Cartesian distances
                    if s is not None and s.kind != "crystal" and len(s) >= 2:
                        off = pair_distances(s.coords)
                        rows.append([name, repr(float(off.min())), repr(float(off.max()))])
                _write_csv(
                    os.path.join(out_dir, "neighbors.csv"), ["file", "nearest", "farthest"], rows
                )
            extras["n_structures"] = len(structures)

    return extras


# ----------------------------------------------------------------- main

COMMANDS = {
    "synth": (build_synth_parser, cmd_synth),
    "prepare": (build_prepare_parser, cmd_prepare),
    "train": (build_train_parser, cmd_train),
    "sample": (build_sample_parser, cmd_sample),
    "evaluate": (build_evaluate_parser, cmd_evaluate),
    "report": (build_report_parser, cmd_report),
}

USAGE = """usage: chemlm COMMAND [options]

commands:
  synth      generate a synthetic structure corpus
  prepare    parse + round + tokenize a corpus into a training bundle
  train      fit a model on a prepared bundle
  sample     draw sequences from a trained checkpoint
  evaluate   score samples against the training corpus
  report     render evaluation reports as a table + distribution CSVs

Run `chemlm COMMAND --help` for per-command flags. Set $CHEMLM_OUTPUT_ROOT
to default --out to $CHEMLM_OUTPUT_ROOT/<command>.
"""

_PATH_ARGS = {"out", "config", "input", "corpus", "checkpoint", "vocab",
              "samples", "train", "reports", "structures"}

#: The files each command writes into its --out (fnmatch patterns of
#: relative paths); a re-run removes no stale file of another name.
_OUTPUT_NAMES = {
    "synth": ("structures/*",),
    "prepare": ("structures/*", "vocab.txt", "corpus.txt", "stats.json", "failures.csv"),
    "train": ("checkpoint_*.bin", "losses.csv"),
    "sample": ("samples.csv",),
    "evaluate": ("structures/*", "report.json", "failures.csv", "values_*.csv"),
    "report": ("table.txt", "hist_*.csv", "neighbors.csv"),
}


def _input_paths(args) -> list:
    """The paths a command was given to read (files or directories)."""
    paths = []
    for name in sorted(_PATH_ARGS - {"out"}):
        value = getattr(args, name, None)
        paths.extend(value if isinstance(value, list) else [value] if value else [])
    return paths


def _resolve_out(args, command) -> str:
    if args.out:
        return args.out
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return os.path.join(root, command)
    raise CliError(f"no --out given and ${OUTPUT_ROOT_ENV} is not set")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return EXIT_OK
    command = argv[0]
    if command not in COMMANDS:
        sys.stderr.write(f"chemlm: unknown command {command!r}\n{USAGE}")
        return EXIT_USER
    build, run = COMMANDS[command]
    parser = build()

    rest = argv[1:]
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        known, _ = pre.parse_known_args(rest)
        file_args = load_config_file(known.config) if known.config else []
        args = parser.parse_args(file_args + rest)
        out_dir = _resolve_out(args, command)
        os.makedirs(out_dir, exist_ok=True)
    except (CliError, OSError) as exc:
        sys.stderr.write(f"chemlm {command}: {exc}\n")
        return EXIT_USER

    phases = {}
    status = "ok"
    error = ""
    extras = {}
    code = EXIT_OK
    # the files an earlier run of this command wrote into out_dir
    owned = owned_outputs(out_dir, command, _OUTPUT_NAMES[command])
    with _phase(phases, "total"), recording_writes() as written:
        try:
            extras = run(args, out_dir, phases)
            # a stale file that stays is kept as owned, to be retried
            owned = remove_stale(out_dir, owned, written, keep=_input_paths(args))
            for rel, exc in owned.items():
                sys.stderr.write(f"chemlm {command}: warning: cannot remove stale {rel}: {exc}\n")
        except (CliError, ChemlmError, OSError, MemoryError) as exc:
            status = "error"
            error = str(exc)
            if isinstance(exc, MemoryError):  # a request too large for this machine
                error = "the request does not fit in memory" + (f": {error}" if error else "")
            code = EXIT_USER
            sys.stderr.write(f"chemlm {command}: {error}\n")
        except Exception as exc:  # internal bug: still record it, exit 2
            status = "error"
            error = f"{type(exc).__name__}: {exc}"
            code = EXIT_INTERNAL
            sys.stderr.write(f"chemlm {command}: internal error: {error}\n")

    config_record = {
        k: v for k, v in sorted(vars(args).items()) if k not in _PATH_ARGS
    }
    # what this run wrote, and what earlier runs wrote that is still
    # owned (after a failure, or not removable); never another
    # command's files or the user's
    rels = {os.path.relpath(path, out_dir).replace(os.sep, "/") for path in written}
    outputs = hash_outputs(out_dir, sorted(rels | set(owned)))
    manifest = {
        "command": command,
        "status": status,
        "config": config_record,
        "outputs": outputs,
    }
    if error:
        manifest["error"] = error
    manifest.update(extras or {})
    try:
        write_timing(out_dir, phases)
        write_manifest(out_dir, manifest)
    except OSError as exc:
        sys.stderr.write(f"chemlm {command}: cannot record the run: {exc}\n")
        return code or EXIT_USER
    return code


if __name__ == "__main__":
    sys.exit(main())
