"""Output checks for one pipeline round.

Each check compares a command's output with an independent computation
or with a property the method must have, never with a stored copy of an
earlier output, and raises `CheckFailed` with the first disagreement.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

#: Standard atomic weights (IUPAC conventional values, g/mol) of every
#: element the synthetic corpora use.
ATOMIC_MASS = {
    "H": 1.008, "C": 12.011, "N": 14.007, "O": 15.999, "F": 18.998,
    "Na": 22.990, "Mg": 24.305, "S": 32.06, "K": 39.098, "Ca": 40.078,
    "Ti": 47.867, "Rb": 85.468, "Sr": 87.62, "Zr": 91.224, "Sn": 118.71,
    "Cs": 132.905, "Ba": 137.327,
}

#: g/mol per cubic angstrom in g/cm^3: 1e24 / Avogadro's number.
G_PER_MOL_A3_TO_G_CM3 = 1e24 / 6.02214076e23

FIRST_LOSS_TOLERANCE = 0.1  # share of ln V
PROPERTY_RTOL = 1e-4  # tables may round the masses differently in the last digit
REPLAY_TOL = 1e-9


class CheckFailed(Exception):
    """An output disagrees with what the benchmark computed for it."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_samples(path):
    """(truncated, ids) per row of a samples.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["index", "truncated", "ids"], f"{path}: bad header")
    return [(row[1] == "1", [int(t) for t in row[2].split()]) for row in rows[1:]]


def read_corpus(prepare_dir):
    with open(os.path.join(prepare_dir, "corpus.txt"), encoding="utf-8") as fh:
        return [[int(t) for t in line.split()] for line in fh if line.strip()]


def structure_files(directory):
    return [os.path.join(directory, n) for n in sorted(os.listdir(directory))]


# ------------------------------------------------------------- prepare

def prepare_stats(prepare_dir, n_structures):
    stats = _json(os.path.join(prepare_dir, "stats.json"))
    _require(stats["n_failures"] == 0, f"prepare: {stats['n_failures']} files failed")
    _require(stats["n_structures"] == n_structures,
             f"prepare: {stats['n_structures']} structures, expected {n_structures}")


def prepare_round_trip(synth_structures_dir, prepare_dir):
    """decode(encode(s)) == s for every input structure rounded to the
    bundle precision, and corpus.txt holds exactly encode(s)."""
    from chemlm.formats import EXTENSIONS, FileDocument, parse_document
    from chemlm.rounding import round_coords
    from chemlm.tokenize import TokenSequence, Vocabulary, decode, encode

    vocab = Vocabulary.load(os.path.join(prepare_dir, "vocab.txt"))
    fmt = {ext: f for f, ext in EXTENSIONS.items()}
    corpus = read_corpus(prepare_dir)
    paths = structure_files(synth_structures_dir)
    _require(len(corpus) == len(paths), f"corpus.txt has {len(corpus)} lines for {len(paths)} files")
    for path, ids in zip(paths, corpus):
        with open(path, encoding="utf-8") as fh:
            doc = FileDocument(fmt[os.path.splitext(path)[1]], fh.read(), path)
        s = round_coords(parse_document(doc), vocab.scheme.precision)
        _require(list(encode(s, vocab).ids) == ids, f"{path}: corpus.txt ids differ from encode(s)")
        _require(decode(TokenSequence(tuple(ids)), vocab) == s, f"{path}: decode(encode(s)) != s")


# --------------------------------------------------------------- train

def _losses(train_dir):
    with open(os.path.join(train_dir, "losses.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["step", "loss", "lr"], "losses.csv: bad header")
    return [(int(s), float(loss), float(lr)) for s, loss, lr in rows[1:]]


def train_losses_finite(train_dir, steps):
    rows = _losses(train_dir)
    _require([r[0] for r in rows] == list(range(1, steps + 1)),
             f"losses.csv: steps are not 1..{steps}")
    bad = [s for s, loss, _ in rows if not math.isfinite(loss)]
    _require(not bad, f"losses.csv: non-finite loss at steps {bad[:5]}")


def train_first_loss(train_dir, vocab_size):
    """Near-uniform initial logits put the first loss close to ln V."""
    first = _losses(train_dir)[0][1]
    expected = math.log(vocab_size)
    _require(abs(first - expected) <= FIRST_LOSS_TOLERANCE * expected,
             f"first loss {first:.4f} is not within {FIRST_LOSS_TOLERANCE:.0%} of ln V = {expected:.4f}")


def train_loss_decreases(train_dir):
    losses = [loss for _, loss, _ in _losses(train_dir)]
    window = max(1, len(losses) // 4)
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    _require(last < first, f"mean loss of the last {window} steps {last:.4f} >= first {first:.4f}")


def train_lr_schedule(train_dir, steps, lr_start, lr_end):
    """lr at step i is linear from lr_start (step 1) towards lr_end."""
    for step, _, lr in _losses(train_dir):
        expected = lr_start + (lr_end - lr_start) * ((step - 1) / steps)
        _require(math.isclose(lr, expected, rel_tol=1e-12, abs_tol=0.0),
                 f"lr at step {step} is {lr!r}, the linear schedule gives {expected!r}")


def train_checkpoint(train_dir, prepare_dir, steps):
    from chemlm.model import load_checkpoint
    from chemlm.tokenize import Vocabulary

    name = _json(os.path.join(train_dir, "manifest.json"))["checkpoint"]
    ck = load_checkpoint(os.path.join(train_dir, name))
    _require(ck.step == steps, f"final checkpoint step {ck.step}, trained {steps} steps")
    vocab = Vocabulary.load(os.path.join(prepare_dir, "vocab.txt"))
    _require(ck.vocab_hash == vocab.content_hash(), "checkpoint vocab hash differs from the bundle's")
    _require(ck.config.vocab_size == len(vocab.tokens), "checkpoint vocab size differs from the bundle's")


# -------------------------------------------------------------- sample

def sample_framing(samples_csv, vocab_size, max_len, n_samples, bos=0, eos=1):
    rows = read_samples(samples_csv)
    _require(len(rows) == n_samples, f"{len(rows)} samples, asked for {n_samples}")
    for i, (truncated, ids) in enumerate(rows):
        _require(ids and ids[0] == bos, f"sample {i} does not start with BOS")
        _require(all(0 <= t < vocab_size for t in ids), f"sample {i} has an id outside 0..{vocab_size - 1}")
        _require(eos not in ids[:-1], f"sample {i} continues after EOS")
        if truncated:
            _require(len(ids) == max_len and ids[-1] != eos,
                     f"sample {i} is marked truncated at {len(ids)} tokens, max_len {max_len}")
        else:
            _require(ids[-1] == eos, f"sample {i} neither ends with EOS nor is truncated")


def sample_replay(samples_csv, checkpoint_path, seed, count, temperature=1.0):
    """One full forward per sampled sequence reproduces every drawn token
    by the inverse-CDF draw under default_rng([seed, i])."""
    from chemlm.model import forward, load_checkpoint

    ck = load_checkpoint(checkpoint_path)
    for i, (_, ids) in enumerate(read_samples(samples_csv)[:count]):
        logits, _ = forward(ck.params, ck.config, np.array([ids[:-1]]), train_mode=False)
        rng = np.random.default_rng([seed, i])
        for pos, token in enumerate(ids[1:], start=1):
            z = logits[0, pos - 1] / temperature
            p = np.exp(z - z.max())
            cdf = np.cumsum(p / p.sum())
            u = rng.random()
            lo = cdf[token - 1] if token > 0 else 0.0
            hi = cdf[token] if token < len(cdf) - 1 else math.inf
            _require(lo - REPLAY_TOL <= u < hi + REPLAY_TOL,
                     f"sample {i} token {pos} = {token} does not follow from u = {u!r} "
                     f"(its CDF interval is [{lo!r}, {hi!r}))")


# ------------------------------------------------------------ evaluate

def fixed_set_scores(eval_dir, n_structures):
    """The training set scored against itself: all valid, none novel,
    every property distance zero."""
    r = _json(os.path.join(eval_dir, "report.json"))
    _require(r["n_samples"] == n_structures, f"evaluated {r['n_samples']} of {n_structures}")
    _require(r["n_valid"] == n_structures,
             f"{n_structures - r['n_valid']} of {n_structures} training structures judged not valid")
    _require(r["novel_pct"] == 0, f"novel_pct {r['novel_pct']} on the training set itself")
    _require(r["emd"] and all(v == 0 for v in r["emd"].values()), f"emd {r['emd']} is not all zero")


def _train_values(eval_dir, name):
    with open(os.path.join(eval_dir, f"values_{name}.csv"), encoding="utf-8", newline="") as fh:
        return [float(v) for source, v in list(csv.reader(fh))[1:] if source == "train"]


def emd_oracle(eval_dir, eval_seed):
    """emd_oracle equals scipy's 1-Wasserstein distance between the two
    eval-seed halves of the training values."""
    from scipy.stats import wasserstein_distance

    oracle = _json(os.path.join(eval_dir, "report.json"))["emd_oracle"]
    _require(oracle, "report has no emd_oracle")
    for name, reported in oracle.items():
        values = _train_values(eval_dir, name)
        order = np.random.default_rng(eval_seed).permutation(len(values))
        half = len(order) // 2
        expected = wasserstein_distance([values[i] for i in order[:half]],
                                        [values[i] for i in order[half:]])
        _require(math.isclose(reported, expected, rel_tol=1e-9, abs_tol=1e-12),
                 f"emd_oracle[{name}] = {reported!r}, scipy gives {expected!r}")


def _xyz_properties(text):
    lines = text.splitlines()
    n = int(lines[0])
    return {"mw": sum(ATOMIC_MASS[line.split()[0]] for line in lines[2:2 + n])}


def _cif_properties(text):
    cell = {}
    symbols = []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0].startswith("_cell_"):
            cell[fields[0]] = float(fields[1])
        elif len(fields) == 4 and fields[0] in ATOMIC_MASS:
            symbols.append(fields[0])
    cos = [math.cos(math.radians(cell[f"_cell_angle_{k}"])) for k in ("alpha", "beta", "gamma")]
    volume = (cell["_cell_length_a"] * cell["_cell_length_b"] * cell["_cell_length_c"]
              * math.sqrt(1 - sum(c * c for c in cos) + 2 * cos[0] * cos[1] * cos[2]))
    mass = sum(ATOMIC_MASS[s] for s in symbols)
    return {"density": mass / volume * G_PER_MOL_A3_TO_G_CM3, "n_elem": float(len(set(symbols)))}


def _pdb_properties(text):
    residues = {line.split()[4] for line in text.splitlines() if line.startswith("ATOM")}
    return {"n_residues": float(len(residues))}


_PROPERTIES = {".xyz": _xyz_properties, ".cif": _cif_properties, ".pdb": _pdb_properties}


def property_values(eval_dir, structures_dir):
    """The per-structure properties evaluate wrote for the training set
    match masses, cell volumes and residue counts computed here."""
    expected = {}
    for path in structure_files(structures_dir):
        with open(path, encoding="utf-8") as fh:
            props = _PROPERTIES[os.path.splitext(path)[1]](fh.read())
        for name, value in props.items():
            expected.setdefault(name, []).append(value)
    for name, values in expected.items():
        got = _train_values(eval_dir, name)
        _require(len(got) == len(values), f"values_{name}.csv has {len(got)} train values, expected {len(values)}")
        for i, (g, e) in enumerate(zip(got, values)):
            _require(math.isclose(g, e, rel_tol=PROPERTY_RTOL),
                     f"{name} of structure {i}: evaluate wrote {g!r}, computed {e!r}")


# -------------------------------------------------------------- report

def report_outputs(report_dir, fixed_eval_dir, n_structures):
    """The table shows the fixed set fully valid, and each property
    histogram counts every training structure once."""
    with open(os.path.join(report_dir, "table.txt"), encoding="utf-8") as fh:
        valid = [line.split() for line in fh if line.startswith("valid % ")]
    _require(len(valid) == 1 and valid[0][-1] == "100.000",
             f"table valid % row reads {valid}, expected 100.000 for the fixed set")
    for name in _json(os.path.join(fixed_eval_dir, "report.json"))["emd"]:
        with open(os.path.join(report_dir, f"hist_{name}.csv"), encoding="utf-8", newline="") as fh:
            total = sum(int(row[2]) for row in list(csv.reader(fh))[1:])
        _require(total == n_structures, f"hist_{name}.csv counts {total}, expected {n_structures}")
