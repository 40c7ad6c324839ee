"""Acceptance suite: ten end-to-end criteria, one test each.

Every test prints a single [PASS]/[FAIL] line (written straight to the
terminal so it shows up even under output capture) and fails with the
collected problem list. The heavier criteria train real models, so the
whole file takes several minutes; run it with

    pytest tests/test_acceptance.py -v
"""

import functools
import math
import os
import tempfile
import time

import numpy as np
from numpy.random import default_rng
from scipy.optimize import linprog

from chemlm.augment import random_rotation, rotate_about_center
from chemlm.cli import main as cli_main
from chemlm.errors import InvalidLatticeError
from chemlm.formats import FileDocument, parse_document, write_structure
from chemlm.geometry import cell_volume, centroid, min_image_distance, pair_distances
from chemlm.metrics import evaluate_sequences
from chemlm.metrics.crystals import crystal_structural_validity
from chemlm.metrics.emd import emd_1d
from chemlm.metrics.pockets import pocket_overlap_check, pocket_residue_check
from chemlm.model import ModelConfig, init_params, load_checkpoint, loss_and_grads
from chemlm.rounding import round_coords
from chemlm.sampling import SampleConfig, sample_from_checkpoint
from chemlm.structures import Crystal, Lattice, Pocket
from chemlm.synth import synth_corpus
from chemlm.tokenize import ATOM_COORD, CHAR, Scheme, build_vocab, decode, encode
from chemlm.training import TrainConfig, train

from conftest import random_lattice
from test_geometry import kabsch_rmsd


def announce(line: str):
    # suspend output capture so the summary reaches the terminal
    import conftest
    capman = getattr(conftest, "CAPTURE_MANAGER", None)
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def criterion(number: int, label: str, limit_seconds=None):
    """Collects problem strings from the body, prints one status line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.time()
            try:
                problems = list(fn() or [])
            except Exception as exc:
                problems = [f"unexpected {type(exc).__name__}: {exc}"]
            elapsed = time.time() - t0
            if limit_seconds is not None and elapsed > limit_seconds:
                problems.append(
                    f"runtime {elapsed:.1f}s exceeds the {limit_seconds:.0f}s budget"
                )
            status = "PASS" if not problems else "FAIL"
            announce(f"[{status}] criterion {number:02d} ({elapsed:.1f}s): {label}")
            for p in problems:
                announce(f"         - {p}")
            assert not problems, f"criterion {number:02d}: " + "; ".join(problems)
        return wrapper
    return deco


# ------------------------------------------------------------ criterion 1

@criterion(1, "500 structures per format and scheme round-trip bit-exact", 60)
def test_criterion_01_round_trip():
    problems = []
    n_per_kind = 500
    for kind, seed in (("molecule", 101), ("perovskite", 102), ("pocket", 103)):
        corpus = synth_corpus(kind, n_per_kind, seed)
        for precision in (1, 2, 3):
            group = [round_coords(s, precision) for s in corpus[precision - 1::3]]
            for scheme_kind in (CHAR, ATOM_COORD):
                scheme = Scheme(kind=scheme_kind, precision=precision)
                vocab = build_vocab(group, scheme)
                for s in group:
                    if decode(encode(s, vocab), vocab) != s:
                        problems.append(
                            f"{kind}/{scheme_kind}/p{precision}: encode/decode changed a structure"
                        )
                        break
            for s in group:
                if parse_document(FileDocument(s.kind, write_structure(s, precision))) != s:
                    problems.append(
                        f"{kind}/p{precision}: write/parse changed a structure"
                    )
                    break
    return problems


# ------------------------------------------------------------ criterion 2

@criterion(2, "analytic gradients match finite differences at 64 dims", 120)
def test_criterion_02_gradients():
    cfg = ModelConfig(
        n_layers=2, d_model=64, n_heads=4, d_ff=256,
        max_seq_len=12, vocab_size=23, dropout_rate=0.0,
    )
    rng = default_rng(202)
    params = init_params(cfg, seed=1)
    batch, length = 2, 10
    inputs = rng.integers(0, cfg.vocab_size, size=(batch, length))
    targets = rng.integers(0, cfg.vocab_size, size=(batch, length))
    mask = np.ones((batch, length))
    mask[0, -1] = 0.0
    _, grads = loss_and_grads(params, cfg, inputs, targets, mask)

    eps = 1e-4
    names = sorted(params)
    worst = 0.0
    for _ in range(200):
        name = names[int(rng.integers(len(names)))]
        idx = np.unravel_index(int(rng.integers(params[name].size)), params[name].shape)
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
    if worst >= 1e-4:
        return [f"max relative gradient error {worst:.3e} >= 1e-4 over 200 coordinates"]
    return []


# ------------------------------------------------------------ criterion 3

@criterion(3, "32 molecules overfit below 0.1 loss; greedy replays one", 600)
def test_criterion_03_overfit():
    corpus = [round_coords(m, 2) for m in synth_corpus("molecule", 32, seed=303)]
    scheme = Scheme(kind=ATOM_COORD, precision=2)
    vocab = build_vocab(corpus, scheme)
    training_ids = {tuple(encode(s, vocab).ids) for s in corpus}
    longest = max(len(ids) for ids in training_ids)

    model_cfg = ModelConfig(
        n_layers=2, d_model=64, n_heads=4, d_ff=256,
        max_seq_len=longest + 8, vocab_size=len(vocab.tokens), dropout_rate=0.0,
    )
    train_cfg = TrainConfig(
        batch_size=32, lr_start=1e-3, lr_end=9e-6, total_steps=2000, seed=3,
    )
    problems = []
    with tempfile.TemporaryDirectory() as td:
        result = train([encode(s, vocab) for s in corpus], vocab, model_cfg, train_cfg, out_dir=td)
        best = min(result.losses)
        if best >= 0.1:
            problems.append(f"best training loss {best:.4f} never dropped below 0.1")
        ck = load_checkpoint(result.checkpoint_path)
        greedy = sample_from_checkpoint(
            ck, vocab,
            SampleConfig(n_samples=1, max_len=model_cfg.max_seq_len,
                         temperature=0.0, seed=0),
        )[0]
        if tuple(greedy.ids) not in training_ids:
            problems.append("greedy decoding did not reproduce a training sequence")
    return problems


# ------------------------------------------------------------ criterion 4

@criterion(4, "perovskite distribution recovery at 500 samples", 1800)
def test_criterion_04_distribution():
    corpus = [round_coords(c, 2) for c in synth_corpus("perovskite", 500, seed=404)]
    scheme = Scheme(kind=ATOM_COORD, precision=2)
    vocab = build_vocab(corpus, scheme)
    longest = max(len(encode(s, vocab).ids) for s in corpus)

    model_cfg = ModelConfig(
        n_layers=2, d_model=64, n_heads=4, d_ff=256,
        max_seq_len=longest, vocab_size=len(vocab.tokens), dropout_rate=0.0,
    )
    train_cfg = TrainConfig(
        batch_size=16, lr_start=1e-3, lr_end=9e-6, total_steps=3000, seed=4,
    )
    problems = []
    with tempfile.TemporaryDirectory() as td:
        result = train([encode(s, vocab) for s in corpus], vocab, model_cfg, train_cfg, out_dir=td)
        ck = load_checkpoint(result.checkpoint_path)
        sequences = sample_from_checkpoint(
            ck, vocab,
            SampleConfig(n_samples=500, max_len=longest, temperature=1.0, seed=11),
        )
    report = evaluate_sequences(sequences, vocab, corpus, eval_seed=0).report

    decode_rate = (report.n_samples - report.n_decode_failed) / report.n_samples * 100.0
    structural = report.extra_validity_pct.get("structural", 0.0)
    if decode_rate < 95.0:
        problems.append(f"decode rate {decode_rate:.1f}% < 95%")
    if structural < 90.0:
        problems.append(f"structural validity {structural:.1f}% < 90%")
    rho = report.emd.get("density")
    oracle = report.emd_oracle.get("density")
    if rho is None or oracle is None:
        problems.append("density EMD or its train-half oracle is missing")
    elif rho > 5.0 * oracle:
        problems.append(f"density EMD {rho:.4f} > 5x oracle {oracle:.4f}")
    announce(
        f"         measured: decode {decode_rate:.1f}%, structural validity "
        f"{structural:.1f}%, density EMD {rho if rho is None else round(rho, 4)} "
        f"(train-half oracle {oracle if oracle is None else round(oracle, 4)})"
    )
    announce(
        "         full-scale reference, reported not asserted: "
        "structural validity 100%, density EMD 0.089"
    )
    return problems


# ------------------------------------------------------------ criterion 5

@criterion(5, "crystal validity threshold separates 0.4 from 0.6 A")
def test_criterion_05_crystal_threshold():
    lat = Lattice(10.0, 10.0, 10.0, 90.0, 90.0, 90.0)
    problems = []
    close = Crystal(lat, ["Na", "Cl"], [(0.0, 0.0, 0.0), (0.04, 0.0, 0.0)])
    apart = Crystal(lat, ["Na", "Cl"], [(0.0, 0.0, 0.0), (0.06, 0.0, 0.0)])
    if crystal_structural_validity(close).valid:
        problems.append("sites 0.4 A apart were judged valid")
    if not crystal_structural_validity(apart).valid:
        problems.append("sites 0.6 A apart were judged invalid")
    return problems


# ------------------------------------------------------------ criterion 6

def _matrix_from_params(lat: Lattice) -> np.ndarray:
    """Independent lattice-vector construction used as the oracle."""
    alpha, beta, gamma = (math.radians(x) for x in (lat.alpha, lat.beta, lat.gamma))
    ax = (lat.a, 0.0, 0.0)
    bx = (lat.b * math.cos(gamma), lat.b * math.sin(gamma), 0.0)
    cx = lat.c * math.cos(beta)
    cy = lat.c * (math.cos(alpha) - math.cos(beta) * math.cos(gamma)) / math.sin(gamma)
    cz = math.sqrt(max(lat.c ** 2 - cx ** 2 - cy ** 2, 0.0))
    return np.array([ax, bx, (cx, cy, cz)])


@criterion(6, "geometry matches triple-product, 125-image, and rigid-motion oracles")
def test_criterion_06_geometry():
    rng = default_rng(606)
    problems = []

    worst = 0.0
    for _ in range(1000):
        lat = random_lattice(rng)
        oracle = abs(np.linalg.det(_matrix_from_params(lat)))
        worst = max(worst, abs(cell_volume(lat) - oracle))
    if worst > 1e-9:
        problems.append(f"cell volume deviates from triple product by {worst:.2e}")

    worst = 0.0
    offsets = np.array([(i, j, k) for i in range(-2, 3)
                        for j in range(-2, 3) for k in range(-2, 3)], dtype=float)
    for _ in range(200):
        lat = random_lattice(rng)
        m = _matrix_from_params(lat)
        fi = rng.uniform(0, 1, size=3)
        fj = rng.uniform(0, 1, size=3)
        brute = np.min(np.linalg.norm((fj + offsets - fi) @ m, axis=1))
        worst = max(worst, abs(min_image_distance(lat, fi, fj) - brute))
    if worst > 1e-9:
        problems.append(f"minimum image deviates from 125-image brute force by {worst:.2e}")

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        p = rng.normal(size=(n, 3))
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = p @ q.T + rng.normal(size=3)
        worst = max(worst, kabsch_rmsd(p, moved))
    if worst >= 1e-6:
        problems.append(f"rigid-motion RMSD reached {worst:.2e}, expected < 1e-6")
    return problems


# ------------------------------------------------------------ criterion 7

def _lp_transport(a, b) -> float:
    """Exact 1-Wasserstein via the transportation LP."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    cost = np.abs(np.subtract.outer(a, b)).ravel()
    a_eq = np.zeros((na + nb, na * nb))
    for i in range(na):
        a_eq[i, i * nb:(i + 1) * nb] = 1.0
    for j in range(nb):
        a_eq[na + j, j::nb] = 1.0
    b_eq = np.concatenate([np.full(na, 1.0 / na), np.full(nb, 1.0 / nb)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


@criterion(7, "1-D EMD equals LP transport on all sizes up to 6")
def test_criterion_07_emd():
    rng = default_rng(707)
    problems = []
    worst = 0.0
    for na in range(1, 7):
        for nb in range(1, 7):
            for _ in range(3):
                a = rng.normal(size=na) * 3
                b = rng.normal(size=nb) * 3
                worst = max(worst, abs(emd_1d(a, b) - _lp_transport(a, b)))
                ints = rng.integers(-2, 3, size=na).astype(float)
                jnts = rng.integers(-2, 3, size=nb).astype(float)
                worst = max(worst, abs(emd_1d(ints, jnts) - _lp_transport(ints, jnts)))
    if worst > 1e-9:
        problems.append(f"EMD deviates from LP transport by {worst:.2e}")
    for _ in range(20):
        a = rng.normal(size=int(rng.integers(1, 9)))
        if emd_1d(a, a) != 0.0:
            problems.append("emd_1d(a, a) is not exactly zero")
            break
    return problems


# ------------------------------------------------------------ criterion 8

@criterion(8, "rotations preserve geometry and densely cover SO(3)")
def test_criterion_08_rotation():
    rng = default_rng(808)
    problems = []

    molecules = synth_corpus("molecule", 75, seed=801)
    pockets = synth_corpus("pocket", 25, seed=802)
    worst_dist, worst_cent = 0.0, 0.0
    for s in molecules + pockets:
        pos = s.coords
        rotated = rotate_about_center(s, random_rotation(rng))
        pos_r = rotated.coords
        before = np.sort(pair_distances(pos))
        after = np.sort(pair_distances(pos_r))
        worst_dist = max(worst_dist, float(np.max(np.abs(before - after))) if len(before) else 0.0)
        worst_cent = max(worst_cent, float(np.max(np.abs(centroid(pos) - centroid(pos_r)))))
    if worst_dist > 1e-9:
        problems.append(f"pairwise-distance multiset moved by {worst_dist:.2e}")
    if worst_cent > 1e-9:
        problems.append(f"centroid moved by {worst_cent:.2e}")

    # Rotation angles of uniform SO(3) follow density (1 - cos t)/pi on
    # [0, pi]; 20 equal-probability bins from the CDF (t - sin t)/pi.
    def cdf(t):
        return (t - math.sin(t)) / math.pi

    edges = [0.0]
    for k in range(1, 20):
        target = k / 20.0
        lo, hi = 0.0, math.pi
        for _ in range(80):
            mid = (lo + hi) / 2
            if cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        edges.append((lo + hi) / 2)
    edges.append(math.pi)

    angles = []
    for _ in range(10_000):
        tr = float(np.trace(random_rotation(rng)))
        angles.append(math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0))))
    counts, _ = np.histogram(angles, bins=edges)
    expected = 10_000 / 20.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 1% critical value of chi-square with 19 degrees of freedom
    if chi2 >= 36.191:
        problems.append(f"angle histogram chi-square {chi2:.1f} >= 36.191")
    return problems


# ------------------------------------------------------------ criterion 9

@criterion(9, "pocket residue and overlap checks catch seeded defects")
def test_criterion_09_pocket_checks():
    pocket = synth_corpus("pocket", 1, seed=909)[0]
    problems = []

    verdict = pocket_residue_check(pocket)
    if not verdict.valid:
        problems.append(f"intact pocket failed the residue check: {verdict.reason}")
    if not pocket_overlap_check(pocket).valid:
        problems.append("intact pocket failed the overlap check")

    victim = len(pocket) // 2
    rest = [k for k in range(len(pocket)) if k != victim]
    removed = Pocket([pocket.symbols[k] for k in rest], [pocket.residues[k] for k in rest],
                     pocket.residue_index[rest], pocket.coords[rest])
    verdict = pocket_residue_check(removed)
    wanted = f"{pocket.residues[victim]}@{pocket.residue_index[victim]}"
    element = pocket.symbols[victim]
    if verdict.valid:
        problems.append("pocket with a deleted atom passed the residue check")
    elif not any(wanted in r and f"missing {element}" in r for r in verdict.reason.split("; ")):
        problems.append(f"no reason named {wanted} missing {element}: {verdict.reason}")

    coords = pocket.coords.copy()
    i = int(np.flatnonzero(pocket.residue_index != pocket.residue_index[0])[0])
    coords[i] = coords[0] + (0.8, 0.0, 0.0)
    moved = pocket.with_coords(coords)
    verdict = pocket_overlap_check(moved)
    if verdict.valid:
        problems.append("pocket with an atom 0.8 A from another residue passed overlap")
    if not pocket_residue_check(moved).valid:
        problems.append("moving an atom should not change residue composition")
    return problems


# ----------------------------------------------------------- criterion 10

def _run_pipeline(root: str) -> dict:
    """One fixed-seed pipeline run; returns paths to its artifacts."""
    dirs = {n: os.path.join(root, n) for n in
            ("synth", "prepare", "train", "sample", "evaluate")}
    steps = [
        ["synth", "--kind", "molecule", "--n", "40", "--seed", "13",
         "--precision", "2", "--out", dirs["synth"]],
        ["prepare", "--input", os.path.join(dirs["synth"], "structures"),
         "--scheme", "atom_coord", "--precision", "2", "--out", dirs["prepare"]],
        ["train", "--corpus", dirs["prepare"], "--steps", "60",
         "--batch-size", "8", "--layers", "1", "--d-model", "16", "--heads", "2",
         "--dropout", "0.1", "--seed", "0", "--out", dirs["train"]],
    ]
    for argv in steps:
        code = cli_main(argv)
        assert code == 0, f"pipeline stage {argv[0]} exited {code}"
    from chemlm.manifest import read_manifest
    ck = os.path.join(dirs["train"], read_manifest(dirs["train"])["checkpoint"])
    for argv in (
        ["sample", "--checkpoint", ck, "--vocab",
         os.path.join(dirs["prepare"], "vocab.txt"), "--n", "25", "--seed", "9",
         "--out", dirs["sample"]],
        ["evaluate", "--samples", os.path.join(dirs["sample"], "samples.csv"),
         "--train", dirs["prepare"], "--out", dirs["evaluate"]],
    ):
        code = cli_main(argv)
        assert code == 0, f"pipeline stage {argv[0]} exited {code}"
    return {
        "manifests": [os.path.join(dirs[n], "manifest.json") for n in dirs],
        "checkpoint": ck,
        "report": os.path.join(dirs["evaluate"], "report.json"),
        "samples": os.path.join(dirs["sample"], "samples.csv"),
    }


@criterion(10, "two fixed-seed pipeline runs are byte-identical")
def test_criterion_10_determinism():
    problems = []
    with tempfile.TemporaryDirectory() as td:
        first = _run_pipeline(os.path.join(td, "run_a"))
        second = _run_pipeline(os.path.join(td, "run_b"))
        pairs = list(zip(first["manifests"], second["manifests"]))
        pairs += [(first[k], second[k]) for k in ("checkpoint", "report", "samples")]
        for path_a, path_b in pairs:
            with open(path_a, "rb") as fh:
                blob_a = fh.read()
            with open(path_b, "rb") as fh:
                blob_b = fh.read()
            if blob_a != blob_b:
                problems.append(f"{os.path.basename(path_a)} differs between runs")
    return problems
