"""Tests of the benchmark itself: every output check must reject a
deliberately corrupted output, and both kinds of run must report every
metric BENCHMARK.json names.

    python3 -m pytest benchmarks/test_bench.py -q

These live outside the pytest `testpaths`, so the repository's own test
run does not collect them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import checks  # noqa: E402
import pipeline  # noqa: E402
from chemlm import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 3
TINY = pipeline.Workload("tiny", "molecule", 16, 2, 3, 3, 112, 96, 1)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """One tiny molecule round whose outputs pass every check."""
    work = str(tmp_path_factory.mktemp("clean"))
    synth_dir = os.path.join(work, "synth")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--kind", TINY.kind, "--n", str(TINY.n_structures),
                         "--seed", str(SEED), "--precision", "2", "--out", synth_dir]) == 0
    ops = pipeline.Operations()
    rd = pipeline.Round(os.path.join(work, "round"))
    pipeline.run_round(ops, TINY, SEED, synth_dir, rd)
    assert ops.failed == 0
    return synth_dir, rd


@pytest.fixture
def copy(clean, tmp_path):
    """A private copy of the clean round, free to corrupt."""
    synth_dir, rd = clean
    root = str(tmp_path / "round")
    shutil.copytree(rd.root, root)
    return synth_dir, pipeline.Round(root)


def _rewrite(path, fn):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(fn(text))


def _edit_csv(path, fn):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path, fn):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    fn(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _vocab_size(rd):
    with open(os.path.join(rd.prepare, "stats.json"), encoding="utf-8") as fh:
        return json.load(fh)["vocab_size"]


def _samples(rd):
    return os.path.join(rd.sample, "samples.csv")


def test_clean_round_passes_every_check(clean):
    synth_dir, rd = clean
    ops = pipeline.Operations()
    pipeline.run_checks(ops, TINY, SEED, synth_dir, rd)
    assert ops.failures == []
    assert ops.attempted == 13


def test_round_trip_rejects_a_changed_corpus_id(copy):
    synth_dir, rd = copy
    path = os.path.join(rd.prepare, "corpus.txt")
    _rewrite(path, lambda t: t.replace(" ", " 3 ", 1))
    with pytest.raises(checks.CheckFailed):
        checks.prepare_round_trip(os.path.join(synth_dir, "structures"), rd.prepare)


def test_prepare_stats_reject_failures(copy):
    _, rd = copy
    _edit_json(os.path.join(rd.prepare, "stats.json"), lambda s: s.update(n_failures=1))
    with pytest.raises(checks.CheckFailed):
        checks.prepare_stats(rd.prepare, TINY.n_structures)


def _set_loss_cell(rd, row, col, value):
    def edit(rows):
        rows[row][col] = value
    _edit_csv(os.path.join(rd.train, "losses.csv"), edit)


def test_lr_check_rejects_a_wrong_lr(copy):
    _, rd = copy
    _set_loss_cell(rd, 2, 2, repr(pipeline.LR_START))
    with pytest.raises(checks.CheckFailed):
        checks.train_lr_schedule(rd.train, TINY.steps, pipeline.LR_START, pipeline.LR_END)


def test_finite_check_rejects_nan(copy):
    _, rd = copy
    _set_loss_cell(rd, 1, 1, "nan")
    with pytest.raises(checks.CheckFailed):
        checks.train_losses_finite(rd.train, TINY.steps)


def test_first_loss_check_rejects_a_far_loss(copy):
    _, rd = copy
    _set_loss_cell(rd, 1, 1, repr(2 * math.log(_vocab_size(rd))))
    with pytest.raises(checks.CheckFailed):
        checks.train_first_loss(rd.train, _vocab_size(rd))


def test_decrease_check_rejects_a_rising_loss(copy):
    _, rd = copy
    _set_loss_cell(rd, TINY.steps, 1, "100.0")
    with pytest.raises(checks.CheckFailed):
        checks.train_loss_decreases(rd.train)


def test_checkpoint_check_rejects_a_wrong_step(copy):
    from chemlm.model import load_checkpoint, save_checkpoint

    _, rd = copy
    path = rd.checkpoint()
    ck = load_checkpoint(path)
    save_checkpoint(path, ck.params, ck.config, ck.vocab_hash, ck.rng_state, ck.step + 1)
    with pytest.raises(checks.CheckFailed):
        checks.train_checkpoint(rd.train, rd.prepare, TINY.steps)


def _set_sample_ids(rd, index, fn):
    def edit(rows):
        ids = [int(t) for t in rows[index + 1][2].split()]
        rows[index + 1][2] = " ".join(map(str, fn(ids)))
    _edit_csv(_samples(rd), edit)


def test_replay_rejects_a_changed_token(copy):
    _, rd = copy

    def change(ids):
        ids[3] = 3 if ids[3] != 3 else 4
        return ids

    _set_sample_ids(rd, 0, change)
    checks.sample_framing(_samples(rd), _vocab_size(rd), TINY.max_len, TINY.n_samples)
    with pytest.raises(checks.CheckFailed):
        checks.sample_replay(_samples(rd), rd.checkpoint(), SEED, TINY.replay)


def test_replay_rejects_another_seed(copy):
    _, rd = copy
    with pytest.raises(checks.CheckFailed):
        checks.sample_replay(_samples(rd), rd.checkpoint(), SEED + 1, TINY.replay)


@pytest.mark.parametrize("corrupt", [
    lambda ids, v: ids[1:],  # no BOS
    lambda ids, v: ids[:2] + [v] + ids[3:],  # id outside the vocabulary
    lambda ids, v: ids[:2] + [1] + ids[2:],  # content after EOS, or EOS before max_len
    lambda ids, v: ids[:-1] + [3] if ids[-1] == 1 else ids[:-1],  # no EOS, not at max_len
])
def test_framing_rejects_broken_sequences(copy, corrupt):
    _, rd = copy
    v = _vocab_size(rd)
    _set_sample_ids(rd, 1, lambda ids: corrupt(ids, v))
    with pytest.raises(checks.CheckFailed):
        checks.sample_framing(_samples(rd), v, TINY.max_len, TINY.n_samples)


def _fixed_report(rd):
    return os.path.join(rd.evaluate_fixed, "report.json")


@pytest.mark.parametrize("corrupt", [
    lambda r: r["emd"].update({k: v + 0.01 for k, v in r["emd"].items()}),
    lambda r: r.update(novel_pct=6.25),
    lambda r: r.update(n_valid=r["n_valid"] - 1),
])
def test_fixed_scores_reject_a_shifted_report(copy, corrupt):
    _, rd = copy
    _edit_json(_fixed_report(rd), corrupt)
    with pytest.raises(checks.CheckFailed):
        checks.fixed_set_scores(rd.evaluate_fixed, TINY.n_structures)


def test_emd_oracle_rejects_a_shifted_oracle(copy):
    _, rd = copy
    _edit_json(_fixed_report(rd),
               lambda r: r["emd_oracle"].update({k: v * 1.001 for k, v in r["emd_oracle"].items()}))
    with pytest.raises(checks.CheckFailed):
        checks.emd_oracle(rd.evaluate_fixed, SEED)


def test_emd_oracle_rejects_another_eval_seed(copy):
    _, rd = copy
    with pytest.raises(checks.CheckFailed):
        checks.emd_oracle(rd.evaluate_fixed, SEED + 1)


def test_property_check_rejects_a_wrong_weight(copy):
    _, rd = copy

    def edit(rows):
        rows[1][1] = repr(float(rows[1][1]) + 1.008)

    _edit_csv(os.path.join(rd.evaluate_fixed, "values_mw.csv"), edit)
    with pytest.raises(checks.CheckFailed):
        checks.property_values(rd.evaluate_fixed, os.path.join(rd.prepare, "structures"))


@pytest.mark.parametrize("text,expected", [
    ("3\n\nC 0 0 0\nO 1 0 0\nH 0 1 0\n", {"mw": 12.011 + 15.999 + 1.008}),
    ("_cell_length_a 2.00\n_cell_length_b 2.00\n_cell_length_c 2.00\n_cell_angle_alpha 90.00\n"
     "_cell_angle_beta 90.00\n_cell_angle_gamma 90.00\nloop_\nNa 0.00 0.00 0.00\nF 0.50 0.50 0.50\n",
     {"density": (22.990 + 18.998) / 8.0 / 0.602214076, "n_elem": 2.0}),
    ("ATOM 1 C GLY 1 0 0 0\nATOM 2 C GLY 1 1 0 0\nATOM 3 N ALA 2 5 0 0\nEND\n", {"n_residues": 2.0}),
])
def test_independent_property_parsers(text, expected):
    ext = {"mw": ".xyz", "density": ".cif", "n_residues": ".pdb"}[next(iter(expected))]
    got = checks._PROPERTIES[ext](text)
    assert got.keys() == expected.keys()
    for k in expected:
        assert got[k] == pytest.approx(expected[k], rel=1e-12)


def test_report_check_rejects_a_wrong_table(copy):
    _, rd = copy
    _rewrite(os.path.join(rd.report, "table.txt"), lambda t: t.replace("100.000", "93.750"))
    with pytest.raises(checks.CheckFailed):
        checks.report_outputs(rd.report, rd.evaluate_fixed, TINY.n_structures)


def test_determinism_check_rejects_a_changed_manifest(clean):
    _, rd = clean
    first = rd.manifests()
    later = dict(first, train=first["train"] + b" ")
    with pytest.raises(checks.CheckFailed):
        pipeline._same_outputs(first, later)


def test_tracer_restores_every_function():
    import chemlm.model.network
    import chemlm.training

    before = (chemlm.model.network.forward, chemlm.training.Adam.step, cli.train)
    with Tracer().installed():
        assert chemlm.model.network.forward is not before[0]
    assert (chemlm.model.network.forward, chemlm.training.Adam.step, cli.train) == before


def _bench_names(section):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run(workload, trace, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(pipeline.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _bench_names("per_layer")


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("perovskite", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _bench_names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("molecule", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
