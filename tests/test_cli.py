"""Command-line pipeline: the six subcommands, exit codes, config files,
and manifest bookkeeping at smoke-test scale."""

import csv
import dataclasses
import errno
import json
import math
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlm.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USER,
    MAX_STRUCTURES,
    CliError,
    load_config_file,
    main,
    read_samples_csv,
    render_table,
)
from chemlm.formats import parse_xyz
from chemlm.manifest import file_sha256, hash_outputs, read_manifest, tree_hash, write_manifest
from chemlm.metrics import MetricsReport
from chemlm.model import load_checkpoint
from chemlm.rounding import round_coords
from chemlm.tokenize import Vocabulary, decode, encode
from chemlm.training import MAX_AUGMENT_ATTEMPTS


def run_cli(argv):
    """Exit code from main, flattening argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USER


def manifest_of(out_dir):
    data = read_manifest(out_dir)
    assert data["command"]
    return data


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full molecule run: synth -> prepare -> train -> sample -> evaluate
    -> report, each into its own directory."""
    root = str(tmp_path_factory.mktemp("pipeline"))
    dirs = {name: os.path.join(root, name) for name in
            ("synth", "prepare", "train", "sample", "eval_seq", "eval_self", "report")}

    assert run_cli([
        "synth", "--kind", "molecule", "--n", "6", "--seed", "3",
        "--precision", "2", "--out", dirs["synth"],
    ]) == EXIT_OK
    assert run_cli([
        "prepare", "--input", os.path.join(dirs["synth"], "structures"),
        "--scheme", "atom_coord", "--precision", "2", "--out", dirs["prepare"],
    ]) == EXIT_OK
    assert run_cli([
        "train", "--corpus", dirs["prepare"], "--steps", "6",
        "--batch-size", "4", "--layers", "1", "--d-model", "16",
        "--heads", "2", "--dropout", "0.0", "--seed", "0",
        "--out", dirs["train"],
    ]) == EXIT_OK
    ck = os.path.join(dirs["train"], manifest_of(dirs["train"])["checkpoint"])
    vocab = os.path.join(dirs["prepare"], "vocab.txt")
    assert run_cli([
        "sample", "--checkpoint", ck, "--vocab", vocab,
        "--n", "5", "--seed", "1", "--out", dirs["sample"],
    ]) == EXIT_OK
    assert run_cli([
        "evaluate", "--samples", os.path.join(dirs["sample"], "samples.csv"),
        "--train", dirs["prepare"], "--out", dirs["eval_seq"],
    ]) == EXIT_OK
    assert run_cli([
        "evaluate", "--samples", os.path.join(dirs["prepare"], "structures"),
        "--train", dirs["prepare"], "--out", dirs["eval_self"],
    ]) == EXIT_OK
    assert run_cli([
        "report",
        "--reports", os.path.join(dirs["eval_seq"], "report.json"),
        os.path.join(dirs["eval_self"], "report.json"),
        "--structures", os.path.join(dirs["eval_self"], "structures"),
        "--out", dirs["report"],
    ]) == EXIT_OK
    dirs["checkpoint"] = ck
    dirs["vocab"] = vocab
    return dirs


@pytest.fixture(scope="module")
def perovskites(tmp_path_factory):
    """A directory of two perovskite CIF files."""
    out = str(tmp_path_factory.mktemp("perovskites"))
    assert run_cli([
        "synth", "--kind", "perovskite", "--n", "2", "--seed", "1", "--out", out,
    ]) == EXIT_OK
    return os.path.join(out, "structures")


@pytest.fixture(scope="module")
def pockets(tmp_path_factory):
    """A two-pocket corpus and its unpruned bundle: (structures dir, bundle dir).

    The pockets have 6-10 residues each and coordinates spanning about 61 A."""
    root = str(tmp_path_factory.mktemp("pockets"))
    synth, bundle = os.path.join(root, "synth"), os.path.join(root, "prepare")
    assert run_cli([
        "synth", "--kind", "pocket", "--n", "2", "--seed", "1", "--out", synth,
    ]) == EXIT_OK
    structures = os.path.join(synth, "structures")
    assert run_cli([
        "prepare", "--input", structures, "--scheme", "atom_coord", "--precision", "1",
        "--prune", "off", "--out", bundle,
    ]) == EXIT_OK
    return structures, bundle


class TestPipeline:
    def test_synth_outputs(self, pipeline):
        files = sorted(os.listdir(os.path.join(pipeline["synth"], "structures")))
        assert files == [f"{i:06d}.xyz" for i in range(6)]
        m = manifest_of(pipeline["synth"])
        assert m["status"] == "ok"
        assert m["kind"] == "molecule"
        assert m["n"] == 6

    def test_prepare_outputs(self, pipeline):
        out = pipeline["prepare"]
        for name in ("vocab.txt", "corpus.txt", "stats.json", "failures.csv"):
            assert os.path.isfile(os.path.join(out, name))
        with open(os.path.join(out, "stats.json"), encoding="utf-8") as fh:
            stats = json.load(fh)
        assert stats["n_structures"] == 6
        assert stats["n_failures"] == 0
        assert stats["structure_kind"] == "molecule"
        assert stats["scheme"] == "atom_coord"
        with open(os.path.join(out, "corpus.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 6
        assert all(all(tok.isdigit() for tok in line.split()) for line in lines)

    def test_train_outputs(self, pipeline):
        out = pipeline["train"]
        m = manifest_of(out)
        assert m["status"] == "ok"
        assert m["train_config"]["total_steps"] == 6
        assert os.path.isfile(pipeline["checkpoint"])
        with open(os.path.join(out, "losses.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss", "lr"]
        assert len(rows) == 7
        assert float(rows[1][1]) > 0

    def test_sample_outputs(self, pipeline):
        out = pipeline["sample"]
        sequences = read_samples_csv(os.path.join(out, "samples.csv"))
        assert len(sequences) == 5
        assert all(seq.ids[0] == 0 for seq in sequences)
        m = manifest_of(out)
        assert m["n_samples"] == 5
        assert 0.0 <= m["truncation_rate"] <= 1.0
        assert m["checkpoint_step"] == 6

    def test_tiny_temperature_samples_greedily(self, pipeline, tmp_path):
        # a subnormal temperature once turned every logit into nan and
        # every drawn id into 0 (BOS)
        drawn = {}
        for temperature in ("0", "1e-320"):
            out = os.path.join(tmp_path, temperature)
            assert run_cli([
                "sample", "--checkpoint", pipeline["checkpoint"], "--vocab", pipeline["vocab"],
                "--n", "3", "--temperature", temperature, "--seed", "1", "--out", out,
            ]) == EXIT_OK
            drawn[temperature] = [s.ids for s in read_samples_csv(os.path.join(out, "samples.csv"))]
        assert drawn["1e-320"] == drawn["0"]

    def test_evaluate_sequence_outputs(self, pipeline):
        out = pipeline["eval_seq"]
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = MetricsReport.from_json(fh.read())
        assert report.structure_kind == "molecule"
        assert report.n_samples == 5
        with open(os.path.join(out, "failures.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "bucket", "reason"]
        assert len(rows) == 6
        assert os.path.isfile(os.path.join(out, "values_mw.csv"))

    def test_evaluate_train_against_itself(self, pipeline):
        # The training structures themselves: everything decodes and is
        # valid, nothing is novel.
        with open(os.path.join(pipeline["eval_self"], "report.json"), encoding="utf-8") as fh:
            report = MetricsReport.from_json(fh.read())
        assert report.n_samples == 6
        assert report.n_decode_failed == 0
        assert report.valid_pct == 100.0
        assert report.novel_pct == 0.0
        assert "mw" in report.emd
        assert report.emd["mw"] == pytest.approx(0.0, abs=1e-9)

    def test_report_outputs(self, pipeline):
        out = pipeline["report"]
        with open(os.path.join(out, "table.txt"), encoding="utf-8") as fh:
            table = fh.read()
        assert "valid %" in table
        assert "EMD mw" in table
        # schema 2 has no always-empty reserved rows
        assert "QED EMD" not in table
        assert "COV-R" not in table
        assert os.path.isfile(os.path.join(out, "hist_mw.csv"))
        assert os.path.isfile(os.path.join(out, "neighbors.csv"))
        assert manifest_of(out)["n_reports"] == 2

    def test_every_manifest_has_outputs_hashes(self, pipeline):
        for name in ("synth", "prepare", "train", "sample", "eval_seq", "report"):
            m = manifest_of(pipeline[name])
            assert m["outputs"], name
            assert "manifest.json" not in m["outputs"]
            assert "timing.txt" not in m["outputs"]
            assert os.path.isfile(os.path.join(pipeline[name], "timing.txt"))


class TestDeterminism:
    def test_synth_reruns_byte_identical(self, tmp_path):
        a = os.path.join(tmp_path, "a")
        b = os.path.join(tmp_path, "b")
        for out in (a, b):
            assert run_cli([
                "synth", "--kind", "molecule", "--n", "4", "--seed", "11",
                "--out", out,
            ]) == EXIT_OK
        assert tree_hash(a) == tree_hash(b)
        with open(os.path.join(a, "manifest.json"), "rb") as fh:
            ma = fh.read()
        with open(os.path.join(b, "manifest.json"), "rb") as fh:
            mb = fh.read()
        assert ma == mb

    def test_sample_rerun_byte_identical(self, pipeline, tmp_path):
        out = os.path.join(tmp_path, "resample")
        assert run_cli([
            "sample", "--checkpoint", pipeline["checkpoint"],
            "--vocab", pipeline["vocab"], "--n", "5", "--seed", "1",
            "--out", out,
        ]) == EXIT_OK
        with open(os.path.join(pipeline["sample"], "samples.csv"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out, "samples.csv"), "rb") as fh:
            second = fh.read()
        assert first == second


class TestReusedOut:
    """A re-run into an --out removes the files an earlier run of the same
    command wrote there and it did not, and nothing else."""

    @pytest.fixture(scope="class")
    def forty(self, tmp_path_factory):
        """(40 molecule files, 5 of them, their bundle)."""
        root = tmp_path_factory.mktemp("forty")
        synth, five, bundle = root / "synth", root / "five", root / "bundle"
        assert run_cli(["synth", "--kind", "molecule", "--n", "40", "--seed", "5",
                        "--precision", "2", "--out", str(synth)]) == EXIT_OK
        structures = synth / "structures"
        five.mkdir()
        for name in sorted(os.listdir(structures))[:5]:
            shutil.copy(structures / name, five)
        assert run_cli(["prepare", "--input", str(structures), "--scheme", "atom_coord",
                        "--precision", "2", "--out", str(bundle)]) == EXIT_OK
        return str(structures), str(five), str(bundle)

    def test_evaluate_40_then_5_equals_a_fresh_5(self, forty, tmp_path):
        forty_dir, five_dir, bundle = forty
        reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
        for samples, out in ((forty_dir, reused), (five_dir, reused), (five_dir, fresh)):
            assert run_cli(["evaluate", "--samples", samples, "--train", bundle,
                            "--out", out]) == EXIT_OK
        assert len(os.listdir(os.path.join(reused, "structures"))) == 5
        for name in ("manifest.json", "report.json", "failures.csv"):
            with open(os.path.join(reused, name), "rb") as a, \
                    open(os.path.join(fresh, name), "rb") as b:
                assert a.read() == b.read(), name
        assert tree_hash(reused) == tree_hash(fresh)

    def test_train_4_then_2_leaves_checkpoints_1_and_2(self, pipeline, tmp_path):
        out = str(tmp_path / "train")
        for steps in ("4", "2"):
            assert run_cli(["train", "--corpus", pipeline["prepare"], "--steps", steps,
                            "--checkpoint-interval", "1", "--batch-size", "2", "--layers", "1",
                            "--d-model", "8", "--heads", "2", "--out", out]) == EXIT_OK
        checkpoints = sorted(n for n in os.listdir(out) if n.startswith("checkpoint_"))
        assert checkpoints == ["checkpoint_0000001.bin", "checkpoint_0000002.bin"]
        assert sorted(manifest_of(out)["outputs"]) == [*checkpoints, "losses.csv"]

    def test_evaluate_into_a_sample_directory_keeps_its_files(self, pipeline, tmp_path):
        out = str(tmp_path / "sample")
        shutil.copytree(pipeline["sample"], out)
        with open(os.path.join(out, "samples.csv"), "rb") as fh:
            samples = fh.read()
        for _ in range(2):
            assert run_cli(["evaluate", "--samples", os.path.join(out, "samples.csv"),
                            "--train", pipeline["prepare"], "--out", out]) == EXIT_OK
            with open(os.path.join(out, "samples.csv"), "rb") as fh:
                assert fh.read() == samples
        # the evaluate manifest lists what evaluate wrote, not the samples
        assert "samples.csv" not in manifest_of(out)["outputs"]
        assert "report.json" in manifest_of(out)["outputs"]

    def test_an_older_manifest_listing_every_file_removes_none_of_the_users(
            self, pipeline, tmp_path):
        # a manifest that lists every file in --out, as one written before
        # `outputs` were limited to what the command wrote
        out = str(tmp_path / "sample")
        shutil.copytree(pipeline["sample"], out)
        with open(os.path.join(out, "notes.txt"), "w", encoding="utf-8") as fh:
            fh.write("mine\n")
        samples = os.path.join(out, "samples.csv")
        evaluate = ["evaluate", "--samples", samples, "--train", pipeline["prepare"],
                    "--out", out]
        assert run_cli(evaluate) == EXIT_OK
        before = {rel: file_sha256(os.path.join(out, rel))
                  for rel in ("samples.csv", "notes.txt")}
        older = manifest_of(out)
        older["outputs"] = hash_outputs(out)
        assert set(before) < set(older["outputs"])
        write_manifest(out, older)
        assert run_cli(evaluate) == EXIT_OK
        assert {rel: file_sha256(os.path.join(out, rel)) for rel in before} == before
        assert "notes.txt" not in manifest_of(out)["outputs"]

    def test_a_stale_path_that_cannot_be_removed_is_a_warning(self, forty, tmp_path, capsys):
        forty_dir, five_dir, bundle = forty
        out = str(tmp_path / "eval")
        assert run_cli(["evaluate", "--samples", forty_dir, "--train", bundle,
                        "--out", out]) == EXIT_OK
        structures = os.path.join(out, "structures")
        last = sorted(os.listdir(structures))[-1]
        os.remove(os.path.join(structures, last))
        os.mkdir(os.path.join(structures, last))
        capsys.readouterr()
        assert run_cli(["evaluate", "--samples", five_dir, "--train", bundle,
                        "--out", out]) == EXIT_OK
        err = capsys.readouterr().err
        assert "warning" in err and f"structures/{last}" in err
        assert manifest_of(out)["status"] == "ok"
        assert sorted(os.listdir(structures)) == sorted([*os.listdir(five_dir), last])

    def test_a_failed_corpus_write_keeps_the_earlier_corpus(self, forty, tmp_path,
                                                              monkeypatch, capsys):
        _, five_dir, _ = forty
        out = str(tmp_path / "bundle")
        prepare = ["prepare", "--input", five_dir, "--scheme", "atom_coord",
                   "--precision", "2", "--out", out]
        assert run_cli(prepare) == EXIT_OK
        with open(os.path.join(out, "corpus.txt"), "rb") as fh:
            before = fh.read()
        calls = []

        def failing_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("encode failed")
            return encode(*args)

        monkeypatch.setattr("chemlm.cli.encode", failing_third)
        assert run_cli(prepare) == EXIT_INTERNAL
        capsys.readouterr()
        with open(os.path.join(out, "corpus.txt"), "rb") as fh:
            assert fh.read() == before
        assert not [n for n in os.listdir(out) if n.startswith(".partial-")]

    def test_another_commands_files_are_kept(self, pipeline, tmp_path):
        out = str(tmp_path / "out")
        synth = ["synth", "--kind", "perovskite", "--n", "3", "--out", out]
        assert run_cli(synth) == EXIT_OK
        for _ in range(2):
            assert run_cli(["prepare", "--input", os.path.join(pipeline["synth"], "structures"),
                            "--scheme", "char", "--precision", "2", "--out", out]) == EXIT_OK
        names = sorted(os.listdir(os.path.join(out, "structures")))
        assert names == sorted(["000000.cif", "000001.cif", "000002.cif",
                                *os.listdir(os.path.join(pipeline["synth"], "structures"))])

    def test_a_failed_run_removes_nothing(self, forty, tmp_path, capsys):
        forty_dir, _, bundle = forty
        out = str(tmp_path / "eval")
        assert run_cli(["evaluate", "--samples", forty_dir, "--train", bundle,
                        "--out", out]) == EXIT_OK
        assert run_cli(["evaluate", "--samples", forty_dir, "--train", bundle,
                        "--overlap-threshold", "0", "--out", out]) == EXIT_USER
        capsys.readouterr()
        assert len(os.listdir(os.path.join(out, "structures"))) == 40
        # the failed run's manifest still lists them, so the next
        # successful run of evaluate removes them
        assert len(manifest_of(out)["outputs"]) > 40
        _, five_dir, _ = forty
        assert run_cli(["evaluate", "--samples", five_dir, "--train", bundle,
                        "--out", out]) == EXIT_OK
        assert len(os.listdir(os.path.join(out, "structures"))) == 5

    def test_out_below_a_file_is_user_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = str(blocker / "out")
        assert run_cli(["synth", "--kind", "molecule", "--n", "1", "--out", out]) == EXIT_USER
        assert out in capsys.readouterr().err

    def test_read_only_out_is_user_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "ro"
        out.mkdir()
        out.chmod(0o555)
        if os.geteuid() == 0:
            # root ignores permission bits: refuse a new file in `out` as
            # the kernel does for any other user
            real_open = os.open

            def refusing(path, flags, *args, **kwargs):
                if flags & os.O_CREAT and os.path.abspath(path).startswith(str(out) + os.sep):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return real_open(path, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", refusing)
        try:
            code = run_cli(["synth", "--kind", "molecule", "--n", "2", "--out", str(out)])
        finally:
            out.chmod(0o755)
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert "Permission denied" in err and str(out) in err


class TestExitCodes:
    def test_no_args_prints_usage(self, capsys):
        assert run_cli([]) == EXIT_OK
        assert "commands:" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"]) == EXIT_USER
        assert "unknown command" in capsys.readouterr().err

    def test_bad_choice_is_user_error(self, tmp_path, capsys):
        code = run_cli(["synth", "--kind", "protein", "--n", "1",
                        "--out", os.path.join(tmp_path, "x")])
        assert code == EXIT_USER

    def test_missing_required_flag(self, tmp_path):
        code = run_cli(["synth", "--kind", "molecule",
                        "--out", os.path.join(tmp_path, "x")])
        assert code == EXIT_USER

    def test_nonexistent_input_dir(self, tmp_path, capsys):
        code = run_cli([
            "prepare", "--input", os.path.join(tmp_path, "missing"),
            "--scheme", "char", "--precision", "2",
            "--out", os.path.join(tmp_path, "out"),
        ])
        assert code == EXIT_USER
        assert "not a directory" in capsys.readouterr().err

    def test_failed_command_still_writes_manifest(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        empty = os.path.join(tmp_path, "empty")
        os.makedirs(empty)
        assert run_cli([
            "prepare", "--input", empty, "--scheme", "char",
            "--precision", "2", "--out", out,
        ]) == EXIT_USER
        capsys.readouterr()
        m = manifest_of(out)
        assert m["status"] == "error"
        assert "no structure files" in m["error"]

    def test_internal_error_exits_2(self, tmp_path, capsys, monkeypatch):
        import chemlm.cli as cli_module
        def boom(*a, **k):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli_module, "synth_corpus", boom)
        out = os.path.join(tmp_path, "out")
        code = run_cli(["synth", "--kind", "molecule", "--n", "1", "--out", out])
        assert code == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err
        assert "RuntimeError: boom" in manifest_of(out)["error"]

    def test_memory_error_exits_1(self, pipeline, tmp_path, capsys, monkeypatch):
        # a request too large to allocate (say `sample --n 10**12`) is the
        # user's to shrink; raising MemoryError stands in for a real
        # allocation, which could succeed under overcommit and exhaust memory
        import chemlm.cli as cli_module
        def too_big(*a, **k):
            raise MemoryError()
        monkeypatch.setattr(cli_module, "sample_from_checkpoint", too_big)
        out = os.path.join(tmp_path, "out")
        code = run_cli(["sample", "--checkpoint", pipeline["checkpoint"],
                        "--vocab", pipeline["vocab"], "--n", "2", "--out", out])
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert "internal error" not in err and "does not fit in memory" in err
        assert "does not fit in memory" in manifest_of(out)["error"]

    @pytest.mark.parametrize("flags, message", [
        (["--layers", "0"], "n_layers"),
        (["--heads", "0"], "n_heads 0"),
        (["--max-seq-len", "3"], "exceeds model context"),
        (["--d-ff", "-3"], "d_ff"),
        (["--checkpoint-interval", "-1"], "checkpoint_interval"),
        (["--grad-clip", "nan"], "grad_clip must be finite"),
        (["--lr-start", "inf", "--lr-end", "1e-5"], "lr_start must be finite"),
        (["--lr-start", "1e300", "--lr-end", "1e-5"], "training diverged at step 0"),
        (["--d-model", "0", "--heads", "1", "--d-ff", "8"], "d_model must be >= 1"),
        (["--d-model", "-4", "--heads", "2", "--d-ff", "8"], "d_model must be >= 1"),
    ])
    def test_bad_model_config_is_user_error(self, pipeline, tmp_path, capsys, flags, message):
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "train", "--corpus", pipeline["prepare"], "--steps", "1", "--out", out, *flags,
        ]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert message in manifest_of(out)["error"]

    @pytest.mark.parametrize("command", ["synth", "train", "sample", "evaluate"])
    def test_negative_seed_is_user_error(self, pipeline, tmp_path, capsys, command):
        # numpy refuses a negative seed with a ValueError, which exited 2
        flag = "--eval-seed" if command == "evaluate" else "--seed"
        argv = {
            "synth": ["synth", "--kind", "molecule", "--n", "1"],
            "train": ["train", "--corpus", pipeline["prepare"], "--steps", "1"],
            "sample": ["sample", "--checkpoint", pipeline["checkpoint"],
                       "--vocab", pipeline["vocab"], "--n", "1"],
            "evaluate": ["evaluate", "--samples", os.path.join(pipeline["sample"], "samples.csv"),
                         "--train", pipeline["prepare"]],
        }[command]
        code = run_cli([*argv, flag, "-1", "--out", os.path.join(tmp_path, "out")])
        assert code == EXIT_USER
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a non-negative integer, got '-1'" in err
        assert "internal error" not in err

    def test_max_len_beyond_context_is_user_error(self, pipeline, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "sample", "--checkpoint", pipeline["checkpoint"], "--vocab", pipeline["vocab"],
            "--n", "1", "--max-len", "999", "--out", out,
        ]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert "max_len 999" in manifest_of(out)["error"]

    @pytest.mark.parametrize("temperature", ["nan", "inf", "-0.5"])
    def test_bad_temperature_is_user_error(self, pipeline, tmp_path, capsys, temperature):
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "sample", "--checkpoint", pipeline["checkpoint"], "--vocab", pipeline["vocab"],
            "--n", "1", "--temperature", temperature, "--out", out,
        ]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert "temperature must be finite and >= 0" in manifest_of(out)["error"]

    def sample_error(self, checkpoint, vocab, tmp_path, capsys):
        """The manifest error of a `sample` run that must exit 1."""
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "sample", "--checkpoint", checkpoint, "--vocab", vocab, "--n", "1", "--out", out,
        ]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        return manifest_of(out)["error"]

    def test_vocab_of_another_bundle_is_user_error(self, pipeline, tmp_path, capsys):
        other = os.path.join(tmp_path, "other")
        assert run_cli([
            "prepare", "--input", os.path.join(pipeline["synth"], "structures"),
            "--scheme", "char", "--precision", "2", "--out", other,
        ]) == EXIT_OK
        error = self.sample_error(
            pipeline["checkpoint"], os.path.join(other, "vocab.txt"), tmp_path, capsys
        )
        assert "vocabulary hash mismatch" in error

    def test_non_checkpoint_file_is_user_error(self, pipeline, tmp_path, capsys):
        error = self.sample_error(pipeline["vocab"], pipeline["vocab"], tmp_path, capsys)
        assert "bad magic" in error

    @pytest.mark.parametrize("damage, message", [
        (lambda data: data[:40], "malformed checkpoint"),  # magic, length, part of the header
        (lambda data: data + b"\0" * 7, "trailing bytes"),
        (lambda data: data[:-8] + struct.pack("<d", math.inf), "non-finite values in tensor"),
    ], ids=["truncated", "trailing-bytes", "non-finite"])
    def test_damaged_checkpoint_is_user_error(self, pipeline, tmp_path, capsys, damage, message):
        damaged = os.path.join(tmp_path, "damaged.bin")
        with open(pipeline["checkpoint"], "rb") as src, open(damaged, "wb") as dst:
            dst.write(damage(src.read()))
        error = self.sample_error(damaged, pipeline["vocab"], tmp_path, capsys)
        assert message in error

    @pytest.mark.parametrize("argv, message", [
        (["prepare", "--input", "{pockets}", "--scheme", "atom_coord", "--precision", "1",
          "--prune-lo", "0", "--prune-hi", "10"], "bad target range [0, 10]"),
        (["prepare", "--input", "{pockets}", "--scheme", "atom_coord", "--precision", "1",
          "--prune-lo", "50", "--prune-hi", "10"], "bad target range [50, 10]"),
        (["prepare", "--input", "{molecules}", "--scheme", "char", "--precision", "2",
          "--dense-coords", "on"], "only applies to the atom_coord scheme"),
        (["prepare", "--input", "{pockets}", "--scheme", "atom_coord", "--precision", "3",
          "--dense-coords", "on", "--prune", "off"], "dense coordinate range would need"),
        (["evaluate", "--samples", "{pockets}", "--train", "{pocket_bundle}",
          "--overlap-threshold", "0"], "overlap threshold must be positive"),
        (["evaluate", "--samples", "{molecules}", "--train", "{bundle}",
          "--overlap-threshold", "-5"], "overlap threshold must be positive"),
        (["evaluate", "--samples", "{bad_id}", "--train", "{bundle}"], "bad samples row 2"),
        (["evaluate", "--samples", "{short_row}", "--train", "{bundle}"], "bad samples row 2"),
        (["synth", "--kind", "pocket", "--n", "1", "--residues", "-4"], "--residues must be >= 0"),
        (["synth", "--kind", "molecule", "--n", "1", "--residues", "5"],
         "--residues only applies to --kind pocket"),
        (["train", "--corpus", "{bundle}", "--steps", "1", "--crystal-shift", "on"],
         "--crystal-shift only applies to crystals"),
        (["evaluate", "--samples", "{pockets}", "--train", "{pocket_bundle}",
          "--overlap-threshold", "nan"], "overlap threshold must be positive"),
        (["prepare", "--input", "{perovskites}", "--scheme", "atom_coord", "--precision", "2",
          "--prune-lo", "-5"], "bad target range [-5, 250]"),
        (["evaluate", "--samples", "{perovskites}", "--train", "{bundle}"],
         "wrong structure kind: {perovskites} holds .cif files"),
    ], ids=["prune-lo-0", "prune-lo-above-hi", "char-dense-coords", "dense-coords-too-wide",
            "overlap-threshold-0", "overlap-threshold-negative-molecule",
            "samples-bad-id", "samples-short-row", "synth-residues-negative",
            "synth-residues-molecule", "train-crystal-shift-molecule",
            "overlap-threshold-nan", "prune-lo-negative-crystal", "samples-of-another-kind"])
    def test_bad_setting_or_row_is_user_error(
        self, pipeline, pockets, perovskites, tmp_path, capsys, argv, message
    ):
        paths = {
            "perovskites": perovskites,
            "molecules": os.path.join(pipeline["synth"], "structures"),
            "bundle": pipeline["prepare"],
            "pockets": pockets[0],
            "pocket_bundle": pockets[1],
        }
        for name, row in (("bad_id", "0,0,1 x 2"), ("short_row", "0,0")):
            paths[name] = os.path.join(tmp_path, f"{name}.csv")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(f"index,truncated,ids\n{row}\n")
        out = os.path.join(tmp_path, "out")
        assert run_cli([a.format(**paths) for a in argv] + ["--out", out]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert message.format(**paths) in manifest_of(out)["error"]

    @pytest.mark.parametrize("corpus, message", [
        (lambda text, n: b"", "no sequences in"),
        (lambda text, n: text + b"0 x 1\n", "invalid literal for int()"),
        (lambda text, n: b"\xff" + text, "can't decode byte 0xff"),
        (lambda text, n: text + b"0 -1 1\n", "sequence 7 has an id outside the vocabulary"),
        (lambda text, n: text + b"0 %d 1\n" % n, "sequence 7 has an id outside the vocabulary"),
        (lambda text, n: text + b"0\n", "corpus.txt: line 7 holds 1 ids"),
        (lambda text, n: b"\n\n", "corpus.txt: line 1 holds 0 ids"),
    ], ids=["empty", "non-integer", "not-utf8", "negative-id", "id-past-vocab", "one-id",
            "blank-lines"])
    def test_malformed_corpus_is_user_error(self, pipeline, tmp_path, capsys, corpus, message):
        bundle = os.path.join(tmp_path, "bundle")
        shutil.copytree(pipeline["prepare"], bundle)
        path = os.path.join(bundle, "corpus.txt")
        with open(path, "rb") as fh:
            text = fh.read()
        n_tokens = len(Vocabulary.load(pipeline["vocab"]).tokens)
        with open(path, "wb") as fh:
            fh.write(corpus(text, n_tokens))
        out = os.path.join(tmp_path, "out")
        assert run_cli(["train", "--corpus", bundle, "--steps", "1", "--out", out]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert message in manifest_of(out)["error"]
        # evaluate reads the same corpus.txt, and names it
        samples = os.path.join(pipeline["synth"], "structures")
        assert run_cli([
            "evaluate", "--samples", samples, "--train", bundle, "--out", out,
        ]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert path in manifest_of(out)["error"]

    def test_samples_of_another_vocabulary_are_user_error(self, pipeline, tmp_path, capsys):
        other = os.path.join(tmp_path, "other")
        assert run_cli([
            "prepare", "--input", os.path.join(pipeline["synth"], "structures"),
            "--scheme", "char", "--precision", "2", "--out", other,
        ]) == EXIT_OK
        samples = os.path.join(pipeline["sample"], "samples.csv")
        out = os.path.join(tmp_path, "out")
        argv = ["evaluate", "--train", other, "--out", out, "--samples"]
        assert run_cli(argv + [samples]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert "vocabulary hash mismatch" in manifest_of(out)["error"]
        # with no sample manifest beside them the samples are taken as given
        alone = os.path.join(tmp_path, "alone")
        os.makedirs(alone)
        shutil.copy(samples, alone)
        assert run_cli(argv + [os.path.join(alone, "samples.csv")]) == EXIT_OK
        with open(os.path.join(alone, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert run_cli(argv + [os.path.join(alone, "samples.csv")]) == EXIT_USER
        assert "unreadable manifest" in manifest_of(out)["error"]

    @pytest.mark.parametrize("text", ["[1]", '"x"'])
    def test_sample_manifest_not_an_object_is_user_error(self, pipeline, tmp_path, capsys, text):
        alone = os.path.join(tmp_path, "alone")
        os.makedirs(alone)
        shutil.copy(os.path.join(pipeline["sample"], "samples.csv"), alone)
        with open(os.path.join(alone, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp_path, "out")
        assert run_cli(["evaluate", "--samples", os.path.join(alone, "samples.csv"),
                        "--train", pipeline["prepare"], "--out", out]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        error = manifest_of(out)["error"]
        assert "unreadable manifest" in error
        assert os.path.join(alone, "manifest.json") in error

    @pytest.mark.parametrize("shape", [[10**20], [2**40], [-1], [2.5], 3, [True]],
                             ids=["1e20", "2^40", "negative", "fractional", "not-a-list", "bool"])
    def test_checkpoint_shape_beyond_the_file_is_user_error(self, pipeline, tmp_path, capsys,
                                                            shape):
        # a hand-made header declaring one tensor over a file of one value
        header = json.dumps({"format_version": 1, "tensors": [{"name": "w", "shape": shape}]})
        path = os.path.join(tmp_path, "hand.bin")
        with open(path, "wb") as fh:
            fh.write(b"CHEMLM01" + struct.pack("<I", len(header)) + header.encode())
            fh.write(struct.pack("<d", 1.0))
        error = self.sample_error(path, pipeline["vocab"], tmp_path, capsys)
        assert error.startswith(f"malformed checkpoint {path}: ")
        assert "does not fit in memory" not in error

    @pytest.mark.parametrize("wrong", ["losses.csv", "checkpoint"])
    def test_non_vocabulary_file_is_user_error(self, pipeline, tmp_path, capsys, wrong):
        # a text file, and a binary one that is not even UTF-8
        path = pipeline[wrong] if wrong == "checkpoint" else os.path.join(pipeline["train"], wrong)
        error = self.sample_error(pipeline["checkpoint"], path, tmp_path, capsys)
        assert "not a chemlm vocabulary file" in error

    def test_bad_report_json(self, tmp_path, capsys):
        bad = os.path.join(tmp_path, "report.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        code = run_cli(["report", "--reports", bad,
                        "--out", os.path.join(tmp_path, "out")])
        assert code == EXIT_USER

    @pytest.mark.parametrize("edit, message", [
        (lambda report: [1, 2], "a report is a JSON object, not list"),
        (lambda report: {k: v for k, v in report.items() if k != "emd"},
         "report fields missing ['emd'], unknown []"),
        (lambda report: {**report, "rmsd": 1.0}, "report fields missing [], unknown ['rmsd']"),
        (lambda report: {**report, "emd": 5}, "report field emd is a int, not a dict"),
    ], ids=["list", "missing-field", "extra-field", "emd-number"])
    def test_report_json_of_the_wrong_shape(self, pipeline, tmp_path, capsys, edit, message):
        with open(os.path.join(pipeline["eval_self"], "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        path = os.path.join(tmp_path, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(edit(report), fh)
        out = os.path.join(tmp_path, "out")
        assert run_cli(["report", "--reports", path, "--out", out]) == EXIT_USER
        assert "internal error" not in capsys.readouterr().err
        assert manifest_of(out)["error"] == f"{path}: {message}"

    def test_missing_report_file(self, tmp_path, capsys):
        code = run_cli(["report", "--reports", os.path.join(tmp_path, "nope.json"),
                        "--out", os.path.join(tmp_path, "out")])
        assert code == EXIT_USER

    def test_report_reference_is_an_unknown_option(self, pipeline, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        code = run_cli([
            "report", "--reports", os.path.join(pipeline["eval_self"], "report.json"),
            "--structures", os.path.join(pipeline["eval_self"], "structures"),
            "--reference", os.path.join(pipeline["eval_self"], "structures"),
            "--out", out,
        ])
        assert code == EXIT_USER
        assert "unrecognized arguments: --reference" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "rmsd.csv"))

    def test_missing_samples_csv(self, pipeline, tmp_path, capsys):
        code = run_cli([
            "evaluate", "--samples", os.path.join(tmp_path, "nope.csv"),
            "--train", pipeline["prepare"],
            "--out", os.path.join(tmp_path, "out"),
        ])
        assert code == EXIT_USER


class TestAugmentation:
    def test_char_augmentation_stays_inside_the_context(self, tmp_path, capsys):
        # rotated molecules spelled out character by character can be longer
        # than any corpus sequence, which sizes the model context
        dirs = {name: os.path.join(tmp_path, name) for name in ("synth", "prepare", "train")}
        assert run_cli([
            "synth", "--kind", "molecule", "--n", "8", "--seed", "2",
            "--precision", "2", "--out", dirs["synth"],
        ]) == EXIT_OK
        assert run_cli([
            "prepare", "--input", os.path.join(dirs["synth"], "structures"),
            "--scheme", "char", "--precision", "2", "--out", dirs["prepare"],
        ]) == EXIT_OK
        assert run_cli([
            "train", "--corpus", dirs["prepare"], "--steps", "4", "--batch-size", "8",
            "--layers", "1", "--d-model", "16", "--heads", "2", "--augment", "on",
            "--seed", "2", "--out", dirs["train"],
        ]) == EXIT_OK
        assert "error" not in manifest_of(dirs["train"])


class TestBundle:
    """`train` and `evaluate` read a bundle's vocab.txt and corpus.txt only;
    structures/ is there to read, and for `report`."""

    @pytest.fixture
    def bundles(self, pipeline, tmp_path):
        """A fresh bundle of 3 of the 6 molecules, the same 3 in a bundle
        whose structures/ also holds the other 3 (stale structures/), and
        the fresh one without structures/."""
        three = os.path.join(tmp_path, "three")
        os.makedirs(three)
        synth = os.path.join(pipeline["synth"], "structures")
        for name in sorted(os.listdir(synth))[:3]:
            shutil.copy(os.path.join(synth, name), three)
        paths = {name: os.path.join(tmp_path, name) for name in ("fresh", "stale", "bare")}
        for out in paths.values():
            assert run_cli([
                "prepare", "--input", three, "--scheme", "atom_coord", "--precision", "2",
                "--out", out,
            ]) == EXIT_OK
        for name in sorted(os.listdir(synth))[3:]:
            shutil.copy(os.path.join(synth, name), os.path.join(paths["stale"], "structures"))
        assert len(os.listdir(os.path.join(paths["stale"], "structures"))) == 6
        shutil.rmtree(os.path.join(paths["bare"], "structures"))
        return paths

    def test_train_uses_corpus_txt_alone(self, bundles, tmp_path):
        written = {}
        for name, bundle in bundles.items():
            out = tmp_path / f"train_{name}"
            assert run_cli([
                "train", "--corpus", bundle, "--steps", "3", "--batch-size", "2",
                "--layers", "1", "--d-model", "16", "--heads", "2", "--augment", "on",
                "--seed", "4", "--out", str(out),
            ]) == EXIT_OK
            names = sorted(n for n in os.listdir(out)
                           if n.startswith("checkpoint_") or n == "losses.csv")
            assert names == ["checkpoint_0000003.bin", "losses.csv"]
            written[name] = {n: (out / n).read_bytes() for n in names}
        assert written["stale"] == written["fresh"]
        assert written["bare"] == written["fresh"]

    def test_evaluate_uses_corpus_txt_alone(self, bundles, tmp_path):
        samples = os.path.join(bundles["fresh"], "structures")
        written, train_hashes = {}, set()
        for name, bundle in bundles.items():
            out = tmp_path / f"eval_{name}"
            assert run_cli([
                "evaluate", "--samples", samples, "--train", bundle, "--out", str(out),
            ]) == EXIT_OK
            # every output but the manifest and timing sidecar
            written[name] = manifest_of(out)["outputs"]
            train_hashes.add(manifest_of(out)["train_hash"])
        assert {"report.json", "failures.csv", "values_mw.csv",
                "structures/000000.xyz"} <= set(written["fresh"])
        assert written["stale"] == written["fresh"]
        assert written["bare"] == written["fresh"]
        assert train_hashes == {file_sha256(os.path.join(bundles["fresh"], "corpus.txt"))}

    def test_pocket_fixed_set_scores_as_its_own_training_set(self, tmp_path):
        # The first pocket's residue 1 holds two complete GLY compositions.
        # Decoding its atom_coord sequence splits it into two residues, so the
        # parsed file and the decoded corpus differ; evaluate must score the
        # corpus it decodes, which makes the bundle's own sequences the
        # training set exactly: nothing novel, every distance 0.
        pockets = {
            "a.pdb": [("GLY", 1, "C C N O C C N O"), ("ALA", 2, "C C C N O")],
            "b.pdb": [("GLY", 1, "C C N O"), ("ALA", 2, "C C C N O")],
        }
        raw = tmp_path / "raw"
        raw.mkdir()
        for name, residues in pockets.items():
            lines = []
            for code, index, elements in residues:
                for element in elements.split():
                    x = 1.5 * len(lines)
                    lines.append(f"ATOM {len(lines) + 1} {element} {code} {index} {x:.1f} 0.0 0.0")
            (raw / name).write_text("\n".join(lines + ["END"]) + "\n", encoding="utf-8")
        bundle, out = str(tmp_path / "bundle"), str(tmp_path / "eval")
        assert run_cli([
            "prepare", "--input", str(raw), "--scheme", "atom_coord", "--precision", "1",
            "--prune", "off", "--out", bundle,
        ]) == EXIT_OK
        samples = tmp_path / "samples.csv"
        with open(os.path.join(bundle, "corpus.txt"), encoding="utf-8") as fh:
            rows = [f"{i},0,{line.strip()}" for i, line in enumerate(fh)]
        samples.write_text("\n".join(["index,truncated,ids"] + rows) + "\n", encoding="utf-8")
        assert run_cli([
            "evaluate", "--samples", str(samples), "--train", bundle, "--out", out,
        ]) == EXIT_OK
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = MetricsReport.from_json(fh.read())
        assert report.n_valid == 2
        assert report.novel_pct == 0.0
        assert "n_residues" in report.emd
        assert set(report.emd.values()) == {0.0}


class TestInputValidation:
    def test_mixed_formats_rejected(self, tmp_path, capsys):
        src = os.path.join(tmp_path, "mixed")
        os.makedirs(src)
        with open(os.path.join(src, "a.xyz"), "w", encoding="utf-8") as fh:
            fh.write("1\n\nC 0.000 0.000 0.000\n")
        with open(os.path.join(src, "b.cif"), "w", encoding="utf-8") as fh:
            fh.write("data_x\n")
        code = run_cli([
            "prepare", "--input", src, "--scheme", "char", "--precision", "2",
            "--out", os.path.join(tmp_path, "out"),
        ])
        assert code == EXIT_USER
        assert "mixed structure formats" in capsys.readouterr().err

    def test_unknown_extension_is_skipped(self, tmp_path):
        src = os.path.join(tmp_path, "structures")
        os.makedirs(os.path.join(src, "sub.xyz"))
        with open(os.path.join(src, "a.xyz"), "w", encoding="utf-8") as fh:
            fh.write("1\n\nC 0.000 0.000 0.000\n")
        with open(os.path.join(src, "notes.txt"), "w", encoding="utf-8") as fh:
            fh.write("not a structure\n")
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "prepare", "--input", src, "--scheme", "atom_coord",
            "--precision", "2", "--out", out,
        ]) == EXIT_OK
        m = manifest_of(out)
        assert (m["n_structures"], m["n_failures"]) == (1, 0)
        with open(os.path.join(out, "failures.csv"), encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [["file", "error"]]

    def test_corrupt_file_is_recorded_not_fatal(self, pipeline, tmp_path):
        src = os.path.join(tmp_path, "structures")
        shutil.copytree(os.path.join(pipeline["synth"], "structures"), src)
        with open(os.path.join(src, "zz_bad.xyz"), "w", encoding="utf-8") as fh:
            fh.write("not a number\n\nC 0.0 0.0 0.0\n")
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "prepare", "--input", src, "--scheme", "atom_coord",
            "--precision", "2", "--out", out,
        ]) == EXIT_OK
        m = manifest_of(out)
        assert m["n_structures"] == 6
        assert m["n_failures"] == 1
        with open(os.path.join(out, "failures.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["file", "error"]
        assert rows[1][0] == "zz_bad.xyz"
        assert "line 1" in rows[1][1]

    def test_non_utf8_file_is_recorded_not_fatal(self, pipeline, tmp_path):
        src = os.path.join(tmp_path, "structures")
        shutil.copytree(os.path.join(pipeline["synth"], "structures"), src)
        with open(os.path.join(src, "zz_latin1.xyz"), "wb") as fh:
            fh.write("1\ncaf\u00e9\nC 0.0 0.0 0.0\n".encode("latin-1"))
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "prepare", "--input", src, "--scheme", "atom_coord",
            "--precision", "2", "--out", out,
        ]) == EXIT_OK
        assert manifest_of(out)["n_failures"] == 1
        with open(os.path.join(out, "failures.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "zz_latin1.xyz"
        assert "utf-8" in rows[1][1]

    @pytest.mark.parametrize(
        "scheme, precision, value",
        [
            ("atom_coord", 2, "1000000000000000000000000000000.0"),
            ("char", 2, "1000000000000000000000000000000.0"),
            ("atom_coord", 3, "12345678901234567890123456.0"),
        ],
    )
    def test_long_coordinate_is_prepared(self, tmp_path, scheme, precision, value):
        # quantizing these values overflowed Decimal's default 28 digits
        src = os.path.join(tmp_path, "structures")
        os.makedirs(src)
        text = f"2\nlong\nO {value} 0.0 0.0\nH 0.96 0.0 0.0\n"
        with open(os.path.join(src, "a.xyz"), "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "prepare", "--input", src, "--scheme", scheme,
            "--precision", str(precision), "--out", out,
        ]) == EXIT_OK
        vocab = Vocabulary.load(os.path.join(out, "vocab.txt"))
        s = parse_xyz(text)
        assert decode(encode(s, vocab), vocab) == round_coords(s, precision)

    def test_evaluate_names_the_unparseable_sample_file(self, pipeline, tmp_path):
        src = os.path.join(tmp_path, "samples")
        shutil.copytree(os.path.join(pipeline["synth"], "structures"), src)
        with open(os.path.join(src, "zz_bad.xyz"), "w", encoding="utf-8") as fh:
            fh.write("not a number\n\nC 0.0 0.0 0.0\n")
        out = os.path.join(tmp_path, "out")
        assert run_cli([
            "evaluate", "--samples", src, "--train", pipeline["prepare"], "--out", out,
        ]) == EXIT_OK
        with open(os.path.join(out, "failures.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][:2] == ["6", "decode_failed"]
        assert rows[-1][2].startswith("unparseable file zz_bad.xyz: ")
        assert "line 1" in rows[-1][2]

    def test_bad_samples_header(self, tmp_path):
        path = os.path.join(tmp_path, "samples.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("foo,bar\n1,2\n")
        with pytest.raises(CliError, match="samples.csv"):
            read_samples_csv(path)


class TestConfigFile:
    def test_file_supplies_required_flags(self, tmp_path):
        cfg = os.path.join(tmp_path, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("# synth settings\n\nkind=molecule\nn=3\nseed=5\n")
        out = os.path.join(tmp_path, "out")
        assert run_cli(["synth", "--config", cfg, "--out", out]) == EXIT_OK
        m = manifest_of(out)
        assert m["n"] == 3
        assert m["seed"] == 5

    def test_cli_flag_beats_file(self, tmp_path):
        cfg = os.path.join(tmp_path, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("kind=molecule\nn=3\nseed=5\n")
        out = os.path.join(tmp_path, "out")
        assert run_cli(["synth", "--config", cfg, "--n", "4", "--out", out]) == EXIT_OK
        m = manifest_of(out)
        assert m["n"] == 4
        assert m["seed"] == 5
        files = os.listdir(os.path.join(out, "structures"))
        assert len(files) == 4

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = os.path.join(tmp_path, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("kind=molecule\nbogus line\n")
        with pytest.raises(CliError, match="2"):
            load_config_file(cfg)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(CliError, match="cannot read config file"):
            load_config_file(os.path.join(tmp_path, "nope.cfg"))

    def test_parsing(self, tmp_path):
        cfg = os.path.join(tmp_path, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("# comment\n\na=1\n b = two words \n")
        assert load_config_file(cfg) == ["--a", "1", "--b", "two words"]


class TestOutputRoot:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEMLM_OUTPUT_ROOT", str(tmp_path))
        assert run_cli(["synth", "--kind", "molecule", "--n", "2"]) == EXIT_OK
        assert os.path.isfile(os.path.join(tmp_path, "synth", "manifest.json"))

    def test_explicit_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEMLM_OUTPUT_ROOT", str(tmp_path))
        out = os.path.join(tmp_path, "elsewhere")
        assert run_cli(["synth", "--kind", "molecule", "--n", "2",
                        "--out", out]) == EXIT_OK
        assert os.path.isfile(os.path.join(out, "manifest.json"))
        assert not os.path.isdir(os.path.join(tmp_path, "synth"))

    def test_neither_given(self, monkeypatch, capsys):
        monkeypatch.delenv("CHEMLM_OUTPUT_ROOT", raising=False)
        assert run_cli(["synth", "--kind", "molecule", "--n", "2"]) == EXIT_USER
        assert "CHEMLM_OUTPUT_ROOT" in capsys.readouterr().err


class TestRenderTable:
    def test_none_renders_as_dash(self):
        report = MetricsReport(
            structure_kind="molecule", n_samples=2, n_decode_failed=2,
            n_invalid=0, n_valid=0, valid_pct=0.0, unique_pct=None,
            novel_pct=None, extra_validity_pct={}, emd={}, emd_oracle={},
        )
        table = render_table(["run"], [report])
        assert "—" in table
        assert "0.000" in table

    def test_floats_three_decimals(self):
        report = MetricsReport(
            structure_kind="molecule", n_samples=4, n_decode_failed=0,
            n_invalid=1, n_valid=3, valid_pct=75.0, unique_pct=100.0,
            novel_pct=2.0 / 3.0 * 100.0, extra_validity_pct={},
            emd={"mw": 1.23456}, emd_oracle={"mw": 0.5},
        )
        table = render_table(["run"], [report])
        assert "1.235" in table
        assert "66.667" in table


# Values at the edges of what a numeric flag can be given: non-finite,
# zero, negative, the smallest subnormal and a huge value.
EXTREMES = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e308")

TRAIN_NUMERIC_FLAGS = (
    "--steps", "--batch-size", "--lr-start", "--lr-end", "--seed", "--augment-attempts",
    "--grad-clip", "--checkpoint-interval", "--layers", "--d-model", "--heads", "--d-ff",
    "--max-seq-len", "--dropout",
)
SAMPLE_NUMERIC_FLAGS = ("--n", "--temperature", "--max-len", "--seed")
OTHER_NUMERIC_FLAGS = {
    "synth": ("--n", "--seed", "--precision", "--residues"),
    "prepare": ("--precision", "--prune-lo", "--prune-hi"),
    "evaluate": ("--eval-seed", "--overlap-threshold"),
}


def written_floats(out_dir):
    """Every number the files under `out_dir` hold: JSON numbers (NaN and
    Infinity included), checkpoint tensors, and the fields of the text files."""
    values = []
    paths = sorted(os.path.join(d, name) for d, _, names in os.walk(out_dir) for name in names)
    for path in paths:
        name = os.path.basename(path)
        if name.endswith(".bin"):
            # load_checkpoint refuses a non-finite tensor on its own
            values.extend(float(np.abs(v).max()) for v in load_checkpoint(path).params.values())
        elif name.endswith(".json"):
            def walk(node):
                if isinstance(node, dict):
                    node = list(node.values())
                if isinstance(node, list):
                    for item in node:
                        walk(item)
                elif isinstance(node, float):
                    values.append(node)
            with open(path, encoding="utf-8") as fh:
                walk(json.load(fh))
        else:
            with open(path, encoding="utf-8") as fh:
                for field in fh.read().replace(",", " ").split():
                    try:
                        values.append(float(field))
                    except ValueError:
                        pass
    return values


class TestNumericFlagsProperty:
    """Any extreme value of any numeric flag is a success or a user error,
    never an internal one, and a success writes only finite numbers."""

    def check(self, pipeline, out, command, flags):
        argv = {
            "synth": ["synth", "--kind", "pocket", "--n", "2"],
            "prepare": ["prepare", "--input", os.path.join(pipeline["synth"], "structures"),
                        "--scheme", "atom_coord", "--precision", "2"],
            "train": ["train", "--corpus", pipeline["prepare"], "--steps", "1",
                      "--batch-size", "2", "--layers", "1", "--d-model", "8", "--heads", "2",
                      # a positive d_ff, so a bad --d-model is not caught as d_ff 4 * d_model
                      "--d-ff", "16"],
            "sample": ["sample", "--checkpoint", pipeline["checkpoint"],
                       "--vocab", pipeline["vocab"], "--n", "2", "--max-len", "8"],
            "evaluate": ["evaluate", "--samples", os.path.join(pipeline["sample"], "samples.csv"),
                         "--train", pipeline["prepare"]],
        }[command]
        for flag, value in flags.items():
            argv += [flag, value]
        code = run_cli([*argv, "--out", out])
        assert code in (EXIT_OK, EXIT_USER), argv
        if code == EXIT_OK:
            floats = written_floats(out)
            assert floats and all(math.isfinite(v) for v in floats), argv
        return code

    def test_each_flag_alone(self, pipeline, tmp_path):
        commands = {"train": TRAIN_NUMERIC_FLAGS, "sample": SAMPLE_NUMERIC_FLAGS,
                    **OTHER_NUMERIC_FLAGS}
        for command, flags in commands.items():
            assert self.check(pipeline, str(tmp_path / command), command, {}) == EXIT_OK
            for flag in flags:
                for value in EXTREMES:
                    out = str(tmp_path / f"{command}{flag}={value}")
                    self.check(pipeline, out, command, {flag: value})

    def test_huge_residue_count(self, pipeline, tmp_path):
        # a residue count is bounded, so 10**12 is refused before any
        # synthesis starts; an unbounded count would run for ever
        out = str(tmp_path / "synth")
        assert self.check(pipeline, out, "synth", {"--residues": str(10**12)}) == EXIT_USER
        assert "--residues must be <= 1000" in manifest_of(out)["error"]

    def test_huge_augment_attempts(self, pipeline, tmp_path):
        # draws per batch item are bounded: where no candidate fits the
        # vocabulary every draw runs, so 10**12 would train for ever
        out = str(tmp_path / "train")
        flags = {"--augment": "on", "--augment-attempts": str(10**12)}
        assert self.check(pipeline, out, "train", flags) == EXIT_USER
        assert f"augment_attempts must be in [1, {MAX_AUGMENT_ATTEMPTS}]" in manifest_of(out)["error"]

    def test_huge_structure_count(self, pipeline, tmp_path):
        # a structure count is bounded too: the six-digit file names sort
        # in index order only below 10**6
        out = str(tmp_path / "synth")
        assert self.check(pipeline, out, "synth", {"--n": str(10**12)}) == EXIT_USER
        assert f"--n must be <= {MAX_STRUCTURES}" in manifest_of(out)["error"]

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(flags=st.dictionaries(st.sampled_from(TRAIN_NUMERIC_FLAGS), st.sampled_from(EXTREMES),
                                 min_size=2, max_size=3))
    def test_train_flags_together(self, pipeline, tmp_path_factory, flags):
        self.check(pipeline, str(tmp_path_factory.mktemp("train")), "train", flags)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(flags=st.dictionaries(st.sampled_from(SAMPLE_NUMERIC_FLAGS), st.sampled_from(EXTREMES),
                                 min_size=2, max_size=3))
    def test_sample_flags_together(self, pipeline, tmp_path_factory, flags):
        self.check(pipeline, str(tmp_path_factory.mktemp("sample")), "sample", flags)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), command=st.sampled_from(sorted(OTHER_NUMERIC_FLAGS)))
    def test_other_commands_flags_together(self, pipeline, tmp_path_factory, data, command):
        flags = data.draw(st.dictionaries(st.sampled_from(OTHER_NUMERIC_FLAGS[command]),
                                          st.sampled_from(EXTREMES), min_size=2, max_size=3))
        self.check(pipeline, str(tmp_path_factory.mktemp(command)), command, flags)


#: Any JSON value: scalars (NaN and the infinities included) and small
#: nested lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


class TestReportJsonProperty:
    """Any JSON value in any field of a report.json is a success or a
    user error for `report`, never an internal one."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(field=st.sampled_from([f.name for f in dataclasses.fields(MetricsReport)]),
           value=JSON_VALUES)
    def test_any_value_in_any_field(self, pipeline, tmp_path_factory, field, value):
        with open(os.path.join(pipeline["eval_self"], "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        report[field] = value
        root = str(tmp_path_factory.mktemp("report"))
        path = os.path.join(root, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        assert run_cli(["report", "--reports", path, "--out", root]) in (EXIT_OK, EXIT_USER)


class TestOutputNames:
    """Every file a command lists in its manifest matches one of that
    command's `_OUTPUT_NAMES`, so no output escapes stale-output removal."""

    def test_every_command_writes_only_its_names(self, pipeline):
        import fnmatch

        from chemlm.cli import _OUTPUT_NAMES

        commands = {"synth": "synth", "prepare": "prepare", "train": "train",
                    "sample": "sample", "eval_seq": "evaluate", "eval_self": "evaluate",
                    "report": "report"}
        seen = set()
        for directory, command in commands.items():
            manifest = manifest_of(pipeline[directory])
            assert manifest["command"] == command and manifest["outputs"]
            for rel in manifest["outputs"]:
                assert any(fnmatch.fnmatchcase(rel, p) for p in _OUTPUT_NAMES[command]), \
                    f"{command} wrote {rel}, which matches none of {_OUTPUT_NAMES[command]}"
            seen.add(command)
        assert seen == set(_OUTPUT_NAMES)


def run_subprocess(argv, timeout=60):
    """A fresh `python -m chemlm.cli` run: (exit code, stderr). A run that
    blocks fails the test at the timeout instead of hanging it."""
    import subprocess
    import sys

    import chemlm

    src = os.path.dirname(os.path.dirname(chemlm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        proc = subprocess.run([sys.executable, "-m", "chemlm.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"chemlm {argv[0]} did not finish within {timeout} s")
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
class TestSpecialFiles:
    """A command opens no path for hashing that is not a regular file."""

    def synth(self, out):
        return run_subprocess(["synth", "--kind", "perovskite", "--n", "4", "--seed", "1",
                               "--out", str(out)])

    def test_dangling_symlink_in_out(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        os.symlink(tmp_path / "missing", out / "dangling")
        code, err = self.synth(out)
        assert code == EXIT_OK, err
        outputs = manifest_of(str(out))["outputs"]
        assert sorted(outputs) == [f"structures/00000{i}.cif" for i in range(4)]

    def test_fifo_in_out(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / "pipe")
        code, err = self.synth(out)
        assert code == EXIT_OK, err
        assert sorted(manifest_of(str(out))["outputs"]) == [
            f"structures/00000{i}.cif" for i in range(4)]

    def test_fifo_in_prepare_input(self, tmp_path):
        code, err = self.synth(tmp_path / "synth")
        assert code == EXIT_OK, err
        structures = tmp_path / "synth" / "structures"
        plain = tree_hash(str(structures))
        os.mkfifo(structures / "pipe")
        code, err = run_subprocess(["prepare", "--input", str(structures), "--scheme",
                                    "atom_coord", "--precision", "2",
                                    "--out", str(tmp_path / "prepare")])
        assert code == EXIT_OK, err
        manifest = manifest_of(str(tmp_path / "prepare"))
        assert manifest["n_structures"] == 4 and manifest["input_hash"] == plain
