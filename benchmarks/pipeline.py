"""The pipeline benchmark: one workload, one seed, one result line.

A run sets up the workload's corpus with `synth` in a fresh interpreter
(several times, timed from outside), then repeats whole rounds of
prepare -> train -> sample -> evaluate -> evaluate (fixed set) -> report
through `chemlm.cli.main` in this process until the measuring time is
spent, checks the outputs and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import checks
from chemlm import cli
from tracing import PER_LAYER_UNITS, Tracer

BATCH_SIZE = 16  # the CLI's default; steps per epoch depend on it
PRECISION = 2
LR_START = 1e-3
LR_END = 9e-6
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # synth --kind
    n_structures: int
    epochs: int  # whole epochs, so every structure trains equally often
    n_samples: int
    replay: int  # sampled sequences re-derived by the replay check
    context: int  # train --max-seq-len: above the longest sequence any seed can make
    max_len: int  # sample --max-len: fixed, so sampling cost does not follow the seed
    light_repeats: int  # prepare + fixed-set evaluate pairs at each of a round's three points
    synth_args: tuple = ()

    @property
    def steps(self) -> int:
        return self.epochs * -(-self.n_structures // BATCH_SIZE)


WORKLOADS = {
    w.name: w
    for w in (
        # 3-8 heavy atoms: at most C8H18, 26 atoms, 106 tokens
        Workload("molecule", "molecule", 128, 2, 16, 4, 112, 96, 2),
        # always 5 sites: 28 tokens
        Workload("perovskite", "perovskite", 256, 4, 256, 16, 28, 28, 2),
        # 8 residues of at most 14 heavy atoms: 450 tokens. Four samples
        # of 160 tokens cost what one of 320 does, and one sample that
        # meets EOS early moves the rate far less. Not in BENCHMARK.json:
        # its rates were not steady enough for a 25 % bound (README.md).
        Workload("pocket", "pocket", 16, 2, 4, 2, 450, 160, 3, ("--residues", "8")),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "prepare_structs_per_s": "structures/s",
    "train_tokens_per_s": "tokens/s",
    "sample_tokens_per_s": "tokens/s",
    "evaluate_structs_per_s": "structures/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


class CommandFailed(Exception):
    pass


class Operations:
    """Counts attempted and failed operations: commands and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # any exception is a failed check, reported by name
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            print(f"check {name} FAILED: {exc}", file=sys.stderr)


class Round:
    """Paths of one round's command outputs."""

    OUTPUTS = ("prepare", "train", "sample", "evaluate", "evaluate_fixed", "report")

    def __init__(self, root):
        self.root = root
        for name in self.OUTPUTS:
            setattr(self, name, os.path.join(root, name))
        self.fixed_csv = os.path.join(root, "fixed_samples.csv")

    def checkpoint(self):
        with open(os.path.join(self.train, "manifest.json"), encoding="utf-8") as fh:
            return os.path.join(self.train, json.load(fh)["checkpoint"])

    def manifests(self):
        out = {}
        for name in self.OUTPUTS:
            with open(os.path.join(getattr(self, name), "manifest.json"), "rb") as fh:
                out[name] = fh.read()
        return out


def _run_command(ops, argv, tracer):
    """Wall seconds of one in-process CLI command; its stdout is discarded."""
    ops.attempted += 1
    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli"):
                code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        ops.failed += 1
        ops.failures.append(f"{argv[0]} exited {code}")
        raise CommandFailed(f"chemlm {' '.join(argv)} exited {code}")
    return seconds


def write_fixed_samples(rd):
    """The bundle's own structures, re-encoded, as a samples.csv."""
    with open(rd.fixed_csv, "w", encoding="utf-8") as fh:
        fh.write("index,truncated,ids\n")
        for i, ids in enumerate(checks.read_corpus(rd.prepare)):
            fh.write(f"{i},0,{' '.join(map(str, ids))}\n")


def run_round(ops, wl, seed, synth_dir, rd, tracer=None):
    """One pass of the pipeline; returns wall seconds per command, as a
    list for prepare and the fixed-set evaluate, the two short commands.

    The short commands run at three points of the round, before `train`,
    before `sample` and before `report`, so their times sample the whole
    round: the machine's speed shifts from one second to the next, and
    calls made back to back share its state. Every command but the first
    of its kind overwrites the outputs of the one before: creating
    hundreds of fresh files makes `prepare` times far noisier than
    overwriting them (see README.md). `prepare` writes the same bytes
    each time, so the commands between its runs read the same bundle.
    """
    os.makedirs(rd.root, exist_ok=True)
    t = {"prepare": [], "evaluate_fixed": []}
    prepare = [
        "prepare", "--input", os.path.join(synth_dir, "structures"), "--scheme", "atom_coord",
        "--precision", str(PRECISION), "--out", rd.prepare]
    evaluate_fixed = [
        "evaluate", "--samples", rd.fixed_csv, "--train", rd.prepare, "--eval-seed", str(seed),
        "--out", rd.evaluate_fixed]

    def light():
        for _ in range(wl.light_repeats):
            t["prepare"].append(_run_command(ops, prepare, tracer))
            if not os.path.exists(rd.fixed_csv):
                write_fixed_samples(rd)
            t["evaluate_fixed"].append(_run_command(ops, evaluate_fixed, tracer))

    light()
    t["train"] = _run_command(ops, [
        "train", "--corpus", rd.prepare, "--steps", str(wl.steps), "--batch-size", str(BATCH_SIZE),
        "--lr-start", repr(LR_START), "--lr-end", repr(LR_END), "--max-seq-len", str(wl.context),
        "--seed", str(seed), "--out", rd.train], tracer)
    light()
    t["sample"] = _run_command(ops, [
        "sample", "--checkpoint", rd.checkpoint(), "--vocab", os.path.join(rd.prepare, "vocab.txt"),
        "--n", str(wl.n_samples), "--max-len", str(wl.max_len), "--seed", str(seed),
        "--out", rd.sample], tracer)
    t["evaluate"] = _run_command(ops, [
        "evaluate", "--samples", os.path.join(rd.sample, "samples.csv"), "--train", rd.prepare,
        "--eval-seed", str(seed), "--out", rd.evaluate], tracer)
    light()
    # Only the fixed set is sure to decode to at least one structure, and
    # report --structures refuses an empty directory.
    t["report"] = _run_command(ops, [
        "report", "--reports", os.path.join(rd.evaluate, "report.json"),
        os.path.join(rd.evaluate_fixed, "report.json"),
        "--structures", os.path.join(rd.evaluate_fixed, "structures"), "--out", rd.report], tracer)
    return t


def setup(ops, wl, seed, synth_dir, src_dir):
    """Median wall seconds of `chemlm synth` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", "import sys; from chemlm.cli import main; sys.exit(main())",
            "synth", "--kind", wl.kind, "--n", str(wl.n_structures), "--seed", str(seed),
            "--precision", str(PRECISION), *wl.synth_args, "--out", synth_dir]
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(synth_dir, ignore_errors=True)
        ops.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            ops.failed += 1
            raise CommandFailed(f"synth exited {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(times)


def run_checks(ops, wl, seed, synth_dir, rd):
    with open(os.path.join(rd.prepare, "stats.json"), encoding="utf-8") as fh:
        vocab_size = json.load(fh)["vocab_size"]
    checkpoint = rd.checkpoint()
    samples = os.path.join(rd.sample, "samples.csv")
    n = wl.n_structures
    ops.check("prepare.stats", checks.prepare_stats, rd.prepare, n)
    ops.check("prepare.round_trip", checks.prepare_round_trip, os.path.join(synth_dir, "structures"),
              rd.prepare)
    ops.check("train.losses_finite", checks.train_losses_finite, rd.train, wl.steps)
    ops.check("train.first_loss", checks.train_first_loss, rd.train, vocab_size)
    ops.check("train.loss_decreases", checks.train_loss_decreases, rd.train)
    ops.check("train.lr_schedule", checks.train_lr_schedule, rd.train, wl.steps, LR_START, LR_END)
    ops.check("train.checkpoint", checks.train_checkpoint, rd.train, rd.prepare, wl.steps)
    ops.check("sample.framing", checks.sample_framing, samples, vocab_size, wl.max_len,
              wl.n_samples)
    ops.check("sample.replay", checks.sample_replay, samples, checkpoint, seed, wl.replay)
    ops.check("evaluate.fixed_scores", checks.fixed_set_scores, rd.evaluate_fixed, n)
    ops.check("evaluate.emd_oracle", checks.emd_oracle, rd.evaluate_fixed, seed)
    ops.check("evaluate.properties", checks.property_values, rd.evaluate_fixed,
              os.path.join(rd.prepare, "structures"))
    ops.check("report.outputs", checks.report_outputs, rd.report, rd.evaluate_fixed, n)


def _same_outputs(expected, got):
    differ = sorted(name for name in expected if expected[name] != got[name])
    if differ:
        raise checks.CheckFailed(f"manifests differ from the first round's: {differ}")


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                fn = getattr(dll, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": f"{platform.machine()} {cpu_model()}".strip(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="benchmarks/run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_root = os.path.join(repo, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=out_root)
    try:
        return _measure(args, wl, repo, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl, repo, work) -> int:
    ops = Operations()
    synth_dir = os.path.join(work, "synth")
    setup_s = setup(ops, wl, args.seed, synth_dir, os.path.join(repo, "src"))

    rd = Round(os.path.join(work, "round"))
    plain, traced, layers, durations = [], [], [], []
    first = None
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(plain) > len(traced) else None
        began = time.perf_counter()
        try:
            if tracer is None:
                plain.append(run_round(ops, wl, args.seed, synth_dir, rd))
            else:
                with tracer.installed():
                    traced.append(run_round(ops, wl, args.seed, synth_dir, rd, tracer))
                layers.append(tracer.metrics())
        except CommandFailed as exc:
            print(f"round failed: {exc}", file=sys.stderr)
            break
        durations.append(time.perf_counter() - began)
        if first is None:
            first = rd.manifests()
        else:
            ops.check("round.deterministic", _same_outputs, first, rd.manifests())
        elapsed = time.perf_counter() - start
        if args.trace and not traced:
            continue
        if elapsed + statistics.median(durations) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if ops.failed == 0:
        run_checks(ops, wl, args.seed, synth_dir, rd)

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]} if layers else {}
        if plain and traced:
            warm = plain[1:] or plain  # the first round also pays for lazy set-up
            metrics["trace.overhead_ratio"] = (
                statistics.median(_pipeline_s(t) for t in traced)
                / statistics.median(_pipeline_s(t) for t in warm)
            )
        units = PER_LAYER_UNITS
    else:
        metrics = _end_to_end(wl, rd, plain, setup_s, peak_rss_mb) if plain else {}
        units = END_TO_END_UNITS
    info = environment()
    info.update(workload=wl.name, seed=args.seed, setup_s=setup_s,
                rounds=plain, traced_rounds=traced,
                failures=ops.failures)
    print(json.dumps(info))
    result = {
        "correct": ops.failed == 0 and len(metrics) == len(units),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


def _pipeline_s(t):
    """The user's pipeline: each command once, but not the fixed-set evaluate."""
    return statistics.median(t["prepare"]) + t["train"] + t["sample"] + t["evaluate"] + t["report"]


def _end_to_end(wl, rd, rounds, setup_s, peak_rss_mb):
    target_tokens = wl.epochs * sum(len(ids) - 1 for ids in checks.read_corpus(rd.prepare))
    sample_tokens = sum(len(ids) for _, ids in checks.read_samples(os.path.join(rd.sample, "samples.csv")))
    n = wl.n_structures

    def median(values):
        return statistics.median(list(values))

    return {
        "setup_s": setup_s,
        "prepare_structs_per_s": median(n / s for t in rounds for s in t["prepare"]),
        "train_tokens_per_s": median(target_tokens / t["train"] for t in rounds),
        "sample_tokens_per_s": median(sample_tokens / t["sample"] for t in rounds),
        "evaluate_structs_per_s": median(n / s for t in rounds for s in t["evaluate_fixed"]),
        "pipeline_s": median(_pipeline_s(t) for t in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
