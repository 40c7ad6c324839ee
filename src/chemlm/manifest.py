"""Run manifests: deterministic JSON records of what a command did.

Manifests contain config, seeds, and content hashes but never wall
times; timing goes into a `timing.txt` sidecar so that two runs with
the same seeds produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import os

MANIFEST_NAME = "manifest.json"
TIMING_NAME = "timing.txt"


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def tree_hash(root) -> str:
    """Content hash of a directory: sha256 over the (relpath, file hash)
    pairs of `hash_outputs`, so it depends only on run content, never on
    when or where the run happened."""
    h = hashlib.sha256()
    for rel, digest in hash_outputs(root).items():
        h.update(f"{rel}\0{digest}\n".encode("utf-8"))
    return h.hexdigest()


def write_manifest(out_dir, data: dict) -> str:
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(out_dir) -> dict:
    with open(os.path.join(out_dir, MANIFEST_NAME), encoding="utf-8") as fh:
        return json.load(fh)


def write_timing(out_dir, phases: dict) -> str:
    """Wall-clock seconds per phase, kept out of the manifest."""
    path = os.path.join(out_dir, TIMING_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        for name, seconds in phases.items():
            fh.write(f"{name}\t{seconds:.3f}\n")
    return path


def hash_outputs(out_dir) -> dict:
    """Relative path -> sha256 for every file under out_dir, in walk
    order, skipping manifests and timing sidecars at any depth."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn in (MANIFEST_NAME, TIMING_NAME):
                continue
            full = os.path.join(dirpath, fn)
            out[os.path.relpath(full, out_dir).replace(os.sep, "/")] = file_sha256(full)
    return out
