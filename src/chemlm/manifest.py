"""Run manifests: deterministic JSON records of what a command did, and
the one writer every file a command writes goes through.

Manifests contain config, seeds, and content hashes but never wall
times; timing goes into a `timing.txt` sidecar so that two runs with
the same seeds produce byte-identical manifests.

`output_file` overwrites a file in place: it opens without truncating
and cuts older bytes past its final position when it closes. On ext4,
the truncate-to-zero of `open(path, "w")` frees the file's blocks, and
new ones are allocated when it closes: rewriting a CIF-sized file that
way took 50-70 µs on a 2-vCPU VM, against 13-17 µs in place.
`replace_file` writes a temp file and renames it over the target, so a
crash never leaves a half-written manifest or checkpoint, nor a
half-rewritten file that a later command reads whole and line by line
(`corpus.txt`, `vocab.txt`, `samples.csv`, `losses.csv`); at 70-190 µs a
file it is kept to those single files, never the per-structure ones.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
from contextlib import contextmanager, suppress
from contextvars import ContextVar

MANIFEST_NAME = "manifest.json"
TIMING_NAME = "timing.txt"
#: The name prefix of `replace_file`'s temp files, which no hash covers.
TEMP_PREFIX = ".partial-"

# the normalized paths written inside the innermost `recording_writes`
_written: ContextVar = ContextVar("written", default=None)


@contextmanager
def recording_writes():
    """Yield a set that collects the normalized path of every file that
    `output_file` or `replace_file` writes inside the block (temp files
    included)."""
    written = set()
    token = _written.set(written)
    try:
        yield written
    finally:
        _written.reset(token)


def _record(path) -> None:
    written = _written.get()
    if written is not None:
        written.add(os.path.normpath(path))


@contextmanager
def output_file(path, binary=False, newline=None):
    """A file object writing `path` in place, as `open(path, "w")` (UTF-8
    text) or `open(path, "wb")` would, leaving the same bytes. On close,
    also when the block raises, older bytes past the final position are
    cut, so the file then holds a prefix of the new bytes only."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    _record(path)
    old_size = os.fstat(fd).st_size
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    with open(fd, mode, encoding=encoding, newline=newline) as fh:
        try:
            yield fh
            fh.flush()
        finally:
            # on an exception, what reached the file so far: the buffered
            # rest, flushed on close, extends the same prefix. A file no
            # longer than that is left uncut: on ext4 even a same-size
            # ftruncate costs about half as much again as the write
            end = os.lseek(fd, 0, os.SEEK_CUR)
            if old_size > end:
                os.ftruncate(fd, end)


@contextmanager
def replace_file(path, binary=False, newline=None):
    """Like `output_file`, but the bytes go to a temp file beside `path`
    that replaces it only once the block succeeds; otherwise the temp file
    is removed and `path` keeps its earlier bytes."""
    tmp = os.path.join(os.path.dirname(path), TEMP_PREFIX + os.path.basename(path))
    try:
        with output_file(tmp, binary, newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    _record(path)


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
    with replace_file(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(out_dir) -> dict:
    with open(os.path.join(out_dir, MANIFEST_NAME), encoding="utf-8") as fh:
        return json.load(fh)


def write_timing(out_dir, phases: dict) -> str:
    """Wall-clock seconds per phase, kept out of the manifest."""
    path = os.path.join(out_dir, TIMING_NAME)
    with output_file(path) as fh:
        for name, seconds in phases.items():
            fh.write(f"{name}\t{seconds:.3f}\n")
    return path


def hash_outputs(out_dir) -> dict:
    """Relative path -> sha256 for every file under out_dir, in walk
    order, skipping manifests, timing sidecars and `replace_file` temp
    files at any depth."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn in (MANIFEST_NAME, TIMING_NAME) or fn.startswith(TEMP_PREFIX):
                continue
            full = os.path.join(dirpath, fn)
            out[os.path.relpath(full, out_dir).replace(os.sep, "/")] = file_sha256(full)
    return out


def owned_outputs(out_dir, command, names) -> set:
    """The relative paths that the manifest in out_dir lists as outputs,
    when an earlier run of `command` wrote it, and that match one of the
    fnmatch patterns `names` (what `command` writes); else none. A path
    leading out of out_dir is left out."""
    try:
        previous = read_manifest(out_dir)
    except (OSError, ValueError):
        return set()
    if not isinstance(previous, dict) or previous.get("command") != command:
        return set()
    outputs = previous.get("outputs")
    if not isinstance(outputs, dict):
        return set()
    return {rel for rel in outputs
            if not (os.path.isabs(rel) or ".." in rel.split("/"))
            and any(fnmatch.fnmatchcase(rel, pattern) for pattern in names)}


def remove_stale(out_dir, owned, written, keep=()) -> dict:
    """Remove each file of `owned` (relative paths under out_dir) that is
    not in `written` (normalized paths) and is none of the paths `keep`
    (a run's inputs) nor inside one of them. Returns relative path ->
    error for each file that could not be removed."""
    keep = [os.path.realpath(k) for k in keep]
    failed = {}
    for rel in sorted(owned):
        path = os.path.normpath(os.path.join(out_dir, rel))
        if path in written:
            continue
        real = os.path.realpath(path)
        if any(os.path.commonpath([real, k]) == k for k in keep):
            continue
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            failed[rel] = exc
    return failed
