"""Run-manifest records: file hashing, tree hashing, and the rule that
timing never leaks into content hashes."""

import hashlib
import json
import os

import pytest

from chemlm.manifest import (
    MANIFEST_NAME,
    TIMING_NAME,
    file_sha256,
    hash_outputs,
    read_manifest,
    tree_hash,
    write_manifest,
    write_timing,
)


def put(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class TestFileHash:
    def test_known_digest(self, tmp_path):
        path = put(tmp_path, "a.txt", "hello\n")
        expected = hashlib.sha256(b"hello\n").hexdigest()
        assert file_sha256(path) == expected

    def test_differs_on_content(self, tmp_path):
        a = put(tmp_path, "a.txt", "one")
        b = put(tmp_path, "b.txt", "two")
        assert file_sha256(a) != file_sha256(b)

    def test_large_file_matches_stdlib(self, tmp_path):
        # Exercise the chunked read path with a file bigger than one block.
        blob = b"x" * 200_000
        path = os.path.join(tmp_path, "big.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        assert file_sha256(path) == hashlib.sha256(blob).hexdigest()


class TestTreeHash:
    def test_deterministic(self, tmp_path):
        put(tmp_path, "a.txt", "alpha")
        put(tmp_path, "sub/b.txt", "beta")
        assert tree_hash(tmp_path) == tree_hash(tmp_path)

    def test_content_sensitivity(self, tmp_path):
        put(tmp_path, "a.txt", "alpha")
        before = tree_hash(tmp_path)
        put(tmp_path, "a.txt", "ALPHA")
        assert tree_hash(tmp_path) != before

    def test_path_sensitivity(self, tmp_path):
        one = os.path.join(tmp_path, "one")
        two = os.path.join(tmp_path, "two")
        put(one, "a.txt", "same")
        put(two, "b.txt", "same")
        assert tree_hash(one) != tree_hash(two)

    def test_manifest_and_timing_excluded(self, tmp_path):
        put(tmp_path, "data.csv", "1,2,3\n")
        before = tree_hash(tmp_path)
        write_manifest(tmp_path, {"seed": 7})
        write_timing(tmp_path, {"train": 12.5})
        assert tree_hash(tmp_path) == before

    def test_sidecars_excluded_in_subdirs_too(self, tmp_path):
        # Exclusion is by file name, so nested run directories are
        # also timing-insensitive.
        put(tmp_path, "runs/a/data.txt", "payload")
        before = tree_hash(tmp_path)
        put(tmp_path, os.path.join("runs", "a", MANIFEST_NAME), "{}")
        put(tmp_path, os.path.join("runs", "a", TIMING_NAME), "train\t1.0\n")
        assert tree_hash(tmp_path) == before

    def test_empty_directory(self, tmp_path):
        empty = os.path.join(tmp_path, "void")
        os.makedirs(empty)
        # Hash of no entries: stable and equal across empty trees.
        other = os.path.join(tmp_path, "void2")
        os.makedirs(other)
        assert tree_hash(empty) == tree_hash(other)


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        data = {"seed": 3, "cmd": "train", "hashes": {"x": "00ff"}}
        write_manifest(tmp_path, data)
        assert read_manifest(tmp_path) == data

    def test_byte_identical_rewrites(self, tmp_path):
        data = {"b": 2, "a": 1}
        path = write_manifest(tmp_path, data)
        with open(path, "rb") as fh:
            first = fh.read()
        write_manifest(tmp_path, {"a": 1, "b": 2})
        with open(path, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = write_manifest(tmp_path, {"zeta": 1, "alpha": 2})
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")
        assert json.loads(text) == {"zeta": 1, "alpha": 2}

    def test_filename(self, tmp_path):
        path = write_manifest(tmp_path, {})
        assert os.path.basename(path) == MANIFEST_NAME


class TestTiming:
    def test_format(self, tmp_path):
        path = write_timing(tmp_path, {"prepare": 1.0, "train": 2.3456})
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines == ["prepare\t1.000", "train\t2.346"]

    def test_filename(self, tmp_path):
        path = write_timing(tmp_path, {})
        assert os.path.basename(path) == TIMING_NAME


class TestHashOutputs:
    def test_excludes_sidecars(self, tmp_path):
        put(tmp_path, "tokens.txt", "1 2 3\n")
        put(tmp_path, "sub/model.bin", "weights")
        write_manifest(tmp_path, {"seed": 1})
        write_timing(tmp_path, {"train": 0.5})
        out = hash_outputs(tmp_path)
        assert set(out) == {"tokens.txt", "sub/model.bin"}

    def test_hashes_match_file_hash(self, tmp_path):
        path = put(tmp_path, "a.txt", "alpha")
        out = hash_outputs(tmp_path)
        assert out["a.txt"] == file_sha256(path)

    def test_relative_paths_use_forward_slashes(self, tmp_path):
        put(tmp_path, "deep/nest/f.txt", "x")
        out = hash_outputs(tmp_path)
        assert "deep/nest/f.txt" in out

    def test_tree_hash_covers_exactly_the_outputs(self, tmp_path):
        put(tmp_path, "a.txt", "alpha")
        put(tmp_path, "runs/b.txt", "beta")
        put(tmp_path, os.path.join("runs", MANIFEST_NAME), "{}")
        h = hashlib.sha256()
        for rel, digest in hash_outputs(tmp_path).items():
            h.update(f"{rel}\0{digest}\n".encode("utf-8"))
        assert set(hash_outputs(tmp_path)) == {"a.txt", "runs/b.txt"}
        assert tree_hash(tmp_path) == h.hexdigest()
