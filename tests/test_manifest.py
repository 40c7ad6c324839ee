"""Run-manifest records: file hashing, tree hashing, the rule that
timing never leaks into content hashes, and the one output writer."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from chemlm.manifest import (
    MANIFEST_NAME,
    TEMP_PREFIX,
    TIMING_NAME,
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
from chemlm.model import ModelConfig, init_params, load_checkpoint, save_checkpoint


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

    def test_temp_files_excluded(self, tmp_path):
        put(tmp_path, "a.txt", "alpha")
        put(tmp_path, TEMP_PREFIX + MANIFEST_NAME, "{")
        put(tmp_path, os.path.join("sub", TEMP_PREFIX + "checkpoint_0000001.bin"), "half")
        assert set(hash_outputs(tmp_path)) == {"a.txt"}


# What `open(path, "w")` would leave, before and after: the writer must
# leave the same bytes whatever the file held before.
PRIOR = {
    "no file": None,
    "longer": "x" * 500 + "\n",
    "shorter": "ab\n",
    "identical": "line one\nline two\n",
}
NEW = "line one\nline two\n"


class TestOutputFile:
    @pytest.mark.parametrize("prior", sorted(PRIOR))
    def test_text_bytes_equal_open_w(self, tmp_path, prior):
        paths = {}
        for name in ("reference", "writer"):
            paths[name] = os.path.join(tmp_path, name)
            if PRIOR[prior] is not None:
                put(tmp_path, name, PRIOR[prior])
        with open(paths["reference"], "w", encoding="utf-8") as fh:
            fh.write(NEW)
        with output_file(paths["writer"]) as fh:
            fh.write(NEW)
        with open(paths["writer"], "rb") as a, open(paths["reference"], "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("prior", sorted(PRIOR))
    def test_csv_bytes_equal_open_w(self, tmp_path, prior):
        # csv writes \r\n line ends; newline="" keeps them as they are
        rows = [["file", "error"], ["a.xyz", "bad, \"quoted\" line"], ["b.xyz", "x\ny"]]
        blobs = []
        for name, opener in (("reference", lambda p: open(p, "w", encoding="utf-8", newline="")),
                             ("writer", lambda p: output_file(p, newline=""))):
            path = os.path.join(tmp_path, name)
            if PRIOR[prior] is not None:
                put(tmp_path, name, PRIOR[prior])
            with opener(path) as fh:
                csv.writer(fh).writerows(rows)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
        assert b"\r\n" in blobs[1]

    @pytest.mark.parametrize("prior", [b"", b"\x00" * 70_000, b"0123456789"])
    def test_binary_bytes(self, tmp_path, prior):
        path = os.path.join(tmp_path, "blob.bin")
        with open(path, "wb") as fh:
            fh.write(prior)
        new = bytes(range(256)) * 40
        with output_file(path, binary=True) as fh:
            fh.write(new[:1000])
            fh.write(new[1000:])
        with open(path, "rb") as fh:
            assert fh.read() == new

    def test_non_ascii_text_is_utf8(self, tmp_path):
        path = os.path.join(tmp_path, "table.txt")
        with output_file(path) as fh:
            fh.write("kind  —\n")
        with open(path, "rb") as fh:
            assert fh.read() == "kind  —\n".encode("utf-8")

    def test_missing_parent_directory_names_the_path(self, tmp_path):
        path = os.path.join(tmp_path, "missing", "a.txt")
        with pytest.raises(FileNotFoundError) as info:
            with output_file(path):
                pass
        assert info.value.filename == path
        assert path in str(info.value)

    def test_exception_leaves_a_prefix_of_the_new_bytes(self, tmp_path):
        path = put(tmp_path, "a.txt", "OLD" * 50_000)
        new = "".join(f"{i:06d}\n" for i in range(20_000))  # beyond one buffer
        with pytest.raises(RuntimeError):
            with output_file(path) as fh:
                fh.write(new[:70_000])
                raise RuntimeError("halfway")
        with open(path, encoding="utf-8") as fh:
            left = fh.read()
        assert left and new.startswith(left)
        assert "OLD" not in left

    def test_records_what_it_wrote(self, tmp_path):
        with recording_writes() as written:
            os.makedirs(os.path.join(tmp_path, "sub"))
            with output_file(os.path.join(tmp_path, "sub", os.pardir, "a.txt")):
                pass
            with replace_file(os.path.join(tmp_path, "b.txt")):
                pass
        assert written == {os.path.join(tmp_path, name)
                           for name in ("a.txt", TEMP_PREFIX + "b.txt", "b.txt")}
        with output_file(os.path.join(tmp_path, "c.txt")):
            pass
        assert len(written) == 3


class TestAtomicRecords:
    def test_failed_manifest_write_keeps_the_earlier_one(self, tmp_path):
        path = write_manifest(tmp_path, {"outputs": {"a": "0" * 64}, "seed": 1})
        with open(path, "rb") as fh:
            before = fh.read()
        # json.dump writes the outputs, then fails on the last key's value
        data = {"outputs": {f"f{i:05d}": "1" * 64 for i in range(2000)}, "zz": object()}
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_manifest(tmp_path, data)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == [MANIFEST_NAME]

    def test_failed_checkpoint_write_keeps_the_earlier_one(self, tmp_path):
        cfg = ModelConfig(n_layers=1, d_model=32, n_heads=2, d_ff=64, max_seq_len=8,
                          vocab_size=64)
        path = os.path.join(tmp_path, "checkpoint_0000001.bin")
        save_checkpoint(path, init_params(cfg, seed=0), cfg, "ab" * 32, {"s": 1}, 1)
        with open(path, "rb") as fh:
            before = fh.read()
        # the header and every real tensor are written, then the last
        # tensor, in name order, fails to convert
        params = {**init_params(cfg, seed=1), "zz": np.array(["not a number"], dtype=object)}
        with pytest.raises(ValueError, match="could not convert"):
            save_checkpoint(path, params, cfg, "cd" * 32, {"s": 2}, 2)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert load_checkpoint(path).step == 1
        assert os.listdir(tmp_path) == ["checkpoint_0000001.bin"]

    def test_a_leftover_temp_file_is_overwritten(self, tmp_path):
        put(tmp_path, TEMP_PREFIX + MANIFEST_NAME, "x" * 10_000)
        path = write_manifest(tmp_path, {"seed": 2})
        assert read_manifest(tmp_path) == {"seed": 2}
        assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestStaleOutputs:
    def test_owned_are_the_commands_names_in_its_own_manifest(self, tmp_path):
        outputs = {rel: "0" * 64 for rel in
                   ("report.json", "samples.csv", "structures/a.xyz", "../x.json", "/etc/x")}
        write_manifest(tmp_path, {"command": "evaluate", "outputs": outputs})
        names = ("structures/*", "report.json", "*.json")
        assert owned_outputs(tmp_path, "evaluate", names) == {"report.json", "structures/a.xyz"}
        assert owned_outputs(tmp_path, "prepare", names) == set()

    def test_unreadable_manifest_owns_nothing(self, tmp_path):
        assert owned_outputs(tmp_path, "synth", ("*",)) == set()
        put(tmp_path, MANIFEST_NAME, "{not json")
        assert owned_outputs(tmp_path, "synth", ("*",)) == set()

    def test_removes_only_what_was_not_written_nor_read(self, tmp_path):
        for rel in ("a.txt", "b.txt", "c.txt", "in/d.txt"):
            put(tmp_path, rel, rel)
        written = {os.path.normpath(os.path.join(tmp_path, "a.txt"))}
        keep = [os.path.join(tmp_path, "b.txt"), os.path.join(tmp_path, "in")]
        owned = {"a.txt", "b.txt", "c.txt", "in/d.txt", "gone.txt"}
        assert remove_stale(tmp_path, owned, written, keep) == {}
        assert sorted(hash_outputs(tmp_path)) == ["a.txt", "b.txt", "in/d.txt"]

    def test_a_file_that_cannot_be_removed_is_reported(self, tmp_path):
        put(tmp_path, "a.txt", "a")
        os.mkdir(os.path.join(tmp_path, "d.txt"))
        failed = remove_stale(tmp_path, {"a.txt", "d.txt"}, set())
        assert list(failed) == ["d.txt"] and isinstance(failed["d.txt"], OSError)
        assert os.listdir(tmp_path) == ["d.txt"]
