import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chemlm
from chemlm import training
from chemlm.augment import (
    augment_structure,
    random_rotation,
    rotate_about_center,
    shift_origin,
)
from chemlm.formats import FileDocument, parse_document, write_structure
from chemlm.geometry import centroid, pair_distances
from chemlm.rounding import round_coords
from chemlm.structures import Crystal, Lattice, Molecule, Pocket
from chemlm.synth import synth_corpus
from chemlm.tokenize import ATOM_COORD, CHAR, Scheme, TokenSequence, build_vocab, decode, encode
from chemlm.training import TrainConfig, augmented_ids

from conftest import random_molecule, random_structure


def rotation_angle(R):
    """Rotation angle of R in [0, pi]."""
    c = (np.trace(R) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def sorted_distance_multiset(points):
    return np.sort(pair_distances(points))


class TestRandomRotation:
    def test_orthogonal_determinant_one(self, rng):
        for _ in range(50):
            r = random_rotation(rng)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_angle_range(self, rng):
        for _ in range(50):
            theta = rotation_angle(random_rotation(rng))
            assert 0.0 <= theta <= np.pi

    def test_identity_angle(self):
        assert rotation_angle(np.eye(3)) == pytest.approx(0.0)

    def test_half_turn_angle(self):
        r = np.diag([1.0, -1.0, -1.0])
        assert rotation_angle(r) == pytest.approx(np.pi)


class TestRotateAboutCenter:
    def test_identity_is_fixed_point(self, rng):
        m = random_molecule(rng)
        out = rotate_about_center(m, np.eye(3))
        for a, b in zip(m.coords.tolist(), out.coords.tolist()):
            assert a == pytest.approx(b, abs=1e-12)

    def test_quarter_turn_about_z(self):
        m = Molecule(["C", "C"], [(1, 0, 0), (-1, 0, 0)])
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = rotate_about_center(m, r)
        got = sorted((round(x, 9), round(y, 9), round(z, 9)) for x, y, z in out.coords.tolist())
        assert got == [(-0.0, -1.0, 0.0), (0.0, 1.0, 0.0)] or got == [
            (0.0, -1.0, 0.0),
            (0.0, 1.0, 0.0),
        ]

    def test_distance_multiset_preserved(self, rng):
        for _ in range(100):
            m = random_molecule(rng)
            if len(m) < 2:
                continue
            out = rotate_about_center(m, random_rotation(rng))
            np.testing.assert_allclose(
                sorted_distance_multiset(out.coords),
                sorted_distance_multiset(m.coords),
                atol=1e-9,
            )

    def test_centroid_fixed(self, rng):
        for _ in range(20):
            m = random_molecule(rng)
            out = rotate_about_center(m, random_rotation(rng))
            np.testing.assert_allclose(
                centroid(out.coords), centroid(m.coords), atol=1e-9
            )

    def test_composition_of_rotations(self, rng):
        m = random_molecule(rng)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        once = rotate_about_center(rotate_about_center(m, r1), r2)
        both = rotate_about_center(m, r2 @ r1)
        np.testing.assert_allclose(
            once.coords, both.coords, atol=1e-9
        )

    def test_elements_preserved(self, rng):
        m = random_molecule(rng)
        out = rotate_about_center(m, random_rotation(rng))
        assert out.symbols == m.symbols

    def test_pocket_rotation_keeps_residues(self, rng):
        p = random_structure(rng, "pocket")
        out = rotate_about_center(p, random_rotation(rng))
        assert out.labels == p.labels
        assert out.residue_index.tolist() == p.residue_index.tolist()

    def test_crystal_rejected(self, rng):
        c = random_structure(rng, "crystal")
        with pytest.raises(ValueError, match="crystals"):
            rotate_about_center(c, random_rotation(rng))


class TestShiftOrigin:
    def test_shift_wraps_mod_one(self):
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), ["Na", "Cl"], [(0.8, 0.5, 0.1), (0.3, 0.0, 0.9)])
        out = shift_origin(c, (0.5, 0.5, 0.5))
        assert out.coords[0].tolist() == pytest.approx([0.3, 0.0, 0.6])
        assert out.coords[1].tolist() == pytest.approx([0.8, 0.5, 0.4])

    def test_lattice_unchanged(self, rng):
        c = random_structure(rng, "crystal")
        out = shift_origin(c, tuple(rng.random(3)))
        assert out.lattice == c.lattice

    def test_min_image_distances_preserved(self, rng):
        from chemlm.geometry import min_image_distance

        c = random_structure(rng, "crystal")
        while len(c) < 2:
            c = random_structure(rng, "crystal")
        out = shift_origin(c, tuple(rng.random(3)))
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                before = min_image_distance(c.lattice, c.coords[i], c.coords[j])
                after = min_image_distance(out.lattice, out.coords[i], out.coords[j])
                assert after == pytest.approx(before, abs=1e-9)


# a dense vocabulary built with this molecule covers every rotation of a
# 1.2 A bond at precision 1
WIDE = Molecule(["C", "O"], [(-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)])


def augment_config(attempts=8, crystal_shift=False):
    return TrainConfig(batch_size=1, lr_start=1e-3, total_steps=1, seed=0, augment=True,
                       augment_attempts=attempts, crystal_shift=crystal_shift)


def draw_ids(structure, vocab, rng, attempts=8, crystal_shift=False, max_seq_len=10**6):
    """`train`'s ids for one augmented item whose corpus ids encode `structure`."""
    return augmented_ids(structure, encode(structure, vocab).ids, vocab, max_seq_len,
                         augment_config(attempts, crystal_shift), rng)


class TestAugmentStructure:
    """`augment_structure` only moves atoms; `training.augmented_ids` keeps
    a move whose ids fit the vocabulary and the model context."""

    def test_molecule_rotated_within_vocab(self, rng):
        m = Molecule(["C", "O"], [(0.0, 0.0, 0.0), (1.2, 0.0, 0.0)])
        vocab = build_vocab([m, WIDE], Scheme("atom_coord", 1), dense_coordinate_range=True)
        outs = [draw_ids(m, vocab, rng) for _ in range(20)]
        assert any(ids != encode(m, vocab).ids for ids in outs)
        for ids in outs:
            assert decode(TokenSequence(ids), vocab).symbols == m.symbols

    def test_falls_back_to_original_when_vocab_too_tight(self, rng):
        m = Molecule(["C", "O"], [(0.0, 0.0, 0.0), (1.2, 0.0, 0.0)])
        # observed tokens only: almost every rotation leaves the table
        vocab = build_vocab([m], Scheme("atom_coord", 3))
        outs = [draw_ids(m, vocab, rng, attempts=2) for _ in range(10)]
        assert encode(m, vocab).ids in outs
        for ids in outs:
            decode(TokenSequence(ids), vocab)

    def test_char_scheme_molecules_always_encode(self, rng):
        m = random_molecule(rng)
        vocab = build_vocab([m], Scheme("char", 2))
        # may fall back, but whatever comes out must decode
        ids = draw_ids(m, vocab, rng, attempts=4)
        assert decode(TokenSequence(ids), vocab).symbols == m.symbols

    def test_crystals_unchanged_without_flag(self, rng):
        c = random_structure(rng, "crystal")
        state = rng.bit_generator.state
        assert augment_structure(c, rng) == c
        assert rng.bit_generator.state == state

    def test_crystal_shift_flag(self, rng):
        c = Crystal(
            Lattice(4, 4, 4, 90, 90, 90),
            ["Na", "Cl"],
            [(0.25, 0.25, 0.25), (0.75, 0.75, 0.75)],
        )
        outs = [augment_structure(c, rng, crystal_shift=True) for _ in range(10)]
        assert any(o != c for o in outs)
        for o in outs:
            assert o.lattice == c.lattice

    def test_deterministic_for_fixed_rng(self):
        m = Molecule(["C", "O"], [(0.0, 0.0, 0.0), (1.2, 0.0, 0.0)])
        a = augment_structure(m, np.random.default_rng(4))
        b = augment_structure(m, np.random.default_rng(4))
        assert a == b

    def test_each_candidate_encoded_once(self, rng, monkeypatch):
        calls = {"encode": 0, "augment": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(training, "encode", counting("encode", training.encode))
        monkeypatch.setattr(training, "augment_structure",
                            counting("augment", training.augment_structure))
        m = Molecule(["C", "O"], [(0.0, 0.0, 0.0), (1.2, 0.0, 0.0)])
        tight = build_vocab([m], Scheme("atom_coord", 3))
        wide = build_vocab([m, WIDE], Scheme("atom_coord", 1), dense_coordinate_range=True)
        corpus_ids = encode(m, wide).ids
        # outside the vocabulary, one id past the context, then accepted
        # in the tightest context `train` allows for the corpus ids
        context = len(corpus_ids) - 1
        for vocab, max_seq_len, draws in ((tight, 10**6, 3), (wide, context - 1, 6),
                                          (wide, context, 7)):
            augmented_ids(m, corpus_ids, vocab, max_seq_len, augment_config(3), rng)
            assert calls == {"encode": draws, "augment": draws}

    def test_too_tight_vocab_returns_corpus_ids_after_every_attempt(self):
        m = Molecule(["C", "O"], [(0.0, 0.0, 0.0), (1.2, 0.0, 0.0)])
        vocab = build_vocab([m], Scheme("atom_coord", 3))
        corpus_ids = encode(m, vocab).ids
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        attempts = 5
        assert augmented_ids(m, corpus_ids, vocab, 10**6, augment_config(attempts), rng) is corpus_ids
        for _ in range(attempts):
            random_rotation(twin)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_augment_imports_no_tokenizer(self):
        code = "import sys, chemlm.augment; print('chemlm.tokenize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(chemlm.__file__)), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"


class TestAugmentDecodedSequence:
    """Training augments the structure decoded from a bundle's token ids,
    not the bundle's file: under twin generators both give the same ids."""

    def ids_of_both_forms(self, structures, vocab):
        """Per structure: whether its decoded form equals the parsed file, and
        the ids `train` keeps for three augmentations of each form."""
        out = []
        for s in structures:
            text = write_structure(s, vocab.scheme.precision)
            parsed = parse_document(FileDocument(s.kind, text))
            decoded = decode(encode(parsed, vocab), vocab)
            ids = [
                [
                    draw_ids(form, vocab, np.random.default_rng(seed), crystal_shift=True)
                    for seed in range(3)
                ]
                for form in (parsed, decoded)
            ]
            out.append((decoded == parsed, ids[0], ids[1]))
        return out

    @pytest.mark.parametrize("scheme", [ATOM_COORD, CHAR])
    @pytest.mark.parametrize("kind", ["molecule", "perovskite", "pocket"])
    def test_file_and_decoded_sequence_augment_alike(self, kind, scheme):
        precision = 1 if kind == "pocket" else 2
        corpus = [round_coords(s, precision) for s in synth_corpus(kind, 3, seed=5)]
        # a shifted copy widens a crystal vocabulary to the whole unit cell
        wide = [shift_origin(c, (0.49, 0.49, 0.49)) for c in corpus if isinstance(c, Crystal)]
        vocab = build_vocab(corpus + wide, Scheme(scheme, precision),
                            dense_coordinate_range=scheme == ATOM_COORD)
        moved = 0
        for s, (same, from_file, from_ids) in zip(corpus, self.ids_of_both_forms(corpus, vocab)):
            assert same
            assert from_ids == from_file
            moved += sum(ids != encode(s, vocab).ids for ids in from_file)
        assert moved  # the augmentations really changed coordinates

    def test_incomplete_residue_pocket(self, rng):
        # GLY 1 lacks a C and the O, so decoding, which cuts residues by
        # the composition table, moves GLY 2's first C into residue 1
        layout = [("GLY", "N", 1), ("GLY", "C", 1), ("GLY", "C", 2), ("GLY", "C", 2),
                  ("GLY", "N", 2), ("GLY", "O", 2), ("ALA", "N", 3), ("ALA", "C", 3),
                  ("ALA", "C", 3), ("ALA", "C", 3), ("ALA", "O", 3)]
        points = np.round(rng.uniform(-4.0, 4.0, size=(len(layout), 3)), 1)
        codes, elements, indices = zip(*layout)
        pocket = Pocket(elements, codes, indices, points)
        vocab = build_vocab([pocket], Scheme(ATOM_COORD, 1), dense_coordinate_range=True)
        ((same, from_file, from_ids),) = self.ids_of_both_forms([pocket], vocab)
        assert not same
        assert from_ids == from_file
        assert any(ids != encode(pocket, vocab).ids for ids in from_file)
