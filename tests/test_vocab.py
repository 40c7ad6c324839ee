import pytest

from chemlm.errors import ArtifactError, EncodeError
from chemlm.tokenize import (
    BOS_TOKEN,
    EOS_TOKEN,
    PAD_TOKEN,
    Scheme,
    Vocabulary,
    build_vocab,
    make_vocabulary,
)

S_CHAR = Scheme("char", 2)
S_AC = Scheme("atom_coord", 2)


class TestVocabulary:
    def test_special_ids_fixed(self):
        v = make_vocabulary(["C", "H", "0.00"], S_AC, "molecule")
        assert v.bos_id == 0
        assert v.eos_id == 1
        assert v.pad_id == 2
        assert v.tokens[:3] == (BOS_TOKEN, EOS_TOKEN, PAD_TOKEN)

    def test_ids_are_dense_and_sorted(self):
        v = make_vocabulary(["b", "a", "c"], S_CHAR, "molecule")
        assert v.tokens[3:] == ("a", "b", "c")
        assert [v.id_of(t) for t in v.tokens] == list(range(len(v)))

    def test_lookup_both_ways(self):
        v = make_vocabulary(["C", "H"], S_AC, "molecule")
        for i, tok in enumerate(v.tokens):
            assert v.id_of(tok) == i
            assert v.token_of(i) == tok

    def test_unknown_token(self):
        v = make_vocabulary(["C"], S_AC, "molecule")
        with pytest.raises(EncodeError):
            v.id_of("Pu")

    def test_id_out_of_range(self):
        v = make_vocabulary(["C"], S_AC, "molecule")
        with pytest.raises(IndexError):
            v.token_of(len(v))
        with pytest.raises(IndexError):
            v.token_of(-1)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary((BOS_TOKEN, EOS_TOKEN, PAD_TOKEN, "C", "C"), S_AC, "molecule")

    def test_special_reused_as_content_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary((BOS_TOKEN, EOS_TOKEN, PAD_TOKEN, PAD_TOKEN), S_AC, "molecule")

    def test_missing_specials_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("C", "H", "O"), S_AC, "molecule")

    def test_unknown_structure_kind_rejected(self):
        with pytest.raises(ValueError):
            make_vocabulary(["C"], S_AC, "ligand")

    def test_contains(self):
        v = make_vocabulary(["C", " "], S_CHAR, "molecule")
        assert "C" in v
        assert " " in v
        assert "N" not in v


class TestPersistence:
    def test_round_trip(self, tmp_path):
        v = make_vocabulary(["C", "Cl", "0.00", "-1.98"], S_AC, "molecule")
        path = tmp_path / "vocab.txt"
        v.save(path)
        back = Vocabulary.load(path)
        assert back.tokens == v.tokens
        assert back.scheme == v.scheme
        assert back.structure_kind == v.structure_kind

    def test_space_token_survives(self, tmp_path):
        # the char scheme spells the spaces of a CIF file as a space token
        v = make_vocabulary([" ", "1", "."], Scheme("char", 2), "crystal")
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert " " in Vocabulary.load(path).tokens
        assert "<SP>" in path.read_text()

    def test_content_hash_identifies_table(self):
        a = make_vocabulary(["C", "H"], S_AC, "molecule")
        b = make_vocabulary(["C", "H"], S_AC, "molecule")
        c = make_vocabulary(["C", "N"], S_AC, "molecule")
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_hash_covers_scheme(self):
        a = make_vocabulary(["C"], Scheme("atom_coord", 2), "molecule")
        b = make_vocabulary(["C"], Scheme("atom_coord", 3), "molecule")
        assert a.content_hash() != b.content_hash()

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("not a vocabulary\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)

    def test_spelled_lattice_mode_rejected(self):
        v = make_vocabulary(["C", "H"], S_AC, "crystal")
        text = v.dumps()
        assert "lattice_param_mode whole_token\n" in text
        with pytest.raises(ArtifactError, match="lattice_param_mode"):
            Vocabulary.loads(text.replace("lattice_param_mode whole_token", "lattice_param_mode char"))

    def test_truncated_file_rejected(self, tmp_path):
        v = make_vocabulary(["C", "H", "O"], S_AC, "molecule")
        path = tmp_path / "vocab.txt"
        path.write_text("".join(v.dumps().splitlines(keepends=True)[:-1]))
        with pytest.raises(ValueError):
            Vocabulary.load(path)


class TestBuildVocab:
    def test_over_corpus(self, rng):
        from conftest import random_molecule

        corpus = [random_molecule(rng) for _ in range(20)]
        v = build_vocab(corpus, S_AC)
        assert v.structure_kind == "molecule"
        for m in corpus:
            from chemlm.tokenize import content_tokens
            from chemlm.rounding import round_coords

            for t in content_tokens(round_coords(m, 2), S_AC):
                assert t in v

    def test_mixed_kinds_rejected(self, rng):
        from conftest import random_crystal, random_molecule

        with pytest.raises(ValueError, match="mixes"):
            build_vocab([random_molecule(rng), random_crystal(rng)], S_AC)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], S_AC)

    def test_dense_range_fills_gaps(self):
        from chemlm.structures import Atom, Molecule

        corpus = [Molecule([Atom("C", 0.0, 0.0, 0.0), Atom("C", 0.5, 0.0, 0.0)])]
        sparse = build_vocab(corpus, Scheme("atom_coord", 1))
        dense = build_vocab(corpus, Scheme("atom_coord", 1), dense_coordinate_range=True)
        assert "0.3" not in sparse
        assert "0.3" in dense
        assert "0.6" not in dense  # outside the observed range

    def test_dense_range_char_scheme_rejected(self, rng):
        from conftest import random_molecule

        with pytest.raises(ValueError):
            build_vocab([random_molecule(rng)], S_CHAR, dense_coordinate_range=True)
