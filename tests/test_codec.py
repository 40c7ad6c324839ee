import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlm.elements import SYMBOLS
from chemlm.errors import DecodeError
from chemlm.rounding import round_coords
from chemlm.structures import Atom, Crystal, Lattice, Molecule, Site
from chemlm.tokenize import (
    SPECIALS,
    Scheme,
    TokenSequence,
    Vocabulary,
    build_vocab,
    char_tokens,
    content_tokens,
    decode,
    encode,
    segment_chars,
)

from conftest import random_structure
from reference_algorithms import reference_segment_chars
from reference_codec import reference_decode

#: Every letter of an element symbol, upper and lower case.
SYMBOL_LETTERS = "".join(sorted(set("".join(SYMBOLS))))


def roundtrip(structure, scheme):
    vocab = build_vocab([structure], scheme)
    return decode(encode(structure, vocab), vocab), vocab


class TestSegmentation:
    def test_single_chars(self):
        assert segment_chars("C 1.0") == ["C", " ", "1", ".", "0"]

    def test_multi_letter_symbols_stay_whole(self):
        assert segment_chars("Cl 1") == ["Cl", " ", "1"]
        assert segment_chars("BrCl") == ["Br", "Cl"]

    def test_greedy_is_safe_for_the_grammars(self):
        # "Sn" inside a CIF site row must not swallow the following char
        assert segment_chars("Sn 0.50") == ["Sn", " ", "0", ".", "5", "0"]

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(text=st.text(alphabet=SYMBOL_LETTERS + "0123456789#\n", max_size=40))
    def test_matches_greedy_loop(self, text):
        # the one-pass regular expression against the greedy loop it replaced
        assert segment_chars(text) == reference_segment_chars(text)

    def test_newline_marker(self):
        m = Molecule([Atom("C", 0, 0, 0)])
        toks = char_tokens(m, 2)
        assert "#" in toks
        assert "\n" not in "".join(toks)


class TestAtomCoordTokens:
    def test_four_per_atom(self):
        m = Molecule([Atom("C", 1.005, 0, 0), Atom("H", -1.98, 0, 0)])
        toks = content_tokens(m, Scheme("atom_coord", 2))
        assert toks == ["C", "1.01", "0.00", "0.00", "H", "-1.98", "0.00", "0.00"]

    def test_crystal_prepends_lattice_whole(self):
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), [Site("Po", 0, 0, 0)])
        toks = content_tokens(c, Scheme("atom_coord", 2))
        assert toks[:6] == ["4.00", "4.00", "4.00", "90.00", "90.00", "90.00"]
        assert toks[6:] == ["Po", "0.00", "0.00", "0.00"]

    def test_pocket_uses_indicators(self, rng):
        p = random_structure(rng, "pocket")
        toks = content_tokens(p, Scheme("atom_coord", 2))
        assert toks[0].count("-") >= 1
        assert len(toks) == 4 * len(p)


class TestRoundTrips:
    @pytest.mark.parametrize("kind", ["molecule", "crystal", "pocket"])
    @pytest.mark.parametrize("scheme_kind", ["char", "atom_coord"])
    def test_encode_decode_identity(self, rng, kind, scheme_kind):
        for precision in (1, 2, 3):
            s = random_structure(rng, kind)
            scheme = Scheme(scheme_kind, precision)
            back, _ = roundtrip(s, scheme)
            assert back == round_coords(s, precision)

    def test_sequence_shape(self, rng):
        s = random_structure(rng, "molecule")
        vocab = build_vocab([s], Scheme("atom_coord", 2))
        seq = encode(s, vocab)
        assert seq.ids[0] == vocab.bos_id
        assert seq.ids[-1] == vocab.eos_id
        assert not seq.truncated
        assert len(seq) == 2 + 4 * len(s)

    def test_wrong_kind_vocab(self, rng):
        mol = random_structure(rng, "molecule")
        xtl_vocab = build_vocab([random_structure(rng, "crystal")], Scheme("atom_coord", 2))
        with pytest.raises(ValueError):
            encode(mol, xtl_vocab)

    def test_missing_eos_tolerated(self, rng):
        # model output cut off at max length still decodes when the
        # content happens to be complete
        s = random_structure(rng, "molecule")
        vocab = build_vocab([s], Scheme("atom_coord", 2))
        seq = encode(s, vocab)
        no_eos = TokenSequence(seq.ids[:-1], truncated=True)
        assert decode(no_eos, vocab) == round_coords(s, 2)

    def test_trailing_pad_after_eos_ok(self, rng):
        s = random_structure(rng, "molecule")
        vocab = build_vocab([s], Scheme("atom_coord", 2))
        seq = encode(s, vocab)
        padded = TokenSequence(seq.ids + (vocab.pad_id,) * 3)
        assert decode(padded, vocab) == round_coords(s, 2)


class FixedVocab:
    """One molecule vocabulary shared by the error-path tests."""

    def __init__(self):
        self.mol = Molecule([Atom("C", 1.0, 2.0, 3.0), Atom("O", -1.5, 0.25, 0.75)])
        self.scheme = Scheme("atom_coord", 2)
        self.vocab = build_vocab([self.mol], self.scheme)

    def ids(self, *tokens):
        return tuple(self.vocab.id_of(t) for t in tokens)


@pytest.fixture(scope="module")
def fx():
    return FixedVocab()


class TestDecodeErrors:
    def test_missing_bos(self, fx):
        seq = encode(fx.mol, fx.vocab)
        with pytest.raises(DecodeError) as ei:
            decode(TokenSequence(seq.ids[1:]), fx.vocab)
        assert ei.value.kind == "missing_bos"

    def test_content_after_eos(self, fx):
        seq = encode(fx.mol, fx.vocab)
        bad = TokenSequence(seq.ids + fx.ids("C"))
        with pytest.raises(DecodeError) as ei:
            decode(bad, fx.vocab)
        assert ei.value.kind == "content_after_eos"
        assert ei.value.position == len(seq.ids)

    def test_pad_in_content(self, fx):
        v = fx.vocab
        bad = TokenSequence((v.bos_id, v.pad_id) + fx.ids("C", "1.00", "2.00", "3.00") + (v.eos_id,))
        with pytest.raises(DecodeError) as ei:
            decode(bad, v)
        assert ei.value.kind == "pad_in_content"
        assert ei.value.position == 1

    def test_repeated_bos(self, fx):
        v = fx.vocab
        bad = TokenSequence((v.bos_id, v.bos_id, v.eos_id))
        with pytest.raises(DecodeError) as ei:
            decode(bad, v)
        assert ei.value.kind == "unexpected_special"

    def test_empty_content(self, fx):
        v = fx.vocab
        with pytest.raises(DecodeError) as ei:
            decode(TokenSequence((v.bos_id, v.eos_id)), v)
        assert ei.value.kind == "empty_structure"

    def test_truncated_group(self, fx):
        v = fx.vocab
        bad = TokenSequence((v.bos_id,) + fx.ids("C", "1.00", "2.00") + (v.eos_id,))
        with pytest.raises(DecodeError) as ei:
            decode(bad, v)
        assert ei.value.kind == "truncated_group"

    def test_coordinate_where_atom_expected(self, fx):
        v = fx.vocab
        bad = TokenSequence((v.bos_id,) + fx.ids("1.00", "1.00", "2.00", "3.00") + (v.eos_id,))
        with pytest.raises(DecodeError) as ei:
            decode(bad, v)
        assert ei.value.kind == "atom_expected"
        assert ei.value.position == 1

    def test_atom_where_coordinate_expected(self, fx):
        v = fx.vocab
        bad = TokenSequence((v.bos_id,) + fx.ids("C", "1.00", "O", "3.00") + (v.eos_id,))
        with pytest.raises(DecodeError) as ei:
            decode(bad, v)
        assert ei.value.kind == "coordinate_expected"
        assert ei.value.position == 3

    def test_char_stream_grammar_violation(self):
        m = Molecule([Atom("C", 1.0, 0.0, 0.0)])
        scheme = Scheme("char", 2)
        vocab = build_vocab([m], scheme)
        seq = encode(m, vocab)
        # drop one digit from the middle: the spelled file no longer parses
        ids = list(seq.ids)
        del ids[5]
        with pytest.raises(DecodeError) as ei:
            decode(TokenSequence(tuple(ids)), vocab)
        assert ei.value.kind == "malformed_char_stream"
        assert ei.value.position >= 1

    def test_error_reports_position_first_violation(self, fx):
        v = fx.vocab
        good = fx.ids("C", "1.00", "2.00", "3.00")
        bad_tail = fx.ids("O", "O", "O", "1.00")
        seq = TokenSequence((v.bos_id,) + good + bad_tail + (v.eos_id,))
        with pytest.raises(DecodeError) as ei:
            decode(seq, v)
        assert ei.value.position == 6


class TestCrystalDecodeErrors:
    def setup_method(self):
        self.xtl = Crystal(
            Lattice(4.0, 4.0, 4.0, 90.0, 90.0, 90.0),
            [Site("Ca", 0, 0, 0), Site("O", 0.5, 0.5, 0.5)],
        )

    def test_truncated_lattice_whole(self):
        vocab = build_vocab([self.xtl], Scheme("atom_coord", 2))
        seq = encode(self.xtl, vocab)
        bad = TokenSequence(seq.ids[:4], truncated=True)
        with pytest.raises(DecodeError) as ei:
            decode(bad, vocab)
        assert ei.value.kind == "truncated_lattice"

    def test_unrealizable_lattice(self):
        vocab = build_vocab([self.xtl], Scheme("atom_coord", 2))
        v = vocab
        # 6 numeric tokens that do not form a realizable cell: reuse the
        # fractional token 0.50 as a cell length of 0.50 but make an
        # angle triple impossible by duplicating 90.00 as 0.00-like value
        ids = [v.bos_id]
        for t in ("4.00", "4.00", "4.00", "0.00", "90.00", "90.00"):
            ids.append(v.id_of(t))
        for t in ("Ca", "0.00", "0.00", "0.00"):
            ids.append(v.id_of(t))
        ids.append(v.eos_id)
        with pytest.raises(DecodeError) as ei:
            decode(TokenSequence(tuple(ids)), v)
        assert ei.value.kind == "invalid_lattice"
        with pytest.raises(DecodeError) as ref:
            reference_decode(TokenSequence(tuple(ids)), v)
        assert (ref.value.position, str(ref.value)) == (ei.value.position, str(ei.value))


class TestPocketAssembly:
    def test_residue_boundaries_recovered(self, rng):
        # table-complete pockets reconstruct their residue grouping
        # exactly from the flat indicator stream
        for _ in range(10):
            p = random_structure(rng, "pocket")
            back, _ = roundtrip(p, Scheme("atom_coord", 2))
            assert [a.residue_index for a in back.atoms] == [
                a.residue_index for a in p.atoms
            ]

    def test_unknown_indicator(self):
        # a pocket vocabulary holding tokens that only look like indicators
        bad = ("GLY", "BAD-C", "GLY-Xx")
        vocab = Vocabulary(SPECIALS + bad + ("1.00",), Scheme("atom_coord", 2), "pocket")
        coord = vocab.id_of("1.00")
        for tok in bad:
            seq = TokenSequence((vocab.bos_id, vocab.id_of(tok), coord, coord, coord, vocab.eos_id))
            with pytest.raises(DecodeError) as ei:
                decode(seq, vocab)
            assert ei.value.kind == "unknown_indicator"
            assert ei.value.position == 1
            assert str(ei.value).startswith(f"{tok!r} is not a residue-atom indicator")
            with pytest.raises(DecodeError) as ref:
                reference_decode(seq, vocab)
            assert str(ref.value) == str(ei.value)
