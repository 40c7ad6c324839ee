"""Encoding structures to token id sequences and decoding them back.

Two schemes:

* "char" spells the serialized structure file one character at a time,
  with "#" standing in for newline and multi-letter element symbols kept
  whole (splitting "Cl" into "C","l" would make decoding ambiguous).
* "atom_coord" uses 4 tokens per atom: the element (or residue-atom
  indicator like "CYS-S") followed by the three coordinate strings.
  Crystals prepend their six lattice parameters as whole tokens.

Decoding is the exact inverse on encoder output and applies strict
grammar checks to arbitrary model output, reporting the first violation
with its 1-based content position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..elements import MULTI_LETTER_SYMBOLS
from ..errors import ConfigError, DecodeError, ParseError
from ..formats import FileDocument, parse_document, write_structure
from ..rounding import coords_text, fmt_fixed, round_coords
from ..structures import (
    RESIDUE_ATOMS,
    Atom,
    Crystal,
    Lattice,
    Molecule,
    Pocket,
    PocketAtom,
    Site,
    Structure,
)
from .scheme import ATOM_COORD, CHAR, Scheme
from .vocab import Vocabulary, make_vocabulary


@dataclass(frozen=True)
class TokenSequence:
    """Token ids for one structure; BOS first, EOS terminated unless truncated."""

    ids: tuple[int, ...]
    truncated: bool = False

    def __post_init__(self):
        if not isinstance(self.ids, tuple):
            object.__setattr__(self, "ids", tuple(self.ids))

    def __len__(self) -> int:
        return len(self.ids)


#: An uppercase letter with the lowercase letter after it, else one character.
_CHAR_PAIR = re.compile(r"[A-Z][a-z]|.", re.S)


def segment_chars(text: str) -> list[str]:
    """Split a serialized stream into CHAR tokens: single characters,
    except that a multi-letter element symbol stays one token.

    Every symbol starts with an uppercase letter and none with a
    lowercase one, so matching each uppercase-lowercase pair whole and
    splitting the non-symbols gives the tokens of greedy left-to-right
    symbol matching. The grammars put lowercase letters nowhere else
    (CIF keys are all-lowercase and never follow an uppercase letter).
    """
    tokens = []
    for match in _CHAR_PAIR.findall(text):
        if match in MULTI_LETTER_SYMBOLS:
            tokens.append(match)
        else:
            tokens.extend(match)
    return tokens


def char_tokens(structure: Structure, precision: int) -> list[str]:
    """CHAR-scheme token strings: the file text with "#" for newline."""
    return segment_chars(write_structure(structure, precision).replace("\n", "#"))


def atom_coord_tokens(structure: Structure, scheme: Scheme) -> list[str]:
    """ATOM_COORD-scheme token strings (4 per atom, lattice first for crystals)."""
    cell, triples = coords_text(structure, scheme.precision)
    tokens = list(cell)
    for label, xyz in zip(structure.labels(), triples):
        tokens.append(label)
        tokens.extend(xyz)
    return tokens


def content_tokens(structure: Structure, scheme: Scheme) -> list[str]:
    if scheme.kind == CHAR:
        return char_tokens(structure, scheme.precision)
    return atom_coord_tokens(structure, scheme)


def _dense_coordinate_tokens(corpus, precision: int) -> set[str]:
    """Every fixed-precision string between the observed min and max."""
    values = [v for s in corpus for xyz in s.coords() for v in xyz]
    lo, hi = min(values), max(values)
    step = 10 ** -precision
    count = round((hi - lo) / step) + 1
    if count > 50_000:
        raise ConfigError(
            f"dense coordinate range would need {count} tokens; narrow the corpus"
        )
    return {fmt_fixed(lo + k * step, precision) for k in range(count)}


def build_vocab(
    corpus,
    scheme: Scheme,
    dense_coordinate_range: bool = False,
) -> Vocabulary:
    """Collect the token set of a corpus of same-kind structures.

    With `dense_coordinate_range` (atom_coord scheme only) the coordinate
    tokens cover every value between the corpus minimum and maximum at
    the scheme precision, not just the observed strings; rotation
    augmentation then rarely steps outside the vocabulary.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    kind = corpus[0].kind
    if any(s.kind != kind for s in corpus):
        raise ValueError("corpus mixes structure kinds")
    tokens: set[str] = set()
    for s in corpus:
        tokens.update(content_tokens(s, scheme))
    if dense_coordinate_range:
        if scheme.kind != ATOM_COORD:
            raise ConfigError("dense coordinate range only applies to the atom_coord scheme")
        rounded = [round_coords(s, scheme.precision) for s in corpus]
        tokens.update(_dense_coordinate_tokens(rounded, scheme.precision))
    return make_vocabulary(tokens, scheme, kind)


def encode(structure: Structure, vocab: Vocabulary) -> TokenSequence:
    """Structure to ids: BOS + content + EOS, coordinates at the vocab precision."""
    if structure.kind != vocab.structure_kind:
        raise ValueError(
            f"vocabulary is for {vocab.structure_kind} structures, got {structure.kind}"
        )
    tokens = content_tokens(structure, vocab.scheme)
    ids = [vocab.bos_id]
    ids.extend(vocab.id_of(t) for t in tokens)
    ids.append(vocab.eos_id)
    return TokenSequence(tuple(ids))


def _content_ids(seq: TokenSequence, vocab: Vocabulary) -> tuple[int, ...]:
    """Validate the special-token bracketing and return the content ids."""
    ids = seq.ids
    if not ids or ids[0] != vocab.bos_id:
        raise DecodeError("missing_bos", 0, "sequence does not begin with BOS")
    try:
        end = ids.index(vocab.eos_id, 1)
    except ValueError:  # no EOS: a truncated sequence is all content
        end = len(ids)
    content = ids[1:end]
    # ids 0-2 are the specials, so content ids lie in [3, len(vocab))
    if content and not (3 <= min(content) and max(content) < len(vocab)):
        pos, token_id = next((p, t) for p, t in enumerate(content, 1) if not 3 <= t < len(vocab))
        if token_id == vocab.pad_id:
            raise DecodeError("pad_in_content", pos, "PAD inside the content")
        if token_id == vocab.bos_id:
            raise DecodeError("unexpected_special", pos, "BOS repeated inside the content")
        raise DecodeError("unknown_id", pos, f"id {token_id} outside the vocabulary")
    for pos in range(end + 1, len(ids)):
        if ids[pos] != vocab.pad_id:
            raise DecodeError("content_after_eos", pos, "token after EOS")
    return content


def decode(seq: TokenSequence, vocab: Vocabulary) -> Structure:
    """Ids back to a structure; raises DecodeError on any grammar violation."""
    content = _content_ids(seq, vocab)
    if vocab.scheme.kind == CHAR:
        return _decode_char([vocab.tokens[i] for i in content], vocab)
    return _decode_atom_coord(content, vocab)


def _decode_char(tokens: list[str], vocab: Vocabulary) -> Structure:
    text = "".join(tokens).replace("#", "\n")
    try:
        return parse_document(FileDocument(vocab.structure_kind, text))
    except ParseError as exc:
        position = _token_position_of_line(tokens, exc.line)
        raise DecodeError("malformed_char_stream", position, str(exc)) from exc
    except ValueError as exc:
        raise DecodeError("malformed_char_stream", 1, str(exc)) from exc


def _token_position_of_line(tokens: list[str], line_no: int) -> int:
    """1-based content position of the first token on a 1-based text line."""
    line = 1
    for index, tok in enumerate(tokens):
        if line >= line_no:
            return index + 1
        line += tok.count("#")
    return max(1, len(tokens))


def _decode_atom_coord(content: tuple[int, ...], vocab: Vocabulary) -> Structure:
    """Read the 4-token atom groups (after a crystal's lattice) by table lookup."""
    kind = vocab.structure_kind
    pos = 1
    lattice = None
    if kind == "crystal":
        lattice = _read_lattice(content, vocab)
        pos = 7

    body = content[pos - 1 :]
    if not body:
        raise DecodeError("empty_structure", pos, "no atoms in the sequence")
    if len(body) % 4 != 0:
        first_bad = pos + (len(body) // 4) * 4
        raise DecodeError(
            "truncated_group",
            first_bad,
            f"{len(body)} tokens do not form whole 4-token atom groups",
        )

    coord = vocab.coord_values
    heads = [vocab.atom_values[i] for i in body[0::4]]
    xs = [coord[i] for i in body[1::4]]
    ys = [coord[i] for i in body[2::4]]
    zs = [coord[i] for i in body[3::4]]
    if None in heads or None in xs or None in ys or None in zs:
        raise _first_group_error(body, pos, vocab)

    if kind == "molecule":
        return Molecule(tuple(map(Atom, heads, xs, ys, zs)))
    if kind == "crystal":
        return Crystal(lattice, tuple(map(Site, heads, xs, ys, zs)))
    return _assemble_pocket(heads, xs, ys, zs)


def _first_group_error(body, pos: int, vocab: Vocabulary) -> DecodeError:
    """The error of the first token of `body` (at content position `pos`)
    that breaks the element-or-indicator, x, y, z group grammar."""
    for k, token_id in enumerate(body):
        tok = vocab.tokens[token_id]
        if k % 4 != 0:
            if vocab.coord_values[token_id] is None:
                return DecodeError(
                    "coordinate_expected",
                    pos + k,
                    f"{tok!r} is not a coordinate token at this precision",
                )
        elif vocab.atom_values[token_id] is None:
            if vocab.coord_values[token_id] is not None:
                return DecodeError(
                    "atom_expected",
                    pos + k,
                    f"coordinate token {tok!r} where an atom token was expected",
                )
            if vocab.structure_kind == "pocket":
                return DecodeError(
                    "unknown_indicator", pos + k, f"{tok!r} is not a residue-atom indicator"
                )
            return DecodeError("atom_expected", pos + k, f"{tok!r} is not an element token")
    raise AssertionError("no grammar violation in the atom groups")


def _read_lattice(content, vocab: Vocabulary) -> Lattice:
    """The lattice from the six leading lattice parameter tokens."""
    if len(content) < 6:
        raise DecodeError(
            "truncated_lattice", len(content) + 1, "fewer than 6 lattice parameter tokens"
        )
    values = [vocab.lattice_values[i] for i in content[:6]]
    if None in values:
        i = values.index(None)
        raise DecodeError(
            "lattice_expected",
            i + 1,
            f"{vocab.tokens[content[i]]!r} is not a lattice parameter token",
        )
    try:
        return Lattice(*values)
    except Exception as exc:
        raise DecodeError("invalid_lattice", 6, str(exc)) from exc


def _assemble_pocket(indicators, xs, ys, zs) -> Pocket:
    """Rebuild residue boundaries from an indicator/coordinate stream.

    A new residue starts when the residue code changes or when adding the
    atom would exceed the code's composition from the residue table; for
    table-complete pockets this reconstruction is exact.
    """
    built = []
    index = 0
    code = None
    counts: dict[str, int] = {}
    for (residue, element), x, y, z in zip(indicators, xs, ys, zs):
        target = RESIDUE_ATOMS[residue]
        boundary = (
            residue != code
            or counts.get(element, 0) + 1 > target.get(element, 0)
        )
        if boundary:
            index += 1
            code = residue
            counts = {}
        counts[element] = counts.get(element, 0) + 1
        built.append(PocketAtom(residue, element, index, x, y, z))
    return Pocket(tuple(built))
