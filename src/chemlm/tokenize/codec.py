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

from ..elements import MULTI_LETTER_SYMBOLS, is_element
from ..errors import ConfigError, DecodeError, ParseError
from ..formats import FileDocument, parse_document, write_structure
from ..rounding import fmt_fixed, round_coords
from ..structures import (
    CANONICAL_RESIDUES,
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


def _coordinate_re(precision: int) -> re.Pattern:
    return re.compile(rf"-?\d+\.\d{{{precision}}}")


def segment_chars(text: str) -> list[str]:
    """Split a serialized stream into CHAR tokens.

    Single characters, except that any two-character slice matching a
    known multi-letter element symbol becomes one token. The grammars
    put lowercase letters nowhere else (CIF keys are all-lowercase and
    never follow an uppercase letter), so greedy matching is safe.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        pair = text[i : i + 2]
        if len(pair) == 2 and pair in MULTI_LETTER_SYMBOLS:
            tokens.append(pair)
            i += 2
        else:
            tokens.append(text[i])
            i += 1
    return tokens


def char_tokens(structure: Structure, precision: int) -> list[str]:
    """CHAR-scheme token strings: the file text with "#" for newline."""
    return segment_chars(write_structure(structure, precision).replace("\n", "#"))


def atom_coord_tokens(structure: Structure, scheme: Scheme) -> list[str]:
    """ATOM_COORD-scheme token strings (4 per atom, lattice first for crystals)."""
    p = scheme.precision
    s = round_coords(structure, p)
    tokens: list[str] = []
    if isinstance(s, Crystal):
        tokens.extend(fmt_fixed(value, p) for value in s.lattice.params())
    for label, (x, y, z) in zip(s.labels(), s.coords()):
        tokens.extend((label, fmt_fixed(x, p), fmt_fixed(y, p), fmt_fixed(z, p)))
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
    rounded = [round_coords(s, scheme.precision) for s in corpus]
    tokens: set[str] = set()
    for s in rounded:
        tokens.update(content_tokens(s, scheme))
    if dense_coordinate_range:
        if scheme.kind != ATOM_COORD:
            raise ConfigError("dense coordinate range only applies to the atom_coord scheme")
        tokens.update(_dense_coordinate_tokens(rounded, scheme.precision))
    return make_vocabulary(tokens, scheme, kind)


def encode(structure: Structure, vocab: Vocabulary) -> TokenSequence:
    """Structure to ids: BOS + content + EOS. Rounds to the vocab precision."""
    if structure.kind != vocab.structure_kind:
        raise ValueError(
            f"vocabulary is for {vocab.structure_kind} structures, got {structure.kind}"
        )
    tokens = content_tokens(structure, vocab.scheme)
    ids = [vocab.bos_id]
    ids.extend(vocab.id_of(t) for t in tokens)
    ids.append(vocab.eos_id)
    return TokenSequence(tuple(ids))


def _content_strings(seq: TokenSequence, vocab: Vocabulary) -> list[str]:
    """Validate the special-token bracketing and return content strings."""
    ids = seq.ids
    if not ids or ids[0] != vocab.bos_id:
        raise DecodeError("missing_bos", 0, "sequence does not begin with BOS")
    tokens: list[str] = []
    seen_eos = False
    for pos, token_id in enumerate(ids[1:], start=1):
        if seen_eos:
            if token_id == vocab.pad_id:
                continue
            raise DecodeError("content_after_eos", pos, "token after EOS")
        if token_id == vocab.eos_id:
            seen_eos = True
            continue
        if token_id == vocab.pad_id:
            raise DecodeError("pad_in_content", pos, "PAD inside the content")
        if token_id == vocab.bos_id:
            raise DecodeError("unexpected_special", pos, "BOS repeated inside the content")
        if not 0 <= token_id < len(vocab):
            raise DecodeError("unknown_id", pos, f"id {token_id} outside the vocabulary")
        tokens.append(vocab.token_of(token_id))
    return tokens


def decode(seq: TokenSequence, vocab: Vocabulary) -> Structure:
    """Ids back to a structure; raises DecodeError on any grammar violation."""
    tokens = _content_strings(seq, vocab)
    if vocab.scheme.kind == CHAR:
        return _decode_char(tokens, vocab)
    return _decode_atom_coord(tokens, vocab)


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


def _decode_atom_coord(tokens: list[str], vocab: Vocabulary) -> Structure:
    scheme = vocab.scheme
    coord_re = _coordinate_re(scheme.precision)
    kind = vocab.structure_kind

    pos = 1
    lattice = None
    if kind == "crystal":
        lattice, pos = _read_lattice(tokens)

    body = tokens[pos - 1 :]
    if not body:
        raise DecodeError("empty_structure", pos, "no atoms in the sequence")
    if len(body) % 4 != 0:
        first_bad = pos + (len(body) // 4) * 4
        raise DecodeError(
            "truncated_group",
            first_bad,
            f"{len(body)} tokens do not form whole 4-token atom groups",
        )

    atoms = []
    for g in range(0, len(body), 4):
        head = body[g]
        head_pos = pos + g
        if coord_re.fullmatch(head):
            raise DecodeError(
                "atom_expected", head_pos, f"coordinate token {head!r} where an atom token was expected"
            )
        if kind == "pocket":
            atoms.append((_parse_indicator(head, head_pos), _read_group_coords(body, g, pos, coord_re)))
        else:
            if not is_element(head):
                raise DecodeError("atom_expected", head_pos, f"{head!r} is not an element token")
            atoms.append((head, _read_group_coords(body, g, pos, coord_re)))

    if kind == "molecule":
        return Molecule(tuple(Atom(sym, *xyz) for sym, xyz in atoms))
    if kind == "crystal":
        return Crystal(lattice, tuple(Site(sym, *xyz) for sym, xyz in atoms))
    return _assemble_pocket(atoms)


def _read_group_coords(body, g, pos, coord_re):
    coords = []
    for k in range(1, 4):
        tok = body[g + k]
        if not coord_re.fullmatch(tok):
            raise DecodeError(
                "coordinate_expected",
                pos + g + k,
                f"{tok!r} is not a coordinate token at this precision",
            )
        coords.append(float(tok))
    return tuple(coords)


def _read_lattice(tokens):
    """The six leading lattice parameter tokens; returns (lattice, next position)."""
    if len(tokens) < 6:
        raise DecodeError(
            "truncated_lattice", len(tokens) + 1, "fewer than 6 lattice parameter tokens"
        )
    values = []
    for i in range(6):
        tok = tokens[i]
        if re.fullmatch(r"-?\d+\.\d+", tok) is None:
            raise DecodeError(
                "lattice_expected", i + 1, f"{tok!r} is not a lattice parameter token"
            )
        values.append(float(tok))
    try:
        return Lattice(*values), 7
    except Exception as exc:
        raise DecodeError("invalid_lattice", 6, str(exc)) from exc


def _parse_indicator(token: str, position: int) -> tuple[str, str]:
    residue, dash, element = token.partition("-")
    if not dash or residue not in CANONICAL_RESIDUES or not is_element(element):
        raise DecodeError(
            "unknown_indicator", position, f"{token!r} is not a residue-atom indicator"
        )
    return residue, element


def _assemble_pocket(atoms) -> Pocket:
    """Rebuild residue boundaries from an indicator/coordinate stream.

    A new residue starts when the residue code changes or when adding the
    atom would exceed the code's composition from the residue table; for
    table-complete pockets this reconstruction is exact.
    """
    built = []
    index = 0
    code = None
    counts: dict[str, int] = {}
    for (residue, element), (x, y, z) in atoms:
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
