"""The per-token decoder that `chemlm.tokenize.decode` replaced.

It reads each content id's token text and matches it with a regular
expression, token by token, where `decode` looks the ids up in the
vocabulary's per-id tables. The property tests hold `decode` to this
decoder: the same structure, or the same DecodeError kind, position and
message. Only the id-to-token grammar lives here; the char scheme's file
parser and the pocket's residue assembly are shared with `decode`.
"""

import re

from chemlm.elements import is_element
from chemlm.errors import DecodeError
from chemlm.structures import CANONICAL_RESIDUES, Atom, Crystal, Lattice, Molecule, Site
from chemlm.tokenize.codec import _assemble_pocket, _decode_char
from chemlm.tokenize.scheme import CHAR


def reference_decode(seq, vocab):
    tokens = _content_strings(seq, vocab)
    if vocab.scheme.kind == CHAR:
        return _decode_char(tokens, vocab)
    return _decode_atom_coord(tokens, vocab)


def _content_strings(seq, vocab):
    ids = seq.ids
    if not ids or ids[0] != vocab.bos_id:
        raise DecodeError("missing_bos", 0, "sequence does not begin with BOS")
    tokens = []
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


def _decode_atom_coord(tokens, vocab):
    coord_re = re.compile(rf"-?\d+\.\d{{{vocab.scheme.precision}}}")
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

    heads, coords = [], []
    for g in range(0, len(body), 4):
        head = body[g]
        head_pos = pos + g
        if coord_re.fullmatch(head):
            raise DecodeError(
                "atom_expected", head_pos,
                f"coordinate token {head!r} where an atom token was expected",
            )
        if kind == "pocket":
            heads.append(_parse_indicator(head, head_pos))
        elif is_element(head):
            heads.append(head)
        else:
            raise DecodeError("atom_expected", head_pos, f"{head!r} is not an element token")
        coords.append(_read_group_coords(body, g, pos, coord_re))

    if kind == "molecule":
        return Molecule(tuple(Atom(sym, *xyz) for sym, xyz in zip(heads, coords)))
    if kind == "crystal":
        return Crystal(lattice, tuple(Site(sym, *xyz) for sym, xyz in zip(heads, coords)))
    return _assemble_pocket(heads, *zip(*coords))


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


def _parse_indicator(token, position):
    residue, dash, element = token.partition("-")
    if not dash or residue not in CANONICAL_RESIDUES or not is_element(element):
        raise DecodeError(
            "unknown_indicator", position, f"{token!r} is not a residue-atom indicator"
        )
    return residue, element
