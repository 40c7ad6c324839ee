"""Token vocabulary: ordered token table with special markers.

Ids are dense 0..|V|-1 with the three specials first (BOS, EOS, PAD),
then content tokens in lexicographic order. A vocabulary knows its
scheme, its precision, and which structure kind it was built over, and
it can be persisted as a small text file whose sha256 identifies it in
checkpoints and manifests.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from ..elements import is_element
from ..errors import ArtifactError, EncodeError
from ..manifest import replace_file
from ..structures import CANONICAL_RESIDUES, KINDS
from .scheme import Scheme

BOS_TOKEN = "<BOS>"
EOS_TOKEN = "<EOS>"
PAD_TOKEN = "<PAD>"
SPECIALS = (BOS_TOKEN, EOS_TOKEN, PAD_TOKEN)

#: Crystal lattice parameters are always whole tokens. The header line
#: naming this mode is part of the v1 file format, and so of every
#: vocabulary hash; a file naming another mode is refused.
_LATTICE_MODE = "whole_token"

#: Space is written escaped in vocabulary files so every token stays a
#: visible one-per-line entry.
_SPACE_ESCAPE = "<SP>"

#: A lattice parameter token: a fixed-point number of any precision.
_LATTICE_RE = re.compile(r"-?\d+\.\d+")


def _value(pattern: re.Pattern, token: str):
    return float(token) if pattern.fullmatch(token) else None


def _element(token: str):
    return token if is_element(token) else None


def _indicator(token: str):
    residue, dash, element = token.partition("-")
    if dash and residue in CANONICAL_RESIDUES and is_element(element):
        return residue, element
    return None


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    scheme: Scheme
    structure_kind: str
    _ids: dict = field(default_factory=dict, compare=False, repr=False)
    #: Per-id tables that decoding reads instead of matching token text.
    #: `coord_values[i]` is the float of a coordinate token at the
    #: scheme's precision; `atom_values[i]` is the element symbol of an
    #: element token, or for a pocket vocabulary the (residue, element)
    #: pair of a residue-atom indicator; `lattice_values[i]` is the float
    #: of a lattice parameter token. Every other entry is None.
    coord_values: tuple = field(default=(), init=False, compare=False, repr=False)
    atom_values: tuple = field(default=(), init=False, compare=False, repr=False)
    lattice_values: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.structure_kind not in KINDS:
            raise ValueError(f"unknown structure kind {self.structure_kind!r}")
        if tuple(self.tokens[:3]) != SPECIALS:
            raise ValueError("tokens must begin with <BOS>, <EOS>, <PAD>")
        ids = {}
        for i, tok in enumerate(self.tokens):
            if tok in ids:
                raise ValueError(f"duplicate token {tok!r}")
            if i >= 3 and tok in SPECIALS:
                raise ValueError(f"special token {tok!r} repeated as content")
            ids[tok] = i
        object.__setattr__(self, "_ids", ids)
        coord_re = re.compile(rf"-?\d+\.\d{{{self.scheme.precision}}}")
        atom = _indicator if self.structure_kind == "pocket" else _element
        object.__setattr__(self, "coord_values", tuple(_value(coord_re, t) for t in self.tokens))
        object.__setattr__(self, "atom_values", tuple(map(atom, self.tokens)))
        object.__setattr__(self, "lattice_values", tuple(_value(_LATTICE_RE, t) for t in self.tokens))

    @property
    def bos_id(self) -> int:
        return 0

    @property
    def eos_id(self) -> int:
        return 1

    @property
    def pad_id(self) -> int:
        return 2

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise EncodeError("token not in vocabulary", token=token) from None

    def content_hash(self) -> str:
        """sha256 over the persisted form; identifies the vocabulary."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()

    def dumps(self) -> str:
        lines = [
            "chemlm-vocabulary v1",
            f"scheme {self.scheme.kind}",
            f"precision {self.scheme.precision}",
            f"lattice_param_mode {_LATTICE_MODE}",
            f"structure_kind {self.structure_kind}",
            f"tokens {len(self.tokens)}",
        ]
        for tok in self.tokens:
            lines.append(tok.replace(" ", _SPACE_ESCAPE))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Vocabulary":
        lines = text.splitlines()
        if not lines or lines[0] != "chemlm-vocabulary v1":
            raise ArtifactError("not a chemlm vocabulary file")
        header = {}
        for line in lines[1:6]:
            key, _, value = line.partition(" ")
            header[key] = value
        mode = header.get("lattice_param_mode")
        if mode != _LATTICE_MODE:
            raise ArtifactError(f"unsupported lattice_param_mode {mode!r}")
        try:
            scheme = Scheme(kind=header["scheme"], precision=int(header["precision"]))
            count = int(header["tokens"])
            body = lines[6 : 6 + count]
            if len(body) != count:
                raise ValueError(f"expected {count} token lines, found {len(body)}")
            tokens = tuple(tok.replace(_SPACE_ESCAPE, " ") for tok in body)
            return cls(tokens, scheme, header["structure_kind"])
        except KeyError as exc:
            raise ArtifactError(f"vocabulary header missing {exc}") from None
        except ValueError as exc:
            raise ArtifactError(f"malformed vocabulary file: {exc}") from None

    def save(self, path) -> None:
        with replace_file(path) as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise ArtifactError(f"{path} is not a chemlm vocabulary file") from None
        return cls.loads(text)


def make_vocabulary(content_tokens, scheme: Scheme, structure_kind: str) -> Vocabulary:
    """Assemble a vocabulary from a set of content tokens."""
    ordered = tuple(sorted(set(content_tokens)))
    if not ordered:
        raise ValueError("no content tokens")
    return Vocabulary(SPECIALS + ordered, scheme, structure_kind)
