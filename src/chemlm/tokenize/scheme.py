"""Tokenization scheme descriptor."""

from __future__ import annotations

from dataclasses import dataclass

CHAR = "char"
ATOM_COORD = "atom_coord"
KINDS = (CHAR, ATOM_COORD)

PRECISIONS = (1, 2, 3)


@dataclass(frozen=True)
class Scheme:
    """How structures become token sequences.

    kind "char" spells out the serialized file one character at a time
    (multi-letter element symbols stay whole); kind "atom_coord" uses one
    token per element or residue-atom indicator and one per rounded
    coordinate string, with a crystal's six lattice parameters first as
    whole tokens.
    """

    kind: str
    precision: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
