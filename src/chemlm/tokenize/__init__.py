"""Structure tokenization: schemes, vocabularies, encode/decode."""

from .codec import (
    TokenSequence,
    atom_coord_tokens,
    build_vocab,
    char_tokens,
    content_tokens,
    decode,
    encode,
    segment_chars,
)
from .scheme import (
    ATOM_COORD,
    CHAR,
    PRECISIONS,
    Scheme,
)
from .vocab import BOS_TOKEN, EOS_TOKEN, PAD_TOKEN, SPECIALS, Vocabulary, make_vocabulary

__all__ = [
    "ATOM_COORD",
    "BOS_TOKEN",
    "CHAR",
    "EOS_TOKEN",
    "PAD_TOKEN",
    "PRECISIONS",
    "SPECIALS",
    "Scheme",
    "TokenSequence",
    "Vocabulary",
    "atom_coord_tokens",
    "build_vocab",
    "char_tokens",
    "content_tokens",
    "decode",
    "encode",
    "make_vocabulary",
    "segment_chars",
]
