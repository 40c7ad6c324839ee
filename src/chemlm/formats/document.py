"""One structure file's text and kind, and the field readers all formats share."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..errors import ParseError
from ..structures import KINDS


@dataclass(frozen=True)
class FileDocument:
    """Raw contents of one structure file plus the kind it holds."""

    kind: str
    text: str
    source_path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown structure kind {self.kind!r}")


# Plain decimal literals only: no exponents, no leading +, no bare dot.
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def parse_number(field: str, line_no: int, what: str = "number") -> float:
    if _NUMBER_RE.fullmatch(field) is None:
        raise ParseError(f"unparseable {what} {field!r}", line_no)
    return float(field)


def parse_count(field: str, line_no: int, what: str = "count") -> int:
    if not field.isdigit():
        raise ParseError(f"unparseable {what} {field!r}", line_no)
    return int(field)
