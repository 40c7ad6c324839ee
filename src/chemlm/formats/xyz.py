"""XYZ molecule files.

Grammar (one molecule per file):

    line 1          atom count N
    line 2          comment, ignored on read and written empty
    lines 3..N+2    "Symbol x y z", whitespace separated

Coordinates are plain decimal literals. The writer emits exactly
`precision` decimals per coordinate, so parse(write(m, p)) equals
round_coords(m, p) bit for bit.
"""

from __future__ import annotations

from ..elements import is_element
from ..errors import ParseError
from ..rounding import fmt_fixed, round_coords
from ..structures import Atom, Molecule
from .document import parse_count, parse_number


def parse_xyz(text: str) -> Molecule:
    lines = text.splitlines()
    if len(lines) < 2:
        raise ParseError("file needs a count line and a comment line", max(1, len(lines)))
    n = parse_count(lines[0].strip(), 1, "atom count")
    if n < 1:
        raise ParseError("atom count must be >= 1", 1)
    body = lines[2:]
    if len(body) != n:
        raise ParseError(
            f"atom count {n} does not match {len(body)} atom lines", len(lines)
        )
    atoms = []
    for i, line in enumerate(body):
        line_no = i + 3
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(
                f"expected 'Symbol x y z', got {len(fields)} fields", line_no
            )
        symbol = fields[0]
        if not is_element(symbol):
            raise ParseError(f"unknown element {symbol!r}", line_no)
        x, y, z = (parse_number(f, line_no, "coordinate") for f in fields[1:])
        atoms.append(Atom(symbol, x, y, z))
    return Molecule(tuple(atoms))


def write_xyz(molecule: Molecule, precision: int) -> str:
    m = round_coords(molecule, precision)
    out = [str(len(m.atoms)), ""]
    for a in m.atoms:
        out.append(
            f"{a.symbol} {fmt_fixed(a.x, precision)}"
            f" {fmt_fixed(a.y, precision)} {fmt_fixed(a.z, precision)}"
        )
    return "\n".join(out) + "\n"
