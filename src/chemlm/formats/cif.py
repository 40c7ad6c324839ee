"""Restricted CIF crystal files.

Grammar (one crystal per file, keys in this exact order):

    _cell_length_a VALUE
    _cell_length_b VALUE
    _cell_length_c VALUE
    _cell_angle_alpha VALUE
    _cell_angle_beta VALUE
    _cell_angle_gamma VALUE
    loop_
    _atom_site_type_symbol
    _atom_site_fract_x
    _atom_site_fract_y
    _atom_site_fract_z
    Symbol fx fy fz          (one row per site)

Anything else, including symmetry blocks, occupancy or oxidation columns,
is rejected rather than skipped. The writer emits `precision` decimals
everywhere, fractional coordinates wrapped into [0, 1).
"""

from __future__ import annotations

from ..elements import is_element
from ..errors import ParseError
from ..rounding import fmt_fixed, round_coords
from ..structures import Crystal, Lattice, Site
from .document import parse_number

CELL_KEYS = (
    "_cell_length_a",
    "_cell_length_b",
    "_cell_length_c",
    "_cell_angle_alpha",
    "_cell_angle_beta",
    "_cell_angle_gamma",
)

SITE_TAGS = (
    "_atom_site_type_symbol",
    "_atom_site_fract_x",
    "_atom_site_fract_y",
    "_atom_site_fract_z",
)


def parse_cif(text: str) -> Crystal:
    lines = text.splitlines()
    if len(lines) < len(CELL_KEYS) + 1 + len(SITE_TAGS) + 1:
        raise ParseError("file too short for the cell block and one site", max(1, len(lines)))

    values = []
    for i, key in enumerate(CELL_KEYS):
        line_no = i + 1
        fields = lines[i].split()
        if len(fields) != 2 or fields[0] != key:
            raise ParseError(f"expected '{key} VALUE'", line_no)
        values.append(parse_number(fields[1], line_no, "cell parameter"))

    loop_line = len(CELL_KEYS)  # 0-based index of "loop_"
    if lines[loop_line].strip() != "loop_":
        raise ParseError("expected 'loop_'", loop_line + 1)
    for j, tag in enumerate(SITE_TAGS):
        line_no = loop_line + 2 + j
        if lines[loop_line + 1 + j].strip() != tag:
            raise ParseError(f"expected site tag '{tag}'", line_no)

    try:
        lattice = Lattice(*values)
    except Exception as exc:
        raise ParseError(str(exc), 6) from exc

    sites = []
    first_row = loop_line + 1 + len(SITE_TAGS)
    for i, line in enumerate(lines[first_row:]):
        line_no = first_row + i + 1
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(
                f"expected 'Symbol fx fy fz', got {len(fields)} fields", line_no
            )
        symbol = fields[0]
        if not is_element(symbol):
            raise ParseError(f"unknown element {symbol!r}", line_no)
        fx, fy, fz = (parse_number(f, line_no, "fractional coordinate") for f in fields[1:])
        sites.append(Site(symbol, fx, fy, fz))
    if not sites:
        raise ParseError("no site rows after the loop header", len(lines))
    return Crystal(lattice, tuple(sites))


def write_cif(crystal: Crystal, precision: int) -> str:
    c = round_coords(crystal, precision)
    out = []
    for key, value in zip(CELL_KEYS, c.lattice.params()):
        out.append(f"{key} {fmt_fixed(value, precision)}")
    out.append("loop_")
    out.extend(SITE_TAGS)
    for s in c.sites:
        out.append(
            f"{s.symbol} {fmt_fixed(s.fx, precision)}"
            f" {fmt_fixed(s.fy, precision)} {fmt_fixed(s.fz, precision)}"
        )
    return "\n".join(out) + "\n"
