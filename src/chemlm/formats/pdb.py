"""Restricted PDB pocket files.

Grammar (one pocket per file):

    ATOM serial element residue resindex x y z     (one line per atom)
    END

Records are whitespace tokenized, not column aligned. Only heavy atoms
are accepted (hydrogens are rejected), residue codes must be one of the
20 canonical amino acids, and atoms of one residue must be contiguous.
Serials are 1-based file order; residue indices are renumbered 1..k.
"""

from __future__ import annotations

from ..elements import is_element
from ..errors import ParseError
from ..rounding import coords_text
from ..structures import CANONICAL_RESIDUES, Pocket
from .document import parse_count, parse_number


def parse_pdb(text: str) -> Pocket:
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "END":
        raise ParseError("missing END terminator", max(1, len(lines)))

    atoms = []
    finished_indices: set[int] = set()
    current_index = None
    current_code = None
    for i, line in enumerate(lines[:-1]):
        line_no = i + 1
        fields = line.split()
        if len(fields) != 8 or fields[0] != "ATOM":
            raise ParseError(
                "expected 'ATOM serial element residue resindex x y z'", line_no
            )
        serial = parse_count(fields[1], line_no, "serial")
        if serial != len(atoms) + 1:
            raise ParseError(
                f"serial {serial} out of order (expected {len(atoms) + 1})", line_no
            )
        element = fields[2]
        if not is_element(element):
            raise ParseError(f"unknown element {element!r}", line_no)
        if element == "H":
            raise ParseError("hydrogens are not accepted (heavy atoms only)", line_no)
        residue = fields[3]
        if residue not in CANONICAL_RESIDUES:
            raise ParseError(f"non-canonical residue code {residue!r}", line_no)
        res_index = parse_count(fields[4], line_no, "residue index")
        if res_index != current_index:
            if res_index in finished_indices:
                raise ParseError(
                    f"residue index {res_index} is not contiguous", line_no
                )
            if current_index is not None:
                finished_indices.add(current_index)
            current_index = res_index
            current_code = residue
        elif residue != current_code:
            raise ParseError(
                f"residue index {res_index} mixes codes {current_code} and {residue}",
                line_no,
            )
        xyz = [parse_number(f, line_no, "coordinate") for f in fields[5:8]]
        atoms.append((element, residue, res_index, xyz))
    if not atoms:
        raise ParseError("no ATOM records before END", 1)
    return Pocket(*zip(*atoms))


def write_pdb(pocket: Pocket, precision: int) -> str:
    _, triples = coords_text(pocket, precision)
    atoms = zip(pocket.symbols, pocket.residues, pocket.residue_index.tolist(), triples)
    out = [
        f"ATOM {serial} {element} {residue} {index} {x} {y} {z}"
        for serial, (element, residue, index, (x, y, z)) in enumerate(atoms, start=1)
    ]
    out.append("END")
    return "\n".join(out) + "\n"
