"""Structure file formats: XYZ molecules, CIF crystals, PDB pockets."""

from __future__ import annotations

from ..structures import Crystal, Molecule, Pocket, Structure
from .cif import parse_cif, write_cif
from .document import CIF, FORMATS, PDB, XYZ, FileDocument
from .pdb import parse_pdb, write_pdb
from .prune import PruneResult, prune_pocket
from .xyz import parse_xyz, write_xyz

#: File extension per format, used by directory readers and writers.
EXTENSIONS = {XYZ: ".xyz", CIF: ".cif", PDB: ".pdb"}

FORMAT_FOR_KIND = {"molecule": XYZ, "crystal": CIF, "pocket": PDB}

_PARSERS = {XYZ: parse_xyz, CIF: parse_cif, PDB: parse_pdb}


def parse_document(doc: FileDocument) -> Structure:
    """Dispatch to the parser matching doc.format."""
    return _PARSERS[doc.format](doc)


def write_structure(structure: Structure, precision: int) -> FileDocument:
    """Serialize a structure in its native format at fixed precision."""
    if isinstance(structure, Molecule):
        return write_xyz(structure, precision)
    if isinstance(structure, Crystal):
        return write_cif(structure, precision)
    if isinstance(structure, Pocket):
        return write_pdb(structure, precision)
    raise TypeError(f"not a structure: {type(structure).__name__}")


__all__ = [
    "CIF",
    "EXTENSIONS",
    "FORMATS",
    "FORMAT_FOR_KIND",
    "FileDocument",
    "PDB",
    "PruneResult",
    "XYZ",
    "parse_cif",
    "parse_document",
    "parse_pdb",
    "parse_xyz",
    "prune_pocket",
    "write_cif",
    "write_pdb",
    "write_structure",
    "write_xyz",
]
