"""Structure file formats: XYZ molecules, CIF crystals, PDB pockets."""

from __future__ import annotations

from ..structures import Structure
from .cif import parse_cif, write_cif
from .document import FileDocument
from .pdb import parse_pdb, write_pdb
from .prune import PruneResult, prune_pocket
from .xyz import parse_xyz, write_xyz

#: File extension per structure kind, used by directory readers and writers.
EXTENSIONS = {"molecule": ".xyz", "crystal": ".cif", "pocket": ".pdb"}

_PARSERS = {"molecule": parse_xyz, "crystal": parse_cif, "pocket": parse_pdb}

_WRITERS = {"molecule": write_xyz, "crystal": write_cif, "pocket": write_pdb}


def parse_document(doc: FileDocument) -> Structure:
    """Parse doc.text with the parser of doc.kind."""
    return _PARSERS[doc.kind](doc.text)


def write_structure(structure: Structure, precision: int) -> str:
    """Serialize a structure in its native format at fixed precision."""
    return _WRITERS[structure.kind](structure, precision)


__all__ = [
    "EXTENSIONS",
    "FileDocument",
    "PruneResult",
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
