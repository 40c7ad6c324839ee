"""Language models over 3D chemical structures.

Train decoder-only transformers on token sequences derived from molecule,
crystal, and protein-pocket files, sample new structures, and score the
samples for validity, uniqueness, and novelty.
"""

from .elements import ELEMENTS, Element, get_element, is_element
from .errors import (
    ChemlmError,
    DecodeError,
    EncodeError,
    InvalidLatticeError,
    ParseError,
    TrainingDiverged,
    UnknownElementError,
)
from .structures import (
    Atom,
    Crystal,
    Lattice,
    Molecule,
    Pocket,
    PocketAtom,
    Site,
    Structure,
)

__version__ = "0.1.0"

__all__ = [
    "ELEMENTS",
    "Element",
    "get_element",
    "is_element",
    "ChemlmError",
    "DecodeError",
    "EncodeError",
    "InvalidLatticeError",
    "ParseError",
    "TrainingDiverged",
    "UnknownElementError",
    "Atom",
    "Crystal",
    "Lattice",
    "Molecule",
    "Pocket",
    "PocketAtom",
    "Site",
    "Structure",
    "__version__",
]
