"""Domain types: molecules, crystals, and protein pockets.

A structure is its file: one element symbol per atom, held as a tuple,
and one read-only [n, 3] float64 coordinate array. Molecules and pockets
hold Cartesian coordinates in Angstrom; crystals hold fractional
coordinates in [0, 1) plus their `Lattice`; pockets also hold each atom's
residue code and residue index (1..k, in order of appearance).
Instances are immutable and validated on construction, in bulk.

Every type names its kind in the class attribute `kind` ("molecule",
"crystal" or "pocket"; `KINDS` lists them) and has the same layout:
`symbols`, `coords`, `labels` (the atom tokens: element symbols, or
residue-atom indicators for pockets) and `with_coords(coords)` (a copy
with new coordinates). Two structures are equal, as a bool, when they
are of one type and every field holds the same values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .elements import ELEMENTS, data_rows, get_element
from .errors import InvalidLatticeError

#: The 20 canonical amino-acid residue codes.
CANONICAL_RESIDUES: frozenset[str] = frozenset(
    [
        "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
        "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL",
    ]
)


#: Residue code -> heavy-atom element counts, e.g. GLY -> {C: 2, N: 1, O: 1}.
RESIDUE_ATOMS: dict[str, dict[str, int]] = {
    code: {element: int(n) for element, n in (pair.split(":") for pair in spec.split())}
    for code, spec in data_rows("residue_atoms.csv")
}


def _symbols(symbols, empty: str) -> tuple[str, ...]:
    """`symbols` as a tuple of element symbols; ValueError(`empty`) if none."""
    symbols = tuple(symbols)
    if not symbols:
        raise ValueError(empty)
    if not ELEMENTS.keys() >= set(symbols):
        get_element(next(s for s in symbols if s not in ELEMENTS))  # raises
    return symbols


def _coords(coords, n: int, what: str) -> np.ndarray:
    """A float64 copy of `coords`, checked to be n finite rows of three."""
    a = np.array(coords, dtype=np.float64)
    if a.shape != (n, 3):
        raise ValueError(f"{what} coordinates must have shape ({n}, 3), got {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"{what} has non-finite coordinate {float(a[~finite][0])!r}")
    return a


def wrap_frac(f: np.ndarray) -> np.ndarray:
    """Fractional coordinates wrapped into [0, 1), elementwise and in place.

    Each value becomes f - floor(f) with the bits of Python's
    `f - math.floor(f)`, whose int floor has no negative zero: -0.0 stays -0.0.
    A value that floor rounding lands exactly on 1.0 becomes 0.0.
    """
    floor = np.floor(f)
    floor += 0.0  # -0.0 -> 0.0
    f -= floor
    f[f >= 1.0] = 0.0
    return f


def _text(value) -> str:
    """The repr of a field, arrays as nested tuples of full-precision floats."""
    if isinstance(value, np.ndarray):
        return repr(tuple(map(tuple, value.tolist())) if value.ndim == 2 else tuple(value.tolist()))
    return repr(value)


class _Points:
    """Equality, repr, length, labels and `with_coords` shared by the structure types."""

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name))
                         for f in dataclasses.fields(self))
        )

    __hash__ = None

    def _set(self, **fields) -> None:
        """Store validated fields, arrays read-only."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f.name}={_text(getattr(self, f.name))}"
                           for f in dataclasses.fields(self))
        return f"{type(self).__name__}({fields})"

    @property
    def labels(self) -> tuple[str, ...]:
        return self.symbols

    def with_coords(self, coords):
        """Same atoms (and lattice or residues), new coordinates."""
        return dataclasses.replace(self, coords=coords)


@dataclass(frozen=True, eq=False, repr=False)
class Molecule(_Points):
    kind: ClassVar[str] = "molecule"
    symbols: tuple[str, ...]
    coords: np.ndarray

    def __post_init__(self):
        symbols = _symbols(self.symbols, "a molecule needs at least one atom")
        self._set(symbols=symbols, coords=_coords(self.coords, len(symbols), "atom"))


@dataclass(frozen=True)
class Lattice:
    """Unit-cell edge lengths (A) and angles (degrees).

    Construction rejects parameter sets whose angle triple is not
    geometrically realizable (the cell-volume radicand must be positive).
    """

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidLatticeError(f"cell length {name}={v!r} must be positive")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 < v < 180.0):
                raise InvalidLatticeError(
                    f"cell angle {name}={v!r} must lie in (0, 180) degrees"
                )
        if self.volume_radicand() <= 0.0:
            raise InvalidLatticeError(
                f"angle triple ({self.alpha}, {self.beta}, {self.gamma}) "
                "does not define a realizable cell"
            )

    def volume_radicand(self) -> float:
        ca = math.cos(math.radians(self.alpha))
        cb = math.cos(math.radians(self.beta))
        cg = math.cos(math.radians(self.gamma))
        return 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg

    def params(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.alpha, self.beta, self.gamma)


@dataclass(frozen=True, eq=False, repr=False)
class Crystal(_Points):
    """Sites in fractional coordinates, wrapped into [0, 1) on construction."""

    kind: ClassVar[str] = "crystal"
    lattice: Lattice
    symbols: tuple[str, ...]
    coords: np.ndarray

    def __post_init__(self):
        symbols = _symbols(self.symbols, "a crystal needs at least one site")
        self._set(symbols=symbols, coords=wrap_frac(_coords(self.coords, len(symbols), "site")))


@dataclass(frozen=True, eq=False, repr=False)
class Pocket(_Points):
    """Heavy atoms grouped into residues.

    `residues` holds each atom's canonical 3-letter code and
    `residue_index` each atom's residue number. The atoms of one residue
    are contiguous; construction renumbers the residues 1..k in order of
    appearance.
    """

    kind: ClassVar[str] = "pocket"
    symbols: tuple[str, ...]
    residues: tuple[str, ...]
    residue_index: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        residues = tuple(self.residues)
        if not CANONICAL_RESIDUES >= set(residues):
            code = next(r for r in residues if r not in CANONICAL_RESIDUES)
            raise ValueError(f"non-canonical residue code: {code!r}")
        symbols = _symbols(self.symbols, "a pocket needs at least one residue")
        n = len(symbols)
        index = np.array(self.residue_index, dtype=np.int64)
        if len(residues) != n or index.shape != (n,):
            raise ValueError(f"a pocket of {n} atoms needs {n} residue codes and indices")
        self._set(symbols=symbols, residues=residues, residue_index=_renumber(index, residues),
                  coords=_coords(self.coords, n, "pocket atom"))

    @property
    def labels(self) -> tuple[str, ...]:
        """Combined residue-element indicators, e.g. "CYS-S"."""
        return tuple(map("{}-{}".format, self.residues, self.symbols))

    def residue_spans(self) -> list[tuple[int, int]]:
        """The (start, stop) atom range of each residue, in order."""
        starts = np.flatnonzero(np.diff(self.residue_index, prepend=0)).tolist()
        return list(zip(starts, starts[1:] + [len(self)]))

    def n_residues(self) -> int:
        return int(self.residue_index[-1])


def _renumber(index: np.ndarray, codes: tuple[str, ...]) -> np.ndarray:
    """Residue numbers 1..k in order of appearance for the per-atom
    `index`, rejecting an index that recurs after another one and one
    index spanning two residue codes; the first offending atom decides."""
    new = np.empty(len(index), dtype=bool)
    new[0] = True
    np.not_equal(index[1:], index[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    _, first = np.unique(index[starts], return_index=True)
    recurring = np.delete(starts, first)  # runs whose index an earlier run had
    code = np.array(codes)
    mixing = np.flatnonzero(~new[1:] & (code[1:] != code[:-1])) + 1
    if recurring.size and not (mixing.size and mixing[0] < recurring[0]):
        raise ValueError(f"residue index {index[recurring[0]]} is not contiguous in the atom list")
    if mixing.size:
        i = mixing[0]
        raise ValueError(f"residue index {index[i]} mixes codes {codes[i - 1]} and {codes[i]}")
    return np.cumsum(new)


Structure = Union[Molecule, Crystal, Pocket]

KINDS: tuple[str, ...] = (Molecule.kind, Crystal.kind, Pocket.kind)
