"""Domain types: molecules, crystals, and protein pockets.

All three are point clouds of atoms. Molecules and pockets carry Cartesian
coordinates in Angstrom; crystals carry fractional coordinates inside a
periodic lattice. Instances are immutable and validated on construction.

Every type names its kind in the class attribute `kind` ("molecule",
"crystal" or "pocket"; `KINDS` lists them) and exposes the same per-atom
layout: `labels()` (the atom token: element symbol, or residue-atom
indicator for pockets), `coords()` (the stored triples) and
`with_coords(triples)` (a copy with new coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .elements import data_rows, get_element
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


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} has non-finite coordinate {v!r}")


@dataclass(frozen=True)
class Atom:
    """One atom of a molecule: element symbol plus Cartesian position (A)."""

    symbol: str
    x: float
    y: float
    z: float

    def __post_init__(self):
        get_element(self.symbol)
        _require_finite("atom", self.x, self.y, self.z)


@dataclass(frozen=True)
class Molecule:
    kind: ClassVar[str] = "molecule"
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) == 0:
            raise ValueError("a molecule needs at least one atom")

    def __len__(self) -> int:
        return len(self.atoms)

    def symbols(self) -> list[str]:
        return [a.symbol for a in self.atoms]

    labels = symbols

    def coords(self) -> list[tuple[float, float, float]]:
        return [(a.x, a.y, a.z) for a in self.atoms]

    def with_coords(self, triples) -> "Molecule":
        return Molecule(
            tuple(Atom(a.symbol, x, y, z) for a, (x, y, z) in zip(self.atoms, triples))
        )


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


def wrap_frac(f: float) -> float:
    """Wrap a fractional coordinate into [0, 1)."""
    w = f - math.floor(f)
    return 0.0 if w >= 1.0 else w  # floor rounding can land exactly on 1.0


@dataclass(frozen=True)
class Site:
    """One crystal site: element symbol plus fractional coordinates in [0, 1)."""

    symbol: str
    fx: float
    fy: float
    fz: float

    def __post_init__(self):
        get_element(self.symbol)
        _require_finite("site", self.fx, self.fy, self.fz)
        object.__setattr__(self, "fx", wrap_frac(self.fx))
        object.__setattr__(self, "fy", wrap_frac(self.fy))
        object.__setattr__(self, "fz", wrap_frac(self.fz))


@dataclass(frozen=True)
class Crystal:
    kind: ClassVar[str] = "crystal"
    lattice: Lattice
    sites: tuple[Site, ...]

    def __post_init__(self):
        if not isinstance(self.sites, tuple):
            object.__setattr__(self, "sites", tuple(self.sites))
        if len(self.sites) == 0:
            raise ValueError("a crystal needs at least one site")

    def __len__(self) -> int:
        return len(self.sites)

    def symbols(self) -> list[str]:
        return [s.symbol for s in self.sites]

    labels = symbols

    def coords(self) -> list[tuple[float, float, float]]:
        """Fractional coordinates, one triple per site."""
        return [(s.fx, s.fy, s.fz) for s in self.sites]

    def with_coords(self, triples) -> "Crystal":
        """Same lattice, new fractional coordinates (wrapped into [0, 1))."""
        return Crystal(
            self.lattice,
            tuple(Site(s.symbol, x, y, z) for s, (x, y, z) in zip(self.sites, triples)),
        )


@dataclass(frozen=True)
class PocketAtom:
    """One pocket atom: residue-atom indicator plus Cartesian position (A).

    `residue` is a canonical 3-letter code and `residue_index` groups atoms
    into residues (1-based, consecutive in file order).
    """

    residue: str
    element: str
    residue_index: int
    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.residue not in CANONICAL_RESIDUES:
            raise ValueError(f"non-canonical residue code: {self.residue!r}")
        get_element(self.element)
        _require_finite("pocket atom", self.x, self.y, self.z)

    @property
    def indicator(self) -> str:
        """Combined residue-element indicator, e.g. "CYS-S"."""
        return f"{self.residue}-{self.element}"


@dataclass(frozen=True)
class Pocket:
    kind: ClassVar[str] = "pocket"
    atoms: tuple[PocketAtom, ...]

    def __post_init__(self):
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) == 0:
            raise ValueError("a pocket needs at least one residue")
        # Renumber residues 1..k in order of appearance; reject interleaving
        # and one index spanning two residue codes.
        codes: dict[int, str] = {}
        renumbered = []
        last_orig = None
        for atom in self.atoms:
            orig = atom.residue_index
            if orig != last_orig:
                if orig in codes:
                    raise ValueError(
                        f"residue index {orig} is not contiguous in the atom list"
                    )
                codes[orig] = atom.residue
                last_orig = orig
            elif codes[orig] != atom.residue:
                raise ValueError(
                    f"residue index {orig} mixes codes "
                    f"{codes[orig]} and {atom.residue}"
                )
            new_index = len(codes)
            if new_index != orig:
                atom = PocketAtom(
                    atom.residue, atom.element, new_index, atom.x, atom.y, atom.z
                )
            renumbered.append(atom)
        object.__setattr__(self, "atoms", tuple(renumbered))

    def __len__(self) -> int:
        return len(self.atoms)

    def residues(self) -> list[tuple[str, list[PocketAtom]]]:
        """Group atoms by residue, in order of appearance."""
        groups: list[tuple[str, list[PocketAtom]]] = []
        for atom in self.atoms:
            if groups and groups[-1][1][-1].residue_index == atom.residue_index:
                groups[-1][1].append(atom)
            else:
                groups.append((atom.residue, [atom]))
        return groups

    def n_residues(self) -> int:
        return len({a.residue_index for a in self.atoms})

    def symbols(self) -> list[str]:
        return [a.element for a in self.atoms]

    def labels(self) -> list[str]:
        return [a.indicator for a in self.atoms]

    def coords(self) -> list[tuple[float, float, float]]:
        return [(a.x, a.y, a.z) for a in self.atoms]

    def with_coords(self, triples) -> "Pocket":
        """Same residues and numbering, new Cartesian coordinates."""
        return Pocket(
            tuple(
                PocketAtom(a.residue, a.element, a.residue_index, x, y, z)
                for a, (x, y, z) in zip(self.atoms, triples)
            )
        )


Structure = Union[Molecule, Crystal, Pocket]

KINDS: tuple[str, ...] = (Molecule.kind, Crystal.kind, Pocket.kind)
