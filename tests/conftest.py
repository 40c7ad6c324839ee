"""Shared random-structure generators for the test suite."""

import numpy as np
import pytest

from chemlm.errors import InvalidLatticeError
from chemlm.structures import (
    RESIDUE_ATOMS, Atom, Crystal, Lattice, Molecule, Pocket, PocketAtom, Site,
)

MOLECULE_ELEMENTS = ["C", "N", "O", "H", "S", "P", "F", "Cl", "Br", "Si", "Se"]
CRYSTAL_ELEMENTS = ["Na", "Cl", "Ca", "Ti", "O", "Sr", "Ba", "F", "K", "Mg", "Zr"]

# the acceptance tests print their summary lines with capture suspended
# through this, so the lines reach the terminal on every run
CAPTURE_MANAGER = None


def pytest_configure(config):
    global CAPTURE_MANAGER
    CAPTURE_MANAGER = config.pluginmanager.get_plugin("capturemanager")


def random_molecule(rng: np.random.Generator) -> Molecule:
    n = int(rng.integers(1, 13))
    atoms = []
    for _ in range(n):
        el = str(rng.choice(MOLECULE_ELEMENTS))
        x, y, z = rng.uniform(-9.99, 9.99, size=3)
        atoms.append(Atom(el, float(x), float(y), float(z)))
    return Molecule(atoms=atoms)


def random_lattice(rng: np.random.Generator) -> Lattice:
    while True:
        a, b, c = rng.uniform(2.0, 12.0, size=3)
        alpha, beta, gamma = rng.uniform(60.0, 120.0, size=3)
        try:
            return Lattice(float(a), float(b), float(c), float(alpha), float(beta), float(gamma))
        except InvalidLatticeError:
            continue


def random_crystal(rng: np.random.Generator) -> Crystal:
    n = int(rng.integers(1, 9))
    sites = [
        Site(str(rng.choice(CRYSTAL_ELEMENTS)), *(float(v) for v in rng.random(3)))
        for _ in range(n)
    ]
    return Crystal(lattice=random_lattice(rng), sites=sites)


def random_pocket(rng: np.random.Generator, n_residues=None) -> Pocket:
    """Residues with exact table compositions (decode relies on that)."""
    codes = sorted(RESIDUE_ATOMS)
    if n_residues is None:
        n_residues = int(rng.integers(2, 6))
    atoms = []
    for ridx in range(1, n_residues + 1):
        code = str(rng.choice(codes))
        center = rng.uniform(-20.0, 20.0, size=3)
        for element, count in sorted(RESIDUE_ATOMS[code].items()):
            for _ in range(count):
                p = center + rng.uniform(-1.5, 1.5, size=3)
                atoms.append(PocketAtom(code, element, ridx, float(p[0]), float(p[1]), float(p[2])))
    return Pocket(atoms=atoms)


def random_structure(rng: np.random.Generator, kind: str):
    if kind == "molecule":
        return random_molecule(rng)
    if kind == "crystal":
        return random_crystal(rng)
    return random_pocket(rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
