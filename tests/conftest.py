"""Shared random-structure generators for the test suite."""

import numpy as np
import pytest

from chemlm.errors import InvalidLatticeError
from chemlm.structures import (
    RESIDUE_ATOMS, Crystal, Lattice, Molecule, Pocket,
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
    symbols = []
    coords = []
    for _ in range(n):
        symbols.append(str(rng.choice(MOLECULE_ELEMENTS)))
        coords.append(rng.uniform(-9.99, 9.99, size=3))
    return Molecule(symbols, coords)


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
    symbols = []
    coords = []
    for _ in range(n):
        symbols.append(str(rng.choice(CRYSTAL_ELEMENTS)))
        coords.append(rng.random(3))
    return Crystal(random_lattice(rng), symbols, coords)


def random_pocket(rng: np.random.Generator, n_residues=None) -> Pocket:
    """Residues with exact table compositions (decode relies on that)."""
    codes = sorted(RESIDUE_ATOMS)
    if n_residues is None:
        n_residues = int(rng.integers(2, 6))
    symbols = []
    residues = []
    indices = []
    coords = []
    for ridx in range(1, n_residues + 1):
        code = str(rng.choice(codes))
        center = rng.uniform(-20.0, 20.0, size=3)
        for element, count in sorted(RESIDUE_ATOMS[code].items()):
            for _ in range(count):
                symbols.append(element)
                residues.append(code)
                indices.append(ridx)
                coords.append(center + rng.uniform(-1.5, 1.5, size=3))
    return Pocket(symbols, residues, indices, coords)


def pocket_of(rows) -> Pocket:
    """A pocket from (code, element, index, (x, y, z)) rows."""
    codes, elements, indices, coords = zip(*rows)
    return Pocket(elements, codes, indices, coords)


def random_structure(rng: np.random.Generator, kind: str):
    if kind == "molecule":
        return random_molecule(rng)
    if kind == "crystal":
        return random_crystal(rng)
    return random_pocket(rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
