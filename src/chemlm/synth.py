"""Synthetic corpus generators for desk-scale runs.

These are stand-ins for real datasets, not chemical ground truth: the
construction rules below exist so that training and evaluation can run
end to end with structures whose validity is known by construction.

Molecules: heavy-atom chains (C/N/O) in an ideal tetrahedral zig-zag,
hydrogens completing each valence, then a small coordinate jitter and
a uniform random rotation. Bond perception recovers exactly the
intended bonds, so validity holds by construction.

Perovskites: cubic ABX3 cells, 5 sites, with the A/B/X elements drawn
from charge-neutral template families and the cell edge on a 0.01 A
grid. Shortest interatomic distance is a/2, far above the validity
threshold.

Pockets: canonical residues with table-correct heavy-atom compositions,
clustered within 1.5 A of centers spaced 5 A along a random axis, so
residues never overlap.
"""

from __future__ import annotations

import math

import numpy as np

from .augment import random_rotation
from .metrics.bonds import molecule_validity
from .structures import RESIDUE_ATOMS, Crystal, Lattice, Molecule, Pocket

BOND_CC = 1.54
BOND_CH = 1.09
COS_TET = -1.0 / 3.0

_HEAVY_VALENCE = {"C": 4, "N": 3, "O": 2}

A_SITES_OXIDE = ("Ca", "Sr", "Ba")
B_SITES_OXIDE = ("Ti", "Zr", "Sn")
A_SITES_FLUORIDE = ("Na", "K", "Rb", "Cs")
B_SITES_FLUORIDE = ("Mg", "Ca")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit, without its per-call
    overhead: each component is one product difference in float64."""
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def _orthonormal_to(v: np.ndarray):
    """Two unit vectors completing v to a right-handed frame."""
    helper = np.array([1.0, 0.0, 0.0])
    if abs(v[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = _cross(v, helper)
    u /= np.linalg.norm(u)
    w = _cross(v, u)
    return u, w


def _chain_positions(n: int) -> np.ndarray:
    # ideal 109.47 deg zig-zag in the xy plane
    c = math.sqrt(2.0 / 3.0)
    s = math.sqrt(1.0 / 3.0)
    pos = [np.zeros(3)]
    for i in range(1, n):
        step = np.array([c, s if i % 2 else -s, 0.0]) * BOND_CC
        pos.append(pos[-1] + step)
    return np.array(pos)


def _hydrogen_directions(bond_dirs) -> list:
    """Unit directions completing a tetrahedral coordination."""
    if len(bond_dirs) == 1:
        b = bond_dirs[0]
        u, w = _orthonormal_to(b)
        out = []
        for k in range(3):
            ang = 2.0 * math.pi * k / 3.0
            radial = math.cos(ang) * u + math.sin(ang) * w
            out.append(COS_TET * b + math.sqrt(1.0 - COS_TET**2) * radial)
        return out
    b1, b2 = bond_dirs
    s = b1 + b2
    s /= np.linalg.norm(s)
    w = _cross(b1, b2)
    w /= np.linalg.norm(w)
    a = math.sqrt(1.0 / 3.0)
    cw = math.sqrt(1.0 - a * a)
    return [-a * s + cw * w, -a * s - cw * w]


def synth_molecule(rng: np.random.Generator) -> Molecule:
    """One valid chain molecule; redraws if jitter breaks validity."""
    for _ in range(50):
        n_heavy = int(rng.integers(3, 9))
        elements = [str(rng.choice(["C", "C", "C", "N", "O"])) for _ in range(n_heavy)]
        heavy = _chain_positions(n_heavy)
        atoms = []
        hydrogens = []
        for i, (el, p) in enumerate(zip(elements, heavy)):
            atoms.append((el, p))
            dirs = []
            if i > 0:
                d = heavy[i - 1] - p
                dirs.append(d / np.linalg.norm(d))
            if i < n_heavy - 1:
                d = heavy[i + 1] - p
                dirs.append(d / np.linalg.norm(d))
            n_h = _HEAVY_VALENCE[el] - len(dirs)
            for h_dir in _hydrogen_directions(dirs)[:n_h]:
                hydrogens.append(("H", p + BOND_CH * h_dir))
        atoms.extend(hydrogens)
        coords = np.array([p for _, p in atoms])
        coords = coords - coords.mean(axis=0)
        coords = coords + rng.uniform(-0.03, 0.03, size=coords.shape)
        R = random_rotation(rng)
        coords = coords @ R.T
        mol = Molecule([el for el, _ in atoms], coords)
        if molecule_validity(mol):
            return mol
    raise RuntimeError("molecule generator failed to produce a valid structure")


def synth_perovskite(rng: np.random.Generator) -> Crystal:
    if rng.random() < 0.5:
        a_el = str(rng.choice(A_SITES_OXIDE))
        b_el = str(rng.choice(B_SITES_OXIDE))
        x_el = "O"
    else:
        a_el = str(rng.choice(A_SITES_FLUORIDE))
        b_el = str(rng.choice(B_SITES_FLUORIDE))
        x_el = "F"
    a = round(float(rng.uniform(3.8, 4.6)), 2)
    lattice = Lattice(a=a, b=a, c=a, alpha=90.0, beta=90.0, gamma=90.0)
    coords = [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)]
    return Crystal(lattice, (a_el, b_el, x_el, x_el, x_el), coords)


def synth_pocket(rng: np.random.Generator, n_residues=None) -> Pocket:
    """Residues with exact table compositions, centers 5 A apart."""
    codes = sorted(RESIDUE_ATOMS)
    if n_residues is None:
        n_residues = int(rng.integers(6, 11))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    atoms = []
    for ridx in range(1, n_residues + 1):
        code = str(rng.choice(codes))
        center = axis * 5.0 * (ridx - 1) + rng.uniform(-0.3, 0.3, size=3)
        placed = []
        for element, count in sorted(RESIDUE_ATOMS[code].items()):
            for _ in range(count):
                for _ in range(100):
                    d = rng.normal(size=3)
                    d /= np.linalg.norm(d)
                    p = center + d * rng.uniform(0.5, 1.5)
                    if all(np.linalg.norm(p - q) > 0.6 for q in placed):
                        break
                placed.append(p)
                atoms.append((element, code, ridx, p))
    return Pocket(*zip(*atoms))


def synth_corpus(kind: str, n: int, seed: int, **kwargs) -> list:
    rng = np.random.default_rng(seed)
    if kind == "molecule":
        return [synth_molecule(rng) for _ in range(n)]
    if kind == "perovskite":
        return [synth_perovskite(rng) for _ in range(n)]
    if kind == "pocket":
        return [synth_pocket(rng, **kwargs) for _ in range(n)]
    raise ValueError(f"unknown synthetic corpus kind: {kind}")
