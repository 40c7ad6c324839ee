"""Geometric operations on structures.

Covers the lattice algebra (cell volume, the cell matrix,
minimum-image distances), the distances of a point set's pairs, and
small helpers like centroids and molecular weight.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .elements import get_element
from .structures import Crystal, Lattice, Molecule


def cell_volume(lattice: Lattice) -> float:
    """Unit-cell volume in cubic Angstrom.

    V = a b c sqrt(1 - cos^2(alpha) - cos^2(beta) - cos^2(gamma)
                   + 2 cos(alpha) cos(beta) cos(gamma))
    """
    return lattice.a * lattice.b * lattice.c * math.sqrt(lattice.volume_radicand())


def lattice_matrix(lattice: Lattice) -> np.ndarray:
    """Row-vector cell matrix, shape (3, 3).

    Row i is lattice vector i in Cartesian coordinates, with the
    conventional orientation: a along +x, b in the xy-plane with positive
    y component.
    """
    a, b, c = lattice.a, lattice.b, lattice.c
    alpha = math.radians(lattice.alpha)
    beta = math.radians(lattice.beta)
    gamma = math.radians(lattice.gamma)
    ca, cb, cg = math.cos(alpha), math.cos(beta), math.cos(gamma)
    sg = math.sin(gamma)
    cx = c * cb
    cy = c * (ca - cb * cg) / sg
    cz_sq = c * c - cx * cx - cy * cy
    cz = math.sqrt(max(cz_sq, 0.0))
    return np.array(
        [
            [a, 0.0, 0.0],
            [b * cg, b * sg, 0.0],
            [cx, cy, cz],
        ]
    )


_IMAGE_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-2, -1, 0, 1, 2) for dy in (-2, -1, 0, 1, 2) for dz in (-2, -1, 0, 1, 2)],
    dtype=float,
)


def min_image_distance(lattice: Lattice, frac_i, frac_j) -> float | np.ndarray:
    """Shortest distance between two fractional sites under periodicity.

    Checks the 125 lattice translations with offsets in {-2 .. 2} on each
    axis. The wider shell keeps the search exact even for strongly skewed
    cells where the nearest image falls outside the neighboring cells.

    `frac_i` and `frac_j` are triples, or arrays of triples whose leading
    axes broadcast: two triples give a float, arrays give one distance
    per broadcast pair.
    """
    m = lattice_matrix(lattice)
    fi = np.asarray(frac_i, dtype=float)[..., None, :]
    fj = np.asarray(frac_j, dtype=float)[..., None, :]
    deltas = (fj + _IMAGE_OFFSETS - fi) @ m
    d = np.min(np.linalg.norm(deltas, axis=-1), axis=-1)
    return float(d) if d.ndim == 0 else d


def centroid(positions) -> np.ndarray:
    """Arithmetic mean of a list of 3D points."""
    return np.asarray(positions, dtype=float).mean(axis=0)


def molecular_weight(molecule: Molecule) -> float:
    """Sum of atomic masses in g/mol."""
    return sum(get_element(s).mass for s in molecule.symbols)


#: g/mol per A^3 to g/cm^3.
_DENSITY_FACTOR = 1.66053907


def crystal_density(crystal: Crystal) -> float:
    """Mass density in g/cm^3 from cell contents and cell volume."""
    mass = sum(get_element(s).mass for s in crystal.symbols)
    return mass / cell_volume(crystal.lattice) * _DENSITY_FACTOR


@functools.lru_cache(maxsize=64)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (i, j) index arrays of the pairs i < j among n points.

    Cached per n and shared between callers, so the arrays are read-only.
    """
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def pair_distances(x) -> np.ndarray:
    """Distances [..., n (n - 1) / 2] of the pairs i < j of points `x` [..., n, 3]
    in `upper_pairs(n)` order: difference, sum of squares, square root."""
    x = np.asarray(x, dtype=float)
    i, j = upper_pairs(x.shape[-2])
    diff = x[..., i, :] - x[..., j, :]
    return np.sqrt((diff * diff).sum(axis=-1))
