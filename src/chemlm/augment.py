"""Rotation augmentation for training structures.

Molecules and pockets get a uniform random rotation about their
centroid. Rotating fractional coordinates would break the lattice
frame, so crystals instead get an optional cyclic origin shift of the
fractional coordinates, off by default.
"""

from __future__ import annotations

import numpy as np

from .geometry import centroid
from .structures import Crystal


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform over SO(3) via a normalized 4-normal quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotate_about_center(structure, R: np.ndarray):
    """p <- R (p - centroid) + centroid; crystals are rejected."""
    if isinstance(structure, Crystal):
        raise ValueError("crystals cannot be rotated; use shift_origin instead")
    points = np.array(structure.coords())
    c = centroid(points)
    return structure.with_coords((points - c) @ R.T + c)


def shift_origin(crystal: Crystal, shift) -> Crystal:
    """Cyclic shift of fractional coordinates, f <- f + u mod 1."""
    u = np.asarray(shift, dtype=float)
    return crystal.with_coords((np.array(crystal.coords()) + u) % 1.0)


def augment_structure(structure, rng: np.random.Generator, crystal_shift: bool = False):
    """One fresh augmentation: a molecule or pocket rotated about its
    centroid, a crystal's origin shifted if `crystal_shift` is set and
    the crystal itself otherwise."""
    if isinstance(structure, Crystal):
        return shift_origin(structure, rng.random(3)) if crystal_shift else structure
    return rotate_about_center(structure, random_rotation(rng))
