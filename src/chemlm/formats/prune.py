"""Pocket pruning: drop whole residues far from a center point.

Used to shrink raw binding-site files down to a target atom-count window
before tokenization. Residues are removed farthest-first (by centroid
distance to the center) and never split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..structures import Pocket


@dataclass(frozen=True)
class PruneResult:
    pocket: Pocket
    removed_residues: int
    below_min: bool
    """True when the input was already smaller than the range minimum."""


def prune_pocket(
    pocket: Pocket,
    center: tuple[float, float, float],
    target_atoms: tuple[int, int] = (200, 250),
) -> PruneResult:
    """Remove farthest residues until the atom count is at most the range max.

    Ties in centroid distance are broken by removing the larger residue
    index first. Removal that would land below the range minimum is still
    applied when the count is above the maximum (there is no way to hit
    the window with whole residues), and the loop stops there. A pocket
    that starts below the minimum comes back unchanged with a warning
    flag instead.
    """
    lo, hi = target_atoms
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad target range [{lo}, {hi}]")
    if len(pocket) < lo:
        return PruneResult(pocket, 0, True)

    cx, cy, cz = (float(v) for v in center)
    groups = {}
    for atom in pocket.atoms:
        groups.setdefault(atom.residue_index, []).append(atom)

    def distance(index: int) -> float:
        members = groups[index]
        mx = sum(a.x for a in members) / len(members)
        my = sum(a.y for a in members) / len(members)
        mz = sum(a.z for a in members) / len(members)
        return math.sqrt((mx - cx) ** 2 + (my - cy) ** 2 + (mz - cz) ** 2)

    removed = 0
    count = len(pocket)
    while count > hi and len(groups) > 1:
        index = max(groups, key=lambda i: (distance(i), i))
        count -= len(groups.pop(index))
        removed += 1
        if count < lo:
            break  # a single large residue overshot the window

    kept = tuple(a for a in pocket.atoms if a.residue_index in groups)
    return PruneResult(Pocket(kept), removed, False)
