"""Pocket pruning: drop whole residues far from a center point.

Used to shrink raw binding-site files down to a target atom-count window
before tokenization. Residues are removed farthest-first (by centroid
distance to the center) and never split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    spans = pocket.residue_spans()
    coords = pocket.coords
    distances = []
    for start, stop in spans:
        # Python's sum adds atom by atom; numpy's pairwise sum can round
        # differently and so change which residue wins a tie
        mx, my, mz = (sum(column) / (stop - start) for column in coords[start:stop].T.tolist())
        distances.append(math.sqrt((mx - cx) ** 2 + (my - cy) ** 2 + (mz - cz) ** 2))

    # farthest first; the last residue is never removed
    order = sorted(range(len(spans)), key=lambda k: (distances[k], k), reverse=True)[:-1]
    keep = np.ones(len(spans), dtype=bool)
    removed = 0
    count = len(pocket)
    for k in order:
        if count <= hi:
            break
        start, stop = spans[k]
        count -= stop - start
        keep[k] = False
        removed += 1
        if count < lo:
            break  # a single large residue overshot the window

    atoms = keep[pocket.residue_index - 1]
    kept = Pocket(
        [s for s, a in zip(pocket.symbols, atoms) if a],
        [r for r, a in zip(pocket.residues, atoms) if a],
        pocket.residue_index[atoms],
        coords[atoms],
    )
    return PruneResult(kept, removed, False)
