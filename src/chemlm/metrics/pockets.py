"""Pocket validity checks: residue composition and inter-residue overlap."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ..errors import ConfigError
from ..geometry import pair_distances, upper_pairs
from ..structures import RESIDUE_ATOMS, Pocket
from .verdict import Verdict

#: Inter-residue atom pairs closer than this fail the overlap check. The
#: peptide-bond C-N distance of about 1.33 A passes by design.
DEFAULT_OVERLAP_THRESHOLD = 1.1


def pocket_residue_check(pocket: Pocket) -> Verdict:
    """Each residue's heavy-atom multiset must equal its table entry exactly.

    A failing verdict's reason lists each failing residue, like
    "GLY@3: missing O", joined by "; ".
    """
    reasons = []
    for start, stop in pocket.residue_spans():
        code = pocket.residues[start]
        index = pocket.residue_index[start]
        expected = RESIDUE_ATOMS[code]  # a Pocket admits canonical codes only
        have = Counter(pocket.symbols[start:stop])
        problems = []
        for element in sorted(set(expected) | set(have)):
            gap = have[element] - expected.get(element, 0)
            if gap:
                word = "missing" if gap < 0 else "extra"
                problems.append(f"{word} {element}" if abs(gap) == 1 else f"{word} {abs(gap)} {element}")
        if problems:
            reasons.append(f"{code}@{index}: " + ", ".join(problems))
    return Verdict.fail("; ".join(reasons)) if reasons else Verdict.ok()


def pocket_overlap_check(
    pocket: Pocket, threshold: float = DEFAULT_OVERLAP_THRESHOLD
) -> Verdict:
    """Fail iff atoms of different residues come closer than `threshold`."""
    if not 0 < threshold < math.inf:
        raise ConfigError(f"overlap threshold must be positive and finite, got {threshold}")
    first, second = upper_pairs(len(pocket))
    d = pair_distances(pocket.coords)
    residue = pocket.residue_index
    flagged = np.flatnonzero((residue[first] != residue[second]) & (d < threshold))
    if flagged.size:
        k = flagged[0]
        i, j = first[k], second[k]
        labels = pocket.labels
        return Verdict.fail(
            f"atoms {i} ({labels[i]}@{residue[i]}) and "
            f"{j} ({labels[j]}@{residue[j]}) "
            f"at {d[k]:.3f} A, below {threshold} A"
        )
    return Verdict.ok()
