"""Pocket validity checks: residue composition and inter-residue overlap."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ..errors import ConfigError
from ..geometry import pairwise_distances, upper_pairs
from ..structures import RESIDUE_ATOMS, Pocket
from .verdict import Verdict

#: Inter-residue atom pairs closer than this fail the overlap check. The
#: peptide-bond C-N distance of about 1.33 A passes by design.
DEFAULT_OVERLAP_THRESHOLD = 1.1


def pocket_residue_check(pocket: Pocket) -> tuple[bool, list[str]]:
    """Each residue's heavy-atom multiset must equal its table entry exactly.

    Returns the overall verdict plus one reason per failing residue, like
    "GLY@3: missing O".
    """
    reasons = []
    for code, atoms in pocket.residues():
        index = atoms[0].residue_index
        expected = RESIDUE_ATOMS[code]  # PocketAtom admits canonical codes only
        have = Counter(a.element for a in atoms)
        problems = []
        for element in sorted(set(expected) | set(have)):
            want = expected.get(element, 0)
            got = have.get(element, 0)
            if got < want:
                problems.append(f"missing {element}" if want - got == 1 else f"missing {want - got} {element}")
            elif got > want:
                problems.append(f"extra {element}" if got - want == 1 else f"extra {got - want} {element}")
        if problems:
            reasons.append(f"{code}@{index}: " + ", ".join(problems))
    return (not reasons), reasons


def pocket_overlap_check(
    pocket: Pocket, threshold: float = DEFAULT_OVERLAP_THRESHOLD
) -> Verdict:
    """Fail iff atoms of different residues come closer than `threshold`."""
    if not 0 < threshold < math.inf:
        raise ConfigError(f"overlap threshold must be positive and finite, got {threshold}")
    atoms = pocket.atoms
    first, second = upper_pairs(len(atoms))
    d = pairwise_distances(pocket.coords())[first, second]
    residue = np.array([a.residue_index for a in atoms])
    flagged = np.flatnonzero((residue[first] != residue[second]) & (d < threshold))
    if flagged.size:
        k = flagged[0]
        i, j = first[k], second[k]
        return Verdict.fail(
            f"atoms {i} ({atoms[i].indicator}@{atoms[i].residue_index}) and "
            f"{j} ({atoms[j].indicator}@{atoms[j].residue_index}) "
            f"at {d[k]:.3f} A, below {threshold} A"
        )
    return Verdict.ok()
