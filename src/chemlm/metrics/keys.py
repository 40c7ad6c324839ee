"""Canonical keys for uniqueness and novelty counting.

Molecules are keyed by their perceived bond graph (element-labeled,
coordinates excluded), crystals by composition plus rounded lattice and
sorted rounded sites, pockets by the order their residues appear in.
All hashing is sha256 so keys are stable across processes.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from ..rounding import fmt_fixed
from ..structures import Crystal, Molecule, Pocket, Structure
from .bonds import perceive_bonds


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def molecule_key(molecule: Molecule, perceived=None) -> str:
    """Colour-refinement (1-WL) hash of the element-labeled bond graph.

    Round 0 colours each atom by the rank of its symbol among the sorted
    distinct symbols. Each round then recolours an atom by the rank of
    its signature (colour, *sorted neighbour colours) among the sorted
    distinct signatures, and stops at the first round that adds no
    class: the partition is stable, so later rounds would only rename
    it. Ranks mean nothing outside one molecule, so one sha256 covers
    every round's sorted table plus the final (colour, count) pairs.
    `perceived` is the molecule's (bonds, clashes) when already known.
    """
    symbols = molecule.symbols()
    bonds, _ = perceived or perceive_bonds(molecule)
    neighbours = [[] for _ in symbols]
    for i, j in bonds:
        neighbours[i].append(j)
        neighbours[j].append(i)
    signatures = symbols
    tables = []
    while len(tables) < 2 or len(tables[-1]) > len(tables[-2]):
        table = sorted(set(signatures))
        rank = {sig: r for r, sig in enumerate(table)}
        colours = [rank[sig] for sig in signatures]
        tables.append(table)
        signatures = [
            (colour, *sorted([colours[j] for j in nbrs]))
            for colour, nbrs in zip(colours, neighbours)
        ]
    return "mol:" + _sha(repr((tables, sorted(Counter(colours).items()))))


def composition_formula(symbols) -> str:
    counts = Counter(symbols)
    return " ".join(f"{sym}{counts[sym]}" for sym in sorted(counts))


def crystal_key(crystal: Crystal) -> str:
    lattice = ",".join(fmt_fixed(v, 2) for v in crystal.lattice.params())
    sites = sorted(
        f"{s.symbol}@{fmt_fixed(s.fx, 2)},{fmt_fixed(s.fy, 2)},{fmt_fixed(s.fz, 2)}"
        for s in crystal.sites
    )
    return "xtl:" + composition_formula(crystal.symbols()) + ";" + lattice + ";" + "|".join(sites)


def residue_ordering(pocket: Pocket) -> str:
    return "-".join(code for code, _ in pocket.residues())


def pocket_key(pocket: Pocket) -> str:
    return "pkt:" + residue_ordering(pocket)


def canonical_key(structure: Structure, perceived=None) -> str:
    """The structure's key; `perceived` is a molecule's (bonds, clashes) when already known."""
    if structure.kind == "molecule":
        return molecule_key(structure, perceived)
    if structure.kind == "crystal":
        return crystal_key(structure)
    return pocket_key(structure)


def unique_novel(sample_keys, train_keys) -> tuple[float, float]:
    """(unique%, novel%): distinct/sample and distinct-not-in-train/distinct."""
    sample_keys = list(sample_keys)
    if not sample_keys:
        raise ValueError("empty sample")
    distinct = set(sample_keys)
    train = set(train_keys)
    unique_pct = len(distinct) / len(sample_keys) * 100.0
    novel_pct = len(distinct - train) / len(distinct) * 100.0
    return unique_pct, novel_pct
