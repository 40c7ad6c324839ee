"""Geometric bond perception and molecule validity.

A deliberately simple stand-in for graph-inference tools: bonds come
from covalent-radius distance windows, atoms must hit an allowed valence,
and the bond graph must be connected. No formal charges, no aromaticity.
"""

from __future__ import annotations

import numpy as np

from ..elements import ELEMENTS, data_rows
from ..geometry import pair_distances, upper_pairs
from ..structures import Molecule
from .verdict import Verdict

#: Bonded iff CLASH_FLOOR < d < r_cov(i) + r_cov(j) + BOND_SLACK (Angstrom).
CLASH_FLOOR = 0.4
BOND_SLACK = 0.4


#: Symbol -> the bond counts an atom of that element may have.
VALENCES: dict[str, frozenset[int]] = {
    symbol: frozenset(int(v) for v in states.split())
    for symbol, states in data_rows("valences.csv")
}


#: Atom pairs measured per array op; bounds the (pairs, 3) temporaries.
_PAIRS_PER_BLOCK = 1 << 16

_RADII = {symbol: element.covalent_radius for symbol, element in ELEMENTS.items()}


def perceive_bonds_batch(molecules) -> list:
    """(bond index pairs, clash index pairs) for each molecule.

    Both lists hold (i, j) pairs with i < j in row-major order.
    Molecules with the same atom count are stacked and measured in one
    `pair_distances` op, in blocks of about `_PAIRS_PER_BLOCK` pairs.
    """
    molecules = list(molecules)
    by_size: dict[int, list[int]] = {}
    for index, m in enumerate(molecules):
        by_size.setdefault(len(m), []).append(index)
    perceived = [None] * len(molecules)
    for n, indices in by_size.items():
        i, j = upper_pairs(n)
        per_block = max(1, _PAIRS_PER_BLOCK // max(1, len(i)))
        for start in range(0, len(indices), per_block):
            block = indices[start : start + per_block]
            x = np.stack([molecules[k].coords for k in block])
            radii = np.array([[_RADII[s] for s in molecules[k].symbols] for k in block])
            d = pair_distances(x)
            clash = d < CLASH_FLOOR
            bond = ~clash & (d < radii[:, i] + radii[:, j] + BOND_SLACK)
            pairs = zip(_pairs_by_row(bond, i, j), _pairs_by_row(clash, i, j))
            for k, result in zip(block, pairs):
                perceived[k] = result
    return perceived


def _pairs_by_row(mask: np.ndarray, i: np.ndarray, j: np.ndarray) -> list:
    """Row r's list of (i[p], j[p]) pairs where mask[r, p] holds."""
    _, p = np.nonzero(mask)
    pairs = list(zip(i[p].tolist(), j[p].tolist()))
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    return [pairs[a:b] for a, b in zip([0] + ends[:-1], ends)]


def perceive_bonds(molecule: Molecule):
    """(bond index pairs, clash index pairs) of one molecule; see perceive_bonds_batch."""
    return perceive_bonds_batch([molecule])[0]


def _connected(n: int, bonds) -> bool:
    if n == 1:
        return True
    adjacency = [[] for _ in range(n)]
    for i, j in bonds:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for k in adjacency[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == n


def molecule_validity(molecule: Molecule, perceived=None) -> Verdict:
    """Three-stage check: no clashes, valences satisfied, graph connected.

    `perceived` is the molecule's (bonds, clashes) when already known.
    """
    symbols = molecule.symbols
    for sym in set(symbols):
        if sym not in VALENCES:
            return Verdict.fail(f"no valence data for element {sym}")

    bonds, clashes = perceived or perceive_bonds(molecule)
    if clashes:
        i, j = clashes[0]
        return Verdict.fail(f"clash: atoms {i} and {j} closer than {CLASH_FLOOR} A")

    degree = [0] * len(symbols)
    for i, j in bonds:
        degree[i] += 1
        degree[j] += 1
    for i, sym in enumerate(symbols):
        if degree[i] not in VALENCES[sym]:
            allowed = sorted(VALENCES[sym])
            return Verdict.fail(
                f"valence: atom {i} ({sym}) has {degree[i]} bonds, allowed {allowed}"
            )

    if not _connected(len(symbols), bonds):
        return Verdict.fail("disconnected bond graph")
    return Verdict.ok()
