"""Geometric bond perception and molecule validity.

A deliberately simple stand-in for graph-inference tools: bonds come
from covalent-radius distance windows, atoms must hit an allowed valence,
and the bond graph must be connected. No formal charges, no aromaticity.
"""

from __future__ import annotations

import functools

import numpy as np

from ..elements import data_rows, get_element
from ..geometry import pairwise_distances
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


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int):
    """Row-major (i, j) index arrays of the pairs i < j among n atoms."""
    return np.triu_indices(n, k=1)


def perceive_bonds(molecule: Molecule):
    """Return (bond index pairs, clash index pairs) from the distance matrix.

    Both lists hold (i, j) pairs with i < j in row-major order.
    """
    d = pairwise_distances(molecule.coords())
    radii = np.array([get_element(s).covalent_radius for s in molecule.symbols()])
    i, j = _upper_pairs(len(radii))
    dij = d[i, j]
    clash = dij < CLASH_FLOOR
    bond = ~clash & (dij < radii[i] + radii[j] + BOND_SLACK)
    return (
        list(zip(i[bond].tolist(), j[bond].tolist())),
        list(zip(i[clash].tolist(), j[clash].tolist())),
    )


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


def molecule_validity(molecule: Molecule) -> Verdict:
    """Three-stage check: no clashes, valences satisfied, graph connected."""
    symbols = molecule.symbols()
    for sym in set(symbols):
        if sym not in VALENCES:
            return Verdict.fail(f"no valence data for element {sym}")

    bonds, clashes = perceive_bonds(molecule)
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
