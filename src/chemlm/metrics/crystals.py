"""Crystal validity checks and scalar properties."""

from __future__ import annotations

import functools
import itertools
from collections import Counter

import numpy as np

from ..elements import data_rows
from ..geometry import lattice_matrix, min_image_distance, upper_pairs
from ..structures import Crystal
from .verdict import Verdict

#: Minimum allowed distance between any two atoms, periodic images included.
MIN_ATOM_DISTANCE = 0.5

#: Symbol -> the oxidation states an element may take.
OXIDATION_STATES: dict[str, tuple[int, ...]] = {
    symbol: tuple(int(v) for v in states.split())
    for symbol, states in data_rows("oxidation_states.csv")
}


#: The 26 nonzero lattice offsets in {-1,0,1}^3.
_SELF_IMAGE_OFFSETS = np.array(
    [o for o in itertools.product((-1, 0, 1), repeat=3) if o != (0, 0, 0)],
    dtype=float,
)


def shortest_self_image_distance(crystal: Crystal) -> float:
    """Distance from any site to its nearest own periodic image.

    Independent of the site: it is the shortest nonzero lattice vector
    with offsets in {-1,0,1}^3.
    """
    m = lattice_matrix(crystal.lattice)
    return float(np.min(np.linalg.norm(_SELF_IMAGE_OFFSETS @ m, axis=1)))


#: Site pairs measured per array op; bounds the (pairs, 125, 3) temporaries.
_PAIRS_PER_BLOCK = 2048


def crystal_structural_validity(crystal: Crystal, threshold: float = MIN_ATOM_DISTANCE) -> Verdict:
    """Valid iff every atom pair, periodic images included, is farther than `threshold`.

    An invalid crystal names its first failing pair (i < j) in row-major order.
    """
    self_image = shortest_self_image_distance(crystal)
    if self_image <= threshold:
        return Verdict.fail(
            f"self-image distance {self_image:.3f} A not larger than {threshold} A"
        )
    coords = crystal.coords
    first, second = upper_pairs(len(coords))
    for start in range(0, len(first), _PAIRS_PER_BLOCK):
        i = first[start : start + _PAIRS_PER_BLOCK]
        j = second[start : start + _PAIRS_PER_BLOCK]
        d = min_image_distance(crystal.lattice, coords[i], coords[j])
        failing = np.flatnonzero(d <= threshold)
        if failing.size:
            k = failing[0]
            return Verdict.fail(
                f"sites {i[k]} and {j[k]} at {d[k]:.3f} A, not larger than {threshold} A"
            )
    return Verdict.ok()


def charge_neutrality(composition: dict) -> Verdict:
    """Valid iff one oxidation state per element can balance the total charge.

    Builds the set of charge totals reachable by one state per element,
    element by element; valid iff 0 is among them. Verdicts are memoized
    per sorted composition, since a sample set repeats a few.
    """
    return _charge_neutrality(tuple(sorted(composition.items())))


@functools.lru_cache(maxsize=4096)
def _charge_neutrality(items: tuple) -> Verdict:
    totals = {0}
    for symbol, count in items:
        if symbol not in OXIDATION_STATES:
            return Verdict.fail(f"no oxidation states for element {symbol}")
        if count < 1:
            raise ValueError(f"non-positive count for {symbol}")
        totals = {t + state * count for t in totals for state in OXIDATION_STATES[symbol]}
    if 0 in totals:
        return Verdict.ok()
    counts = ", ".join(f"{s}:{c}" for s, c in items)
    return Verdict.fail(f"no neutral oxidation-state assignment for {counts}")


def crystal_composition(crystal: Crystal) -> dict:
    return dict(Counter(crystal.symbols))


def n_unique_elements(crystal: Crystal) -> int:
    return len(set(crystal.symbols))
