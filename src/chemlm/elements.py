"""Bundled periodic table, and `data_rows`, the one reader of the bundled CSV tables.

The table is a static 89-entry subset (Z = 1..84 plus Ac, Th, Pa, U, Pu)
that covers every element appearing in the crystal corpora this toolkit
targets. Masses are standard atomic weights in amu; covalent radii are in
Angstrom.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import UnknownElementError


@dataclass(frozen=True)
class Element:
    symbol: str
    atomic_number: int
    mass: float
    covalent_radius: float


def data_rows(name: str) -> list[tuple[str, str]]:
    """(first field, rest of the line) pairs of the bundled CSV `name`, header skipped."""
    text = resources.files("chemlm.data").joinpath(name).read_text(encoding="utf-8")
    return [tuple(line.split(",", 1)) for line in text.splitlines()[1:] if line.strip()]


def _element(symbol: str, rest: str) -> Element:
    atomic_number, mass, covalent_radius = rest.split(",")
    return Element(symbol, int(atomic_number), float(mass), float(covalent_radius))


ELEMENTS: dict[str, Element] = {s: _element(s, rest) for s, rest in data_rows("periodic_table.csv")}

SYMBOLS: frozenset[str] = frozenset(ELEMENTS)

#: Symbols longer than one character ("Cl", "Na", ...). These stay atomic
#: tokens even under character-level tokenization.
MULTI_LETTER_SYMBOLS: frozenset[str] = frozenset(s for s in SYMBOLS if len(s) > 1)


def get_element(symbol: str) -> Element:
    """Look up an element by symbol, raising UnknownElementError if absent."""
    try:
        return ELEMENTS[symbol]
    except KeyError:
        raise UnknownElementError(f"unknown element symbol: {symbol!r}") from None


def is_element(symbol: str) -> bool:
    return symbol in ELEMENTS
