"""Fixed-precision coordinate rounding and formatting.

Every coordinate that reaches a file writer or a tokenizer goes through
`fmt_fixed`, so the text form of a number is decided in exactly one place.
Rounding is half away from zero on the decimal literal (1.005 at two
decimals gives "1.01", -1.005 gives "-1.01"), not the float-bit banker's
rounding of built-in round().
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .structures import Crystal, Lattice

_EXPONENTS = {p: Decimal(1).scaleb(-p) for p in range(0, 13)}


def fmt_fixed(x: float, precision: int) -> str:
    """Format `x` with exactly `precision` decimals, half away from zero.

    Operates on repr(x), the shortest decimal literal that reads back as
    the same float, so 1.005 is treated as the literal 1.005 rather than
    its binary neighbour 1.00499...  Negative zero normalizes to "0.000".
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    q = _EXPONENTS.get(precision) or Decimal(1).scaleb(-precision)
    d = Decimal(repr(float(x))).quantize(q, rounding=decimal.ROUND_HALF_UP)
    if d == 0:
        d = abs(d)  # drop the sign of -0.00
    return format(d, "f")


def round_half_away(x: float, precision: int) -> float:
    """Round `x` to `precision` decimals, half away from zero."""
    return float(fmt_fixed(x, precision))


def round_coords(structure, precision: int):
    """Return a copy of `structure` with all coordinates rounded.

    For crystals both the six lattice parameters and the fractional
    coordinates are rounded; a fractional coordinate that rounds to 1.0
    wraps back to 0.0 so the [0, 1) invariant survives.
    """
    rounded = [
        (
            round_half_away(x, precision),
            round_half_away(y, precision),
            round_half_away(z, precision),
        )
        for x, y, z in structure.coords()
    ]
    if isinstance(structure, Crystal):
        lattice = Lattice(*(round_half_away(v, precision) for v in structure.lattice.params()))
        structure = Crystal(lattice, structure.sites)
    return structure.with_coords(rounded)
