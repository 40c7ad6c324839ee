"""Fixed-precision coordinate rounding and formatting.

Every coordinate that reaches a file writer or a tokenizer goes through
`fmt_fixed`, so the text form of a number is decided in exactly one place.
Rounding is half away from zero on the decimal literal (1.005 at two
decimals gives "1.01", -1.005 gives "-1.01"), not the float-bit banker's
rounding of built-in round().

Most values are already short literals such as 1.23. When repr(x) has no
exponent and at most `precision` decimals, rounding it is the identity, so
`fmt_fixed` only zero-pads it and `round_coords` hands such a structure
back unchanged; only the other values pay for Decimal.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .structures import Crystal, Lattice

_EXPONENTS = {p: Decimal(1).scaleb(-p) for p in range(0, 13)}

#: A finite float has at most 309 integer digits; an unlimited precision
#: leaves room for them plus any number of decimals, so quantizing a
#: finite value never raises InvalidOperation.
_CONTEXT = decimal.Context(prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_UP)


def fmt_fixed(x: float, precision: int) -> str:
    """Format `x` with exactly `precision` decimals, half away from zero.

    Operates on repr(x), the shortest decimal literal that reads back as
    the same float, so 1.005 is treated as the literal 1.005 rather than
    its binary neighbour 1.00499...  Negative zero normalizes to "0.000".
    A literal that already fits is zero-padded; the rest are quantized.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    r = repr(float(x))
    if r == "-0.0":
        r = "0.0"
    dot = r.find(".")
    pad = precision - (len(r) - dot - 1)
    if dot >= 0 and pad >= 0 and "e" not in r:
        return r + "0" * pad
    q = _EXPONENTS.get(precision) or Decimal(1).scaleb(-precision)
    d = Decimal(r).quantize(q, context=_CONTEXT)
    if d == 0:
        d = d.copy_abs()  # drop the sign of -0.00
    return format(d, "f")


def round_half_away(x: float, precision: int) -> float:
    """Round `x` to `precision` decimals, half away from zero."""
    return float(fmt_fixed(x, precision))


def _is_rounded(values, precision: int) -> bool:
    """True when every repr has no exponent and at most `precision` decimals.

    Rounding such a value gives back the same float, bit for bit. A
    negative zero does not count: rounding turns it into 0.0.
    """
    for v in values:
        r = repr(float(v))
        dot = r.find(".")
        if dot < 0 or len(r) - dot - 1 > precision or "e" in r or r == "-0.0":
            return False
    return True


def round_coords(structure, precision: int):
    """Return `structure` with all coordinates rounded.

    For crystals both the six lattice parameters and the fractional
    coordinates are rounded; a fractional coordinate that rounds to 1.0
    wraps back to 0.0 so the [0, 1) invariant survives. A structure whose
    values are all already rounded is returned as it is (the same
    object); any other is rebuilt as a new one.
    """
    coords = structure.coords()
    crystal = isinstance(structure, Crystal)
    if _is_rounded((v for xyz in coords for v in xyz), precision) and (
        not crystal or _is_rounded(structure.lattice.params(), precision)
    ):
        return structure
    rounded = [
        (
            round_half_away(x, precision),
            round_half_away(y, precision),
            round_half_away(z, precision),
        )
        for x, y, z in coords
    ]
    if crystal:
        lattice = Lattice(*(round_half_away(v, precision) for v in structure.lattice.params()))
        structure = Crystal(lattice, structure.sites)
    return structure.with_coords(rounded)
