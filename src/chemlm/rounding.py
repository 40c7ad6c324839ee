"""Fixed-precision coordinate rounding and formatting.

Every coordinate that reaches a file writer or a tokenizer goes through
`fmt_fixed`, so the text form of a number is decided in exactly one place.
Rounding is half away from zero on the decimal literal (1.005 at two
decimals gives "1.01", -1.005 gives "-1.01"), not the float-bit banker's
rounding of built-in round().

Formatting a value and formatting its rounded value give the same text,
so the writers and the tokenizer format what they are given through
`coords_text`; `round_coords` builds a structure from that same text and
keeps the text on the structure it returns, so formatting a rounded
structure again at its precision costs one attribute lookup.

Most values are already short literals such as 1.23. When repr(x) has no
exponent and at most `precision` decimals, `fmt_fixed` only zero-pads it;
only the other values pay for Decimal.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .structures import Crystal, Lattice

#: The instance attribute where `round_coords` keeps (precision, cell, triples).
_TEXT = "_coords_text"

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


def fmt_fraction(f: float, precision: int) -> str:
    """`fmt_fixed` of a fractional coordinate in [0, 1), except that one
    that rounds to 1 is written as 0, as a Site wraps 1.0 to 0.0."""
    text = fmt_fixed(f, precision)
    return "0" + text[1:] if text[0] == "1" else text


def coords_text(structure, precision: int) -> tuple[list[str], list[tuple[str, str, str]]]:
    """A structure's numbers as text: a crystal's six cell parameters
    (empty for other kinds), then one (x, y, z) triple per atom or site.

    A crystal's fractions go through `fmt_fraction`, and its rounded cell
    must build a Lattice: one with an angle that rounds to 180 degrees
    raises InvalidLatticeError.

    A structure returned by `round_coords` holds the text it was built
    from; at that precision it is returned as is, so callers must not
    mutate the lists. Any other structure or precision is formatted.
    """
    kept = structure.__dict__.get(_TEXT)
    if kept is not None and kept[0] == precision:
        return kept[1], kept[2]
    if isinstance(structure, Crystal):
        params = structure.lattice.params()
        cell = [fmt_fixed(v, precision) for v in params]
        rounded = tuple(map(float, cell))
        if rounded != params:  # the stored lattice is valid; a changed one may not be
            Lattice(*rounded)
        fmt = fmt_fraction
    else:
        cell = []
        fmt = fmt_fixed
    triples = [(fmt(x, precision), fmt(y, precision), fmt(z, precision))
               for x, y, z in structure.coords()]
    return cell, triples


def round_coords(structure, precision: int):
    """A new `structure` holding the values of its `coords_text`: every
    coordinate, and a crystal's cell, rounded to `precision` decimals.

    The new structure keeps that text, which is also its own
    `coords_text` at `precision`. The text lives on this object only:
    `with_coords` and `dataclasses.replace` build structures without it.
    """
    cell, triples = coords_text(structure, precision)
    if cell:
        structure = Crystal(Lattice(*map(float, cell)), structure.sites)
    rounded = structure.with_coords([(float(x), float(y), float(z)) for x, y, z in triples])
    object.__setattr__(rounded, _TEXT, (precision, cell, triples))
    return rounded
