import numpy as np
import pytest
from conftest import random_crystal, random_molecule, random_pocket

from chemlm.augment import random_rotation, rotate_about_center
from chemlm.errors import InvalidLatticeError
from chemlm.formats import write_cif
from chemlm.rounding import coords_text, fmt_fixed, fmt_fraction, round_coords
from chemlm.structures import Crystal, Lattice, Molecule
from chemlm.synth import synth_molecule, synth_perovskite, synth_pocket
from chemlm.tokenize import Scheme, atom_coord_tokens


def round_half_away(x: float, precision: int) -> float:
    """Round `x` to `precision` decimals, half away from zero."""
    return float(fmt_fixed(x, precision))


class TestRoundHalfAway:
    def test_half_goes_up(self):
        assert round_half_away(1.005, 2) == pytest.approx(1.01)
        assert round_half_away(0.5, 0) == pytest.approx(1.0)
        assert round_half_away(2.5, 0) == pytest.approx(3.0)

    def test_half_goes_away_for_negatives(self):
        assert round_half_away(-1.005, 2) == pytest.approx(-1.01)
        assert round_half_away(-0.5, 0) == pytest.approx(-1.0)

    def test_non_ties_unchanged(self):
        assert round_half_away(1.234, 2) == pytest.approx(1.23)
        assert round_half_away(1.236, 2) == pytest.approx(1.24)

    def test_differs_from_bankers_rounding(self):
        # round() would give 2 here; half-away must give 3
        assert round_half_away(2.5, 0) == 3.0
        assert round(2.5) == 2


class TestFmtFixed:
    def test_spec_texture(self):
        assert fmt_fixed(1.005, 2) == "1.01"
        assert fmt_fixed(-1.005, 2) == "-1.01"

    def test_negative_zero_normalized(self):
        # a tiny negative must not print as "-0.000"
        assert fmt_fixed(-0.0004, 3) == "0.000"
        assert fmt_fixed(-0.004, 2) == "0.00"

    def test_padding(self):
        assert fmt_fixed(1.0, 3) == "1.000"
        assert fmt_fixed(-2.5, 1) == "-2.5"
        assert fmt_fixed(0.0, 2) == "0.00"

    def test_precision_one(self):
        assert fmt_fixed(0.25, 1) == "0.3"
        assert fmt_fixed(-0.25, 1) == "-0.3"

    def test_round_trip_is_stable(self, rng):
        # formatting an already formatted value must not change it
        for _ in range(500):
            x = float(rng.uniform(-100, 100))
            for p in (1, 2, 3):
                s = fmt_fixed(x, p)
                assert fmt_fixed(float(s), p) == s

    def test_fractional_wrap_near_one(self):
        # a fractional coordinate that rounds to 1.00 must be wrapped by
        # the caller; fmt_fixed itself just formats
        assert fmt_fixed(0.996, 2) == "1.00"

    def test_value_wider_than_the_default_decimal_context(self):
        # 31 integer digits plus 3 decimals overflow Decimal's default 28
        assert fmt_fixed(1e30, 3) == "1" + "0" * 30 + ".000"
        assert fmt_fixed(-1.7976931348623157e308, 2).endswith("0.00")

    def test_fast_path_pads_short_literals(self):
        assert fmt_fixed(1.23, 3) == "1.230"
        assert fmt_fixed(-0.0, 2) == "0.00"
        assert fmt_fixed(np.float64(-4.5), 2) == "-4.50"
        # an exponent or too many decimals takes the Decimal path
        assert fmt_fixed(1e16, 1) == "10000000000000000.0"
        assert fmt_fixed(1e-05, 3) == "0.000"
        assert fmt_fixed(1.5e-05, 6) == "0.000015"


def rebuild_round_coords(structure, precision):
    """round_coords through round_half_away and the Crystal and Lattice
    constructors instead of through the formatted text."""
    rounded = [[round_half_away(v, precision) for v in xyz] for xyz in structure.coords.tolist()]
    if isinstance(structure, Crystal):
        lattice = Lattice(*(round_half_away(v, precision) for v in structure.lattice.params()))
        structure = Crystal(lattice, structure.symbols, structure.coords)
    return structure.with_coords(rounded)


def described(structure):
    """Labels and every number by repr, so the sign of zero counts."""
    numbers = [repr(v) for xyz in structure.coords.tolist() for v in xyz]
    if isinstance(structure, Crystal):
        numbers += [repr(v) for v in structure.lattice.params()]
    return type(structure), structure.labels, numbers


def synthetic(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "molecule":
        return synth_molecule(rng)
    if kind == "perovskite":
        return synth_perovskite(rng)
    return synth_pocket(rng, n_residues=3)


RANDOM = {"molecule": random_molecule, "perovskite": random_crystal, "pocket": random_pocket}


class TestRoundCoords:
    @pytest.mark.parametrize("kind", ["molecule", "perovskite", "pocket"])
    @pytest.mark.parametrize("precision", [1, 2, 3])
    def test_matches_always_rebuilding(self, kind, precision, rng):
        # synthetic structures (perovskite lattices are already at 2
        # decimals) and random ones with unrounded lattices, each raw and
        # pre-rounded at a coarser and a finer precision
        raw = [synthetic(kind, seed) for seed in range(8)] + [RANDOM[kind](rng) for _ in range(8)]
        for s in raw:
            for given in (s, rebuild_round_coords(s, 1), rebuild_round_coords(s, 3)):
                got = round_coords(given, precision)
                want = rebuild_round_coords(given, precision)
                assert described(got) == described(want)
                assert got == want

    @pytest.mark.parametrize("kind", ["molecule", "perovskite", "pocket"])
    def test_rounded_structure_comes_back_as_is(self, kind):
        # equal to the bit, though a new object
        s = rebuild_round_coords(synthetic(kind, 4), 2)
        assert described(round_coords(s, 2)) == described(s)
        assert described(round_coords(s, 3)) == described(s)

    def test_unrounded_lattice_alone_forces_a_rebuild(self):
        c = Crystal(Lattice(4.123, 4.0, 4.0, 90.0, 90.0, 90.0), ["Po"], [(0.5, 0.0, 0.0)])
        out = round_coords(c, 2)
        assert out is not c
        assert out.lattice.a == 4.12

    def test_fraction_rounding_to_one_wraps(self):
        c = Crystal(Lattice(4.0, 4.0, 4.0, 90.0, 90.0, 90.0), ["Po"], [(0.996, 0.5, 0.0)])
        assert round_coords(c, 2).coords.tolist() == [[0.0, 0.5, 0.0]]

    def test_negative_zero_is_normalized(self):
        m = Molecule(["C"], [(-0.0, 1.5, 0.0)])
        out = round_coords(m, 2)
        assert out is not m
        assert [repr(v) for v in out.coords[0].tolist()] == ["0.0", "1.5", "0.0"]

    def test_rotated_float64_coordinates_are_rounded(self, rng):
        m = rebuild_round_coords(synthetic("molecule", 2), 2)
        rotated = rotate_about_center(m, random_rotation(rng))
        assert rotated.coords.dtype == np.float64
        out = round_coords(rotated, 2)
        assert out is not rotated
        assert described(out) == described(rebuild_round_coords(rotated, 2))
        assert out.coords.dtype == np.float64

    def test_float64_that_is_already_rounded_is_kept(self):
        m = Molecule(["C"], [(np.float64(1.25), np.float64(-3.0), np.float64(0.5))])
        out = round_coords(m, 2)
        assert out == m
        assert [repr(v) for v in out.coords[0].tolist()] == ["1.25", "-3.0", "0.5"]


class TestCrystalRules:
    """The two crystal rules of `coords_text`, which the CIF writer, the
    atom_coord tokens and `round_coords` share."""

    def test_fraction_that_rounds_to_one_is_written_as_zero(self):
        assert fmt_fraction(0.996, 2) == "0.00"
        assert fmt_fraction(0.9995, 3) == "0.000"
        assert fmt_fraction(0.9995, 2) == "0.00"
        assert fmt_fraction(0.994, 2) == "0.99"
        assert fmt_fraction(0.0, 1) == "0.0"

    @pytest.mark.parametrize("fx, text", [(0.996, "0.00"), (0.9995, "0.00"), (-0.0, "0.00"),
                                          (1.005, "0.00"), (0.005, "0.01"), (0.5, "0.50")])
    def test_every_reader_of_a_fraction_agrees(self, fx, text):
        c = Crystal(Lattice(4.0, 4.0, 4.0, 90.0, 90.0, 90.0), ["Po"], [(fx, 0.5, 0.5)])
        assert write_cif(c, 2).splitlines()[-1] == f"Po {text} 0.50 0.50"
        assert atom_coord_tokens(c, Scheme("atom_coord", 2))[-3:] == [text, "0.50", "0.50"]
        assert fmt_fixed(round_coords(c, 2).coords[0, 0], 2) == text

    def test_cell_that_rounds_to_a_straight_angle_raises(self):
        c = Crystal(Lattice(4.0, 4.0, 4.0, 179.996, 90.0, 90.0), ["Po"], [(0.0, 0.0, 0.0)])
        assert write_cif(c, 3).startswith("_cell_length_a 4.000")
        for write in (write_cif, lambda s, p: atom_coord_tokens(s, Scheme("atom_coord", p)),
                      round_coords):
            with pytest.raises(InvalidLatticeError, match="alpha=180.0"):
                write(c, 2)

    def test_molecule_has_no_cell(self):
        m = Molecule(["C"], [(1.005, -0.0, 1e16)])
        assert coords_text(m, 2) == ([], [("1.01", "0.00", "10000000000000000.00")])
