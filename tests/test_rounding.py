import numpy as np
import pytest
from conftest import random_crystal, random_molecule, random_pocket

from chemlm.augment import random_rotation, rotate_about_center
from chemlm.rounding import fmt_fixed, round_coords, round_half_away
from chemlm.structures import Atom, Crystal, Lattice, Molecule, Site
from chemlm.synth import synth_molecule, synth_perovskite, synth_pocket


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
    """round_coords without its early return: every structure is rebuilt."""
    rounded = [tuple(round_half_away(v, precision) for v in xyz) for xyz in structure.coords()]
    if isinstance(structure, Crystal):
        lattice = Lattice(*(round_half_away(v, precision) for v in structure.lattice.params()))
        structure = Crystal(lattice, structure.sites)
    return structure.with_coords(rounded)


def described(structure):
    """Labels and every number by repr, so the sign of zero counts."""
    numbers = [repr(v) for xyz in structure.coords() for v in xyz]
    if isinstance(structure, Crystal):
        numbers += [repr(v) for v in structure.lattice.params()]
    return type(structure), structure.labels(), numbers


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
        s = rebuild_round_coords(synthetic(kind, 4), 2)
        assert round_coords(s, 2) is s
        assert round_coords(s, 3) is s

    def test_unrounded_lattice_alone_forces_a_rebuild(self):
        c = Crystal(Lattice(4.123, 4.0, 4.0, 90.0, 90.0, 90.0), [Site("Po", 0.5, 0.0, 0.0)])
        out = round_coords(c, 2)
        assert out is not c
        assert out.lattice.a == 4.12

    def test_fraction_rounding_to_one_wraps(self):
        c = Crystal(Lattice(4.0, 4.0, 4.0, 90.0, 90.0, 90.0), [Site("Po", 0.996, 0.5, 0.0)])
        assert round_coords(c, 2).coords() == [(0.0, 0.5, 0.0)]

    def test_negative_zero_is_normalized(self):
        m = Molecule([Atom("C", -0.0, 1.5, 0.0)])
        out = round_coords(m, 2)
        assert out is not m
        assert [repr(v) for v in out.coords()[0]] == ["0.0", "1.5", "0.0"]

    def test_rotated_float64_coordinates_are_rounded(self, rng):
        m = rebuild_round_coords(synthetic("molecule", 2), 2)
        rotated = rotate_about_center(m, random_rotation(rng))
        assert isinstance(rotated.atoms[0].x, np.float64)
        out = round_coords(rotated, 2)
        assert out is not rotated
        assert described(out) == described(rebuild_round_coords(rotated, 2))
        assert all(type(v) is float for xyz in out.coords() for v in xyz)

    def test_float64_that_is_already_rounded_is_kept(self):
        m = Molecule([Atom("C", np.float64(1.25), np.float64(-3.0), np.float64(0.5))])
        assert round_coords(m, 2) is m
