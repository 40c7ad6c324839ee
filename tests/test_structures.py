import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlm.elements import get_element
from chemlm.errors import InvalidLatticeError, UnknownElementError
from chemlm.structures import (
    KINDS,
    Crystal,
    Lattice,
    Molecule,
    Pocket,
    wrap_frac,
)

from reference_algorithms import reference_residue_indices, reference_wrap_frac


class TestElements:
    def test_known_symbols(self):
        assert get_element("H").atomic_number == 1
        assert get_element("C").mass == pytest.approx(12.011, abs=1e-3)
        assert get_element("Fe").covalent_radius == pytest.approx(1.32)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownElementError):
            get_element("Xx")

    def test_case_sensitive(self):
        with pytest.raises(UnknownElementError):
            get_element("CL")


class TestAtomAndMolecule:
    def test_construction(self):
        m = Molecule(["C", "H"], [(0, 0, 0), (1.09, 0, 0)])
        assert len(m) == 2
        assert m.symbols == ("C", "H")
        assert m.coords.dtype == np.float64 and m.coords.shape == (2, 3)
        assert m.coords[1].tolist() == [1.09, 0.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Molecule([], [])

    def test_bad_symbol_rejected(self):
        with pytest.raises(UnknownElementError):
            Molecule(["C", "Qq"], [(0, 0, 0), (1, 0, 0)])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite coordinate nan"):
            Molecule(["C"], [(math.nan, 0, 0)])
        with pytest.raises(ValueError, match="non-finite coordinate inf"):
            Molecule(["C", "C"], [(0, 0, 0), (0, math.inf, 0)])

    def test_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Molecule(["C", "H"], [(0, 0, 0)])
        with pytest.raises(ValueError, match="shape"):
            Molecule(["C"], [(0, 0)])

    def test_coords_are_read_only_copies(self):
        source = np.zeros((2, 3))
        m = Molecule(["C", "H"], source)
        source[0, 0] = 5.0
        assert m.coords[0, 0] == 0.0
        with pytest.raises(ValueError):
            m.coords[0, 0] = 1.0


class TestLattice:
    def test_valid(self):
        lat = Lattice(3.9, 3.9, 3.9, 90, 90, 90)
        assert lat.params() == (3.9, 3.9, 3.9, 90, 90, 90)

    def test_nonpositive_length(self):
        with pytest.raises(InvalidLatticeError):
            Lattice(0, 1, 1, 90, 90, 90)
        with pytest.raises(InvalidLatticeError):
            Lattice(1, -2, 1, 90, 90, 90)

    def test_angle_out_of_range(self):
        with pytest.raises(InvalidLatticeError):
            Lattice(1, 1, 1, 180, 90, 90)
        with pytest.raises(InvalidLatticeError):
            Lattice(1, 1, 1, 90, 0, 90)

    def test_unrealizable_angle_triple(self):
        # each angle individually fine, but no 3D cell has this combination
        with pytest.raises(InvalidLatticeError):
            Lattice(1, 1, 1, 5, 5, 179)


class TestSiteWrapping:
    def test_wrap_frac(self):
        wrapped = wrap_frac(np.array([1.25, -0.25, 0.0, 1.0, -3.0])).tolist()
        assert wrapped[:2] == pytest.approx([0.25, 0.75])
        assert wrapped[2:] == [0.0, 0.0, 0.0]

    def test_site_wraps_on_construction(self):
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), ["Na"], [(1.25, -0.25, 2.0)])
        assert c.coords[0].tolist() == pytest.approx([0.25, 0.75, 0.0])

    def test_in_range_untouched(self):
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), ["Na"], [(0.25, 0.5, 0.999)])
        assert c.coords[0].tolist() == [0.25, 0.5, 0.999]

    def test_crystal_accessors(self):
        xtl = Crystal(Lattice(4, 4, 4, 90, 90, 90), ["Ca", "O"], [(0, 0, 0), (0.5, 0.5, 0.5)])
        assert len(xtl) == 2
        assert xtl.symbols == ("Ca", "O")
        assert xtl.coords[1].tolist() == [0.5, 0.5, 0.5]

    def test_empty_crystal_rejected(self):
        with pytest.raises(ValueError):
            Crystal(Lattice(4, 4, 4, 90, 90, 90), [], [])


class TestPocket:
    def test_renumbering_preserves_grouping(self):
        # file uses indices 7,7,9; the pocket renumbers to 1,1,2
        p = Pocket(
            ["C", "O", "N"],
            ["GLY", "GLY", "ALA"],
            [7, 7, 9],
            [(0, 0, 0), (1, 0, 0), (5, 0, 0)],
        )
        assert p.residue_index.tolist() == [1, 1, 2]
        assert p.n_residues() == 2

    def test_interleaved_indices_rejected(self):
        with pytest.raises(ValueError, match="not contiguous"):
            Pocket(
                ["C", "N", "O"],
                ["GLY", "ALA", "GLY"],
                [1, 2, 1],
                [(0, 0, 0), (5, 0, 0), (1, 0, 0)],
            )

    def test_one_index_two_codes_rejected(self):
        with pytest.raises(ValueError, match="mixes codes"):
            Pocket(["C", "N"], ["GLY", "ALA"], [1, 1], [(0, 0, 0), (5, 0, 0)])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(residues=st.lists(st.tuples(st.sampled_from(["GLY", "ALA"]), st.integers(0, 4)),
                             min_size=1, max_size=12))
    def test_renumbering_matches_two_dict_pass(self, residues):
        # one dict of codes against the two dicts it replaced: the same new
        # indices, or the same ValueError for a non-contiguous or mixed index
        def outcome(renumber):
            try:
                return renumber(residues)
            except ValueError as exc:
                return str(exc)
        def pocket_indices(residues):
            codes = [code for code, _ in residues]
            indices = [index for _, index in residues]
            pocket = Pocket(["C"] * len(residues), codes, indices, [(0, 0, 0)] * len(residues))
            return pocket.residue_index.tolist()
        assert outcome(pocket_indices) == outcome(reference_residue_indices)

    def test_non_canonical_residue_rejected(self):
        with pytest.raises(ValueError, match="non-canonical"):
            Pocket(["C"], ["XYZ"], [1], [(0, 0, 0)])

    def test_residue_groups(self):
        p = Pocket(
            ["N", "C", "C"],
            ["SER", "SER", "VAL"],
            [3, 3, 4],
            [(0, 0, 0), (1, 0, 0), (5, 0, 0)],
        )
        spans = p.residue_spans()
        assert [p.residues[start] for start, _ in spans] == ["SER", "VAL"]
        assert spans == [(0, 2), (2, 3)]

    def test_indicator(self):
        assert Pocket(["S"], ["CYS"], [1], [(0, 0, 0)]).labels == ("CYS-S",)


class TestStructureKind:
    def test_all_kinds(self, rng):
        from conftest import random_structure

        assert KINDS == ("molecule", "crystal", "pocket")
        for kind in KINDS:
            assert random_structure(rng, kind).kind == kind


class TestCoordinateLayout:
    @pytest.mark.parametrize("kind", KINDS)
    def test_with_own_coords_is_identity(self, rng, kind):
        from conftest import random_structure

        s = random_structure(rng, kind)
        assert s.with_coords(s.coords) == s

    @pytest.mark.parametrize("kind", KINDS)
    def test_labels_are_the_atom_tokens(self, rng, kind):
        from conftest import random_structure

        from chemlm.tokenize import Scheme, atom_coord_tokens

        s = random_structure(rng, kind)
        tokens = atom_coord_tokens(s, Scheme("atom_coord", 2))
        lattice_tokens = 6 if kind == "crystal" else 0
        assert list(s.labels) == tokens[lattice_tokens::4]

    @pytest.mark.parametrize("kind", KINDS)
    def test_with_coords_keeps_everything_else(self, rng, kind):
        from conftest import random_structure

        s = random_structure(rng, kind)
        moved = [(0.25, 0.5, 0.75)] * len(s)
        out = s.with_coords(moved)
        assert out.coords.tolist() == [list(xyz) for xyz in moved]
        assert out.labels == s.labels
        if kind == "crystal":
            assert out.lattice == s.lattice
        if kind == "pocket":
            assert out.residue_index.tolist() == s.residue_index.tolist()

    def test_pocket_symbols_are_elements(self):
        p = Pocket(["S", "C"], ["CYS", "CYS"], [1, 1], [(0, 0, 0), (1, 0, 0)])
        assert p.symbols == ("S", "C")
        assert p.labels == ("CYS-S", "CYS-C")

    def test_crystal_coords_are_fractional(self):
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), ["Na"], [(0.5, 0.25, 0.0)])
        assert c.coords.tolist() == [[0.5, 0.25, 0.0]]
        assert c.with_coords([(1.25, -0.5, 1.0)]).coords.tolist() == [[0.25, 0.5, 0.0]]


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestArrayHazards:
    """What the array form must keep of the per-atom objects it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(values=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300, -1e-17,
                             math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0),
                             math.nextafter(0.0, -1.0), 2.0**53, -(2.0**53) - 2.0]),
        ),
        min_size=1, max_size=30,
    ))
    def test_wrap_frac_matches_the_scalar_rule_bit_for_bit(self, values):
        wrapped = wrap_frac(np.array(values, dtype=np.float64))
        expected = np.array([reference_wrap_frac(v) for v in values])
        assert np.array_equal(wrapped, expected)
        assert np.array_equal(np.signbit(wrapped), np.signbit(expected))
        assert _bits(wrapped) == _bits(expected)

    def test_wrap_frac_edge_values(self):
        below_one = math.nextafter(1.0, 0.0)
        wrapped = wrap_frac(np.array([-0.0, 0.0, below_one, -1e-17, -below_one]))
        assert _bits(wrapped) == _bits([-0.0, 0.0, below_one, 0.0, 1.0 - below_one])
        crystal = Crystal(Lattice(4, 4, 4, 90, 90, 90), ["Na"], [(-0.0, below_one, -1e-17)])
        assert _bits(crystal.coords[0]) == _bits([-0.0, below_one, 0.0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_equality_is_a_bool_and_sees_the_last_bit(self, rng, kind):
        from conftest import random_structure

        s = random_structure(rng, kind)
        same = s.with_coords(s.coords.copy())
        assert (s == same) is True
        assert (s != same) is False
        for k in range(s.coords.size):
            coords = s.coords.copy()
            flat = coords.reshape(-1)
            flat[k] = math.nextafter(flat[k], math.inf)
            if kind == "crystal" and flat[k] >= 1.0:
                flat[k] = math.nextafter(s.coords.reshape(-1)[k], -math.inf)
            moved = s.with_coords(coords)
            assert (s == moved) is False
            assert (s != moved) is True

    def test_equality_compares_every_field(self):
        a = Pocket(["C", "C"], ["GLY", "GLY"], [1, 1], [(0, 0, 0), (1, 0, 0)])
        assert (a == Pocket(["C", "C"], ["GLY", "GLY"], [1, 2], [(0, 0, 0), (1, 0, 0)])) is False
        assert (a == Pocket(["C", "C"], ["GLY", "ALA"], [1, 2], [(0, 0, 0), (1, 0, 0)])) is False
        assert (a == Pocket(["C", "N"], ["GLY", "GLY"], [1, 1], [(0, 0, 0), (1, 0, 0)])) is False
        m = Molecule(["C"], [(0.5, 0, 0)])
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), ["C"], [(0.5, 0, 0)])
        assert (m == c) is False
        assert (c == Crystal(Lattice(5, 4, 4, 90, 90, 90), ["C"], [(0.5, 0, 0)])) is False

    @pytest.mark.parametrize("kind", KINDS)
    def test_repr_round_trips_every_coordinate(self, rng, kind):
        from conftest import random_structure

        s = random_structure(rng, kind)
        back = eval(repr(s), {"Molecule": Molecule, "Crystal": Crystal, "Pocket": Pocket,
                              "Lattice": Lattice})
        assert back == s
        assert _bits(back.coords) == _bits(s.coords)
        assert "np." not in repr(s) and "array" not in repr(s)
