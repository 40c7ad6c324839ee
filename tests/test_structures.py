import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlm.elements import get_element
from chemlm.errors import InvalidLatticeError, UnknownElementError
from chemlm.structures import (
    KINDS,
    Atom,
    Crystal,
    Lattice,
    Molecule,
    Pocket,
    PocketAtom,
    Site,
    wrap_frac,
)

from reference_algorithms import reference_residue_indices


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
        m = Molecule([Atom("C", 0, 0, 0), Atom("H", 1.09, 0, 0)])
        assert len(m) == 2
        assert m.symbols() == ["C", "H"]
        assert m.coords()[1] == (1.09, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Molecule([])

    def test_bad_symbol_rejected(self):
        with pytest.raises(UnknownElementError):
            Atom("Qq", 0, 0, 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Atom("C", math.nan, 0, 0)
        with pytest.raises(ValueError):
            Atom("C", 0, math.inf, 0)


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
        assert wrap_frac(1.25) == pytest.approx(0.25)
        assert wrap_frac(-0.25) == pytest.approx(0.75)
        assert wrap_frac(0.0) == 0.0
        assert wrap_frac(1.0) == 0.0
        assert wrap_frac(-3.0) == 0.0

    def test_site_wraps_on_construction(self):
        s = Site("Na", 1.25, -0.25, 2.0)
        assert (s.fx, s.fy, s.fz) == pytest.approx((0.25, 0.75, 0.0))

    def test_in_range_untouched(self):
        s = Site("Na", 0.25, 0.5, 0.999)
        assert (s.fx, s.fy, s.fz) == (0.25, 0.5, 0.999)

    def test_crystal_accessors(self):
        xtl = Crystal(
            lattice=Lattice(4, 4, 4, 90, 90, 90),
            sites=[Site("Ca", 0, 0, 0), Site("O", 0.5, 0.5, 0.5)],
        )
        assert len(xtl) == 2
        assert xtl.symbols() == ["Ca", "O"]
        assert xtl.coords()[1] == (0.5, 0.5, 0.5)

    def test_empty_crystal_rejected(self):
        with pytest.raises(ValueError):
            Crystal(lattice=Lattice(4, 4, 4, 90, 90, 90), sites=[])


class TestPocket:
    def test_renumbering_preserves_grouping(self):
        # file uses indices 7,7,9; the pocket renumbers to 1,1,2
        p = Pocket(
            [
                PocketAtom("GLY", "C", 7, 0, 0, 0),
                PocketAtom("GLY", "O", 7, 1, 0, 0),
                PocketAtom("ALA", "N", 9, 5, 0, 0),
            ]
        )
        assert [a.residue_index for a in p.atoms] == [1, 1, 2]
        assert p.n_residues() == 2

    def test_interleaved_indices_rejected(self):
        with pytest.raises(ValueError, match="not contiguous"):
            Pocket(
                [
                    PocketAtom("GLY", "C", 1, 0, 0, 0),
                    PocketAtom("ALA", "N", 2, 5, 0, 0),
                    PocketAtom("GLY", "O", 1, 1, 0, 0),
                ]
            )

    def test_one_index_two_codes_rejected(self):
        with pytest.raises(ValueError, match="mixes codes"):
            Pocket(
                [
                    PocketAtom("GLY", "C", 1, 0, 0, 0),
                    PocketAtom("ALA", "N", 1, 5, 0, 0),
                ]
            )

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
            atoms = [PocketAtom(code, "C", index, 0, 0, 0) for code, index in residues]
            return [a.residue_index for a in Pocket(atoms).atoms]
        assert outcome(pocket_indices) == outcome(reference_residue_indices)

    def test_non_canonical_residue_rejected(self):
        with pytest.raises(ValueError, match="non-canonical"):
            PocketAtom("XYZ", "C", 1, 0, 0, 0)

    def test_residue_groups(self):
        p = Pocket(
            [
                PocketAtom("SER", "N", 3, 0, 0, 0),
                PocketAtom("SER", "C", 3, 1, 0, 0),
                PocketAtom("VAL", "C", 4, 5, 0, 0),
            ]
        )
        groups = p.residues()
        assert [code for code, _ in groups] == ["SER", "VAL"]
        assert [len(atoms) for _, atoms in groups] == [2, 1]

    def test_indicator(self):
        assert PocketAtom("CYS", "S", 1, 0, 0, 0).indicator == "CYS-S"


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
        assert s.with_coords(s.coords()) == s

    @pytest.mark.parametrize("kind", KINDS)
    def test_labels_are_the_atom_tokens(self, rng, kind):
        from conftest import random_structure

        from chemlm.tokenize import Scheme, atom_coord_tokens

        s = random_structure(rng, kind)
        tokens = atom_coord_tokens(s, Scheme("atom_coord", 2))
        lattice_tokens = 6 if kind == "crystal" else 0
        assert s.labels() == tokens[lattice_tokens::4]

    @pytest.mark.parametrize("kind", KINDS)
    def test_with_coords_keeps_everything_else(self, rng, kind):
        from conftest import random_structure

        s = random_structure(rng, kind)
        moved = [(0.25, 0.5, 0.75)] * len(s)
        out = s.with_coords(moved)
        assert out.coords() == moved
        assert out.labels() == s.labels()
        if kind == "crystal":
            assert out.lattice == s.lattice
        if kind == "pocket":
            assert [a.residue_index for a in out.atoms] == [a.residue_index for a in s.atoms]

    def test_pocket_symbols_are_elements(self):
        p = Pocket([PocketAtom("CYS", "S", 1, 0, 0, 0), PocketAtom("CYS", "C", 1, 1, 0, 0)])
        assert p.symbols() == ["S", "C"]
        assert p.labels() == ["CYS-S", "CYS-C"]

    def test_crystal_coords_are_fractional(self):
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), [Site("Na", 0.5, 0.25, 0.0)])
        assert c.coords() == [(0.5, 0.25, 0.0)]
        assert c.with_coords([(1.25, -0.5, 1.0)]).coords() == [(0.25, 0.5, 0.0)]
