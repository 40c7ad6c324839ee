import pytest

from chemlm.errors import ParseError
from chemlm.formats import EXTENSIONS, FileDocument, parse_document, write_structure
from chemlm.formats.cif import parse_cif, write_cif
from chemlm.formats.pdb import parse_pdb, write_pdb
from chemlm.formats.xyz import parse_xyz, write_xyz
from chemlm.rounding import round_coords
from chemlm.structures import Atom, Crystal, Lattice, Molecule, Site

from conftest import random_structure

WATER_XYZ = """3

O 0.00 0.00 0.00
H 0.96 0.00 0.00
H -0.24 0.93 0.00
"""

SMALL_CIF = """_cell_length_a 4.00
_cell_length_b 4.00
_cell_length_c 4.00
_cell_angle_alpha 90.00
_cell_angle_beta 90.00
_cell_angle_gamma 90.00
loop_
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Ca 0.00 0.00 0.00
Ti 0.50 0.50 0.50
"""

SMALL_PDB = """ATOM 1 N GLY 1 0.00 0.00 0.00
ATOM 2 C GLY 1 1.40 0.00 0.00
ATOM 3 O SER 2 5.00 0.00 0.00
END
"""


def line_of(err: ParseError) -> int:
    return err.line


class TestXyz:
    def test_parse(self):
        m = parse_xyz(WATER_XYZ)
        assert m.symbols() == ["O", "H", "H"]
        assert m.atoms[1].x == pytest.approx(0.96)

    def test_round_trip_equals_rounding(self, rng):
        for _ in range(30):
            m = random_structure(rng, "molecule")
            for p in (1, 2, 3):
                doc = write_xyz(m, p)
                back = parse_xyz(doc)
                assert back == round_coords(m, p)
                # and a second pass is the identity
                assert parse_xyz(write_xyz(back, p)) == back

    def test_count_mismatch(self):
        bad = "2\n\nO 0 0 0\n"
        with pytest.raises(ParseError) as ei:
            parse_xyz(bad)
        assert "count" in str(ei.value)

    def test_garbage_count_line(self):
        with pytest.raises(ParseError) as ei:
            parse_xyz("three\n\nO 0 0 0\n")
        assert line_of(ei.value) == 1

    def test_zero_atoms(self):
        with pytest.raises(ParseError):
            parse_xyz("0\n\n")

    def test_wrong_field_count_reports_line(self):
        bad = "2\n\nO 0 0 0\nH 1 2\n"
        with pytest.raises(ParseError) as ei:
            parse_xyz(bad)
        assert line_of(ei.value) == 4

    def test_unknown_element_reports_line(self):
        bad = "1\n\nQq 0 0 0\n"
        with pytest.raises(ParseError) as ei:
            parse_xyz(bad)
        assert line_of(ei.value) == 3

    def test_bad_coordinate(self):
        bad = "1\n\nO zero 0 0\n"
        with pytest.raises(ParseError):
            parse_xyz(bad)

    def test_writer_emits_fixed_decimals(self):
        m = Molecule([Atom("C", 1.0, -0.0004, 2.3456)])
        assert write_xyz(m, 3) == "1\n\nC 1.000 0.000 2.346\n"


class TestCif:
    def test_parse(self):
        c = parse_cif(SMALL_CIF)
        assert c.lattice.a == pytest.approx(4.0)
        assert c.symbols() == ["Ca", "Ti"]

    def test_round_trip_equals_rounding(self, rng):
        for _ in range(30):
            c = random_structure(rng, "crystal")
            for p in (1, 2, 3):
                back = parse_cif(write_cif(c, p))
                assert back == round_coords(c, p)

    def test_cell_keys_must_be_in_order(self):
        swapped = SMALL_CIF.replace(
            "_cell_length_a 4.00\n_cell_length_b 4.00",
            "_cell_length_b 4.00\n_cell_length_a 4.00",
        )
        with pytest.raises(ParseError) as ei:
            parse_cif(swapped)
        assert line_of(ei.value) == 1

    def test_missing_loop_keyword(self):
        bad = SMALL_CIF.replace("loop_\n", "")
        with pytest.raises(ParseError):
            parse_cif(bad)

    def test_extra_column_rejected(self):
        bad = SMALL_CIF.replace("Ca 0.00 0.00 0.00", "Ca 0.00 0.00 0.00 1.0")
        with pytest.raises(ParseError) as ei:
            parse_cif(bad)
        assert line_of(ei.value) == 12

    def test_no_sites(self):
        bad = "".join(SMALL_CIF.splitlines(keepends=True)[:11])
        with pytest.raises(ParseError):
            parse_cif(bad)

    def test_unrealizable_lattice_is_a_parse_error(self):
        bad = SMALL_CIF.replace("_cell_angle_gamma 90.00", "_cell_angle_gamma 179.00")
        bad = bad.replace("_cell_angle_alpha 90.00", "_cell_angle_alpha 5.00")
        with pytest.raises(ParseError) as ei:
            parse_cif(bad)
        assert line_of(ei.value) == 6

    def test_writer_wraps_fractions(self):
        c = Crystal(
            lattice=Lattice(4, 4, 4, 90, 90, 90),
            sites=[Site("Na", 0.996, 0.5, 0.5)],
        )
        # 0.996 rounds to 1.00 at two decimals, which wraps to 0.00
        assert "Na 0.00 0.50 0.50" in write_cif(c, 2)


class TestPdb:
    def test_parse(self):
        p = parse_pdb(SMALL_PDB)
        assert p.n_residues() == 2
        assert [a.element for a in p.atoms] == ["N", "C", "O"]

    def test_round_trip_equals_rounding(self, rng):
        for _ in range(30):
            p = random_structure(rng, "pocket")
            for prec in (1, 2, 3):
                back = parse_pdb(write_pdb(p, prec))
                assert back == round_coords(p, prec)

    def test_end_required(self):
        bad = SMALL_PDB.replace("END\n", "")
        with pytest.raises(ParseError) as ei:
            parse_pdb(bad)
        assert "END" in str(ei.value)

    def test_hydrogen_rejected(self):
        bad = SMALL_PDB.replace("ATOM 2 C GLY 1", "ATOM 2 H GLY 1")
        with pytest.raises(ParseError) as ei:
            parse_pdb(bad)
        assert "hydrogen" in str(ei.value).lower()
        assert line_of(ei.value) == 2

    def test_serial_out_of_order(self):
        bad = SMALL_PDB.replace("ATOM 3 O SER 2", "ATOM 5 O SER 2")
        with pytest.raises(ParseError) as ei:
            parse_pdb(bad)
        assert line_of(ei.value) == 3

    def test_non_canonical_residue(self):
        bad = SMALL_PDB.replace("SER", "LIG")
        with pytest.raises(ParseError) as ei:
            parse_pdb(bad)
        assert "LIG" in str(ei.value)

    def test_interleaved_residues(self):
        bad = (
            "ATOM 1 N GLY 1 0.00 0.00 0.00\n"
            "ATOM 2 O SER 2 5.00 0.00 0.00\n"
            "ATOM 3 C GLY 1 1.40 0.00 0.00\n"
            "END\n"
        )
        with pytest.raises(ParseError) as ei:
            parse_pdb(bad)
        assert line_of(ei.value) == 3

    def test_wrong_record_type(self):
        bad = SMALL_PDB.replace("ATOM 1", "HETATM 1")
        with pytest.raises(ParseError):
            parse_pdb(bad)

    def test_empty_body(self):
        with pytest.raises(ParseError):
            parse_pdb("END\n")

    def test_residues_renumbered_on_read(self):
        shifted = SMALL_PDB.replace("GLY 1", "GLY 4").replace("SER 2", "SER 9")
        p = parse_pdb(shifted)
        assert [a.residue_index for a in p.atoms] == [1, 1, 2]


class TestDispatch:
    def test_kind_tables(self):
        assert EXTENSIONS == {"molecule": ".xyz", "crystal": ".cif", "pocket": ".pdb"}
        for not_a_kind in ("XYZ", "ligand"):
            with pytest.raises(ValueError, match="unknown structure kind"):
                FileDocument(not_a_kind, WATER_XYZ)

    def test_write_then_parse_any_kind(self, rng):
        for kind in ("molecule", "crystal", "pocket"):
            s = random_structure(rng, kind)
            doc = FileDocument(kind, write_structure(s, 2))
            assert parse_document(doc) == round_coords(s, 2)
