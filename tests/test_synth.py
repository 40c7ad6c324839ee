import numpy as np
import pytest

from chemlm.metrics.bonds import molecule_validity
from chemlm.metrics.crystals import charge_neutrality, crystal_composition
from chemlm.metrics.pockets import pocket_residue_check
from chemlm.metrics.report import validity
from chemlm.structures import RESIDUE_ATOMS, Crystal, Molecule, Pocket
from chemlm.synth import _cross, synth_corpus, synth_molecule, synth_perovskite, synth_pocket


class TestMolecules:
    def test_validity_rate(self, rng):
        valid = sum(molecule_validity(synth_molecule(rng)).valid for _ in range(100))
        assert valid >= 99

    def test_validity_survives_file_rounding(self, rng):
        from chemlm.rounding import round_coords

        for _ in range(30):
            m = synth_molecule(rng)
            for p in (1, 2, 3):
                assert molecule_validity(round_coords(m, p)).valid

    def test_centered(self, rng):
        from chemlm.geometry import centroid

        m = synth_molecule(rng)
        np.testing.assert_allclose(centroid(m.coords()), 0.0, atol=0.5)

    def test_composition(self, rng):
        m = synth_molecule(rng)
        heavy = [s for s in m.symbols() if s != "H"]
        assert heavy
        assert set(m.symbols()) <= {"C", "N", "O", "H"}


class TestPerovskites:
    def test_five_sites(self, rng):
        c = synth_perovskite(rng)
        assert isinstance(c, Crystal)
        assert len(c) == 5

    def test_cubic_cell(self, rng):
        c = synth_perovskite(rng)
        lat = c.lattice
        assert lat.a == lat.b == lat.c
        assert lat.alpha == lat.beta == lat.gamma == 90.0
        assert 3.8 <= lat.a <= 4.6

    def test_composition_abx3(self, rng):
        c = synth_perovskite(rng)
        counts = sorted(crystal_composition(c).values())
        assert counts == [1, 1, 3]

    def test_charge_neutral(self, rng):
        for _ in range(30):
            c = synth_perovskite(rng)
            assert charge_neutrality(crystal_composition(c)).valid

    def test_fully_valid(self, rng):
        for _ in range(30):
            ok, reason, _ = validity(synth_perovskite(rng))
            assert ok, reason


class TestPockets:
    def test_table_correct(self, rng):
        for _ in range(20):
            p = synth_pocket(rng)
            ok, reasons = pocket_residue_check(p)
            assert ok, reasons

    def test_no_overlaps(self, rng):
        for _ in range(20):
            ok, reason, _ = validity(synth_pocket(rng))
            assert ok, reason

    def test_residue_count_range(self, rng):
        counts = {synth_pocket(rng).n_residues() for _ in range(30)}
        assert counts <= set(range(6, 11))
        assert len(counts) > 1

    def test_requested_residue_count(self, rng):
        p = synth_pocket(rng, n_residues=4)
        assert p.n_residues() == 4

    def test_only_canonical_heavy_atoms(self, rng):
        p = synth_pocket(rng)
        for a in p.atoms:
            assert a.element != "H"
            assert a.residue in RESIDUE_ATOMS


class TestCorpus:
    def test_kinds(self, rng):
        mols = synth_corpus("molecule", 3, seed=1)
        xtls = synth_corpus("perovskite", 3, seed=1)
        pkts = synth_corpus("pocket", 2, seed=1)
        assert all(isinstance(m, Molecule) for m in mols)
        assert all(isinstance(c, Crystal) for c in xtls)
        assert all(isinstance(p, Pocket) for p in pkts)

    def test_deterministic_per_seed(self):
        a = synth_corpus("molecule", 5, seed=42)
        b = synth_corpus("molecule", 5, seed=42)
        c = synth_corpus("molecule", 5, seed=43)
        assert a == b
        assert a != c

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_corpus("protein", 1, seed=0)

    def test_pocket_kwargs_forwarded(self):
        pkts = synth_corpus("pocket", 2, seed=0, n_residues=3)
        assert all(p.n_residues() == 3 for p in pkts)


class TestCross:
    def test_equals_np_cross_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            scale = 10.0 ** rng.uniform(-8, 8, size=2)
            a, b = rng.normal(size=3) * scale[0], rng.normal(size=3) * scale[1]
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes(), (a, b)

    def test_signed_zeros_and_parallel_vectors(self):
        for a, b in (([0.0, -0.0, 1.0], [-0.0, 0.0, 2.0]), ([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]),
                     ([-1.0, 0.0, 0.0], [0.0, 1.0, 0.0])):
            a, b = np.array(a), np.array(b)
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
