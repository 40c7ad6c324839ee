import hashlib
import math
import os

from unittest import mock

import numpy as np
import pytest
from conftest import MOLECULE_ELEMENTS, random_crystal, random_molecule, random_pocket
from reference_algorithms import reference_charge_neutrality
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlm.cli import main
from chemlm.elements import get_element, is_element
from chemlm.formats import parse_xyz, write_cif
from chemlm.geometry import min_image_distance, pairwise_distances
from chemlm.metrics import evaluate_sequences, evaluate_structures
from chemlm.metrics.bonds import (
    BOND_SLACK,
    CLASH_FLOOR,
    VALENCES,
    molecule_validity,
    perceive_bonds,
    perceive_bonds_batch,
)
from chemlm.metrics.crystals import (
    OXIDATION_STATES,
    charge_neutrality,
    crystal_structural_validity,
    shortest_self_image_distance,
)
from chemlm.metrics.verdict import Verdict
from chemlm.metrics.keys import (
    canonical_key,
    crystal_key,
    molecule_key,
    residue_ordering,
    unique_novel,
)
from chemlm.metrics.pockets import pocket_overlap_check, pocket_residue_check
from chemlm.metrics.report import SCHEMA_VERSION, MetricsReport, validity
from chemlm.synth import synth_perovskite
from chemlm.structures import (
    CANONICAL_RESIDUES,
    RESIDUE_ATOMS,
    Atom,
    Crystal,
    Lattice,
    Molecule,
    Pocket,
    PocketAtom,
    Site,
)

TET = 1.0 / math.sqrt(3.0)


def methane():
    d = 1.09 * TET
    return Molecule(
        [
            Atom("C", 0, 0, 0),
            Atom("H", d, d, d),
            Atom("H", d, -d, -d),
            Atom("H", -d, d, -d),
            Atom("H", -d, -d, d),
        ]
    )


def water():
    return Molecule(
        [Atom("O", 0, 0, 0), Atom("H", 0.96, 0, 0), Atom("H", -0.24, 0.93, 0)]
    )


def reference_perceive_bonds(molecule):
    """Pair-by-pair bond perception, the order perceive_bonds must keep."""
    d = pairwise_distances(molecule.coords())
    radii = [get_element(s).covalent_radius for s in molecule.symbols()]
    bonds, clashes = [], []
    for i in range(len(molecule)):
        for j in range(i + 1, len(molecule)):
            if d[i, j] < CLASH_FLOOR:
                clashes.append((i, j))
            elif d[i, j] < radii[i] + radii[j] + BOND_SLACK:
                bonds.append((i, j))
    return bonds, clashes


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_molecule_key(molecule):
    """n rounds of Weisfeiler-Lehman with one sha256 per atom and round.

    Slow but plainly right: molecule_key must put two molecules under
    one key exactly when this does.
    """
    n = len(molecule)
    bonds, _ = reference_perceive_bonds(molecule)
    adjacency = [[] for _ in range(n)]
    for i, j in bonds:
        adjacency[i].append(j)
        adjacency[j].append(i)
    labels = [_sha(sym) for sym in molecule.symbols()]
    for _ in range(n):
        labels = [
            _sha(labels[i] + "|" + ",".join(sorted(labels[j] for j in adjacency[i])))
            for i in range(n)
        ]
    return "mol:" + _sha(",".join(sorted(labels)))


def straight_chain(symbols, spacing=1.45):
    """Atoms on the x axis, each bonded to the next and to nothing else."""
    return Molecule([Atom(sym, spacing * i, 0.0, 0.0) for i, sym in enumerate(symbols)])


@pytest.fixture(scope="module")
def synth_molecules(tmp_path_factory):
    """300 molecules as `chemlm synth --kind molecule` writes them."""
    out = str(tmp_path_factory.mktemp("synth"))
    assert main(["synth", "--kind", "molecule", "--n", "300", "--seed", "17", "--out", out]) == 0
    directory = os.path.join(out, "structures")
    molecules = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            molecules.append(parse_xyz(fh.read()))
    return molecules


class TestKeyReference:
    """molecule_key and perceive_bonds against their slow references."""

    @staticmethod
    def assert_same_partition(molecules):
        pairs = {(reference_molecule_key(m), molecule_key(m)) for m in molecules}
        old = {o for o, _ in pairs}
        new = {k for _, k in pairs}
        # a bijection between old and new keys: the same classes
        assert len(old) == len(pairs) == len(new)
        # and the set has classes with more than one member to keep together
        assert len(pairs) < len(molecules)

    def test_same_partition_on_synth_molecules(self, synth_molecules):
        self.assert_same_partition(synth_molecules)

    def test_same_partition_on_random_molecules(self):
        rng = np.random.default_rng(20240817)
        self.assert_same_partition([random_molecule(rng) for _ in range(300)])

    def test_bonds_match_the_pairwise_loop(self, synth_molecules):
        rng = np.random.default_rng(5)
        for m in synth_molecules + [random_molecule(rng) for _ in range(300)]:
            assert perceive_bonds(m) == reference_perceive_bonds(m)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        shapes=st.lists(
            st.tuples(st.sampled_from(["random", "single", "clash"]), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=12,
        ),
        block=st.sampled_from([1, 5, 1 << 16]),
    )
    def test_batched_bonds_match_the_pairwise_loop(self, shapes, block):
        # molecules of mixed atom counts, one atom and clashing ones among
        # them, in blocks smaller than one molecule's pairs and larger
        molecules = []
        for shape, seed in shapes:
            rng = np.random.default_rng(seed)
            if shape == "single":
                el = str(rng.choice(MOLECULE_ELEMENTS))
                molecules.append(Molecule([Atom(el, *rng.uniform(-9.0, 9.0, size=3))]))
                continue
            m = random_molecule(rng)
            if shape == "clash":
                a = m.atoms[int(rng.integers(len(m)))]
                near = Atom("H", a.x + rng.uniform(-0.2, 0.2), a.y, a.z)
                m = Molecule(m.atoms + (near,))
            molecules.append(m)
        with mock.patch("chemlm.metrics.bonds._PAIRS_PER_BLOCK", block):
            batched = perceive_bonds_batch(molecules)
        assert batched == [reference_perceive_bonds(m) for m in molecules]

    def test_two_clashes_in_row_major_order(self):
        m = Molecule(
            [
                Atom("C", 0.0, 0, 0),
                Atom("O", 5.0, 0, 0),
                Atom("N", 10.0, 0, 0),
                Atom("C", 5.2, 0, 0),
                Atom("H", 0.1, 0, 0),
                Atom("H", 11.0, 0, 0),
            ]
        )
        expected = ([(2, 5)], [(0, 4), (1, 3)])
        assert reference_perceive_bonds(m) == expected
        assert perceive_bonds(m) == expected
        assert "atoms 0 and 4" in molecule_validity(m).reason


class TestDataTables:
    def test_residue_table_covers_the_canonical_residues(self):
        assert set(RESIDUE_ATOMS) == CANONICAL_RESIDUES

    @pytest.mark.parametrize("table", [VALENCES, OXIDATION_STATES], ids=["valences", "oxidation"])
    def test_element_tables_are_keyed_by_elements(self, table):
        assert table and all(is_element(symbol) for symbol in table)


class TestMoleculeValidity:
    def test_methane_valid(self):
        assert molecule_validity(methane()).valid

    def test_water_valid(self):
        assert molecule_validity(water()).valid

    def test_clash(self):
        m = Molecule([Atom("C", 0, 0, 0), Atom("O", 0.3, 0, 0)])
        v = molecule_validity(m)
        assert not v.valid
        assert "clash" in v.reason

    def test_under_valence(self):
        # two carbons 1.54 A apart: bonded, but each has degree 1 not 4
        m = Molecule([Atom("C", 0, 0, 0), Atom("C", 1.54, 0, 0)])
        v = molecule_validity(m)
        assert not v.valid
        assert v.reason.startswith("valence")

    def test_disconnected(self):
        # two H2 units far apart: every valence is satisfied, so the
        # connectivity stage is the one that must fire
        m = Molecule(
            [
                Atom("H", 0, 0, 0),
                Atom("H", 0.74, 0, 0),
                Atom("H", 50, 0, 0),
                Atom("H", 50.74, 0, 0),
            ]
        )
        v = molecule_validity(m)
        assert not v.valid
        assert v.reason == "disconnected bond graph"

    def test_clash_reported_before_valence(self):
        m = Molecule([Atom("C", 0, 0, 0), Atom("C", 0.2, 0, 0)])
        v = molecule_validity(m)
        assert "clash" in v.reason

    def test_no_valence_data(self):
        m = Molecule([Atom("Fe", 0, 0, 0)])
        v = molecule_validity(m)
        assert not v.valid
        assert "Fe" in v.reason

    def test_verdict_is_truthy(self):
        assert molecule_validity(methane())
        assert not molecule_validity(Molecule([Atom("C", 0, 0, 0), Atom("C", 0.2, 0, 0)]))


def reference_crystal_validity(crystal, threshold):
    """Pair-by-pair periodic distance check, the verdicts crystal_structural_validity must keep."""
    self_image = shortest_self_image_distance(crystal)
    if self_image <= threshold:
        return Verdict.fail(
            f"self-image distance {self_image:.3f} A not larger than {threshold} A"
        )
    coords = crystal.coords()
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            d = min_image_distance(crystal.lattice, coords[i], coords[j])
            if d <= threshold:
                return Verdict.fail(
                    f"sites {i} and {j} at {d:.3f} A, not larger than {threshold} A"
                )
    return Verdict.ok()


def perturbed(crystal, rng, scale):
    """The crystal with every fractional coordinate moved by up to `scale`."""
    moved = np.array(crystal.coords()) + rng.uniform(-scale, scale, size=(len(crystal), 3))
    return crystal.with_coords(moved)


class TestCrystalValidity:
    def hand_crystal(self, separation_frac):
        lat = Lattice(10, 10, 10, 90, 90, 90)
        return Crystal(lat, [Site("Na", 0, 0, 0), Site("Cl", separation_frac, 0, 0)])

    def test_pair_at_0_4_invalid(self):
        assert not crystal_structural_validity(self.hand_crystal(0.04)).valid

    def test_pair_at_0_6_valid(self):
        assert crystal_structural_validity(self.hand_crystal(0.06)).valid

    def test_exactly_threshold_invalid(self):
        # the rule is strictly larger than 0.5 A
        assert not crystal_structural_validity(self.hand_crystal(0.05)).valid

    def test_wrap_around_pair_detected(self):
        # sites at 0.01 and 0.97 are 0.4 A apart through the boundary
        lat = Lattice(10, 10, 10, 90, 90, 90)
        c = Crystal(lat, [Site("Na", 0.01, 0, 0), Site("Cl", 0.97, 0, 0)])
        assert not crystal_structural_validity(c).valid

    def test_tiny_cell_fails_self_image(self):
        c = Crystal(Lattice(0.45, 8, 8, 90, 90, 90), [Site("H", 0, 0, 0)])
        assert shortest_self_image_distance(c) == pytest.approx(0.45)
        v = crystal_structural_validity(c)
        assert not v.valid
        assert "self-image" in v.reason

    def test_single_site_reasonable_cell_valid(self):
        c = Crystal(Lattice(4, 4, 4, 90, 90, 90), [Site("Po", 0, 0, 0)])
        assert crystal_structural_validity(c).valid

    @pytest.mark.parametrize("threshold", [0.5, 1.0, 1.8, 2.5])
    def test_matches_the_pairwise_loop(self, threshold):
        rng = np.random.default_rng(11)
        crystals = [synth_perovskite(rng) for _ in range(60)]
        crystals += [perturbed(c, rng, 0.2) for c in crystals]
        crystals += [random_crystal(rng) for _ in range(120)]
        verdicts = [crystal_structural_validity(c, threshold) for c in crystals]
        assert verdicts == [reference_crystal_validity(c, threshold) for c in crystals]
        # both verdicts are well represented
        failing = sum(not v.valid for v in verdicts)
        assert 0 < failing < len(verdicts)
        assert any(v.reason and v.reason.startswith("sites") for v in verdicts)

    def test_first_failing_pair_beyond_the_first_block(self):
        # a 9 x 9 grid of sites 4 A apart plus two sites 0.8 A apart gives
        # 3403 pairs; only the last one fails, past the first block of pairs
        sites = [Site("Na", 0.1 * a, 0.1 * b, 0.0) for a in range(9) for b in range(9)]
        sites += [Site("Cl", 0.55, 0.55, 0.5), Site("Cl", 0.55, 0.55, 0.52)]
        c = Crystal(Lattice(40, 40, 40, 90, 90, 90), sites)
        v = crystal_structural_validity(c, 1.0)
        assert v == reference_crystal_validity(c, 1.0)
        assert v.reason.startswith("sites 81 and 82 at 0.800 A")


class TestChargeNeutrality:
    def test_rock_salt(self):
        assert charge_neutrality({"Na": 1, "Cl": 1}).valid

    def test_na2cl_fails(self):
        v = charge_neutrality({"Na": 2, "Cl": 1})
        assert not v.valid
        assert "Na:2" in v.reason

    def test_perovskite(self):
        assert charge_neutrality({"Ca": 1, "Ti": 1, "O": 3}).valid

    def test_multiple_states_searched(self):
        # Fe(2+) with one O would not balance; Fe2O3 needs the 3+ state
        assert charge_neutrality({"Fe": 2, "O": 3}).valid

    def test_element_missing_from_table(self):
        v = charge_neutrality({"Zz": 1})
        assert not v.valid
        assert "Zz" in v.reason

    def test_full_crystal_validity_combines(self):
        good = Crystal(
            Lattice(5.6, 5.6, 5.6, 90, 90, 90),
            [Site("Na", 0, 0, 0), Site("Cl", 0.5, 0.5, 0.5)],
        )
        assert validity(good) == (True, "", {"structural": True, "composition": True})
        clash = Crystal(
            Lattice(5.6, 5.6, 5.6, 90, 90, 90),
            [Site("Na", 0, 0, 0), Site("Cl", 0.05, 0, 0)],
        )
        ok, reason, flags = validity(clash)
        assert not ok
        assert flags == {"structural": False, "composition": True}
        assert "sites 0 and 1" in reason

    def test_validity_flags_composition_only_failure(self):
        bad_comp = Crystal(
            Lattice(5.6, 5.6, 5.6, 90, 90, 90),
            [Site("Na", 0, 0, 0), Site("Na", 0.5, 0, 0), Site("Cl", 0.5, 0.5, 0.5)],
        )
        ok, reason, flags = validity(bad_comp)
        assert not ok
        assert flags == {"structural": True, "composition": False}
        assert "oxidation" in reason
        assert reason == charge_neutrality({"Na": 2, "Cl": 1}).reason

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(composition=st.dictionaries(
        st.sampled_from(sorted(OXIDATION_STATES) + ["Zz"]), st.integers(0, 12),
        min_size=1, max_size=5))
    def test_matches_pruned_search(self, composition):
        # the reachable-totals set against the recursive search it replaced,
        # an unknown element and a zero count included
        def outcome(check):
            try:
                return check(composition)
            except ValueError as exc:
                return str(exc)
        assert outcome(charge_neutrality) == outcome(reference_charge_neutrality)


def ideal_gly(index, x0):
    return [
        PocketAtom("GLY", "N", index, x0, 0.0, 0.0),
        PocketAtom("GLY", "C", index, x0 + 1.46, 0.0, 0.0),
        PocketAtom("GLY", "C", index, x0 + 2.2, 1.3, 0.0),
        PocketAtom("GLY", "O", index, x0 + 3.4, 1.35, 0.4),
    ]


class TestPocketChecks:
    def test_table_correct_pocket_passes(self):
        p = Pocket(tuple(ideal_gly(1, 0.0) + ideal_gly(2, 8.0)))
        ok, reasons = pocket_residue_check(p)
        assert ok and reasons == []
        assert validity(p) == (True, "", {"residue": True, "overlap": True})

    def test_missing_atom_reason(self):
        atoms = ideal_gly(1, 0.0)
        p = Pocket(tuple(atoms[:-1]))  # drop the O
        ok, reasons = pocket_residue_check(p)
        assert not ok
        assert reasons == ["GLY@1: missing O"]

    def test_extra_atom_reason(self):
        atoms = ideal_gly(1, 0.0) + [PocketAtom("GLY", "C", 1, 5.0, 5.0, 0.0)]
        ok, reasons = pocket_residue_check(Pocket(tuple(atoms)))
        assert not ok
        assert reasons == ["GLY@1: extra C"]

    def test_multiple_failures_listed_per_residue(self):
        atoms = ideal_gly(1, 0.0)[:-1] + [PocketAtom("GLY", "S", 1, 3.4, 1.35, 0.4)]
        ok, reasons = pocket_residue_check(Pocket(tuple(atoms)))
        assert not ok
        assert reasons == ["GLY@1: missing O, extra S"]

    def test_only_failing_residues_reported(self):
        atoms = ideal_gly(1, 0.0) + ideal_gly(2, 8.0)[:-1]
        ok, reasons = pocket_residue_check(Pocket(tuple(atoms)))
        assert reasons == ["GLY@2: missing O"]

    def test_overlap_detected(self):
        atoms = ideal_gly(1, 0.0) + ideal_gly(2, 8.0)
        # move one atom of residue 2 to 0.8 A from an atom of residue 1
        moved = list(atoms)
        moved[4] = PocketAtom("GLY", "N", 2, 0.8, 0.0, 0.0)
        v = pocket_overlap_check(Pocket(tuple(moved)))
        assert not v.valid
        assert "0.800" in v.reason

    def test_peptide_bond_distance_passes(self):
        # closest inter-residue pair here is 1.33 A (backbone C to next N),
        # above the 1.1 A threshold
        atoms = ideal_gly(1, 0.0) + ideal_gly(2, 2.79)
        assert pocket_overlap_check(Pocket(tuple(atoms))).valid

    def test_intra_residue_contacts_ignored(self):
        atoms = ideal_gly(1, 0.0)
        squeezed = list(atoms)
        squeezed[1] = PocketAtom("GLY", "C", 1, 0.5, 0.0, 0.0)
        assert pocket_overlap_check(Pocket(tuple(squeezed))).valid

    def test_threshold_parameter(self):
        atoms = ideal_gly(1, 0.0) + ideal_gly(2, 2.79)
        p = Pocket(tuple(atoms))
        assert pocket_overlap_check(p, threshold=1.1).valid
        assert not pocket_overlap_check(p, threshold=1.5).valid

    def test_bad_threshold(self):
        p = Pocket(tuple(ideal_gly(1, 0.0)))
        with pytest.raises(ValueError):
            pocket_overlap_check(p, threshold=0.0)

    def test_overlap_matches_pair_loop(self, rng):
        def loop_check(pocket, threshold):
            # the pair-by-pair scan the array check replaced
            d = pairwise_distances(pocket.coords())
            atoms = pocket.atoms
            for i in range(len(atoms)):
                for j in range(i + 1, len(atoms)):
                    if atoms[i].residue_index != atoms[j].residue_index and d[i, j] < threshold:
                        return Verdict.fail(
                            f"atoms {i} ({atoms[i].indicator}@{atoms[i].residue_index}) and "
                            f"{j} ({atoms[j].indicator}@{atoms[j].residue_index}) "
                            f"at {d[i, j]:.3f} A, below {threshold} A"
                        )
            return Verdict.ok()

        flagged = {}
        for threshold in (1.1, 3.0, 6.0):
            for _ in range(30):
                # residue centers within about 6 A of the origin
                p = random_pocket(rng, n_residues=int(rng.integers(2, 8)))
                p = p.with_coords(np.array(p.coords()) * 0.3)
                got = pocket_overlap_check(p, threshold)
                assert got == loop_check(p, threshold)
                flagged[threshold] = flagged.get(threshold, 0) + (not got.valid)
        assert flagged[3.0] and flagged[6.0]


class TestKeys:
    def test_molecule_key_ignores_atom_order(self, rng):
        m = methane()
        for _ in range(10):
            perm = rng.permutation(len(m)).tolist()
            shuffled = Molecule(tuple(m.atoms[i] for i in perm))
            assert molecule_key(shuffled) == molecule_key(m)

    def test_molecule_key_ignores_rigid_motion(self):
        m = water()
        shifted = Molecule(tuple(Atom(a.symbol, a.x + 3, a.y, a.z) for a in m.atoms))
        assert molecule_key(shifted) == molecule_key(m)

    def test_molecule_key_sees_the_graph(self):
        assert molecule_key(methane()) != molecule_key(water())

    def test_distinguishes_chain_lengths(self):
        def chain(n):
            atoms = [Atom("H", 0.0, 0, 0)]
            for i in range(n):
                atoms.append(Atom("C", 1.0 + 1.5 * i, 0, 0))
            atoms.append(Atom("H", 1.0 + 1.5 * n, 0, 0))
            return Molecule(tuple(atoms))

        # not chemically valid, but the keys must still differ
        assert molecule_key(chain(2)) != molecule_key(chain(3))

    def test_same_ranks_different_elements(self):
        # C-O and C-N chains get the same colour ranks at every round;
        # only the hashed tables (the symbols of round 0) tell them apart
        co, cn, oc = straight_chain("CO"), straight_chain("CN"), straight_chain("OC")
        assert molecule_key(co) != molecule_key(cn)
        assert molecule_key(co) == molecule_key(oc)
        assert reference_molecule_key(co) != reference_molecule_key(cn)

    def test_bonded_and_distant_atoms_differ(self):
        # both partitions are stable after one round with one class;
        # only that last round's table says whether the carbons are bonded
        assert molecule_key(straight_chain("CC")) != molecule_key(straight_chain("CC", 5.0))

    def test_crystal_key_rounds_to_two_decimals(self):
        a = Crystal(Lattice(4.001, 4, 4, 90, 90, 90), [Site("Po", 0.25, 0, 0)])
        b = Crystal(Lattice(4.004, 4, 4, 90, 90, 90), [Site("Po", 0.252, 0, 0)])
        c = Crystal(Lattice(4.02, 4, 4, 90, 90, 90), [Site("Po", 0.25, 0, 0)])
        assert crystal_key(a) == crystal_key(b)
        assert crystal_key(a) != crystal_key(c)

    def test_crystal_key_reads_a_fraction_as_the_cif_writer_prints_it(self):
        # 0.999 rounds to 1.00, which a CIF file holds as 0.00
        lat = Lattice(4, 4, 4, 90, 90, 90)
        near_one = Crystal(lat, [Site("Po", 0.999, 0.5, 0.5)])
        zero = Crystal(lat, [Site("Po", 0.0, 0.5, 0.5)])
        assert write_cif(near_one, 2) == write_cif(zero, 2)
        assert crystal_key(near_one) == crystal_key(zero)
        assert crystal_key(near_one).endswith(";Po@0.00,0.50,0.50")

    def test_crystal_key_ignores_site_order(self):
        s1, s2 = Site("Na", 0, 0, 0), Site("Cl", 0.5, 0.5, 0.5)
        lat = Lattice(5.6, 5.6, 5.6, 90, 90, 90)
        assert crystal_key(Crystal(lat, [s1, s2])) == crystal_key(Crystal(lat, [s2, s1]))

    def test_pocket_key_is_residue_ordering(self):
        p = Pocket(tuple(ideal_gly(1, 0.0) + ideal_gly(2, 8.0)))
        assert residue_ordering(p) == "GLY-GLY"
        assert canonical_key(p) == "pkt:GLY-GLY"

    def test_unique_novel_arithmetic(self):
        sample = ["a", "a", "b", "c"]
        train = ["b", "x"]
        unique_pct, novel_pct = unique_novel(sample, train)
        assert unique_pct == pytest.approx(75.0)  # 3 distinct / 4 samples
        assert novel_pct == pytest.approx(2 / 3 * 100)  # a, c of {a,b,c}

    def test_unique_novel_empty_sample(self):
        with pytest.raises(ValueError):
            unique_novel([], ["a"])


class TestEvaluate:
    def make_train(self):
        lat = Lattice(5.6, 5.6, 5.6, 90, 90, 90)
        return [
            Crystal(lat, [Site("Na", 0, 0, 0), Site("Cl", 0.5, 0.5, 0.5)]),
            Crystal(Lattice(4.2, 4.2, 4.2, 90, 90, 90), [Site("Ca", 0, 0, 0), Site("O", 0.5, 0.5, 0.5)]),
            Crystal(Lattice(6.0, 6.0, 6.0, 90, 90, 90), [Site("K", 0, 0, 0), Site("Br", 0.5, 0.5, 0.5)]),
            Crystal(Lattice(5.1, 5.1, 5.1, 90, 90, 90), [Site("Li", 0, 0, 0), Site("F", 0.5, 0.5, 0.5)]),
        ]

    def test_bucketing(self):
        train = self.make_train()
        bad_structural = Crystal(
            Lattice(10, 10, 10, 90, 90, 90),
            [Site("Na", 0, 0, 0), Site("Cl", 0.04, 0, 0)],
        )
        samples = [train[0], None, bad_structural]
        result = evaluate_structures(samples, train, decode_failures={1: "truncated_group: oops"})
        r = result.report
        assert (r.n_samples, r.n_decode_failed, r.n_invalid, r.n_valid) == (3, 1, 1, 1)
        assert r.valid_pct == pytest.approx(100.0 / 3)
        assert [row.bucket for row in result.rows] == ["valid", "decode_failed", "invalid"]
        assert result.rows[1].reason.startswith("truncated_group")

    def test_decode_failure_counts_against_validity(self):
        train = self.make_train()
        result = evaluate_structures([None, train[0]], train, decode_failures={0: "x"})
        assert result.report.valid_pct == pytest.approx(50.0)

    def test_unique_novel_over_valid_subset(self):
        train = self.make_train()
        novel = Crystal(
            Lattice(4.8, 4.8, 4.8, 90, 90, 90),
            [Site("Rb", 0, 0, 0), Site("I", 0.5, 0.5, 0.5)],
        )
        result = evaluate_structures([train[0], train[0], novel], train)
        assert result.report.unique_pct == pytest.approx(2 / 3 * 100)
        assert result.report.novel_pct == pytest.approx(50.0)

    def test_no_valid_samples_leaves_none(self):
        train = self.make_train()
        result = evaluate_structures([None], train, decode_failures={0: "x"})
        assert result.report.unique_pct is None
        assert result.report.novel_pct is None
        assert result.report.emd == {}

    def test_extra_validity_percentages(self):
        train = self.make_train()
        bad_structural = Crystal(
            Lattice(10, 10, 10, 90, 90, 90),
            [Site("Na", 0, 0, 0), Site("Cl", 0.04, 0, 0)],
        )
        result = evaluate_structures([train[0], bad_structural], train)
        assert result.report.extra_validity_pct["structural"] == pytest.approx(50.0)
        assert result.report.extra_validity_pct["composition"] == pytest.approx(100.0)

    def test_emd_and_oracle_present(self):
        train = self.make_train()
        result = evaluate_structures([train[0], train[1]], train)
        assert set(result.report.emd) == {"density", "n_elem"}
        assert set(result.report.emd_oracle) == {"density", "n_elem"}
        assert result.report.emd["density"] >= 0.0

    def test_oracle_halves_deterministic(self):
        train = self.make_train()
        a = evaluate_structures([train[0]], train, eval_seed=7)
        b = evaluate_structures([train[0]], train, eval_seed=7)
        assert a.report.emd_oracle == b.report.emd_oracle

    def test_wrong_kind_sample_is_invalid(self):
        train = self.make_train()
        result = evaluate_structures([methane()], train)
        assert result.rows[0].bucket == "invalid"
        assert result.rows[0].reason == "wrong structure kind"

    def test_evaluate_sequences_decodes(self, rng):
        from chemlm.tokenize import Scheme, build_vocab, encode

        train = self.make_train()
        vocab = build_vocab(train, Scheme("atom_coord", 2))
        seqs = [encode(train[0], vocab), encode(train[1], vocab)]
        result = evaluate_sequences(seqs, vocab, train)
        assert result.report.n_valid == 2

    def test_molecules_scored_as_one_by_one(self, synth_molecules):
        # the batch perceives every molecule's bonds once, for its
        # validity and its key alike; mixed atom counts, valid and not
        rng = np.random.default_rng(3)
        samples = synth_molecules[:40] + [random_molecule(rng) for _ in range(40)]
        train = synth_molecules[40:120]
        result = evaluate_structures(samples, train)
        expected = [validity(m) for m in samples]
        assert [(row.bucket == "valid", row.reason) for row in result.rows] == [
            (ok, reason) for ok, reason, _ in expected
        ]
        valid = [m for m, (ok, _, _) in zip(samples, expected) if ok]
        assert 0 < len(valid) < len(samples)
        unique, novel = unique_novel(
            [canonical_key(m) for m in valid], [canonical_key(m) for m in train]
        )
        assert (result.report.unique_pct, result.report.novel_pct) == (unique, novel)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            evaluate_structures([], self.make_train())


class TestReportSchema:
    def test_json_round_trip(self):
        train_lat = Lattice(5.6, 5.6, 5.6, 90, 90, 90)
        train = [Crystal(train_lat, [Site("Na", 0, 0, 0), Site("Cl", 0.5, 0.5, 0.5)])] * 2
        report = evaluate_structures([train[0]], train).report
        back = MetricsReport.from_json(report.to_json())
        assert back == report

    def test_schema_version_mismatch(self):
        train_lat = Lattice(5.6, 5.6, 5.6, 90, 90, 90)
        train = [Crystal(train_lat, [Site("Na", 0, 0, 0), Site("Cl", 0.5, 0.5, 0.5)])] * 2
        report = evaluate_structures([train[0]], train).report
        text = report.to_json().replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 999'
        )
        with pytest.raises(ValueError, match="schema version"):
            MetricsReport.from_json(text)
