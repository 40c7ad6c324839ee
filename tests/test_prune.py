import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlm.formats.prune import PruneResult, prune_pocket
from chemlm.structures import CANONICAL_RESIDUES, Pocket

from conftest import pocket_of, random_pocket
from reference_algorithms import reference_prune_pocket


def residue(code, index, n_atoms, x0, element="C"):
    """n_atoms atoms of one residue spread along y near x=x0, as
    (code, element, index, (x, y, z)) rows."""
    return [(code, element, index, (x0, 0.7 * j, 0.0)) for j in range(n_atoms)]


def build(*specs):
    rows = []
    for code, index, n_atoms, x0 in specs:
        rows.extend(residue(code, index, n_atoms, x0))
    return pocket_of(rows)


class TestPrunePocket:
    def test_removes_exactly_the_farthest_residue(self):
        p = build(("GLY", 1, 3, 0.0), ("ALA", 2, 3, 2.0), ("SER", 3, 3, 50.0))
        r = prune_pocket(p, center=(0, 0, 0), target_atoms=(3, 6))
        assert r.removed_residues == 1
        assert set(r.pocket.residues) == {"GLY", "ALA"}
        assert not r.below_min

    def test_within_window_unchanged(self):
        p = build(("GLY", 1, 3, 0.0), ("ALA", 2, 2, 2.0))
        r = prune_pocket(p, center=(0, 0, 0), target_atoms=(2, 5))
        assert r.pocket == p
        assert r.removed_residues == 0

    def test_below_min_flagged_and_unchanged(self):
        p = build(("GLY", 1, 2, 0.0))
        r = prune_pocket(p, center=(0, 0, 0), target_atoms=(200, 250))
        assert r == PruneResult(p, 0, True)

    def test_equidistant_tie_removes_larger_index(self):
        # two single-atom residues mirrored about the center
        p = Pocket(["C", "C", "C"], ["GLY", "ALA", "SER"], [1, 2, 3],
                   [(-3.0, 0, 0), (3.0, 0, 0), (0.0, 0, 0)])
        r = prune_pocket(p, center=(0, 0, 0), target_atoms=(1, 2))
        assert r.removed_residues == 1
        assert set(r.pocket.residues) == {"GLY", "SER"}

    def test_overshoot_accepted(self):
        # removing the farthest (5-atom) residue jumps from 8 past the
        # window straight to 3; the overshoot is kept
        p = build(("GLY", 1, 3, 0.0), ("LEU", 2, 5, 40.0))
        r = prune_pocket(p, center=(0, 0, 0), target_atoms=(4, 6))
        assert len(r.pocket) == 3
        assert r.removed_residues == 1

    def test_never_removes_the_last_residue(self):
        p = build(("LEU", 1, 8, 0.0))
        r = prune_pocket(p, center=(100, 0, 0), target_atoms=(2, 4))
        assert len(r.pocket) == 8

    def test_residues_never_split(self):
        p = build(("GLY", 1, 4, 0.0), ("ALA", 2, 4, 10.0), ("SER", 3, 4, 20.0))
        r = prune_pocket(p, center=(0, 0, 0), target_atoms=(2, 7))
        counts = {r.pocket.residues[start]: stop - start for start, stop in r.pocket.residue_spans()}
        assert counts == {"GLY": 4}

    def test_output_order_is_a_subsequence(self):
        p = build(("GLY", 1, 3, 5.0), ("ALA", 2, 3, 0.0), ("SER", 3, 3, 2.0))
        r = prune_pocket(p, center=(0, 0, 0), target_atoms=(3, 6))
        kept = [(code, x, y) for code, (x, y, _) in zip(r.pocket.residues, r.pocket.coords.tolist())]
        original = [(code, x, y) for code, (x, y, _) in zip(p.residues, p.coords.tolist())]
        it = iter(original)
        assert all(any(item == o for o in it) for item in kept)

    def test_default_window(self):
        # 26 ten-atom residues = 260 atoms; the default [200, 250] window
        # drops exactly one residue
        specs = [("GLY", i, 10, float(i)) for i in range(1, 27)]
        p = build(*specs)
        r = prune_pocket(p, center=(0, 0, 0))
        assert len(r.pocket) == 250
        assert r.removed_residues == 1

    def test_bad_range_rejected(self):
        p = build(("GLY", 1, 3, 0.0))
        with pytest.raises(ValueError):
            prune_pocket(p, center=(0, 0, 0), target_atoms=(5, 2))


@st.composite
def tied_pockets(draw):
    """A pocket whose residues sit on a few mirrored points about the
    origin, so that many centroid distances tie exactly."""
    n = draw(st.integers(1, 12))
    points = [(1.5, 0.0, 0.0), (-1.5, 0.0, 0.0), (0.0, 1.5, 0.0), (0.0, 0.0, -1.5), (3.0, 4.0, 0.0)]
    rows = []
    for index in range(1, n + 1):
        code = draw(st.sampled_from(sorted(CANONICAL_RESIDUES)))
        x, y, z = draw(st.sampled_from(points))
        # offsets that cancel exactly, so the centroid stays on the point
        for dy in draw(st.sampled_from([(0.0,), (0.25, -0.25), (0.0, 0.5, -0.5)])):
            rows.append((code, "C", index, (x, y + dy, z)))
    return pocket_of(rows)


def same_result(got: PruneResult, want: PruneResult) -> bool:
    return (got == want and got.pocket.residue_index.tolist() == want.pocket.residue_index.tolist()
            and np.array_equal(got.pocket.coords, want.pocket.coords))


class TestPruneMatchesTheRemovalLoop:
    """Each residue's distance is computed once; the loop that recomputed
    them all on every removal must pick the same residues."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n_residues=st.integers(1, 10),
           lo=st.integers(1, 60), width=st.integers(0, 40),
           center=st.tuples(*[st.floats(-20.0, 20.0)] * 3))
    def test_random_pockets(self, seed, n_residues, lo, width, center):
        p = random_pocket(np.random.default_rng(seed), n_residues)
        target = (lo, lo + width)
        got = prune_pocket(p, center, target)
        if len(p) < lo:
            assert got == PruneResult(p, 0, True)
        else:
            assert same_result(got, reference_prune_pocket(p, center, target))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(p=tied_pockets(), lo=st.integers(1, 20), width=st.integers(0, 10))
    def test_forced_ties(self, p, lo, width):
        target = (lo, lo + width)
        got = prune_pocket(p, (0.0, 0.0, 0.0), target)
        if len(p) >= lo:
            assert same_result(got, reference_prune_pocket(p, (0.0, 0.0, 0.0), target))
