import math

import numpy as np
import pytest

from chemlm.errors import InvalidLatticeError
from chemlm.geometry import (
    cell_volume,
    centroid,
    crystal_density,
    lattice_matrix,
    min_image_distance,
    molecular_weight,
    pair_distances,
    upper_pairs,
)
from chemlm.structures import Lattice, Molecule

from conftest import random_lattice
from reference_algorithms import reference_pairwise_distances


def kabsch_rmsd(coords_p, coords_q) -> float:
    """Minimum RMSD between two equal-length point sets.

    Both sets are centered, the optimal proper rotation is found from the
    SVD of the covariance matrix (with the determinant sign correction
    that excludes reflections), and the RMSD of the aligned residuals is
    returned.
    """
    p = np.asarray(coords_p, dtype=float)
    q = np.asarray(coords_q, dtype=float)
    if p.shape != q.shape or p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"point sets must share shape (n, 3); got {p.shape} and {q.shape}")
    p = p - p.mean(axis=0)
    q = q - q.mean(axis=0)
    h = p.T @ q
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    corr = np.diag([1.0, 1.0, d])
    rot = vt.T @ corr @ u.T
    diff = (rot @ p.T).T - q
    return float(np.sqrt((diff * diff).sum() / p.shape[0]))


def frac_to_cart(lattice, frac):
    """Fractional coordinates (n, 3) or (3,) in Cartesian Angstrom."""
    return np.asarray(frac, dtype=float) @ lattice_matrix(lattice)


def cart_to_frac(lattice, cart):
    """Cartesian coordinates (n, 3) or (3,) in fractions of the cell."""
    return np.asarray(cart, dtype=float) @ np.linalg.inv(lattice_matrix(lattice))


def brute_force_min_image(lattice, f1, f2, span):
    """Reference: scan all (2*span+1)^3 periodic images."""
    m = lattice_matrix(lattice)
    d = np.asarray(f2) - np.asarray(f1)
    best = math.inf
    r = range(-span, span + 1)
    for i in r:
        for j in r:
            for k in r:
                shifted = (d + np.array([i, j, k])) @ m
                best = min(best, float(np.linalg.norm(shifted)))
    return best


class TestCellVolume:
    def test_cube(self):
        assert cell_volume(Lattice(2, 2, 2, 90, 90, 90)) == pytest.approx(8.0, abs=1e-12)

    def test_orthorhombic_box(self):
        assert cell_volume(Lattice(1, 2, 3, 90, 90, 90)) == pytest.approx(6.0, abs=1e-12)

    def test_hexagonal(self):
        v = cell_volume(Lattice(1, 1, 1, 90, 90, 120))
        assert v == pytest.approx(0.8660254, abs=1e-7)

    def test_right_angle_volume_is_abc(self, rng):
        for _ in range(50):
            a, b, c = rng.uniform(0.5, 20.0, size=3)
            v = cell_volume(Lattice(a, b, c, 90, 90, 90))
            assert v == pytest.approx(a * b * c, rel=1e-12)

    def test_matches_triple_product_on_random_lattices(self, rng):
        for _ in range(1000):
            lat = random_lattice(rng)
            m = lattice_matrix(lat)
            triple = abs(float(np.dot(m[0], np.cross(m[1], m[2]))))
            assert abs(cell_volume(lat) - triple) < 1e-9

    def test_unrealizable_angles_rejected(self):
        with pytest.raises(InvalidLatticeError):
            Lattice(1, 1, 1, 10, 10, 170)


class TestFracCart:
    def test_cube_center(self):
        out = frac_to_cart(Lattice(5, 5, 5, 90, 90, 90), (0.5, 0.5, 0.5))
        assert np.allclose(out, (2.5, 2.5, 2.5))

    def test_origin_fixed(self, rng):
        lat = random_lattice(rng)
        assert np.allclose(frac_to_cart(lat, (0, 0, 0)), (0, 0, 0))

    def test_hexagonal_b_vector(self):
        out = frac_to_cart(Lattice(1, 1, 1, 90, 90, 120), (0, 1, 0))
        assert np.allclose(out, (-0.5, 0.8660254, 0.0), atol=1e-7)

    def test_round_trip(self, rng):
        for _ in range(1000):
            lat = random_lattice(rng)
            f = rng.uniform(-1, 2, size=3)
            back = cart_to_frac(lat, frac_to_cart(lat, f))
            assert np.allclose(back, f, atol=1e-9)


class TestMinImage:
    def test_wraps_across_the_boundary(self):
        lat = Lattice(5, 5, 5, 90, 90, 90)
        assert min_image_distance(lat, (0.1, 0, 0), (0.9, 0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_same_point_is_zero(self, rng):
        lat = random_lattice(rng)
        f = tuple(rng.random(3))
        assert min_image_distance(lat, f, f) == 0.0

    def test_cube_body_diagonal(self):
        lat = Lattice(5, 5, 5, 90, 90, 90)
        d = min_image_distance(lat, (0, 0, 0), (0.5, 0.5, 0.5))
        assert d == pytest.approx(4.330127, abs=1e-6)

    def test_symmetric(self, rng):
        lat = random_lattice(rng)
        f1, f2 = tuple(rng.random(3)), tuple(rng.random(3))
        assert min_image_distance(lat, f1, f2) == min_image_distance(lat, f2, f1)

    def test_never_exceeds_direct_distance(self, rng):
        for _ in range(200):
            lat = random_lattice(rng)
            f1, f2 = rng.random(3), rng.random(3)
            direct = float(np.linalg.norm(frac_to_cart(lat, f2) - frac_to_cart(lat, f1)))
            assert min_image_distance(lat, tuple(f1), tuple(f2)) <= direct + 1e-12

    def test_matches_brute_force_125_images(self, rng):
        for _ in range(200):
            lat = random_lattice(rng)
            f1, f2 = tuple(rng.random(3)), tuple(rng.random(3))
            got = min_image_distance(lat, f1, f2)
            want = brute_force_min_image(lat, f1, f2, span=2)
            assert got == pytest.approx(want, abs=1e-9)


class TestKabsch:
    def test_rigid_motion_gives_zero(self, rng):
        from chemlm.augment import random_rotation

        for _ in range(100):
            n = int(rng.integers(1, 30))
            a = rng.uniform(-10, 10, size=(n, 3))
            b = a @ random_rotation(rng).T + rng.uniform(-5, 5, size=3)
            assert kabsch_rmsd(a, b) < 1e-6

    def test_hand_case(self):
        a = [(0, 0, 0), (1, 0, 0)]
        b = [(0, 0, 0), (2, 0, 0)]
        assert kabsch_rmsd(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_single_point(self):
        assert kabsch_rmsd([(3, 4, 5)], [(3, 4, 5)]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self, rng):
        a = rng.uniform(-5, 5, size=(7, 3))
        b = rng.uniform(-5, 5, size=(7, 3))
        assert abs(kabsch_rmsd(a, b) - kabsch_rmsd(b, a)) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kabsch_rmsd([(0, 0, 0)], [(0, 0, 0), (1, 1, 1)])


class TestScalarProperties:
    def test_water_weight(self):
        mol = Molecule(["O", "H", "H"], [(0, 0, 0), (0.96, 0, 0), (-0.24, 0.93, 0)])
        assert molecular_weight(mol) == pytest.approx(18.015, abs=1e-3)

    def test_single_carbon(self):
        assert molecular_weight(Molecule(["C"], [(0, 0, 0)])) == pytest.approx(12.011, abs=1e-3)

    def test_centroid(self):
        assert np.allclose(centroid([(0, 0, 0), (2, 0, 0)]), (1, 0, 0))
        assert np.allclose(
            centroid([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]), (0.5, 0.5, 0)
        )

    def test_density_uses_cell_volume(self):
        from chemlm.structures import Crystal

        # one Na + one Cl in a 5 A cube: (22.99 + 35.45) amu / 125 A^3
        xtl = Crystal(Lattice(5, 5, 5, 90, 90, 90), ["Na", "Cl"], [(0, 0, 0), (0.5, 0.5, 0.5)])
        expected = (22.99 + 35.45) * 1.66053907 / 125.0
        assert crystal_density(xtl) == pytest.approx(expected, rel=1e-4)

    def test_pair_distances_shape(self, rng):
        pts = rng.uniform(-3, 3, size=(5, 3))
        d = pair_distances(pts)
        assert d.shape == (10,)
        assert (d > 0).all()
        i, j = upper_pairs(5)
        assert np.allclose(d, np.linalg.norm(pts[i] - pts[j], axis=1))
        assert pair_distances(np.stack([pts, pts[::-1]])).shape == (2, 10)
        assert pair_distances(pts[:1]).shape == (0,)


class TestPairDistances:
    """pair_distances gives the bits of the dense matrix's i < j entries."""

    def test_matches_the_dense_matrix_unbatched(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 258))
            x = rng.normal(0.0, float(rng.uniform(0.1, 50.0)), size=(n, 3))
            want = reference_pairwise_distances(x)[np.triu_indices(n, k=1)]
            assert pair_distances(x).tobytes() == want.tobytes()

    def test_matches_the_dense_matrix_batched(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 80))
            x = rng.uniform(-20.0, 20.0, size=(int(rng.integers(1, 6)), n, 3))
            got = pair_distances(x)
            assert got.shape == (len(x), n * (n - 1) // 2)
            for row, points in zip(got, x):
                want = reference_pairwise_distances(points)[np.triu_indices(n, k=1)]
                assert row.tobytes() == want.tobytes()
                assert row.tobytes() == pair_distances(points).tobytes()
