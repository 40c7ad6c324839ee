import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from chemlm.metrics.emd import emd_1d

from reference_algorithms import reference_emd_1d


def lp_transport_cost(a, b):
    """Reference: solve the transportation LP directly."""
    na, nb = len(a), len(b)
    cost = np.array([[abs(x - y) for y in b] for x in a], dtype=float).ravel()
    # row sums = 1/na, column sums = 1/nb
    a_eq = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(nb):
        col = np.zeros((na, nb))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
    b_eq = [1.0 / na] * na + [1.0 / nb] * nb
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), method="highs")
    assert res.status == 0
    return float(res.fun)


class TestHandValues:
    def test_shifted_singletons(self):
        assert emd_1d([0.0], [1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_equal_size(self):
        assert emd_1d([0, 0], [3, 3]) == pytest.approx(3.0, abs=1e-12)
        assert emd_1d([0, 1], [1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_identical_is_zero(self, rng):
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(1, 30))).tolist()
            assert emd_1d(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_sizes(self):
        # {0} vs {0, 1}: half the mass moves one unit
        assert emd_1d([0.0], [0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_order_does_not_matter(self, rng):
        a = rng.normal(size=7).tolist()
        b = rng.normal(size=7).tolist()
        shuffled = list(a)
        rng.shuffle(shuffled)
        assert emd_1d(a, b) == pytest.approx(emd_1d(shuffled, b), abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(1, 10))).tolist()
            b = rng.normal(size=int(rng.integers(1, 10))).tolist()
            assert emd_1d(a, b) == pytest.approx(emd_1d(b, a), abs=1e-12)

    def test_translation_covariance(self, rng):
        a = rng.normal(size=9).tolist()
        b = [x + 2.5 for x in a]
        assert emd_1d(a, b) == pytest.approx(2.5, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emd_1d([], [1.0])
        with pytest.raises(ValueError):
            emd_1d([1.0], [])


class TestAgainstTransportLP:
    def test_all_size_pairs_up_to_six(self, rng):
        for na, nb in itertools.product(range(1, 7), repeat=2):
            for _ in range(3):
                a = rng.uniform(-5, 5, size=na).tolist()
                b = rng.uniform(-5, 5, size=nb).tolist()
                assert emd_1d(a, b) == pytest.approx(
                    lp_transport_cost(a, b), abs=1e-9
                ), (na, nb)

    def test_with_ties(self):
        # repeated values can defeat float-breakpoint implementations
        a = [1.0, 1.0, 1.0]
        b = [1.0, 2.0]
        assert emd_1d(a, b) == pytest.approx(lp_transport_cost(a, b), abs=1e-12)

    def test_coprime_sizes(self, rng):
        a = rng.uniform(-5, 5, size=5).tolist()
        b = rng.uniform(-5, 5, size=3).tolist()
        assert emd_1d(a, b) == pytest.approx(lp_transport_cost(a, b), abs=1e-9)


# few distinct values, so both samples hold ties, mixed with arbitrary ones
VALUES = st.one_of(st.sampled_from([-2.5, -0.1, 0.0, 0.3, 1.0, 7.25]),
                   st.floats(-10, 10, allow_nan=False))


class TestAgainstFractionBreakpoints:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(a=st.lists(VALUES, min_size=1, max_size=14),
           b=st.lists(VALUES, min_size=1, max_size=14))
    def test_same_float_as_rational_breakpoints(self, a, b):
        # integer breakpoints against the Fraction ones they replaced: the
        # same correctly rounded float
        assume(len(a) != len(b))
        assert emd_1d(a, b) == reference_emd_1d(a, b)
