import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfctx import dct
from tfctx.errors import ShapeError

from oracles import basis_weight, dct2_pool


class TestBasisWeight:
    def test_lowest_component_is_one(self):
        for f in range(4):
            for t in range(5):
                assert basis_weight(0, 0, f, t, 4, 5) == 1.0

    def test_hand_values(self):
        assert basis_weight(1, 0, 0, 0, 2, 3) == pytest.approx(math.cos(math.pi / 4), abs=1e-10)
        assert basis_weight(1, 0, 0, 0, 2, 3) == pytest.approx(0.70711, abs=1e-5)
        assert basis_weight(1, 0, 1, 0, 2, 3) == pytest.approx(-0.70711, abs=1e-5)

    def test_range_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            F, T = rng.integers(1, 9, size=2)
            i, f = rng.integers(0, F, size=2)
            j, t = rng.integers(0, T, size=2)
            assert -1.0 <= basis_weight(i, j, f, t, F, T) <= 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            basis_weight(2, 0, 0, 0, 2, 3)
        with pytest.raises(IndexError):
            basis_weight(0, 0, 0, 3, 2, 3)


class TestBuildBasisSet:
    def test_8x25_prefix(self):
        s = dct.build_basis_set(8, 25, 5)
        assert s.index_pairs == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]

    def test_k1(self):
        s = dct.build_basis_set(8, 25, 1)
        assert s.index_pairs == [(0, 0)]
        np.testing.assert_allclose(s.components[0].weights, 1.0)

    def test_2x2_full(self):
        assert dct.build_basis_set(2, 2, 4).index_pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cached_set_is_read_only(self):
        # every caller of one (F, T, K) shares the set, so a write to one
        # caller's grid would change every other caller's pooling
        s = dct.build_basis_set(2, 3, 2)
        assert dct.build_basis_set(2, 3, 2) is s
        with pytest.raises(ValueError):
            s.components[1].weights[0, 0] = 5.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            dct.build_basis_set(2, 3, 7)
        with pytest.raises(ValueError):
            dct.build_basis_set(2, 3, 0)

    def test_grid_matches_pointwise_formula(self):
        s = dct.build_basis_set(3, 4, 12)
        for b in s.components:
            for f in range(3):
                for t in range(4):
                    assert b.weights[f, t] == pytest.approx(
                        basis_weight(b.i, b.j, f, t, 3, 4), abs=1e-15)

    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ordering_property(self, F, T, data):
        k = data.draw(st.integers(1, F * T))
        pairs = dct.build_basis_set(F, T, k).index_pairs
        assert len(set(pairs)) == len(pairs)
        keys = [(i + j, i) for i, j in pairs]
        assert keys == sorted(keys)
        # every omitted pair sorts at or after the last selected one
        chosen = set(pairs)
        for i in range(F):
            for j in range(T):
                if (i, j) not in chosen:
                    assert (i + j, i) >= keys[-1]


class TestDct2Pool:
    def test_lowest_component_is_sum(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = dct2_pool(m, dct.DctBasis.build(0, 0, 2, 2))
        assert got == pytest.approx(10.0, abs=1e-12)

    def test_hand_case(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = dct2_pool(m, dct.DctBasis.build(1, 0, 2, 2))
        assert got == pytest.approx(-2.82843, abs=1e-5)
        assert got == pytest.approx(math.sqrt(2) / 2 * (1 + 2) - math.sqrt(2) / 2 * (3 + 4), abs=1e-12)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            dct2_pool(np.zeros((3, 3)), dct.DctBasis.build(0, 0, 2, 2))

    def test_full_set_reconstructs_map(self):
        """All F*T unnormalized DCT-II coefficients invert back to the map
        through the standard DCT-III weights (double-loop oracle)."""
        rng = np.random.default_rng(42)
        F, T = 8, 25
        m = rng.normal(size=(F, T))
        full = dct.build_basis_set(F, T, F * T)
        coeffs = {(b.i, b.j): dct2_pool(m, b) for b in full.components}
        recon = np.zeros((F, T))
        for f in range(F):
            for t in range(T):
                acc = 0.0
                for (i, j), g in coeffs.items():
                    wi = 0.5 if i == 0 else 1.0
                    wj = 0.5 if j == 0 else 1.0
                    acc += wi * wj * g * basis_weight(i, j, f, t, F, T)
                recon[f, t] = acc * (2.0 / F) * (2.0 / T)
        np.testing.assert_allclose(recon, m, atol=1e-10)


class TestInvariants:
    def test_gap_identity(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 9))
        b00 = dct.DctBasis.build(0, 0, 6, 9)
        assert dct2_pool(m, b00) == pytest.approx(6 * 9 * m.mean(), abs=1e-10)

    @pytest.mark.parametrize("F,T", [(2, 2), (4, 7), (8, 8), (16, 16), (16, 11)])
    def test_orthogonality(self, F, T):
        grids = dct.build_basis_set(F, T, F * T).stacked()
        gram = np.einsum("aft,bft->ab", grids, grids)
        off_diag = gram - np.diag(np.diag(gram))
        assert np.abs(off_diag).max() < 1e-9


class TestExport:
    def test_export_matches_formula(self, tmp_path):
        paths = dct.export_basis_csv(8, 25, 16, str(tmp_path))
        assert len(paths) == 16
        order = dct.build_basis_set(8, 25, 16).index_pairs
        for path, (i, j) in zip(paths, order):
            grid = np.loadtxt(path, delimiter=",")
            want = dct.DctBasis.build(i, j, 8, 25).weights
            np.testing.assert_allclose(grid, want, atol=1e-12)

    def test_k1_export_all_ones(self, tmp_path):
        (path,) = dct.export_basis_csv(4, 6, 1, str(tmp_path))
        np.testing.assert_allclose(np.loadtxt(path, delimiter=","), 1.0)
