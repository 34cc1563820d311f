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


def formula_grids(pairs, big_f, big_t):
    """(K, F, T) grids of the given (i, j) pairs, entry by entry from the
    closed form."""
    return np.array([[[basis_weight(i, j, f, t, big_f, big_t) for t in range(big_t)]
                      for f in range(big_f)] for i, j in pairs])


class TestBuildBasisSet:
    """``dct.basis_grids``: the K lowest grids as one (K, F, T) array."""

    def test_8x25_prefix(self):
        pairs = dct.component_order(8, 25)[:5]
        assert pairs == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]
        np.testing.assert_allclose(dct.basis_grids(8, 25, 5), formula_grids(pairs, 8, 25),
                                   atol=1e-15)

    def test_k1(self):
        grids = dct.basis_grids(8, 25, 1)
        assert grids.shape == (1, 8, 25)
        np.testing.assert_allclose(grids, 1.0)

    def test_2x2_full(self):
        pairs = dct.component_order(2, 2)
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]
        np.testing.assert_allclose(dct.basis_grids(2, 2, 4), formula_grids(pairs, 2, 2),
                                   atol=1e-15)

    def test_grid_caches_are_read_only(self):
        # every caller of one (F, T, K) shares the grids, so a write to one
        # caller's grid would change every other caller's pooling
        grids = dct.basis_grids(2, 3, 2)
        pooled = dct.pooled_grids(2, 3, 2, 5, 7)
        assert dct.basis_grids(2, 3, 2) is grids
        assert dct.pooled_grids(2, 3, 2, 5, 7) is pooled
        for array in (grids, pooled):
            with pytest.raises(ValueError):
                array[1, 0, 0] = 5.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            dct.basis_grids(2, 3, 7)
        with pytest.raises(ValueError):
            dct.basis_grids(2, 3, 0)
        with pytest.raises(ValueError):
            dct.basis_grids(0, 3, 1)

    def test_grid_matches_pointwise_formula(self):
        grids = dct.basis_grids(3, 4, 12)
        for grid, (i, j) in zip(grids, dct.component_order(3, 4)):
            for f in range(3):
                for t in range(4):
                    assert grid[f, t] == pytest.approx(basis_weight(i, j, f, t, 3, 4), abs=1e-15)

    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ordering_property(self, F, T, data):
        k = data.draw(st.integers(1, F * T))
        assert dct.basis_grids(F, T, k).shape == (k, F, T)
        pairs = dct.component_order(F, T)[:k]
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
        got = dct2_pool(m, dct.basis_grids(2, 2, 1)[0])
        assert got == pytest.approx(10.0, abs=1e-12)

    def test_hand_case(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = dct2_pool(m, dct.basis_grids(2, 2, 3)[2])  # (i, j) = (1, 0)
        assert got == pytest.approx(-2.82843, abs=1e-5)
        assert got == pytest.approx(math.sqrt(2) / 2 * (1 + 2) - math.sqrt(2) / 2 * (3 + 4), abs=1e-12)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            dct2_pool(np.zeros((3, 3)), dct.basis_grids(2, 2, 1)[0])

    def test_full_set_reconstructs_map(self):
        """All F*T unnormalized DCT-II coefficients invert back to the map
        through the standard DCT-III weights (double-loop oracle)."""
        rng = np.random.default_rng(42)
        F, T = 8, 25
        m = rng.normal(size=(F, T))
        coeffs = {pair: dct2_pool(m, grid)
                  for pair, grid in zip(dct.component_order(F, T), dct.basis_grids(F, T, F * T))}
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
        b00 = dct.basis_grids(6, 9, 1)[0]
        assert dct2_pool(m, b00) == pytest.approx(6 * 9 * m.mean(), abs=1e-10)

    @pytest.mark.parametrize("F,T", [(2, 2), (4, 7), (8, 8), (16, 16), (16, 11)])
    def test_orthogonality(self, F, T):
        grids = dct.basis_grids(F, T, F * T)
        gram = np.einsum("aft,bft->ab", grids, grids)
        off_diag = gram - np.diag(np.diag(gram))
        assert np.abs(off_diag).max() < 1e-9


class TestExport:
    def test_export_matches_formula(self, tmp_path):
        paths = dct.export_basis_csv(8, 25, 16, str(tmp_path))
        assert len(paths) == 16
        for rank, (path, want) in enumerate(zip(paths, dct.basis_grids(8, 25, 16))):
            i, j = dct.component_order(8, 25)[rank]
            assert path.endswith(f"dct_basis_{rank:03d}_i{i}_j{j}.csv")
            grid = np.loadtxt(path, delimiter=",")
            np.testing.assert_allclose(grid, want, atol=1e-12)

    def test_k1_export_all_ones(self, tmp_path):
        (path,) = dct.export_basis_csv(4, 6, 1, str(tmp_path))
        np.testing.assert_allclose(np.loadtxt(path, delimiter=","), 1.0)
