"""2D discrete cosine basis grids for the multi-DCT context pooling.

Basis grids use the unnormalized DCT-II form
``cos(pi*i*(f+1/2)/F) * cos(pi*j*(t+1/2)/T)``; no orthonormalization
constants are applied, so the (0, 0) grid is all ones and pooling with it
degenerates to a plain sum (F*T times the channel mean). Any missing scale
is absorbed by the learnable channel transform downstream.

Map sizes here are tiny (default grid 8x25), so pooling
(``blocks.MultiDctContext``) is a direct contraction with the stacked grids
rather than a fast transform. A map of another extent is contracted with
the grids pulled back through adaptive average pooling (``pooled``): both
steps are linear, so this equals pooling the map to the grid first.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DctBasis:
    """One pre-computed cosine grid over an FxT map."""

    i: int
    j: int
    big_f: int
    big_t: int
    weights: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(cls, i: int, j: int, big_f: int, big_t: int) -> "DctBasis":
        fr = np.cos(np.pi * i * (np.arange(big_f) + 0.5) / big_f)
        tr = np.cos(np.pi * j * (np.arange(big_t) + 0.5) / big_t)
        weights = np.outer(fr, tr)
        weights.setflags(write=False)  # shared by every caller of the cached set
        return cls(i, j, big_f, big_t, weights)


@dataclass(frozen=True)
class DctBasisSet:
    """The K lowest basis grids, ordered by ascending i+j with smaller i
    breaking ties."""

    components: tuple[DctBasis, ...]
    big_f: int
    big_t: int

    def __len__(self) -> int:
        return len(self.components)

    @property
    def index_pairs(self) -> list[tuple[int, int]]:
        return [(b.i, b.j) for b in self.components]

    def stacked(self) -> np.ndarray:
        """(K, F, T) array of the grids, in order."""
        return np.stack([b.weights for b in self.components])

    @functools.lru_cache(maxsize=None)
    def pooled(self, f: int, t: int) -> np.ndarray:
        """(K, f, t) grids whose projection of an f x t map equals the
        projection of that map average-pooled to F x T: each grid pulled
        back through the two pool matrices, ``P_f.T @ grid @ P_t``. Exactly
        ``stacked()`` on the grid, where the pool matrices are identities.
        Built once per set and (f, t), C-contiguous and read-only."""
        grids = _pool_matrix(f, self.big_f).T @ self.stacked() @ _pool_matrix(t, self.big_t)
        grids.setflags(write=False)
        return grids


def _pool_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) adaptive average pooling: row i averages the
    near-uniform cell [floor(i*n_in/n_out), ceil((i+1)*n_in/n_out))."""
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo = (i * n_in) // n_out
        hi = -(-(i + 1) * n_in // n_out)  # ceil
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def component_order(big_f: int, big_t: int) -> list[tuple[int, int]]:
    """All (i, j) pairs sorted ascending by i+j, ties to the smaller i."""
    pairs = [(i, j) for i in range(big_f) for j in range(big_t)]
    pairs.sort(key=lambda p: (p[0] + p[1], p[0]))
    return pairs


@functools.lru_cache(maxsize=None)
def build_basis_set(big_f: int, big_t: int, k: int) -> DctBasisSet:
    """First K components under the low-frequency-first order. Grids are
    computed once per (F, T, K) and cached; they are immutable afterwards."""
    if big_f < 1 or big_t < 1:
        raise ValueError(f"grid extents must be positive, got {big_f}x{big_t}")
    if not 1 <= k <= big_f * big_t:
        raise ValueError(f"K={k} out of range [1, {big_f * big_t}] for a {big_f}x{big_t} grid")
    comps = tuple(DctBasis.build(i, j, big_f, big_t) for i, j in component_order(big_f, big_t)[:k])
    return DctBasisSet(comps, big_f, big_t)


def export_basis_csv(big_f: int, big_t: int, k: int, out_dir: str) -> list[str]:
    """Write each of the K lowest grids as a CSV file (one line per grid
    row), named by rank and (i, j). Returns the paths in component order."""
    basis_set = build_basis_set(big_f, big_t, k)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for rank, basis in enumerate(basis_set.components):
        path = os.path.join(out_dir, f"dct_basis_{rank:03d}_i{basis.i}_j{basis.j}.csv")
        with open(path, "w") as f:
            for row in basis.weights:
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")
        paths.append(path)
    return paths
