"""2D discrete cosine basis grids for the multi-DCT context pooling.

Basis grids use the unnormalized DCT-II form
``cos(pi*i*(f+1/2)/F) * cos(pi*j*(t+1/2)/T)``; no orthonormalization
constants are applied, so the (0, 0) grid is all ones and pooling with it
degenerates to a plain sum (F*T times the channel mean). Any missing scale
is absorbed by the learnable channel transform downstream.

Map sizes here are tiny (the toy grid is 4x13), so pooling
(``blocks.MultiDctContext``) is a direct contraction with the (K, F, T)
grid array rather than a fast transform. A map of another extent is
contracted with the grids pulled back through adaptive average pooling
(``pooled_grids``): both steps are linear, so this equals pooling the map
to the grid first.
"""

from __future__ import annotations

import functools
import os

import numpy as np


def component_order(big_f: int, big_t: int) -> list[tuple[int, int]]:
    """All (i, j) pairs sorted ascending by i+j, ties to the smaller i."""
    pairs = [(i, j) for i in range(big_f) for j in range(big_t)]
    pairs.sort(key=lambda p: (p[0] + p[1], p[0]))
    return pairs


@functools.lru_cache(maxsize=None)
def basis_grids(big_f: int, big_t: int, k: int) -> np.ndarray:
    """(K, F, T) array of the K lowest grids in ``component_order``.
    Built once per (F, T, K) and read-only, since every caller shares it."""
    if big_f < 1 or big_t < 1:
        raise ValueError(f"grid extents must be positive, got {big_f}x{big_t}")
    if not 1 <= k <= big_f * big_t:
        raise ValueError(f"K={k} out of range [1, {big_f * big_t}] for a {big_f}x{big_t} grid")
    grids = np.stack([
        np.outer(np.cos(np.pi * i * (np.arange(big_f) + 0.5) / big_f),
                 np.cos(np.pi * j * (np.arange(big_t) + 0.5) / big_t))
        for i, j in component_order(big_f, big_t)[:k]])
    grids.setflags(write=False)
    return grids


@functools.lru_cache(maxsize=None)
def pooled_grids(big_f: int, big_t: int, k: int, f: int, t: int) -> np.ndarray:
    """(K, f, t) grids whose projection of an f x t map equals the
    projection of that map average-pooled to F x T: each grid pulled back
    through the two pool matrices, ``P_f.T @ grid @ P_t``. Exactly
    ``basis_grids`` when (f, t) is (F, T), where the pool matrices are
    identities. Built once per (F, T, K, f, t), C-contiguous and read-only."""
    grids = _pool_matrix(f, big_f).T @ basis_grids(big_f, big_t, k) @ _pool_matrix(t, big_t)
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


def export_basis_csv(big_f: int, big_t: int, k: int, out_dir: str) -> list[str]:
    """Write each of the K lowest grids as a CSV file (one line per grid
    row), named by rank and (i, j). Returns the paths in component order."""
    grids = basis_grids(big_f, big_t, k)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for rank, ((i, j), grid) in enumerate(zip(component_order(big_f, big_t), grids)):
        path = os.path.join(out_dir, f"dct_basis_{rank:03d}_i{i}_j{j}.csv")
        with open(path, "w") as f:
            for row in grid:
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")
        paths.append(path)
    return paths
