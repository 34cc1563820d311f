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

import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import _contract


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
        return cls(i, j, big_f, big_t, np.outer(fr, tr))


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

    def pooled(self, f: int, t: int) -> np.ndarray:
        """(K, f, t) grids whose projection of an f x t map equals the
        projection of that map average-pooled to F x T; exactly ``stacked()``
        on the grid, where the pool matrices are identities. Built once per
        set and (f, t), C-contiguous and read-only."""
        key = (self, f, t)
        if key not in _POOLED_CACHE:
            grids = np.ascontiguousarray(_pool_grids(self.stacked(), f, t))
            grids.setflags(write=False)
            _POOLED_CACHE[key] = grids
        return _POOLED_CACHE[key]


_POOLED_CACHE: dict[tuple[DctBasisSet, int, int], np.ndarray] = {}


def _pool_grids(stacked: np.ndarray, f: int, t: int) -> np.ndarray:
    """``einsum("kab,af,bt->kft", stacked, P_f, P_t)`` as two contractions
    taken the way numpy's greedy path takes them: pool first along the axis
    that removes more elements (then the one with fewer flops), never
    through an intermediate larger than the largest operand or the output,
    with the intermediate's axes sorted by (extent, label). The grids thus
    keep the rounding of numpy 2.4's path-optimizing three-operand einsum."""
    k, big_f, big_t = stacked.shape
    pool_f, pool_t = _pool_matrix(f, big_f), _pool_matrix(t, big_t)
    extent = dict(k=k, a=big_f, b=big_t, f=f, t=t)
    via_f, via_t = k * big_t * f, k * big_f * t  # intermediate sizes
    limit = max(stacked.size, pool_f.size, pool_t.size, k * f * t)
    f_first = via_t > limit or (via_f <= limit and (pool_f.size - via_f, -f) >= (pool_t.size - via_t, -t))
    mid = "".join(sorted("kbf" if f_first else "kat", key=lambda i: (extent[i], i)))
    if f_first:
        return _contract(f"bt,{mid}->kft", pool_t, _contract(f"kab,af->{mid}", stacked, pool_f))
    return _contract(f"af,{mid}->kft", pool_f, _contract(f"kab,bt->{mid}", stacked, pool_t))


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


_BASIS_CACHE: dict[tuple[int, int, int], DctBasisSet] = {}


def build_basis_set(big_f: int, big_t: int, k: int) -> DctBasisSet:
    """First K components under the low-frequency-first order. Grids are
    computed once per (F, T, K) and cached; they are immutable afterwards."""
    if not 1 <= k <= big_f * big_t:
        raise ValueError(f"K={k} out of range [1, {big_f * big_t}] for a {big_f}x{big_t} grid")
    key = (big_f, big_t, k)
    if key not in _BASIS_CACHE:
        comps = tuple(DctBasis.build(i, j, big_f, big_t) for i, j in component_order(big_f, big_t)[:k])
        _BASIS_CACHE[key] = DctBasisSet(comps, big_f, big_t)
    return _BASIS_CACHE[key]


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
