"""Pointwise DCT oracles shared by the tests: a single basis-grid entry
from the closed form, and the projection of one channel map onto a grid."""

import math

import numpy as np

from tfctx.dct import DctBasis
from tfctx.errors import ShapeError


def basis_weight(i: int, j: int, f: int, t: int, big_f: int, big_t: int) -> float:
    """Single grid entry of basis (i, j) at location (f, t) on an FxT map."""
    if not (0 <= i < big_f and 0 <= f < big_f):
        raise IndexError(f"frequency index out of range: i={i}, f={f}, F={big_f}")
    if not (0 <= j < big_t and 0 <= t < big_t):
        raise IndexError(f"time index out of range: j={j}, t={t}, T={big_t}")
    return math.cos(math.pi * i * (f + 0.5) / big_f) * math.cos(math.pi * j * (t + 0.5) / big_t)


def dct2_pool(channel_map: np.ndarray, basis: DctBasis) -> float:
    """Project one FxT channel map onto a basis grid (plain dot product)."""
    channel_map = np.asarray(channel_map)
    if channel_map.shape != (basis.big_f, basis.big_t):
        raise ShapeError(
            f"map extents {channel_map.shape} do not match basis grid ({basis.big_f}, {basis.big_t})")
    return float(np.sum(basis.weights * channel_map))
