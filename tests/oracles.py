"""Helpers shared by the tests: pointwise DCT oracles (a single basis-grid
entry from the closed form, the projection of one channel map onto a grid,
cell-by-cell adaptive average pooling), a loop over the taps of the ECA
channel convolution and a checkpoint with a forged header field."""

import json
import math
import struct

import numpy as np

from tfctx import backbone
from tfctx.errors import ShapeError


def basis_weight(i: int, j: int, f: int, t: int, big_f: int, big_t: int) -> float:
    """Single grid entry of basis (i, j) at location (f, t) on an FxT map."""
    if not (0 <= i < big_f and 0 <= f < big_f):
        raise IndexError(f"frequency index out of range: i={i}, f={f}, F={big_f}")
    if not (0 <= j < big_t and 0 <= t < big_t):
        raise IndexError(f"time index out of range: j={j}, t={t}, T={big_t}")
    return math.cos(math.pi * i * (f + 0.5) / big_f) * math.cos(math.pi * j * (t + 0.5) / big_t)


def dct2_pool(channel_map: np.ndarray, grid: np.ndarray) -> float:
    """Project one FxT channel map onto an FxT basis grid (plain dot product)."""
    channel_map = np.asarray(channel_map)
    if channel_map.shape != grid.shape:
        raise ShapeError(f"map extents {channel_map.shape} do not match basis grid {grid.shape}")
    return float(np.sum(grid * channel_map))


def adaptive_avg_pool(channel_map: np.ndarray, out_f: int, out_t: int) -> np.ndarray:
    """Average an FxT map over out_f x out_t near-uniform cells; cell i of
    an axis of extent n spans [floor(i*n/out), ceil((i+1)*n/out))."""
    big_f, big_t = channel_map.shape
    out = np.empty((out_f, out_t))
    for a in range(out_f):
        f0, f1 = a * big_f // out_f, math.ceil((a + 1) * big_f / out_f)
        for b in range(out_t):
            t0, t1 = b * big_t // out_t, math.ceil((b + 1) * big_t / out_t)
            out[a, b] = channel_map[f0:f1, t0:t1].mean()
    return out


def channel_correlation(context: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded same-size correlation of each (C,) row of an (N, C)
    context with an odd-length kernel: out[n, c] is the sum over taps j of
    kernel[j] * context[n, c + j - k // 2], with zeros past either end."""
    n, c = context.shape
    (k,) = kernel.shape
    out = np.zeros((n, c))
    for ni in range(n):
        for ci in range(c):
            for j in range(k):
                src = ci + j - k // 2
                if 0 <= src < c:
                    out[ni, ci] += kernel[j] * context[ni, src]
    return out


def forge_checkpoint(path: str, field: str, value: int) -> None:
    """Write a one-tensor checkpoint, then overwrite one of its u64 header
    fields (config_len, name_len, rank or extent) with ``value``."""
    config = {"seed": 1}
    backbone.save_checkpoint(path, [("w", np.zeros(2))], config)
    raw = bytearray(open(path, "rb").read())
    config_len = len(json.dumps(config, separators=(",", ":")))
    # magic 8, version 4, config_len 8, config, count 8, name_len 8, name 1, rank 8
    offset = {"config_len": 12, "name_len": 28 + config_len,
              "rank": 37 + config_len, "extent": 45 + config_len}[field]
    raw[offset: offset + 8] = struct.pack("<Q", value)
    with open(path, "wb") as f:
        f.write(raw)
