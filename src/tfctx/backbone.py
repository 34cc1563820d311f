"""Residual speaker embedder with configurable context-block insertion.

The network is a small ResNet over (1, F, T) log-mel maps: a conv stem,
four residual stages, attentive statistics pooling over the frame axis and
a linear head whose output is L2-normalized. A context block can be
inserted into every residual branch (after the last batch norm by default,
the other positions are selectable) or restricted to the final stage.

Checkpoints are a versioned binary container of named arrays in the raw
tensor dump format plus the run-config document; round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from typing import Callable

import numpy as np

from . import blocks
from . import tensor as T
from .errors import DataError, NumericalError, ShapeError
from .tensor import Module, Segment, Tensor

INSERTION_POSITIONS = ("after_bn", "before_bn", "before_conv")
# the stages whose residual blocks get a context block
GCM_STAGES = ("all", "last")


class Conv2dLayer(Module):
    """Bias-free square-kernel conv; the batch norm after it supplies the
    shift."""

    def __init__(self, cin: int, cout: int, kernel: int = 3, stride=(1, 1),
                 padding=(1, 1), *, rng: np.random.Generator):
        fan_in = cin * kernel * kernel
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.weight = Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in), (cout, cin, kernel, kernel)),
                             requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.stride, self.padding)


class BatchNormLayer(Module):
    EPS = 1e-5

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return T.batch_norm2d(x, self.gamma, self.beta, self.EPS, training,
                              self.running_mean, self.running_var)


class ResidualBlock(Module):
    """conv-bn-relu-conv-bn with an optional context block at the configured
    position (read only when a block is present), then the skip connection
    (1x1 projection on shape change)."""

    def __init__(self, cin: int, cout: int, stride: int = 1,
                 gcm: blocks.GcmBlock | None = None, insertion: str = "after_bn",
                 *, rng: np.random.Generator):
        if insertion not in INSERTION_POSITIONS:
            raise ValueError(f"unknown insertion position {insertion!r}")
        self.conv1 = Conv2dLayer(cin, cout, 3, (stride, stride), (1, 1), rng=rng)
        self.bn1 = BatchNormLayer(cout)
        self.conv2 = Conv2dLayer(cout, cout, 3, (1, 1), (1, 1), rng=rng)
        self.bn2 = BatchNormLayer(cout)
        if stride != 1 or cin != cout:
            self.proj = Conv2dLayer(cin, cout, 1, (stride, stride), (0, 0), rng=rng)
            self.proj_bn = BatchNormLayer(cout)
        else:
            self.proj = None
            self.proj_bn = None
        # assigned after the projection: checkpoints list the block's entries last
        self.gcm = gcm
        self.insertion = insertion

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        branch = x
        if self.gcm is not None and self.insertion == "before_conv":
            branch = self.gcm(branch)
        y = T.clamp_min(self.bn1(self.conv1(branch), training), 0.0)
        y = self.conv2(y)
        if self.gcm is not None and self.insertion == "before_bn":
            y = self.gcm(y)
        y = self.bn2(y, training)
        if self.gcm is not None and self.insertion == "after_bn":
            y = self.gcm(y)
        identity = x if self.proj is None else self.proj_bn(self.proj(x), training)
        return T.clamp_min(T.add(y, identity), 0.0)


class AttentiveStatsPool(blocks.AttentionContext):
    """Attentive statistics pooling over the frame axis: the blocks'
    attention context on (N, D, T) frames viewed as (N, D, 1, T) maps, so its
    softmax runs over time; returns the weighted mean and standard deviation
    concatenated."""

    VAR_FLOOR = 1e-8

    def __call__(self, frames: Tensor) -> Tensor:
        """(N, D, T) frames -> (N, 2D) pooled stats."""
        if frames.ndim != 3:
            raise ShapeError(f"expected (N, D, T) frames, got {frames.shape}")
        n, d, t = frames.shape
        m = T.reshape(frames, (n, d, 1, t))
        weights = self.weights(m)
        mean = self.weighted_mean(weights, m)
        sq_mean = self.weighted_mean(weights, T.mul(m, m))
        var = T.add(sq_mean, T.mul(T.mul(mean, mean), -1.0))
        std = T.sqrt(T.clamp_min(var, self.VAR_FLOOR))
        return T.concat([mean, std], 1)


def _conv_out(n: int, stride: int) -> int:
    # 3x3 kernel, padding 1
    return (n + 2 - 3) // stride + 1


def final_extent(n: int, stem_stride: int, stage_strides, blocks_per_stage) -> int:
    """Extent, along one axis, of the last stage's map for an input of
    extent n: the stem's stride along that axis, then each stage's (square)
    stride. A stage without blocks does not downsample."""
    n = _conv_out(n, stem_stride)
    for stride, n_blocks in zip(stage_strides, blocks_per_stage):
        if n_blocks > 0:
            n = _conv_out(n, stride)
    return n


class Embedder(Module):
    """Feature map (N, 1, F, T) -> unit-norm embedding (N, embed_dim)."""

    def __init__(self, mel_bins: int, stage_channels, blocks_per_stage, stage_strides,
                 stem_stride, embed_dim: int, asp_hidden: int,
                 make_gcm: Callable[[int], blocks.GcmBlock | None] | None = None,
                 insertion: str = "after_bn", gcm_stages: str = "all",
                 *, rng: np.random.Generator):
        if embed_dim < 2:
            raise ValueError("embedding dimension must be at least 2")
        if not (len(stage_channels) == len(blocks_per_stage) == len(stage_strides)):
            raise ValueError("stage_channels, blocks_per_stage and stage_strides must align")
        if gcm_stages not in GCM_STAGES:
            raise ValueError(f"unknown gcm_stages {gcm_stages!r}")
        self.mel_bins = mel_bins
        self.embed_dim = embed_dim

        self.stem = Conv2dLayer(1, stage_channels[0], 3, tuple(stem_stride), (1, 1), rng=rng)
        self.stem_bn = BatchNormLayer(stage_channels[0])

        self.stages: list[list[ResidualBlock]] = []
        cin = stage_channels[0]
        for si, (cout, n_blocks, stride) in enumerate(zip(stage_channels, blocks_per_stage, stage_strides)):
            stage = []
            for bi in range(n_blocks):
                s = stride if bi == 0 else 1
                wants_gcm = make_gcm is not None and (gcm_stages == "all" or si == len(stage_channels) - 1)
                # a block placed before the first conv recalibrates the input
                gcm_width = cin if insertion == "before_conv" else cout
                gcm = make_gcm(gcm_width) if wants_gcm else None
                stage.append(ResidualBlock(cin, cout, s, gcm, insertion, rng=rng))
                cin = cout
            self.stages.append(stage)
        self.frame_dim = stage_channels[-1] * final_extent(mel_bins, stem_stride[0], stage_strides,
                                                           blocks_per_stage)

        self.pool = AttentiveStatsPool(self.frame_dim, asp_hidden, rng)
        self.head_w = Tensor(rng.normal(0.0, 1.0 / math.sqrt(2 * self.frame_dim),
                                        (embed_dim, 2 * self.frame_dim)), requires_grad=True)
        self.head_b = Tensor(np.zeros(embed_dim), requires_grad=True)

    def members(self):
        # the segments' members in forward order: the blocks sit in nested
        # lists, and the head keeps its dotted names
        for segment in self.segments():
            yield from segment.members()

    def segments(self, training: bool = False) -> list[Segment]:
        """The forward pass as one ordered chain: the stem with its batch
        norm and relu, each residual block, then pooling, head and unit
        norm. Each segment reads only its own members' parameters."""
        def stem(x):
            return T.clamp_min(self.stem_bn(self.stem(x), training), 0.0)

        def pool_head(y):
            frames = T.reshape(y, (y.shape[0], self.frame_dim, y.shape[3]))
            return unit_norm(T.linear(self.pool(frames), self.head_w, self.head_b))

        chain = [Segment([("stem", self.stem), ("stem_bn", self.stem_bn)], stem)]
        for si, stage in enumerate(self.stages):
            for bi, block in enumerate(stage):
                chain.append(Segment([(f"stage{si}.block{bi}", block)],
                                     lambda y, block=block: block(y, training)))
        chain.append(Segment([("pool", self.pool), ("head.w", self.head_w),
                              ("head.b", self.head_b)], pool_head))
        return chain

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy parameters and batch-norm state from a checkpoint dict into
        the live arrays. Every entry is checked for its name and shape
        before any is copied, so a mismatch leaves the model as it was."""
        live = [(name, p.data) for name, p in self.named_parameters()] + self.named_state()
        expected = {name for name, _ in live}
        if expected != set(arrays):
            missing = expected - set(arrays)
            extra = set(arrays) - expected
            raise DataError(f"checkpoint does not match model: missing={sorted(missing)[:4]} extra={sorted(extra)[:4]}")
        for name, target in live:
            if arrays[name].shape != target.shape:
                raise DataError(f"checkpoint entry {name} has shape {arrays[name].shape}, expected {target.shape}")
        for name, target in live:
            target[...] = arrays[name]

    def embed(self, x: Tensor, training: bool = False) -> Tensor:
        """(N, 1, F, T) maps -> unit-norm embeddings; raises rather than dividing by a zero norm.

        Eval mode (``training`` False) runs under ``no_grad()``: it records
        no tape and returns a tensor with ``requires_grad`` False."""
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected (N, 1, F, T) input, got {x.shape}")
        if x.shape[2] != self.mel_bins:
            raise ShapeError(f"model built for {self.mel_bins} mel bins, got {x.shape[2]}")
        with contextlib.nullcontext() if training else T.no_grad():
            for segment in self.segments(training):
                x = segment(x)
        return x


def unit_norm(rows: Tensor, what: str = "embedding") -> Tensor:
    """(N, E) rows -> unit-norm rows; a zero row raises a NumericalError
    that names ``what`` collapsed rather than dividing by its norm. The
    embeddings and the prototypical loss's queries and prototypes share it."""
    sq = T.reduce(T.mul(rows, rows), (1,), "sum", keepdims=True)
    if np.any(sq.data <= 0.0):
        raise NumericalError(f"{what} collapsed to the zero vector before normalization")
    return T.div(rows, T.sqrt(sq))


# -- checkpoint container ---------------------------------------------------------

_CKPT_MAGIC = b"TFCXCKPT"
_CKPT_VERSION = 1


def save_checkpoint(path: str, named_arrays, config: dict) -> None:
    """Versioned container: magic, version, config JSON, then named tensors
    in the raw dump format. Everything little-endian; identical inputs give
    identical bytes."""
    config_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        f.write(struct.pack("<Q", len(config_bytes)))
        f.write(config_bytes)
        entries = list(named_arrays)
        f.write(struct.pack("<Q", len(entries)))
        for name, arr in entries:
            raw = name.encode()
            f.write(struct.pack("<Q", len(raw)))
            f.write(raw)
            T.save_tensor(f, np.asarray(arr))


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(config, named arrays) of a checkpoint. Any malformed file raises
    DataError; a length field larger than the file does so before reading,
    and so does an array holding a NaN or an infinity."""
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
                raise DataError(f"{path} is not a checkpoint (bad magic)")
            (version,) = struct.unpack("<I", f.read(4))
            if version != _CKPT_VERSION:
                raise DataError(f"unsupported checkpoint version {version}")
            (config_len,) = struct.unpack("<Q", f.read(8))
            if config_len > size:
                raise ValueError(f"config length {config_len} exceeds the file")
            config = json.loads(f.read(config_len).decode())
            (count,) = struct.unpack("<Q", f.read(8))
            arrays = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<Q", f.read(8))
                if name_len > size:
                    raise ValueError(f"tensor name length {name_len} exceeds the file")
                name = f.read(name_len).decode()
                arrays[name] = T.load_tensor(f)
                if not np.isfinite(arrays[name]).all():
                    raise DataError(f"corrupt checkpoint {path}: {name} holds non-finite values")
            return config, arrays
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}") from None
    except (struct.error, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from None
