"""Channel and time-frequency recalibration blocks.

All blocks share one pipeline over an (N, C, F, T) batch of feature maps:
summarize each map into a per-channel context vector, mix channels through
a small transform, gate the map with a sigmoid of the mixed context, and
optionally re-weight individual time-frequency positions from the
similarity between each local feature vector and the (group-wise) context.

Context kinds (the run config's ``model.block.kind`` names):
  * se       - plain per-channel mean (squeeze-excitation style)
  * att_gcm  - query-independent attention over all (f, t) positions;
               one mask shared by every channel. The same module is the
               pooling core of the backbone's attentive statistics pooling,
               which feeds it (N, D, 1, T) frames
  * dct_gcm  - projections onto the K lowest 2D-DCT grids, max over K

With a zeroed attention MLP the attention context degenerates to the mean,
and with K=1 the DCT context is F*T times the mean; both identities are
pinned by tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from . import dct
from .errors import ShapeError
from .tensor import Module, Tensor

# -- context summaries ---------------------------------------------------------


def se_squeeze(feature_map: Tensor) -> Tensor:
    """Per-channel mean over the time-frequency grid."""
    return T.reduce(feature_map, (2, 3), "mean")


class AttentionContext(Module):
    """Query-independent attention pooling over all (f, t) locations.

    Scores come from a one-hidden-layer MLP on each C-dim local feature
    vector; a softmax over the whole grid turns them into pooling weights
    shared by all channels. ``backbone.AttentiveStatsPool`` reuses it on
    (N, D, 1, T) frames.
    """

    def __init__(self, channels: int, hidden: int, rng: np.random.Generator):
        self.channels = channels
        self.hidden = hidden
        self.proj = Tensor(rng.normal(0.0, 1.0 / math.sqrt(channels), (self.hidden, channels)),
                           requires_grad=True)
        self.proj_bias = Tensor(np.zeros(self.hidden), requires_grad=True)
        self.score_vec = Tensor(rng.normal(0.0, 1.0 / math.sqrt(self.hidden), (self.hidden,)),
                                requires_grad=True)
        self.score_bias = Tensor(np.zeros(1), requires_grad=True)

    def weights(self, m: Tensor) -> Tensor:
        """(N, F, T) pooling weights; positive, summing to one per sample."""
        if m.shape[1] != self.channels:
            raise ShapeError(f"attention context built for C={self.channels}, got map with C={m.shape[1]}")
        h = T.add(T.einsum2("hc,ncft->nhft", self.proj, m),
                  T.reshape(self.proj_bias, (1, self.hidden, 1, 1)))
        scores = T.add(T.einsum2("h,nhft->nft", self.score_vec, T.tanh(h)), self.score_bias)
        return T.softmax_over(scores, (1, 2))

    @staticmethod
    def weighted_mean(weights: Tensor, m: Tensor) -> Tensor:
        """(N, C) mean of each channel of m under (N, F, T) weights."""
        return T.einsum2("nft,ncft->nc", weights, m)

    def __call__(self, feature_map: Tensor) -> Tensor:
        return self.weighted_mean(self.weights(feature_map), feature_map)


class MultiDctContext(Module):
    """Fixed DCT-grid pooling: project each channel onto the K lowest grids
    of an F x T map and keep the per-channel maximum. A map whose extents
    differ from the grid is projected onto the grids pulled back through
    adaptive average pooling (``dct.pooled_grids``), which equals pooling it
    first."""

    def __init__(self, big_f: int, big_t: int, k: int):
        dct.basis_grids(big_f, big_t, k)  # rejects a bad grid or K here, not at the first call
        self.big_f, self.big_t, self.k = big_f, big_t, k

    def __call__(self, feature_map: Tensor) -> Tensor:
        grids = Tensor(dct.pooled_grids(self.big_f, self.big_t, self.k, *feature_map.shape[2:]))
        responses = T.einsum2("ncft,kft->nck", feature_map, grids)
        return T.reduce(responses, (2,), "max")


# -- channel transforms ---------------------------------------------------------


def eca_kernel_size(channels: int) -> int:
    """Adaptive 1D-conv kernel width: the odd integer nearest to
    log2(C)/2 + 1/2 (ECA's gamma=2, b=1), exact ties resolved to the
    smaller value."""
    if channels < 2:
        raise ValueError(f"need at least 2 channels, got {channels}")
    raw = math.log2(channels) / 2.0 + 0.5
    lo = int(math.floor(raw))
    if lo % 2 == 0:
        lo -= 1
    lo = max(lo, 1)
    hi = lo + 2
    return lo if (raw - lo) <= (hi - raw) else hi


class FcChannelTransform(Module):
    """Two bias-free linear maps with a bottleneck of width C // r.

    ``input_scale`` shrinks the first layer's init when the upstream context
    is an unnormalized sum (DCT pooling), so the gate starts in its linear
    range; the factor itself stays learnable.
    """

    def __init__(self, channels: int, reduction: int, rng: np.random.Generator,
                 input_scale: float = 1.0):
        width = channels // reduction
        if width < 1:
            raise ShapeError(f"reduction {reduction} leaves no bottleneck width for C={channels}")
        self.w_in = Tensor(rng.normal(0.0, math.sqrt(2.0 / channels) / input_scale,
                                      (width, channels)), requires_grad=True)
        self.w_out = Tensor(rng.normal(0.0, 1.0 / math.sqrt(width), (channels, width)),
                            requires_grad=True)

    def logits(self, context: Tensor) -> Tensor:
        hidden = T.clamp_min(T.linear(context, self.w_in), 0.0)
        return T.linear(hidden, self.w_out)


class Conv1dChannelTransform(Module):
    """Channel mixing by a short 1D convolution along the channel axis,
    ``eca_kernel_size(C)`` taps wide, zero-padded to keep C outputs. It runs
    as one ``conv2d`` of the (N, 1, 1, C) view of the context with a
    (1, 1, 1, k) kernel, so tap j weighs channel c + j - k // 2."""

    def __init__(self, channels: int, rng: np.random.Generator,
                 input_scale: float = 1.0):
        k = eca_kernel_size(channels)
        self.kernel = Tensor(rng.normal(0.0, 1.0 / (math.sqrt(k) * input_scale), (k,)),
                             requires_grad=True)

    def logits(self, context: Tensor) -> Tensor:
        n, c = context.shape
        k = self.kernel.shape[0]
        out = T.conv2d(T.reshape(context, (n, 1, 1, c)), T.reshape(self.kernel, (1, 1, 1, k)),
                       (1, 1), (0, k // 2))
        return T.reshape(out, (n, c))


def channel_scale(feature_map: Tensor, gates: Tensor) -> Tensor:
    """Multiply channel c of map n by gates[n, c]."""
    if gates.shape != feature_map.shape[:2]:
        raise ShapeError(f"gates {gates.shape} do not match the map's (N, C) {feature_map.shape[:2]}")
    return T.mul(feature_map, T.reshape(gates, gates.shape + (1, 1)))


# -- time-frequency enhancement --------------------------------------------------


class TfeParams(Module):
    """Group-wise enhancement parameters.

    One square mixing matrix per channel group, plus a scalar scale/shift
    pair per group applied to the standardized similarity scores. With
    scale=0 (the default) and shift=1, enhancement starts as a uniform
    sigmoid(1) damping, leaving early training to the convolutions.
    """

    def __init__(self, channels: int, n_groups: int = 8, scale_init: float = 0.0,
                 *, rng: np.random.Generator):
        if channels % n_groups != 0:
            raise ShapeError(f"{n_groups} groups do not divide {channels} channels")
        self.channels = channels
        self.n_groups = n_groups
        self.group_dim = channels // n_groups
        d = self.group_dim
        self.mix = Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (n_groups, d, d)), requires_grad=True)
        self.scale = Tensor(np.full(n_groups, float(scale_init)), requires_grad=True)
        self.shift = Tensor(np.ones(n_groups), requires_grad=True)


# Squared guards inside the square roots below; they keep a zero-context
# group (a relu bottleneck can emit an exactly zero vector) and a
# constant-score grid finite in both directions without measurably moving
# any non-degenerate value.
_NORM_GUARD_SQ = 1e-12
_VAR_GUARD = 1e-24
# added to the deviation before the standardization divides by it
_STD_EPS = 1e-5


def tfe_enhance(feature_map: Tensor, context: Tensor, params: TfeParams) -> Tensor:
    """Gate each (f, t) position by its similarity to the group context.

    Per group: the context slice is L2-normalized (guarded against zero
    groups), scored against every local feature vector through the mixing
    matrix, standardized over the grid by one ``standardize_over`` op (eps
    guards the deviation, never a bare division), then affinely mapped and
    squashed into a sigmoid gate on the group's features. The mixing matrix
    is applied to the context, not the map: <u, W x> = <W^T u, x>, so the
    score of each position is one dot product of its features with a
    per-group query W^T u.
    """
    n, c, f, t = feature_map.shape
    if c != params.channels:
        raise ShapeError(f"enhancement built for C={params.channels}, got map with C={c}")
    if context.shape != (n, c):
        raise ShapeError(f"context shape {context.shape} does not match map {(n, c)}")
    g, d = params.n_groups, params.group_dim

    grouped = T.reshape(feature_map, (n, g, d, f, t))
    ctx_g = T.reshape(context, (n, g, d))
    norm = T.sqrt(T.add(T.reduce(T.mul(ctx_g, ctx_g), (2,), "sum", keepdims=True), _NORM_GUARD_SQ))
    unit_ctx = T.div(ctx_g, norm)

    # no (N, G, D, F, T) mixed map is built or differentiated
    query = T.einsum2("ngd,gdc->ngc", unit_ctx, params.mix)
    scores = T.einsum2("ngc,ngcft->ngft", query, grouped)

    standardized = T.standardize_over(scores, (2, 3), _VAR_GUARD, _STD_EPS)

    s = T.add(T.mul(standardized, T.reshape(params.scale, (1, g, 1, 1))),
              T.reshape(params.shift, (1, g, 1, 1)))
    gated = T.mul(grouped, T.reshape(T.sigmoid(s), (n, g, 1, f, t)))
    return T.reshape(gated, (n, c, f, t))


# -- composed block ----------------------------------------------------------------


class GcmBlock(Module):
    """One recalibration block: context -> channel transform -> sigmoid gate
    -> per-channel scaling -> optional time-frequency enhancement.

    The context handed to the enhancement step is the pre-sigmoid
    transformed vector (the gate would squash it into (0, 1), losing the
    sign information the similarity scoring needs); this tap is pinned by a
    golden test.
    """

    CONTEXT_KINDS = ("se", "att_gcm", "dct_gcm")
    TRANSFORMS = ("fc", "conv1d")

    def __init__(self, channels: int, kind: str = "se", transform: str = "fc",
                 reduction: int = 16, attention_hidden: int | None = None,
                 dct_components: int = 2, dct_grid: tuple[int, int] | None = None,
                 tfe: bool = False, tfe_groups: int = 8, tfe_scale_init: float = 0.0,
                 *, rng: np.random.Generator):
        if kind not in self.CONTEXT_KINDS:
            raise ValueError(f"unknown context kind {kind!r}")
        if transform not in self.TRANSFORMS:
            raise ValueError(f"unknown channel transform {transform!r}")
        self.context = None
        # DCT pooling hands the transform an unnormalized sum over the grid;
        # start the (learnable) transform at a matching scale
        input_scale = 1.0
        if kind == "att_gcm":
            self.context = AttentionContext(channels, attention_hidden, rng)
        elif kind == "dct_gcm":
            self.context = MultiDctContext(dct_grid[0], dct_grid[1], dct_components)
            input_scale = math.sqrt(dct_grid[0] * dct_grid[1])
        if transform == "fc":
            self.transform = FcChannelTransform(channels, reduction, rng, input_scale)
        else:
            self.transform = Conv1dChannelTransform(channels, rng, input_scale)
        self.tfe = TfeParams(channels, tfe_groups, tfe_scale_init, rng=rng) if tfe else None

    def __call__(self, feature_map: Tensor) -> Tensor:
        if feature_map.ndim != 4:
            raise ShapeError(f"feature map must be (N, C, F, T), got {feature_map.shape}")
        ctx = se_squeeze(feature_map) if self.context is None else self.context(feature_map)
        logits = self.transform.logits(ctx)
        scaled = channel_scale(feature_map, T.sigmoid(logits))
        if self.tfe is not None:
            scaled = tfe_enhance(scaled, logits, self.tfe)
        return scaled
