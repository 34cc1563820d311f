"""Dense tensors with reverse-mode differentiation.

The engine is deliberately small: it implements exactly the primitives the
context blocks, backbone and losses need, on top of numpy arrays in double
precision. Every operation that produces a tensor from recorded inputs
attaches a closure computing the vector-Jacobian product; ``backward`` on a
scalar replays the recorded graph once, in reverse topological order.

The tape lives only as long as it is needed. ``backward`` consumes it:
once a node's vector-Jacobian product has run, the node drops its closure
and its parents, so an intermediate nobody else holds is freed during the
replay, gradient included. Tensors the caller still holds keep their
``grad``. Inside ``no_grad()`` nothing is recorded at all, which is how
inference (``Embedder.embed`` in eval mode) and the numeric side of the
finite-difference checkers run.

A closure keeps no array that its parents' ``data`` and a few per-channel
vectors determine; the VJP rebuilds it with the forward pass's
arithmetic, so values and gradients keep their bits. ``conv2d`` keeps no
padded input, ``batch_norm2d`` no normalized map (only the shift and
``1/sqrt(var + eps)`` per channel) and ``standardize_over`` no centred
grid (only the mean). The consequence: a parent's ``data`` must not be
mutated between the forward pass and its ``backward``. The optimizer and
the finite-difference checkers change parameters only after the analytic
backward has run.

The finite-difference loop can restart a loss part way through. A
``StagedLoss`` is a chain of ``Segment``s, each reading only its own
members' parameters, and it tags each parameter with the segment that
reads it; per perturbation the loop then re-runs only the segments from
that one on, starting from a cached segment input that was computed under
``no_grad()``. Two rules keep this exact: no segment reads a later
segment's parameters, and no op mutates its input's ``data``, so a cached
input stays what a full re-run would compute.

Every contraction, ``einsum2`` and its two VJPs as well as the three
inside ``conv2d``, takes one route: ``_contract``, a batched matmul over a
permutation plan cached per spec. Its values equal ``np.einsum``'s to
rounding (the sign of a zero may differ), without the path search that a
path-optimizing einsum runs on every call, which dominated the cost of the
small ops the finite-difference checks run by the hundred thousand.

Stored values are required to be finite. A NaN or Inf anywhere raises
``NumericalError`` at the first op that produced it instead of propagating
silently. The check (``_all_finite``, one sum in the common case) runs on
every ``Tensor(...)`` and on the output of every op that can turn finite
inputs into a non-finite value: ``add``, ``mul``, ``div``, ``sqrt``, the
sum and mean reductions, the contractions, ``conv2d``, ``batch_norm2d``,
``cross_entropy`` and ``standardize_over``. The ops whose output is
finite whenever their inputs are skip it: ``reshape``, ``narrow``,
``concat``, ``clamp_min`` with a finite floor, ``tanh``, ``sigmoid``,
``softmax_over`` and the max reduction. A constant operand of ``add`` or
``mul`` is not checked on its own either: a non-finite one makes the op's
output non-finite.
"""

from __future__ import annotations

import contextlib
import functools
import math
import struct
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericalError, ShapeError

# cleared inside no_grad(): ops then record no closure and no parents
_recording = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op returns a tensor with
    ``requires_grad`` False that keeps no closure or parents, and
    training-mode ``batch_norm2d`` leaves its running statistics alone,
    since nothing is learned here. Nestable; the previous state comes back
    on exit, also on an exception. The switch is process-wide, not per
    thread."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _all_finite(a: np.ndarray) -> bool:
    """Exact, and one pass with no temporary in the common case: a sum is
    finite only if every term is, and a sum of finite terms that overflows
    falls back to the elementwise test. The sum may raise numpy's overflow
    or invalid-value warning on the way."""
    return math.isfinite(np.add.reduce(a, None)) or bool(np.isfinite(a).all())


class Tensor:
    """N-dimensional real array, optionally recording ops for backward().

    ``data`` is a float64 numpy array, ``grad`` is populated with an
    identically shaped array after backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_backward_done",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if not _all_finite(self.data):
            raise NumericalError("tensor holds non-finite values")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], None] | None = None
        self._backward_done = False

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 vjp: Callable[[np.ndarray], None] | None, check: bool = True) -> "Tensor":
        """Record one primitive application. ``vjp`` receives the output
        gradient and must accumulate into each requiring parent's ``grad``.
        Inside ``no_grad()`` neither is stored. ``check=False`` is for ops
        whose output is finite whenever their inputs are."""
        out = cls.__new__(cls)
        out.data = data
        if check and not _all_finite(data):
            raise NumericalError("operation produced non-finite values")
        out.grad = None
        out.requires_grad = _recording and any(p.requires_grad for p in parents)
        out._backward_done = False
        if out.requires_grad:
            out._parents = tuple(parents)
            out._vjp = vjp
        else:
            out._parents = ()
            out._vjp = None
        return out

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"expected a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff -----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # own a fresh buffer: g may be a view or borrowed array
            self.grad = np.array(g)
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate ``grad`` on every reachable requires_grad tensor.

        Only valid on scalars (one element). The replay consumes the tape:
        each node drops its closure and parents once its vector-Jacobian
        product has run, so intermediates the caller does not hold are
        freed on the way, and the ones it holds keep their ``grad``.
        Calling backward again on this graph, or on a new graph that reaches
        one of its interior nodes, is an error: re-record the forward pass.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._backward_done:
            raise RuntimeError("backward already called on this graph; re-record the forward pass first")
        if not self.requires_grad:
            raise RuntimeError("loss does not depend on any requires_grad tensor")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward_done:
                raise RuntimeError("graph reaches a tensor whose tape an earlier backward consumed; "
                                   "re-record the forward pass first")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._vjp is None:
                continue  # a leaf
            if node.grad is not None:
                node._vjp(node.grad)
            node._vjp = None
            node._parents = ()
            node._backward_done = True

    # -- method sugar -------------------------------------------------------

    def sum(self, axes=None, keepdims=False):
        return reduce(self, axes, "sum", keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _coerce(x, check: bool = True) -> Tensor:
    """A non-tensor operand as a constant leaf. ``add`` and ``mul`` pass
    ``check=False``: their output check rejects a non-finite constant."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x) if check else Tensor._from_op(np.asarray(x, dtype=np.float64), (), None, False)


# -- elementwise ------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a, False), _coerce(b, False)
    out_data = a.data + b.data

    def vjp(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(out_data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _coerce(a, False), _coerce(b, False)
    out_data = a.data * b.data

    def vjp(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out_data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data / b.data

    def vjp(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor._from_op(out_data, (a, b), vjp)


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)

    def vjp(g):
        x._accumulate(g * (0.5 / y))

    return Tensor._from_op(y, (x,), vjp)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); relu is ``clamp_min(x, 0.0)``. Gradient flows only
    where x > floor, so none passes at the kink itself."""
    y = np.maximum(x.data, floor)

    def vjp(g):
        x._accumulate(g * (x.data > floor))

    return Tensor._from_op(y, (x,), vjp, not math.isfinite(floor))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def vjp(g):
        x._accumulate(g * (1.0 - y * y))

    return Tensor._from_op(y, (x,), vjp, False)


def sigmoid(x: Tensor) -> Tensor:
    # 0.5*tanh(x/2) + 0.5 = 1/(1+e^-x): tanh saturates where exp would
    # overflow, and one tanh is cheaper than an exp/log pair
    y = np.multiply(x.data, 0.5)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5

    def vjp(g):
        x._accumulate(g * y * (1.0 - y))

    return Tensor._from_op(y, (x,), vjp, False)


# -- reductions and softmax ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    """Sorted non-negative axes from None, an int or a tuple, cached per
    (axes, rank): the ops call it with a handful of distinct pairs."""
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(int(a) % ndim if -ndim <= int(a) < ndim else int(a) for a in axes)
    if len(axes) == 0:
        raise ShapeError("empty axis set")
    for a in axes:
        if not 0 <= a < ndim:
            raise ShapeError(f"axis {a} out of range for rank-{ndim} tensor")
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate axes in {axes}")
    return tuple(sorted(axes))


def _mean(a: np.ndarray, axes: tuple[int, ...], keepdims: bool, count: int):
    """``a.mean(axes)`` bit for bit: numpy's mean is this sum and division,
    behind a Python wrapper that costs more than both on small arrays."""
    return np.add.reduce(a, axes, keepdims=keepdims) / count


def reduce(x: Tensor, axes, kind: str, keepdims: bool = False) -> Tensor:
    """sum / mean over ``axes``, max over exactly one axis. Max ties route
    gradient to the first index along the axis, so backward is
    deterministic."""
    axes = _normalize_axes(axes, x.ndim)
    if kind == "sum":
        y = x.data.sum(axis=axes, keepdims=keepdims)

        def vjp(g):
            gg = g if keepdims else np.expand_dims(g, axes)
            x._accumulate(np.broadcast_to(gg, x.shape).copy())

    elif kind == "mean":
        count = math.prod(x.shape[a] for a in axes)
        y = _mean(x.data, axes, keepdims, count)

        def vjp(g):
            gg = g if keepdims else np.expand_dims(g, axes)
            x._accumulate(np.broadcast_to(gg / count, x.shape).copy())

    elif kind == "max":
        if len(axes) != 1:
            raise ShapeError(f"max reduces over exactly one axis, got {axes}")
        (axis,) = axes
        y = x.data.max(axis=axis, keepdims=keepdims)
        first = np.expand_dims(x.data.argmax(axis=axis), axis)  # argmax takes the first tie

        def vjp(g):
            gx = np.zeros(x.shape)
            np.put_along_axis(gx, first, g if keepdims else np.expand_dims(g, axis), axis)
            x._accumulate(gx)

    else:
        raise ValueError(f"unknown reduce kind {kind!r}")
    return Tensor._from_op(y, (x,), vjp, kind != "max")


def softmax_over(x: Tensor, axes) -> Tensor:
    """Softmax normalized jointly over ``axes``, computed with max
    subtraction so huge logits cannot overflow."""
    axes = _normalize_axes(axes, x.ndim)
    shifted = x.data - x.data.max(axis=axes, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axes, keepdims=True)

    def vjp(g):
        x._accumulate(s * (g - (g * s).sum(axis=axes, keepdims=True)))

    return Tensor._from_op(s, (x,), vjp, False)


def standardize_over(x: Tensor, axes, guard: float, eps: float) -> Tensor:
    """``(x - mean) / (sqrt(var + guard) + eps)`` jointly over ``axes``,
    with the biased variance, as one op with a closed-form VJP. Values and
    gradients equal those of the centre / square / mean / sqrt / divide
    chain of primitives bit for bit: each step below is the arithmetic the
    chain's VJPs perform, in their order."""
    axes = _normalize_axes(axes, x.ndim)
    count = math.prod(x.shape[a] for a in axes)
    mean = _mean(x.data, axes, True, count)
    centered = x.data - mean
    std = np.sqrt(_mean(centered * centered, axes, True, count) + guard)
    denom = std + eps
    y = centered / denom

    def vjp(g):
        centered = x.data - mean  # as in the forward pass; the tape keeps only the mean
        g_std = (-g * centered / (denom * denom)).sum(axis=axes, keepdims=True)
        g_sq = g_std * (0.5 / std) / count
        # the square's VJP reaches ``centered`` once through each factor
        g_centered = g / denom + g_sq * centered + g_sq * centered
        x._accumulate(g_centered + g_centered.sum(axis=axes, keepdims=True) * -1.0 / count)

    return Tensor._from_op(y, (x,), vjp)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the rows of (B, K) logits of lse(row) - row[target], with a
    max-shifted log-sum-exp; the gradient is (softmax - onehot) / B."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (B, K) logits, got {logits.shape}")
    b = logits.shape[0]
    targets = np.asarray(targets)
    if targets.shape != (b,):
        raise ShapeError(f"expected {b} targets, got shape {targets.shape}")
    rows = np.arange(b)
    peak = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - peak)
    sum_e = e.sum(axis=1, keepdims=True)
    lse = (peak + np.log(sum_e)).reshape(b)
    loss = (lse - logits.data[rows, targets]).mean(axis=0)

    def vjp(g):
        grad = e / sum_e
        grad[rows, targets] -= 1.0
        grad *= g / b
        logits._accumulate(grad)

    return Tensor._from_op(loss, (logits,), vjp)


# -- shape manipulation -------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    y = x.data.reshape(shape)

    def vjp(g):
        x._accumulate(g.reshape(x.shape))

    return Tensor._from_op(y, (x,), vjp, False)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``[start, start+length)`` along one axis."""
    axis = axis % x.ndim
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"slice [{start}:{start + length}) out of range for axis {axis} of {x.shape}")
    idx = tuple(slice(None) if a != axis else slice(start, start + length) for a in range(x.ndim))
    y = x.data[idx].copy()

    def vjp(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        x._accumulate(full)

    return Tensor._from_op(y, (x,), vjp, False)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    y = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def vjp(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            idx = tuple(slice(None) if a != (axis % g.ndim) else slice(offset, offset + n) for a in range(g.ndim))
            if t.requires_grad:
                t._accumulate(g[idx])
            offset += n

    return Tensor._from_op(y, tuple(tensors), vjp, False)


# -- contractions -------------------------------------------------------------

def linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ w.T + bias`` for (N, I) rows, (O, I) weights and an optional
    (O,) bias; no transposed copy of ``w`` is made either way."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear expects (N, I) rows and (O, I) weights, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear width mismatch: rows {x.shape}, weights {w.shape}")
    if bias is not None and bias.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {w.shape[0]} outputs")
    y = x.data @ w.data.T
    if bias is not None:
        y += bias.data

    def vjp(g):
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(g.T @ x.data)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    return Tensor._from_op(y, (x, w) if bias is None else (x, w, bias), vjp)


@functools.lru_cache(maxsize=None)
def _contraction_plan(spec: str):
    """Axis permutations that evaluate the two-operand ``spec`` as one
    batched matmul, built once per spec. The right operand goes on the left
    of the matmul, which puts the conv weight first: the toy net's stage-0
    conv forward at batch 40 took 40 ms that way, 78 ms with the patches
    first (1 BLAS thread)."""
    ins, out = spec.split("->")
    right, left = ins.split(",")
    batch = [i for i in left if i in right and i in out]
    summed = [i for i in left if i in right and i not in out]
    keep_l = [i for i in left if i not in right]
    keep_r = [i for i in right if i not in left]
    produced = batch + keep_l + keep_r
    # a product with nothing summed: each operand in output order, its
    # summed axes (all of extent 1) last and dropped by the reshape
    outer_l = [i for i in out if i in left] + summed
    outer_r = [i for i in out if i in right] + summed
    return (tuple(map(left.index, batch + keep_l + summed)),
            tuple(map(right.index, batch + summed + keep_r)),
            len(batch), len(keep_l), len(summed),
            tuple(map(produced.index, out)),
            tuple(map(left.index, outer_l)), tuple(map(right.index, outer_r)),
            tuple(outer_l.index(i) if i in left else -1 for i in out),
            tuple(outer_r.index(i) if i in right else -1 for i in out))


def _contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-operand ``np.einsum(spec, a, b)`` (no repeated indices), equal to
    it to rounding, without a per-call path search: transpose both operands
    to (batch, kept, summed), fuse each group, one ``(B, M, K) @ (B, K, N)``
    matmul, then unfuse and transpose to the output. When every summed
    extent is 1 it is the broadcast product instead, which may keep a -0.0
    that einsum turns into 0.0."""
    (perm_l, perm_r, nb, nk, ns, perm_out,
     outer_l, outer_r, spread_l, spread_r) = _contraction_plan(spec)
    left, right = b.transpose(perm_l), a.transpose(perm_r)
    kept_l = left.shape[:nb + nk]
    summed = math.prod(left.shape[nb + nk:])
    if summed == 1:
        left, right = b.transpose(outer_l), a.transpose(outer_r)
        left = left.reshape([left.shape[j] if j >= 0 else 1 for j in spread_l])
        right = right.reshape([right.shape[j] if j >= 0 else 1 for j in spread_r])
        return left * right
    kept_r = right.shape[nb + ns:]
    batch = math.prod(kept_l[:nb])
    y = np.matmul(left.reshape(batch, math.prod(kept_l[nb:]), summed),
                  right.reshape(batch, summed, math.prod(kept_r)))
    return y.reshape(kept_l + kept_r).transpose(perm_out)


@functools.lru_cache(maxsize=None)
def _vjp_specs(spec: str) -> tuple[str, str]:
    ins, out = spec.split("->")
    sub_a, sub_b = ins.split(",")
    for own, other in ((sub_a, sub_b), (sub_b, sub_a)):
        missing = set(own) - set(out) - set(other)
        if missing:
            raise ShapeError(f"einsum2 cannot differentiate spec {spec!r}: index {missing} is private to one operand")
    return f"{out},{sub_b}->{sub_a}", f"{out},{sub_a}->{sub_b}"


def einsum2(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum (no repeated indices, none private to one operand)
    with automatic VJPs. The product and each VJP are one ``_contract``;
    the VJP specs are derived and checked once per spec."""
    spec_a, spec_b = _vjp_specs(spec)
    y = _contract(spec, a.data, b.data)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(_contract(spec_a, g, b.data))
        if b.requires_grad:
            b._accumulate(_contract(spec_b, g, a.data))

    return Tensor._from_op(y, (a, b), vjp)


# -- structured ops -----------------------------------------------------------

def _windows(data: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
             padding: tuple[int, int], out_extent: tuple[int, int]) -> np.ndarray:
    """Read-only (N, C, Fo, To, kf, kt) view of the (kf, kt) windows of NCHW
    ``data`` zero-padded by ``padding``, built by ``as_strided`` from the
    padded array's own strides, so any layout works and no window is copied.
    Unpadded data is viewed as it is; padding makes one padded copy."""
    n, c, f, t = data.shape
    (kf, kt), (sf, st), (pf, pt), (fo, to) = kernel, stride, padding, out_extent
    xp = data
    if pf or pt:
        xp = np.zeros((n, c, f + 2 * pf, t + 2 * pt))
        xp[:, :, pf: pf + f, pt: pt + t] = data
    s_n, s_c, s_f, s_t = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, c, fo, to, kf, kt), (s_n, s_c, s_f * sf, s_t * st, s_f, s_t), writeable=False)


def conv2d(x: Tensor, weight: Tensor, stride: tuple[int, int], padding: tuple[int, int]) -> Tensor:
    """2D cross-correlation of NCHW input with OIHW weights, no bias.

    ``stride`` and ``padding`` are (frequency, time) pairs; output extents
    follow floor((n + 2*pad - k)/stride) + 1. One route for every shape
    (patch matrices, Chellapilla et al. 2006): the output and the weight
    gradient contract the padded input's windows (``_windows``); the input
    gradient is one contraction into per-window gradients, added back one
    kernel tap at a time (col2im). All three contractions are
    ``_contract``. The tape keeps no padded copy: the weight gradient
    rebuilds the windows from ``x.data``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 input and weight, got {x.shape} and {weight.shape}")
    n, cin, f, t = x.shape
    cout, cin_w, kf, kt = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    sf, st = stride
    pf, pt = padding
    if kf > f + 2 * pf or kt > t + 2 * pt:
        raise ShapeError(f"kernel ({kf},{kt}) larger than padded input ({f + 2 * pf},{t + 2 * pt})")

    fo = (f + 2 * pf - kf) // sf + 1
    to = (t + 2 * pt - kt) // st + 1
    geometry = ((kf, kt), stride, padding, (fo, to))
    out = _contract("ncftab,kcab->nkft", _windows(x.data, *geometry), weight.data)

    def vjp(g):
        if weight.requires_grad:
            weight._accumulate(_contract("nkft,ncftab->kcab", g, _windows(x.data, *geometry)))
        if x.requires_grad:
            gpatches = _contract("nkft,kcab->ncftab", g, weight.data)
            dxp = np.zeros((n, cin, f + 2 * pf, t + 2 * pt))
            for a in range(kf):
                for b in range(kt):
                    dxp[:, :, a: a + (fo - 1) * sf + 1: sf, b: b + (to - 1) * st + 1: st] += gpatches[..., a, b]
            x._accumulate(dxp[:, :, pf: pf + f, pt: pt + t])

    return Tensor._from_op(out, (x, weight), vjp)


class RunningStats:
    """Per-channel running mean/variance for batch norm inference."""

    MOMENTUM = 0.1

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        m = self.MOMENTUM
        self.mean = (1.0 - m) * self.mean + m * mean
        self.var = (1.0 - m) * self.var + m * var


class Module:
    """A layer whose parameters and batch-norm state are found by walking
    its attributes in the order they were assigned: a ``Tensor`` is a
    parameter, a ``RunningStats`` attribute ``running`` is the state pair
    ``running_mean`` / ``running_var``, and a ``Module`` is a child whose
    entries are prefixed by its attribute name. The names and their order
    are a checkpoint's layout. Other attributes, containers included, are
    not walked; a layer that keeps children in a container lists them by
    overriding ``members``."""

    PREFIX = ""  # first name part of the entries of a walk rooted here

    def members(self):
        return vars(self).items()

    def _walk(self, prefix: str):
        for name, value in self.members():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Module):
                yield from value._walk(path)
            else:
                yield path, value

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(path, v) for path, v in self._walk(self.PREFIX) if isinstance(v, Tensor)]

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for path, v in self._walk(self.PREFIX):
            if isinstance(v, RunningStats):
                out += [(f"{path}_mean", v.mean), (f"{path}_var", v.var)]
        return out


class Segment(Module):
    """One link of a chain: ``fn`` maps the previous link's output to this
    link's and reads only the parameters of ``members``, ``(name, value)``
    pairs named as in the walk of the module that owns them."""

    def __init__(self, members, fn: Callable[[Tensor], Tensor]):
        self._members = list(members)
        self._fn = fn

    def members(self):
        return self._members

    def __call__(self, x: Tensor) -> Tensor:
        return self._fn(x)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
                 training: bool = True, running: RunningStats | None = None) -> Tensor:
    """Per-channel normalization of an (N, C, F, T) tensor.

    Training mode normalizes with the batch statistics over (N, F, T) and
    updates ``running`` while the tape records (not under ``no_grad()``);
    inference mode normalizes with the running stats.
    """
    if eps <= 0:
        raise ValueError("batch_norm2d eps must be positive")
    if x.ndim != 4:
        raise ShapeError(f"batch_norm2d expects rank-4 input, got {x.shape}")
    n, c, f, t = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},), got {gamma.shape} and {beta.shape}")

    count = n * f * t
    # one (N, C, F*T) view: einsum sums over (n, p) in one pass, where
    # reductions over axes (0, 2, 3) walk the array several times
    flat = x.data.reshape(n, c, f * t)
    if training:
        shift = np.einsum("ncp->c", flat) / count
        xhat = flat - shift[:, None]
        var = np.einsum("ncp,ncp->c", xhat, xhat) / count
        if running is not None and _recording:
            running.update(shift, var)
    else:
        if running is None:
            raise ValueError("inference-mode batch_norm2d needs running stats")
        # a copy: loading a checkpoint writes the running stats in place
        shift = running.mean.copy()
        xhat = flat - shift[:, None]
        var = running.var

    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv[:, None]
    y = xhat * gamma.data[:, None]
    y += beta.data[:, None]

    def vjp(g):
        g = g.reshape(n, c, f * t)
        # the forward's xhat, rebuilt from the input with the same arithmetic
        xhat = x.data.reshape(n, c, f * t) - shift[:, None]
        xhat *= inv[:, None]
        # Ioffe & Szegedy 2015: the beta and gamma gradients are also the two
        # per-channel sums the batch-statistics input gradient needs
        sum_g = np.einsum("ncp->c", g)
        sum_gx = np.einsum("ncp,ncp->c", g, xhat)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if gamma.requires_grad:
            gamma._accumulate(sum_gx)
        if x.requires_grad:
            scale = gamma.data * inv
            if training:
                dx = xhat * (-sum_gx / count)[:, None]
                dx += g
                dx -= (sum_g / count)[:, None]
                dx *= scale[:, None]
            else:
                dx = g * scale[:, None]
            x._accumulate(dx.reshape(x.shape))

    return Tensor._from_op(y.reshape(x.shape), (x, gamma, beta), vjp)


# -- gradient oracle ----------------------------------------------------------

def finite_diff_check(fn: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    Returns max over elements of |analytic - numeric| / max(1, |analytic|,
    |numeric|); ``fn`` must map a tensor to a scalar tensor.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    return _central_differences(lambda: fn(probe), [("x", probe)], h)["x"]


def finite_diff_check_params(loss_fn: Callable[..., Tensor],
                             named_params: Iterable[tuple],
                             h: float = 1e-5) -> dict[str, float]:
    """Check recorded gradients of named parameters against central
    differences.

    ``loss_fn`` re-runs the forward pass reading each parameter's current
    ``data``; parameters are perturbed in place for the numeric side, which
    runs under ``no_grad()``. Each entry of ``named_params`` is a
    ``(name, tensor)`` pair, for which ``loss_fn()`` runs the whole loss,
    or a ``(name, tensor, segment)`` triple (``StagedLoss.named_parameters``),
    for which ``loss_fn(segment)`` runs it from that segment on and the
    analytic side calls ``loss_fn(0)``. A pair is the one-segment case of
    the same loop. ``loss_fn`` is called exactly once per evaluation.
    Returns the max relative error per parameter name.
    """
    return _central_differences(loss_fn, named_params, h)


def _central_differences(loss_fn, named_params, h: float) -> dict[str, float]:
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    # a pair's empty tag calls loss_fn with no argument
    params = [(name, p, tuple(segment)) for name, p, *segment in named_params]
    for _, p, _ in params:
        p.grad = None
    loss_fn(*((0,) if any(segment for *_, segment in params) else ())).backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p, _ in params}
    for _, p, _ in params:
        p.grad = None

    errors: dict[str, float] = {}
    with no_grad():
        for name, p, segment in params:
            flat = p.data.reshape(-1)
            numeric = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn(*segment).item()
                flat[i] = orig - h
                down = loss_fn(*segment).item()
                flat[i] = orig
                numeric[i] = (up - down) / (2.0 * h)
            a = analytic[name].reshape(-1)
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
            errors[name] = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
    return errors


class StagedLoss:
    """A scalar loss computed by a chain of segments from ``x``, restartable
    at any segment: ``loss(start)`` runs the segments from ``start`` on,
    from the cached input of segment ``start``. A missing input is filled on
    demand, under ``no_grad()``, by the earlier segments. They never read
    the one parameter the checker has perturbed, so the cache holds what a
    full re-run computes in any perturbation order."""

    def __init__(self, segments: Sequence[Segment], x: Tensor):
        self.segments = list(segments)
        self.inputs = [x]

    def __call__(self, start: int = 0) -> Tensor:
        with no_grad():
            while len(self.inputs) <= start:
                self.inputs.append(self.segments[len(self.inputs) - 1](self.inputs[-1]))
        y = self.inputs[start]
        for segment in self.segments[start:]:
            y = segment(y)
        return y

    def named_parameters(self) -> list[tuple[str, Tensor, int]]:
        """Every segment's parameters as ``(name, tensor, segment)``, tagged
        with the segment that reads them."""
        return [(name, p, i) for i, segment in enumerate(self.segments)
                for name, p in segment.named_parameters()]


# -- binary dump format -------------------------------------------------------

def save_tensor(f, array: np.ndarray) -> None:
    """Write the raw dump format: u64 rank, u64 extents, float64 data, all
    little-endian."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    f.write(struct.pack("<Q", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    f.write(arr.tobytes(order="C"))


def load_tensor(f) -> np.ndarray:
    """Read one tensor of the raw dump format. A header whose rank or extents
    claim more bytes than ``f`` has left raises ValueError before any read."""
    raw = f.read(8)
    if len(raw) != 8:
        raise ValueError("truncated tensor dump header")
    (rank,) = struct.unpack("<Q", raw)
    pos = f.tell()
    left = f.seek(0, 2) - pos
    f.seek(pos)
    if 8 * rank > left:
        raise ValueError(f"tensor dump rank {rank} exceeds the {left} bytes left")
    shape = struct.unpack(f"<{rank}Q", f.read(8 * rank))
    count = math.prod(shape)
    if 8 * (rank + count) > left:
        raise ValueError(f"tensor dump extents {shape} exceed the {left} bytes left")
    data = np.frombuffer(f.read(8 * count), dtype="<f8", count=count)
    return data.reshape(shape).astype(np.float64)
