"""Per-layer spans for the traced mode, recorded from outside the program.

The tracer replaces public tfctx callables (layer ``__call__`` methods,
module functions, ``Tensor.backward``, ``AdamW.step``) with thin wrappers
that time each call while ``active`` is set, and restores them on exit.
Nothing under ``src/`` changes and a wrapper that is not active only adds
one Python call.

Forward spans are measured in place. Backward spans per layer are not:
the in-place backward is one ``Tensor.backward`` call, so each layer call
that fed a backward in the first traced unit is replayed alone afterwards
(same layer weights, same input shape, random input) and ``backward`` is
timed on a weighted sum of its output.

Spans are totalled per unit. A span opened while no other span is open is
"top level"; top-level spans never overlap, so a unit's wall time is the
sum of its top-level spans, the untraced gaps before each embedding batch
(``data.batch``) and the rest (``untraced``).
"""

from __future__ import annotations

import copy
import statistics
import time
import weakref
from collections import defaultdict

import numpy as np

from tfctx import backbone, blocks, features, gradcheck, losses, metrics, optim, train
from tfctx import tensor as T
from tfctx.tensor import Tensor

STAGES = 4

# names of the per-unit span totals and call counts a Tracer records
_FWD_KEYS = {
    ("stem", "conv"): ("stem.fwd", "stem.conv", "embed.conv.fwd"),
    ("stem", "bn"): ("stem.fwd", "embed.bn.fwd"),
    ("asp", "asp"): ("asp.fwd", "embed.asp.fwd"),
}
_FWD_KEYS.update({(f"stage{s}", kind): (f"stage{s}.{kind}.fwd", f"embed.{kind}.fwd")
                  for s in range(STAGES) for kind in ("conv", "bn", "gcm")})


def _bwd_key(scope: str, kind: str) -> str:
    if scope in ("stem", "asp", "loss"):
        return f"{scope}.bwd"
    return f"{scope}.{kind}.bwd"


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("stem.fwd_ms", "ms", "lower"), ("stem.bwd_ms", "ms", "lower"),
           ("stem.gflop_s", "GFLOP/s", "higher")]
    for s in range(STAGES):
        out += [(f"stage{s}.conv.fwd_ms", "ms", "lower"), (f"stage{s}.conv.bwd_ms", "ms", "lower"),
                (f"stage{s}.conv.gflop_s", "GFLOP/s", "higher"),
                (f"stage{s}.bn.fwd_ms", "ms", "lower"), (f"stage{s}.bn.bwd_ms", "ms", "lower"),
                (f"stage{s}.gcm.fwd_ms", "ms", "lower"), (f"stage{s}.gcm.bwd_ms", "ms", "lower")]
    out += [(n, "ms", "lower") for n in (
        "asp.fwd_ms", "asp.bwd_ms", "loss.fwd_ms", "loss.bwd_ms", "backward.total_ms",
        "optim.step_ms", "data.batch_ms", "train.checkpoint_ms", "untraced_ms",
        "ckpt.load_ms", "features.read_wav_ms", "features.fbank_ms", "features.cache_ms",
        "embed.fwd_ms", "embed.conv.fwd_ms", "embed.bn.fwd_ms", "embed.gcm.fwd_ms",
        "embed.asp.fwd_ms", "metrics.score_ms", "metrics.eer_ms", "metrics.min_dcf_ms",
        "metrics.det_ms", "eval.write_ms")]
    out += [("gradcheck.fd_evals", "count", "lower"), ("gradcheck.fd_eval_us", "us", "lower"),
            ("gradcheck.full_network_s", "s", "lower"),
            ("setup.synth_ms_per_utt", "ms", "lower"), ("setup.fbank_ms_per_utt", "ms", "lower"),
            ("unit_cpu_ms_p50", "ms", "lower"), ("trace.overhead_ms", "ms", "lower")]
    return out


class Tracer:
    """Wraps tfctx callables; records span totals per unit while active."""

    def __init__(self):
        self.active = False
        self.scopes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.units: list[dict[str, float]] = []
        self.replay_calls: dict[tuple, list] = {}
        self._unit: dict[str, float] = defaultdict(float)
        self._pending: list[tuple] = []
        self._depth = 0
        self._last_end = 0.0
        self._full_network_start = None
        self._patches: list[tuple[object, str, object]] = []
        self._combined_loss = losses.combined_loss

    # -- unit bookkeeping -------------------------------------------------

    def begin_unit(self, t0: float) -> None:
        self._unit = defaultdict(float)
        self._pending = []
        self._last_end = t0

    def end_unit(self, wall_s: float) -> None:
        if self.active:
            self._unit["wall"] = wall_s
            self.units.append(dict(self._unit))
        self._pending = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        tr = self

        def layer(kind):
            def wrap(orig):
                def call(self, x, *args):
                    return tr._layer(orig, kind, self, x, args)
                return call
            return wrap

        def span(*keys, count=None):
            def wrap(orig):
                def call(*args, **kwargs):
                    if count is not None and tr.active:
                        tr._unit[count] += 1
                    return tr._span(keys, orig, args, kwargs)
                return call
            return wrap

        def embedder_init(orig):
            def call(self, *args, **kwargs):
                orig(self, *args, **kwargs)
                tr._register(self)
            return call

        def embed(orig):
            def call(self, *args, **kwargs):
                if tr.active:
                    tr._unit["embed.calls"] += 1
                    if tr._depth == 0:
                        tr._unit["data.batch"] += time.perf_counter() - tr._last_end
                return tr._span(("embed.fwd",), orig, (self,) + args, kwargs)
            return call

        def backward(orig):
            def call(self):
                if tr.active and not tr.units:
                    for rec in tr._pending:
                        tr.replay_calls.setdefault(rec[0], [rec, 0])[1] += 1
                tr._pending = []
                return tr._span(("backward.total",), orig, (self,), {})
            return call

        def combined_loss(orig):
            def call(batch, labels, head, params):
                out = tr._span(("loss.fwd",), orig, (batch, labels, head, params), {})
                if tr.active and out[0].requires_grad:
                    key = ("loss", id(head), batch.shape)
                    tr._pending.append((key, "loss", "loss", head, batch.shape,
                                        (list(labels), params)))
                return out
            return call

        def fd_check(orig):
            def call(fn, *args, **kwargs):
                def counted(*a):
                    if tr.active:
                        tr._unit["gradcheck.fd_evals"] += 1
                    return tr._span(("gradcheck.fd_eval",), fn, a, {})
                out = orig(counted, *args, **kwargs)
                if tr.active and tr._full_network_start is not None:
                    tr._unit["gradcheck.full_network"] += time.perf_counter() - tr._full_network_start
                tr._full_network_start = None
                return out
            return call

        def micro_network(orig):
            def call(*args, **kwargs):
                tr._full_network_start = time.perf_counter() if tr.active else None
                return orig(*args, **kwargs)
            return call

        targets = [
            (backbone.Conv2dLayer, "__call__", layer("conv")),
            (backbone.BatchNormLayer, "__call__", layer("bn")),
            (blocks.GcmBlock, "__call__", layer("gcm")),
            (backbone.AttentiveStatsPool, "__call__", layer("asp")),
            (backbone.Embedder, "__init__", embedder_init),
            (backbone.Embedder, "embed", embed),
            (Tensor, "backward", backward),
            (losses, "combined_loss", combined_loss),
            (optim.AdamW, "step", span("optim.step")),
            (backbone, "save_checkpoint", span("train.checkpoint", count="train.checkpoint.calls")),
            (backbone, "load_checkpoint", span("ckpt.load")),
            (features, "read_wav", span("features.read_wav", count="features.utts")),
            (features, "compute_fbank", span("features.fbank")),
            (train, "save_tensor", span("features.cache")),
            (metrics, "cosine_score", span("metrics.score")),
            (metrics, "compute_eer", span("metrics.eer")),
            (metrics, "compute_min_dcf", span("metrics.min_dcf")),
            (metrics, "det_points", span("metrics.det")),
            (metrics, "write_scores", span("eval.write")),
            (metrics, "write_det_csv", span("eval.write")),
            (T, "finite_diff_check", fd_check),
            (T, "finite_diff_check_params", fd_check),
            (gradcheck, "micro_network", micro_network),
        ]
        for owner, name, wrap in targets:
            orig = getattr(owner, name)
            self._patches.append((owner, name, orig))
            setattr(owner, name, wrap(orig))
        return self

    def __exit__(self, *exc):
        self.active = False
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)
        return False

    def _register(self, embedder) -> None:
        self.scopes[embedder.stem] = "stem"
        self.scopes[embedder.stem_bn] = "stem"
        self.scopes[embedder.pool] = "asp"
        for si, stage in enumerate(embedder.stages):
            for block in stage:
                for part in (block.conv1, block.bn1, block.conv2, block.bn2,
                             block.proj, block.proj_bn, block.gcm):
                    if part is not None:
                        self.scopes[part] = f"stage{si}"

    # -- span recording ---------------------------------------------------

    def _span(self, keys, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        top = self._depth == 0
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._depth -= 1
            for k in keys:
                self._unit[k] += t1 - t0
            if top:
                self._unit["top"] += t1 - t0
                self._last_end = t1

    def _layer(self, orig, kind, layer, x, args):
        scope = self.scopes.get(layer) if self.active else None
        if scope is None:
            return orig(layer, x, *args)
        out = self._span(_FWD_KEYS[(scope, kind)], orig, (layer, x) + args, {})
        if kind == "conv":
            cout, cin, kf, kt = layer.weight.shape
            self._unit[f"{scope}.conv.flops"] += 2.0 * out.size * cin * kf * kt
        if out.requires_grad:
            key = (id(layer), x.shape, args)
            self._pending.append((key, scope, kind, layer, x.shape, (x.requires_grad, args)))
        return out

    # -- backward replays -------------------------------------------------

    def replay_backward(self, reps: int = 3, seed: int = 0) -> dict[str, float]:
        """Seconds of backward per unit, per ``*.bwd`` key, from replaying
        each recorded layer call alone ``reps`` times (median). Call after
        the tracer is closed, so that the replays run unwrapped."""
        rng = np.random.default_rng(seed)
        out: dict[str, float] = defaultdict(float)
        for (_, scope, kind, layer, shape, extra), count in self.replay_calls.values():
            module = copy.deepcopy(layer)
            times = []
            for _ in range(reps):
                if kind == "loss":
                    labels, params = extra
                    batch = rng.normal(size=shape)
                    batch /= np.linalg.norm(batch, axis=2, keepdims=True)
                    loss = self._combined_loss(Tensor(batch, requires_grad=True), labels,
                                               module, copy.deepcopy(params))[0]
                else:
                    x_grad, args = extra
                    y = module(Tensor(rng.normal(size=shape), requires_grad=x_grad), *args)
                    loss = T.mul(y, Tensor(rng.normal(size=y.shape))).sum()
                t0 = time.perf_counter()
                loss.backward()
                times.append(time.perf_counter() - t0)
            out[_bwd_key(scope, kind)] += count * statistics.median(times)
        return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(units: list[dict[str, float]], bwd: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from the traced units and the replays.

    Per-unit spans are medians over units; per-call figures (per batch,
    per utterance, per epoch, per loss evaluation, GFLOP/s) are totals
    over all traced units divided by the matching call count. A module
    the workload never enters reads 0.
    """
    def per_unit(key, scale=1e3):
        return _median([u.get(key, 0.0) * scale for u in units])

    def per_call(key, count_key, scale=1e3):
        n = sum(u.get(count_key, 0.0) for u in units)
        return sum(u.get(key, 0.0) for u in units) * scale / n if n else 0.0

    def gflop_s(flops_key, time_key):
        t = sum(u.get(time_key, 0.0) for u in units)
        return sum(u.get(flops_key, 0.0) for u in units) / t / 1e9 if t else 0.0

    out = {"stem.fwd_ms": per_unit("stem.fwd"), "stem.bwd_ms": bwd.get("stem.bwd", 0.0) * 1e3,
           "stem.gflop_s": gflop_s("stem.conv.flops", "stem.conv")}
    for s in range(STAGES):
        p = f"stage{s}"
        out[f"{p}.conv.fwd_ms"] = per_unit(f"{p}.conv.fwd")
        out[f"{p}.conv.bwd_ms"] = bwd.get(f"{p}.conv.bwd", 0.0) * 1e3
        out[f"{p}.conv.gflop_s"] = gflop_s(f"{p}.conv.flops", f"{p}.conv.fwd")
        for kind in ("bn", "gcm"):
            out[f"{p}.{kind}.fwd_ms"] = per_unit(f"{p}.{kind}.fwd")
            out[f"{p}.{kind}.bwd_ms"] = bwd.get(f"{p}.{kind}.bwd", 0.0) * 1e3
    out.update({
        "asp.fwd_ms": per_unit("asp.fwd"), "asp.bwd_ms": bwd.get("asp.bwd", 0.0) * 1e3,
        "loss.fwd_ms": per_unit("loss.fwd"), "loss.bwd_ms": bwd.get("loss.bwd", 0.0) * 1e3,
        "backward.total_ms": per_unit("backward.total"),
        "optim.step_ms": per_unit("optim.step"),
        "data.batch_ms": per_call("data.batch", "embed.calls"),
        "train.checkpoint_ms": per_call("train.checkpoint", "train.checkpoint.calls"),
        "untraced_ms": _median([(u["wall"] - u.get("top", 0.0) - u.get("data.batch", 0.0)) * 1e3
                                for u in units]),
        "ckpt.load_ms": per_unit("ckpt.load"),
        "features.read_wav_ms": per_call("features.read_wav", "features.utts"),
        "features.fbank_ms": per_call("features.fbank", "features.utts"),
        "features.cache_ms": per_call("features.cache", "features.utts"),
        "embed.fwd_ms": per_call("embed.fwd", "embed.calls"),
    })
    for kind in ("conv", "bn", "gcm", "asp"):
        out[f"embed.{kind}.fwd_ms"] = per_call(f"embed.{kind}.fwd", "embed.calls")
    out.update({
        "metrics.score_ms": per_unit("metrics.score"), "metrics.eer_ms": per_unit("metrics.eer"),
        "metrics.min_dcf_ms": per_unit("metrics.min_dcf"), "metrics.det_ms": per_unit("metrics.det"),
        "eval.write_ms": per_unit("eval.write"),
        "gradcheck.fd_evals": per_unit("gradcheck.fd_evals", scale=1.0),
        "gradcheck.fd_eval_us": per_call("gradcheck.fd_eval", "gradcheck.fd_evals", scale=1e6),
        "gradcheck.full_network_s": per_unit("gradcheck.full_network", scale=1.0),
    })
    return out
