"""Finite-difference verification of every block variant, both losses and a
miniature end-to-end network.

Shapes are kept tiny so central differences over every parameter stay
cheap. The only kinks are the ``clamp_min`` floor and the ``max``
reduction, and the step ``tensor.FD_STEP`` is finite: an input within
that step of a kink makes the numeric side wrong on a correct engine
(``full_network`` at seed 34). The default seed, 1234, is checked to pass;
redrawing inputs clear of every kink is ROADMAP open item 3.

The full-network check is staged: the micro network's loss is the chain
``Embedder.embed`` runs (``Embedder.segments``) plus a loss tail, and a
perturbed parameter re-runs only the segments from the one that reads it
on, starting from a cached segment input (``tensor.StagedLoss``). That is
exact because no segment reads a later segment's parameters and no op
mutates a cached input; the errors equal a whole-network re-run's bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import backbone, blocks, losses
from . import tensor as T
from .tensor import Tensor

TOLERANCE = 1e-4

BLOCK_VARIANTS = [
    ("se_fc", dict(kind="se", transform="fc")),
    ("se_conv1d", dict(kind="se", transform="conv1d")),
    ("att_gcm_fc", dict(kind="att_gcm", transform="fc", attention_hidden=1)),
    ("att_gcm_conv1d", dict(kind="att_gcm", transform="conv1d", attention_hidden=1)),
    ("att_gcm_tfe", dict(kind="att_gcm", transform="fc", attention_hidden=1, tfe=True)),
    ("dct_gcm_fc", dict(kind="dct_gcm", transform="fc")),
    ("dct_gcm_conv1d", dict(kind="dct_gcm", transform="conv1d")),
    ("dct_gcm_tfe", dict(kind="dct_gcm", transform="fc", tfe=True)),
]


def _block_error(variant_kwargs: dict, seed: int) -> float:
    rng = np.random.default_rng(seed)
    block = blocks.GcmBlock(8, reduction=4, dct_grid=(3, 4), dct_components=3,
                            tfe_groups=4, tfe_scale_init=0.4, rng=rng,
                            **variant_kwargs)
    x = Tensor(rng.normal(size=(2, 8, 3, 4)), requires_grad=True)
    target = Tensor(rng.normal(size=(2, 8, 3, 4)))
    errs = T.finite_diff_check_params(lambda: T.mul(block(x), target).sum(),
                                      [("x", x), *block.named_parameters()])
    return max(errs.values())


def _loss_errors(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(3, 2, 6))
    batch /= np.linalg.norm(batch, axis=2, keepdims=True)
    head = losses.ClassifierHead(3, 6, rng)
    proto = losses.ProtoParams()
    labels = [0, 0, 1, 1, 2, 2]
    x = Tensor(batch, requires_grad=True)

    ce = T.finite_diff_check_params(
        lambda: losses.softmax_ce_loss(T.reshape(x, (6, 6)), labels, head),
        [("x", x), *head.named_parameters()])
    proto_errs = T.finite_diff_check_params(
        lambda: losses.angular_proto_loss(x, proto), [("x", x), *proto.named_parameters()])
    return {"loss_softmax_ce": max(ce.values()),
            "loss_angular_proto": max(proto_errs.values())}


def micro_network(seed: int):
    """Smallest full pipeline that exercises every component at once."""
    rng = np.random.default_rng(seed)
    factory_rng = np.random.default_rng(seed + 1)

    def make_gcm(channels):
        return blocks.GcmBlock(channels, kind="att_gcm", transform="fc", reduction=2,
                               attention_hidden=2, tfe=True, tfe_groups=2,
                               tfe_scale_init=0.3, rng=factory_rng)

    embedder = backbone.Embedder(
        mel_bins=8, stage_channels=[2, 2, 4, 4], blocks_per_stage=[1, 1, 1, 1],
        stage_strides=[1, 2, 2, 1], stem_stride=(1, 1), embed_dim=6, asp_hidden=3,
        make_gcm=make_gcm, insertion="after_bn", rng=rng)
    head = losses.ClassifierHead(2, 6, rng)
    proto = losses.ProtoParams()
    x = Tensor(rng.normal(size=(4, 1, 8, 12)))
    labels = [0, 0, 1, 1]
    return embedder, head, proto, x, labels


def full_network_loss(seed: int) -> T.StagedLoss:
    """The micro network's training loss as a staged loss: the segments
    ``Embedder.embed`` runs, then a tail that applies the combined loss
    with the head and prototype parameters."""
    embedder, head, proto, x, labels = micro_network(seed)

    def tail(emb):
        return losses.combined_loss(emb.reshape((2, 2, 6)), labels, head, proto)[0]

    segments = embedder.segments(training=True)
    segments.append(T.Segment([("head", head), ("proto", proto)], tail))
    return T.StagedLoss(segments, x)


def _full_network_error(seed: int) -> float:
    loss = full_network_loss(seed)
    errs = T.finite_diff_check_params(loss, loss.named_parameters())
    return max(errs.values())


def run_grad_checks(seed: int = 1234, include_full_network: bool = True) -> dict[str, float]:
    """Max relative gradient error per block/loss variant (and the full
    miniature network); every entry must come in under TOLERANCE."""
    report: dict[str, float] = {}
    for i, (name, kwargs) in enumerate(BLOCK_VARIANTS):
        report[name] = _block_error(kwargs, seed + i)
    report.update(_loss_errors(seed + 100))
    if include_full_network:
        report["full_network"] = _full_network_error(seed + 200)
    return report
