"""Training objectives: angular prototypical metric loss plus softmax
cross-entropy over speaker labels, combined additively.

Batches are arranged (N speakers, M utterances, D dims) with unit-norm
embeddings; the last utterance of each speaker is the query, the mean of
the others its prototype.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .backbone import unit_norm
from .errors import ShapeError
from .tensor import Module, Tensor


class ProtoParams(Module):
    """Learnable similarity scale/bias of the prototypical softmax. The
    scale must stay positive; the trainer clamps it after every step."""

    PREFIX = "proto"
    W_FLOOR = 1e-6
    SCALE_INIT = 10.0
    BIAS_INIT = -5.0

    def __init__(self):
        self.scale = Tensor(np.array([self.SCALE_INIT]), requires_grad=True)
        self.bias = Tensor(np.array([self.BIAS_INIT]), requires_grad=True)

    def clamp_(self) -> None:
        np.maximum(self.scale.data, self.W_FLOOR, out=self.scale.data)


class ClassifierHead(Module):
    """Last linear layer for the speaker classification loss."""

    PREFIX = "head"

    def __init__(self, num_speakers: int, embed_dim: int, rng: np.random.Generator | None = None):
        # tfbench's train_dct_tfe gradient check builds the head without a generator
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_speakers = num_speakers
        self.weight = Tensor(rng.normal(0.0, 1.0 / math.sqrt(embed_dim), (num_speakers, embed_dim)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(num_speakers), requires_grad=True)


def _check_batch(batch: Tensor) -> tuple[int, int, int]:
    if batch.ndim != 3:
        raise ShapeError(f"expected (N, M, D) batch, got {batch.shape}")
    n, m, d = batch.shape
    if m < 2:
        raise ShapeError(f"need at least 2 utterances per speaker, got M={m}")
    return n, m, d


def prototypes(batch: Tensor) -> Tensor:
    """(N, D) speaker prototypes: the mean of each speaker's first M-1
    utterances."""
    _, m, _ = _check_batch(batch)
    return T.reduce(T.narrow(batch, 1, 0, m - 1), (1,), "mean")


def angular_proto_loss(batch: Tensor, params: ProtoParams) -> Tensor:
    """Softmax over scaled cosines between each query and all prototypes."""
    n, m, d = _check_batch(batch)
    queries = T.reshape(T.narrow(batch, 1, m - 1, 1), (n, d))
    protos = prototypes(batch)
    cosines = T.linear(unit_norm(queries, "query"), unit_norm(protos, "prototype"))
    logits = T.add(T.mul(cosines, params.scale), params.bias)
    return T.cross_entropy(logits, np.arange(n))


def softmax_ce_loss(embeddings: Tensor, labels, head: ClassifierHead) -> Tensor:
    """Mean negative log-likelihood of the labelled speakers."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels < 0) | (labels >= head.num_speakers)):
        raise ValueError(f"label out of range [0, {head.num_speakers})")
    return T.cross_entropy(T.linear(embeddings, head.weight, head.bias), labels)


def combined_loss(batch: Tensor, labels, head: ClassifierHead,
                  params: ProtoParams) -> tuple[Tensor, float, float]:
    """Classification + prototypical loss; returns the summed scalar and the
    two component values for logging."""
    n, m, d = _check_batch(batch)
    flat = T.reshape(batch, (n * m, d))
    ce = softmax_ce_loss(flat, labels, head)
    proto = angular_proto_loss(batch, params)
    return T.add(ce, proto), ce.item(), proto.item()
