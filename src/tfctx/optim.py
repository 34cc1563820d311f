"""AdamW with decoupled weight decay and the stepped warm-up/decay
learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .tensor import Tensor


class AdamW:
    """Optimizer over named tensors; reads .grad, updates .data in place.

    Decay is decoupled: each parameter first shrinks by lr*WEIGHT_DECAY,
    then receives the bias-corrected Adam step. A missing gradient counts
    as zero. A non-finite gradient aborts before any parameter, moment or
    the step count is touched.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8
    WEIGHT_DECAY = 5e-5

    def __init__(self, named_params, lr: float):
        self.named_params: list[tuple[str, Tensor]] = list(named_params)
        self.lr = lr
        self.m = [np.zeros(p.data.shape) for _, p in self.named_params]
        self.v = [np.zeros(p.data.shape) for _, p in self.named_params]
        self.step_count = 0

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def step(self) -> None:
        for name, p in self.named_params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericalError(f"non-finite gradient in {name}; aborting step")
        self.step_count += 1
        t = self.step_count
        lr, beta1, beta2, eps, weight_decay = self.lr, self.BETA1, self.BETA2, self.EPS, self.WEIGHT_DECAY
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for (_, param), m, v in zip(self.named_params, self.m, self.v):
            p = param.data
            g = np.zeros_like(p) if param.grad is None else param.grad
            p *= 1.0 - lr * weight_decay
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


LR_DECAY = 0.75
LR_DECAY_EVERY = 18


def lr_schedule(epoch: int, train) -> float:
    """The rate of ``epoch`` under a config's train section: a linear
    per-epoch ramp from base_lr/warmup_epochs up to base_lr, then a factor
    of LR_DECAY every LR_DECAY_EVERY epochs."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    warmup = train.warmup_epochs
    if warmup > 0 and epoch < warmup:
        return train.base_lr * (epoch + 1) / warmup
    return train.base_lr * LR_DECAY ** ((epoch - warmup) // LR_DECAY_EVERY)
