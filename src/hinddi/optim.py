"""Adam optimizer over autodiff leaf tensors."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autodiff import ShapeError, Tensor

__all__ = ["Adam"]


class Adam:
    """Bias-corrected Adam with additive L2 weight decay.

    Weight decay is folded into the gradient (g + wd * theta) before the
    moment updates, i.e. the classic Adam+L2 coupling rather than decoupled
    decay. Moment tensors are shape-identical to their parameters and the
    step counter increases by exactly one per `step`.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 0.005,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one Adam update from the gradients stored on the parameters."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise ShapeError("Adam.step: parameter has no gradient; run backward first")
            if p.grad.shape != p.data.shape:
                raise ShapeError(
                    f"Adam.step: gradient shape {p.grad.shape} vs parameter {p.data.shape}")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data[...] = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
