"""Adam optimizer over flat lists of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ShapeMismatch


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def adam_init(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(params, grads, state: AdamState, cfg: AdamConfig):
    """One bias-corrected Adam update; parameters are updated in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("parameter/gradient/state lists differ in length")
    state.t += 1
    bc1 = 1.0 - cfg.beta1**state.t
    bc2 = 1.0 - cfg.beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter {p.shape}")
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g**2
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    return params, state
