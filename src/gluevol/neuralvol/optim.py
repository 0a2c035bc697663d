"""Adam optimizer over flat lists of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ShapeMismatch

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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


def adam_step(params, grads, state: AdamState, learning_rate: float):
    """One bias-corrected Adam update; parameters are updated in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("parameter/gradient/state lists differ in length")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter {p.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g**2
        p -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params, state
