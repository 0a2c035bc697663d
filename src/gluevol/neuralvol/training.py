"""Training and evaluation harness for the regression network.

Epoch-shuffled minibatch optimization with Adam on the MSE loss, in
float32. A fixed seed and single-threaded BLAS give bit-identical histories
and weights. Targets can be standardized for desk-scale runs; predictions
and reported errors are always in raw mm^3 units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..util import (ANY_VALUE, DOMAIN_INIT, DOMAIN_TRAIN, LengthMismatch, configure_allocator,
                    derived_rng)
from . import layers
from .network import (
    ModelWeights,
    NetConfig,
    init_weights,
    predict,
    rnet_backward,
    rnet_forward,
)
from .optim import BETA1, BETA2, EPS, adam_init, adam_step

_DTYPE = np.dtype(np.float32)  # the loop's; returned weights are float64


class EmptySplit(ValueError):
    """Training or evaluation invoked on an empty sample set."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-4
    seed: int = 0
    standardize_targets: bool = False

    RETIRED_KEYS = {  # nothing ever read ``profile``
        "beta1": BETA1, "beta2": BETA2, "eps": EPS, "profile": ANY_VALUE,
        "shuffle": True, "compute_dtype": _DTYPE.name}

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    test_mse: float
    wall_seconds: float


@dataclass
class TrainResult:
    weights: ModelWeights
    history: list[EpochStats]


@dataclass
class EvalResult:
    """Eval-mode predictions sorted by descending ground truth."""

    mse: float
    truth: np.ndarray
    predictions: np.ndarray
    order: np.ndarray  # indices into the original sample order

    @property
    def mse_e6(self) -> float:
        """MSE scaled by 1e6, the conventional reporting unit."""
        return self.mse * 1e6


def train(
    train_x,
    train_y,
    net_cfg: NetConfig,
    cfg: TrainConfig,
    test_x=None,
    test_y=None,
) -> TrainResult:
    """Fit the network; returns final weights plus per-epoch history.

    ``train_x`` is (N, 1, nx, ny, nz), a bool or uint8 stack passed uncast
    to the first conv or a float one cast per batch to float32, or a
    ``voxelizer.VoxelStack``, and ``train_y`` the volumes in mm^3; either
    split is indexed one batch at a time. Test MSE is evaluated per epoch in
    eval mode, at the training batch size, when a test split is provided.
    Training holds one step's tensors at a time: a step's caches and
    gradients are released before the next step's forward and before the
    epoch's eval, so neither needs more memory than one training step.
    Raises ``FloatingPointError`` naming the epoch and batch at the first
    batch whose loss or gradient is not finite, before that batch moves any
    weight.
    """
    train_y = np.asarray(train_y, dtype=np.float64)
    n = len(train_y)
    if n == 0:
        raise EmptySplit("empty training split")
    if len(train_x) != n:
        raise LengthMismatch(f"{len(train_x)} grids vs {n} labels")
    configure_allocator()

    init = init_weights(net_cfg, seed=int(derived_rng(cfg.seed, DOMAIN_INIT).integers(2**31)))
    if cfg.standardize_targets:
        std = float(train_y.std())
        init.target_mean = float(train_y.mean())
        init.target_std = std if std > 1e-12 else 1.0
    scaled_y = ((train_y - init.target_mean) / init.target_std).astype(_DTYPE)

    work = init.cast(_DTYPE)
    params = work.trainable()
    state = adam_init(params)
    rng = derived_rng(cfg.seed, DOMAIN_TRAIN)
    history: list[EpochStats] = []
    start = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sq_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            where = f"at epoch {epoch}, batch {lo // cfg.batch_size}"
            loss = _step(train_x[idx], scaled_y[idx], work, net_cfg, params, state,
                         cfg.learning_rate, where)
            sq_sum += loss * len(idx)
        train_mse = sq_sum / n * work.target_std**2
        if test_x is not None and len(test_x):
            test_mse = evaluate(work, net_cfg, test_x, test_y, batch_size=cfg.batch_size).mse
        else:
            test_mse = float("nan")
        history.append(
            EpochStats(epoch, train_mse, test_mse, time.perf_counter() - start)
        )
    return TrainResult(weights=work.cast(np.float64), history=history)


def _step(x, y, work: ModelWeights, net_cfg: NetConfig, params, state, learning_rate: float,
          where: str) -> float:
    """One optimizer step on the batch ``x``, ``y``; returns its loss. Its
    caches and gradients are released on return, before the next step."""
    pred, caches = rnet_forward(x, work, net_cfg, training=True)
    loss, grad = layers.loss_mse(pred, y)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {where}")
    grads = rnet_backward(grad, caches)
    if not all(np.isfinite(g).all() for g in grads):
        raise FloatingPointError(f"non-finite gradient {where}")
    adam_step(params, grads, state, learning_rate)
    return loss


def evaluate(weights: ModelWeights, net_cfg: NetConfig, x, y, batch_size: int = 64) -> EvalResult:
    """Eval-mode MSE and per-sample predictions, sorted by descending truth.

    ``x`` is an array of grids or a ``voxelizer.VoxelStack``, sliced one
    batch of ``batch_size`` at a time; predictions are the same bytes at
    every batch size. Mutates nothing; repeated calls return identical
    results.
    """
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise EmptySplit("empty evaluation split")
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} grids vs {len(y)} labels")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    preds = np.concatenate([predict(x[lo : lo + batch_size], weights, net_cfg, batch_size)
                            for lo in range(0, len(x), batch_size)])
    mse = float(np.mean((preds - y) ** 2))
    order = np.argsort(-y, kind="stable")
    return EvalResult(mse=mse, truth=y[order], predictions=preds[order], order=order)
