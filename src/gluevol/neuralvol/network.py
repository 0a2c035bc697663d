"""The volume-regression network: blocks of conv/leaky-ReLU/batchnorm/pool,
then flatten and a single dense output.

The topology is fixed, save the channel counts and the grid size: a 3x3x3
"same" conv, leaky ReLU, batchnorm and a 2x2x2 max-pool per block, on a
one-channel grid, with the settings that ``layers`` fixes. The canonical
configuration (channels 32..512 over a 32x32x64 grid) halves each spatial
dimension per block and flattens to 1024 features. The tiny profile (see
``config``) keeps the identical topology at reduced channel counts so the
network trains on a desk CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from .layers import POOL, ShapeMismatch

KERNEL = 3  # conv kernel edge


@dataclass(frozen=True)
class NetConfig:
    channels: tuple[int, ...] = (32, 64, 128, 256, 512)
    input_dims: tuple[int, int, int] = (32, 32, 64)

    RETIRED_KEYS = {  # not a field; see util.ANY_VALUE
        "kernel": KERNEL, "stride": 1, "padding": KERNEL // 2, "pool": POOL, "in_channels": 1,
        "leaky_slope": layers.SLOPE, "bn_eps": layers.BN_EPS, "bn_momentum": layers.BN_MOMENTUM}

    def block_shapes(self) -> list[tuple[int, int, int, int]]:
        """(channels, x, y, z) after each block, input first."""
        dims = tuple(self.input_dims)
        shapes = [(1,) + dims]
        for c_out in self.channels:
            # A "same" conv keeps the dims; the pool divides them.
            if any(d % POOL for d in dims):
                raise ShapeMismatch(f"dims {dims} not divisible by pool {POOL}")
            dims = tuple(d // POOL for d in dims)
            shapes.append((c_out,) + dims)
        return shapes

    @property
    def flatten_length(self) -> int:
        return int(np.prod(self.block_shapes()[-1]))


@dataclass
class BlockWeights:
    conv_w: np.ndarray
    conv_b: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray


@dataclass
class ModelWeights:
    """All parameter tensors plus the target scaling learned at fit time."""

    blocks: list[BlockWeights]
    dense_w: np.ndarray
    dense_b: np.ndarray
    target_mean: float = 0.0
    target_std: float = 1.0

    def trainable(self) -> list[np.ndarray]:
        arrays = []
        for blk in self.blocks:
            arrays += [blk.conv_w, blk.conv_b, blk.bn_gamma, blk.bn_beta]
        arrays += [self.dense_w, self.dense_b]
        return arrays

    def cast(self, dtype) -> "ModelWeights":
        """Deep copy with every array converted to ``dtype``.

        Training runs on a float32 working copy; the persisted weights stay
        float64.
        """

        def conv(arr):
            return np.array(arr, dtype=dtype)

        return ModelWeights(
            blocks=[
                BlockWeights(*(conv(getattr(b, f.name)) for f in
                               b.__dataclass_fields__.values()))
                for b in self.blocks
            ],
            dense_w=conv(self.dense_w),
            dense_b=conv(self.dense_b),
            target_mean=self.target_mean,
            target_std=self.target_std,
        )


def init_weights(cfg: NetConfig, seed: int = 0) -> ModelWeights:
    """Gaussian init: conv/dense weights N(0, 0.02^2), batchnorm scale
    N(1, 0.02^2), biases and shifts zero. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    blocks = []
    c_in = 1
    for c_out in cfg.channels:
        blocks.append(
            BlockWeights(
                conv_w=rng.normal(0.0, 0.02, (c_out, c_in) + (KERNEL,) * 3),
                conv_b=np.zeros(c_out),
                bn_gamma=rng.normal(1.0, 0.02, c_out),
                bn_beta=np.zeros(c_out),
                bn_mean=np.zeros(c_out),
                bn_var=np.ones(c_out),
            )
        )
        c_in = c_out
    dense_w = rng.normal(0.0, 0.02, (cfg.flatten_length, 1))
    return ModelWeights(blocks=blocks, dense_w=dense_w, dense_b=np.zeros(1))


def rnet_forward(x, weights: ModelWeights, cfg: NetConfig, training: bool = False):
    """Forward pass; returns (predictions (B,), caches).

    Predictions are in the network's internal (possibly standardized) target
    units; use ``predict`` for volumes in mm^3. Each block is conv ->
    leaky ReLU -> batchnorm -> max-pool. In training mode the caches, one
    (conv, ReLU, batchnorm, max-pool) tuple of layer caches per block, feed
    ``rnet_backward``, and each block's batchnorm moves its ``bn_mean`` and
    ``bn_var`` toward the batch statistics in place.

    A float x is cast to the weights' dtype; a bool or integer grid goes to
    the first conv as it is, which computes in that dtype and reads a
    binary grid's voxels without a float copy. A block whose input is
    mostly one per-channel background vector computes its conv only at the
    positions near an off-background one, plus one value per grid-face
    class for the rest (``layers._correlate``), in training and eval alike,
    with the dense conv's bytes. On height fields that is the first block,
    whose input is a sparse binary grid, and the second: the first leaves
    its background wherever no voxel was near. Such a conv output, where
    the pool divides the dims, is a ``layers.Windowed``: its active pool
    windows, one list over the batch, plus one value per grid-face class
    and channel: in training on tiny grids about a tenth of the first
    block's full-resolution positions and a third of the second's. Leaky
    ReLU, batchnorm and max-pool run on that form, and the pooled output is
    dense. Batchnorm statistics and the
    block's gradients sum in another order than the dense layers, so they
    match them to float rounding. The form is chosen by the input alone:
    the third block takes it too where its input qualifies.

    Eval mode keeps no caches (``None`` is returned in their place) and runs
    each block as conv -> max-pool -> leaky ReLU -> batchnorm, so ReLU and
    batchnorm touch 1/POOL^3 of the conv output. As in training, a sparse
    binary input's full-resolution conv output is never built: it is pooled
    as a ``layers.Windowed``, with the dense conv's values. The result is
    bit for bit that of the training order: float rounding is monotone, so
    leaky ReLU and the running-statistics batchnorm affine are
    non-decreasing per channel where ``bn_gamma >= 0`` and non-increasing
    where it is negative, and pooling picks the same element before or
    after them. Channels with negative ``bn_gamma`` need a min-pool, taken
    exactly as the negated max-pool of the conv with negated kernel and
    bias. This holds wherever the normalized values (x - running_mean) /
    sqrt(running_var + eps) are finite; NaN propagates through both orders
    alike.
    """
    x = np.asarray(x)
    if x.dtype != weights.dense_w.dtype and (x.dtype.kind == "f" or not weights.blocks):
        x = x.astype(weights.dense_w.dtype)
    expected = (1,) + tuple(cfg.input_dims)
    if x.ndim != 5 or x.shape[1:] != expected:
        raise ShapeMismatch(f"input shape {x.shape[1:]} != expected {expected}")
    if not training:
        return _eval_forward(x, weights), None
    caches = []
    h = x
    for blk in weights.blocks:
        h, conv_cache = layers.conv3d_forward(h, blk.conv_w, blk.conv_b)
        h, relu_cache = layers.leaky_relu_forward(h)
        h, bn_cache = layers.batchnorm3d_forward(
            h, blk.bn_gamma, blk.bn_beta, blk.bn_mean, blk.bn_var, training=True
        )
        h, pool_cache = layers.maxpool3d_forward(h)
        caches.append((conv_cache, relu_cache, bn_cache, pool_cache))
    flat = h.reshape(h.shape[0], -1)
    out, dense_cache = layers.dense_forward(flat, weights.dense_w, weights.dense_b)
    caches.append((dense_cache, h.shape))
    return out[:, 0], caches


def _eval_forward(x, weights: ModelWeights) -> np.ndarray:
    """Eval-mode predictions, pooling each conv output first (see rnet_forward)."""
    h = x
    for blk in weights.blocks:
        flip = blk.bn_gamma < 0
        conv_w, conv_b = blk.conv_w, blk.conv_b
        if flip.any():
            conv_w = np.where(flip[:, None, None, None, None], -conv_w, conv_w)
            conv_b = np.where(flip, -conv_b, conv_b)
        h, _ = layers.conv3d_forward(h, conv_w, conv_b)
        h, _ = layers.maxpool3d_forward(h)
        if flip.any():
            np.negative(h, out=h, where=flip[:, None, None, None])
        h, _ = layers.leaky_relu_forward(h)
        h, _ = layers.batchnorm3d_forward(
            h, blk.bn_gamma, blk.bn_beta, blk.bn_mean, blk.bn_var, training=False
        )
    # One (1, F) @ (F, 1) product a sample, as at batch 1: a (B, F) GEMM's sums depend on B.
    return np.array([layers.dense_forward(row, weights.dense_w, weights.dense_b)[0][0, 0]
                     for row in h.reshape(h.shape[0], 1, -1)], dtype=h.dtype)


def rnet_backward(grad_pred, caches):
    """Backward pass; returns per-parameter gradients in trainable() order.

    A block that ran on ``layers.Windowed`` tensors gets its gradients in
    that form from max-pool back to its conv: a binary input's weight
    gradient is a gather at the occupied voxels, any other conv writes the
    gradient into its dense frame. Every other conv backward gathers grad_y
    at its input positions: all of them for a dense input. When a block
    ran on a binary grid's windows, whose classes share one value, the
    next block's input is that value outside the carried windows, so the
    next block's conv backward is handed those windows and that background
    and gathers at them only: it returns the input gradient there, plus its
    sum over the rest, as a ``layers.Windowed`` that the block's max-pool
    backward reads, and sums its weight and bias gradients in another order
    than with every position carried.
    """
    dense_cache, pre_flat_shape = caches[-1]
    grad_out = np.asarray(grad_pred, dtype=np.float64)[:, None]
    grad_flat, grad_dw, grad_db = layers.dense_backward(grad_out, dense_cache)
    grad_h = grad_flat.reshape(pre_flat_shape)
    block_grads = []
    for block in reversed(range(len(caches) - 1)):
        conv_cache, relu_cache, bn_cache, pool_cache = caches[block]
        grad_h = layers.maxpool3d_backward(grad_h, pool_cache)
        grad_h, grad_gamma, grad_beta = layers.batchnorm3d_backward(grad_h, bn_cache)
        grad_h = layers.leaky_relu_backward(grad_h, relu_cache)
        carried = None
        if block and caches[block - 1][0][2] is not None:  # the block before read a binary grid
            below = caches[block - 1][3][1]  # its max-pool input, whose classes share one value
            carried = (below.windows, below.background[0, :, 0, 0, 0])
        # The first block's input gradient leads nowhere; skip its GEMM.
        grad_h, grad_w, grad_b = layers.conv3d_backward(
            grad_h, conv_cache, need_input_grad=block > 0, carried=carried)
        block_grads.append([grad_w, grad_b, grad_gamma, grad_beta])
    grads = []
    for blk in reversed(block_grads):
        grads += blk
    grads += [grad_dw, grad_db]
    return grads


def predict(x, weights: ModelWeights, cfg: NetConfig, batch_size: int = 64) -> np.ndarray:
    """Eval-mode volume predictions in mm^3 (target scaling undone), the
    same bytes at every ``batch_size`` (>= 1)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    x = np.asarray(x)
    outputs = []
    for lo in range(0, x.shape[0], batch_size):
        pred, _ = rnet_forward(x[lo : lo + batch_size], weights, cfg, training=False)
        outputs.append(pred)
    raw = np.concatenate(outputs) if outputs else np.zeros(0)
    return raw.astype(np.float64) * weights.target_std + weights.target_mean
