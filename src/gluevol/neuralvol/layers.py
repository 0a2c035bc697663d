"""Tensor layers with exact forward and backward passes (float64 numpy).

Tensors are (batch, channels, x, y, z) C-order arrays. Every forward
returns (output, cache); the matching backward consumes the upstream
gradient plus the cache and returns gradients for its inputs and
parameters.

3D convolution is cross-correlation lowered to GEMM: patches are gathered
by k^3 large slice copies into a patch matrix, chunked over the batch to
bound its size. Each chunk allocates its own buffers, so the layer
functions keep no state between calls; ``util.configure_allocator`` keeps
those large buffers on the reusable heap.

The network's first block reads binary height-field grids, under 1%
occupied. Such one-channel 0/1 inputs take an exact sparse path (see
``conv3d_forward``): only output positions next to an occupied voxel are
computed, each from exact products w * 0 or w * 1 summed in the GEMM's own
order, so the output is bit-identical. That order is an assumption about
the BLAS, which ``tests/test_layers.py::TestBinaryConv`` checks against the
GEMM. When more than ``_BINARY_MAX_ACTIVE`` of the positions are active,
the dense GEMM is faster and runs instead.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """Tensor dimensions incompatible with the layer parameters."""


class LengthMismatch(ValueError):
    """Prediction/target vectors of different lengths."""


# Upper bound on one chunk's im2col patch matrix (bytes).
_COL_BUDGET = 96 * 1024 * 1024

# Largest share of output positions that may be active for a binary input
# to take the sparse conv path. The sparse path costs about linear time in
# the active positions and breaks even with the dense GEMM at 16-18%
# active (32x32x64 grids, 8 output channels, one BLAS thread: float64 and
# float32 at batch 1, float32 at batch 32); tiny height-field grids are
# about 5% active.
_BINARY_MAX_ACTIVE = 0.15


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeMismatch(message)


def _conv_out_dims(dims, kernel: int, stride: int, padding: int):
    out = []
    for d in dims:
        span = d + 2 * padding - kernel
        _require(span >= 0, f"kernel {kernel} larger than padded input {d + 2 * padding}")
        out.append(span // stride + 1)
    return tuple(out)


def _pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    width = ((0, 0), (0, 0)) + ((padding, padding),) * 3
    return np.pad(x, width)


def _im2col(x_pad: np.ndarray, k: int, stride: int, out_dims) -> np.ndarray:
    """(B, Cin*k^3, n_positions) patch matrix."""
    batch, c_in = x_pad.shape[:2]
    ox, oy, oz = out_dims
    col = np.empty((batch, c_in, k, k, k, ox, oy, oz), dtype=x_pad.dtype)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                col[:, :, a, b, c] = x_pad[
                    :,
                    :,
                    a : a + (ox - 1) * stride + 1 : stride,
                    b : b + (oy - 1) * stride + 1 : stride,
                    c : c + (oz - 1) * stride + 1 : stride,
                ]
    return col.reshape(batch, c_in * k**3, ox * oy * oz)


def _correlate(x_pad: np.ndarray, w_mat: np.ndarray, k: int, stride: int, out_dims):
    """Batched GEMM correlation of padded input with a (Cout, Cin*k^3) kernel."""
    batch = x_pad.shape[0]
    c_out = w_mat.shape[0]
    n_positions = int(np.prod(out_dims))
    per_sample = w_mat.shape[1] * n_positions * x_pad.itemsize
    chunk = max(1, _COL_BUDGET // max(per_sample, 1))
    y = np.empty((batch, c_out) + tuple(out_dims), dtype=x_pad.dtype)
    flat = y.reshape(batch, c_out, n_positions)
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        col = _im2col(x_pad[lo:hi], k, stride, out_dims)
        np.matmul(w_mat, col, out=flat[lo:hi])
    return y


def _correlate_binary(x, w_mat, b, k: int, stride: int, padding: int, out_dims):
    """Exact sparse correlation plus bias of a one-channel 0/1 input.

    Returns None, for the dense GEMM to run, unless x has one channel, only
    0 and 1 values, stride 1 and padding k // 2, and at most
    ``_BINARY_MAX_ACTIVE`` of the output positions are active.
    """
    if x.shape[1] != 1 or stride != 1 or padding != k // 2:
        return None
    occupied = x[:, 0] != 0
    if not np.all(x[:, 0][occupied] == 1):
        return None
    batch, p = x.shape[0], padding
    dx, dy, dz = x.shape[2:]
    padded = np.zeros((batch, dx + 2 * p, dy + 2 * p, dz + 2 * p), dtype=bool)
    padded[:, p : p + dx, p : p + dy, p : p + dz] = occupied
    # Separable box dilation: output o is active when its patch
    # padded[o : o + k] (along each axis) holds an occupied voxel.
    active = padded
    for axis, n in enumerate(out_dims, start=1):
        lead = (slice(None),) * axis
        dilated = active[lead + (slice(0, n),)].copy()
        for a in range(1, k):
            dilated |= active[lead + (slice(a, a + n),)]
        active = dilated
    index = np.flatnonzero(active)
    if index.size > _BINARY_MAX_ACTIVE * active.size:
        return None

    sample, position = np.divmod(index, active[0].size)
    i, j, l = np.unravel_index(position, out_dims)
    px, py, pz = padded.shape[1:]
    corner = ((sample * px + i) * py + j) * pz + l  # flat index of tap (0, 0, 0)
    r = np.arange(k)
    offsets = ((r[:, None, None] * py + r[None, :, None]) * pz + r[None, None, :]).ravel()
    # (k^3, n_active): the patch-matrix rows at the active positions.
    patches = padded.ravel()[offsets[:, None] + corner].astype(x.dtype)
    acc = np.zeros((w_mat.shape[0], index.size), dtype=x.dtype)
    product = np.empty_like(acc)
    for w_col, patch in zip(w_mat.T, patches):
        np.multiply(w_col[:, None], patch, out=product)
        acc += product
    acc += b[:, None]

    y = np.empty((batch, w_mat.shape[0]) + tuple(out_dims), dtype=x.dtype)
    # 0 + b, as the GEMM path computes it: a -0.0 bias gives +0.0.
    y[...] = (b + 0)[:, None, None, None]
    # Advanced indices on either side of the slice: the view takes
    # (n_active, c_out) values in place.
    y.reshape(batch, w_mat.shape[0], -1)[sample, :, position] = acc.T
    return y


def _as_float(arr, like=None) -> np.ndarray:
    """float64 by default; float32 inputs stay float32 (training precision)."""
    if like is not None:
        return np.asarray(arr, dtype=like.dtype)
    arr = np.asarray(arr)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


def conv3d_forward(x, w, b, stride: int = 1, padding: int = 1):
    """3D cross-correlation: x (B,Cin,X,Y,Z), w (Cout,Cin,k,k,k), b (Cout,).

    A one-channel input holding only 0 and 1, at stride 1 and padding
    k // 2, takes the sparse path of ``_correlate_binary`` when at most
    ``_BINARY_MAX_ACTIVE`` (15%) of the output positions lie in the k^3
    box dilation of its occupied voxels. Each active position then starts
    from 0 and adds its k^3 exact products w * 0 or w * 1 in patch-matrix
    row order (a, b, c), and then the bias; every other position is 0 + bias.
    That is the GEMM's own summation order for a K = k^3 dot product on the
    BLAS this was measured with, so the output is bit-identical to the
    dense path; ``tests/test_layers.py::TestBinaryConv`` asserts it. A
    compact GEMM over the active columns would not be: BLAS picks another
    kernel at small N and differed by 1 ulp in float64. The cache is the
    same on both paths.
    """
    x = _as_float(x)
    w = _as_float(w, like=x)
    b = _as_float(b, like=x)
    _require(x.ndim == 5 and w.ndim == 5, "conv3d expects 5D input and kernel")
    c_in = x.shape[1]
    c_out, kc_in, k = w.shape[0], w.shape[1], w.shape[2]
    _require(w.shape[2:] == (k, k, k), "conv3d kernel must be cubic")
    _require(kc_in == c_in, f"kernel expects {kc_in} input channels, got {c_in}")
    _require(b.shape == (c_out,), "bias shape must be (c_out,)")
    out_dims = _conv_out_dims(x.shape[2:], k, stride, padding)

    w_mat = np.ascontiguousarray(w.reshape(c_out, -1))
    y = _correlate_binary(x, w_mat, b, k, stride, padding, out_dims)
    if y is None:
        y = _correlate(_pad_spatial(x, padding), w_mat, k, stride, out_dims)
        y += b[:, None, None, None]
    return y, (x, w, stride, padding)


def conv3d_backward(grad_y, cache, need_input_grad: bool = True):
    """Gradients w.r.t. input, kernel and bias of conv3d_forward.

    ``need_input_grad=False`` skips the input gradient (None in its slot),
    which the network uses for its first block.
    """
    x, w, stride, padding = cache
    grad_y = _as_float(grad_y, like=x)
    batch, c_in = x.shape[:2]
    c_out, k = w.shape[0], w.shape[2]
    out_dims = grad_y.shape[2:]
    n_positions = int(np.prod(out_dims))

    grad_b = grad_y.sum(axis=(0, 2, 3, 4))

    x_pad = _pad_spatial(x, padding)
    grad_w_mat = np.zeros((c_out, c_in * k**3), dtype=x.dtype)
    grad_flat = grad_y.reshape(batch, c_out, n_positions)
    per_sample = c_in * k**3 * n_positions * x_pad.itemsize
    chunk = max(1, _COL_BUDGET // max(per_sample, 1))
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        col = _im2col(x_pad[lo:hi], k, stride, out_dims)
        # (Cout, Cin*k^3) <- sum over batch and positions; the transposed
        # view maps straight onto GEMM strides, no copy.
        grad_w_mat += np.matmul(grad_flat[lo:hi], col.transpose(0, 2, 1)).sum(axis=0)
    grad_w = grad_w_mat.reshape(w.shape)

    if not need_input_grad:
        return None, grad_w, grad_b

    # Input gradient by col2im: per chunk, one GEMM lifts the upstream
    # gradient onto patch space, then k^3 slice-adds scatter it back onto
    # the padded input (the exact adjoint of _im2col, any stride).
    ox, oy, oz = out_dims
    grad_x_pad = np.zeros_like(x_pad)
    w_t = np.ascontiguousarray(w.reshape(c_out, -1).T)  # (Cin*k^3, Cout)
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        col_grad = np.matmul(w_t, grad_flat[lo:hi])
        col_view = col_grad.reshape(hi - lo, c_in, k, k, k, ox, oy, oz)
        for a in range(k):
            for b_ in range(k):
                for c in range(k):
                    grad_x_pad[
                        lo:hi,
                        :,
                        a : a + (ox - 1) * stride + 1 : stride,
                        b_ : b_ + (oy - 1) * stride + 1 : stride,
                        c : c + (oz - 1) * stride + 1 : stride,
                    ] += col_view[:, :, a, b_, c]
    if padding:
        p = padding
        grad_x = np.ascontiguousarray(grad_x_pad[:, :, p:-p, p:-p, p:-p])
    else:
        grad_x = grad_x_pad
    return grad_x, grad_w, grad_b


def leaky_relu_forward(x, slope: float = 0.01):
    x = _as_float(x)
    positive = x > 0
    # For slope <= 1, leaky ReLU is max(x, slope*x).
    y = x * x.dtype.type(slope)
    np.maximum(y, x, out=y)
    return y, (positive, slope)


def leaky_relu_backward(grad_y, cache):
    positive, slope = cache
    grad_y = np.asarray(grad_y)
    out = grad_y * grad_y.dtype.type(slope)
    np.copyto(out, grad_y, where=positive)
    return out


def _window_views(x: np.ndarray, window: int) -> list[np.ndarray]:
    """The window^3 strided views of x, one per in-window offset (a, b, c),
    in (x, y, z) window order: view[i, j, l] is x[i*window+a, j*window+b, l*window+c]."""
    offsets = range(window)
    return [x[:, :, a::window, b::window, c::window]
            for a in offsets for b in offsets for c in offsets]


def maxpool3d_forward(x, window: int = 2):
    """Non-overlapping max pooling; spatial dims must divide the window.

    The output is three passes of ``np.maximum`` over the window's strided
    views along z, then y, then x, each pass shrinking one axis; maximum
    does not depend on the order, so this equals a running maximum over
    the window^3 offsets. It keeps x's dtype, and a NaN anywhere in a
    window makes that window's output NaN. The cache holds the output and
    x itself, not an argmax index: the backward finds each window's first
    maximum, in (x, y, z) window order, from them. So the eval-mode
    network, which drops every cache, does no index work when it pools
    each conv output before leaky ReLU and batchnorm (exact, because both
    are monotone per channel; see ``network.rnet_forward``).
    """
    x = _as_float(x)
    dx, dy, dz = x.shape[2:]
    _require(
        dx % window == 0 and dy % window == 0 and dz % window == 0,
        f"dims {(dx, dy, dz)} not divisible by pool window {window}",
    )
    y = x
    for axis in (4, 3, 2):
        lead = (slice(None),) * axis
        views = [y[lead + (slice(a, None, window),)] for a in range(window)]
        # max(first, last) is a new array for every window, 1 included.
        y = np.maximum(views[0], views[-1])
        for view in views[1:-1]:
            np.maximum(y, view, out=y)
    return y, (y, x, window)


def maxpool3d_backward(grad_y, cache):
    """Route each window's gradient to its first maximum.

    Ties go to the first offset in (x, y, z) window order, the offset
    ``argmax`` over the flattened window would pick; background voxels tie
    in every block-0 window, so this rule decides where their gradients go.
    A window whose output is NaN passes no gradient.
    """
    y, x, window = cache
    grad_y = np.asarray(grad_y)
    grad_x = np.zeros(x.shape, dtype=grad_y.dtype)
    free = np.ones(y.shape, dtype=bool)  # windows whose maximum is not yet found
    for x_view, grad_view in zip(_window_views(x, window), _window_views(grad_x, window)):
        hit = x_view == y
        hit &= free
        np.copyto(grad_view, grad_y, where=hit)
        free ^= hit
    return grad_x


def batchnorm3d_forward(x, gamma, beta, running_mean, running_var, eps=1e-5, momentum=0.1, training=True):
    """Per-channel batch normalization over (batch, x, y, z).

    Training mode normalizes by batch statistics (population variance) and
    returns updated running statistics; eval mode normalizes by the running
    statistics and returns them unchanged. Only a training-mode cache feeds
    ``batchnorm3d_backward``: eval mode has no backward.
    """
    x = _as_float(x)
    channels = x.shape[1]
    for name, arr in (("gamma", gamma), ("beta", beta),
                      ("running_mean", running_mean), ("running_var", running_var)):
        _require(np.shape(arr) == (channels,), f"{name} must have shape ({channels},)")
    gamma = _as_float(gamma, like=x)
    beta = _as_float(beta, like=x)
    running_mean = _as_float(running_mean, like=x)
    running_var = _as_float(running_var, like=x)
    axes = (0, 2, 3, 4)
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        new_mean = (1.0 - momentum) * running_mean + momentum * mean
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = np.subtract(x, mean[:, None, None, None])
    x_hat *= inv_std[:, None, None, None]
    y = x_hat * gamma[:, None, None, None]
    y += beta[:, None, None, None]
    return y, (x_hat, inv_std, gamma), new_mean, new_var


def batchnorm3d_backward(grad_y, cache):
    """Gradients w.r.t. input, gamma and beta of a training-mode forward."""
    x_hat, inv_std, gamma = cache
    grad_y = _as_float(grad_y, like=x_hat)
    axes = (0, 2, 3, 4)
    # Channel reductions via einsum avoid materializing the products.
    grad_gamma = np.einsum("bcxyz,bcxyz->c", grad_y, x_hat, optimize=True)
    grad_beta = grad_y.sum(axis=axes)
    grad_hat = grad_y * gamma[:, None, None, None]
    n = grad_y.size // grad_y.shape[1]
    sum_gh = grad_hat.sum(axis=axes)
    sum_ghx = np.einsum("bcxyz,bcxyz->c", grad_hat, x_hat, optimize=True)
    grad_x = grad_hat  # owned temporary, reused in place
    grad_x *= n
    grad_x -= sum_gh[:, None, None, None]
    grad_x -= x_hat * sum_ghx[:, None, None, None]
    grad_x *= (inv_std / n)[:, None, None, None]
    return grad_x, grad_gamma, grad_beta


def dense_forward(x, w, b):
    x = _as_float(x)
    w = _as_float(w, like=x)
    b = _as_float(b, like=x)
    _require(x.ndim == 2 and w.ndim == 2, "dense expects 2D input and weight")
    _require(x.shape[1] == w.shape[0], f"dense: {x.shape[1]} features vs weight {w.shape[0]}")
    _require(np.shape(b) == (w.shape[1],), "dense bias shape mismatch")
    return x @ w + b, (x, w)


def dense_backward(grad_y, cache):
    x, w = cache
    grad_y = _as_float(grad_y, like=x)
    return grad_y @ w.T, x.T @ grad_y, grad_y.sum(axis=0)


def loss_mse(pred, target):
    """Mean squared error and its gradient w.r.t. the predictions."""
    pred = _as_float(pred)
    target = _as_float(target, like=pred)
    if pred.shape != target.shape:
        raise LengthMismatch(f"prediction shape {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff**2)), 2.0 * diff / diff.size
