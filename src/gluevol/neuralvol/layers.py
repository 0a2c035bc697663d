"""Tensor layers with exact forward and backward passes in numpy.

Tensors are (batch, channels, x, y, z) C-order arrays, float32 in training
and float64 elsewhere: every layer keeps the dtype of its input. Every
forward returns (output, cache); the matching backward consumes the
upstream gradient plus the cache and returns gradients for its inputs and
parameters. The layers carry RNet's fixed settings, one constant each: a
stride-1 conv padded by k // 2 (a "same" conv for its odd kernel edge k),
leaky ReLU with slope ``SLOPE``, batchnorm with ``BN_EPS`` and
``BN_MOMENTUM``, and a ``POOL``^3 max-pool.

3D convolution is cross-correlation lowered to GEMM, cache-blocked in the
manner of Goto & van de Geijn: the forward gathers patches by k^3 slice
copies into one ``_TILE_BYTES`` (1 MB) patch-matrix tile at a time,
several whole samples or a slab of x-planes of one sample, and runs its
GEMM while the tile is still in L2. The weight gradient builds one
sample's patch matrix at a time; the input gradient needs none (see
``conv3d_backward``). Every output element is the same dot product as in
one GEMM per sample, so on the network's shapes tiling changes no bits
on the BLAS these layers were measured with
(``tests/test_layers.py::TestDenseConvBits``). Each
call allocates its own buffers, so the layer functions keep no state
between calls.

The network's first block reads binary height-field grids, under 1%
occupied. Such one-channel 0/1 inputs take an exact sparse path (see
``conv3d_forward``): only output positions next to an occupied voxel are
computed, each from exact products w * 0 or w * 1 summed in the GEMM's own
order, so the output is bit-identical. That order is an assumption about
the BLAS, which ``tests/test_layers.py::TestBinaryConv`` checks against the
GEMM. When more than ``_BINARY_MAX_ACTIVE`` of the positions are active,
the dense GEMM is faster and runs instead.

The sparse path's output is a ``Windowed`` tensor: per sample, the values
of the pool windows that touch an active position, plus one background
value per channel (0 + bias) for every other position. Leaky ReLU,
batchnorm and max-pool take that form forward and backward, so on tiny
height-field grids they touch about an eighth of the positions of the
full-resolution tensor; max-pool returns a dense pooled tensor, so the
next block is unchanged.
Per element the arithmetic is that of the dense layers. The batchnorm
statistics and the gradients of batchnorm and of the conv weights and bias
are sums in another order, so they agree with the dense path to float
rounding (``tests/test_layers.py::TestWindowed``), not bit for bit.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """Tensor dimensions incompatible with the layer parameters."""


class LengthMismatch(ValueError):
    """Prediction/target vectors of different lengths."""


POOL = 2  # max-pool window edge
SLOPE = 0.01  # leaky ReLU slope below zero
BN_EPS = 1e-5  # added to the variance before its square root
BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones

# Upper bound on one forward patch-matrix tile (bytes), about half of a
# 2 MB per-core L2, so the GEMM reads the tile from cache right after
# im2col writes it.
_TILE_BYTES = 1024 * 1024

# The conv weight gradient adds its per-sample terms in groups of as many
# samples as this many bytes of patch matrix hold, which fixes its bits.
_COL_BUDGET = 96 * 1024 * 1024

# Largest share of output positions that may be active for a binary input
# to take the sparse conv path. The sparse path costs about linear time in
# the active positions and breaks even with the dense GEMM at 16-18%
# active (32x32x64 grids, 8 output channels, one BLAS thread: float64 and
# float32 at batch 1, float32 at batch 32); tiny height-field grids are
# about 5% active.
_BINARY_MAX_ACTIVE = 0.15

# Active positions per step of the sparse binary path, so its (k^3, n)
# patch rows and (c_out, n) sums stay in cache. On tiny grids at float32
# the unchunked path took 81.5 ms at batch 32 against 17.5 ms at batch 8;
# chunked, 70.6 ms. A batch-1 tiny grid (3-4 k active positions) is one
# step.
_BINARY_CHUNK = 8192


class Windowed(np.ndarray):
    """A full-resolution first-block tensor held on its active pool windows.

    The array is (batch, channels, POOL^3, W): for each sample, the
    values of W windows of the pooled grid, ``windows[sample]`` (flat
    indices into it, ascending), by in-window offset in (x, y, z) order, so
    that each offset is one contiguous run per channel. A sample with fewer
    active windows than W carries some of its background windows too. Every
    other position of the (batch, channels) + ``dims`` tensor is
    background, one number per channel: in a forward pass ``background`` is
    the value there; in a backward pass it is the sum of the gradient over
    all those positions, which is all the layers before need of it.
    Arithmetic on the array returns arrays without this metadata; the
    layers read the values with ``np.asarray`` and wrap their results with
    ``like``.
    """

    background = windows = dims = None

    def like(self, values, background) -> "Windowed":
        """``values`` on the same windows, with the given background."""
        return _windowed(values, background, self.windows, self.dims)

    @property
    def background_count(self) -> int:
        """Background positions per channel over the whole batch."""
        return self.shape[0] * (int(np.prod(self.dims)) - self.shape[2] * self.shape[3])

    def index(self, sample, i, j, l) -> np.ndarray:
        """Index into one sample's flattened (POOL^3, W) values of each
        full-resolution position (i, j, l) of the given samples (arrays
        that broadcast together); -1 where that window is not carried."""
        w, n = POOL, self.shape[3]
        pooled = [d // w for d in self.dims]
        slot = np.full((self.shape[0], int(np.prod(pooled))), -1, dtype=np.intp)
        np.put_along_axis(slot, self.windows, np.arange(n)[None, :], axis=1)
        window = slot[sample, ((i // w) * pooled[1] + j // w) * pooled[2] + l // w]
        offset = ((i % w) * w + j % w) * w + l % w
        return np.where(window < 0, -1, offset * n + window)


def _windowed(values, background, windows, dims) -> Windowed:
    out = np.asarray(values).view(Windowed)
    out.background, out.windows, out.dims = background, windows, dims
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeMismatch(message)


def _pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    width = ((0, 0), (0, 0)) + ((padding, padding),) * 3
    return np.pad(x, width)


def _im2col(x_pad: np.ndarray, k: int) -> np.ndarray:
    """(B, Cin*k^3, n_positions) patch matrix of every k^3 patch of x_pad."""
    batch, c_in = x_pad.shape[:2]
    ox, oy, oz = (d - k + 1 for d in x_pad.shape[2:])
    col = np.empty((batch, c_in, k, k, k, ox, oy, oz), dtype=x_pad.dtype)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                col[:, :, a, b, c] = x_pad[:, :, a : a + ox, b : b + oy, c : c + oz]
    return col.reshape(batch, c_in * k**3, ox * oy * oz)


def _correlate(x_pad: np.ndarray, w_mat: np.ndarray, k: int):
    """GEMM correlation of padded input with a (Cout, Cin*k^3) kernel, one
    ``_TILE_BYTES`` patch-matrix tile at a time: several whole samples, or
    a slab of x-planes of one sample, each GEMM written into its slice of y."""
    batch = x_pad.shape[0]
    c_out = w_mat.shape[0]
    out_dims = tuple(d - k + 1 for d in x_pad.shape[2:])
    ox, oy, oz = out_dims
    plane = w_mat.shape[1] * oy * oz * x_pad.itemsize  # patch bytes per x-plane
    planes = min(ox, max(1, _TILE_BYTES // max(plane, 1)))
    samples = max(1, _TILE_BYTES // max(plane * ox, 1))
    y = np.empty((batch, c_out) + out_dims, dtype=x_pad.dtype)
    flat = y.reshape(batch, c_out, ox * oy * oz)
    for lo in range(0, batch, samples):
        hi = min(lo + samples, batch)
        for i in range(0, ox, planes):
            n = min(planes, ox - i)
            col = _im2col(x_pad[lo:hi, :, i : i + n + k - 1], k)
            np.matmul(w_mat, col, out=flat[lo:hi, :, i * oy * oz : (i + n) * oy * oz])
    return y


def _binary_active(x, k: int):
    """(padded occupancy, active output positions) of a one-channel 0/1 input.

    Returns None, for the dense GEMM to run, unless x has one channel, dims
    that ``POOL`` divides and only 0 and 1 values, and at most
    ``_BINARY_MAX_ACTIVE`` of the output positions are active.
    """
    if x.shape[1] != 1 or any(d % POOL for d in x.shape[2:]):
        return None
    occupied = x[:, 0] != 0
    if not np.all(x[:, 0][occupied] == 1):
        return None
    batch, p = x.shape[0], k // 2
    dx, dy, dz = x.shape[2:]
    padded = np.zeros((batch, dx + 2 * p, dy + 2 * p, dz + 2 * p), dtype=bool)
    padded[:, p : p + dx, p : p + dy, p : p + dz] = occupied
    # Separable box dilation: output o is active when its patch
    # padded[o : o + k] (along each axis) holds an occupied voxel.
    active = padded
    for axis, n in enumerate(x.shape[2:], start=1):
        lead = (slice(None),) * axis
        dilated = active[lead + (slice(0, n),)].copy()
        for a in range(1, k):
            dilated |= active[lead + (slice(a, a + n),)]
        active = dilated
    if np.count_nonzero(active) > _BINARY_MAX_ACTIVE * active.size:
        return None
    return padded, active


def _tap_offsets(k: int, py: int, pz: int) -> np.ndarray:
    """Flat offset of each tap (a, b, c), in that order, in a grid of
    (y, z) extent (py, pz)."""
    r = np.arange(k)
    return ((r[:, None, None] * py + r[None, :, None]) * pz + r[None, None, :]).ravel()


def _correlate_binary(x, w_mat, b, k: int):
    """Exact sparse correlation plus bias of a one-channel 0/1 input.

    None where ``_binary_active`` is. Otherwise a ``Windowed`` on each
    sample's pool windows that touch one of its active positions, padded
    with its first background windows to the batch's largest count.
    """
    found = _binary_active(x, k)
    if found is None:
        return None
    padded, active = found
    batch, c_out, dims = x.shape[0], w_mat.shape[0], x.shape[2:]
    # 0 + b, as the GEMM path computes it: a -0.0 bias gives +0.0.
    fill = b + 0
    sample, position = np.divmod(np.flatnonzero(active), active[0].size)
    i, j, l = np.unravel_index(position, dims)
    px, py, pz = padded.shape[1:]
    corner = ((sample * px + i) * py + j) * pz + l  # flat index of tap (0, 0, 0)
    views = _window_views(active[:, None])
    touched = views[0] | views[1]
    for view in views[2:]:
        touched |= view
    touched = touched.reshape(batch, -1)
    # Each sample's touched windows, then its untouched ones, ascending.
    order = np.argsort(~touched, axis=1, kind="stable")
    windows = np.sort(order[:, : touched.sum(axis=1).max()], axis=1)
    y = _windowed(np.empty((batch, c_out, POOL**3, windows.shape[1]), dtype=x.dtype),
                  fill, windows, dims)
    position = y.index(sample, i, j, l)
    flat = np.asarray(y).reshape(batch, c_out, -1)
    flat[...] = fill[:, None]

    offsets = _tap_offsets(k, py, pz)
    for lo in range(0, sample.size, _BINARY_CHUNK):
        step = slice(lo, lo + _BINARY_CHUNK)
        # (k^3, n): the patch-matrix rows at these active positions.
        patches = padded.ravel()[offsets[:, None] + corner[step]].astype(x.dtype)
        acc = np.zeros((c_out, patches.shape[1]), dtype=x.dtype)
        product = np.empty_like(acc)
        for w_col, patch in zip(w_mat.T, patches):
            np.multiply(w_col[:, None], patch, out=product)
            acc += product
        acc += b[:, None]
        # Advanced indices on either side of the slice: the view takes
        # (n, c_out) values in place.
        flat[sample[step], :, position[step]] = acc.T
    return y


def _binary_weight_grad(grad_y: Windowed, x, k: int) -> np.ndarray:
    """Weight gradient of the conv of a one-channel 0/1 input.

    Tap t of the kernel sees input o - k // 2 + t at output o, so its
    gradient is the sum of grad_y at (v + k // 2 - t) over the occupied
    voxels v (inside the output grid). Those positions are active, so they
    lie in grad_y's windows. Each tap sums its gathered values over the
    voxels in (sample, x, y, z) order, pairwise as ``np.sum`` adds.
    """
    g = np.asarray(grad_y)
    batch, c_out = g.shape[:2]
    per_sample = g.shape[2] * g.shape[3]
    # (c_out, batch, per_sample + 1): each channel's gradients in one row,
    # with a zero after each sample for the taps that fall off the grid.
    rows = np.zeros((c_out, batch, per_sample + 1), dtype=g.dtype)
    rows[:, :, :per_sample] = g.reshape(batch, c_out, per_sample).transpose(1, 0, 2)
    dims = grad_y.dims
    sample, voxel = np.divmod(np.flatnonzero(x[:, 0] != 0), int(np.prod(dims)))
    shift = k // 2 - np.arange(k)[:, None]
    # (k, n) output coordinates per axis, and whether they are on the grid
    coords = [v + shift for v in np.unravel_index(voxel, dims)]
    on_grid = [(c >= 0) & (c < d) for c, d in zip(coords, dims)]
    i, j, l = (np.clip(c, 0, d - 1) for c, d in zip(coords, dims))
    inside = on_grid[0][:, None, None] & on_grid[1][None, :, None] & on_grid[2][None, None, :]
    slot = grad_y.index(sample, i[:, None, None], j[None, :, None], l[None, None, :])
    slot[~inside] = per_sample  # (k, k, k, n)
    gathered = np.take(rows.reshape(c_out, -1), sample * (per_sample + 1) + slot, axis=1)
    return gathered.sum(axis=-1).reshape(c_out, 1, k, k, k)


def _as_float(arr, like=None) -> np.ndarray:
    """float64 by default; float32 inputs stay float32 (training precision)."""
    if like is not None:
        return np.asarray(arr, dtype=like.dtype)
    arr = np.asarray(arr)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


def conv3d_forward(x, w, b):
    """3D cross-correlation: x (B,Cin,X,Y,Z), w (Cout,Cin,k,k,k), b (Cout,).

    Stride 1 and padding k // 2 for an odd k, so the output keeps x's dims.
    A one-channel input holding only 0 and 1, with dims that ``POOL``
    divides, takes the sparse path of ``_correlate_binary`` when at most
    ``_BINARY_MAX_ACTIVE`` (15%) of the output positions lie in the k^3
    box dilation of its occupied voxels. Each active position then starts
    from 0 and adds its k^3 exact products w * 0 or w * 1 in patch-matrix
    row order (a, b, c), and then the bias; every other position is 0 + bias.
    That is the GEMM's own summation order for a K = k^3 dot product on the
    BLAS this was measured with, so the output is bit-identical to the
    dense path; ``tests/test_layers.py::TestBinaryConv`` asserts it. A
    compact GEMM over the active columns would not be: BLAS picks another
    kernel at small N and differed by 1 ulp in float64. The active
    positions are processed ``_BINARY_CHUNK`` at a time, which changes no
    sum.

    The sparse path returns a ``Windowed``: per sample, the pool windows
    that touch its active positions, holding those values and 0 + bias,
    and 0 + bias as the background. Every other input returns the dense
    array. The cache is the same on both paths.
    """
    x = _as_float(x)
    w = _as_float(w, like=x)
    b = _as_float(b, like=x)
    _require(x.ndim == 5 and w.ndim == 5, "conv3d expects 5D input and kernel")
    c_in = x.shape[1]
    c_out, kc_in, k = w.shape[0], w.shape[1], w.shape[2]
    _require(w.shape[2:] == (k, k, k) and k % 2 == 1, "conv3d kernel must be cubic, odd-edged")
    _require(kc_in == c_in, f"kernel expects {kc_in} input channels, got {c_in}")
    _require(b.shape == (c_out,), "bias shape must be (c_out,)")

    w_mat = np.ascontiguousarray(w.reshape(c_out, -1))
    y = _correlate_binary(x, w_mat, b, k)
    if y is None:
        y = _correlate(_pad_spatial(x, k // 2), w_mat, k)
        y += b[:, None, None, None]
    # Four entries, as perfbench/spans.py unpacks them.
    return y, (x, w, None, None)


def conv3d_backward(grad_y, cache, need_input_grad: bool = True):
    """Gradients w.r.t. input, kernel and bias of conv3d_forward.

    ``need_input_grad=False`` skips the input gradient (None in its slot),
    which the network uses for its first block.

    The dense weight gradient builds one sample's (Cin*k^3, positions)
    patch matrix at a time and adds its GEMM ``col @ grad_y.T`` to the
    others in order within each ``_COL_BUDGET`` group of samples, then
    group by group. The input gradient builds no patch matrix: each
    sample's grad_y sits in a zero frame whose rows have the padded input's
    (y, z) width, so in flat padded coordinates every output's tap (a, b, c)
    is the same offset. One GEMM ``W^T @ frame`` lifts the frame onto patch
    space, and k^3 contiguous adds, in (a, b, c) order, scatter it back;
    the frame's zeros add exactly, because the conv's stride is 1.

    All three gradients are bit-identical to an im2col GEMM per batch chunk
    and a col2im of k^3 strided slice-adds (the oracle of the test below).
    That rests on a property of the BLAS:
    a GEMM element's sum over K is the same for any N that is a multiple of
    16 and for either orientation. It held on the single-thread OpenBLAS
    these were measured with, and ``tests/test_layers.py::TestDenseConvBits``
    asserts it.

    A ``Windowed`` gradient (from a binary input's training forward, which
    only the first block sees) gives no input gradient. Its weight gradient
    gathers, for each tap, the gradient at every occupied voxel minus that
    tap (see ``_binary_weight_grad``) instead of a GEMM over every
    position, and its bias gradient is the sum over the windows plus the
    background's sum. Both sum in another order than the dense path, so
    they agree with it to float rounding.
    """
    x, w, _, _ = cache
    if isinstance(grad_y, Windowed):
        grad_b = np.asarray(grad_y).sum(axis=(0, 2, 3)) + grad_y.background
        return None, _binary_weight_grad(grad_y, x, w.shape[2]), grad_b
    grad_y = _as_float(grad_y, like=x)
    batch, c_in = x.shape[:2]
    c_out, k = w.shape[0], w.shape[2]
    out_dims = grad_y.shape[2:]
    grad_flat = grad_y.reshape(batch, c_out, -1)
    grad_b = grad_y.sum(axis=(0, 2, 3, 4))

    # (Cin*k^3, Cout) <- sum over samples and positions
    p = k // 2
    x_pad = _pad_spatial(x, p)
    grad_w_t = np.zeros((c_in * k**3, c_out), dtype=x.dtype)
    group = max(1, _COL_BUDGET // (c_in * k**3 * grad_flat.shape[2] * x.itemsize))
    for lo in range(0, batch, group):
        part = np.zeros_like(grad_w_t)
        for s in range(lo, min(lo + group, batch)):
            part += _im2col(x_pad[s : s + 1], k)[0] @ grad_flat[s].T
        grad_w_t += part
    grad_w = np.ascontiguousarray(grad_w_t.T).reshape(w.shape)

    if not need_input_grad:
        return None, grad_w, grad_b

    # Input gradient by the flat frame. Its GEMM runs through the last
    # output position, rounded up to a multiple of 16 columns: OpenBLAS sums
    # the last N mod 8 columns of a float64 GEMM in another order.
    ox, oy, oz = out_dims
    px, py, pz = x_pad.shape[2:]
    offsets = _tap_offsets(k, py, pz)
    n = -(-(px * py * pz - offsets[-1]) // 16) * 16
    grad_x_flat = np.zeros((batch, c_in, n + offsets[-1]), dtype=x.dtype)
    frame = np.zeros((c_out, max(n, ox * py * pz)), dtype=x.dtype)
    framed = frame[:, : ox * py * pz].reshape(c_out, ox, py, pz)[:, :, :oy, :oz]
    w_t = np.ascontiguousarray(w.reshape(c_out, -1).T)  # (Cin*k^3, Cout)
    for s in range(batch):
        framed[...] = grad_y[s]
        col_grad = (w_t @ frame[:, :n]).reshape(c_in, k**3, n)
        for tap, offset in enumerate(offsets):
            grad_x_flat[s, :, offset : offset + n] += col_grad[:, tap]
    grad_x_pad = grad_x_flat[:, :, : px * py * pz].reshape(x_pad.shape)
    grad_x = np.ascontiguousarray(grad_x_pad[:, :, p : px - p, p : py - p, p : pz - p])
    return grad_x, grad_w, grad_b


def _leaky_relu(x):
    positive = x > 0
    # For a slope <= 1, leaky ReLU is max(x, slope*x).
    y = x * x.dtype.type(SLOPE)
    np.maximum(y, x, out=y)
    return y, positive


def _leaky_relu_grad(grad_y, positive):
    # grad * 1 is grad exactly; a product is faster than a masked copy.
    one, slope = grad_y.dtype.type(1), grad_y.dtype.type(SLOPE)
    return grad_y * np.where(positive, one, slope)


def leaky_relu_forward(x):
    """Elementwise; a ``Windowed`` input also maps its background."""
    y, positive = _leaky_relu(_as_float(x))
    if isinstance(x, Windowed):
        y_bg, positive_bg = _leaky_relu(x.background)
        y, positive = x.like(y, y_bg), x.like(positive, positive_bg)
    return y, (positive,)


def leaky_relu_backward(grad_y, cache):
    """A ``Windowed`` gradient's background sum scales by its channel's
    slope: every background position has the same sign."""
    (positive,) = cache
    out = _leaky_relu_grad(np.asarray(grad_y), np.asarray(positive))
    if isinstance(grad_y, Windowed):
        out = grad_y.like(out, _leaky_relu_grad(grad_y.background, positive.background))
    return out


def _window_views(x: np.ndarray) -> list[np.ndarray]:
    """The POOL^3 strided views of x, one per in-window offset (a, b, c),
    in (x, y, z) window order: view[i, j, l] is x[i*POOL+a, j*POOL+b, l*POOL+c]."""
    offsets = range(POOL)
    return [x[:, :, a::POOL, b::POOL, c::POOL]
            for a in offsets for b in offsets for c in offsets]


def maxpool3d_forward(x):
    """Non-overlapping ``POOL``^3 max pooling; ``POOL`` must divide the
    spatial dims.

    The output is three passes of ``np.maximum`` over the window's strided
    views along z, then y, then x, each pass shrinking one axis; maximum
    does not depend on the order, so this equals a running maximum over
    the POOL^3 offsets. It keeps x's dtype, and a NaN anywhere in a
    window makes that window's output NaN. The cache holds the output and
    x itself, not an argmax index: the backward finds each window's first
    maximum, in (x, y, z) window order, from them. So the eval-mode
    network, which drops every cache, does no index work when it pools
    each conv output before leaky ReLU and batchnorm (exact, because both
    are monotone per channel; see ``network.rnet_forward``).

    A ``Windowed`` input takes a running maximum over its window offsets
    and gives every other window its background value, in a dense output;
    the cache then holds the (batch, channels, W) window maxima.
    """
    if isinstance(x, Windowed):
        offsets = np.asarray(x).transpose(2, 0, 1, 3)
        peaks = np.maximum(offsets[0], offsets[1])
        for view in offsets[2:]:
            np.maximum(peaks, view, out=peaks)
        y = np.empty(peaks.shape[:2] + tuple(d // POOL for d in x.dims), dtype=peaks.dtype)
        flat = y.reshape(peaks.shape[:2] + (-1,))
        flat[...] = x.background[:, None]
        np.put_along_axis(flat, x.windows[:, None, :], peaks, axis=2)
        return y, (peaks, x)
    x = _as_float(x)
    _require(not any(d % POOL for d in x.shape[2:]),
             f"dims {x.shape[2:]} not divisible by pool window {POOL}")
    y = x
    for axis in (4, 3, 2):
        lead = (slice(None),) * axis
        views = [y[lead + (slice(a, None, POOL),)] for a in range(POOL)]
        y = np.maximum(views[0], views[1])  # a new array
        for view in views[2:]:
            np.maximum(y, view, out=y)
    return y, (y, x)


def _route_to_first_max(grad_y, y, x_views, grad_views) -> None:
    free = np.ones(y.shape, dtype=bool)  # windows whose maximum is not yet found
    for x_view, grad_view in zip(x_views, grad_views):
        hit = x_view == y
        hit &= free
        np.copyto(grad_view, grad_y, where=hit)
        free ^= hit


def maxpool3d_backward(grad_y, cache):
    """Route each window's gradient to its first maximum.

    Ties go to the first offset in (x, y, z) window order, the offset
    ``argmax`` over the flattened window would pick; background voxels tie
    in every block-0 window, so this rule decides where their gradients go.
    A window whose output is NaN passes no gradient.

    For a ``Windowed`` input the rule is applied inside its windows. An
    all-background window that is not carried sends its gradient to its
    first offset, a background position, so the background's gradient sum
    is the sum of grad_y over all windows minus the carried ones.
    """
    y, x = cache
    grad_y = np.asarray(grad_y)
    if isinstance(x, Windowed):
        flat = grad_y.reshape(y.shape[:2] + (-1,))
        carried = np.take_along_axis(flat, x.windows[:, None, :], axis=2)
        grad_bg = flat.sum(axis=(0, 2)) - carried.sum(axis=(0, 2))
        grad_bg[np.isnan(x.background)] = 0
        grad_x = np.zeros(x.shape, dtype=grad_y.dtype)
        _route_to_first_max(carried, y, np.asarray(x).transpose(2, 0, 1, 3),
                            grad_x.transpose(2, 0, 1, 3))
        return x.like(grad_x, grad_bg)
    grad_x = np.zeros(x.shape, dtype=grad_y.dtype)
    _route_to_first_max(grad_y, y, _window_views(x), _window_views(grad_x))
    return grad_x


def _channels(v, ndim: int):
    """A per-channel vector shaped to broadcast along axis 1 of an ndim
    tensor (a 1-D background is already per channel)."""
    return v.reshape((-1,) + (1,) * max(ndim - 2, 0))


def _channel_dot(a, b):
    """Per-channel sum of a * b; einsum does not materialize the product."""
    subscripts = "bcxyz,bcxyz->c" if a.ndim == 5 else "bcow,bcow->c"
    return np.einsum(subscripts, a, b, optimize=True)


def _normalize(x, mean, inv_std, gamma, beta):
    """(gamma * x_hat + beta, x_hat), x_hat = (x - mean) * inv_std per channel."""
    x_hat = np.subtract(x, _channels(mean, x.ndim))
    x_hat *= _channels(inv_std, x.ndim)
    y = x_hat * _channels(gamma, x.ndim)
    y += _channels(beta, x.ndim)
    return y, x_hat


def batchnorm3d_forward(x, gamma, beta, running_mean, running_var, training: bool):
    """Per-channel batch normalization over (batch, x, y, z).

    Training mode normalizes by batch statistics (population variance) and
    returns updated running statistics; eval mode normalizes by the running
    statistics and returns them unchanged. Only a training-mode cache feeds
    ``batchnorm3d_backward``: eval mode has no backward.

    The statistics of a ``Windowed`` input count its background value once
    per background position: the mean adds count * value to the window sum,
    and the variance, taken about that mean (two passes, not
    E[x^2] - E[x]^2), adds count * (value - mean)^2. Window values and the
    background are then normalized alike, and the cached x_hat is
    ``Windowed`` too.
    """
    values = _as_float(x)
    channels = values.shape[1]
    for name, arr in (("gamma", gamma), ("beta", beta),
                      ("running_mean", running_mean), ("running_var", running_var)):
        _require(np.shape(arr) == (channels,), f"{name} must have shape ({channels},)")
    gamma = _as_float(gamma, like=values)
    beta = _as_float(beta, like=values)
    running_mean = _as_float(running_mean, like=values)
    running_var = _as_float(running_var, like=values)
    axes = (0,) + tuple(range(2, values.ndim))
    windowed = isinstance(x, Windowed)
    if training:
        if windowed:
            count, background = x.background_count, x.background
            n = values.size // channels + count
            mean = (values.sum(axis=axes) + count * background) / n
            deviation = values - _channels(mean, values.ndim)
            np.square(deviation, out=deviation)
            var = (deviation.sum(axis=axes) + count * (background - mean) ** 2) / n
        else:
            mean = values.mean(axis=axes)
            var = values.var(axis=axes)
        new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    y, x_hat = _normalize(values, mean, inv_std, gamma, beta)
    if windowed:
        y_bg, x_hat_bg = _normalize(x.background, mean, inv_std, gamma, beta)
        y, x_hat = x.like(y, y_bg), x.like(x_hat, x_hat_bg)
    return y, (x_hat, inv_std, gamma), new_mean, new_var


def batchnorm3d_backward(grad_y, cache):
    """Gradients w.r.t. input, gamma and beta of a training-mode forward.

    For a ``Windowed`` gradient the background adds its gradient sum G to
    the sums of g (beta's gradient) and of g * x_hat (gamma's), as G times
    the background's x_hat, and to the two sums of the input gradient
    likewise. The background's input-gradient sum then follows in closed
    form from G and the background count.
    """
    x_hat, inv_std, gamma = cache
    g = _as_float(grad_y, like=x_hat)
    xh = np.asarray(x_hat)
    axes = (0,) + tuple(range(2, g.ndim))
    grad_gamma = _channel_dot(g, xh)
    grad_beta = g.sum(axis=axes)
    grad_hat = g * _channels(gamma, g.ndim)
    n = g.size // g.shape[1]
    sum_gh = grad_hat.sum(axis=axes)
    sum_ghx = _channel_dot(grad_hat, xh)
    windowed = isinstance(grad_y, Windowed)
    if windowed:
        grad_bg, x_hat_bg, count = grad_y.background, x_hat.background, x_hat.background_count
        grad_gamma += grad_bg * x_hat_bg
        grad_beta += grad_bg
        sum_gh += gamma * grad_bg
        sum_ghx += gamma * grad_bg * x_hat_bg
        n += count
    grad_x = grad_hat  # owned temporary, reused in place
    grad_x *= n
    grad_x -= _channels(sum_gh, g.ndim)
    grad_x -= xh * _channels(sum_ghx, g.ndim)
    grad_x *= _channels(inv_std / n, g.ndim)
    if windowed:
        bg_sum = (n * gamma * grad_bg - count * (sum_gh + x_hat_bg * sum_ghx)) * (inv_std / n)
        grad_x = grad_y.like(grad_x, bg_sum)
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
