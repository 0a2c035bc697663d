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
manner of Goto & van de Geijn: the forward gathers patch columns with one
``np.take`` into a ``_TILE_BYTES`` (1 MB) tile at a time and runs its GEMM
while the tile is still in L2 (see ``_correlate``). Every output element is
the same dot product as in one im2col GEMM per sample, so on the network's
shapes tiling changes no bits on the BLAS these layers were measured with
(``tests/test_layers.py::TestDenseConvBits``). The backward builds no
patch matrix: one tiled gather of grad_y's k^3 tap rows at every input
position gives the input and weight gradients (see ``conv3d_backward``),
in another order than an im2col GEMM, so they agree with one to float
rounding. Each call allocates its own buffers, so the layer functions keep
no state between calls.

On height fields most of a conv input is one background value per
channel: block 0 reads binary grids, under 1% occupied, and block 1's input
keeps block 0's background wherever its windows held no voxel. Such an
input takes the background-class columns (see ``conv3d_forward``): an output
whose patch holds only background and padding has one of k^3 values per
channel, fixed by the grid faces it touches, so the GEMM computes those
k^3 patch columns and the columns of the positions near an off-background
one (about a twentieth of block 0 and a fifth of block 1 on tiny height
fields) and no others. Its GEMMs have the same N as a dense input's, so
each column is the same dot product and the output is bit-identical.
Every other input is the case of every position active, as in Graham's
active-site convolution (arXiv:1409.6070): a dense one, or one where more
than ``_BACKGROUND_MAX_ACTIVE`` (45%) of the positions need their own
column.

The background-class output is dense, or, for a binary grid at most
``_WINDOWED_MAX_ACTIVE`` active, a ``Windowed`` tensor: per sample, the
values of the pool windows that touch an active position, plus one
background value per channel for every other position. Leaky ReLU,
batchnorm and max-pool take that form forward and backward, so on tiny
height-field grids they touch about an eighth of the positions of the
full-resolution tensor; max-pool returns a dense pooled tensor, so the
next block's forward is unchanged. The next block's conv backward, told
those windows, runs a dense input's gather at them only and returns the
input gradient there plus one per-channel sum over the rest, which is all
the first block's max-pool backward reads (see ``conv3d_backward``).
Per element the forward arithmetic is that of the dense layers. The
batchnorm statistics, the gradients of batchnorm and of the first two
blocks' conv weights and bias, and the second block's input gradient are
sums in another order, so they agree with the dense path to float
rounding (``tests/test_layers.py::TestWindowed`` and
``TestCarriedBackward``), not bit for bit. Batchnorm's input gradient is
one per-channel affine of the gradient and x_hat on every form, whose
constants take the batch sums from gamma's and beta's gradients.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..util import LengthMismatch


class ShapeMismatch(ValueError):
    """Tensor dimensions incompatible with the layer parameters."""


POOL = 2  # max-pool window edge
SLOPE = 0.01  # leaky ReLU slope below zero
BN_EPS = 1e-5  # added to the variance before its square root
BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones

# Upper bound on one forward patch-matrix tile (bytes), about half of a
# 2 MB per-core L2, so the GEMM reads the tile from cache right after the
# gather writes it.
_TILE_BYTES = 1024 * 1024

# Largest share of output positions that may be active (in the k^3 box
# dilation of the positions off the background) for an input to take the
# background-class conv. Its time is about linear in the active positions.
# Against an im2col GEMM of every position (one BLAS thread) it broke even
# at 52% active on block 1's shape in float32 at batch 32, and at 60-65% in
# float64 at batch 1; on block 2's inputs from the 48 tiny-region scans it
# took 0.8 of the dense time below 45% active and 0.99-1.02 above 50%.
# There block 1 is 20% active (27% at most) and block 2 48% (30-65%).
_BACKGROUND_MAX_ACTIVE = 0.45

# Largest share of output positions that may be active for a binary input's
# background-class conv to return the ``Windowed`` form, whose windows the
# layers after the conv then carry instead of the whole grid. On block 0's
# shape (32x32x64, 8 channels, one BLAS thread) the Windowed form took 0.81
# of the dense form's time at 15% active and 0.97 at 26% for conv and
# max-pool in float64 at batch 1, and 0.40 and 0.64 for the training block
# forward and back in float32 at batch 32, so this cutoff is on the safe
# side. Tiny height-field grids are about 5% active.
_WINDOWED_MAX_ACTIVE = 0.15


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
    The second block's conv backward returns its input gradient, on the
    pooled grid, in this form with one position per window: (batch,
    channels, 1, W), and ``dims`` the pooled grid's.
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
        that broadcast together); -1 where that window is not carried.
        Raises ``ShapeMismatch`` on the pooled-grid form, whose windows
        hold one position each."""
        _require(self.shape[2] == POOL ** 3,
                 f"index needs POOL^3 = {POOL ** 3} offsets per window, got {self.shape[2]}")
        w, n = POOL, self.shape[3]
        pooled = [d // w for d in self.dims]
        slot = np.full((self.shape[0], int(np.prod(pooled))), -1, dtype=np.intp)
        np.put_along_axis(slot, self.windows, np.arange(n)[None, :], axis=1)
        (wi, oi), (wj, oj), (wl, ol) = (np.divmod(c, w) for c in (i, j, l))
        window = slot[sample, (wi * pooled[1] + wj) * pooled[2] + wl]
        return np.where(window < 0, -1, ((oi * w + oj) * w + ol) * n + window)


def _windowed(values, background, windows, dims) -> Windowed:
    out = np.asarray(values).view(Windowed)
    out.background, out.windows, out.dims = background, windows, dims
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeMismatch(message)


def _pad_spatial(x: np.ndarray, p: int) -> np.ndarray:
    """x in a frame of p zeros (or False) along its last three axes."""
    padded = np.zeros(x.shape[:-3] + tuple(d + 2 * p for d in x.shape[-3:]), dtype=x.dtype)
    padded[..., p : p + x.shape[-3], p : p + x.shape[-2], p : p + x.shape[-1]] = x
    return padded


def _dilate(padded, k: int) -> np.ndarray:
    """Separable k^3 box dilation of a mask framed by ``_pad_spatial``:
    output o is set when its patch padded[o : o + k] (along each axis)
    holds a set voxel."""
    active = padded
    for axis in (1, 2, 3):
        n = padded.shape[axis] - k + 1
        lead = (slice(None),) * axis
        dilated = active[lead + (slice(0, n),)].copy()
        for a in range(1, k):
            dilated |= active[lead + (slice(a, a + n),)]
        active = dilated
    return active


def _tap_offsets(k: int, py: int, pz: int) -> np.ndarray:
    """Flat offset of each tap (a, b, c), in that order, in a grid of
    (y, z) extent (py, pz)."""
    r = np.arange(k)
    return ((r[:, None, None] * py + r[None, :, None]) * pz + r[None, None, :]).ravel()


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


def _background_active(x, k: int):
    """(background, active output positions, windowed) of a mostly
    background input.

    The background is the commonest channel vector at the samples' last
    positions, the lowest bit pattern among equally common ones, so the
    order of the samples does not decide it. A position is off the
    background when any channel's bits differ from it, so -0.0 against
    +0.0, or another NaN payload, counts as off; an output position is
    active when its k^3 patch holds such a position.
    Returns None, for every position to be computed, for dims under k, and
    when more than ``_BACKGROUND_MAX_ACTIVE`` of the output positions are active.

    ``windowed`` tells a binary grid, whose output takes the ``Windowed``
    form: one channel of +0.0 background and 1.0 elsewhere, dims that
    ``POOL`` divides and at most ``_WINDOWED_MAX_ACTIVE`` of the output
    positions active.
    """
    if min(x.shape[2:]) < k:
        return None
    bits = x.view(np.dtype(f"u{x.itemsize}"))
    last = bits[:, :, -1, -1, -1]
    background = last[0]
    if (last != background).any():  # unique sorts; argmax takes the first
        patterns, counts = np.unique(last, axis=0, return_counts=True)
        background = patterns[np.argmax(counts)]
    off = np.any(bits != background[:, None, None, None], axis=1)
    limit = _BACKGROUND_MAX_ACTIVE * off.size
    if np.count_nonzero(off) > limit:  # the dilation can only grow
        return None
    active = _dilate(_pad_spatial(off, k // 2), k)
    count = np.count_nonzero(active)
    if count > limit:
        return None
    windowed = (x.shape[1] == 1 and not background.any() and not any(d % POOL for d in x.shape[2:])
                and count <= _WINDOWED_MAX_ACTIVE * off.size and np.all(x[:, 0][off] == 1))
    return background.view(x.dtype), active, windowed


def _correlate(x, w_mat, b, k: int):
    """Exact correlation plus bias of x with a (Cout, Cin*k^3) kernel, by
    GEMMs of the kernel with gathered patch columns.

    x is copied channel-first into a frame of k // 2 zeros. Its (batch, x,
    y, z) positions are one flat axis, in which tap (a, b, c) of every
    output o lies at a fixed offset from its tap (0, 0, 0), the corner
    padded[o]. One ``np.take`` of the k^3 offsets at n corners fills a
    (Cin, k^3, n) patch tile of at most ``_TILE_BYTES``, and one GEMM turns
    it into n output columns while the tile is still in L2.

    An input that ``_background_active`` finds mostly background gathers
    only the corners of its active positions and of k^3 class
    representatives. An inactive output's patch holds the background
    inside the grid and the zero padding outside it. Along each axis that
    depends only on whether the position is one of the first k // 2, the
    interior or one of the last k // 2: k^3 classes (27 for k = 3: the
    interior, 6 faces, 12 edges, 8 corners), each with one representative in
    a background sample appended to the frame. The output is dense, each
    inactive position holding its class's value, or, for a binary grid, a
    ``Windowed`` on each sample's pool windows that touch one of its active
    positions, padded with its first background windows to the batch's
    largest count. A binary grid's background and padding are both +0.0, so
    its classes share one patch column and one value, the ``Windowed``
    background.

    Every other input is the case of every position active and no class
    appended: each tile is one sample, or a slab of its x-planes, and its
    GEMM writes straight into the output.
    """
    batch, c_in, dims = x.shape[0], x.shape[1], x.shape[2:]
    c_out, patch = w_mat.shape
    ox, oy, oz = dims
    size = ox * oy * oz
    # A tile is as many x-planes of one sample as fit, at least one. A slab
    # that leaves planes over has a multiple of 16 // gcd(16, oy * oz)
    # planes where that many fit, so that N is a multiple of 16: the class
    # columns need GEMMs of one such N (see conv3d_forward). Where one tile
    # covers the batch, there is nothing for them to save.
    planes = min(ox, max(1, _TILE_BYTES // max(patch * oy * oz * x.itemsize, 1)))
    step = 16 // math.gcd(16, oy * oz)
    if step <= planes < ox:
        planes -= planes % step
    n = planes * oy * oz
    found = None if n % 16 or batch * size <= n else _background_active(x, k)
    p = k // 2
    ix, iy, iz = (slice(p, p + d) for d in dims)
    padded = np.zeros((c_in, batch + (found is not None)) + tuple(d + 2 * p for d in dims),
                      dtype=x.dtype)
    padded[:, :batch, ix, iy, iz] = x.transpose(1, 0, 2, 3, 4)
    corners = np.zeros(padded.shape[1:], dtype=bool)
    if found is None:
        corners[:batch, :ox, :oy, :oz] = True
        corner = np.flatnonzero(corners).reshape(batch, size)
        y = np.empty((batch, c_out) + dims, dtype=x.dtype)
        values = y.reshape(batch, c_out, size)
    else:
        background, active, windowed = found
        padded[:, batch, ix, iy, iz] = background[:, None, None, None]
        corners[:batch, :ox, :oy, :oz] = active
        reps = [np.r_[0 : p + 1, d - p : d] for d in dims]  # one per class along each axis
        corners[(batch,) + np.ix_(*reps)] = True
        corner = np.flatnonzero(corners)  # active ones, then the classes
        count = corner.size - k**3
        corner = np.resize(corner, (1, -(-corner.size // n) * n))
        values = np.empty((1, c_out, corner.size), dtype=x.dtype)

    source = padded.reshape(c_in, -1)
    offsets = _tap_offsets(k, *padded.shape[3:])
    buffer = np.empty(patch * n, dtype=x.dtype)
    for row, out in zip(corner, values):  # each sample, or the class columns
        for lo in range(0, row.size, n):
            m = min(n, row.size - lo)
            tile = buffer[: patch * m].reshape(c_in, k**3, m)
            # mode="wrap" lets take write into the tile unbuffered (and took
            # 0.75 of mode="clip"'s time on float32 tiles); no index wraps
            np.take(source, offsets[:, None] + row[lo : lo + m], axis=1, out=tile, mode="wrap")
            np.matmul(w_mat, tile.reshape(patch, m), out=out[:, lo : lo + m])
    values += b[:, None]
    if found is None:
        return y

    values = values[0]
    sample, position = np.divmod(np.flatnonzero(active), size)
    classes = values[:, count : count + k**3].reshape(c_out, k, k, k)
    if windowed:
        touched = np.logical_or.reduce(_window_views(active[:, None])).reshape(batch, -1)
        # Each sample's touched windows, then its untouched ones, ascending.
        order = np.argsort(~touched, axis=1, kind="stable")
        windows = np.sort(order[:, : touched.sum(axis=1).max()], axis=1)
        y = _windowed(np.empty((batch, c_out, POOL**3, windows.shape[1]), dtype=x.dtype),
                      classes[:, p, p, p].copy(), windows, dims)
        flat = np.asarray(y).reshape(batch, c_out, -1)
        flat[...] = y.background[:, None]
        position = y.index(sample, *np.unravel_index(position, dims))
    else:
        spans = [[slice(r, r + 1) for r in rep] for rep in reps]
        for span, d in zip(spans, dims):
            span[p] = slice(p, d - p)  # the interior class
        y = np.empty((batch, c_out) + dims, dtype=x.dtype)
        for (i, sx), (j, sy), (l, sz) in itertools.product(*map(enumerate, spans)):
            y[0, :, sx, sy, sz] = classes[:, i, j, l, None, None, None]
        y[1:] = y[0]
        flat = y.reshape(batch, c_out, -1)
    # Advanced indices on either side of the slice: the view takes
    # (count, c_out) values in place.
    flat[sample, :, position] = values[:, :count].T
    return y


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
    Every output column is a GEMM of the kernel with a gathered patch
    column (``_correlate``). An input computes the columns of its active
    positions only, plus one per background class, when at most
    ``_BACKGROUND_MAX_ACTIVE`` (45%) of the output positions are active: in
    the k^3 box dilation of the positions whose bits differ from the
    background, the commonest channel vector at the samples' last
    positions. Comparing bits keeps a +0.0 off a -0.0 background and one NaN
    off another. Inactive outputs fall into k^3 classes by the grid faces
    their patch crosses, and each takes the value of its class's
    representative in a background sample appended to the padded input.
    Every other input (dims under k, a batch that one tile covers, or more
    active positions) computes the column of every position.

    Either way the output is bit-identical to one im2col GEMM per sample:
    every value is the dot product of a kernel row with a patch column of
    the same bits in (channel, a, b, c) order, an inactive column being
    that of its representative, computed in a GEMM of N = planes * oy * oz
    for a tile of x-planes, a multiple of 16 where classes are computed. So
    the BLAS runs the same kernel and sums a column alike wherever it sits
    (with another N it need not: at N <= 64 a small-matrix kernel summed
    block 2's K = 432 columns in another order), and the bias is added
    after the GEMM, as there; ``tests/test_layers.py::TestDenseConvBits``,
    ``TestBackgroundConv`` and ``TestBinaryConv`` assert it.

    The output takes one of two forms. A binary grid (one channel, +0.0
    background and 1.0 elsewhere, dims that ``POOL`` divides) at most
    ``_WINDOWED_MAX_ACTIVE`` (15%) active returns a ``Windowed``: per
    sample, the pool windows that touch its active positions, and as the
    background the value of its classes, which share the all-zero patch.
    (A batch whose last voxel is occupied in most samples has background
    1.0 and computes every position.) Every other input returns the dense
    array. The cache is the same on every path.
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
    y = _correlate(x, w_mat, b, k)
    # Four entries, as perfbench/spans.py unpacks them.
    return y, (x, w, None, None)


def _tap_sums(grad_y, k: int) -> np.ndarray:
    """(Cout, k, k, k): for each tap (a, b, c), grad_y summed over the
    batch and the outputs whose tap lands inside the grid. Along an axis of
    extent d, tap t of output o reads input o - k // 2 + t, so the outputs
    are those in [max(0, k // 2 - t), d - max(0, t - k // 2))."""
    p = k // 2
    sums = grad_y.sum(axis=0)
    for _ in range(3):  # x, then y, then z becomes a trailing tap axis
        d = sums.shape[1]
        sums = np.stack([sums[:, max(0, p - t) : d - max(0, t - p)].sum(axis=1)
                         for t in range(k)], axis=-1)
    return sums


def _carried_backward(grad_y, x, w, windows, off, need_input_grad: bool):
    """The input gradient at the flat positions ``windows[sample]`` (None
    unless ``need_input_grad``) and the weight gradient of the part ``off``
    (batch, Cin, W) of x at those positions. A dense input passes every
    position, ``windows`` one row of all of them that every sample shares,
    and x itself as ``off``; windows over a background pass x minus it.

    Input v feeds output v + k // 2 - t through tap t. In grad_y's
    channel-last copy in a zero frame of k // 2, that output is the padded
    position v + t' with t' = k - 1 - t, so one gather of the k^3 rows of
    Cout values at corners v serves both gradients, one ``_TILE_BYTES`` tile
    of positions at a time: the input gradient is each tile times the
    flipped kernel, and each tile times ``off`` at its positions adds the
    weight gradient. (A channel-last gather copies Cout values per index; on
    block 1's shape it took 5 ms per float32 batch of 32 against 15 ms
    channel-first.)

    Returns the input gradient as (batch, W, Cin) values and the weight
    gradient. Every position of a dense block-1 input takes longer than the
    per-tap path this replaced (see ``conv3d_backward``); no workload has one.
    """
    batch, c_in, dims = x.shape[0], x.shape[1], x.shape[2:]
    c_out, k = w.shape[0], w.shape[2]
    p = k // 2
    padded = np.zeros((batch,) + tuple(d + 2 * p for d in dims) + (c_out,), dtype=x.dtype)
    padded[:, p : p + dims[0], p : p + dims[1], p : p + dims[2]] = grad_y.transpose(0, 2, 3, 4, 1)
    source = padded.reshape(-1, c_out)
    px, py, pz = padded.shape[1:4]
    i, j, l = np.unravel_index(windows, dims)
    corner = (((np.arange(batch)[:, None] * px + i) * py + j) * pz + l).ravel()
    offsets = _tap_offsets(k, py, pz)
    rows = k**3 * c_out  # (tap, Cout) order
    off = off.transpose(0, 2, 1).reshape(-1, c_in)

    n = max(1, _TILE_BYTES // (rows * x.itemsize))
    col = np.empty((n, k**3, c_out), dtype=x.dtype)
    values = None
    if need_input_grad:
        w_flip = w[:, :, ::-1, ::-1, ::-1].reshape(c_out, c_in, k**3).transpose(2, 0, 1)
        w_flip = np.ascontiguousarray(w_flip).reshape(rows, c_in)
        values = np.empty((corner.size, c_in), dtype=x.dtype)
    grad_w_flip = np.zeros((rows, c_in), dtype=x.dtype)
    for lo in range(0, corner.size, n):
        m = min(n, corner.size - lo)
        tile = col if m == n else np.empty((m, k**3, c_out), dtype=x.dtype)
        # mode="clip" lets take write into the tile unbuffered; no index clips
        np.take(source, corner[lo : lo + m, None] + offsets, axis=0, out=tile, mode="clip")
        tile = tile.reshape(m, rows)
        if need_input_grad:
            np.matmul(tile, w_flip, out=values[lo : lo + m])
        grad_w_flip += tile.T @ off[lo : lo + m]
    grad_w = grad_w_flip.reshape(k, k, k, c_out, c_in)[::-1, ::-1, ::-1].transpose(3, 4, 0, 1, 2)
    if values is not None:
        values = values.reshape(batch, -1, c_in)
    return values, np.ascontiguousarray(grad_w)


def conv3d_backward(grad_y, cache, need_input_grad: bool = True, carried=None):
    """Gradients w.r.t. input, kernel and bias of conv3d_forward.

    ``need_input_grad=False`` skips the input gradient (None in its slot)
    and its GEMM, which the network uses for its first block.

    ``carried=(windows, background)`` says that the input is one
    per-channel ``background`` vector everywhere but at the flat positions
    ``windows[sample]`` (ascending), as the second block's input is outside
    the first block's carried pool windows. A dense input is the case of
    every position carried over a zero background, as in Graham's
    active-site convolution (arXiv:1409.6070). Either way all three
    gradients come from one tiled gather of grad_y at the carried positions
    (``_carried_backward``). A dense input's gradients come back dense, its
    bias gradient grad_y's plain sum.

    With windows the background's own weight-gradient part is background ⊗
    S_t, S_t being grad_y's sum over the outputs whose tap t lands inside
    the grid (``_tap_sums``); grad_b is S at the centre tap, and the input
    gradient's total per channel is Σ_t W_tᵀ S_t. The input gradient is a
    ``Windowed`` on the input's grid: (batch, Cin, 1, W) values at the
    windows and, as its background, the gradient summed over every other
    position, which is all the first block's ``maxpool3d_backward`` reads.

    The weight gradient and the input gradient sum in another order than an
    im2col GEMM and col2im of k^3 slice-adds, so they agree with those to
    float rounding (``tests/test_layers.py::TestDenseConvBits`` and
    ``TestCarriedBackward``). On blocks 2-4 of the tiny and paper nets the
    gather at every position was as fast as the flat-frame input gradient
    and per-sample im2col weight gradient it replaced, or faster (float32,
    one BLAS thread). It was slower on one shape that no workload runs:
    block 1 with a dense input (16x16x32, 8 to 16 channels, batch 32: 187
    against 154 ms, medians of seven runs), which happens only when block
    0's forward is not ``Windowed``.

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
    flat = x.reshape(x.shape[:2] + (-1,))
    if carried is None:  # every position carried, over a zero background
        positions = np.arange(flat.shape[2])[None, :]
        values, grad_w = _carried_backward(grad_y, x, w, positions, flat, need_input_grad)
        if values is not None:
            values = np.ascontiguousarray(values.transpose(0, 2, 1)).reshape(x.shape)
        return values, grad_w, grad_y.sum(axis=(0, 2, 3, 4))
    windows, background = carried
    off = np.take_along_axis(flat, windows[:, None, :], axis=2) - background[:, None]
    values, grad_w = _carried_backward(grad_y, x, w, windows, off, need_input_grad)
    c_out, c_in, k = w.shape[:3]
    sums = _tap_sums(grad_y, k)
    grad_w += background[:, None, None, None] * sums[:, None]
    grad_x = None
    if values is not None:
        total = np.einsum("oit,ot->i", w.reshape(c_out, c_in, -1), sums.reshape(c_out, -1))
        values = values.transpose(0, 2, 1)
        grad_x = _windowed(np.ascontiguousarray(values[:, :, None]),
                           total - values.sum(axis=(0, 2)), windows, x.shape[2:])
    return grad_x, grad_w, sums[:, k // 2, k // 2, k // 2].copy()


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
    is the sum of grad_y over all windows minus the carried ones. grad_y
    may itself be a ``Windowed`` on the pooled grid, as the next block's
    conv backward returns it when given these windows: its values at them
    and, as its background, that sum.
    """
    y, x = cache
    if isinstance(x, Windowed):
        if isinstance(grad_y, Windowed):  # (batch, channels, 1, W) at x's windows
            carried, grad_bg = np.asarray(grad_y)[:, :, 0], grad_y.background
        else:
            flat = np.asarray(grad_y).reshape(y.shape[:2] + (-1,))
            carried = np.take_along_axis(flat, x.windows[:, None, :], axis=2)
            grad_bg = flat.sum(axis=(0, 2)) - carried.sum(axis=(0, 2))
        grad_bg = np.where(np.isnan(x.background), 0, grad_bg)
        grad_x = np.zeros(x.shape, dtype=carried.dtype)
        _route_to_first_max(carried, y, np.asarray(x).transpose(2, 0, 1, 3),
                            grad_x.transpose(2, 0, 1, 3))
        return x.like(grad_x, grad_bg)
    grad_y = np.asarray(grad_y)
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

    The input gradient's two sums over the batch are gamma times beta's and
    gamma's gradients, so it is one per-channel affine of g and x_hat.

    For a ``Windowed`` gradient the background adds its gradient sum G to
    the sums of g (beta's gradient) and of g * x_hat (gamma's), as G times
    the background's x_hat. The background's input-gradient sum then
    follows in closed form from G, the background count and the same affine.
    """
    x_hat, inv_std, gamma = cache
    g = _as_float(grad_y, like=x_hat)
    xh = np.asarray(x_hat)
    axes = (0,) + tuple(range(2, g.ndim))
    grad_gamma = _channel_dot(g, xh)
    grad_beta = g.sum(axis=axes)
    n = g.size // g.shape[1]
    windowed = isinstance(grad_y, Windowed)
    if windowed:
        grad_bg, x_hat_bg, count = grad_y.background, x_hat.background, x_hat.background_count
        grad_gamma += grad_bg * x_hat_bg
        grad_beta += grad_bg
        n += count
    # (n * gamma * g - sum(gamma * g) - x_hat * sum(gamma * g * x_hat)) * inv_std / n,
    # whose two sums are gamma times grad_beta and grad_gamma: one affine of g and x_hat
    scale = gamma * inv_std
    slope_g, slope_x, shift = scale, -scale * grad_gamma / n, -scale * grad_beta / n
    grad_x = g * _channels(slope_g, g.ndim)
    grad_x += xh * _channels(slope_x, g.ndim)
    grad_x += _channels(shift, g.ndim)
    if windowed:
        bg_sum = slope_g * grad_bg + count * (slope_x * x_hat_bg + shift)
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
