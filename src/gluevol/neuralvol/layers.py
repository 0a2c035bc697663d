"""Tensor layers with exact forward and backward passes in numpy.

Tensors are (batch, channels, x, y, z) C-order arrays, float32 in training
and float64 elsewhere: every layer keeps the dtype of its input, save that
the conv takes a bool or integer grid in its kernel's dtype. Every
forward returns (output, cache); the matching backward consumes the
upstream gradient plus the cache and returns gradients for its inputs and
parameters. The layers carry RNet's fixed settings, one constant each: a
stride-1 conv padded by k // 2 (a "same" conv for its odd kernel edge k),
leaky ReLU with slope ``SLOPE``, batchnorm with ``BN_EPS`` and
``BN_MOMENTUM``, and a ``POOL``^3 max-pool. Batchnorm's running statistics
are the caller's arrays: a training-mode forward moves them toward the
batch's in place, so no layer returns state besides its cache.

3D convolution is cross-correlation lowered to GEMM, cache-blocked in the
manner of Goto & van de Geijn: the forward gathers patch columns with one
``np.take`` into a ``_TILE_BYTES`` (1 MB) tile at a time and runs its GEMM
while the tile is still in L2 (see ``_gemm_columns``). Every output element
is the same dot product as in one im2col GEMM per sample, so on the
network's shapes tiling changes no bits on the BLAS these layers were
measured with (``tests/test_layers.py::TestDenseConvBits``). The backward
builds no patch matrix: one tiled gather of grad_y's k^3 tap rows at every
input position gives the input and weight gradients (see
``conv3d_backward``), in another order than an im2col GEMM, so they agree
with one to float rounding. Each call allocates its own buffers, so the
layer functions keep no state between calls.

On height fields most of a conv input is one background value per
channel: block 0 reads binary grids, under 1% occupied, and block 1's input
keeps block 0's background wherever its windows held no voxel. Such an
input takes the background-class columns (see ``conv3d_forward``): an output
whose patch holds only background and padding has one of k^3 values per
channel, fixed by the grid faces it touches, so the GEMMs compute those
k^3 patch columns and the columns of the positions near an off-background
one (about a twentieth of block 0 and a fifth of block 1 on tiny height
fields), with the same N as a dense input's, so the output is
bit-identical. Those active positions are found from coordinates, the way
Graham's spatially-sparse CNNs (arXiv:1409.6070) dilate the input sites
and MinkowskiEngine (arXiv:1904.08755) builds its kernel map; a binary
grid is read once, by one ``np.flatnonzero``, and never copied to a float
frame. Every other input is the case of every position active: a dense
one, or one where more than ``_BACKGROUND_MAX_ACTIVE`` (45%) of the
positions need their own column.

The background-class output is dense, or, for a binary grid whose dims
``POOL`` divides, a ``Windowed`` tensor: per sample, the values of the pool
windows that touch an active position, plus one background value per
channel elsewhere. Leaky ReLU, batchnorm and max-pool take that form
forward and backward, touching about an eighth of the positions on tiny
height fields; max-pool returns a dense pooled tensor, so the next block's
forward is unchanged. The next block's conv backward, told those windows,
runs a dense input's gather at them only and returns the input gradient
there plus one per-channel sum over the rest, which is all the first
block's max-pool backward reads (see ``conv3d_backward``).
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


def _windowed(values, background, windows, dims) -> Windowed:
    out = np.asarray(values).view(Windowed)
    out.background, out.windows, out.dims = background, windows, dims
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeMismatch(message)


def _tap_offsets(k: int, py: int, pz: int) -> np.ndarray:
    """Flat offset of each tap (a, b, c), in that order, in a grid of
    (y, z) extent (py, pz)."""
    r = np.arange(k)
    return ((r[:, None, None] * py + r[None, :, None]) * pz + r[None, None, :]).ravel()


def _unravel(flat, shape) -> list:
    """``np.unravel_index`` by floor division by each extent, which numpy
    runs several times faster than unravel_index or a remainder."""
    coords = []
    for d in shape[:0:-1]:
        quotient = flat // d
        coords.insert(0, flat - quotient * d)
        flat = quotient
    return [flat] + coords


def _pool_window(i, j, l, dims):
    """(flat window in the pooled grid, in-window offset in (x, y, z) order)
    of full-resolution positions (i, j, l): a ``Windowed``'s value axes."""
    wi, wj, wl = (c // POOL for c in (i, j, l))
    window = (wi * (dims[1] // POOL) + wj) * (dims[2] // POOL) + wl
    return window, ((i - wi * POOL) * POOL + j - wj * POOL) * POOL + l - wl * POOL


def _binary_weight_grad(grad_y: Windowed, voxels, slots, k: int) -> np.ndarray:
    """Weight gradient of the conv of a binary grid, from its forward's
    occupied voxels (flat, ascending) and window slot table (see
    ``_correlate``).

    Tap t of the kernel sees input o - k // 2 + t at output o, so its
    gradient is the sum of grad_y at (v + k // 2 - t) over the occupied
    voxels v (inside the output grid). Those positions are active, so they
    lie in grad_y's windows. Each tap sums its gathered values over the
    voxels in (sample, x, y, z) order, pairwise as ``np.sum`` adds.
    """
    g = np.asarray(grad_y)
    batch, c_out, _, width = g.shape
    per_sample = g.shape[2] * width
    # (c_out, batch, per_sample + 1): each channel's gradients in one row,
    # with a zero after each sample for the taps that fall off the grid.
    rows = np.zeros((c_out, batch, per_sample + 1), dtype=g.dtype)
    rows[:, :, :per_sample] = g.reshape(batch, c_out, per_sample).transpose(1, 0, 2)
    dims = grad_y.dims
    sample, *coords = _unravel(voxels, (batch,) + dims)
    # (k, n) output coordinates per axis, and whether they are on the grid
    coords = [v + k // 2 - np.arange(k)[:, None] for v in coords]
    on_grid = [(c >= 0) & (c < d) for c, d in zip(coords, dims)]
    i, j, l = (np.clip(c, 0, d - 1) for c, d in zip(coords, dims))
    inside = on_grid[0][:, None, None] & on_grid[1][None, :, None] & on_grid[2][None, None, :]
    window, offset = _pool_window(i[:, None, None], j[None, :, None], l[None, None, :], dims)
    slot = offset * width + slots[sample, window]
    slot[~inside] = per_sample  # (k, k, k, n)
    gathered = np.take(rows.reshape(c_out, -1), sample * (per_sample + 1) + slot, axis=1)
    return gathered.sum(axis=-1).reshape(c_out, 1, k, k, k)


def _background_active(x):
    """(background, off) of an input: the commonest channel vector at the
    samples' last positions, the lowest bit pattern among equally common
    ones, so the order of the samples does not decide it, and the (sample,
    x, y, z) mask of the positions off it. A position is off when any
    channel's bits differ from the background, so -0.0 against +0.0, or
    another NaN payload, counts as off. None where more than
    ``_BACKGROUND_MAX_ACTIVE`` of the positions are off.
    """
    bits = x.view(np.dtype(f"u{x.itemsize}"))
    last = bits[:, :, -1, -1, -1]
    background = last[0]
    if (last != background).any():  # unique sorts; argmax takes the first
        patterns, counts = np.unique(last, axis=0, return_counts=True)
        background = patterns[np.argmax(counts)]
    off = np.any(bits != background[:, None, None, None], axis=1)
    if np.count_nonzero(off) > _BACKGROUND_MAX_ACTIVE * off.size:  # the dilation only grows
        return None
    return background.view(x.dtype), off


def _occupied(x):
    """The flat indices, ascending, of the set voxels of a binary grid, one
    channel of 0 and 1 (+0.0 and 1.0 by bits in a float grid) whose
    background, as ``_background_active`` picks it, is 0; else None."""
    if x.shape[1] != 1 or x.dtype.kind not in "biuf":
        return None
    # nonzero reads a bool mask several times faster than integers
    voxels = np.flatnonzero(x if x.dtype == bool else x.view(np.dtype(f"u{x.itemsize}")) != 0)
    if np.any(x.ravel()[voxels] != 1) or 2 * np.count_nonzero(x[:, 0, -1, -1, -1]) > len(x):
        return None
    return voxels


def _active_corners(seed, at, dims, k: int, limit):
    """The corners, ascending, of the outputs whose patch holds a position
    set in the bool frame ``seed`` (at the flat positions ``at``, where
    known); None where there are more than ``limit``. A corner lies at its
    output's (x, y, z), at a set position minus a tap offset: a sparse seed
    scatters each such pair, a denser one takes k shifted ORs along each
    axis. Corners off the grid fall on the far padding of a row, plane or
    sample, or on sample 0, and are dropped."""
    count = np.count_nonzero(seed) if at is None else at.size
    if count > limit:  # the dilation can only grow
        return None
    if count * k**3 < seed.size:
        at = np.flatnonzero(seed) if at is None else at
        near, offsets = np.zeros_like(seed), _tap_offsets(k, *seed.shape[2:])
        chunk = max(1, _TILE_BYTES // offsets.nbytes)  # positions per scatter
        for lo in range(0, at.size, chunk):
            near.reshape(-1)[at[lo : lo + chunk, None] - offsets] = True
    else:
        near = seed.copy()
        for axis in (1, 2, 3):
            lead, marked = (slice(None),) * axis, near.copy()
            for t in range(1, k):
                near[lead + (slice(0, -t),)] |= marked[lead + (slice(t, None),)]
    for axis, d in enumerate(dims, start=1):
        near[(slice(None),) * axis + (slice(d, None),)] = False
    corners = np.flatnonzero(near[1:]) + math.prod(seed.shape[1:])
    return None if corners.size > limit else corners


def _gemm_columns(source, offsets, rows, w_mat, values, n: int) -> None:
    """values[r, :, j] = w_mat @ the patch column at flat position rows[r, j]
    of source (Cin, positions): one ``np.take`` of the k^3 tap offsets fills
    a (Cin, k^3, n) tile of at most ``_TILE_BYTES``, and one GEMM turns it
    into n columns while the tile is still in L2 (a row's last may be
    shorter). A 0/1 source is gathered, then copied into a float tile."""
    patch = w_mat.shape[1]
    gathered = np.empty(patch * n, dtype=source.dtype)
    tiles = gathered if source.dtype == w_mat.dtype else np.empty(patch * n, dtype=w_mat.dtype)
    for row, out in zip(rows, values):
        for lo in range(0, row.size, n):
            m = min(n, row.size - lo)
            tile = gathered[: patch * m].reshape(source.shape[0], -1, m)
            # mode="wrap" lets take write into the tile unbuffered (and took
            # 0.75 of mode="clip"'s time on float32 tiles); no index wraps
            np.take(source, offsets[:, None] + row[lo : lo + m], axis=1, out=tile, mode="wrap")
            columns = tiles[: patch * m].reshape(patch, m)
            if tiles is not gathered:
                columns[...] = tile.reshape(patch, m)
            np.matmul(w_mat, columns, out=out[:, lo : lo + m])


def _correlate(x, w_mat, b, k: int):
    """Correlation plus bias of x with a (Cout, Cin*k^3) kernel (see
    ``conv3d_forward``), as (y, x as the backward reads it, voxels, slots).
    x goes channel-first into a frame of k // 2 zeros around each sample, a
    binary grid's voxels into a 0/1 frame; tap (a, b, c) of every output o
    lies at a fixed flat offset from o's corner, its tap (0, 0, 0), at
    frame[o]. Class representatives lie in a sample 0 of background ahead:
    along each axis an inactive output's patch depends only on whether it
    is one of the first k // 2 positions, the interior or the last k // 2."""
    batch, c_in, dims = x.shape[0], x.shape[1], x.shape[2:]
    c_out, patch = w_mat.shape
    dtype = w_mat.dtype
    ox, oy, oz = dims
    size = ox * oy * oz
    # A tile is as many x-planes of one sample as fit, at least one. A slab
    # that leaves planes over has a multiple of 16 // gcd(16, oy * oz)
    # planes where that many fit, so that N is a multiple of 16: the class
    # columns need GEMMs of one such N (see conv3d_forward). Where one tile
    # covers the batch, there is nothing for them to save.
    planes = min(ox, max(1, _TILE_BYTES // max(patch * oy * oz * dtype.itemsize, 1)))
    step = 16 // math.gcd(16, oy * oz)
    if step <= planes < ox:
        planes -= planes % step
    n = planes * oy * oz
    sparse = not (n % 16 or batch * size <= n or min(dims) < k)
    voxels = _occupied(x) if sparse else None
    x = x if voxels is not None else x.astype(dtype, copy=False)
    found = (None, voxels) if voxels is not None else _background_active(x) if sparse else None
    first = int(found is not None)  # the samples' index in the frame
    p = k // 2
    frame = (batch + first,) + tuple(d + 2 * p for d in dims)
    inner = tuple(slice(p, p + d) for d in dims)
    source = np.zeros((c_in,) + frame, dtype=dtype if voxels is None else bool)  # binary: 0/1
    if voxels is None:
        source[(slice(None), slice(first, None)) + inner] = x.transpose(1, 0, 2, 3, 4)
        if found is not None:  # sample 0 is all background
            source[(slice(None), 0) + inner] = found[0][:, None, None, None]
    source = source.reshape(c_in, -1)
    corners = None
    if found is not None:  # the positions off the background, set in a frame
        seed = np.zeros(frame, dtype=bool) if voxels is None else source.reshape(frame)
        at = None
        if voxels is None:
            seed[(slice(1, None),) + inner] = found[1]
        else:  # the 0/1 frame itself
            s, i, j, l = _unravel(voxels, (batch,) + dims)
            at = (((s + 1) * frame[1] + i + p) * frame[2] + j + p) * frame[3] + l + p
            seed.reshape(-1)[at] = True
        corners = _active_corners(seed, at, dims, k, _BACKGROUND_MAX_ACTIVE * batch * size)
    offsets = _tap_offsets(k, *frame[2:])
    if corners is None:
        inside = np.zeros(frame, dtype=bool)
        inside[first:, :ox, :oy, :oz] = True
        rows = np.flatnonzero(inside).reshape(batch, size)
        y = np.empty((batch, c_out) + dims, dtype=dtype)
        values = y.reshape(batch, c_out, size)
    else:  # the classes, the active positions, then class 0 to a multiple of n
        r = np.arange(k)
        reps = [np.where(r > p, r + d - k, r) for d in dims]  # one per class along each axis
        count = corners.size
        rows = np.zeros((1, -(-(k**3 + count) // n) * n), dtype=np.intp)
        rows[0, : k**3] = ((reps[0][:, None, None] * frame[2] + reps[1][:, None]) * frame[3]
                           + reps[2]).ravel()
        rows[0, k**3 : k**3 + count] = corners
        values = np.empty((1, c_out, rows.shape[1]), dtype=dtype)
    _gemm_columns(source, offsets, rows, w_mat, values, n)
    del source, rows  # before the output is built, which lowers the peak
    values += b[:, None]
    if corners is None:
        return y, x.astype(dtype, copy=False), None, None

    classes = values[0, :, : k**3].reshape(c_out, k, k, k)
    values = values[0, :, k**3 : k**3 + count]
    s, i, j, l = _unravel(corners, frame)
    s -= 1
    slots = None
    if voxels is None or any(d % POOL for d in dims):
        spans = [[slice(r, d - p if r == p else r + 1) for r in rep] for rep, d in zip(reps, dims)]
        y = np.empty((batch, c_out) + dims, dtype=dtype)
        for (ci, sx), (cj, sy), (cl, sz) in itertools.product(*map(enumerate, spans)):
            y[0, :, sx, sy, sz] = classes[:, ci, cj, cl, None, None, None]
        y[1:] = y[0]
        position = (i * oy + j) * oz + l
    else:  # each sample's pool windows that touch its active positions
        window, offset = _pool_window(i, j, l, dims)
        pooled = size // POOL**3
        window += s * pooled  # flat in (batch, pooled)
        touched = np.zeros((batch, pooled), dtype=bool)
        touched.reshape(-1)[window] = True
        counts = np.count_nonzero(touched, axis=1)
        width = counts.max()
        if counts.min() < width:  # and its first untouched ones, to the largest count
            touched |= np.cumsum(~touched, axis=1, dtype=np.int32) <= (width - counts)[:, None]
        index = np.flatnonzero(touched)
        slots = np.zeros((batch, pooled), dtype=np.intp)
        slots.reshape(-1)[index] = np.tile(np.arange(width), batch)
        windows = index.reshape(batch, width) - pooled * np.arange(batch)[:, None]
        y = _windowed(np.empty((batch, c_out, POOL**3, width), dtype=dtype),
                      classes[:, p, p, p].copy(), windows, dims)
        np.asarray(y)[...] = y.background[:, None, None]
        position = offset * width + slots.reshape(-1)[window]
    # A 1-D scatter into each channel's view costs about 1 us a call more and
    # 1 ns an element less than one scatter with a slice between its indices.
    flat = np.asarray(y).reshape(batch, c_out, -1)
    if count < 1024:
        flat[s, :, position] = values.T
    else:
        for c in range(c_out):
            flat.reshape(-1)[c * flat.shape[2] :][s * flat[0].size + position] = values[c]
    return (y, x, voxels, slots) if slots is not None else (y, x.astype(dtype, copy=False), None, None)


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
    A float32 or float64 x sets the dtype; any other, such as the bool or
    uint8 grid the network hands the first block, takes the kernel's.
    Every output column is a GEMM of the kernel with a gathered patch
    column (``_correlate``). An input computes the columns of its active
    positions only, plus one per background class, when at most
    ``_BACKGROUND_MAX_ACTIVE`` (45%) of the output positions are active: in
    the k^3 box dilation of the positions whose bits differ from the
    background, the commonest channel vector at the samples' last positions
    (so +0.0 is off a -0.0 background, one NaN off another). A binary grid,
    one channel of 0 and 1 (+0.0 and 1.0 by bits) on a 0 background, finds
    them from its occupied voxels. Inactive outputs fall into k^3 classes by
    the grid faces their patch crosses, each with one representative. Every
    other input (dims under k, a batch that one tile covers, or more active
    positions) computes the column of every position.

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

    A binary grid that takes the class columns, with dims that ``POOL``
    divides, returns a ``Windowed``: per sample, the pool windows that
    touch its active positions, and as the background the value of its
    classes, which share the all-zero patch. Every other input returns the
    dense array. The cache is (x, w, voxels, slots): for a
    ``Windowed`` output x as given, its occupied voxels and its window slot
    table, which the backward reads; else x in the compute dtype, None, None.
    """
    x = np.asarray(x)
    w = _as_float(w, like=x if x.dtype in (np.float32, np.float64) else None)
    b = _as_float(b, like=w)
    _require(x.ndim == 5 and w.ndim == 5, "conv3d expects 5D input and kernel")
    c_in = x.shape[1]
    c_out, kc_in, k = w.shape[0], w.shape[1], w.shape[2]
    _require(w.shape[2:] == (k, k, k) and k % 2 == 1, "conv3d kernel must be cubic, odd-edged")
    _require(kc_in == c_in, f"kernel expects {kc_in} input channels, got {c_in}")
    _require(b.shape == (c_out,), "bias shape must be (c_out,)")

    w_mat = np.ascontiguousarray(w.reshape(c_out, -1))
    y, x, voxels, slots = _correlate(x, w_mat, b, k)
    # Four entries, as perfbench/spans.py unpacks them.
    return y, (x, w, voxels, slots)


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
    x, w, voxels, slots = cache
    if isinstance(grad_y, Windowed):
        grad_b = np.asarray(grad_y).sum(axis=(0, 2, 3)) + grad_y.background
        return None, _binary_weight_grad(grad_y, voxels, slots, w.shape[2]), grad_b
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

    Returns (y, cache) in both modes. Training mode normalizes by batch
    statistics (population variance) and writes (1 - ``BN_MOMENTUM``) *
    running + ``BN_MOMENTUM`` * batch, computed in the batch's dtype, into
    the caller's ``running_mean`` and ``running_var`` arrays in place; eval
    mode normalizes by those arrays and leaves them untouched. Only a
    training-mode cache feeds ``batchnorm3d_backward``: eval mode has no
    backward.

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
        for running, batch in ((running_mean, mean), (running_var, var)):
            previous = _as_float(running, like=values)
            running[...] = (1.0 - BN_MOMENTUM) * previous + BN_MOMENTUM * batch
    else:
        mean, var = _as_float(running_mean, like=values), _as_float(running_var, like=values)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    y, x_hat = _normalize(values, mean, inv_std, gamma, beta)
    if windowed:
        y_bg, x_hat_bg = _normalize(x.background, mean, inv_std, gamma, beta)
        y, x_hat = x.like(y, y_bg), x.like(x_hat, x_hat_bg)
    return y, (x_hat, inv_std, gamma)


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
