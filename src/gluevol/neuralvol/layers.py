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

On height fields most of a conv input is one background value per
channel: block 0 reads binary grids, under 1% occupied, and block 1's input
keeps block 0's background wherever its windows held no voxel. Such an
input takes the background-class path (see ``conv3d_forward``): an output
whose patch holds only background and padding has one of k^3 values per
channel, fixed by the grid faces it touches, so the GEMM computes those
k^3 patch columns and the columns of the positions near an off-background
one (about a twentieth of block 0 and a fifth of block 1 on tiny height
fields) and no others. Its GEMMs have the dense tiles' own N, so each
column is the dense GEMM's own dot product and the output is
bit-identical. When more than ``_BACKGROUND_MAX_ACTIVE`` (45%) of the
positions need their own column, the dense GEMM runs instead.

The path's output is dense, or, for a binary grid at most
``_WINDOWED_MAX_ACTIVE`` active, a ``Windowed`` tensor: per sample, the
values of the pool windows that touch an active position, plus one
background value per channel for every other position. Leaky ReLU,
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
# 2 MB per-core L2, so the GEMM reads the tile from cache right after
# im2col writes it.
_TILE_BYTES = 1024 * 1024

# The conv weight gradient adds its per-sample terms in groups of as many
# samples as this many bytes of patch matrix hold, which fixes its bits.
_COL_BUDGET = 96 * 1024 * 1024

# Largest share of output positions that may be active (in the k^3 box
# dilation of the positions off the background) for an input to take the
# background-class conv. Its time is about linear in the active positions.
# Against the dense GEMM (one BLAS thread) it broke even at 52% active on
# block 1's shape in float32 at batch 32, and at 60-65% in float64 at batch
# 1; on block 2's inputs from the 48 tiny-region scans it took 0.8 of the
# dense time below 45% active and 0.99-1.02 above 50%. There block 1 is 20%
# active (27% at most) and block 2 48% (30-65%).
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


def _tiles(patch: int, dims, itemsize: int) -> tuple[int, int]:
    """(samples, x-planes of one sample) per forward tile of a conv with
    ``patch`` rows per output position and output ``dims``. A slab that
    leaves planes over has a multiple of 16 // gcd(16, oy * oz) planes
    where that many fit, so its GEMM's N is a multiple of 16 (see
    ``conv3d_backward``)."""
    ox, oy, oz = dims
    plane = patch * oy * oz * itemsize  # patch bytes per x-plane
    planes = min(ox, max(1, _TILE_BYTES // max(plane, 1)))
    step = 16 // math.gcd(16, oy * oz)
    if step <= planes < ox:
        planes -= planes % step
    return max(1, _TILE_BYTES // max(plane * ox, 1)), planes


def _correlate(x_pad: np.ndarray, w_mat: np.ndarray, k: int):
    """GEMM correlation of padded input with a (Cout, Cin*k^3) kernel, one
    ``_TILE_BYTES`` patch-matrix tile at a time: several whole samples, or
    a slab of x-planes of one sample, each GEMM written into its slice of y."""
    batch = x_pad.shape[0]
    c_out = w_mat.shape[0]
    out_dims = tuple(d - k + 1 for d in x_pad.shape[2:])
    ox, oy, oz = out_dims
    samples, planes = _tiles(w_mat.shape[1], out_dims, x_pad.itemsize)
    y = np.empty((batch, c_out) + out_dims, dtype=x_pad.dtype)
    flat = y.reshape(batch, c_out, ox * oy * oz)
    for lo in range(0, batch, samples):
        hi = min(lo + samples, batch)
        for i in range(0, ox, planes):
            n = min(planes, ox - i)
            col = _im2col(x_pad[lo:hi, :, i : i + n + k - 1], k)
            np.matmul(w_mat, col, out=flat[lo:hi, :, i * oy * oz : (i + n) * oy * oz])
    return y


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
    Returns None, for the dense GEMM to run, for dims under k, and when more
    than ``_BACKGROUND_MAX_ACTIVE`` of the output positions are active.

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


def _correlate_background(x, w_mat, b, k: int):
    """Exact correlation plus bias of an input that is mostly one
    per-channel background vector, or None where ``_background_active`` is.

    An inactive output's patch holds the background inside the grid and
    the zero padding outside it. Along each axis that depends only on
    whether the position is one of the first k // 2, the interior or one of
    the last k // 2: k^3 classes (27 for k = 3: the interior, 6 faces, 12
    edges, 8 corners), each with one representative in a background sample
    appended to the padded input. The GEMM tiles compute the patch columns
    of the representatives and of the active positions.

    The output is dense, each inactive position holding its class's value,
    or, for a binary grid, a ``Windowed`` on each sample's pool windows
    that touch one of its active positions, padded with its first
    background windows to the batch's largest count. A binary grid's
    background and padding are both +0.0, so its classes share one patch
    column and one value, the ``Windowed`` background.
    """
    batch, c_in, dims = x.shape[0], x.shape[1], x.shape[2:]
    c_out, patch = w_mat.shape
    # GEMMs of the dense path's N (see conv3d_forward); where one covers
    # the batch, there is none to save.
    _, planes = _tiles(patch, dims, x.itemsize)
    n = planes * dims[1] * dims[2]
    found = None if n % 16 or batch * x[0, 0].size <= n else _background_active(x, k)
    if found is None:
        return None
    background, active, windowed = found
    p = k // 2
    ix, iy, iz = (slice(p, p + d) for d in dims)

    # Channel-first padded copy, then the background sample: its (batch + 1,
    # x, y, z) positions are one flat axis, in which tap (a, b, c) of every
    # output lies at a fixed offset from its tap (0, 0, 0), padded[o].
    padded = np.zeros((c_in, batch + 1) + tuple(d + 2 * p for d in dims), dtype=x.dtype)
    padded[:, :batch, ix, iy, iz] = x.transpose(1, 0, 2, 3, 4)
    padded[:, batch, ix, iy, iz] = background[:, None, None, None]
    source = padded.reshape(c_in, -1)
    corners = np.zeros(padded.shape[1:], dtype=bool)
    corners[:batch, : dims[0], : dims[1], : dims[2]] = active
    reps = [np.r_[0 : p + 1, d - p : d] for d in dims]  # one per class along each axis
    corners[(batch,) + np.ix_(*reps)] = True
    corner = np.flatnonzero(corners)  # active ones, then the classes
    count = corner.size - k**3
    sample, position = np.divmod(np.flatnonzero(active), active[0].size)

    corner = np.resize(corner, -(-corner.size // n) * n)
    offsets = _tap_offsets(k, *padded.shape[3:])
    col = np.empty((c_in, k**3, n), dtype=x.dtype)
    values = np.empty((c_out, corner.size), dtype=x.dtype)
    for lo in range(0, corner.size, n):
        # mode="clip" lets take write into col unbuffered; no index clips
        np.take(source, offsets[:, None] + corner[lo : lo + n], axis=1, out=col, mode="clip")
        np.matmul(w_mat, col.reshape(patch, n), out=values[:, lo : lo + n])
    values += b[:, None]

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
    An input takes the background-class path of ``_correlate_background``
    when at most ``_BACKGROUND_MAX_ACTIVE`` (45%) of the output positions
    are active: in the k^3 box dilation of the positions whose bits differ
    from the background, the commonest channel vector at the samples' last
    positions. Comparing bits keeps a +0.0 off a -0.0 background and one NaN
    off another. Inactive outputs fall into k^3 classes by the grid faces
    their patch crosses, and each takes the value of its class's
    representative in a background sample appended to the padded input.

    The output is bit-identical to the dense path: every value is the dot
    product of a kernel row with a patch column of the same bits in
    (channel, a, b, c) order, an inactive column being that of its
    representative, computed in a GEMM of the dense tiles' own N, a multiple
    of 16. So the BLAS runs the same kernel and sums a column alike wherever
    it sits (with another N it need not: at N <= 64 a small-matrix kernel
    summed block 2's K = 432 columns in another order), and the bias is
    added after the GEMM, as there; ``tests/test_layers.py::TestBackgroundConv``
    and ``TestBinaryConv`` assert it. The path does not run for dims under
    k, or when one dense GEMM covers the batch.

    The path's output takes one of two forms. A binary grid (one channel,
    +0.0 background and 1.0 elsewhere, dims that ``POOL`` divides) at most
    ``_WINDOWED_MAX_ACTIVE`` (15%) active returns a ``Windowed``: per
    sample, the pool windows that touch its active positions, and as the
    background the value of its classes, which share the all-zero patch.
    (A batch whose last voxel is occupied in most samples has background
    1.0 and takes the dense GEMM.) Every other input returns the dense
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
    y = _correlate_background(x, w_mat, b, k)
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
