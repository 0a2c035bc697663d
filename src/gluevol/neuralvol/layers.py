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

The background-class output (only dims that ``POOL`` divides take it) is
a ``Windowed`` tensor: the values of the pool windows that touch an
active position, one list over the batch, plus one value per class and
channel elsewhere (a binary grid's classes all share one, its bias). Leaky
ReLU and batchnorm map the class values as they map the windows',
batchnorm counting each class's positions outside the windows, and
max-pool gives every other window the maximum over its pattern's classes,
taken in the dense max-pool's order (see ``_on_patterns``); in training on
tiny height fields the windows hold about a tenth of block 0's positions
and a third of block 1's.
Max-pool returns a dense pooled tensor, which outside the carried windows
holds one value per pattern (``Windowed.pattern_maxima``): one value per
channel where the classes share one, as a binary grid's do. There the next
block's forward is handed the windows as its positions off the background
and scans no bit of its input, so every 27-tap neighbourhood of a handed
window lies in its own carried windows. Backward, a position
outside the windows has its class's constant plus, at its window's first
maximum, its class's multiple of the pooled gradient there; batchnorm and
leaky ReLU map both per class. A conv backward handed the windows of the
block before, with the value of each pattern, gathers at them only and
returns the input gradient there plus one sum per pattern over the rest,
which is all that block's max-pool backward reads (see
``conv3d_backward``). It writes its gradient into the frame it gathers
from (``_grad_frame``): where its forward was handed those windows, only
its own windows' values, and grad_y's sums per cell of the pattern grid
come in closed form. So RNet's blocks 1 and 2 gather at the windows of the
block before, and block 1 reads no gradient outside its windows.
Per element the forward arithmetic is that of the dense layers. The
batchnorm statistics, the gradients of batchnorm and of the first three
blocks' conv weights and bias, and the second and third blocks' input
gradients are sums in another order, so they agree with the dense path to
float rounding (``tests/test_layers.py::TestWindowed`` and
``TestCarriedBackward``), not bit for bit. Batchnorm's input gradient is
one per-channel affine of the gradient and x_hat on every form, whose
constants take the batch sums from gamma's and beta's gradients.
"""

from __future__ import annotations

import functools
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
    """A full-resolution tensor held on its active pool windows.

    The array is (batch, channels, POOL^3, W): the values of the batch's
    carried windows, ``windows`` (batch, W), flat indices into the (batch,)
    + pooled grid, ascending through the rows, by in-window offset in (x,
    y, z) order, so that each offset is one contiguous run per channel. The
    windows that touch an active position are one list over the batch, cut
    into batch rows of W, so a row is not a sample; the first other windows
    fill the last row. Every other position of the (batch, channels) +
    ``dims`` tensor holds the value of its class: the grid faces that a k^3
    patch centred there crosses, k^3 classes in all (see ``_axes``). A
    window's pattern is the classes of its positions, one per axis: its
    first plane, the interior or its last plane for a 3^3 kernel. In a
    forward pass ``background`` is (1, channels, k, k, k), each class's
    value, and max-pool gives every uncarried window its pattern's maximum
    (``pattern_maxima``). In a backward pass it is (2, channels, k, k, k): a
    position's gradient is its class's first entry plus, at its window's
    first maximum, its class's second entry times the pooled gradient
    there. ``routes`` then holds what ``maxpool3d_backward`` found: the
    first maxima of the class values on the pattern grid (see
    ``_on_patterns``), the pooled gradient summed over the uncarried
    windows of each pattern at them, and the pooled gradient itself,
    channel-last (None where it came summed). The next block's conv
    backward, handed these windows and the pattern maxima, returns its
    input gradient, on the pooled grid, in this form with one position per
    window: (batch, channels, 1, W), ``dims`` the pooled grid's, and as
    ``background`` (channels,) + the pattern counts per axis, each
    pattern's gradient summed over its other positions.
    Arithmetic on the array returns arrays without this metadata; the
    layers read the values with ``np.asarray`` and wrap their results with
    ``like``.
    """

    background = windows = dims = routes = counts = None

    def like(self, values, background, routes=None) -> "Windowed":
        """``values`` on the same windows, with the given background and
        routes (by default this tensor's)."""
        out = _windowed(values, background, self.windows, self.dims)
        out.routes = self.routes if routes is None else routes
        out.counts = self.counts
        return out

    @property
    def axes(self):
        return _axes(self.dims, self.background.shape[-1])

    def pattern_counts(self) -> np.ndarray:
        """(nx, ny, nz): each pattern's windows outside the carried ones,
        over the batch, kept for the tensors ``like`` makes."""
        if self.counts is None:
            axes, k = self.axes, self.background.shape[-1]
            shape = tuple(len(rows) for _, _, rows in axes)
            pattern = _window_patterns(self.dims, k).take(self.windows, mode="wrap")
            windows = [np.bincount(of_window) for _, of_window, _ in axes]
            carried = np.bincount(pattern.ravel(), minlength=math.prod(shape)).reshape(shape)
            self.counts = len(self) * np.einsum("x,y,z->xyz", *windows) - carried
        return self.counts

    def class_counts(self) -> np.ndarray:
        """(k, k, k): each class's positions outside the windows, over the
        batch."""
        k = self.background.shape[-1]
        classes = [np.stack([np.bincount(row, minlength=k) for row in rows])
                   for _, _, rows in self.axes]
        return np.einsum("xyz,xa,yb,zc->abc", self.pattern_counts(), *classes)

    def pattern_maxima(self) -> np.ndarray:
        """(channels, nx, ny, nz): the max-pool of each pattern's class
        values, which every uncarried window of that pattern pools to."""
        return _pool(_on_patterns(self.background, self.axes))[0]


def _windowed(values, background, windows, dims) -> Windowed:
    out = np.asarray(values).view(Windowed)
    out.background, out.windows, out.dims = background, windows, dims
    return out


def _pooled(dims) -> tuple:
    return tuple(d // POOL for d in dims)


@functools.lru_cache(maxsize=None)
def _axes(dims, k: int) -> tuple:
    """Per axis of a grid: the class of each position (the first k // 2
    positions are classes 0.., the last k // 2 the classes after k // 2, the
    rest k // 2), each pool window's pattern (an index into the distinct
    rows of its positions' classes, in window order), and those rows."""
    out = []
    for d in dims:
        r, p = np.arange(d), k // 2
        classes = np.where(r < p, r, np.where(r >= d - p, r + k - d, p))
        rows, of_window = np.unique(classes.reshape(-1, POOL), axis=0, return_inverse=True)
        out.append((classes, of_window.ravel(), rows))
    return tuple(out)


def _take3(t, ix, iy, iz):
    """t[:, :, ix, iy, iz] over the outer product of the three index arrays
    (one take per axis, several times faster than one fancy index)."""
    return t.take(ix, axis=2).take(iy, axis=3).take(iz, axis=4)


def _on_patterns(t, axes):
    """Class values t (n, channels, k, k, k) on the pattern grid: one window
    per pattern and axis, so that ``_pool`` of it gives each pattern's
    maximum, in the order the dense max-pool takes it."""
    return _take3(t, *(rows.ravel() for _, _, rows in axes))


@functools.lru_cache(maxsize=None)
def _window_patterns(dims, k: int) -> np.ndarray:
    """The flat pattern, in (x, y, z) order, of each window of the pooled
    grid, flat; ``take`` it with mode="wrap" at windows of a batch."""
    pattern = np.zeros((), dtype=np.intp)
    for _, of_window, rows in _axes(dims, k):
        pattern = (pattern * len(rows))[..., None] + of_window
    return pattern.ravel()


def _class_fill(background, windows, dims) -> np.ndarray:
    """(batch, channels, POOL^3, W): the class value at each window
    position, each window's POOL^3 values those of its pattern."""
    k, channels = background.shape[-1], background.shape[1]
    axes = _axes(dims, k)
    n = [len(rows) for _, _, rows in axes]
    grid = _on_patterns(background, axes).reshape(channels, n[0], POOL, n[1], POOL, n[2], POOL)
    per_pattern = grid.transpose(0, 2, 4, 6, 1, 3, 5).reshape(channels * POOL**3, -1)
    out = np.empty((len(windows), channels, POOL**3, windows.shape[1]), dtype=background.dtype)
    for sample, pattern in zip(out, _window_patterns(dims, k).take(windows, mode="wrap")):
        # mode="clip" lets take write into the row unbuffered; no index clips
        np.take(per_pattern, pattern, axis=1, out=sample.reshape(len(per_pattern), -1), mode="clip")
    return out


def _outside(grad: Windowed, like: Windowed | None = None) -> np.ndarray:
    """(channels,) + the pattern grid: a backward ``Windowed``'s sum over
    the positions outside its windows in each cell of the grid (the
    positions at one in-window offset of one pattern's windows), each
    position times ``like``'s value there if given."""
    const, scale = grad.background
    axes = grad.axes
    counts = grad.pattern_counts().astype(const.dtype)
    for axis in range(3):
        counts = counts.repeat(POOL, axis)
    per_cell = counts * _on_patterns(const[None], axes)[0]
    at_peaks = grad.routes[1][0] * _on_patterns(scale[None], axes)[0]
    if like is not None:
        on_grid = _on_patterns(like.background, axes)[0]
        per_cell *= on_grid
        at_peaks *= on_grid
    return per_cell + at_peaks


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
    per_sample = g.shape[2] * width  # per row of values
    # (c_out, batch, per_sample + 1): each channel's gradients in one row,
    # with a zero after each row of values for the taps that fall off the grid.
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
    row, column = np.divmod(slots[sample, window], max(width, 1))
    slot = offset * width + column
    slot[~inside] = per_sample  # (k, k, k, n)
    gathered = np.take(rows.reshape(c_out, -1), row * (per_sample + 1) + slot, axis=1)
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


def _correlate(x, w_mat, b, k: int, windows=None):
    """Correlation plus bias of x with a (Cout, Cin*k^3) kernel (see
    ``conv3d_forward``), as (y, x as the backward reads it, off, slots).
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
    sparse = not (n % 16 or batch * size <= n or min(dims) < k or any(d % POOL for d in dims))
    voxels = _occupied(x) if sparse and windows is None else None
    x = x if voxels is not None else x.astype(dtype, copy=False)
    found = None  # (background, the positions off it: a mask or flat indices)
    if voxels is not None:
        found = (None, voxels)
    elif sparse and windows is not None:
        found = (_background_outside(x, windows), windows.ravel())
    elif sparse:
        found = _background_active(x)
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
        if found[1].dtype == bool:
            seed[(slice(1, None),) + inner] = found[1]
        else:  # flat (sample, x, y, z) positions; a binary grid's land in its 0/1 frame itself
            s, i, j, l = _unravel(found[1], (batch,) + dims)
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

    # the pool windows that touch an active position, in rows of one width
    classes = values[0, :, : k**3].reshape(c_out, k, k, k)
    values = values[0, :, k**3 : k**3 + count]
    s, i, j, l = _unravel(corners, frame)
    window, offset = _pool_window(i, j, l, dims)
    pooled = size // POOL**3
    window += (s - 1) * pooled  # flat in (batch, pooled)
    touched = np.zeros(batch * pooled, dtype=bool)
    touched[window] = True
    count = np.count_nonzero(touched)
    width = -(-count // batch)
    if batch * width > count:  # and the first untouched ones, to fill the rows
        touched |= np.cumsum(~touched, dtype=np.int32) <= batch * width - count
    index = np.flatnonzero(touched)
    slots = np.zeros((batch, pooled), dtype=np.intp)
    slots.reshape(-1)[index] = np.arange(index.size)
    out_windows = index.reshape(batch, width)
    if voxels is not None:  # every class has the all-zero patch
        classes[...] = classes[:, p : p + 1, p : p + 1, p : p + 1]
    background = classes[None].copy()
    y = _windowed(_class_fill(background, out_windows, dims), background, out_windows, dims)
    s, column = np.divmod(slots.reshape(-1)[window], max(width, 1))  # the row of values
    position = offset * width + column
    # A 1-D scatter into each channel's view costs about 1 us a call more and
    # 1 ns an element less than one scatter with a slice between its indices.
    flat = np.asarray(y).reshape(batch, c_out, -1)
    if count < 1024:
        flat[s, :, position] = values.T
    else:
        for c in range(c_out):
            flat.reshape(-1)[c * flat.shape[2] :][s * flat[0].size + position] = values[c]
    if voxels is None:
        return y, x, windows, None
    return y, x, voxels, slots


def _background_outside(x, windows) -> np.ndarray:
    """x's channel vector at its first position outside ``windows`` (flat,
    ascending), zeros where there is none."""
    flat = windows.ravel()
    gaps = np.flatnonzero(flat != np.arange(flat.size))
    position = gaps[0] if gaps.size else flat.size
    if position == x.shape[0] * math.prod(x.shape[2:]):
        return np.zeros(x.shape[1], dtype=x.dtype)
    sample, at = divmod(int(position), math.prod(x.shape[2:]))
    return x.reshape(x.shape[:2] + (-1,))[sample, :, at].copy()


def _as_float(arr, like=None) -> np.ndarray:
    """float64 by default; float32 inputs stay float32 (training precision)."""
    if like is not None:
        return np.asarray(arr, dtype=like.dtype)
    arr = np.asarray(arr)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


def conv3d_forward(x, w, b, windows=None):
    """3D cross-correlation: x (B,Cin,X,Y,Z), w (Cout,Cin,k,k,k), b (Cout,).

    Stride 1 and padding k // 2 for an odd k, so the output keeps x's dims.
    A float32 or float64 x sets the dtype; any other, such as the bool or
    uint8 grid the network hands the first block, takes the kernel's.
    Every output column is a GEMM of the kernel with a gathered patch
    column (``_correlate``). An input computes the columns of its active
    positions only, plus one per background class, when at most
    ``_BACKGROUND_MAX_ACTIVE`` (45%) of the output positions are active: in
    the k^3 box dilation of the positions off the background. A binary
    grid, one channel of 0 and 1 (+0.0 and 1.0 by bits) on a 0 background,
    finds them from its occupied voxels. ``windows`` (flat indices into x's
    (batch,) + dims, ascending) hands them over: outside them x holds one
    per-channel vector, as the next block's input does outside the carried
    windows of a block that read a binary grid, and no bit of x is scanned.
    Any other input takes the positions whose bits differ from the
    commonest channel vector at the samples' last positions (so +0.0 is off
    a -0.0 background, one NaN off another). Inactive outputs fall into k^3
    classes by the grid faces their patch crosses, each with one
    representative. Every other input (dims under k or that ``POOL`` does
    not divide, a batch that one tile covers, or more active positions)
    computes the column of every position.

    Either way the output is bit-identical to one im2col GEMM per sample:
    every value is the dot product of a kernel row with a patch column of
    the same bits in (channel, a, b, c) order, an inactive column being
    that of its representative, computed in a GEMM of N = planes * oy * oz
    for a tile of x-planes, a multiple of 16 where classes are computed. So
    the BLAS runs the same kernel and sums a column alike wherever it sits
    (with another N it need not: at N <= 64 a small-matrix kernel summed
    block 2's K = 432 columns in another order), and the bias is added
    after the GEMM, as there; ``tests/test_layers.py::TestDenseConvBits``,
    ``TestBackgroundConv`` and ``TestBinaryConv`` assert it. More positions
    taken as off change which columns are computed, not their bits.

    An input that takes the class columns returns a ``Windowed``: the pool
    windows that touch an active position, one list over the batch, and as
    the background each class's value (a binary grid's classes share the
    all-zero patch, so all take the centre class's bytes). Every other
    input returns the dense array. The cache is (x, w, off, slots): for a
    binary grid's ``Windowed`` output x as given, its occupied voxels and
    its window slot table, which the backward reads; for a ``Windowed``
    output of handed ``windows`` x in the compute dtype, those windows,
    None (every active output then lies in the output's windows, so the
    backward handed them reads nothing else); else x in the compute dtype,
    None, None.
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
    y, x, off, slots = _correlate(x, w_mat, b, k, windows)
    # Four entries, as perfbench/spans.py unpacks them.
    return y, (x, w, off, slots)


def _tap_sums(sums, k: int, patterns, cells=None) -> np.ndarray:
    """(Cout, k, k, k) + the input's pattern counts: for each tap (a, b, c)
    and input pattern, grad_y summed over the outputs whose tap lands inside
    the grid on an input of that pattern. ``sums`` is grad_y summed over the
    batch, one entry per cell of outputs along each axis: a position each,
    or where given, ``cells[axis][o]`` is output o's cell; ``patterns[axis]``
    is each input position's pattern. Along an axis of extent d, tap t of
    output o reads input o - k // 2 + t. A cell counts where its outputs
    read that pattern, which takes the cell whole: so a cell must lie inside
    or outside each tap's run of outputs, as the pattern grid's cells do
    for a 3^3 kernel (see ``_grad_frame``)."""
    p = k // 2
    for axis, pattern in enumerate(patterns):  # x, then y, then z becomes trailing (tap, pattern) axes
        o = np.arange(len(pattern))
        cell = o if cells is None else cells[axis]
        taps = np.zeros((sums.shape[1], k, pattern.max() + 1), dtype=sums.dtype)
        for t in range(k):
            inside = (o - p + t >= 0) & (o - p + t < len(o))
            taps[cell[inside], t, pattern[o[inside] - p + t]] = 1
        sums = np.tensordot(sums, taps, axes=(1, 0))
    return sums.transpose(0, 1, 3, 5, 2, 4, 6)


def _grad_frame(grad_y, p: int, dtype, full: bool = True):
    """(frame, sums, cells): grad_y channel-last in a frame of p zeros,
    (batch, x + 2p, y + 2p, z + 2p, Cout), and its sum over the batch,
    (Cout,) + one entry per cell along each axis (see ``_tap_sums``; cells
    None: a position each).

    A backward ``Windowed`` writes the values of its carried windows, and
    where ``full``, every other position one (x, y) in-window offset and
    sample at a time: its class's constant plus its multiple of the pooled
    gradient (zero but at a window's first maximum). Without ``full`` the
    frame is left unwritten outside the windows and its padding, and the
    sums are by cell of the pattern grid: the windows' per pattern, plus
    the rest's in closed form (``_outside``).
    """
    windowed = isinstance(grad_y, Windowed)
    dims = grad_y.dims if windowed else grad_y.shape[2:]
    batch, c_out = grad_y.shape[:2]
    frame = np.empty((batch,) + tuple(d + 2 * p for d in dims) + (c_out,), dtype=dtype)
    for axis in (1, 2, 3):  # the padding
        lead = (slice(None),) * axis
        frame[lead + (slice(0, p),)] = 0
        frame[lead + (slice(p + dims[axis - 1], None),)] = 0
    inner = frame[:, p : p + dims[0], p : p + dims[1], p : p + dims[2]]
    if not windowed:
        inner[...] = grad_y.transpose(0, 2, 3, 4, 1)
        return frame, grad_y.sum(axis=0), None
    axes = grad_y.axes
    if full:
        first, _, pooled = grad_y.routes
        _require(pooled is not None, "a gradient summed per pattern is only gathered at its windows")
        on_grid = _on_patterns(grad_y.background, axes)  # each class's constant and multiple
        on_grid[1] *= first[0]  # the multiple only at a window's first maximum
        pooled = pooled.repeat(POOL, axis=3)  # channel-last; each (x, y) row of z contiguous
        of_z = axes[2][1]
        along_z = POOL * of_z.repeat(POOL) + np.tile(np.arange(POOL), len(of_z))
        for a, b in itertools.product(range(POOL), repeat=2):
            at = (POOL * axes[0][1] + a, POOL * axes[1][1] + b, along_z)
            base, peak = np.moveaxis(_take3(on_grid, *at), 1, -1).copy()  # channel-last, as the frame
            for sample, view in zip(pooled, inner[:, a::POOL, b::POOL]):  # one in cache at a time
                np.multiply(sample, peak, out=view)
                view += base
    values = np.asarray(grad_y)
    sample, i, j, l = _unravel(grad_y.windows, (batch,) + _pooled(dims))
    corner = np.ravel_multi_index((sample, *(POOL * c + p for c in (i, j, l))), frame.shape[:4])
    corner = corner[:, None, :] + _tap_offsets(POOL, *frame.shape[2:4])[:, None]
    frame.reshape(-1, c_out)[corner] = np.moveaxis(values, 1, -1)
    if full:
        return frame, inner.sum(axis=0).transpose(3, 0, 1, 2), None
    n = [len(rows) for _, _, rows in axes]
    pattern = _window_patterns(dims, grad_y.background.shape[-1]).take(grad_y.windows, mode="wrap")
    at_windows = _pattern_sums(values.reshape(batch, -1, values.shape[-1]), pattern, math.prod(n))
    at_windows = at_windows.reshape((c_out,) + (POOL,) * 3 + tuple(n)).transpose(0, 4, 1, 5, 2, 6, 3)
    # each position's cell: its window's pattern and its offset in the window
    cells = [POOL * of_window.repeat(POOL) + np.tile(np.arange(POOL), len(of_window))
             for _, of_window, _ in axes]
    outside = _outside(grad_y)
    return frame, at_windows.reshape(outside.shape) + outside, cells


def _pattern_sums(values, pattern, n: int) -> np.ndarray:
    """(K, n): values (rows, K, W) summed over its windows by their
    pattern (rows, W), one GEMM a row with the patterns' indicator."""
    of_pattern = np.zeros(pattern.shape + (n,), dtype=values.dtype)
    np.put_along_axis(of_pattern, pattern[..., None], 1, axis=-1)
    return np.matmul(values, of_pattern).sum(axis=0)


def _carried_backward(frame, x, w, windows, off, need_input_grad: bool):
    """The input gradient at ``windows``, flat indices into x's (batch,) +
    dims (None unless ``need_input_grad``), and the weight gradient of the
    part ``off`` (rows, Cin, W) of x there. A dense input passes every
    position, a row a sample, and x itself as ``off``; windows over a
    background pass x minus it.

    Input v feeds output v + k // 2 - t through tap t. In grad_y's
    channel-last copy in a zero frame of k // 2, that output is the padded
    position v + t' with t' = k - 1 - t, so one gather of the k^3 rows of
    Cout values at corners v serves both gradients, one ``_TILE_BYTES`` tile
    of positions at a time: the input gradient is each tile times the
    flipped kernel, and each tile times ``off`` at its positions adds the
    weight gradient. (A channel-last gather copies Cout values per index; on
    block 1's shape it took 5 ms per float32 batch of 32 against 15 ms
    channel-first.)

    Returns the input gradient as windows.shape + (Cin,) values and the
    weight gradient. Every position of a dense block-1 input takes longer
    than the per-tap path this replaced (see ``conv3d_backward``); no
    workload has one.
    """
    batch, c_in, dims = x.shape[0], x.shape[1], x.shape[2:]
    c_out, k = w.shape[0], w.shape[2]
    source = frame.reshape(-1, c_out)
    corner = np.ravel_multi_index(_unravel(windows, (batch,) + dims), frame.shape[:4]).ravel()
    offsets = _tap_offsets(k, *frame.shape[2:4])
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
    partial = np.empty_like(grad_w_flip)  # each tile's, in one buffer
    for lo in range(0, corner.size, n):
        m = min(n, corner.size - lo)
        tile = col if m == n else np.empty((m, k**3, c_out), dtype=x.dtype)
        # mode="clip" lets take write into the tile unbuffered; no index clips
        np.take(source, corner[lo : lo + m, None] + offsets, axis=0, out=tile, mode="clip")
        tile = tile.reshape(m, rows)
        if need_input_grad:
            np.matmul(tile, w_flip, out=values[lo : lo + m])
        np.matmul(tile.T, off[lo : lo + m], out=partial)
        grad_w_flip += partial
    grad_w = grad_w_flip.reshape(k, k, k, c_out, c_in)[::-1, ::-1, ::-1].transpose(3, 4, 0, 1, 2)
    if values is not None:
        values = values.reshape(windows.shape + (c_in,))
    return values, np.ascontiguousarray(grad_w)


def conv3d_backward(grad_y, cache, need_input_grad: bool = True, carried=None):
    """Gradients w.r.t. input, kernel and bias of conv3d_forward.

    ``need_input_grad=False`` skips the input gradient (None in its slot)
    and its GEMM, which the network uses for its first block.

    ``carried=(windows, background)`` says that the input holds
    ``background`` everywhere but at ``windows`` (flat indices into its
    (batch,) + dims, ascending): (Cin,) + a pattern grid, one value per
    pattern, as a block's input is outside the carried pool windows of a
    block before whose backward reads only its windows (see
    ``Windowed.pattern_maxima``); a background of one pattern per axis is
    one per-channel vector. A dense input is the case of every position
    carried over a zero background, as in Graham's active-site convolution
    (arXiv:1409.6070). Either way all three gradients come from one tiled
    gather of grad_y at the carried positions (``_carried_backward``). A
    dense input's gradients come back dense, its bias gradient grad_y's
    plain sum.

    With windows, the background's own weight-gradient part is the sum over
    patterns q of background_q ⊗ S_tq, S_tq being grad_y's sum over the
    outputs whose tap t lands inside the grid on an input of pattern q
    (``_tap_sums``), and Σ_t W_tᵀ S_tq is the input gradient's total over
    pattern q. The input gradient is a ``Windowed`` on the input's grid:
    (batch, Cin, 1, W) values at the windows and, as its background, the
    gradient summed over every other position of each pattern, which is
    all that block's ``maxpool3d_backward`` reads.

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

    A ``Windowed`` gradient of a binary input (the first block's) gives no
    input gradient. Its weight gradient gathers, for each tap, the
    gradient at every occupied voxel minus that tap (see
    ``_binary_weight_grad``) instead of a GEMM over every position, and its
    bias gradient is the sum over the windows plus that over the rest.
    Any other ``Windowed`` gradient is written into the gather's frame
    (``_grad_frame``): where its forward was handed the windows passed
    here, each gathered 27-tap neighbourhood lies in its windows, so only
    their values are written, and grad_y's sums come per cell of the
    pattern grid in closed form; else as the dense gradient it stands for.
    These sum in another order than the dense path, so they agree with it
    to float rounding.
    """
    x, w, off, slots = cache
    c_out, c_in, k = w.shape[:3]
    windowed = isinstance(grad_y, Windowed)
    if windowed and slots is not None:  # a binary grid's
        grad_b = np.asarray(grad_y).sum(axis=(0, 2, 3)) + _outside(grad_y).sum(axis=(1, 2, 3))
        return None, _binary_weight_grad(grad_y, off, slots, k), grad_b
    grad_y = grad_y if windowed else _as_float(grad_y, like=x)
    # a forward handed these windows put every tap the gather reads in grad_y's windows
    full = not (windowed and off is not None and carried is not None
                and np.array_equal(carried[0], off))
    frame, sums, cells = _grad_frame(grad_y, k // 2, x.dtype, full)
    # a contiguous row per channel, so that each sums pairwise
    grad_b = (np.ascontiguousarray(sums).reshape(c_out, -1).sum(axis=1) if windowed
              else grad_y.sum(axis=(0, 2, 3, 4)))
    flat = x.reshape(x.shape[:2] + (-1,))
    if carried is None:  # every position carried, over a zero background
        positions = np.arange(flat.shape[0] * flat.shape[2]).reshape(flat.shape[0], -1)
        values, grad_w = _carried_backward(frame, x, w, positions, flat, need_input_grad)
        if values is not None:
            values = np.ascontiguousarray(values.transpose(0, 2, 1)).reshape(x.shape)
        return values, grad_w, grad_b
    windows, background = carried
    counts = background.shape[1:]  # patterns per axis
    patterns = _input_patterns(x.shape[2:], counts, k)
    sample, i, j, l = _unravel(windows, x.shape[:1] + x.shape[2:])
    pattern = (patterns[0][i] * counts[1] + patterns[1][j]) * counts[2] + patterns[2][l]
    background = background.reshape(c_in, -1)
    size = flat.shape[2]
    at = (windows + sample * ((c_in - 1) * size))[:, None, :] + (np.arange(c_in) * size)[:, None]
    off = flat.reshape(-1).take(at) - background[:, pattern].transpose(1, 0, 2)  # (rows, Cin, W)
    values, grad_w = _carried_backward(frame, x, w, windows, off, need_input_grad)
    taps = _tap_sums(sums, k, patterns, cells).reshape(c_out, k**3, -1)
    grad_w += (taps @ background.T).transpose(0, 2, 1).reshape(w.shape)
    grad_x = None
    if values is not None:
        values = values.transpose(0, 2, 1)
        total = np.einsum("oit,otq->iq", w.reshape(c_out, c_in, -1), taps)
        outside = total - _pattern_sums(values, pattern, background.shape[1])
        grad_x = _windowed(np.ascontiguousarray(values[:, :, None]),
                           outside.reshape((c_in,) + counts), windows, x.shape[2:])
    return grad_x, grad_w, grad_b


def _input_patterns(dims, counts, k: int) -> list:
    """Per axis of a grid of ``dims``, the pattern of each position: the
    pattern of its pool window in the grid it was pooled from (see
    ``_axes``) where the axis has that many, else, for one, 0."""
    patterns = []
    for d, n, (_, of_window, rows) in zip(dims, counts, _axes(tuple(POOL * d for d in dims), k)):
        _require(n in (1, len(rows)), f"{n} background patterns on an axis of {d} windows")
        patterns.append(of_window if n > 1 else np.zeros(d, dtype=np.intp))
    return patterns


def _leaky_relu(x):
    positive = x > 0
    # For a slope <= 1, leaky ReLU is max(x, slope*x).
    y = x * x.dtype.type(SLOPE)
    np.maximum(y, x, out=y)
    return y, positive


def _leaky_relu_grad(grad_y, positive):
    # grad * 1 is grad exactly; a product with the factor looked up by the
    # mask's bytes took half the time of np.where(positive, 1, slope).
    return grad_y * np.array([SLOPE, 1], dtype=grad_y.dtype).take(positive.view(np.uint8))


def leaky_relu_forward(x):
    """Elementwise; a ``Windowed`` input also maps its class values."""
    y, positive = _leaky_relu(_as_float(x))
    if isinstance(x, Windowed):
        y_bg, positive_bg = _leaky_relu(x.background)
        y, positive = x.like(y, y_bg), x.like(positive, positive_bg)
    return y, (positive,)


def leaky_relu_backward(grad_y, cache):
    """A ``Windowed`` gradient's class constants and multiples scale by
    their class's slope: every position of a class has the same sign."""
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
    (the first maximal value in window order, as the dense passes keep)
    and gives every other window its pattern's maximum, the dense passes
    over the pattern grid; the output is dense, and the cache holds the
    (batch, channels, W) window maxima.
    """
    if isinstance(x, Windowed):
        offsets = np.asarray(x).transpose(2, 0, 1, 3)
        peaks = np.maximum(offsets[0], offsets[1])
        for view in offsets[2:]:
            np.maximum(peaks, view, out=peaks)
        y = np.repeat(x.pattern_maxima()[None], len(peaks), axis=0)
        for axis in (4, 3, 2):  # each pattern's windows are one run along an axis
            y = np.repeat(y, np.bincount(x.axes[axis - 2][1]), axis)
        sample, window = (t[:, None] for t in np.divmod(x.windows, y[0, 0].size))
        y.reshape(y.shape[:2] + (-1,))[sample, np.arange(y.shape[1])[:, None], window] = peaks
        return y, (peaks, x)
    x = _as_float(x)
    _require(not any(d % POOL for d in x.shape[2:]),
             f"dims {x.shape[2:]} not divisible by pool window {POOL}")
    y = _pool(x)
    return y, (y, x)


def _pool(x):
    y = x
    for axis in (4, 3, 2):
        lead = (slice(None),) * axis
        views = [y[lead + (slice(a, None, POOL),)] for a in range(POOL)]
        y = np.maximum(views[0], views[1])  # a new array
        for view in views[2:]:
            np.maximum(y, view, out=y)
    return y


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

    For a ``Windowed`` input the rule is applied inside its windows. A
    window that is not carried holds its pattern's class values, so its
    first maximum is its pattern's (found on the pattern grid, none where
    the pattern's maximum is NaN). The result is a backward ``Windowed``
    whose classes have constant 0 and multiple 1; its ``routes`` keep the
    first maxima, grad_y channel-last and its sum over the uncarried
    windows of each pattern. grad_y may itself be a ``Windowed`` on the
    pooled grid, as the next block's conv backward returns it when given
    these windows: its values at them and, as its background, its sum over
    each pattern's other windows, which is read as it is.
    """
    y, x = cache
    if isinstance(x, Windowed):
        axes = x.axes
        grid = _on_patterns(x.background, axes)
        first = np.zeros(grid.shape, dtype=bool)
        peaks = _pool(grid)
        _route_to_first_max(np.ones(peaks.shape, dtype=bool), peaks, _window_views(grid),
                            _window_views(first))
        if isinstance(grad_y, Windowed):  # (batch, channels, 1, W) at x's windows
            carried, pooled = np.asarray(grad_y)[:, :, 0], None
            sums = grad_y.background[None]
            _require(sums.shape == peaks.shape, "the gradient's patterns are not the input's")
        else:  # channel-last, as the conv backward's frame
            pooled = np.array(np.moveaxis(np.asarray(grad_y), 1, -1), order="C")  # a copy
            flat = pooled.reshape(-1, pooled.shape[-1])
            carried = flat[x.windows].transpose(0, 2, 1)
            flat[x.windows] = 0
            sums = np.moveaxis(pooled.sum(axis=0, keepdims=True), -1, 1)
            for axis, (_, of_window, _) in enumerate(axes, start=2):
                sums = np.add.reduceat(sums, np.flatnonzero(np.diff(of_window, prepend=-1)), axis)
        for axis in (2, 3, 4):
            sums = sums.repeat(POOL, axis)
        grad_x = np.zeros(x.shape, dtype=carried.dtype)
        _route_to_first_max(carried, y, np.asarray(x).transpose(2, 0, 1, 3),
                            grad_x.transpose(2, 0, 1, 3))
        background = np.zeros((2,) + x.background.shape[1:], dtype=carried.dtype)
        background[1] = 1
        return x.like(grad_x, background, (first, first * sums, pooled))
    grad_y = np.asarray(grad_y)
    grad_x = np.zeros(x.shape, dtype=grad_y.dtype)
    _route_to_first_max(grad_y, y, _window_views(x), _window_views(grad_x))
    return grad_x


def _channels(v, ndim: int):
    """A per-channel vector shaped to broadcast along axis 1 of an ndim tensor."""
    return v.reshape((-1,) + (1,) * (ndim - 2))


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

    The statistics of a ``Windowed`` input count each class's value once
    per position of that class outside the windows: the mean adds count *
    value per class to the window sum, and the variance, taken about that
    mean (two passes, not E[x^2] - E[x]^2), adds count * (value - mean)^2.
    Window values and class values are then normalized alike, and the
    cached x_hat is ``Windowed`` too.
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
            counts, background = x.class_counts().astype(values.dtype), x.background
            n = len(values) * math.prod(x.dims)
            mean = (values.sum(axis=axes) + (counts * background).sum(axis=(0, 2, 3, 4))) / n
            deviation = values - _channels(mean, values.ndim)
            np.square(deviation, out=deviation)
            spread = counts * (background - _channels(mean, 5)) ** 2
            var = (deviation.sum(axis=axes) + spread.sum(axis=(0, 2, 3, 4))) / n
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

    For a ``Windowed`` gradient the positions outside the windows add
    their sums to those of g (beta's gradient) and of g * x_hat (gamma's),
    per cell of the pattern grid (``_outside``), and the same affine maps each class's
    constant and multiple: the multiple by gamma * inv_std alone.
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
        grad_gamma += _outside(grad_y, x_hat).sum(axis=(1, 2, 3))
        grad_beta += _outside(grad_y).sum(axis=(1, 2, 3))
        n = len(g) * math.prod(grad_y.dims)
    # (n * gamma * g - sum(gamma * g) - x_hat * sum(gamma * g * x_hat)) * inv_std / n,
    # whose two sums are gamma times grad_beta and grad_gamma: one affine of g and x_hat
    scale = gamma * inv_std
    slope_g, slope_x, shift = scale, -scale * grad_gamma / n, -scale * grad_beta / n
    grad_x = g * _channels(slope_g, g.ndim)
    grad_x += xh * _channels(slope_x, g.ndim)
    grad_x += _channels(shift, g.ndim)
    if windowed:
        background = grad_y.background * _channels(slope_g, 5)
        background[:1] += x_hat.background * _channels(slope_x, 5) + _channels(shift, 5)
        grad_x = grad_y.like(grad_x, background)
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
