"""Gradient correctness is the load-bearing property of the network layers:
every analytic backward pass is checked against central finite differences
on random small tensors, and the convolution forward against a seven-loop
brute-force oracle.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from gluevol import config, scansim, voxelizer
from gluevol.neuralvol import layers, network
from gluevol.neuralvol.layers import ShapeMismatch
from gluevol.util import LengthMismatch

RNG = np.random.default_rng(2024)


def central_diff_check(loss_fn, arrays, grads, h=1e-5, rel_tol=1e-4, probes=8):
    """Compare analytic gradients to central differences on random entries."""
    for arr, grad in zip(arrays, grads):
        flat, gflat = arr.ravel(), grad.ravel()
        idx = RNG.choice(flat.size, size=min(probes, flat.size), replace=False)
        for i in idx:
            original = flat[i]
            flat[i] = original + h
            up = loss_fn()
            flat[i] = original - h
            down = loss_fn()
            flat[i] = original
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            assert abs(numeric - gflat[i]) / denom < rel_tol


def conv3d_bruteforce(x, w, b):
    """Direct seven-loop cross-correlation, stride 1, padding k // 2."""
    batch, _, dx, dy, dz = x.shape
    c_out, _, k, _, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)))
    y = np.zeros((batch, c_out, dx, dy, dz))
    for bi in range(batch):
        for o in range(c_out):
            for i in range(dx):
                for j in range(dy):
                    for l in range(dz):
                        patch = xp[bi, :, i : i + k, j : j + k, l : l + k]
                        y[bi, o, i, j, l] = (patch * w[o]).sum() + b[o]
    return y


class TestConv3d:
    def test_all_ones_cube_sums(self):
        # each output counts the ones its 3^3 patch covers inside the grid
        x = np.ones((1, 2, 3, 3, 3))
        w = np.ones((1, 2, 3, 3, 3))
        y, _ = layers.conv3d_forward(x, w, np.zeros(1))
        assert y.shape == (1, 1, 3, 3, 3)
        assert y[0, 0, 1, 1, 1] == 2 * 27.0
        assert y[0, 0, 0, 0, 0] == 2 * 8.0
        assert y[0, 0, 0, 1, 2] == 2 * 12.0

    def test_zero_input_gives_bias(self):
        x = np.zeros((2, 3, 4, 4, 4))
        w = RNG.standard_normal((5, 3, 3, 3, 3))
        b = RNG.standard_normal(5)
        y, _ = layers.conv3d_forward(x, w, b)  # the class columns, Windowed
        assert np.allclose(densify(y), b[:, None, None, None])

    @pytest.mark.parametrize("shape,c_out", [((1, 2, 4, 4, 4), 3), ((2, 1, 5, 4, 6), 2)])
    def test_matches_bruteforce(self, shape, c_out):
        x = RNG.standard_normal(shape)
        w = RNG.standard_normal((c_out, shape[1], 3, 3, 3))
        b = RNG.standard_normal(c_out)
        y, _ = layers.conv3d_forward(x, w, b)
        assert np.allclose(y, conv3d_bruteforce(x, w, b), atol=1e-12)

    def test_even_kernel_raises(self):
        x, w = np.zeros((1, 1, 4, 4, 4)), np.zeros((1, 1, 2, 2, 2))
        with pytest.raises(ShapeMismatch):
            layers.conv3d_forward(x, w, np.zeros(1))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            layers.conv3d_forward(
                np.zeros((1, 2, 4, 4, 4)), np.zeros((1, 3, 3, 3, 3)), np.zeros(1)
            )

    def test_gradients_against_finite_differences(self):
        for _ in range(5):
            x = RNG.standard_normal((2, 2, 4, 4, 4))
            w = RNG.standard_normal((3, 2, 3, 3, 3))
            b = RNG.standard_normal(3)
            proj = RNG.standard_normal((2, 3, 4, 4, 4))

            def loss():
                y, _ = layers.conv3d_forward(x, w, b)
                return float((y * proj).sum())

            _, cache = layers.conv3d_forward(x, w, b)
            gx, gw, gb = layers.conv3d_backward(proj, cache)
            central_diff_check(loss, (x, w, b), (gx, gw, gb))

    def test_skip_input_grad(self):
        x = RNG.standard_normal((1, 1, 4, 4, 4))
        w = RNG.standard_normal((2, 1, 3, 3, 3))
        _, cache = layers.conv3d_forward(x, w, np.zeros(2))
        gx, gw, gb = layers.conv3d_backward(np.ones((1, 2, 4, 4, 4)), cache, need_input_grad=False)
        assert gx is None and gw.shape == w.shape

    def test_float32_preserved(self):
        x = RNG.standard_normal((1, 1, 4, 4, 4)).astype(np.float32)
        w = RNG.standard_normal((2, 1, 3, 3, 3)).astype(np.float32)
        y, cache = layers.conv3d_forward(x, w, np.zeros(2, dtype=np.float32))
        assert y.dtype == np.float32
        gx, gw, _ = layers.conv3d_backward(y, cache)
        assert gx.dtype == np.float32 and gw.dtype == np.float32


# The oracles below take their GEMMs over chunks of as many samples as this
# many bytes of patch matrix hold.
COL_BUDGET = 96 * 1024 * 1024


def im2col(x_pad, k):
    """(B, Cin*k^3, n_positions) patch matrix of every k^3 patch of x_pad,
    by k^3 slice copies."""
    batch, c_in = x_pad.shape[:2]
    ox, oy, oz = (d - k + 1 for d in x_pad.shape[2:])
    col = np.empty((batch, c_in, k, k, k, ox, oy, oz), dtype=x_pad.dtype)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                col[:, :, a, b, c] = x_pad[:, :, a : a + ox, b : b + oy, c : c + oz]
    return col.reshape(batch, c_in * k**3, ox * oy * oz)


def chunked_correlate(x_pad, w_mat, k, out_dims):
    """Correlation of x_pad without tiles: one im2col patch matrix and one
    batched GEMM per ``COL_BUDGET`` chunk of samples."""
    batch, c_out = x_pad.shape[0], w_mat.shape[0]
    n_positions = int(np.prod(out_dims))
    chunk = max(1, COL_BUDGET // (w_mat.shape[1] * n_positions * x_pad.itemsize))
    y = np.empty((batch, c_out) + tuple(out_dims), dtype=x_pad.dtype)
    flat = y.reshape(batch, c_out, n_positions)
    for lo in range(0, batch, chunk):
        col = im2col(x_pad[lo : lo + chunk], k)
        np.matmul(w_mat, col, out=flat[lo : lo + chunk])
    return y


def pad_spatial(x, p):
    """x in a frame of p zeros along its last three axes."""
    return np.pad(x, ((0, 0), (0, 0)) + ((p, p),) * 3)


def active_outputs(x, k=3):
    """The dilation oracle: outputs whose k^3 patch holds a position off
    the background that ``_background_active`` picks, by k^3 shifted ORs."""
    _, mask = layers._background_active(x)
    padded = np.pad(mask, ((0, 0),) + ((k // 2, k // 2),) * 3)
    active = np.zeros_like(mask)
    for a, b, c in itertools.product(range(k), repeat=3):
        active |= padded[:, a : a + mask.shape[1], b : b + mask.shape[2], c : c + mask.shape[3]]
    return active


def dense_conv(x, w, b):
    """The forward oracle: pad, one im2col GEMM per sample, bias."""
    k = w.shape[2]
    w_mat = np.ascontiguousarray(w.reshape(w.shape[0], -1))
    y = chunked_correlate(pad_spatial(x, k // 2), w_mat, k, x.shape[2:])
    y += b[:, None, None, None]
    return y


# Binary-conv inputs draw from their own generator, so the draws of the
# other tests in this file do not depend on which of these ran.
BINARY_RNG = np.random.default_rng(7)


def height_fields(batch, dims=(12, 12, 24), columns=0.1, dtype=np.float64):
    """One occupied voxel at a random height in a random tenth of the columns."""
    nx, ny, nz = dims
    x = np.zeros((batch, 1) + dims, dtype=dtype)
    s, i, j = np.nonzero(BINARY_RNG.random((batch, nx, ny)) < columns)
    x[s, 0, i, j, BINARY_RNG.integers(0, nz, s.size)] = 1
    x[0, 0, -1, -1, -1] = 0  # the background-class path's reference position
    return x


def conv_weights(dtype, k=3, c_out=8):
    w = BINARY_RNG.standard_normal((c_out, 1, k, k, k)).astype(dtype)
    b = BINARY_RNG.standard_normal(c_out).astype(dtype)
    b[:2] = [0.0, -0.0]  # 0 + b must keep the GEMM's sign of zero
    return w, b


def assert_same_bits(y, expected):
    assert y.dtype == expected.dtype and y.shape == expected.shape
    assert y.tobytes() == expected.tobytes()


def forward_columns(monkeypatch, x, w, b):
    """conv3d_forward, and which columns its GEMMs computed: "binary" where
    a binary grid's voxels (``_occupied``) gave the active positions and
    the classes, "background" where ``_background_active``'s positions off
    the background did, "every" where every position was computed."""
    found = {}

    def spy(name, original):
        def call(*args):
            found[name] = original(*args)
            return found[name]
        return call

    with monkeypatch.context() as m:
        for name in ("_occupied", "_active_corners"):
            m.setattr(layers, name, spy(name, getattr(layers, name)))
        y, cache = layers.conv3d_forward(x, w, b)
    columns = "every" if found.get("_active_corners") is None else (
        "background" if found.get("_occupied") is None else "binary")
    # The output is Windowed where the class columns ran and the pool
    # divides the dims. A binary grid's Windowed output caches x as given,
    # its voxels and its slot table; any other caches x in the kernel's dtype.
    windowed = isinstance(y, layers.Windowed)
    assert windowed == (columns != "every" and not any(d % layers.POOL for d in x.shape[2:]))
    binary = windowed and columns == "binary"
    assert (cache[2] is not None) == (cache[3] is not None) == binary
    assert cache[0] is x or not binary and cache[0].dtype == y.dtype != x.dtype
    return y, columns


def sparse_forward(monkeypatch, x, w, b, path):
    """conv3d_forward of an input that must take the class columns of the
    given path."""
    y, columns = forward_columns(monkeypatch, x, w, b)
    assert columns == path, f"{columns} ran where {path} should have"
    return y


def background_forward(monkeypatch, x, w, b):
    """conv3d_forward of an input that must take the background-class
    columns of ``_background_active``."""
    return sparse_forward(monkeypatch, x, w, b, "background")


def every_position_forward(monkeypatch, x, w, b):
    """conv3d_forward of an input that must compute every position."""
    y, columns = forward_columns(monkeypatch, x, w, b)
    assert columns == "every", "the input should have computed every position"
    assert not isinstance(y, layers.Windowed)
    return y


class TestBinaryConv:
    """Binary grids take the class columns from their voxels in the
    ``Windowed`` form; made dense by ``densify``, its output has the im2col
    oracle's bytes. A spy on ``_occupied`` and ``_active_corners`` tells
    which path ran."""

    @staticmethod
    def sparse_forward(monkeypatch, x, w, b):
        y = sparse_forward(monkeypatch, x, w, b, "binary")
        assert isinstance(y, layers.Windowed)
        return densify(y)

    @staticmethod
    def dense_form_forward(monkeypatch, x, w, b, path="binary"):
        y = sparse_forward(monkeypatch, x, w, b, path)
        assert not isinstance(y, layers.Windowed)
        return y

    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_height_fields_match_gemm(self, monkeypatch, dtype, batch):
        # one tile covers a 12x12x24 grid, so batch 1 computes every position
        x = height_fields(batch, dtype=dtype)
        w, b = conv_weights(dtype)
        forward = every_position_forward if batch == 1 else self.sparse_forward
        assert_same_bits(forward(monkeypatch, x, w, b), dense_conv(x, w, b))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_voxelized_scans_match_gemm(self, monkeypatch, dtype):
        # every region of the tiny panel, one grid at a time as in
        # inspection (a compact GEMM over the active columns fails here)
        cfg = config.tiny_profile_config(0)
        pcb = cfg.pcbs()[0]
        w, b = conv_weights(dtype)
        for region in pcb.regions():
            cloud = scansim.raster_scan(pcb, region, cfg.scan)
            x = voxelizer.build_grid(cloud, cfg.grid).occupancy[None, None].astype(dtype)
            y = self.sparse_forward(monkeypatch, x, w, b)
            assert_same_bits(y, dense_conv(x, w, b))

    @staticmethod
    def voxels_on_every_face(dims):
        x = np.zeros((2, 1) + dims)
        x[0, 0, 0, 4, 5] = x[0, 0, -1, 3, 2] = 1  # x faces
        x[0, 0, 5, 0, 7] = x[1, 0, 2, -1, 1] = 1  # y faces
        x[1, 0, 6, 6, 0] = x[1, 0, 3, 8, -1] = 1  # z faces
        x[1, 0, -1, -1, -1] = x[1, 0, 0, 0, 0] = 1  # corners
        return x

    @pytest.mark.parametrize("k", [3, 5])
    def test_voxels_on_every_face_match_gemm(self, monkeypatch, k):
        x = self.voxels_on_every_face((16, 18, 20))
        w, b = conv_weights(np.float64, k=k)
        assert_same_bits(self.sparse_forward(monkeypatch, x, w, b), dense_conv(x, w, b))

    @pytest.mark.parametrize("batch", [2, 3])
    def test_sample_order_does_not_pick_the_background(self, monkeypatch, batch):
        # Sample 0's last voxel, where the background is read, is set. The
        # commonest value there is the background, the lower one on a tie
        # (batch 2), so the batch takes the class columns as in any other
        # order.
        x = self.voxels_on_every_face((16, 18, 20))[::-1]
        x = np.concatenate([x, np.zeros_like(x[:1])])[:batch]
        assert x[0, 0, -1, -1, -1] == 1 and not x[1:, 0, -1, -1, -1].any()
        rng = np.random.default_rng(5)
        w, b = rng.standard_normal((8, 1, 3, 3, 3)), rng.standard_normal(8)
        assert_same_bits(self.sparse_forward(monkeypatch, x, w, b), dense_conv(x, w, b))

    def test_dims_the_pool_does_not_divide_are_dense(self, monkeypatch):
        x = self.voxels_on_every_face((16, 17, 18))
        w, b = conv_weights(np.float64)
        assert_same_bits(self.dense_form_forward(monkeypatch, x, w, b), dense_conv(x, w, b))

    def test_empty_grid_is_bias(self, monkeypatch):
        x = np.zeros((2, 1, 8, 8, 16))
        w, b = conv_weights(np.float64)
        y = self.sparse_forward(monkeypatch, x, w, b)
        assert_same_bits(y, dense_conv(x, w, b))
        assert np.array_equal(y, np.broadcast_to(b[:, None, None, None], y.shape))

    def test_every_binary_grid_with_class_columns_is_windowed(self, monkeypatch):
        # about a third of the outputs active, six times a tiny height field
        x = height_fields(4, columns=0.4)
        active = active_outputs(x)
        share = np.count_nonzero(active) / active.size
        assert 0.3 < share <= layers._BACKGROUND_MAX_ACTIVE
        w, b = conv_weights(np.float64)
        assert_same_bits(self.sparse_forward(monkeypatch, x, w, b), dense_conv(x, w, b))

    def test_dense_binary_input_computes_every_position(self, monkeypatch):
        x = (BINARY_RNG.random((2, 1, 8, 8, 16)) < 0.3).astype(np.float64)
        w, b = conv_weights(np.float64)
        assert_same_bits(every_position_forward(monkeypatch, x, w, b), dense_conv(x, w, b))

    @pytest.mark.parametrize("value", [0.5, np.nan])
    def test_non_binary_input_takes_the_background_columns(self, monkeypatch, value):
        x = height_fields(2)
        x[1, 0, 4, 4, 4] = value
        w, b = conv_weights(np.float64)
        y = sparse_forward(monkeypatch, x, w, b, "background")
        assert_same_bits(densify(y), dense_conv(x, w, b))


# Grid-dtype inputs draw from their own generator as well.
GRID_RNG = np.random.default_rng(23)


def mixed_grids(dims=(16, 18, 20)):
    """Three samples whose window counts differ: voxels at every position
    whose coordinates are each first, middle or last (the 8 corners, 12
    edges, 6 faces and the interior), one voxel, and none."""
    x = np.zeros((3, 1) + dims, dtype=bool)
    x[(0, 0) + np.ix_(*[[0, d // 2, d - 1] for d in dims])] = True
    x[1, 0, 3, 4, 5] = True
    return x


class TestBinaryInputs:
    """Every dtype a binary grid comes in takes the voxel path, in the
    kernel's dtype where the grid is not float, with the im2col oracle's
    bytes; a grid that is not binary takes the float path."""

    @staticmethod
    def oracle(x, w, b):
        dtype = x.dtype if x.dtype in (np.float32, np.float64) else w.dtype
        return dense_conv(x.astype(dtype), w.astype(dtype), b.astype(dtype))

    @pytest.mark.parametrize("kernel", [np.float64, np.float32])
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.float32, np.float64])
    def test_grid_dtypes_match_the_oracle(self, monkeypatch, dtype, kernel):
        w, b = conv_weights(kernel)
        heights = height_fields(4, dtype=np.float64).astype(dtype)
        for x in (mixed_grids().astype(dtype), heights):
            y = sparse_forward(monkeypatch, x, w, b, "binary")
            assert isinstance(y, layers.Windowed)
            assert_same_bits(densify(y), self.oracle(x, w, b))
            # every class has the all-zero patch: all 27 share the centre's bytes
            centre = y.background[:, :, 1:2, 1:2, 1:2]
            assert_same_bits(y.background, np.ascontiguousarray(np.broadcast_to(centre, y.background.shape)))

    @pytest.mark.parametrize("dtype,value", [(np.uint8, 2), (np.float64, -0.0), (np.float64, 0.5),
                                             (np.float64, np.nan), (np.float32, -0.0)])
    def test_non_binary_grids_take_the_float_path(self, monkeypatch, dtype, value):
        x = mixed_grids().astype(dtype)
        x[2, 0, 7, 8, 9] = value
        w, b = conv_weights(np.float64)
        y = sparse_forward(monkeypatch, x, w, b, "background")
        assert_same_bits(densify(y), self.oracle(x, w, b))

    def test_window_counts_differ_within_a_batch(self, monkeypatch):
        # The batch carries the windows its active positions touch, flat in
        # (sample, window) order, then its first untouched ones to fill
        # rows of one width; the empty sample's windows are not carried.
        x = mixed_grids()
        w, b = conv_weights(np.float64)
        y = sparse_forward(monkeypatch, x, w, b, "binary")
        assert_same_bits(densify(y), self.oracle(x, w, b))
        active = active_outputs(x)
        touched = active.reshape(3, 8, 2, 9, 2, 10, 2).any(axis=(2, 4, 6)).reshape(3, -1)
        counts = touched.sum(axis=1)
        assert counts[0] > counts[1] > counts[2] == 0
        width = -(-counts.sum() // 3)
        untouched = np.flatnonzero(~touched)[: 3 * width - counts.sum()]
        expected = np.sort(np.concatenate([np.flatnonzero(touched), untouched]))
        assert y.windows.tolist() == expected.reshape(3, width).tolist()

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_empty_grid_is_bias(self, monkeypatch, dtype):
        x = np.zeros((2, 1, 8, 8, 16), dtype=dtype)
        w, b = conv_weights(np.float32)
        y = sparse_forward(monkeypatch, x, w, b, "binary")
        assert y.shape == (2, 8, 8, 0) and y.dtype == np.float32
        # 0 + b, so -0.0 becomes +0.0, the one value of every class
        assert np.array_equal(y.background, np.broadcast_to(b[None, :, None, None, None], (1, 8, 3, 3, 3)))
        assert_same_bits(densify(y), self.oracle(x, w, b))

    def test_memory_stays_below_the_float_frame_path(self, monkeypatch):
        # Block 0's training forward: the tiny panel's uint8 grids, float32,
        # batch 32. The parent path, which copied the batch to a float32
        # frame and scanned full-size masks, peaked at 45.96 MB under
        # tracemalloc; this one peaks at 22.06 MB and holds 9.00 MB when the
        # GEMMs start, below the 10.07 MB a float32 frame of the batch
        # would take alone.
        grids, net = panel_grids(32)
        blk = network.init_weights(net, seed=3).cast(np.float32).blocks[0]
        grids, frame = grids.astype(np.uint8), (32 + 1) * 34 * 34 * 66 * 4
        held, gemm = [], layers._gemm_columns
        monkeypatch.setattr(layers, "_gemm_columns",
                            lambda *args: held.append(tracemalloc.get_traced_memory()[0]) or gemm(*args))
        tracemalloc.start()
        try:
            y, _ = layers.conv3d_forward(grids, blk.conv_w, blk.conv_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(y, layers.Windowed)
        assert peak < 45.96e6 and held and max(held) < frame


# Dense-conv inputs draw from their own generator as well.
TILE_RNG = np.random.default_rng(10)


def col2im_backward(grad_y, x, w):
    """The conv backward by im2col and col2im, the oracle of the gathered
    one: per chunk, the weight gradient as one batched GEMM summed over the
    chunk, and the input gradient lifted by one GEMM and scattered back by
    k^3 strided slice-adds."""
    batch, c_in = x.shape[:2]
    c_out, k = w.shape[0], w.shape[2]
    ox, oy, oz = out_dims = grad_y.shape[2:]
    grad_flat = grad_y.reshape(batch, c_out, -1)
    p = k // 2
    x_pad = pad_spatial(x, p)
    chunk = max(1, COL_BUDGET // (c_in * k**3 * ox * oy * oz * x.itemsize))
    grad_w = np.zeros((c_out, c_in * k**3), dtype=x.dtype)
    grad_x = np.zeros_like(x_pad)
    w_t = np.ascontiguousarray(w.reshape(c_out, -1).T)
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        col = im2col(x_pad[lo:hi], k)
        grad_w += np.matmul(grad_flat[lo:hi], col.transpose(0, 2, 1)).sum(axis=0)
        col_grad = np.matmul(w_t, grad_flat[lo:hi]).reshape(hi - lo, c_in, k, k, k, ox, oy, oz)
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    grad_x[lo:hi, :, a : a + ox, b : b + oy, c : c + oz] += col_grad[:, :, a, b, c]
    grad_x = grad_x[:, :, p : grad_x.shape[2] - p, p : grad_x.shape[3] - p, p : grad_x.shape[4] - p]
    # the bias gradient in float64: a float32 sum over the (0, 2, 3, 4) axes
    # accumulates naively, and on block 1's windowed gradients, whose
    # constant classes cancel, it strayed 5x past TestCarriedBackward.RTOL
    grad_b = grad_y.sum(axis=(0, 2, 3, 4), dtype=np.float64).astype(grad_y.dtype)
    return grad_x, grad_w.reshape(w.shape), grad_b


class TestDenseConvBits:
    """On the dense tiny-net blocks 1-4, the forward, which gathers the
    patch columns of every position a tile at a time, is bit-identical to
    the chunked im2col GEMM (``dense_conv``), and the backward's gathered
    gradients agree with an im2col GEMM and col2im to float rounding.

    The forward computes every output element as the same dot product,
    only in GEMMs of another N (tiles). So it asserts a property of the
    BLAS: a GEMM element's sum over K is the same for any N that is a
    multiple of 16 (the tiny net's patch counts are). It held on the
    single-thread OpenBLAS 0.3.31 these were written with, whose float64
    GEMM sums the last N mod 8 columns in another order; on a BLAS where it
    fails, these tests and those of the background-class path fail together.

    The backward gathers grad_y's k^3 tap rows at every position
    (``layers._carried_backward``), so its input and weight gradients sum
    in another order than ``col2im_backward``: each is within
    ``TestCarriedBackward.RTOL[dtype] * max|oracle|``. Over these 42 cases
    the worst were 9.7e-7 in float32 and 1.8e-15 in float64. The bias
    gradient is grad_y's sum, as in the oracle.
    """

    # (c_in, c_out, input dims) of blocks 1-4 of the tiny net
    BLOCKS = [(8, 16, (16, 16, 32)), (16, 32, (8, 8, 16)), (32, 64, (4, 4, 8)), (64, 128, (2, 2, 4))]

    @staticmethod
    def compare(x, w, b, need_input_grad=True):
        y, cache = layers.conv3d_forward(x, w, b)
        assert_same_bits(y, dense_conv(x, w, b))
        grad_y = TILE_RNG.standard_normal(y.shape).astype(x.dtype)
        grads = layers.conv3d_backward(grad_y, cache, need_input_grad=need_input_grad)
        oracle = col2im_backward(grad_y, x, w)
        if not need_input_grad:
            assert grads[0] is None
            grads, oracle = grads[1:], oracle[1:]
        rtol = TestCarriedBackward.RTOL[x.dtype.type]
        for grad, expected in zip(grads, oracle):
            assert type(grad) is np.ndarray and grad.dtype == expected.dtype
            assert grad.shape == expected.shape
            assert np.all(np.abs(grad - expected) <= rtol * np.abs(expected).max())

    @staticmethod
    def inputs(c_in, c_out, dims, batch, dtype):
        x = TILE_RNG.standard_normal((batch, c_in) + dims).astype(dtype)
        w = TILE_RNG.standard_normal((c_out, c_in, 3, 3, 3)).astype(dtype)
        b = TILE_RNG.standard_normal(c_out).astype(dtype)
        return x, w, b

    @pytest.mark.parametrize("batch", [1, 3, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out,dims", BLOCKS)
    def test_blocks_match_im2col(self, c_in, c_out, dims, dtype, batch):
        self.compare(*self.inputs(c_in, c_out, dims, batch, dtype))

    @pytest.mark.parametrize("tile", ["slabs", "samples"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out,dims", BLOCKS)
    def test_tile_sizes_match_im2col(self, monkeypatch, c_in, c_out, dims, dtype, tile):
        # slabs of 3 x-planes (1 where x has 2) that leave a shorter last
        # slab, or tiles of 2 samples that leave a single one at batch 3
        plane = c_in * 27 * dims[1] * dims[2] * np.dtype(dtype).itemsize
        if tile == "slabs":
            budget = plane * (3 if dims[0] > 3 else 1)
        else:
            budget = plane * dims[0] * 5 // 2
        monkeypatch.setattr(layers, "_TILE_BYTES", budget)
        self.compare(*self.inputs(c_in, c_out, dims, 3, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_input_grad(self, dtype):
        self.compare(*self.inputs(8, 16, (10, 6, 18), 3, dtype), need_input_grad=False)


# Background-conv inputs draw from their own generator too.
BACKGROUND_RNG = np.random.default_rng(13)


def background_input(batch, dims=(16, 16, 32), c_in=8, dtype=np.float64, columns=0.15):
    """Block 1's input form: one per-channel background vector, and in a
    share of the (x, y) columns a z-run of 1-3 positions off it."""
    background = BACKGROUND_RNG.standard_normal(c_in)
    x = np.empty((batch, c_in) + dims)
    x[...] = background[:, None, None, None]
    s, i, j = np.nonzero(BACKGROUND_RNG.random((batch,) + dims[:2]) < columns)
    z = BACKGROUND_RNG.integers(0, dims[2] - 3, s.size)
    for run in range(3):
        keep = BACKGROUND_RNG.random(s.size) < 0.7 if run else slice(None)
        x[s[keep], :, i[keep], j[keep], z[keep] + run] = BACKGROUND_RNG.standard_normal(
            (np.size(s[keep]), c_in))
    x[0, :, -1, -1, -1] = background  # the reference position
    return x.astype(dtype)


def block_weights(dtype, c_in=8, c_out=16):
    w = BACKGROUND_RNG.standard_normal((c_out, c_in, 3, 3, 3)).astype(dtype)
    b = BACKGROUND_RNG.standard_normal(c_out).astype(dtype)
    b[:2] = [0.0, -0.0]
    return w, b


def panel_grids(count):
    """The tiny panel's regions voxelized, over as many scan passes as
    ``count`` grids need."""
    cfg = config.tiny_profile_config(0)
    pcb = cfg.pcbs()[0]
    grids = [voxelizer.build_grid(scansim.raster_scan(pcb, region, cfg.scan, scan_pass),
                                  cfg.grid).occupancy
             for scan_pass in range(2) for region in pcb.regions()]
    return np.stack(grids[:count])[:, None], cfg.net


class TestBackgroundConv:
    """Inputs of several channels that mostly equal one per-channel
    background vector take the background-class columns in the dense form
    (the tile test runs a binary grid too, from its voxels), as a spy on
    ``_occupied`` and ``_active_corners`` tells; the output has the bytes of the im2col
    oracle (``dense_conv``). Like ``TestDenseConvBits``, this rests on the
    BLAS summing a column alike in any GEMM of the same N, a multiple of 16."""

    def check(self, monkeypatch, x, w, b):
        y = background_forward(monkeypatch, x, w, b)
        y = densify(y) if isinstance(y, layers.Windowed) else y
        assert_same_bits(y, dense_conv(x, w, b))
        return y

    @staticmethod
    def block1_inputs(monkeypatch, dtype, batch):
        """Block 1's inputs on the tiny panel's voxelized scans: eval
        forwards in float64, training forwards in float32."""
        grids, net = panel_grids(24)
        grids = grids.astype(dtype)
        weights = network.init_weights(net, seed=3).cast(dtype)
        inputs, conv = [], layers.conv3d_forward

        def spy(x, w, b):
            inputs.append(x)
            return conv(x, w, b)

        with monkeypatch.context() as m:
            m.setattr(layers, "conv3d_forward", spy)
            for lo in range(0, len(grids), batch):
                network.rnet_forward(grids[lo : lo + batch], weights, net,
                                     training=dtype == np.float32)
        blocks = len(net.channels)
        block1 = weights.blocks[1]
        return inputs[1::blocks], block1.conv_w, block1.conv_b

    @pytest.mark.parametrize("dtype,batch", [(np.float64, 1), (np.float32, 8)])
    def test_block1_inputs_on_height_fields(self, monkeypatch, dtype, batch):
        inputs, w, b = self.block1_inputs(monkeypatch, dtype, batch)
        assert len(inputs) == 24 // batch and inputs[0].shape[1:] == (8, 16, 16, 32)
        for x in inputs:
            self.check(monkeypatch, x, w, b)

    @pytest.mark.parametrize("batch", [1, 4, 32, 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batches_and_dtypes(self, monkeypatch, dtype, batch):
        x = background_input(batch, dtype=dtype)
        self.check(monkeypatch, x, *block_weights(dtype))

    @pytest.mark.parametrize("columns", [0.1, 0.0])
    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block2_shape(self, monkeypatch, dtype, batch, columns):
        # K = 432, where a GEMM of N <= 64 sums in another order: with one
        # position off the background, 54 columns still take the dense N
        x = background_input(batch, dims=(8, 8, 16), c_in=16, dtype=dtype, columns=columns)
        x[0, :, 4, 4, 8] += 1
        self.check(monkeypatch, x, *block_weights(dtype, c_in=16, c_out=32))

    def test_off_background_on_faces_edges_and_corners(self, monkeypatch):
        x = background_input(3, dims=(8, 8, 16), columns=0)
        for s, position in [(0, (0, 4, 5)), (0, (-1, 3, 2)), (1, (5, 0, 7)), (1, (2, -1, 1)),
                            (2, (6, 6, 0)), (2, (3, 5, -1)),  # faces
                            (0, (0, 0, 9)), (1, (-1, 4, -1)), (2, (3, -1, 0)),  # edges
                            (1, (0, 0, 0)), (2, (-1, -1, -1)), (2, (0, -1, 0))]:  # corners
            x[(s, slice(None)) + position] = BACKGROUND_RNG.standard_normal(8)
        w, b = block_weights(np.float64)
        self.check(monkeypatch, x, w, b)

    def test_all_background_is_one_value_per_class(self, monkeypatch):
        x = background_input(2, dims=(8, 8, 16), columns=0)
        w, b = block_weights(np.float64)
        y = self.check(monkeypatch, x, w, b)
        active = active_outputs(x)
        assert not active.any()
        interior = y[:, :, 1:-1, 1:-1, 1:-1]
        assert np.array_equal(interior, np.broadcast_to(interior[:1, :, :1, :1, :1], interior.shape))
        assert len(np.unique(y[0, 2])) == 27

    def test_mostly_active_input_computes_every_position(self, monkeypatch):
        x = background_input(2, dims=(8, 8, 16), columns=1.0)
        w, b = block_weights(np.float64)
        assert_same_bits(every_position_forward(monkeypatch, x, w, b), dense_conv(x, w, b))

    @pytest.mark.parametrize("background", [-0.0, np.nan])
    def test_other_bits_of_an_equal_value_are_off(self, monkeypatch, background):
        # +0.0 equals a -0.0 background and a NaN never equals itself; the
        # path tells positions apart by their bits
        x = background_input(2, dims=(8, 8, 16), columns=0.05)
        x[:, 3] = background
        x[0, 3, 2, 2, 2] = x[1, 3, 5, 6, 7] = -np.float64(background)
        w, b = block_weights(np.float64)
        self.check(monkeypatch, x, w, b)
        active = active_outputs(x)
        assert active[0, 1:4, 1:4, 1:4].all() and active[1, 4:7, 5:8, 6:9].all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("planes", [1, 3])
    def test_tiles_split_and_the_last_is_partial(self, monkeypatch, dtype, planes):
        # a 16x16x32 input of 8 channels, then a binary grid, both Windowed
        for x, (w, b) in [(background_input(4, dtype=dtype), block_weights(dtype)),
                          (height_fields(4, (16, 16, 32), 0.15, dtype), conv_weights(dtype))]:
            patch_rows = w[0].size
            monkeypatch.setattr(layers, "_TILE_BYTES", planes * patch_rows * 16 * 32 * x.itemsize)
            n = planes * 16 * 32
            active = active_outputs(x)
            binary = x.shape[1] == 1
            columns = np.count_nonzero(active) + (1 if binary else 27)
            assert columns > 2 * n and columns % n
            y = sparse_forward(monkeypatch, x, w, b, "binary" if binary else "background")
            assert_same_bits(densify(y), dense_conv(x, w, b))


def position_classes(d, k):
    """The class of each position along an axis of extent d: its place
    among the first k // 2 positions, the interior and the last k // 2."""
    r, p = np.arange(d), k // 2
    return np.where(r < p, r, np.where(r >= d - p, r + k - d, p))


def densify(t: layers.Windowed) -> np.ndarray:
    """The full-resolution tensor a forward ``Windowed`` stands for."""
    values = np.asarray(t)
    batch, channels = values.shape[:2]
    out = np.empty((batch, channels) + t.dims, dtype=values.dtype)
    k = t.background.shape[-1]
    i, j, l = (position_classes(d, k) for d in t.dims)
    out[...] = t.background[:, :, i[:, None, None], j[None, :, None], l[None, None, :]]
    sample, i, j, l = np.unravel_index(t.windows, (batch,) + tuple(d // layers.POOL for d in t.dims))
    offsets = itertools.product(range(layers.POOL), repeat=3)  # in (x, y, z) order
    for offset, (a, b, c) in enumerate(offsets):
        at = (sample, slice(None), i * layers.POOL + a, j * layers.POOL + b, l * layers.POOL + c)
        out[at] = values[:, :, offset].transpose(0, 2, 1)
    return out


def dense_grad(g: layers.Windowed) -> np.ndarray:
    """The full-resolution gradient a backward ``Windowed`` stands for, as
    the conv backward writes it into its frame."""
    return layers._grad_frame(g, 0, g.dtype).transpose(0, 4, 1, 2, 3)


def block0(x, w, b, gamma, beta, grad, dense):
    """conv -> leaky ReLU -> batchnorm -> max-pool and back, as the
    network's first block trains; ``dense`` runs the layers after the conv
    on its densified output, the oracle."""
    c = len(b)
    h, conv_cache = layers.conv3d_forward(x, w, b)
    if dense and isinstance(h, layers.Windowed):
        h = densify(h)
    h, relu_cache = layers.leaky_relu_forward(h)
    mean, var = np.zeros(c), np.ones(c)  # running statistics, updated in place
    h, bn_cache = layers.batchnorm3d_forward(h, gamma, beta, mean, var, training=True)
    y, pool_cache = layers.maxpool3d_forward(h)
    g = layers.maxpool3d_backward(grad, pool_cache)
    g, grad_gamma, grad_beta = layers.batchnorm3d_backward(g, bn_cache)
    g = layers.leaky_relu_backward(g, relu_cache)
    # a binary grid's Windowed conv backward gives no input gradient
    grad_x, grad_w, grad_b = layers.conv3d_backward(g, conv_cache, need_input_grad=x.shape[1] > 1)
    out = dict(y=y, mean=mean, var=var, grad_gamma=grad_gamma, grad_beta=grad_beta,
               grad_w=grad_w, grad_b=grad_b)
    if grad_x is not None:
        out["grad_x"] = grad_x
    return out, h, g


class TestWindowed:
    """A block on its active pool windows against the dense layers: block
    0's binary grids, whose classes share one value, and inputs of block
    1's form (one per-channel background and runs off it), whose classes
    differ.

    Tolerances: every output and gradient is within RTOL[dtype] *
    max|dense| of the dense path, except the conv bias gradient, a sum
    that mostly cancels, which is within RTOL[dtype] / 10 of the
    per-channel sum of |conv-output gradient|. Over 90 random batches per
    dtype (12x12x24 grids, batches 1, 4 and 32) the worst were 2.1e-6 and
    2.9e-7 in float32, 6.4e-15 and 4.1e-16 in float64. Over 60 batches
    per dtype of block 1's form (8x8x16 and 16x16x32 grids, batches 1, 4
    and 32) they were 7.4e-6 and 1.3e-7 in float32, 1.1e-14 and 3.6e-16
    in float64.
    """

    RTOL = {np.float64: 1e-13, np.float32: 2e-5}

    @staticmethod
    def params(rng, dtype, c_in=1):
        w = rng.standard_normal((8, c_in, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(8).astype(dtype)
        b[:2] = [0.0, -0.0]
        gamma = rng.normal(1.0, 0.5, 8).astype(dtype)
        gamma[1] = -abs(gamma[1])
        beta = rng.standard_normal(8).astype(dtype)
        return w, b, gamma, beta

    def compare(self, x, seed=0, windowed=True, atol=0.0):
        dtype = x.dtype.type
        rng = np.random.default_rng(seed)
        w, b, gamma, beta = self.params(rng, dtype, x.shape[1])
        grad = rng.standard_normal(x.shape[:1] + (8,) + tuple(d // 2 for d in x.shape[2:]))
        grad = grad.astype(dtype)
        dense, h_dense, g_dense = block0(x, w, b, gamma, beta, grad, dense=True)
        got, h, g = block0(x, w, b, gamma, beta, grad, dense=False)
        assert isinstance(h, layers.Windowed) == windowed
        assert isinstance(g, layers.Windowed) == windowed
        rtol = self.RTOL[dtype]
        if windowed:
            assert np.abs(densify(h) - h_dense).max() <= rtol * np.abs(h_dense).max()
        for name, want in dense.items():
            assert got[name].dtype == want.dtype and got[name].shape == want.shape, name
            if name == "grad_b":
                scale = np.abs(g_dense).sum(axis=(0, 2, 3, 4)) * rtol / 10
            else:
                scale = rtol * np.abs(want).max()
            assert np.all(np.abs(got[name] - want) <= scale + atol), name
        return got, dense

    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_height_fields_match_dense(self, monkeypatch, dtype, batch):
        # tiles of 4 x-planes: a batch-1 grid is then more than one tile
        # and, as larger batches, takes the Windowed form
        monkeypatch.setattr(layers, "_TILE_BYTES", 4 * 27 * 12 * 24 * np.dtype(dtype).itemsize)
        rng = np.random.default_rng(batch)
        for seed in range(3):
            x = np.zeros((batch, 1, 12, 12, 24), dtype=dtype)
            s, i, j = np.nonzero(rng.random((batch, 12, 12)) < 0.05)
            x[s, 0, i, j, rng.integers(0, 24, s.size)] = 1
            self.compare(x, seed)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_voxels_on_faces_and_corners(self, dtype):
        x = np.zeros((2, 1, 8, 10, 12), dtype=dtype)
        x[0, 0, 0, 4, 5] = x[0, 0, -1, 3, 2] = 1  # x faces
        x[0, 0, 5, 0, 7] = x[1, 0, 2, -1, 1] = 1  # y faces
        x[1, 0, 6, 6, 0] = x[1, 0, 3, 8, -1] = 1  # z faces
        x[1, 0, -1, -1, -1] = x[1, 0, 0, 0, 0] = x[0, 0, 0, -1, 0] = 1  # corners
        self.compare(x)

    def test_empty_grid_is_all_background(self):
        # Zero variance: x_hat is rounding noise of the mean times
        # 1/sqrt(eps), so the batchnorm gradients get an absolute bound.
        x = np.zeros((3, 1, 8, 8, 16))
        got, _ = self.compare(x, atol=1e-11)
        assert np.all(got["grad_w"] == 0)
        h, _ = layers.conv3d_forward(x, *self.params(np.random.default_rng(0), np.float64)[:2])
        assert h.shape == (3, 8, 8, 0) and h.class_counts().sum() == 3 * 8 * 8 * 16

    def test_above_cutoff_takes_dense_path(self):
        x = (np.random.default_rng(3).random((4, 1, 8, 8, 16)) < 0.3).astype(np.float64)
        got, dense = self.compare(x, windowed=False)
        for name, want in dense.items():
            assert_same_bits(got[name], want)

    @pytest.mark.parametrize("batch,dims", [(1, (16, 16, 32)), (4, (8, 8, 16)), (32, (8, 8, 16))])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block1_inputs_match_dense(self, dtype, batch, dims):
        # the class columns of a background input, whose face classes differ
        for seed in range(2):
            x = background_input(batch, dims=dims, dtype=dtype, columns=0.1)
            got, _ = self.compare(x, seed)
            assert "grad_x" in got

    def test_background_maximum_takes_first_offset(self):
        # Pooled grid (1, 1, 2): window 0 is all background (0.5); window 1
        # is active, and its maximum is the background value, at offsets 2
        # and 5 in (x, y, z) order.
        values = np.array([0.1, -1.0, 0.5, 0.3, 0.2, 0.5, -2.0, 0.0])
        x = layers._windowed(values.reshape(1, 1, 8, 1), np.full((1, 1, 3, 3, 3), 0.5),
                             np.array([[1]]), (2, 2, 4))
        dense = np.full((1, 1, 2, 2, 4), 0.5)
        dense[0, 0, :, :, 2:] = values.reshape(2, 2, 2)
        y, cache = layers.maxpool3d_forward(x)
        y_dense, cache_dense = layers.maxpool3d_forward(dense)
        assert_same_bits(y, y_dense)
        grad = np.array([3.0, 7.0]).reshape(1, 1, 1, 1, 2)
        g = layers.maxpool3d_backward(grad, cache)
        g_dense = layers.maxpool3d_backward(grad, cache_dense)
        assert np.flatnonzero(g_dense).tolist() == [0, 6]  # (0,0,0) and (0,1,2)
        assert np.asarray(g).ravel().tolist() == [0, 0, 7.0, 0, 0, 0, 0, 0]
        assert_same_bits(dense_grad(g), g_dense)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pattern_maxima_reduce_in_the_dense_order(self, dtype):
        # No carried windows: every window's maximum is its pattern's.
        # Channel 0's classes are -0.0 and +0.0 in turn, so a window's
        # maximum keeps the sign of the zero the dense max-pool's z, y, x
        # passes keep; channel 1 holds one NaN class, which poisons its
        # windows and passes them no gradient; channel 2's classes differ.
        classes = np.empty((1, 3, 3, 3, 3), dtype=dtype)
        classes[0, 0] = np.where(np.arange(27) % 2, 0.0, -0.0).reshape(3, 3, 3)
        classes[0, 1] = 1.0
        classes[0, 1, 2, 0, 1] = np.nan
        classes[0, 2] = np.random.default_rng(0).standard_normal((3, 3, 3))
        dims = (6, 8, 10)
        x = layers._windowed(np.zeros((2, 3, 8, 0), dtype=dtype), classes,
                             np.zeros((2, 0), dtype=np.intp), dims)
        dense = densify(x)
        y, cache = layers.maxpool3d_forward(x)
        y_dense, cache_dense = layers.maxpool3d_forward(dense)
        assert_same_bits(y, y_dense)
        assert np.signbit(y[:, 0]).any() and not np.signbit(y[:, 0]).all()
        assert np.isnan(y[:, 1]).any()
        grad = np.random.default_rng(1).standard_normal(y.shape).astype(dtype)
        g = layers.maxpool3d_backward(grad, cache)
        assert_same_bits(dense_grad(g), layers.maxpool3d_backward(grad, cache_dense))


# Carried-window inputs draw from their own generator (see BINARY_RNG).
CARRIED_RNG = np.random.default_rng(17)


def carried_input(batch, dims, width, c_in=8, dtype=np.float64, padding=0.2):
    """Block 1's input form: each sample's ``width`` windows (ascending
    flat positions) hold random values, a share ``padding`` of them the
    background, and every other position one per-channel background. The
    windows are returned flat in the (batch,) + ``dims`` grid, a row a
    sample, as the layers hand them over."""
    size = int(np.prod(dims))
    windows = np.sort([CARRIED_RNG.choice(size, width, replace=False) for _ in range(batch)], axis=1)
    background = CARRIED_RNG.standard_normal(c_in)
    x = np.empty((batch, c_in, size))
    x[...] = background[:, None]
    values = CARRIED_RNG.standard_normal((batch, c_in, width))
    values = np.where(CARRIED_RNG.random((batch, 1, width)) < padding, background[:, None], values)
    np.put_along_axis(x, windows[:, None, :], values, axis=2)
    windows += size * np.arange(batch)[:, None]
    return x.reshape((batch, c_in) + dims).astype(dtype), windows, background.astype(dtype)


def block1_backward(monkeypatch, grids, net, dtype, switched_off=False):
    """The tiny net's training forward and backward on ``grids``; returns
    the parameter gradients and the arguments of block 1's conv backward.
    ``switched_off`` drops the first block's windows from that call, so it
    runs the dense backward, which gathers at every position."""
    weights = network.init_weights(net, seed=4).cast(dtype)
    pred, caches = network.rnet_forward(grids.astype(dtype), weights, net, training=True)
    assert isinstance(caches[0][3][1], layers.Windowed)
    grad = np.random.default_rng(len(grids)).standard_normal(pred.shape).astype(dtype)
    calls, conv = [], layers.conv3d_backward

    def spy(grad_y, cache, need_input_grad=True, carried=None):
        calls.append((grad_y, cache, carried))
        return conv(grad_y, cache, need_input_grad, None if switched_off else carried)

    with monkeypatch.context() as m:
        m.setattr(layers, "conv3d_backward", spy)
        grads = network.rnet_backward(grad, caches)
    carried = [call for call in calls if call[2] is not None]
    assert len(carried) == 1 and carried[0][1] is caches[1][0]
    return grads, carried[0]


class TestCarriedBackward:
    """Block 1's conv backward from one gather at block 0's carried windows
    against the im2col and col2im oracle (``col2im_backward``) on the same
    input.

    Tolerances: the input gradient at the windows and the weight gradient
    are within RTOL[dtype] * max|oracle|; the input gradient's per-channel
    total and the bias gradient, sums that mostly cancel, within
    RTOL[dtype] / 10 of the per-channel sum of |oracle input gradient| and
    of |grad_y|. Over 60 random batches per dtype (batches 1, 4 and 32,
    grids up to 16x16x32, 5-30% of the positions carried) and 20 tiny-panel
    batches per case, the worst were 2.5e-5 and 6.2e-8 in float32, 1.1e-14
    and 1.7e-16 in float64. The largest, the weight gradient on the panel
    at batch 32, is mostly the oracle's own rounding: against a float64
    backward of the same inputs (5 of those batches) the gather was within
    1.4e-6, the oracle within 2.5e-5.

    Through the network, every parameter gradient with the windows passed
    is within NET_RTOL[dtype] * max|switched off| of the same backward with
    them dropped, which gathers at every position. Over 20 panel batches
    per case (init seeds 0-19) the worst were 1.7e-4 in float32 at batch
    32 (block 0's batchnorm shift) and 3.4e-14 in float64 at batch 1. That
    shift reads the dense input gradient's sum outside the windows, and a
    float32 gather rounds each element about 3x worse than a per-tap sum
    does.
    """

    RTOL = {np.float64: 1e-13, np.float32: 1e-4}
    NET_RTOL = {np.float64: 1e-12, np.float32: 2e-4}

    def compare(self, grad_y, cache, carried):
        x = cache[0]
        if isinstance(grad_y, layers.Windowed):  # block 1's, as its max-pool backward built it
            grad_y = dense_grad(grad_y)
        windows, _ = carried
        got_x, got_w, got_b = layers.conv3d_backward(grad_y, cache, carried=carried)
        want_x, want_w, want_b = col2im_backward(grad_y, x, cache[1])
        rtol = self.RTOL[x.dtype.type]
        sample, position = np.divmod(windows[:, None, :], np.prod(x.shape[2:]))
        at = want_x.reshape(x.shape[:2] + (-1,))[sample, np.arange(x.shape[1])[:, None], position]
        assert isinstance(got_x, layers.Windowed) and got_x.dtype == x.dtype
        assert got_x.shape == at.shape[:2] + (1,) + at.shape[2:] and got_x.dims == x.shape[2:]
        assert np.all(np.abs(np.asarray(got_x)[:, :, 0] - at) <= rtol * np.abs(want_x).max())
        channel = (0, 2, 3, 4)
        total = np.asarray(got_x).sum(axis=(0, 2, 3)) + got_x.background
        assert np.all(np.abs(total - want_x.sum(axis=channel))
                      <= rtol / 10 * np.abs(want_x).sum(axis=channel))
        for got, want in ((got_w, want_w), (got_b, want_b)):
            assert got.dtype == want.dtype and got.shape == want.shape
        assert np.all(np.abs(got_w - want_w) <= rtol * np.abs(want_w).max())
        assert np.all(np.abs(got_b - want_b) <= rtol / 10 * np.abs(grad_y).sum(axis=channel))
        return got_x

    def check(self, x, windows, background, c_out=16):
        w = CARRIED_RNG.standard_normal((c_out, x.shape[1], 3, 3, 3)).astype(x.dtype)
        grad_y = CARRIED_RNG.standard_normal((len(x), c_out) + x.shape[2:]).astype(x.dtype)
        _, cache = layers.conv3d_forward(x, w, np.zeros(c_out, dtype=x.dtype))
        return self.compare(grad_y, cache, (windows, background))

    @pytest.mark.parametrize("dtype,batch", [(np.float64, 1), (np.float32, 32)])
    def test_tiny_panel_matches_dense(self, monkeypatch, dtype, batch):
        grids, net = panel_grids(batch)
        grads, (grad_y, cache, carried) = block1_backward(monkeypatch, grids, net, dtype)
        self.compare(grad_y, cache, carried)
        grads_off, _ = block1_backward(monkeypatch, grids, net, dtype, switched_off=True)
        for got, want in zip(grads, grads_off):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.all(np.abs(got - want) <= self.NET_RTOL[dtype] * np.abs(want).max())

    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_random_batches(self, dtype, batch):
        for share in (0.05, 0.3):
            width = int(share * 8 * 8 * 16)
            self.check(*carried_input(batch, (8, 8, 16), width, dtype=dtype))

    @pytest.mark.parametrize("dims", [(4, 6, 8), (3, 2, 1)])
    def test_windows_on_faces_edges_and_corners(self, dims):
        # every position whose coordinates are each first, middle or last:
        # the 8 corners, 12 edges and 6 faces, and the interior
        x, _, background = carried_input(2, dims, 1)
        ends = [np.unique([0, d // 2, d - 1]) for d in dims]
        flat = np.ravel_multi_index(tuple(c.ravel() for c in np.meshgrid(*ends, indexing="ij")), dims)
        x = x.reshape(x.shape[:2] + (-1,))
        x[...] = background[:, None]
        x[:, :, flat] = CARRIED_RNG.standard_normal((2, x.shape[1], flat.size))
        windows = np.stack([flat, flat + x.shape[2]])
        self.check(x.reshape(x.shape[:2] + dims), windows, background)

    def test_padding_windows_and_an_all_background_batch(self):
        x, windows, background = carried_input(3, (8, 8, 16), 64, padding=0.5)
        self.check(x, windows, background)
        x, windows, background = carried_input(3, (8, 8, 16), 64, padding=1.0)
        assert np.all(x == background[:, None, None, None])
        got_x = self.check(x, windows, background)
        assert got_x.shape == (3, 8, 1, 64)

    def test_a_sample_with_every_window_carried(self):
        x, windows, background = carried_input(2, (4, 4, 8), 4 * 4 * 8, padding=0.0)
        x[1] = background[:, None, None, None]
        x[1, :, 2, 1, 3] = 0.5
        got_x = self.check(x, windows, background)
        assert got_x.shape == (2, 8, 1, 4 * 4 * 8)

    def test_no_input_grad(self):
        x, windows, background = carried_input(3, (8, 8, 16), 64)
        w = CARRIED_RNG.standard_normal((16, 8, 3, 3, 3))
        grad_y = CARRIED_RNG.standard_normal((3, 16, 8, 8, 16))
        _, cache = layers.conv3d_forward(x, w, np.zeros(16))
        got = layers.conv3d_backward(grad_y, cache, need_input_grad=False, carried=(windows, background))
        want = layers.conv3d_backward(grad_y, cache, carried=(windows, background))
        assert got[0] is None
        for grad, expected in zip(got[1:], want[1:]):
            assert_same_bits(grad, expected)

    def test_peak_memory_stays_below_the_dense_backward(self, monkeypatch):
        # The dense backward gathers at every position, this one at block
        # 0's carried windows only; an untiled gather of the 27 tap rows at
        # those windows would still hold more than the dense tiles.
        grids, net = panel_grids(32)
        _, (grad_y, cache, carried) = block1_backward(monkeypatch, grids, net, np.float32)
        peaks = []
        for windows in (carried, None):
            tracemalloc.start()
            try:
                layers.conv3d_backward(grad_y, cache, carried=windows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestLeakyRelu:
    def test_values(self):
        y, _ = layers.leaky_relu_forward(np.array([-1.0, 2.0]))
        assert y[0] == -layers.SLOPE
        assert y[1] == 2.0

    def test_gradient(self):
        x = RNG.standard_normal((3, 2, 4, 4, 4))
        proj = RNG.standard_normal(x.shape)

        def loss():
            y, _ = layers.leaky_relu_forward(x)
            return float((y * proj).sum())

        _, cache = layers.leaky_relu_forward(x)
        gx = layers.leaky_relu_backward(proj, cache)
        central_diff_check(loss, (x,), (gx,))


class TestMaxPool3d:
    def test_constant_tensor(self):
        x = np.full((1, 2, 4, 4, 4), 3.5)
        y, _ = layers.maxpool3d_forward(x)
        assert y.shape == (1, 2, 2, 2, 2)
        assert np.all(y == 3.5)

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeMismatch):
            layers.maxpool3d_forward(np.zeros((1, 1, 3, 4, 4)))

    def test_gradient_routes_to_single_max(self):
        x = RNG.standard_normal((2, 2, 4, 4, 4))
        _, cache = layers.maxpool3d_forward(x)
        grad = layers.maxpool3d_backward(np.ones((2, 2, 2, 2, 2)), cache)
        assert grad.shape == x.shape
        assert grad.sum() == pytest.approx(2 * 2 * 8)  # one route per window
        assert set(np.unique(grad)) <= {0.0, 1.0}

    def test_gradient_against_finite_differences(self):
        x = RNG.standard_normal((1, 2, 4, 4, 4))
        proj = RNG.standard_normal((1, 2, 2, 2, 2))

        def loss():
            y, _ = layers.maxpool3d_forward(x)
            return float((y * proj).sum())

        _, cache = layers.maxpool3d_forward(x)
        gx = layers.maxpool3d_backward(proj, cache)
        central_diff_check(loss, (x,), (gx,))


    def test_ties_go_to_first_offset(self):
        # constant window: the whole gradient goes to offset (0, 0, 0)
        x = np.full((1, 1, 2, 2, 2), 1.5)
        _, cache = layers.maxpool3d_forward(x)
        grad = layers.maxpool3d_backward(np.full((1, 1, 1, 1, 1), 3.0), cache)
        assert np.flatnonzero(grad).tolist() == [0] and grad.sum() == 3.0
        # maximum at window offsets 3 and 5 ((x, y, z) order): offset 3 wins
        x = np.zeros((1, 1, 2, 2, 2))
        x.ravel()[[3, 5]] = 2.0
        _, cache = layers.maxpool3d_forward(x)
        grad = layers.maxpool3d_backward(np.full((1, 1, 1, 1, 1), 3.0), cache)
        assert np.flatnonzero(grad).tolist() == [3] and grad.sum() == 3.0

    def test_keeps_float32(self):
        x = RNG.standard_normal((2, 3, 4, 4, 4)).astype(np.float32)
        y, cache = layers.maxpool3d_forward(x)
        assert y.dtype == np.float32
        grad = layers.maxpool3d_backward(np.ones(y.shape, dtype=np.float32), cache)
        assert grad.dtype == np.float32

    def test_nan_poisons_its_window(self):
        x = RNG.standard_normal((1, 1, 4, 4, 4))
        x[0, 0, 2, 1, 3] = np.nan
        y, _ = layers.maxpool3d_forward(x)
        assert np.isnan(y[0, 0, 1, 0, 1])
        assert np.isnan(y).sum() == 1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pairwise_passes_match_running_maximum(self, dtype):
        # integer values tie within windows, normals break ties, NaNs poison
        rng = np.random.default_rng(2)
        x = rng.integers(-2, 3, (2, 3, 6, 6, 6)).astype(dtype)
        noisy = rng.random(x.shape) < 0.5
        x[noisy] += rng.standard_normal(int(noisy.sum())).astype(dtype)
        x.ravel()[rng.choice(x.size, 5, replace=False)] = np.nan
        views = layers._window_views(x)
        expected = views[0].copy()
        for view in views[1:]:
            np.maximum(expected, view, out=expected)
        y, _ = layers.maxpool3d_forward(x)
        assert y.dtype == dtype
        assert np.array_equal(y, expected, equal_nan=True)


class TestBatchNorm3d:
    def test_constant_batch_outputs_shift(self):
        x = np.full((4, 3, 2, 2, 2), 7.0)
        gamma = RNG.standard_normal(3)
        beta = RNG.standard_normal(3)
        y, _ = layers.batchnorm3d_forward(
            x, gamma, beta, np.zeros(3), np.ones(3), training=True
        )
        assert np.allclose(y, beta[:, None, None, None])

    def test_eval_mode_uses_running_stats(self):
        x = RNG.standard_normal((2, 2, 2, 2, 2))
        mean = np.array([1.0, -1.0])
        var = np.array([4.0, 9.0])
        rm, rv = mean.copy(), var.copy()
        y, _ = layers.batchnorm3d_forward(x, np.ones(2), np.zeros(2), rm, rv, training=False)
        expected = (x - mean[:, None, None, None]) / np.sqrt(var + layers.BN_EPS)[:, None, None, None]
        assert np.allclose(y, expected)
        assert np.array_equal(rm, mean) and np.array_equal(rv, var)

    def test_running_stats_update(self):
        # in the caller's arrays, with the bits of (1 - m) * running + m * batch
        m = layers.BN_MOMENTUM
        for dtype in (np.float64, np.float32):
            x = RNG.standard_normal((8, 2, 2, 4, 2)).astype(dtype)
            rm = RNG.standard_normal(2).astype(dtype)
            rv = RNG.uniform(0.5, 2.0, 2).astype(dtype)
            expected_mean = (1.0 - m) * rm + m * x.mean(axis=(0, 2, 3, 4))
            expected_var = (1.0 - m) * rv + m * x.var(axis=(0, 2, 3, 4))
            layers.batchnorm3d_forward(x, np.ones(2), np.zeros(2), rm, rv, training=True)
            assert rm.dtype == rv.dtype == dtype
            assert rm.tobytes() == expected_mean.tobytes()
            assert rv.tobytes() == expected_var.tobytes()

    def test_float64_running_arrays_take_a_float32_batch(self):
        # computed in float32, as the batch, then stored in the float64 arrays
        x = RNG.standard_normal((4, 3, 2, 2, 2)).astype(np.float32)
        rm, rv = RNG.standard_normal(3), RNG.uniform(0.5, 2.0, 3)
        m = layers.BN_MOMENTUM
        expected_mean = (1.0 - m) * rm.astype(np.float32) + m * x.mean(axis=(0, 2, 3, 4))
        expected_var = (1.0 - m) * rv.astype(np.float32) + m * x.var(axis=(0, 2, 3, 4))
        layers.batchnorm3d_forward(x, np.ones(3), np.zeros(3), rm, rv, training=True)
        assert rm.dtype == rv.dtype == np.float64
        assert np.array_equal(rm, expected_mean.astype(np.float64))
        assert np.array_equal(rv, expected_var.astype(np.float64))

    def test_gradients_against_finite_differences(self):
        x = RNG.standard_normal((3, 2, 2, 2, 2))
        gamma = RNG.standard_normal(2) + 1.0
        beta = RNG.standard_normal(2)
        proj = RNG.standard_normal(x.shape)

        def loss():
            y, _ = layers.batchnorm3d_forward(
                x, gamma, beta, np.zeros(2), np.ones(2), training=True
            )
            return float((y * proj).sum())

        _, cache = layers.batchnorm3d_forward(
            x, gamma, beta, np.zeros(2), np.ones(2), training=True
        )
        gx, gg, gb = layers.batchnorm3d_backward(proj, cache)
        central_diff_check(loss, (x, gamma, beta), (gx, gg, gb))


class TestDense:
    def test_forward(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[3.0], [4.0]])
        y, _ = layers.dense_forward(x, w, np.array([0.5]))
        assert y[0, 0] == pytest.approx(11.5)

    def test_gradients_against_finite_differences(self):
        x = RNG.standard_normal((4, 6))
        w = RNG.standard_normal((6, 2))
        b = RNG.standard_normal(2)
        proj = RNG.standard_normal((4, 2))

        def loss():
            y, _ = layers.dense_forward(x, w, b)
            return float((y * proj).sum())

        _, cache = layers.dense_forward(x, w, b)
        gx, gw, gb = layers.dense_backward(proj, cache)
        central_diff_check(loss, (x, w, b), (gx, gw, gb))


class TestLossMse:
    def test_exact_fit_zero(self):
        loss, grad = layers.loss_mse(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_millicubed_arithmetic(self):
        loss, _ = layers.loss_mse(np.array([0.001, -0.001]), np.zeros(2))
        assert loss == pytest.approx(1e-6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            layers.loss_mse(np.zeros(3), np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        # Entries on a 1/8 grid and a power-of-two step keep the loss, the
        # central difference and 2 * diff / n exact in float64, so the check
        # holds for every draw, not only for the draws the shared RNG gives.
        rng = np.random.default_rng(406)
        pred = rng.integers(-16, 17, 16) / 8.0
        target = rng.integers(-16, 17, 16) / 8.0
        _, grad = layers.loss_mse(pred, target)
        h = 2.0**-20
        for i in range(16):
            original = pred[i]
            pred[i] = original + h
            up, _ = layers.loss_mse(pred, target)
            pred[i] = original - h
            down, _ = layers.loss_mse(pred, target)
            pred[i] = original
            numeric = (up - down) / (2 * h)
            assert abs(numeric - grad[i]) / max(abs(numeric), 1e-8) < 1e-8
