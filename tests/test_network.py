import numpy as np
import pytest

from gluevol import scansim, voxelizer
from gluevol.config import tiny_profile_config
from gluevol.neuralvol import layers, network, training
from gluevol.neuralvol.network import (
    ModelWeights,
    NetConfig,
    init_weights,
    predict,
    rnet_backward,
    rnet_forward,
)
from gluevol.neuralvol.weights_io import read_weights, write_weights

# Small net over a small grid keeps forward passes cheap.
SMALL = NetConfig(channels=(2, 3), input_dims=(8, 8, 8))
TINY = tiny_profile_config().net


class TestShapes:
    def test_canonical_block_chain(self):
        shapes = NetConfig().block_shapes()
        assert shapes == [
            (1, 32, 32, 64),
            (32, 16, 16, 32),
            (64, 8, 8, 16),
            (128, 4, 4, 8),
            (256, 2, 2, 4),
            (512, 1, 1, 2),
        ]

    def test_canonical_flatten_is_1024(self):
        assert NetConfig().flatten_length == 1024

    def test_tiny_same_topology(self):
        shapes = TINY.block_shapes()
        assert [s[1:] for s in shapes] == [s[1:] for s in NetConfig().block_shapes()]

    def test_indivisible_dims_rejected(self):
        with pytest.raises(layers.ShapeMismatch):
            NetConfig(channels=(2,) * 6).block_shapes()  # 32 / 2^6 < 1


def trainable_count(cfg: NetConfig) -> int:
    return sum(a.size for a in init_weights(cfg, seed=0).trainable())


def expected_count(cfg: NetConfig) -> int:
    """Independent oracle: literal per-layer arithmetic."""
    expected = 0
    c_in = 1
    for c_out in cfg.channels:
        expected += c_out * c_in * 3**3 + c_out  # conv
        expected += 2 * c_out  # batchnorm scale/shift
        c_in = c_out
    return expected + cfg.flatten_length + 1  # dense


class TestParamCount:
    def test_canonical_matches_independent_summation(self):
        assert trainable_count(NetConfig()) == expected_count(NetConfig()) == 4_705_025

    def test_counts_match_actual_arrays(self):
        for cfg in (SMALL, TINY):
            assert trainable_count(cfg) == expected_count(cfg)

    def test_zero_blocks_dense_only(self):
        cfg = NetConfig(channels=(), input_dims=(4, 4, 8))
        assert trainable_count(cfg) == 4 * 4 * 8 + 1


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(SMALL, seed=3)
        b = init_weights(SMALL, seed=3)
        for x, y in zip(a.trainable(), b.trainable()):
            assert np.array_equal(x, y)

    def test_distribution_statistics(self):
        cfg = NetConfig(channels=(64, 128), input_dims=(8, 8, 8))
        weights = init_weights(cfg, seed=0)
        conv = np.concatenate([b.conv_w.ravel() for b in weights.blocks])
        assert conv.size > 1e5
        assert abs(conv.mean()) < 3 * 0.02 / np.sqrt(conv.size)
        assert conv.std() == pytest.approx(0.02, rel=0.05)
        gamma = np.concatenate([b.bn_gamma for b in weights.blocks])
        assert gamma.mean() == pytest.approx(1.0, abs=0.01)
        for blk in weights.blocks:
            assert np.all(blk.conv_b == 0) and np.all(blk.bn_beta == 0)
            assert np.all(blk.bn_mean == 0) and np.all(blk.bn_var == 1)


class TestForward:
    def test_zero_weights_predict_bias(self):
        weights = init_weights(SMALL, seed=0)
        for blk in weights.blocks:
            blk.conv_w[:] = 0
            blk.bn_gamma[:] = 0
        weights.dense_w[:] = 0
        weights.dense_b[:] = 0.125
        x = np.random.default_rng(0).random((3, 1, 8, 8, 8))
        pred, _ = rnet_forward(x, weights, SMALL, training=False)
        assert np.allclose(pred, 0.125)

    def test_shape_mismatch_raises(self):
        weights = init_weights(SMALL, seed=0)
        with pytest.raises(layers.ShapeMismatch):
            rnet_forward(np.zeros((1, 1, 4, 4, 4)), weights, SMALL)

    def test_full_net_gradients(self):
        rng = np.random.default_rng(5)
        weights = init_weights(SMALL, seed=1)
        x = rng.standard_normal((2, 1, 8, 8, 8))
        target = rng.standard_normal(2)

        def loss():
            pred, _ = rnet_forward(x, weights, SMALL, training=True)
            return layers.loss_mse(pred, target)[0]

        pred, caches = rnet_forward(x, weights, SMALL, training=True)
        _, grad = layers.loss_mse(pred, target)
        grads = rnet_backward(grad, caches)
        params = weights.trainable()
        assert len(grads) == len(params)
        # h below the pool-window tie spacing: early-layer perturbations at
        # h=1e-5 flip argmax picks inside downstream max pools (a genuine
        # subgradient discontinuity, not a backward defect).
        h = 1e-6
        for arr, g in zip(params, grads):
            flat, gflat = arr.ravel(), g.ravel()
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                original = flat[i]
                flat[i] = original + h
                up = loss()
                flat[i] = original - h
                down = loss()
                flat[i] = original
                numeric = (up - down) / (2 * h)
                assert abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-8) < 1e-4

    def test_full_net_gradients_on_height_fields(self):
        # Binary height fields take the sparse conv path and the windowed
        # first block; finite differences check that whole backward.
        cfg = NetConfig(channels=(2, 3), input_dims=(8, 8, 16))
        rng = np.random.default_rng(6)
        weights = init_weights(cfg, seed=2)
        for blk in weights.blocks:
            blk.conv_w[:] = rng.normal(0.0, 0.5, blk.conv_w.shape)
            blk.conv_b[:] = rng.normal(0.0, 0.1, blk.conv_b.shape)
        x = np.zeros((3, 1, 8, 8, 16))
        for sample in x:
            cols = rng.choice(64, 4, replace=False)
            sample[0, cols // 8, cols % 8, rng.integers(0, 16, 4)] = 1
        target = rng.standard_normal(3)

        def loss():
            pred, _ = rnet_forward(x, weights, cfg, training=True)
            return layers.loss_mse(pred, target)[0]

        pred, caches = rnet_forward(x, weights, cfg, training=True)
        assert isinstance(caches[0][1][0], layers.Windowed)  # first block's ReLU mask
        _, grad = layers.loss_mse(pred, target)
        grads = rnet_backward(grad, caches)
        h = 1e-6
        for arr, g in zip(weights.trainable(), grads):
            flat, gflat = arr.ravel(), g.ravel()
            for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                original = flat[i]
                flat[i] = original + h
                up = loss()
                flat[i] = original - h
                down = loss()
                flat[i] = original
                numeric = (up - down) / (2 * h)
                assert abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-8) < 1e-4

    def test_predict_applies_target_scaling(self):
        weights = init_weights(SMALL, seed=0)
        for blk in weights.blocks:
            blk.conv_w[:] = 0
            blk.bn_gamma[:] = 0
        weights.dense_w[:] = 0
        weights.dense_b[:] = 1.0
        weights.target_mean = 0.05
        weights.target_std = 0.01
        x = np.zeros((2, 1, 8, 8, 8))
        assert np.allclose(predict(x, weights, SMALL), 0.06)


def reference_eval_forward(x, weights):
    """Eval forward built from the layer functions in the training order:
    conv -> leaky ReLU -> batchnorm (running statistics) -> max-pool."""
    h = np.asarray(x, dtype=weights.dense_w.dtype)
    for blk in weights.blocks:
        h, _ = layers.conv3d_forward(h, blk.conv_w, blk.conv_b)
        h, _ = layers.leaky_relu_forward(h)
        h, _ = layers.batchnorm3d_forward(
            h, blk.bn_gamma, blk.bn_beta, blk.bn_mean, blk.bn_var, training=False
        )
        h, _ = layers.maxpool3d_forward(h)
    # one sample a product, as the eval forward takes the dense layer
    return np.array([layers.dense_forward(row[None], weights.dense_w, weights.dense_b)[0][0, 0]
                     for row in h.reshape(h.shape[0], -1)])


class TestEvalOrder:
    """The eval forward pools before ReLU and batchnorm; it must equal the
    training order bit for bit."""

    CFG = NetConfig(channels=(6, 9), input_dims=(8, 8, 16))

    def weights(self):
        rng = np.random.default_rng(17)
        weights = init_weights(self.CFG, seed=4)
        for blk in weights.blocks:
            c = len(blk.bn_gamma)
            blk.conv_w[:] = rng.normal(0.0, 0.3, blk.conv_w.shape)
            blk.conv_b[:] = rng.normal(0.0, 0.1, c)
            # positive, negative and zero scales, in every block
            blk.bn_gamma[:] = rng.normal(0.0, 1.0, c) * (np.arange(c) % 3 != 2)
            blk.bn_gamma[1] = -abs(blk.bn_gamma[1])
            blk.bn_gamma[0] = abs(blk.bn_gamma[0])
            blk.bn_beta[:] = rng.normal(0.0, 0.5, c)
            blk.bn_mean[:] = rng.normal(0.0, 0.2, c)
            blk.bn_var[:] = rng.uniform(0.05, 2.0, c)
        weights.dense_w[:] = rng.normal(0.0, 0.5, weights.dense_w.shape)
        return weights

    @staticmethod
    def inputs(kind, batch):
        rng = np.random.default_rng(batch)
        if kind == "dense":
            return rng.standard_normal((batch, 1, 8, 8, 16))
        # binary height field: one occupied voxel per (x, y) column
        x = np.zeros((batch, 1, 8, 8, 16))
        heights = rng.integers(0, 16, (batch, 8, 8))
        np.put_along_axis(x[:, 0], heights[..., None], 1.0, axis=-1)
        return x

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("kind", ["height_field", "dense"])
    def test_equals_training_order(self, dtype, batch, kind):
        weights = self.weights().cast(dtype)
        gammas = np.concatenate([b.bn_gamma for b in weights.blocks])
        assert (gammas > 0).any() and (gammas < 0).any() and (gammas == 0).any()
        x = self.inputs(kind, batch)
        pred, caches = rnet_forward(x, weights, self.CFG, training=False)
        expected = reference_eval_forward(x, weights)
        assert caches is None
        assert pred.dtype == dtype
        assert np.array_equal(pred, expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_windowed_first_block_equals_dense_conv(self, monkeypatch, dtype):
        # Sparse height fields: block 0's conv output comes out Windowed and
        # is pooled in that form. The oracle runs the same eval forward, and
        # the training-order reference, with the background-class path
        # switched off, on the conv output of every position; all three agree
        # byte for byte.
        weights = self.weights().cast(dtype)
        assert (weights.blocks[0].bn_gamma < 0).any()
        rng = np.random.default_rng(8)
        x = np.zeros((4, 1, 8, 8, 16))
        for sample in x:
            cols = rng.choice(64, 4, replace=False)
            sample[0, cols // 8, cols % 8, rng.integers(0, 16, 4)] = 1
        pool = layers.maxpool3d_forward
        pooled = []
        monkeypatch.setattr(layers, "maxpool3d_forward",
                            lambda h: pooled.append(type(h)) or pool(h))
        windowed, _ = rnet_forward(x, weights, self.CFG)
        assert pooled[0] is layers.Windowed
        monkeypatch.setattr(layers, "_active_corners", lambda *args: None)
        dense, _ = rnet_forward(x, weights, self.CFG)
        expected = reference_eval_forward(x, weights)
        assert pooled[len(weights.blocks)] is np.ndarray
        assert windowed.tobytes() == dense.tobytes()
        assert windowed.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def tiny_scans():
    """The tiny panel's 24 regions voxelized, and their analytic volumes."""
    cfg = tiny_profile_config(0)
    pcb = cfg.pcbs()[0]
    regions = list(pcb.regions())
    grids = np.stack([
        voxelizer.build_grid(scansim.raster_scan(pcb, region, cfg.scan), cfg.grid).occupancy
        for region in regions
    ])[:, None].astype(np.uint8)
    return grids, np.array([scansim.analytic_volume(region) for region in regions])


class TestBackgroundPath:
    """Blocks 0 and 1 of the tiny net take the background-class conv on
    height fields, at inspection and in training, both in the ``Windowed``
    form. Switching the path off changes no byte of predictions.

    Training sums in another order on the form than on the dense layers.
    With block 1's form switched off (``_background_active`` giving None,
    so block 1 computes every position), one epoch's history stays within
    2e-6 (relative) and every weight within 0.1 learning rates: over 12
    training seeds the worst history was 3.2e-7, and the weights stayed
    within 0.04 learning rates but at seed 6, 0.28 (Adam scales a rounding
    change of a gradient near zero up to a step of its own); this test's
    seed 5 reads 0.016. Block 1's conv backward at block 0's carried
    windows sums in another order than its dense backward, the same
    gather with every position carried. Switched off, one epoch's history
    stays within 1e-6 (relative) and every weight within 0.01 learning
    rates: over 12 training seeds the worst were 1.7e-7 and 7.9e-4
    learning rates."""

    def test_block1_takes_it(self, monkeypatch, tiny_scans):
        grids, _ = tiny_scans
        taken, corners = [], []
        conv, active_corners = layers.conv3d_forward, layers._active_corners

        def spy(x, w, b):
            corners.clear()
            y, cache = conv(x, w, b)
            classes = bool(corners) and corners[-1] is not None
            taken.append((x.shape[1], x.dtype, y.dtype, type(y), classes))
            return y, cache

        monkeypatch.setattr(layers, "_active_corners",
                            lambda *args: corners.append(active_corners(*args)) or corners[-1])
        monkeypatch.setattr(layers, "conv3d_forward", spy)
        weights = init_weights(TINY, seed=1)
        predict(grids[:3], weights, TINY, batch_size=1)
        rnet_forward(grids[:8], weights.cast(np.float32), TINY, training=True)
        block0 = [t[1:] for t in taken if t[0] == 1]
        block1 = [t[1:] for t in taken if t[0] == TINY.channels[0]]
        # Block 0 takes the uint8 grid, block 1 the float one; both take
        # the class columns in the weights' dtype, in the Windowed form.
        f64, f32 = np.float64, np.float32
        assert block0 == [(np.uint8, f64, layers.Windowed, True)] * 3 + [(np.uint8, f32, layers.Windowed, True)]
        assert block1 == [(f64, f64, layers.Windowed, True)] * 3 + [(f32, f32, layers.Windowed, True)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dense_layer_input_is_the_same_at_every_batch_size(self, monkeypatch, tiny_scans,
                                                                dtype):
        # Block 2 takes the background-class columns for 12 of the 24
        # regions at batch 1, for 1 of the 4 batches of 7 and not at batch
        # 24, and computes every position elsewhere; the dense layer's
        # input keeps its bytes either way.
        grids, _ = tiny_scans
        weights = init_weights(TINY, seed=1).cast(dtype)
        inputs, dense = [], layers.dense_forward

        def spy(x, w, b):
            inputs.append(x)
            return dense(x, w, b)

        monkeypatch.setattr(layers, "dense_forward", spy)
        flat = {}
        for size in (1, 7, 24):
            inputs.clear()
            predict(grids, weights, TINY, batch_size=size)
            flat[size] = np.concatenate(inputs)
        assert flat[1].shape == (len(grids), 256) and flat[1].dtype == dtype
        assert flat[1].tobytes() == flat[7].tobytes() == flat[24].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predictions_are_the_same_bytes_at_every_batch_size(self, tiny_scans, dtype):
        # The dense layer takes one sample a product, so a batch's (B, 256)
        # GEMM cannot sum a prediction in another order than batch 1 does.
        grids, _ = tiny_scans
        weights = init_weights(TINY, seed=1).cast(dtype)
        weights.dense_w = np.random.default_rng(3).standard_normal(weights.dense_w.shape).astype(dtype)
        preds = {size: predict(grids, weights, TINY, batch_size=size) for size in (1, 7, 24, 64)}
        assert len(set(p.tobytes() for p in preds.values())) == 1

    @pytest.mark.parametrize("size", [-1, 0])
    def test_batch_size_below_one_is_refused(self, tiny_scans, size):
        grids, _ = tiny_scans
        with pytest.raises(ValueError, match="batch_size"):
            predict(grids[:3], init_weights(TINY, seed=1), TINY, batch_size=size)

    def test_switched_off_changes_no_bytes(self, monkeypatch, tiny_scans):
        grids, volumes = tiny_scans
        weights = init_weights(TINY, seed=2)
        train_cfg = training.TrainConfig(epochs=1, batch_size=8, seed=5,
                                         standardize_targets=True)

        def predictions():
            return [predict(grids, weights, TINY, batch_size=size) for size in (1, 24)]

        def trained():
            result = training.train(grids[:16], volumes[:16], TINY, train_cfg,
                                    grids[16:], volumes[16:])
            return [(h.train_mse, h.test_mse) for h in result.history], result.weights.trainable()

        def same_bytes(a, b):
            return len(a) == len(b) and all(u.tobytes() == v.tobytes() for u, v in zip(a, b))

        def close(history_off, trainable_off, rtol, steps):
            assert np.allclose(history_off, history, rtol=rtol, atol=0)
            for got, want in zip(trainable_off, trainable):
                assert np.all(np.abs(got - want) <= steps * train_cfg.learning_rate)

        preds, (history, trainable) = predictions(), trained()
        # block 0's Windowed form only
        monkeypatch.setattr(layers, "_background_active", lambda x: None)
        assert same_bytes(preds, predictions())
        close(*trained(), rtol=2e-6, steps=0.1)
        monkeypatch.setattr(layers, "_active_corners", lambda *args: None)
        assert same_bytes(preds, predictions())

        monkeypatch.undo()
        conv = layers.conv3d_backward
        monkeypatch.setattr(layers, "conv3d_backward",
                            lambda grad_y, cache, need_input_grad=True, carried=None:
                            conv(grad_y, cache, need_input_grad))
        close(*trained(), rtol=1e-6, steps=0.01)


class TestWeightsIo:
    def test_round_trip_bit_exact(self, tmp_path):
        weights = init_weights(TINY, seed=9)
        weights.target_mean = 0.034
        weights.target_std = 0.011
        path = tmp_path / "model.ggnn"
        write_weights(weights, path)
        loaded = read_weights(path)
        assert isinstance(loaded, ModelWeights)
        assert len(loaded.blocks) == len(weights.blocks)
        for a, b in zip(weights.blocks, loaded.blocks):
            for field in ("conv_w", "conv_b", "bn_gamma", "bn_beta", "bn_mean", "bn_var"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(weights.dense_w, loaded.dense_w)
        assert loaded.target_mean == weights.target_mean
        assert loaded.target_std == weights.target_std
        # byte-identical when written again
        path2 = tmp_path / "model2.ggnn"
        write_weights(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ggnn"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        from gluevol.neuralvol.weights_io import WeightsFormatError

        with pytest.raises(WeightsFormatError):
            read_weights(path)
