import numpy as np
import pytest

from gluevol.config import tiny_profile_config
from gluevol.neuralvol import layers, network
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
        h, _, _, _ = layers.batchnorm3d_forward(
            h, blk.bn_gamma, blk.bn_beta, blk.bn_mean, blk.bn_var, training=False
        )
        h, _ = layers.maxpool3d_forward(h)
    out, _ = layers.dense_forward(h.reshape(h.shape[0], -1), weights.dense_w, weights.dense_b)
    return out[:, 0]


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
        # the training-order reference, with the sparse path switched off,
        # on the dense GEMM's conv output; all three agree byte for byte.
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
        monkeypatch.setattr(layers, "_binary_active", lambda x, k: None)
        dense, _ = rnet_forward(x, weights, self.CFG)
        expected = reference_eval_forward(x, weights)
        assert pooled[len(weights.blocks)] is np.ndarray
        assert windowed.tobytes() == dense.tobytes()
        assert windowed.tobytes() == expected.tobytes()


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
