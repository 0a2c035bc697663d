import hashlib
import weakref

import numpy as np
import pytest

from gluevol.neuralvol import network, optim, training
from gluevol.neuralvol.network import NetConfig, init_weights
from gluevol.util import DOMAIN_TRAIN, derived_rng
from gluevol.voxelizer import VoxelStack
from gluevol.neuralvol.training import (
    EmptySplit,
    TrainConfig,
    evaluate,
    train,
)

# Small topology keeps these runs in seconds.
NET = NetConfig(channels=(4, 8), input_dims=(8, 8, 8))


def toy_dataset(n=10, seed=0):
    """Grids whose occupied-voxel count encodes the target volume."""
    rng = np.random.default_rng(seed)
    grids = np.zeros((n, 1, 8, 8, 8), dtype=np.uint8)
    volumes = np.linspace(0.01, 0.05, n)
    for i, v in enumerate(volumes):
        fill = int(v * 8000)
        idx = rng.choice(512, size=fill, replace=False)
        grids[i, 0].ravel()[idx] = 1
    return grids, volumes


def height_field_dataset(n=10, seed=0):
    """(n, 1, 8, 8, 16) bool grids, each one deposit of 2x2 to 3x3 columns
    on an empty background: sparse enough for the first block to run on its
    ``Windowed`` form."""
    rng = np.random.default_rng(seed)
    grids = np.zeros((n, 1, 8, 8, 16), dtype=bool)
    volumes = np.empty(n)
    for i in range(n):
        side, height = rng.integers(2, 4), rng.integers(2, 9)
        x0, y0 = rng.integers(0, 8 - side, 2)
        grids[i, 0, x0 : x0 + side, y0 : y0 + side, :height] = True
        volumes[i] = side * side * height * 1e-4
    return grids, volumes


def running_stats_digest(weights) -> str:
    """sha256 of every block's bn_mean and bn_var bytes, in block order."""
    digest = hashlib.sha256()
    for blk in weights.blocks:
        digest.update(blk.bn_mean.tobytes())
        digest.update(blk.bn_var.tobytes())
    return digest.hexdigest()[:16]


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((4, 3))
        original = p.copy()
        g = rng.standard_normal((4, 3))
        state = optim.adam_init([p])
        optim.adam_step([p], [g], state, 0.01)
        step = p - original
        assert np.allclose(step, -0.01 * np.sign(g), atol=0.01 * 1e-6)

    def test_zero_gradient_never_moves(self):
        p = np.ones(5)
        state = optim.adam_init([p])
        for _ in range(50):
            optim.adam_step([p], [np.zeros(5)], state, 1e-4)
        assert np.array_equal(p, np.ones(5))

    def test_quadratic_bowl_converges(self):
        p = [np.array([1.0])]
        state = optim.adam_init(p)
        for _ in range(500):
            optim.adam_step(p, [2.0 * p[0]], state, 0.01)
        assert abs(float(p[0][0])) < 1e-3

    def test_shape_mismatch(self):
        p = [np.ones(3)]
        state = optim.adam_init(p)
        from gluevol.neuralvol.layers import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            optim.adam_step(p, [np.ones(4)], state, 1e-4)


class TestTrain:
    def test_zero_epochs_returns_initial_weights(self):
        grids, volumes = toy_dataset()
        cfg = TrainConfig(epochs=0, batch_size=4, seed=1)
        result = train(grids, volumes, NET, cfg)
        reference = init_weights(NET, seed=result.weights and 0)
        assert result.history == []
        # same shapes as a fresh init; values come from the derived seed
        for a, b in zip(result.weights.trainable(), reference.trainable()):
            assert a.shape == b.shape

    def test_overfits_tiny_set(self):
        grids, volumes = toy_dataset()
        cfg = TrainConfig(
            epochs=200, batch_size=10, learning_rate=1e-3, seed=3, standardize_targets=True
        )
        result = train(grids, volumes, NET, cfg)
        assert result.history[-1].train_mse < 0.01 * result.history[0].train_mse

    def test_deterministic_history_and_weights(self):
        grids, volumes = toy_dataset()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=11, standardize_targets=True)
        a = train(grids, volumes, NET, cfg, grids, volumes)
        b = train(grids, volumes, NET, cfg, grids, volumes)
        assert [h.train_mse for h in a.history] == [h.train_mse for h in b.history]
        assert [h.test_mse for h in a.history] == [h.test_mse for h in b.history]
        for x, y in zip(a.weights.trainable(), b.weights.trainable()):
            assert np.array_equal(x, y)

    def test_empty_split_raises(self):
        with pytest.raises(EmptySplit):
            train(np.zeros((0, 1, 8, 8, 8)), np.zeros(0), NET, TrainConfig(epochs=1))

    # The running statistics after two epochs, as the training forward's
    # batchnorm leaves them; the bytes were recorded when train installed
    # the statistics that the forward returned, so the in-place update must
    # reproduce them. Dense toy grids run every layer dense, the height
    # fields run the first block on its Windowed form, and the second on it
    # in the last batch; batch 4 of 10 ends each epoch with a batch of 2.
    # The height fields' bytes were recorded again when the second block
    # took the form and the windows became one list over the batch: they
    # are within 1.5e-7 (relative) of the previous ones, and of those of the
    # same run with the second block's form switched off. They were recorded
    # again when the second block's forward was handed the first block's
    # windows and its backward wrote only its own: within 1.1e-7 of their
    # block's largest of the previous ones. The ids leave the digest out, so
    # a re-recording keeps the test's name.
    @pytest.mark.parametrize("data,net,digest", [
        ("toy", NET, "9d8bbf5aff822721"),
        ("height_field", NetConfig(channels=(4, 8), input_dims=(8, 8, 16)), "093a022169720f7f"),
    ], ids=["toy", "height_field"])
    def test_running_stats_keep_their_recorded_bytes(self, data, net, digest):
        grids, volumes = toy_dataset() if data == "toy" else height_field_dataset()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=5, standardize_targets=True)
        weights = train(grids, volumes, net, cfg).weights
        assert running_stats_digest(weights) == digest

    def test_voxel_stack_trains_as_its_dense_grids(self):
        grids, volumes = height_field_dataset()
        stack = VoxelStack.of((8, 8, 16), grids[:, 0])
        net = NetConfig(channels=(4, 8), input_dims=(8, 8, 16))
        cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
        a = train(stack, volumes, net, cfg, stack, volumes)
        b = train(grids, volumes, net, cfg, grids, volumes)
        assert [(h.train_mse, h.test_mse) for h in a.history] == \
            [(h.train_mse, h.test_mse) for h in b.history]
        for x, y in zip(a.weights.trainable(), b.weights.trainable()):
            assert x.tobytes() == y.tobytes()

    def test_non_finite_batch_loss_names_epoch_and_batch(self):
        grids, volumes = toy_dataset()
        volumes = volumes.copy()
        volumes[5] = np.nan
        cfg = TrainConfig(epochs=3, batch_size=2, seed=1)
        # Epoch 0 visits the samples in the first permutation of the stream.
        order = derived_rng(cfg.seed, DOMAIN_TRAIN).permutation(len(volumes))
        batch = int(np.flatnonzero(order == 5)[0]) // cfg.batch_size
        with pytest.raises(FloatingPointError, match=f"epoch 0, batch {batch}$"):
            train(grids, volumes, NET, cfg)

    def test_non_finite_gradient_names_its_batch(self, monkeypatch):
        # A finite loss with a NaN gradient in the last batch of the last
        # epoch: caught there, before Adam writes NaN weights.
        grids, volumes = toy_dataset()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=1)
        backward, calls = training.rnet_backward, []

        def poisoned(grad, caches):
            grads = backward(grad, caches)
            calls.append(len(grads))
            if len(calls) == 6:  # 3 batches per epoch
                grads[2][0] = np.nan
            return grads

        monkeypatch.setattr(training, "rnet_backward", poisoned)
        with pytest.raises(FloatingPointError, match="gradient at epoch 1, batch 2$"):
            train(grids, volumes, NET, cfg)
        assert len(calls) == 6

    def test_history_metadata_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.batch_size == 128
        assert cfg.learning_rate == pytest.approx(1e-4)


def arrays_in(obj):
    """Every array reachable from ``obj`` through lists, tuples and the
    attributes of its objects (a ``layers.Windowed``'s windows, ...)."""
    if isinstance(obj, np.ndarray):
        yield obj
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays_in(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from arrays_in(item)


class TestStepLifetimes:
    # A two-block net on height fields: the first block runs windowed.
    NET = NetConfig(channels=(2, 4), input_dims=(8, 8, 16))

    def test_no_step_tensor_outlives_its_step(self, monkeypatch):
        # Weak references to every array of a step's caches and gradients,
        # but the weights they share memory with, are dead when the next
        # step's forward or the epoch's eval is called, and the eval runs at
        # the training batch size.
        grids, volumes = height_field_dataset()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
        forward, backward, evaluate_ = training.rnet_forward, training.rnet_backward, evaluate
        step, alive = [], []

        def live(call):
            alive.append((call, sum(ref() is not None for ref in step)))

        def spy_forward(x, weights, net_cfg, training=False):
            if not training:
                return forward(x, weights, net_cfg, training)
            live("forward")
            params = [a for blk in weights.blocks for a in vars(blk).values()]
            params += [weights.dense_w, weights.dense_b]
            pred, caches = forward(x, weights, net_cfg, training)
            step[:] = [weakref.ref(a) for a in arrays_in(caches)
                       if not any(np.shares_memory(a, p) for p in params)]
            return pred, caches

        def spy_backward(grad, caches):
            grads = backward(grad, caches)
            step.extend(weakref.ref(g) for g in grads)
            return grads

        def spy_evaluate(*args, batch_size):
            live("evaluate")
            assert batch_size == cfg.batch_size
            return evaluate_(*args, batch_size=batch_size)

        monkeypatch.setattr(training, "rnet_forward", spy_forward)
        monkeypatch.setattr(training, "rnet_backward", spy_backward)
        monkeypatch.setattr(training, "evaluate", spy_evaluate)
        train(grids, volumes, self.NET, cfg, grids[:4], volumes[:4])
        assert [call for call, _ in alive] == (["forward"] * 3 + ["evaluate"]) * 2
        assert [count for _, count in alive] == [0] * 8
        assert len(step) > 10  # the caches' arrays and the gradients were tracked

    def test_backward_consumes_its_caches(self):
        grids, _ = height_field_dataset()
        init = init_weights(self.NET, seed=1)
        x = grids[:4]
        grad = np.random.default_rng(2).standard_normal(4)
        # two forwards from copies of one init, so each backward has caches of its own
        _, caches = network.rnet_forward(x, init.cast(np.float32), self.NET, training=True)
        _, copied = network.rnet_forward(x, init.cast(np.float32), self.NET, training=True)
        grads = network.rnet_backward(grad, caches)
        want = network.rnet_backward(grad, list(copied))
        assert caches == []
        assert len(copied) == len(self.NET.channels) + 1
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]


class TestEvaluate:
    def test_perfect_predictor_zero_mse(self):
        grids, volumes = toy_dataset()
        cfg = TrainConfig(epochs=150, batch_size=10, learning_rate=3e-3, seed=5,
                          standardize_targets=True)
        result = train(grids, volumes, NET, cfg)
        ev = evaluate(result.weights, NET, grids, volumes)
        assert ev.mse < 1e-6  # essentially memorized

    def test_mean_predictor_mse_equals_variance(self):
        # Oracle: a constant mean predictor scores exactly the population
        # variance of the targets.
        grids, volumes = toy_dataset()
        weights = init_weights(NET, seed=0)
        for blk in weights.blocks:
            blk.conv_w[:] = 0
            blk.bn_gamma[:] = 0
        weights.dense_w[:] = 0
        weights.dense_b[:] = 0.0
        weights.target_mean = float(volumes.mean())
        weights.target_std = 1.0
        ev = evaluate(weights, NET, grids, volumes)
        assert ev.mse == pytest.approx(((volumes - volumes.mean()) ** 2).mean(), rel=1e-9)

    def test_sorted_by_descending_truth(self):
        grids, volumes = toy_dataset()
        weights = init_weights(NET, seed=0)
        ev = evaluate(weights, NET, grids, volumes)
        assert np.all(np.diff(ev.truth) <= 0)
        assert np.array_equal(ev.truth, volumes[ev.order])

    def test_mse_e6_scaling(self):
        grids, volumes = toy_dataset()
        weights = init_weights(NET, seed=0)
        ev = evaluate(weights, NET, grids, volumes)
        assert ev.mse_e6 == pytest.approx(ev.mse * 1e6)

    def test_eval_mode_is_pure(self):
        grids, volumes = toy_dataset()
        weights = init_weights(NET, seed=2)
        before = [a.copy() for a in weights.trainable()]
        before_stats = [(b.bn_mean.copy(), b.bn_var.copy()) for b in weights.blocks]
        e1 = evaluate(weights, NET, grids, volumes)
        e2 = evaluate(weights, NET, grids, volumes)
        assert e1.mse == e2.mse
        assert np.array_equal(e1.predictions, e2.predictions)
        for arr, orig in zip(weights.trainable(), before):
            assert np.array_equal(arr, orig)
        for blk, (m, v) in zip(weights.blocks, before_stats):
            assert np.array_equal(blk.bn_mean, m) and np.array_equal(blk.bn_var, v)

    def test_empty_split_raises(self):
        weights = init_weights(NET, seed=0)
        with pytest.raises(EmptySplit):
            evaluate(weights, NET, np.zeros((0, 1, 8, 8, 8)), np.zeros(0))

    def test_batch_size_below_one_is_refused(self):
        grids, volumes = toy_dataset()
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(init_weights(NET, seed=0), NET, grids, volumes, batch_size=-4)
