"""Whole-network checks: shape trace, init, purity, copying, composed gradients."""

import math

import numpy as np
import pytest

from snakedqn import nn
from snakedqn.nn import BatchNorm, Conv2D, Dense, Flatten, MaxPool2D, QNetwork
from snakedqn.optim import clip_global_norm, global_norm

from gradcheck import max_param_rel_error
from update_oracle import OracleMaxPool2D

PRODUCTION_TRACE = [
    (21, 21, 32),
    (11, 11, 32),
    (6, 6, 64),
    (3, 3, 64),
    (3, 3, 64),
    (2, 2, 128),
    (1, 1, 128),
    (1, 1, 128),
    (128,),
    (512,),
    (512,),
    (4,),
]

PARAM_COUNT = 446_052  # conv 8224+32832+73856, bn 128+256, dense 66048+262656+2052


def fresh_net(seed=0, dtype=np.float32, n_actions=4):
    net = nn.build_q_network(n_actions, dtype=dtype)
    nn.init_weights(net, np.random.default_rng(seed))
    return net


def reduced_net(dtype=np.float64):
    layers = [
        Conv2D(2, 3, kernel=3, stride=2, relu=True, dtype=dtype),
        MaxPool2D(),
        BatchNorm(3, dtype=dtype),
        Flatten(),
        Dense(12, 5, relu=False, dtype=dtype),
    ]
    net = QNetwork(layers, dtype=dtype)
    nn.init_weights(net, np.random.default_rng(3))
    return net


class TestShapes:
    def test_trace_matches_architecture_table(self):
        # The first layer is conv1 with pool1 inside it: trace the two apart.
        # conv1's output is odd-sized, which only the oracle pool pads for.
        net = fresh_net()
        x = np.zeros((1, 84, 84, 4), dtype=np.float32)
        stage = net.layers[0]
        conv1 = Conv2D(stage.in_channels, stage.out_channels, stage.kernel, stage.stride)
        h = conv1.forward(x, train=False)
        shapes = [h.shape[1:], OracleMaxPool2D().forward(h, train=False).shape[1:]]
        x = stage.forward(x, train=False)
        assert x.shape[1:] == shapes[-1]
        for layer in net.layers[1:]:
            x = layer.forward(x, train=False)
            shapes.append(x.shape[1:])
        assert shapes == PRODUCTION_TRACE
        assert [layer.name for layer in net.layers] == [
            "conv1", "conv2", "maxpool1", "batchnorm1", "conv3", "maxpool2", "batchnorm2",
            "flatten1", "dense1", "dense2", "dense3"]

    def test_wrong_input_shape_rejected(self):
        net = fresh_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 84, 84, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 80, 84, 4), dtype=np.float32))

    def test_parameter_count(self):
        net = fresh_net()
        assert sum(p.size for p in net.params().values()) == PARAM_COUNT

    def test_batched_forward_shape(self):
        net = fresh_net()
        out = net.forward(np.zeros((5, 84, 84, 4), dtype=np.float32))
        assert out.shape == (5, 4)


class TestForwardSemantics:
    def test_all_zero_net_maps_zero_to_zero(self):
        net = nn.build_q_network(4)  # weights start at zero, bn is identity
        x = np.zeros((2, 84, 84, 4), dtype=np.float32)
        assert not net.forward(x, train=False).any()

    def test_bitwise_reproducible(self):
        x = (np.random.default_rng(5).random((3, 84, 84, 4)) > 0.9).astype(np.float32)
        a = fresh_net(seed=7).forward(x, train=False)
        b = fresh_net(seed=7).forward(x, train=False)
        assert np.array_equal(a, b)

    def test_eval_forward_is_pure(self):
        net = fresh_net(seed=1)
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        x = np.random.default_rng(2).random((4, 84, 84, 4)).astype(np.float32)
        net.forward(x, train=False)
        after = net.state_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_train_forward_touches_only_running_stats(self):
        net = fresh_net(seed=1)
        params_before = {k: v.copy() for k, v in net.params().items()}
        running_before = {
            k: v.copy() for k, v in net.state_arrays().items() if "running" in k
        }
        x = np.random.default_rng(2).random((4, 84, 84, 4)).astype(np.float32)
        net.forward(x, train=True)
        assert all(np.array_equal(params_before[k], v)
                   for k, v in net.params().items())
        changed = [k for k, v in net.state_arrays().items()
                   if "running" in k and not np.array_equal(running_before[k], v)]
        assert changed  # batch statistics fed the running averages


class TestInit:
    def test_deterministic(self):
        a, b = fresh_net(seed=3), fresh_net(seed=3)
        assert all(np.array_equal(v, b.params()[k]) for k, v in a.params().items())

    def test_biases_zero_and_bn_identity(self):
        net = fresh_net()
        for name, arr in net.state_arrays().items():
            if name.endswith(".b") or name.endswith(".beta") or "running_mean" in name:
                assert not arr.any(), name
            if name.endswith(".gamma") or "running_var" in name:
                assert (arr == 1).all(), name

    def test_he_uniform_bound_on_first_conv(self):
        net = fresh_net(seed=11)
        w = net.params()["conv1.w"]
        bound = math.sqrt(6.0 / (8 * 8 * 4))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.9 * bound  # uniform support actually used

    def test_glorot_bound_on_linear_head(self):
        net = fresh_net(seed=11)
        w = net.params()["dense3.w"]
        bound = math.sqrt(6.0 / (512 + 4))
        assert np.abs(w).max() <= bound


class TestCopyWeights:
    def test_outputs_identical_after_copy(self):
        src, dst = fresh_net(seed=1), fresh_net(seed=2)
        nn.copy_weights(src, dst)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.random((1, 84, 84, 4)).astype(np.float32)
            assert np.array_equal(src.forward(x), dst.forward(x))

    def test_deep_copy(self):
        src, dst = fresh_net(seed=1), fresh_net(seed=2)
        nn.copy_weights(src, dst)
        src.params()["conv1.w"][...] += 1.0
        assert not np.array_equal(src.params()["conv1.w"], dst.params()["conv1.w"])

    def test_idempotent(self):
        src, dst = fresh_net(seed=1), fresh_net(seed=2)
        nn.copy_weights(src, dst)
        once = {k: v.copy() for k, v in dst.state_arrays().items()}
        nn.copy_weights(src, dst)
        assert all(np.array_equal(once[k], v)
                   for k, v in dst.state_arrays().items())

    def test_running_stats_copied(self):
        src, dst = fresh_net(seed=1), fresh_net(seed=2)
        x = np.random.default_rng(3).random((4, 84, 84, 4)).astype(np.float32)
        src.forward(x, train=True)
        nn.copy_weights(src, dst)
        assert np.array_equal(src.state_arrays()["batchnorm1.running_mean"],
                              dst.state_arrays()["batchnorm1.running_mean"])

    def test_architecture_mismatch(self):
        src = fresh_net(n_actions=4)
        dst = fresh_net(n_actions=3)
        with pytest.raises(ValueError):
            nn.copy_weights(src, dst)


class TestComposedGradients:
    def test_reduced_network(self):
        net = reduced_net()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 8, 8, 2))
        coeffs = rng.normal(size=(4, 5))
        worst, probed = max_param_rel_error(net, x, coeffs, probes_per_tensor=20)
        assert probed >= 50
        assert worst < 1e-6

    def test_gradients_are_the_last_backwards(self):
        """``gradients()`` is one fixed array per parameter, each the layer's
        own ``d<x>``; every backward overwrites it with that backward's
        gradient, and clipping scales it in place."""
        net = reduced_net()
        rng = np.random.default_rng(8)
        before = net.gradients()
        params = net.params()
        assert list(before) == list(params)
        for layer in net.layers:
            for attr in layer.trainable:
                g = before[f"{layer.name}.{attr}"]
                assert g is getattr(layer, f"d{attr}")
                assert g.shape == params[f"{layer.name}.{attr}"].shape
                assert g.dtype == layer.dtype
        for _ in range(3):
            x, dout = rng.normal(size=(4, 8, 8, 2)), rng.normal(size=(4, 5))
            net.forward(x, train=True)
            for grads in (net.backward(dout), net.gradients()):
                assert list(grads) == list(before)
                assert all(grads[k] is g for k, g in before.items())
        clipped = clip_global_norm(net.gradients(), 1e-3)
        assert all(clipped[k] is g for k, g in before.items())
        assert math.isclose(global_norm(before), 1e-3, rel_tol=1e-12)
        # The last backward again, now on a fresh network: the same bytes.
        net.forward(x, train=True)
        net.backward(dout)
        fresh = reduced_net()
        fresh.forward(x, train=True)
        want = fresh.backward(dout)
        assert {k: g.tobytes() for k, g in before.items()} == {
            k: g.tobytes() for k, g in want.items()}

    def test_full_network(self):
        net = nn.build_q_network(4, dtype=np.float64)
        nn.init_weights(net, np.random.default_rng(1))
        rng = np.random.default_rng(7)
        x = rng.random((2, 84, 84, 4))
        coeffs = rng.normal(size=(2, 4))
        worst, probed = max_param_rel_error(net, x, coeffs, probes_per_tensor=2)
        assert probed >= 10
        assert worst < 1e-5


class TestBitStackInput:
    """uint8 0/1 stacks reach the first conv layer uncast, with the same result."""

    @staticmethod
    def stacks(n, seed=5, density=0.03):
        return (np.random.default_rng(seed).random((n, 84, 84, 4)) < density).astype(np.uint8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_outputs_and_gradients_as_float_cast(self, dtype):
        x = self.stacks(8)
        coeffs = np.random.default_rng(6).normal(size=(8, 4))
        results = []
        for inp in (x, x.astype(dtype)):
            net = fresh_net(dtype=dtype)
            q_eval = net.forward(inp, train=False)
            q = net.forward(inp, train=True)
            grads = net.backward(coeffs)
            assert q.dtype == dtype
            results.append([q_eval.tobytes(), q.tobytes()]
                           + [g.tobytes() for g in grads.values()])
        assert results[0] == results[1]

    def test_other_dtypes_are_cast(self):
        net = fresh_net(dtype=np.float32)
        x = self.stacks(2).astype(np.float64)
        q = net.forward(x)
        assert q.dtype == np.float32
        assert q.tobytes() == net.forward(x.astype(np.float32)).tobytes()

    def test_gradcheck_on_bit_stacks(self):
        net = nn.build_q_network(4, dtype=np.float64)
        nn.init_weights(net, np.random.default_rng(1))
        x = self.stacks(2, seed=9, density=0.2)
        coeffs = np.random.default_rng(7).normal(size=(2, 4))
        worst, probed = max_param_rel_error(net, x, coeffs, probes_per_tensor=2)
        assert probed >= 10
        assert worst < 1e-5
