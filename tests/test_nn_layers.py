"""Layer-level checks: same padding, forward oracles, exact gradients."""

import math

import numpy as np
import pytest

from snakedqn import nn
from snakedqn.nn import BatchNorm, Conv2D, Dense, Flatten, MaxPool2D, QNetwork

from gradcheck import max_input_rel_error, max_param_rel_error
from update_oracle import OracleMaxPool2D


def naive_conv_same(x, w, b, stride):
    """Triple-loop same-padding convolution; independent of the layer code.

    x: (h, w, cin), w: (k, k, cin, cout). Output size is ceil(in/stride);
    padding splits floor-before / ceil-after.
    """
    h, wd, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    oh = math.ceil(h / stride)
    ow = math.ceil(wd / stride)
    pt = max((oh - 1) * stride + k - h, 0) // 2
    pl = max((ow - 1) * stride + k - wd, 0) // 2
    out = np.zeros((oh, ow, cout))
    for oy in range(oh):
        for ox in range(ow):
            acc = np.zeros(cout)
            for i in range(k):
                for j in range(k):
                    y = oy * stride + i - pt
                    z = ox * stride + j - pl
                    if 0 <= y < h and 0 <= z < wd:
                        acc += x[y, z] @ w[i, j]
            out[oy, ox] = acc + b
    return out


class TestSamePad:
    @pytest.mark.parametrize("in_size,kernel,stride,expected", [
        (84, 8, 4, (21, 2, 2)),
        (21, 2, 2, (11, 0, 1)),
        (11, 4, 2, (6, 1, 2)),
        (6, 2, 2, (3, 0, 0)),
        (3, 3, 2, (2, 1, 1)),
        (2, 2, 2, (1, 0, 0)),
        (10, 3, 1, (10, 1, 1)),
    ])
    def test_table(self, in_size, kernel, stride, expected):
        assert nn.same_pad(in_size, kernel, stride) == expected


class TestConvForward:
    @pytest.mark.parametrize("in_shape,conv,out_shape", [
        ((84, 84, 4), dict(in_channels=4, out_channels=32, kernel=8, stride=4), (21, 21, 32)),
        ((11, 11, 32), dict(in_channels=32, out_channels=64, kernel=4, stride=2), (6, 6, 64)),
        ((3, 3, 64), dict(in_channels=64, out_channels=128, kernel=3, stride=2), (2, 2, 128)),
    ])
    def test_production_shapes(self, in_shape, conv, out_shape):
        layer = Conv2D(**conv, relu=True)
        x = np.zeros((2, *in_shape), dtype=np.float32)
        assert layer.forward(x, train=False).shape == (2, *out_shape)

    def test_identity_kernel(self):
        layer = Conv2D(3, 3, kernel=1, stride=1, relu=False, dtype=np.float64)
        layer.w[0, 0] = np.eye(3)
        x = np.random.default_rng(0).normal(size=(2, 5, 5, 3))
        assert np.allclose(layer.forward(x, train=False), x)

    def test_all_ones_3x3_stride2(self):
        # padding splits 1 before / 1 after, so every window sees a 2x2 patch
        layer = Conv2D(1, 1, kernel=3, stride=2, relu=False, dtype=np.float64)
        layer.w[...] = 1.0
        x = np.ones((1, 3, 3, 1))
        out = layer.forward(x, train=False)[0, :, :, 0]
        expected = naive_conv_same(x[0], layer.w, layer.b, stride=2)[:, :, 0]
        assert np.array_equal(out, expected)
        assert np.array_equal(out, [[4.0, 4.0], [4.0, 4.0]])

    @pytest.mark.parametrize("h,w,cin,cout,k,s", [
        (8, 8, 2, 3, 3, 2),
        (7, 9, 3, 2, 4, 3),
        (5, 5, 1, 4, 2, 1),
        (6, 4, 2, 2, 5, 2),
    ])
    def test_matches_naive_oracle(self, h, w, cin, cout, k, s):
        rng = np.random.default_rng(h * 100 + w)
        layer = Conv2D(cin, cout, kernel=k, stride=s, relu=False, dtype=np.float64)
        layer.w[...] = rng.normal(size=layer.w.shape)
        layer.b[...] = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(2, h, w, cin))
        got = layer.forward(x, train=False)
        for n in range(2):
            want = naive_conv_same(x[n], layer.w, layer.b, stride=s)
            assert np.allclose(got[n], want, atol=1e-12)

    def test_relu_applied(self):
        layer = Conv2D(1, 1, kernel=1, stride=1, relu=True, dtype=np.float64)
        layer.w[...] = 1.0
        x = np.array([[[[-2.0]], [[3.0]]]]).reshape(1, 2, 1, 1)
        out = layer.forward(x, train=False)
        assert out.reshape(-1).tolist() == [0.0, 3.0]

    def test_channel_mismatch(self):
        layer = Conv2D(4, 8, kernel=3, stride=1)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 8, 8, 3), dtype=np.float32), train=False)


class TestMaxPool:
    def test_production_shapes(self):
        pool = MaxPool2D()
        for in_shape, out_shape in [((6, 6, 64), (3, 3, 64)),
                                    ((2, 2, 128), (1, 1, 128))]:
            x = np.zeros((2, *in_shape), dtype=np.float32)
            assert pool.forward(x, train=False).shape == (2, *out_shape)

    @pytest.mark.parametrize("shape", [(1, 5, 4, 2), (1, 4, 5, 2), (2, 21, 21, 32)])
    def test_odd_sizes_rejected(self, shape):
        with pytest.raises(ValueError, match="even"):
            MaxPool2D().forward(np.zeros(shape, dtype=np.float32), train=False)

    def test_constant_input(self):
        pool = MaxPool2D()
        x = np.full((1, 6, 6, 2), 3.5, dtype=np.float64)
        assert (pool.forward(x, train=False) == 3.5).all()

    def test_4x4_window_enumeration(self):
        pool = MaxPool2D()
        x = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
        out = pool.forward(x, train=False)[0, :, :, 0]
        assert np.array_equal(out, [[6.0, 8.0], [14.0, 16.0]])

    def test_train_idx_matches_stack_argmax(self):
        """The max, and a one-hot upstream gradient lands at the first argmax."""
        pool = MaxPool2D()
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = (rng.random((2, 6, 8, 3)) > 0.5).astype(np.float32)  # many ties
            out = pool.forward(x, train=True)
            stacked = np.stack([x[:, i::2, j::2] for i in range(2) for j in range(2)], axis=-1)
            assert np.array_equal(out, stacked.max(-1))
            # Windows do not overlap, so an all-ones upstream gradient is a
            # one-hot per window.
            dx = pool.backward(np.ones_like(out))
            taps = np.stack([dx[:, i::2, j::2] for i in range(2) for j in range(2)], axis=-1)
            assert np.array_equal(taps, np.arange(4) == stacked.argmax(-1)[..., None])


def pool_input(kind, shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=shape).astype(dtype)
    if kind == "binary":
        return (rng.random(shape) < 0.5).astype(dtype)
    if kind == "relu_rows":  # relu'd rows of one constant each: ties, many at 0
        rows = rng.normal(size=shape[:2] + (1,) * (len(shape) - 2))
        return np.maximum(np.broadcast_to(rows, shape), 0).astype(dtype)
    if kind == "signed_zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
    raise ValueError(kind)


class TestMaxPoolOracle:
    """Bit-for-bit against the pad-everything, argmax-index layer."""

    SHAPES = [(32, 22, 22, 32), (32, 6, 6, 64), (32, 2, 2, 128),  # production, and larger
              (3, 6, 8, 2), (2, 4, 6, 3), (2, 2, 2, 2), (1, 4, 2, 1), (2, 8, 6, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", ["random", "binary", "relu_rows", "signed_zeros"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward(self, shape, kind, dtype):
        x = pool_input(kind, shape, dtype)
        pool, oracle = MaxPool2D(), OracleMaxPool2D()
        assert pool.forward(x, train=False).tobytes() == oracle.forward(x, train=False).tobytes()
        out = pool.forward(x, train=True)
        want = oracle.forward(x, train=True)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        dout = np.random.default_rng(1).normal(size=out.shape).astype(dtype)
        dout[..., 0] = -0.0  # the oracle adds it to zeros, which reads +0.0
        dx, dx_want = pool.backward(dout), oracle.backward(dout)
        assert dx.shape == x.shape and dx.dtype == dx_want.dtype
        assert dx.tobytes() == dx_want.tobytes()

    def test_non_contiguous_input(self):
        x = pool_input("random", (2, 10, 8, 6), np.float32)[..., ::2]
        pool, oracle = MaxPool2D(), OracleMaxPool2D()
        assert pool.forward(x, train=True).tobytes() == oracle.forward(x, train=True).tobytes()
        dout = np.ones((2, 5, 4, 3), dtype=np.float32)
        assert pool.backward(dout).tobytes() == oracle.backward(dout).tobytes()


class TestBatchNorm:
    def test_eval_identity_stats(self):
        bn = BatchNorm(3, dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = bn.forward(x, train=False)
        assert np.allclose(out, x, rtol=1e-3)

    def test_train_normalizes_per_channel(self):
        bn = BatchNorm(5, dtype=np.float64)
        x = 100.0 * np.random.default_rng(1).normal(size=(16, 6, 6, 5))
        out = bn.forward(x, train=True)
        assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-5
        assert np.abs(out.var(axis=(0, 1, 2)) - 1).max() < 1e-5

    def test_two_value_batch(self):
        bn = BatchNorm(1, dtype=np.float64)
        out = bn.forward(np.array([[0.0], [2.0]]), train=True)
        assert np.allclose(out.reshape(-1), [-0.9995, 0.9995], atol=1e-6)

    def test_batch_of_one_is_guarded(self):
        bn = BatchNorm(2, dtype=np.float64)
        out = bn.forward(np.array([[3.0, -1.0]]), train=True)
        assert np.isfinite(out).all()
        assert np.allclose(out, 0.0)

    def test_running_stats_update(self):
        bn = BatchNorm(1, dtype=np.float64)
        bn.forward(np.array([[0.0], [2.0]]), train=True)
        assert np.isclose(bn.running_mean[0], 0.99 * 0 + 0.01 * 1.0)
        assert np.isclose(bn.running_var[0], 0.99 * 1 + 0.01 * 1.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1, dtype=np.float64)
        bn.running_mean[:] = 10.0
        bn.running_var[:] = 4.0
        out = bn.forward(np.array([[12.0]]), train=False)
        assert np.isclose(out[0, 0], 2.0 / np.sqrt(4.0 + 1e-3))


class TestGradients:
    """Central finite differences, float64, h=1e-5; target < 1e-6 per layer."""

    def _coeffs(self, shape, seed=2):
        return np.random.default_rng(seed).normal(size=shape)

    def test_conv_gradients(self):
        rng = np.random.default_rng(0)
        layer = Conv2D(2, 3, kernel=3, stride=2, relu=True, dtype=np.float64)
        net = QNetwork([layer], dtype=np.float64)
        nn.init_weights(net, rng)
        x = rng.normal(size=(3, 7, 8, 2))
        coeffs = self._coeffs(net.forward(x).shape)
        worst, _ = max_param_rel_error(net, x, coeffs, probes_per_tensor=30)
        assert worst < 1e-6

    def test_conv_input_gradient(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, 4, kernel=4, stride=2, relu=False, dtype=np.float64)
        layer.w[...] = rng.normal(size=layer.w.shape)
        x = rng.normal(size=(2, 9, 9, 2))
        coeffs = self._coeffs(layer.forward(x, train=False).shape)
        assert max_input_rel_error(layer, x, coeffs) < 1e-6

    def test_dense_gradients(self):
        rng = np.random.default_rng(2)
        for relu in (True, False):
            layer = Dense(6, 4, relu=relu, dtype=np.float64)
            net = QNetwork([layer], dtype=np.float64)
            nn.init_weights(net, rng)
            x = rng.normal(size=(5, 6))
            coeffs = self._coeffs((5, 4))
            worst, _ = max_param_rel_error(net, x, coeffs, probes_per_tensor=24)
            assert worst < 1e-6
            assert max_input_rel_error(layer, x, coeffs) < 1e-6

    def test_batchnorm_gradients(self):
        rng = np.random.default_rng(3)
        layer = BatchNorm(3, dtype=np.float64)
        net = QNetwork([layer], dtype=np.float64)
        x = rng.normal(size=(4, 5, 5, 3))
        coeffs = self._coeffs((4, 5, 5, 3))
        worst, _ = max_param_rel_error(net, x, coeffs, probes_per_tensor=6)
        assert worst < 1e-6
        assert max_input_rel_error(layer, x, coeffs) < 1e-6

    def test_maxpool_input_gradient(self):
        rng = np.random.default_rng(4)
        layer = MaxPool2D()
        x = rng.normal(size=(3, 8, 8, 2))
        coeffs = self._coeffs(layer.forward(x, train=False).shape)
        assert max_input_rel_error(layer, x, coeffs) < 1e-6

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(5).normal(size=(2, 3, 4, 5))
        out = layer.forward(x, train=True)
        assert out.shape == (2, 60)
        assert layer.backward(out).shape == x.shape

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(6)
        layers = [
            Conv2D(2, 3, kernel=3, stride=2, relu=True, dtype=np.float64),
            MaxPool2D(),
            BatchNorm(3, dtype=np.float64),
            Flatten(),
            Dense(12, 4, relu=False, dtype=np.float64),
        ]
        net = QNetwork(layers, dtype=np.float64)
        nn.init_weights(net, rng)
        x = rng.normal(size=(2, 8, 8, 2))
        net.forward(x, train=True)
        grads = net.backward(np.zeros((2, 4)))
        assert all(not g.any() for g in grads.values())

    def test_backward_requires_train_forward(self):
        layer = Dense(3, 2, relu=False, dtype=np.float64)
        net = QNetwork([layer], dtype=np.float64)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 2)))
        net.forward(np.zeros((1, 3)), train=False)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 2)))
