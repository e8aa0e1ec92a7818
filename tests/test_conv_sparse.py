"""Conv2D skips all-zero windows: checks against the dense im2col oracle.

The first stage, a conv layer holding its pool, must match the plain layer
followed by the reference pool byte for byte.

For the production layer shapes the forward output must be bit-identical to
the dense layer's. For the small test geometries BLAS may sum a subset of
rows in another order than the whole matrix (numpy hands a one-row product
to gemv, and OpenBLAS's kernels for tiny matrices differ), so there it must
match to the dtype's tolerance. ``dw`` sums over fewer rows and matches up
to summation order; ``db`` and ``dx`` do not depend on the skipped rows'
inputs and match exactly.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from snakedqn import env, nn
from snakedqn.harness import observe
from snakedqn.nn import Conv2D, MaxPool2D, QNetwork
from snakedqn.preprocess import stack_init, stack_push

from dense_conv import DenseConv2D
from gradcheck import max_input_rel_error, max_param_rel_error
from update_oracle import OracleMaxPool2D

# (in_shape, in_channels, out_channels, kernel, stride): the three production
# layers, then small geometries, most with kernel % stride == 0 at other ratios.
PRODUCTION = 3
GEOMETRIES = [
    ((84, 84), 4, 32, 8, 4),
    ((11, 11), 32, 64, 4, 2),
    ((3, 3), 64, 128, 3, 2),
    ((9, 7), 2, 3, 6, 3),
    ((5, 6), 3, 2, 2, 1),
    ((10, 10), 1, 2, 4, 4),
    ((8, 7), 2, 3, 2, 3),
]

RTOL = {np.float32: 1e-5, np.float64: 1e-12}


def binary_batch(kind, n, shape, channels, seed=0):
    rng = np.random.default_rng(seed)
    full = (n, *shape, channels)
    if kind == "zeros":
        return np.zeros(full)
    if kind == "ones":
        return np.ones(full)
    if kind == "pixel":
        x = np.zeros(full)
        x[n - 1, shape[0] // 2, shape[1] - 1, channels - 1] = 1.0
        return x
    density = {"3%": 0.03, "50%": 0.5}[kind]
    return (rng.random(full) < density).astype(np.float64)


def layer_pair(in_c, out_c, k, s, relu, dtype, seed=1):
    rng = np.random.default_rng(seed)
    sparse = Conv2D(in_c, out_c, kernel=k, stride=s, relu=relu, dtype=dtype)
    dense = DenseConv2D(in_c, out_c, kernel=k, stride=s, relu=relu, dtype=dtype)
    sparse.w[...] = rng.normal(size=sparse.w.shape) / np.sqrt(k * k * in_c)
    sparse.b[...] = rng.normal(size=sparse.b.shape)
    dense.w[...] = sparse.w
    dense.b[...] = sparse.b
    return sparse, dense


def assert_close(got, want, rtol):
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-30)
    assert float(np.abs(got - want).max(initial=0.0)) <= rtol * scale


def compare(sparse, dense, x, dtype, exact=True):
    """Forward bit-identical (or within tolerance); dw, db within tolerance; dx exact."""
    x = x.astype(dtype)
    out = sparse.forward(x, train=True)
    want = dense.forward(x, train=True)
    assert out.dtype == want.dtype and out.shape == want.shape
    if exact:
        assert out.tobytes() == want.tobytes()
    else:
        assert_close(out, want, RTOL[dtype])
    dout = np.random.default_rng(2).normal(size=out.shape).astype(dtype)
    if not exact and sparse.relu:
        dout[(out > 0) != (want > 0)] = 0  # a rounding-level flip of the ReLU mask
    dx = sparse.backward(dout)
    dx_want = dense.backward(dout)
    assert_close(sparse.dw, dense.dw, RTOL[dtype])
    assert_close(sparse.db, dense.db, RTOL[dtype])
    assert dx.tobytes() == dx_want.tobytes()


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("kind", ["zeros", "pixel", "3%", "50%", "ones"])
    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("relu", [True, False])
    def test_conv1_binary_batches_float32(self, kind, n, relu):
        shape, in_c, out_c, k, s = GEOMETRIES[0]
        sparse, dense = layer_pair(in_c, out_c, k, s, relu, np.float32)
        compare(sparse, dense, binary_batch(kind, n, shape, in_c), np.float32)

    @pytest.mark.parametrize("g", range(len(GEOMETRIES)))
    @pytest.mark.parametrize("kind", ["zeros", "pixel", "3%", "50%", "ones"])
    def test_geometries_binary(self, g, kind):
        shape, in_c, out_c, k, s = GEOMETRIES[g]
        sparse, dense = layer_pair(in_c, out_c, k, s, True, np.float32)
        compare(sparse, dense, binary_batch(kind, 3, shape, in_c), np.float32,
                exact=g < PRODUCTION)

    @pytest.mark.parametrize("g", range(len(GEOMETRIES)))
    def test_dense_float64_inputs(self, g):
        shape, in_c, out_c, k, s = GEOMETRIES[g]
        sparse, dense = layer_pair(in_c, out_c, k, s, True, np.float64)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, *shape, in_c))
        x[0] = 0.0  # one all-zero sample among dense ones
        compare(sparse, dense, x, np.float64, exact=g < PRODUCTION)

    def test_nan_input_counts_as_active(self):
        shape, in_c, out_c, k, s = GEOMETRIES[0]
        sparse, dense = layer_pair(in_c, out_c, k, s, False, np.float32)
        x = np.zeros((2, *shape, in_c), dtype=np.float32)
        x[1, 40, 41, 2] = np.nan
        out = sparse.forward(x, train=False)
        want = dense.forward(x, train=False)
        assert np.isnan(out).sum() == np.isnan(want).sum() > 0
        np.testing.assert_array_equal(out, want)

    def test_single_active_window(self):
        # One active row: numpy sends a one-row product to gemv, whose sum
        # order may differ from the dense layer's gemm by rounding.
        shape, in_c, out_c, k, s = GEOMETRIES[0]
        sparse, dense = layer_pair(in_c, out_c, k, s, True, np.float32)
        x = np.zeros((1, *shape, in_c), dtype=np.float32)
        x[0, 0, 0, 0] = 1.0
        out = sparse.forward(x, train=False)
        assert np.count_nonzero((out != np.maximum(sparse.b, 0)).any(axis=-1)) == 1
        compare(sparse, dense, x, np.float32, exact=False)

    def test_zero_windows_output_the_bias(self):
        shape, in_c, out_c, k, s = GEOMETRIES[0]
        sparse, _ = layer_pair(in_c, out_c, k, s, False, np.float32)
        out = sparse.forward(np.zeros((2, *shape, in_c), dtype=np.float32), train=False)
        assert (out == sparse.b).all()


class TestIntegerInput:
    """An integer batch gives the bytes its float cast gives."""

    @pytest.mark.parametrize("g", range(len(GEOMETRIES)))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["3%", "50%", "ones"])
    def test_uint8_matches_float_cast(self, g, dtype, kind):
        shape, in_c, out_c, k, s = GEOMETRIES[g]
        layer, _ = layer_pair(in_c, out_c, k, s, True, dtype)
        x = binary_batch(kind, 3, shape, in_c).astype(np.uint8)
        self.check(layer, x, dtype)

    def test_wide_integers_test_every_byte(self):
        # 256 is nonzero only in its high byte, -1 in every byte.
        shape, in_c, out_c, k, s = GEOMETRIES[0]
        layer, _ = layer_pair(in_c, out_c, k, s, True, np.float32)
        x = np.zeros((2, *shape, in_c), dtype=np.int16)
        x[0, 40, 41, 2] = 256
        x[1, 3, 80, 0] = -1
        self.check(layer, x, np.float32)

    @staticmethod
    def check(layer, x, dtype):
        results = []
        for inp in (x, x.astype(dtype)):
            out = layer.forward(inp, train=True)
            dout = np.random.default_rng(2).normal(size=out.shape).astype(dtype)
            dx = layer.backward(dout)
            results.append([a.tobytes() for a in (out, layer.dw, layer.db, dx)])
            assert out.dtype == layer.dw.dtype == dtype
        assert results[0] == results[1]


class TestActiveWindows:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("kind", ["pixel", "3%", "50%"])
    def test_matches_brute_force(self, geometry, kind):
        (h, w), in_c, out_c, k, s = geometry
        layer = Conv2D(in_c, out_c, kernel=k, stride=s)
        x = binary_batch(kind, 2, (h, w), in_c, seed=5).astype(np.float32)
        oh, pt, pb = nn.same_pad(h, k, s)
        ow, pl, pr = nn.same_pad(w, k, s)
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        active = layer._active_windows(xp, oh, ow)
        if k % s:
            assert active.all()
        else:
            win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
            assert np.array_equal(active, (win != 0).any(axis=(3, 4, 5)))


class TestSparseGradients:
    """Finite differences on inputs with all-zero windows, kernel % stride == 0."""

    def sparse_input(self, rng):
        x = rng.normal(size=(2, 9, 9, 2))
        x[:, :5] = 0.0
        x[1] = 0.0
        return x

    def test_param_gradients(self):
        rng = np.random.default_rng(7)
        layer = Conv2D(2, 3, kernel=4, stride=2, relu=True, dtype=np.float64)
        net = QNetwork([layer], dtype=np.float64)
        nn.init_weights(net, rng)
        layer.b[...] = rng.normal(size=layer.b.shape)
        x = self.sparse_input(rng)
        coeffs = rng.normal(size=net.forward(x).shape)
        worst, _ = max_param_rel_error(net, x, coeffs, probes_per_tensor=40)
        assert worst < 1e-6

    def test_input_gradient(self):
        rng = np.random.default_rng(8)
        layer = Conv2D(2, 4, kernel=4, stride=2, relu=False, dtype=np.float64)
        layer.w[...] = rng.normal(size=layer.w.shape)
        x = self.sparse_input(rng)
        coeffs = rng.normal(size=layer.forward(x, train=False).shape)
        assert max_input_rel_error(layer, x, coeffs, probes=120) < 1e-6


def played_stacks(n, seed):
    """``n`` uint8 bit stacks from random Snake play, as the replay returns them."""
    rng = np.random.default_rng(seed)
    state = env.reset(seed=seed)
    stack = stack_init(observe(state))
    stacks = []
    while len(stacks) < n:
        if state.done:
            state = env.reset(seed=seed + len(stacks))
            stack = stack_init(observe(state))
        state, _ = env.step(state, env.ACTIONS[rng.integers(4)])
        stack = stack_push(stack, observe(state))
        stacks.append(stack.to_input())
    return np.stack(stacks)


class TestPooledStage:
    """Conv2D with a pool against Conv2D then the reference pool, byte for byte.

    Every case has bias channels below, at and above zero, so untouched pool
    windows output 0 and relu(b) > 0, and pass the gradient on or not.
    """

    @staticmethod
    def layers(in_c, out_c, k, s, dtype=np.float32, seed=1):
        rng = np.random.default_rng(seed)
        stage = Conv2D(in_c, out_c, kernel=k, stride=s, dtype=dtype, pool=MaxPool2D())
        conv = Conv2D(in_c, out_c, kernel=k, stride=s, dtype=dtype)
        stage.w[...] = rng.normal(size=stage.w.shape) / np.sqrt(k * k * in_c)
        b = np.abs(rng.normal(size=out_c)) * 0.3
        b[::3] *= -1
        b[1::3] = 0.0
        stage.b[...] = b
        conv.w[...] = stage.w
        conv.b[...] = stage.b
        return stage, conv, OracleMaxPool2D()

    @staticmethod
    def check(stage, conv, pool, x):
        want = pool.forward(conv.forward(x, train=False), train=False)
        got = stage.forward(x, train=False)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        want = pool.forward(conv.forward(x, train=True), train=True)
        got = stage.forward(x, train=True)
        assert got.tobytes() == want.tobytes()
        dout = np.random.default_rng(2).normal(size=got.shape).astype(got.dtype)
        dout[..., ::4] = 0.0
        assert stage.backward(dout, need_dx=False) is None
        conv.backward(pool.backward(dout), need_dx=False)
        assert stage.dw.dtype == conv.dw.dtype and stage.db.dtype == conv.db.dtype
        assert stage.dw.tobytes() == conv.dw.tobytes()
        assert stage.db.tobytes() == conv.db.tobytes()

    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("cast", [False, True])
    def test_played_stacks(self, n, cast):
        x = played_stacks(n, seed=n)
        self.check(*self.layers(4, 32, 8, 4), x.astype(np.float32) if cast else x)

    @pytest.mark.parametrize("n", [1, 3])
    def test_all_zero_input(self, n):
        stage, conv, pool = self.layers(4, 32, 8, 4)
        self.check(stage, conv, pool, np.zeros((n, 84, 84, 4), dtype=np.uint8))
        floor = np.maximum(stage.b, 0)
        assert (stage.forward(np.zeros((n, 84, 84, 4), dtype=np.uint8), train=False) == floor).all()

    @pytest.mark.parametrize("corner", [(0, 0), (83, 83), (83, 0)])
    def test_single_active_window(self, corner):
        x = np.zeros((2, 84, 84, 4), dtype=np.uint8)
        x[1, corner[0], corner[1], 3] = 1
        stage, conv, pool = self.layers(4, 32, 8, 4)
        active = (conv.forward(x, train=False) != np.maximum(conv.b, 0)).any(axis=-1)
        assert active.sum() == 1
        self.check(stage, conv, pool, x)

    @pytest.mark.parametrize("density", [0.05, 1.0])
    def test_all_active_float64(self, density):
        # The benchmark's float64 Q check sends 5%-dense float64 stacks to a
        # float64 network, which makes every conv1 window active.
        x = (np.random.default_rng(3).random((4, 84, 84, 4)) < density).astype(np.float64)
        self.check(*self.layers(4, 32, 8, 4, dtype=np.float64), x)

    @pytest.mark.parametrize("shape", [(84, 84), (80, 84), (84, 80), (80, 80)])
    def test_odd_and_even_conv_outputs(self, shape):
        # 84 gives a 21-row conv output (pool pads one row), 80 gives 20.
        x = played_stacks(6, seed=4)[:, : shape[0], : shape[1]]
        self.check(*self.layers(4, 32, 8, 4), x)

    @pytest.mark.parametrize("g", range(PRODUCTION, len(GEOMETRIES)))
    @pytest.mark.parametrize("kind", ["pixel", "3%", "50%"])
    def test_small_geometries(self, g, kind):
        shape, in_c, out_c, k, s = GEOMETRIES[g]
        x = binary_batch(kind, 3, shape, in_c).astype(np.uint8)
        self.check(*self.layers(in_c, out_c, k, s), x)

    def test_returns_no_input_gradient(self):
        stage, _, _ = self.layers(4, 32, 8, 4)
        out = stage.forward(played_stacks(2, seed=5), train=True)
        with pytest.raises(ValueError, match="no input gradient"):
            stage.backward(np.ones_like(out))

    def test_pool_needs_relu(self):
        with pytest.raises(ValueError, match="ReLU"):
            Conv2D(4, 32, kernel=8, stride=4, relu=False, pool=MaxPool2D())
