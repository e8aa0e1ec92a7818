"""Conv2D skips all-zero windows: checks against the dense im2col oracle.

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

from snakedqn import nn
from snakedqn.nn import Conv2D, QNetwork

from dense_conv import DenseConv2D
from gradcheck import max_input_rel_error, max_param_rel_error

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
    assert np.array_equal(dx, dx_want)


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
