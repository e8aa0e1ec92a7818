"""Minimal numpy CNN engine for the Q-network.

Layers carry their own parameters and cached activations; a network is an
ordered stack of layers. Activations are channels-last ``(N, H, W, C)``
and conv weights are ``(kh, kw, in_c, out_c)``, which keeps the im2col
buffers contiguous for the BLAS matmuls. "Same" padding follows
ceil-division output sizes: ``out = ceil(in / stride)``, with the smaller
pad half before and the larger half after. Max pooling pads with -inf so
padded positions never win a window.

A convolution window whose (zero-padded) input is all zeros outputs exactly
the bias (then ReLU) and adds nothing to the weight gradient, so conv layers
build im2col rows and multiply only for windows that hold a nonzero value
(NaN counts as nonzero). Binarized frames are mostly zeros, which makes the
first layer's GEMM about a tenth of its dense size.

Training dtype is float32; float64 networks are supported for
finite-difference verification.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float32
BN_EPSILON = 1e-3
BN_MOMENTUM = 0.99


def same_pad(in_size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """Return (out_size, pad_before, pad_after) for same-padding."""
    out = -(-in_size // stride)
    total = max((out - 1) * stride + kernel - in_size, 0)
    return out, total // 2, total - total // 2


def pad_spatial(x: np.ndarray, pt: int, pb: int, pl: int, pr: int,
                fill: float = 0.0) -> np.ndarray:
    """``x`` (N, H, W, C) padded on H and W with ``fill``.

    Same values as ``np.pad``, whose own overhead (about 60 us a call) is
    most of a batch-1 layer's time.
    """
    n, h, w, c = x.shape
    xp = np.empty((n, h + pt + pb, w + pl + pr, c), dtype=x.dtype)
    xp[:, :pt] = fill
    xp[:, pt + h :] = fill
    xp[:, pt : pt + h, :pl] = fill
    xp[:, pt : pt + h, pl + w :] = fill
    xp[:, pt : pt + h, pl : pl + w] = x
    return xp


class Layer:
    """Base: parameters are (suffix, array) pairs; backward consumes the cache."""

    name = "layer"

    def params(self) -> list[tuple[str, np.ndarray]]:
        return []

    def state(self) -> list[tuple[str, np.ndarray]]:
        """Params plus non-trainable arrays (batch-norm running stats)."""
        return self.params()

    def grads(self) -> list[tuple[str, np.ndarray]]:
        return []

    def spec(self) -> tuple:
        raise NotImplementedError

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        cache = getattr(self, "_cache", None)
        if cache is None:
            raise RuntimeError(f"{self.name}: backward without a train-mode forward")
        self._cache = None
        return cache


class Conv2D(Layer):
    """Same-padded convolution as a GEMM over the windows that hold a nonzero.

    Forward gathers the im2col rows of the active windows only, multiplies
    them by the weights and scatters the result; every other output row is
    exactly ``b`` (then ReLU). Backward takes ``dw`` over the active rows and
    ``db`` and ``dx`` over all rows. Windows are tested per stride-sized
    block when ``kernel % stride == 0``; otherwise every window counts as
    active. When every window is active, the im2col matrix is one contiguous
    copy of the window view and the product is the output. Outputs equal the
    dense layer's up to the order in which BLAS sums each row.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int, relu: bool = True, dtype=DEFAULT_DTYPE):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.relu = relu
        self.dtype = dtype
        self.w = np.zeros((kernel, kernel, in_channels, out_channels), dtype=dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def spec(self) -> tuple:
        return ("conv", self.in_channels, self.out_channels, self.kernel,
                self.stride, self.relu)

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def grads(self):
        return [("w", self.dw), ("b", self.db)]

    def _active_windows(self, xp, oh, ow):
        """(n, oh, ow) mask of the windows whose padded input holds a nonzero.

        With ``kernel % stride == 0`` the padded input tiles into
        stride-sized blocks and each window covers ``(kernel / stride)**2`` of
        them, so the test runs once per block, then ORs neighbouring blocks.
        Other geometries count every window as active.
        """
        n, hp, wp, c = xp.shape
        k, s = self.kernel, self.stride
        if k % s:
            return np.ones((n, oh, ow), dtype=bool)
        nz = (xp != 0).view(np.uint8)
        # OR each block's s rows: an outer axis, so whole rows at a time ...
        block_rows = np.bitwise_or.reduce(nz.reshape(n, hp // s, s, wp * c), axis=2)
        # ... then its s * c bytes of columns, read as the widest whole words.
        lanes = block_rows.reshape(n, hp // s, wp // s, s * c).view(f"u{math.gcd(s * c, 8)}")
        blocks = np.zeros(lanes.shape[:3], dtype=lanes.dtype)
        for q in range(lanes.shape[3]):  # a few lanes; numpy reduces short axes slowly
            blocks |= lanes[..., q]
        blocks = blocks != 0
        active = np.zeros((n, oh, ow), dtype=bool)
        for i in range(k // s):
            for j in range(k // s):
                active |= blocks[:, i : i + oh, j : j + ow]
        return active

    def forward(self, x, train):
        n, h, w, c = x.shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        k, s = self.kernel, self.stride
        oh, pt, pb = same_pad(h, k, s)
        ow, pl, pr = same_pad(w, k, s)
        xp = pad_spatial(x, pt, pb, pl, pr)
        active = self._active_windows(xp, oh, ow)
        dense = bool(active.all())
        # (n, oh, ow, c, kh, kw) -> (n, oh, ow, kh, kw, c): (kh, kw, c) runs
        # match the weight layout, so the gathered rows multiply it directly.
        win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s].transpose(0, 1, 2, 4, 5, 3)
        if dense:  # one contiguous copy beats gathering every window by index
            cols = win.reshape(n * oh * ow, k * k * c)
            rows = slice(None)
        else:
            ni, ii, jj = np.nonzero(active)
            cols = win[ni, ii, jj].reshape(len(ni), k * k * c)
            rows = (ni * oh + ii) * ow + jj
        del xp, win  # the padded input is dead; free it before the GEMM
        prod = cols @ self.w.reshape(k * k * c, self.out_channels)
        prod += self.b
        if dense:
            out = prod
        else:
            out = np.empty((n * oh * ow, self.out_channels), dtype=prod.dtype)
            out[...] = self.b
            out[rows] = prod
        out = out.reshape(n, oh, ow, self.out_channels)
        if self.relu:
            mask = out > 0
            np.maximum(out, 0, out=out)
        else:
            mask = None
        if train:
            self._cache = (cols, rows, mask, (n, h, w, c), (oh, ow), (pt, pl),
                           (h + pt + pb, w + pl + pr))
        return out

    def backward(self, dout, need_dx: bool = True):
        cols, rows, mask, (n, h, w, c), (oh, ow), (pt, pl), (hp, wp) = self._take_cache()
        k, s = self.kernel, self.stride
        if mask is not None:
            dout = dout * mask
        dmat = dout.reshape(n * oh * ow, self.out_channels)
        wmat = self.w.reshape(k * k * c, self.out_channels)
        self.dw = (cols.T @ dmat[rows]).reshape(self.w.shape)
        self.db = dmat.sum(axis=0)
        if not need_dx:
            return None
        dcols = (dmat @ wmat.T).reshape(n, oh, ow, k, k, c)
        dxp = np.zeros((n, hp, wp, c), dtype=dout.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, i : i + (oh - 1) * s + 1 : s,
                    j : j + (ow - 1) * s + 1 : s, :] += dcols[:, :, :, i, j, :]
        return dxp[:, pt : pt + h, pl : pl + w, :]


class MaxPool2D(Layer):
    """2x2 window, stride 2, same padding with -inf fill."""

    kernel = 2
    stride = 2

    def __init__(self):
        self._cache = None

    def spec(self) -> tuple:
        return ("maxpool", self.kernel, self.stride)

    def _windows(self, x):
        n, h, w, c = x.shape
        k, s = self.kernel, self.stride
        oh, pt, pb = same_pad(h, k, s)
        ow, pl, pr = same_pad(w, k, s)
        xp = pad_spatial(x, pt, pb, pl, pr, fill=-np.inf)
        views = [
            xp[:, i : i + (oh - 1) * s + 1 : s, j : j + (ow - 1) * s + 1 : s, :]
            for i in range(k)
            for j in range(k)
        ]
        return views, (oh, ow), (pt, pl), (h + pt + pb, w + pl + pr)

    def forward(self, x, train):
        views, (oh, ow), pads, padded = self._windows(x)
        if not train:
            return np.maximum.reduce(views)
        a, b, c_, d = views
        top = np.maximum(a, b)
        bot = np.maximum(c_, d)
        out = np.maximum(top, bot)
        # first-occurrence argmax over window positions 0..3
        idx = np.where(b > a, np.uint8(1), np.uint8(0))
        idx_bot = np.where(d > c_, np.uint8(3), np.uint8(2))
        idx = np.where(bot > top, idx_bot, idx)
        self._cache = (idx, x.shape, (oh, ow), pads, padded)
        return out

    def backward(self, dout):
        idx, (n, h, w, c), (oh, ow), (pt, pl), (hp, wp) = self._take_cache()
        k, s = self.kernel, self.stride
        dxp = np.zeros((n, hp, wp, c), dtype=dout.dtype)
        for pos in range(k * k):
            i, j = divmod(pos, k)
            dxp[:, i : i + (oh - 1) * s + 1 : s,
                j : j + (ow - 1) * s + 1 : s, :] += np.where(idx == pos, dout, 0)
        return dxp[:, pt : pt + h, pl : pl + w, :]


class BatchNorm(Layer):
    """Per-channel normalization; biased batch variance, running stats for eval."""

    def __init__(self, channels: int, eps: float = BN_EPSILON,
                 momentum: float = BN_MOMENTUM, dtype=DEFAULT_DTYPE):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.dtype = dtype
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache = None

    def spec(self) -> tuple:
        return ("batchnorm", self.channels)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def state(self):
        return self.params() + [
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
        ]

    def grads(self):
        return [("gamma", self.dgamma), ("beta", self.dbeta)]

    def forward(self, x, train):
        if x.shape[-1] != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels")
        axes = tuple(range(x.ndim - 1))  # all but the channel axis
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean[...] = m * self.running_mean + (1 - m) * mean
            self.running_var[...] = m * self.running_var + (1 - m) * var
        else:
            mean = self.running_mean
            var = self.running_var
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * ivar
        out = self.gamma * xhat + self.beta
        if train:
            self._cache = (xhat, ivar, axes)
        return out.astype(x.dtype, copy=False)

    def backward(self, dout):
        xhat, ivar, axes = self._take_cache()
        m = dout.size // self.channels
        self.dgamma = (dout * xhat).sum(axis=axes)
        self.dbeta = dout.sum(axis=axes)
        dxhat = dout * self.gamma
        term = (
            m * dxhat
            - dxhat.sum(axis=axes)
            - xhat * (dxhat * xhat).sum(axis=axes)
        )
        return (ivar / m) * term


class Flatten(Layer):
    def __init__(self):
        self._cache = None

    def spec(self) -> tuple:
        return ("flatten",)

    def forward(self, x, train):
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        shape = self._take_cache()
        return dout.reshape(shape)


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int, relu: bool,
                 dtype=DEFAULT_DTYPE):
        self.in_features = in_features
        self.out_features = out_features
        self.relu = relu
        self.dtype = dtype
        self.w = np.zeros((in_features, out_features), dtype=dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def spec(self) -> tuple:
        return ("dense", self.in_features, self.out_features, self.relu)

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def grads(self):
        return [("w", self.dw), ("b", self.db)]

    def forward(self, x, train):
        if x.shape[1] != self.in_features:
            raise ValueError(f"{self.name}: expected {self.in_features} features, got {x.shape[1]}")
        out = x @ self.w + self.b
        if self.relu:
            mask = out > 0
            out = np.maximum(out, 0)
        else:
            mask = None
        if train:
            self._cache = (x, mask)
        return out

    def backward(self, dout):
        x, mask = self._take_cache()
        if mask is not None:
            dout = dout * mask
        self.dw = x.T @ dout
        self.db = dout.sum(axis=0)
        return dout @ self.w.T


class QNetwork:
    """An ordered layer stack with forward, backward, and named parameters."""

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...] | None = None,
                 dtype=DEFAULT_DTYPE):
        self.layers = layers
        self.input_shape = input_shape
        self.dtype = dtype
        counters: dict[str, int] = {}
        for layer in layers:
            kind = layer.spec()[0]
            counters[kind] = counters.get(kind, 0) + 1
            layer.name = f"{kind}{counters[kind]}"
        self._forwarded_train = False

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].out_features

    def spec(self) -> tuple:
        return tuple(layer.spec() for layer in self.layers)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if self.input_shape is not None and x.shape[1:] != self.input_shape:
            raise ValueError(f"expected input {self.input_shape}, got {x.shape[1:]}")
        x = np.asarray(x, dtype=self.dtype)
        for layer in self.layers:
            x = layer.forward(x, train)
        if train:
            self._forwarded_train = True
        return x

    def backward(self, dout: np.ndarray) -> dict[str, np.ndarray]:
        if not self._forwarded_train:
            raise RuntimeError("backward requires a preceding train-mode forward")
        self._forwarded_train = False
        d = np.asarray(dout, dtype=self.dtype)
        for i, layer in reversed(list(enumerate(self.layers))):
            if i == 0 and isinstance(layer, Conv2D):
                layer.backward(d, need_dx=False)  # nothing consumes dx below
            else:
                d = layer.backward(d)
        return self.gradients()

    def trace_shapes(self, x: np.ndarray) -> list[tuple[int, ...]]:
        """Per-layer output shapes (without the batch axis) of an eval forward."""
        x = np.asarray(x, dtype=self.dtype)
        shapes = []
        for layer in self.layers:
            x = layer.forward(x, train=False)
            shapes.append(x.shape[1:])
        return shapes

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self.layers:
            for suffix, arr in layer.params():
                out[f"{layer.name}.{suffix}"] = arr
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self.layers:
            for suffix, arr in layer.state():
                out[f"{layer.name}.{suffix}"] = arr
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self.layers:
            for suffix, arr in layer.grads():
                out[f"{layer.name}.{suffix}"] = arr
        return out


def build_q_network(n_actions: int = 4, dtype=DEFAULT_DTYPE) -> QNetwork:
    """The fixed production architecture: 84x84x4 in, one Q-value per action."""
    layers = [
        Conv2D(4, 32, kernel=8, stride=4, relu=True, dtype=dtype),
        MaxPool2D(),
        Conv2D(32, 64, kernel=4, stride=2, relu=True, dtype=dtype),
        MaxPool2D(),
        BatchNorm(64, dtype=dtype),
        Conv2D(64, 128, kernel=3, stride=2, relu=True, dtype=dtype),
        MaxPool2D(),
        BatchNorm(128, dtype=dtype),
        Flatten(),
        Dense(128, 512, relu=True, dtype=dtype),
        Dense(512, 512, relu=True, dtype=dtype),
        Dense(512, n_actions, relu=False, dtype=dtype),
    ]
    return QNetwork(layers, input_shape=(84, 84, 4), dtype=dtype)


def init_weights(net: QNetwork, rng: np.random.Generator) -> QNetwork:
    """He-uniform for ReLU layers, Glorot-uniform for the linear head.

    Biases start at zero; batch-norm starts as the identity transform.
    """
    for layer in net.layers:
        if isinstance(layer, Conv2D):
            fan_in = layer.in_channels * layer.kernel * layer.kernel
            fan_out = layer.out_channels * layer.kernel * layer.kernel
        elif isinstance(layer, Dense):
            fan_in = layer.in_features
            fan_out = layer.out_features
        else:
            if isinstance(layer, BatchNorm):
                layer.gamma[...] = 1
                layer.beta[...] = 0
                layer.running_mean[...] = 0
                layer.running_var[...] = 1
            continue
        if layer.relu:
            limit = math.sqrt(6.0 / fan_in)
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
        layer.w[...] = rng.uniform(-limit, limit, size=layer.w.shape)
        layer.b[...] = 0
    return net


def copy_weights(src: QNetwork, dst: QNetwork) -> QNetwork:
    """Copy all parameters and running statistics; architectures must match."""
    if src.spec() != dst.spec():
        raise ValueError("cannot copy weights between different architectures")
    src_state = src.state_arrays()
    for name, arr in dst.state_arrays().items():
        np.copyto(arr, src_state[name])
    return dst
