"""Minimal numpy CNN engine for the Q-network.

Layers carry their own parameters and cached activations; a network is an
ordered stack of layers. Activations are channels-last ``(N, H, W, C)``
and conv weights are ``(kh, kw, in_c, out_c)``, which keeps the im2col
buffers contiguous for the BLAS matmuls. "Same" padding follows
ceil-division output sizes: ``out = ceil(in / stride)``, with the smaller
pad half before and the larger half after.

The network's first layer takes the replay's uint8 0/1 bit stacks as they
are; any other input dtype is cast to the network's. A convolution window
whose (zero-padded) input is all zeros outputs exactly the bias (then ReLU)
and adds nothing to the weight gradient, so conv layers build im2col rows
and multiply only for windows that hold a nonzero value (NaN counts as
nonzero). Binarized frames are mostly zeros, which makes the first layer's
GEMM about a tenth of its dense size.

Max pooling (2x2, stride 2) reads an ``(n, h, w, c)`` input as
``(n, oh, 2, ow, 2, c)``, so its four window taps are strided views and no
window is copied. Same padding for this geometry only ever pads after, so
an odd-sized input is padded with one row or column of -inf, which never
wins a window; even-sized inputs are not copied at all. The backward writes
each tap's share of the gradient straight into a view of its output.

The first conv layer holds the first pool, so conv1, its ReLU and pool1
run as one stage. On replay batches about nine in ten of conv1's output
rows are the constant ``relu(b)``, and so is every pool window that none of
the other rows reaches. The stage writes ``relu(b)`` to the pooled output,
then pools only the windows an active row reaches, laid out as a compact
``(windows, 2, 2, c)`` input for the pool layer. Its backward takes ``dw``
from the active rows and ``db`` from one term per window row, so both, and
the output, equal the separate conv and pool layers' bit for bit.

Each layer class declares its arrays once, by attribute name: ``kind``
names its instances (``conv1``, ``conv2``, ...), ``trainable`` lists what
the optimizer updates, with the gradient of ``w`` in ``dw``, and ``saved``
lists other state that is copied and checkpointed with the parameters
(batch-norm running statistics). The network derives every name-to-array
mapping from these declarations, reading the attributes when asked:
``params``, ``state_arrays`` and ``gradients`` all call conv1's weight
``conv1.w``, and the optimizer's moments and the checkpoint records reuse
those names.

Training dtype is float32; float64 networks are supported for
finite-difference verification.
"""

from __future__ import annotations

import math

import numpy as np

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
    """Base: a layer declares the names of its arrays; backward consumes the cache.

    ``kind`` names the layer in its network (``conv1``, ``conv2``, ...).
    ``trainable`` lists the attributes the optimizer updates; the gradient of
    ``x`` is the attribute ``d<x>``. ``saved`` lists the other arrays a
    network copies and checkpoints with them.
    """

    kind = "layer"
    trainable: tuple[str, ...] = ()
    saved: tuple[str, ...] = ()
    name = "layer"

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

    Padding and the window test run in the input's dtype, so an integer
    input (the uint8 bit stacks) is padded as bytes; only the gathered
    im2col rows are cast, to the dtype the input and weights promote to.
    Backward adds ``dcols`` into ``dx`` one stride-sized block of taps at a
    time, ``ceil(kernel / stride)**2`` adds, in the same per-element order
    as one add per tap.

    Given a ``pool``, the layer is a network's first stage: convolution,
    ReLU, then that 2x2 max pool, computed over the pool windows that hold
    an active row (see ``_pooled_forward``). It always gathers its rows by
    index, and returns no input gradient.
    """

    kind = "conv"
    trainable = ("w", "b")

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int, relu: bool = True, dtype=DEFAULT_DTYPE,
                 pool: MaxPool2D | None = None):
        if pool is not None and not relu:
            raise ValueError("a pooled conv stage applies ReLU before the pool")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.relu = relu
        self.dtype = dtype
        self.pool = pool
        self.w = np.zeros((kernel, kernel, in_channels, out_channels), dtype=dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def _active_windows(self, xp, oh, ow):
        """(n, oh, ow) mask of the windows whose padded input holds a nonzero.

        With ``kernel % stride == 0`` the padded input tiles into
        stride-sized blocks and each window covers ``(kernel / stride)**2`` of
        them, so the test runs once per block, then ORs neighbouring blocks.
        Other geometries count every window as active.
        """
        n, hp, wp, _ = xp.shape
        k, s = self.kernel, self.stride
        if k % s:
            return np.ones((n, oh, ow), dtype=bool)
        # An integer value is nonzero iff one of its bytes is: test the bytes.
        nz = xp.view(np.uint8) if xp.dtype.kind in "biu" else (xp != 0).view(np.uint8)
        c = nz.shape[-1]
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
        dense = self.pool is None and bool(active.all())
        # The (n, oh, ow, kh, kw, c) windows as a strided view: (kh, kw, c) runs
        # match the weight layout, so the gathered rows multiply it directly.
        # (The constructor checks the view against xp's bounds and costs
        # about a microsecond; sliding_window_view costs about 20.)
        sn, sh, sw, sc = xp.strides
        win = np.ndarray((n, oh, ow, k, k, c), xp.dtype, xp, 0, (sn, s * sh, s * sw, sh, sw, sc))
        dtype = np.result_type(x.dtype, self.w.dtype)
        if dense:  # one contiguous copy beats gathering every window by index
            cols = np.empty((n * oh * ow, k * k * c), dtype=dtype)
            cols.reshape(win.shape)[...] = win
        else:
            ni, ii, jj = np.nonzero(active)
            cols = win[ni, ii, jj].reshape(len(ni), k * k * c).astype(dtype, copy=False)
        del xp, win  # the padded input is dead; free it before the GEMM
        prod = cols @ self.w.reshape(k * k * c, self.out_channels)
        prod += self.b
        if self.pool is not None:
            return self._pooled_forward(cols, prod, (ni, ii, jj), (n, oh, ow), train)
        if dense:
            out, rows = prod, slice(None)
        else:
            rows = (ni * oh + ii) * ow + jj
            out = np.empty((n * oh * ow, self.out_channels), dtype=prod.dtype)
            out[...] = self.b
            out[rows] = prod
        out = out.reshape(n, oh, ow, self.out_channels)
        if self.relu:
            mask = out > 0 if train else None
            np.maximum(out, 0, out=out)
        else:
            mask = None
        if train:
            self._cache = (cols, rows, mask, (n, h, w, c), (oh, ow), (pt, pl))
        return out

    def _pooled_forward(self, cols, prod, active, conv_shape, train):
        """ReLU then ``pool`` of the conv output, over the windows an active row reaches.

        ``prod`` holds the pre-activations of the active conv rows, whose
        (sample, row, column) indices are ``active``. Every other conv row
        is ``relu(b)``, so a pool window without an active row outputs
        ``relu(b)``. The touched windows are pooled as a compact
        ``(windows, 2, 2, c)`` array: active taps hold ``relu(z)``, other
        real taps ``relu(b)`` and taps past an odd edge -inf, as the pool's
        own padding would.
        """
        ni, ii, jj = active
        n, oh, ow = conv_shape
        ph, pw, c = -(-oh // 2), -(-ow // 2), self.out_channels
        window = (ni * ph + (ii >> 1)) * pw + (jj >> 1)
        hit = np.zeros(n * ph * pw, dtype=bool)
        hit[window] = True
        touched = np.flatnonzero(hit)
        # Window w's four taps start at row slot[w] of the tap array, in (dy, dx) order.
        slot = np.empty(n * ph * pw, dtype=np.intp)
        slot[touched] = np.arange(0, 4 * len(touched), 4)
        taps = slot[window] + (ii & 1) * 2 + (jj & 1)
        floor = np.maximum(self.b, 0, dtype=prod.dtype)
        # Each window position's four taps while no row in the window is active.
        idle = np.empty((ph, pw, 2, 2, c), dtype=prod.dtype)
        idle[...] = floor
        if oh % 2:
            idle[-1, :, 1] = -np.inf
        if ow % 2:
            idle[:, -1, :, 1] = -np.inf
        t = idle.reshape(ph * pw, 2, 2, c)[touched % (ph * pw)]
        mask = prod > 0 if train else None
        np.maximum(prod, 0, out=prod)
        t.reshape(-1, c)[taps] = prod
        out = np.empty((n * ph * pw, c), dtype=prod.dtype)
        out[...] = floor
        out[touched] = self.pool.forward(t, train).reshape(-1, c)
        if train:
            self._cache = (cols, taps, mask, touched, (n, ph, pw))
        return out.reshape(n, ph, pw, c)

    def backward(self, dout, need_dx: bool = True):
        if self.pool is not None:
            if need_dx:
                raise ValueError(f"{self.name}: a pooled conv stage returns no input gradient")
            return self._pooled_backward(dout)
        cols, rows, mask, (n, h, w, c), (oh, ow), (pt, pl) = self._take_cache()
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
        # Tap (i, j) = (bi*s + ri, bj*s + rj) of window (oy, ox) lands on
        # padded pixel ((oy + bi)*s + ri, (ox + bj)*s + rj). So dx, viewed as
        # stride-sized blocks, takes one strided add per block of taps
        # (bi, bj); the last block is partial when s does not divide k. Each
        # pixel still sums its taps in (i, j) order, starting from zero.
        kb = -(-k // s)
        dxb = np.zeros((n, oh + kb - 1, s, ow + kb - 1, s, c), dtype=dout.dtype)
        for bi in range(kb):
            ti = min(s, k - bi * s)
            for bj in range(kb):
                tj = min(s, k - bj * s)
                dxb[:, bi : bi + oh, :ti, bj : bj + ow, :tj] += dcols[
                    :, :, :, bi * s : bi * s + ti, bj * s : bj * s + tj
                ].transpose(0, 1, 3, 2, 4, 5)
        dxp = dxb.reshape(n, (oh + kb - 1) * s, (ow + kb - 1) * s, c)
        return dxp[:, pt : pt + h, pl : pl + w, :]

    def _pooled_backward(self, dout):
        """``dw`` and ``db`` through the pool, the ReLU and the touched windows.

        The pool sends each window's gradient to one tap. In a window no
        active row reaches, that is the first tap, whose row passes it on
        where ``b > 0``. ``db`` sums two terms per window, one per conv row
        of the window, laid out ``(n, py, dy, px, c)``. The terms that can be
        nonzero then meet in the order a sum over the whole conv output adds
        them, so for a finite gradient the sum is the same to the bit. The
        sign of a zero term cannot show: every window adds a +0.0 term.
        """
        cols, taps, mask, touched, (n, ph, pw) = self._take_cache()
        c = self.out_channels
        live = self.b > 0
        d = dout.reshape(n * ph * pw, c)
        dt = self.pool.backward(d[touched].reshape(-1, 1, 1, c)).reshape(-1, c)
        dactive = dt[taps] * mask
        self.dw = (cols.T @ dactive).reshape(self.w.shape)
        dt *= live
        dt[taps] = dactive
        dt = dt.reshape(-1, 2, 2, c)
        terms = np.empty((n * ph, 2, pw, c), dtype=dout.dtype)
        terms[:, 0] = d.reshape(n * ph, pw, c) * live
        terms[:, 1] = 0.0
        terms[touched // pw, :, touched % pw] = dt[:, :, 0] + dt[:, :, 1]
        self.db = terms.reshape(-1, c).sum(axis=0)
        return None


class MaxPool2D(Layer):
    """2x2 window, stride 2, same padding with -inf fill.

    Train mode caches three comparisons that give each window's
    first-occurrence argmax; backward writes the upstream gradient times
    that one-hot into the tap views of an uninitialised buffer. For a finite
    upstream gradient this is exactly scattering it into zeros; a non-finite
    one also leaves NaN at the window's other taps.
    """

    kind = "maxpool"
    kernel = 2
    stride = 2

    def __init__(self):
        self._cache = None

    @staticmethod
    def _taps(x):
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            x = pad_spatial(x, 0, h % 2, 0, w % 2, fill=-np.inf)
        q = x.reshape(n, -(-h // 2), 2, -(-w // 2), 2, c)
        return q[:, :, 0, :, 0], q[:, :, 0, :, 1], q[:, :, 1, :, 0], q[:, :, 1, :, 1]

    def forward(self, x, train):
        a, b, c, d = self._taps(x)
        if not train:
            out = np.maximum(a, b)
            np.maximum(out, c, out=out)
            return np.maximum(out, d, out=out)
        top = np.maximum(a, b)
        bot = np.maximum(c, d)
        # On ties the top row wins, then the left column.
        self._cache = (b > a, d > c, bot > top, x.shape)
        return np.maximum(top, bot, out=top)

    def backward(self, dout):
        right_top, right_bot, down, (n, h, w, c) = self._take_cache()
        oh, ow = -(-h // 2), -(-w // 2)
        dx = np.empty((n, oh, 2, ow, 2, c), dtype=dout.dtype)
        up = ~down
        np.multiply(dout, up & ~right_top, out=dx[:, :, 0, :, 0])
        np.multiply(dout, up & right_top, out=dx[:, :, 0, :, 1])
        np.multiply(dout, down & ~right_bot, out=dx[:, :, 1, :, 0])
        np.multiply(dout, down & right_bot, out=dx[:, :, 1, :, 1])
        dx += 0.0  # as if added to zeros: a negative dout times 0 reads +0.0, not -0.0
        return dx.reshape(n, 2 * oh, 2 * ow, c)[:, :h, :w]


class BatchNorm(Layer):
    """Per-channel normalization; biased batch variance, running stats for eval."""

    kind = "batchnorm"
    trainable = ("gamma", "beta")
    saved = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype=DEFAULT_DTYPE):
        self.channels = channels
        self.dtype = dtype
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x, train):
        if x.shape[-1] != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels")
        axes = tuple(range(x.ndim - 1))  # all but the channel axis
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = BN_MOMENTUM
            self.running_mean[...] = m * self.running_mean + (1 - m) * mean
            self.running_var[...] = m * self.running_var + (1 - m) * var
        else:
            mean = self.running_mean
            var = self.running_var
        ivar = 1.0 / np.sqrt(var + BN_EPSILON)
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
    kind = "flatten"

    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        shape = self._take_cache()
        return dout.reshape(shape)


class Dense(Layer):
    kind = "dense"
    trainable = ("w", "b")

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

    def forward(self, x, train):
        if x.shape[1] != self.in_features:
            raise ValueError(f"{self.name}: expected {self.in_features} features, got {x.shape[1]}")
        out = x @ self.w + self.b
        if self.relu:
            mask = out > 0 if train else None
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
    """An ordered layer stack with forward, backward, and named arrays.

    Each array is named ``<layer name>.<attribute>``, layers in stack order,
    each layer's names in the order it declares them.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...] | None = None,
                 dtype=DEFAULT_DTYPE):
        self.layers = layers
        self.input_shape = input_shape
        self.dtype = dtype
        counters: dict[str, int] = {}
        for layer in layers:
            counters[layer.kind] = counters.get(layer.kind, 0) + 1
            layer.name = f"{layer.kind}{counters[layer.kind]}"

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].out_features

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if self.input_shape is not None and x.shape[1:] != self.input_shape:
            raise ValueError(f"expected input {self.input_shape}, got {x.shape[1:]}")
        if not (x.dtype == np.uint8 and isinstance(self.layers[0], Conv2D)):
            x = np.asarray(x, dtype=self.dtype)  # a conv layer takes bit stacks as they are
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, dout: np.ndarray) -> dict[str, np.ndarray]:
        d = np.asarray(dout, dtype=self.dtype)
        for i, layer in reversed(list(enumerate(self.layers))):
            if i == 0 and isinstance(layer, Conv2D):
                layer.backward(d, need_dx=False)  # nothing consumes dx below
            else:
                d = layer.backward(d)
        return self.gradients()

    def _walk(self, with_saved: bool, prefix: str) -> dict[str, np.ndarray]:
        """Each layer's trainable (then saved) arrays, as attribute ``prefix + name``.

        Attributes are read at call time: ``backward`` rebinds the gradients.
        """
        return {f"{layer.name}.{x}": getattr(layer, prefix + x)
                for layer in self.layers
                for x in layer.trainable + (layer.saved if with_saved else ())}

    def params(self) -> dict[str, np.ndarray]:
        return self._walk(with_saved=False, prefix="")

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus the saved non-trainable arrays (batch-norm running stats)."""
        return self._walk(with_saved=True, prefix="")

    def gradients(self) -> dict[str, np.ndarray]:
        """The gradient of each parameter, under the parameter's name."""
        return self._walk(with_saved=False, prefix="d")


def build_q_network(n_actions: int = 4, dtype=DEFAULT_DTYPE) -> QNetwork:
    """The fixed production architecture: 84x84x4 in, one Q-value per action."""
    layers = [
        Conv2D(4, 32, kernel=8, stride=4, relu=True, dtype=dtype, pool=MaxPool2D()),
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

    Biases start at zero. Other layers keep what their constructor set:
    batch-norm is built as the identity transform.
    """
    for layer in net.layers:
        if isinstance(layer, Conv2D):
            fan_in = layer.in_channels * layer.kernel * layer.kernel
            fan_out = layer.out_channels * layer.kernel * layer.kernel
        elif isinstance(layer, Dense):
            fan_in = layer.in_features
            fan_out = layer.out_features
        else:
            continue
        if layer.relu:
            limit = math.sqrt(6.0 / fan_in)
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
        layer.w[...] = rng.uniform(-limit, limit, size=layer.w.shape)
        layer.b[...] = 0
    return net


def copy_weights(src: QNetwork, dst: QNetwork) -> QNetwork:
    """Copy all parameters and running statistics; names and shapes must match."""
    src_state, dst_state = src.state_arrays(), dst.state_arrays()
    if ([(k, a.shape) for k, a in src_state.items()]
            != [(k, a.shape) for k, a in dst_state.items()]):
        raise ValueError("cannot copy weights between different architectures")
    for name, arr in dst_state.items():
        np.copyto(arr, src_state[name])
    return dst
