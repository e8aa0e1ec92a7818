"""Reference max-pool layer and Adam step (test-side oracles).

These are ``nn.MaxPool2D`` and ``optim.adam_step`` as they were before the
update step stopped allocating full-array temporaries: the pool pads every
input with -inf, keeps a first-occurrence argmax index built by ``np.where``
and scatters its backward into a zero-filled buffer; Adam builds each term
as a fresh array. The production code must match them bit for bit.
"""

import numpy as np

from snakedqn.nn import MaxPool2D, pad_spatial, same_pad
from snakedqn.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, zero_moments


class OracleMaxPool2D(MaxPool2D):
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


def oracle_adam_step(params, grads, state, lr=0.0025):
    """One Adam update, in place on ``params``."""
    if not state.m:
        state.m, state.v = zero_moments(params), zero_moments(params)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * np.square(g)
        mhat = m / bc1
        vhat = v / bc2
        p -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPSILON)).astype(p.dtype, copy=False)
