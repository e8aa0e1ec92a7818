"""Reference dense im2col convolution (test-side oracle for ``nn.Conv2D``).

This is the layer as it was before any conv skipped zero windows: it builds
the im2col rows with ``np.pad`` and ``sliding_window_view``, multiplies all
of them, and adds ``dx`` one tap at a time. A plain ``Conv2D`` (one without
a pool) must give the same output, ``dw``, ``db`` and ``dx`` byte for byte.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from snakedqn.nn import Conv2D, same_pad


class DenseConv2D(Conv2D):
    def _im2col(self, x):
        n, h, w, c = x.shape
        k, s = self.kernel, self.stride
        oh, pt, pb = same_pad(h, k, s)
        ow, pl, pr = same_pad(w, k, s)
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
        cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
        return cols.reshape(n * oh * ow, k * k * c), (oh, ow), (pt, pl), (h + pt + pb, w + pl + pr)

    def forward(self, x, train):
        n, h, w, c = x.shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        k = self.kernel
        cols, (oh, ow), pads, padded = self._im2col(x)
        wmat = self.w.reshape(k * k * c, self.out_channels)
        out = (cols @ wmat + self.b).reshape(n, oh, ow, self.out_channels)
        if self.relu:
            mask = out > 0
            out = np.maximum(out, 0)
        else:
            mask = None
        if train:
            self._cache = (cols, mask, (n, h, w, c), (oh, ow), pads, padded)
        return out

    def backward(self, dout):
        cols, mask, (n, h, w, c), (oh, ow), (pt, pl), (hp, wp) = self._take_cache()
        k, s = self.kernel, self.stride
        if mask is not None:
            dout = dout * mask
        dmat = dout.reshape(n * oh * ow, self.out_channels)
        wmat = self.w.reshape(k * k * c, self.out_channels)
        self.dw = (cols.T @ dmat).reshape(self.w.shape)
        self.db = dmat.sum(axis=0)
        dcols = (dmat @ wmat.T).reshape(n, oh, ow, k, k, c)
        dxp = np.zeros((n, hp, wp, c), dtype=dout.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, i : i + (oh - 1) * s + 1 : s,
                    j : j + (ow - 1) * s + 1 : s, :] += dcols[:, :, :, i, j, :]
        return dxp[:, pt : pt + h, pl : pl + w, :]
