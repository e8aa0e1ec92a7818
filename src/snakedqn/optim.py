"""Adam with bias correction and global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7


@dataclass
class AdamState:
    """Step count and moments; the moments stay empty until the first step.

    :func:`adam_step` allocates them, so a run that never updates (replay
    warm-up) holds no optimizer arrays.
    """

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def zero_moments(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One zero array per parameter: the moments of an optimizer at step 0."""
    return {k: np.zeros_like(p) for k, p in params.items()}


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """L2 norm of all gradients together, each squared and summed in float64."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float = 1.0) -> dict[str, np.ndarray]:
    """Scale all gradients jointly so their combined L2 norm is <= max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_norm(grads)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {k: g * np.asarray(scale, dtype=g.dtype) for k, g in grads.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float = 0.0025) -> None:
    """One Adam update, in place on ``params`` and the moments.

    Parameters, gradients and moments share one dtype, as a network's do.
    """
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
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
        # in two scratch arrays; the order of operations fixes the rounding.
        s = np.multiply(g, 1 - b1)
        m *= b1
        m += s
        np.square(g, out=s)
        s *= 1 - b2
        v *= b2
        v += s
        np.divide(m, bc1, out=s)
        s *= lr
        r = np.divide(v, bc2)
        np.sqrt(r, out=r)
        r += ADAM_EPSILON
        s /= r
        p -= s
