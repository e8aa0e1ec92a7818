"""Adam with bias correction and global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7


@dataclass
class AdamState:
    """Step count and moments; the moments stay empty until the first step."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPSILON


def init_adam() -> AdamState:
    """Adam at step 0, holding no moments yet.

    The first :func:`adam_step` allocates them, so a run that never updates
    (replay warm-up) holds no optimizer arrays.
    """
    return AdamState()


def zero_moments(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One zero array per parameter: the moments of an optimizer at step 0."""
    return {k: np.zeros_like(p) for k, p in params.items()}


def global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
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
    """One Adam update, in place on ``params``."""
    if not state.m:
        state.m, state.v = zero_moments(params), zero_moments(params)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
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
        p -= (lr * mhat / (np.sqrt(vhat) + state.eps)).astype(p.dtype, copy=False)
