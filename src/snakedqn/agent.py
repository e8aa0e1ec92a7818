"""DQN decision making and learning on top of the numpy network engine.

Two networks: the online network is trained by Adam on clipped TD
gradients; the target network is a frozen copy refreshed every
``target_sync_every`` frames and used only for Bellman targets. All
schedules count environment frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import CheckpointError, read_records, write_records
from .nn import QNetwork, build_q_network, copy_weights, init_weights
from .optim import AdamState, adam_step, clip_global_norm, zero_moments
from .replay import Batch, ReplayBuffer

N_ACTIONS = 4
# The Q head's checkpoint records: the last axis of each has one entry per action.
HEAD_RECORDS = ("online/dense3.w", "online/dense3.b")


@dataclass(frozen=True)
class Hyperparams:
    gamma: float = 0.99
    eps_initial: float = 1.0
    eps_final: float = 0.01
    batch_size: int = 32
    max_step: int = 10_000
    learning_rate: float = 0.0025
    clip_norm: float = 1.0
    random_frames: int = 50_000
    eps_greedy_frames: int = 500_000
    replay_capacity: int = 50_000
    update_every: int = 4
    target_sync_every: int = 10_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name != "random_frames" and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value}")
        if self.random_frames < 0:
            raise ValueError("random_frames must be non-negative")
        if not (self.eps_final <= self.eps_initial <= 1.0):
            raise ValueError("need eps_final <= eps_initial <= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.batch_size > self.replay_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds replay_capacity "
                             f"{self.replay_capacity}, so no update could ever run")


@dataclass
class AgentState:
    online: QNetwork
    target: QNetwork
    adam: AdamState
    frame_count: int
    rng: np.random.Generator


def new_agent(hp: Hyperparams, seed, n_actions: int = N_ACTIONS,
              dtype=np.float32) -> AgentState:
    """Fresh agent: seeded weights, target synced to online, Adam at step 0."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    init_ss, act_ss = ss.spawn(2)
    online = build_q_network(n_actions, dtype=dtype)
    init_weights(online, np.random.Generator(np.random.PCG64(init_ss)))
    target = build_q_network(n_actions, dtype=dtype)
    copy_weights(online, target)
    return AgentState(
        online=online,
        target=target,
        adam=AdamState(),
        frame_count=0,
        rng=np.random.Generator(np.random.PCG64(act_ss)),
    )


def epsilon_at(frame: int, hp: Hyperparams) -> float:
    """Exploration rate: 1.0 during warmup, then linear decay to the floor."""
    if frame < 0:
        raise ValueError("frame must be non-negative")
    if frame < hp.random_frames:
        return 1.0
    t = frame - hp.random_frames
    if t >= hp.eps_greedy_frames:
        return hp.eps_final
    frac = t / hp.eps_greedy_frames
    return hp.eps_initial + (hp.eps_final - hp.eps_initial) * frac


def greedy_action(stack, net: QNetwork | None, rng: np.random.Generator,
                  epsilon: float) -> int:
    """Epsilon-soft action: random below epsilon, else argmax of eval Q-values.

    Random actions range over the network's outputs, or over ``N_ACTIONS``
    when ``net`` is None (a pure random policy, epsilon = 1).
    """
    if rng.random() < epsilon:
        return int(rng.integers(0, N_ACTIONS if net is None else net.n_outputs))
    q = net.forward(stack.to_input()[None], train=False)[0]
    return int(np.argmax(q))


def select_action(stack, agent: AgentState, hp: Hyperparams) -> int:
    eps = epsilon_at(agent.frame_count, hp)
    return greedy_action(stack, agent.online, agent.rng, eps)


def compute_targets(batch: Batch, target_net: QNetwork, gamma: float) -> np.ndarray:
    """Bellman targets: y = r, or r + gamma * max_a' Q'(s', a') when non-terminal."""
    y = batch.rewards.astype(np.float64)
    live = ~batch.terminal
    if live.any():
        q_next = target_net.forward(batch.next_states, train=False)
        y[live] += gamma * q_next.max(axis=1).astype(np.float64)
    return y


def td_loss_and_gradient(batch: Batch, targets: np.ndarray,
                         online: QNetwork) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared TD error; gradient flows only through taken actions."""
    n = len(batch.actions)
    if n != len(targets):
        raise ValueError("batch and targets must have equal length")
    q = online.forward(batch.states, train=True)
    taken = q[np.arange(n), batch.actions]
    diff = np.asarray(targets, dtype=np.float64) - taken.astype(np.float64)
    loss = float(np.mean(diff**2))
    dq = np.zeros_like(q)
    dq[np.arange(n), batch.actions] = (-2.0 * diff / n).astype(q.dtype)
    grads = online.backward(dq)
    return loss, grads


def learn_step(agent: AgentState, buffer: ReplayBuffer,
               hp: Hyperparams) -> float | None:
    """One scheduled gradient update; returns the loss, or None off-schedule."""
    if agent.frame_count < hp.random_frames:
        return None
    if agent.frame_count % hp.update_every != 0:
        return None
    if len(buffer) < hp.batch_size:
        return None
    batch = buffer.sample(hp.batch_size, agent.rng)
    targets = compute_targets(batch, agent.target, hp.gamma)
    loss, grads = td_loss_and_gradient(batch, targets, agent.online)
    grads = clip_global_norm(grads, hp.clip_norm)
    adam_step(agent.online.params(), grads, agent.adam, hp.learning_rate)
    return loss


def maybe_sync_target(agent: AgentState, hp: Hyperparams) -> None:
    if agent.frame_count % hp.target_sync_every == 0:
        copy_weights(agent.online, agent.target)


def _checkpoint_arrays(agent: AgentState) -> dict[str, np.ndarray]:
    """The checkpoint's array records in file order, each the live array it holds.

    ``save_agent`` writes these and ``load_agent`` copies into them, so this
    is the one statement of the file layout between ``meta/n_actions`` and
    the counters. An optimizer that has not stepped yet holds no moments;
    they are listed as the zeros it would start from.
    """
    m, v = agent.adam.m, agent.adam.v
    if not m:
        m = v = zero_moments(agent.online.params())
    groups = {"online/": agent.online.state_arrays(), "target/": agent.target.state_arrays(),
              "adam/m/": m, "adam/v/": v}
    return {prefix + name: arr for prefix, arrays in groups.items() for name, arr in arrays.items()}


def save_agent(path, agent: AgentState, hp: Hyperparams) -> None:
    """Write networks, Adam moments, and schedule counters to one file."""
    write_records(path, {
        "meta/n_actions": np.int64(agent.online.n_outputs),
        **_checkpoint_arrays(agent),
        "adam/t": np.int64(agent.adam.t),
        "frame_count": np.int64(agent.frame_count),
    })


def load_agent(path, hp: Hyperparams,
               rng: np.random.Generator | None = None) -> AgentState:
    """Rebuild an agent from a checkpoint; a fresh rng is seeded unless given."""
    records = read_records(path)
    n_actions = _count_record(records, "meta/n_actions", 1, None)
    # Check the head before building anything of that size: a file the CRC
    # passes may still name an absurd action count.
    for key in HEAD_RECORDS:
        if key not in records:
            raise CheckpointError(f"missing record {key}")
        if records[key].shape[-1:] != (n_actions,):
            raise CheckpointError(f"architecture mismatch at {key}: shape {records[key].shape} "
                                  f"for meta/n_actions {n_actions}")
    agent = new_agent(hp, seed=0, n_actions=n_actions)
    if rng is not None:
        agent.rng = rng
    params = agent.online.params()
    agent.adam.m, agent.adam.v = zero_moments(params), zero_moments(params)
    for key, arr in _checkpoint_arrays(agent).items():
        if key not in records:
            raise CheckpointError(f"missing record {key}")
        stored = records[key]
        if stored.shape != arr.shape:
            raise CheckpointError(
                f"architecture mismatch at {key}: {stored.shape} vs {arr.shape}")
        np.copyto(arr, stored)
    agent.adam.t = _count_record(records, "adam/t", 0, 0)
    agent.frame_count = _count_record(records, "frame_count", 0, 0)
    return agent


def _count_record(records: dict[str, np.ndarray], key: str, minimum: int,
                  default: int | None) -> int:
    """Record ``key``, which must be one integer >= ``minimum``.

    A file without the record reads as ``default``, or is corrupt when that is None.
    """
    if key not in records:
        if default is None:
            raise CheckpointError(f"missing record {key}")
        return default
    value = records[key]
    if value.ndim != 0 or value.dtype.kind not in "iu" or value < minimum:
        raise CheckpointError(f"{key} must be one integer >= {minimum}, got {value!r}")
    return int(value)
