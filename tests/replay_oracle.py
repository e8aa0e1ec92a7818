"""Reference replay: the list of ``Experience`` objects and per-stack batch assembly.

This is the buffer the frame ring replaced, kept as the exact oracle for
``snakedqn.replay.ReplayBuffer``: the same seeded draws must give the same
experiences, and assembling them here must give the ring's batch arrays
byte for byte. ``episodes`` builds transitions the way the training loop
does, so the ring accepts them.
"""

import numpy as np

from snakedqn.preprocess import FRAME_SIDE, STACK_DEPTH, stack_init, stack_push
from snakedqn.replay import Batch, Experience

from preprocess_oracle import pack_frame


class ListReplayBuffer:
    """Ring buffer: oldest entry is overwritten first once full."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: list = []
        self._write = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, exp) -> None:
        if len(self._entries) < self.capacity:
            self._entries.append(exp)
        else:
            self._entries[self._write] = exp
        self._write = (self._write + 1) % self.capacity

    def snapshot(self) -> list:
        """Entries in insertion order, oldest first."""
        if len(self._entries) < self.capacity:
            return list(self._entries)
        return self._entries[self._write :] + self._entries[: self._write]

    def sample(self, batch: int, rng: np.random.Generator) -> list:
        """Uniform sample of ``batch`` distinct entries."""
        if len(self._entries) < batch:
            raise ValueError(f"buffer holds {len(self._entries)} < batch {batch}")
        idx = rng.choice(len(self._entries), size=batch, replace=False)
        return [self._entries[i] for i in idx]

    def live_bytes(self) -> int:
        """Packed frame bytes, counting every stack slot (no sharing credit)."""
        total = 0
        for exp in self._entries:
            total += sum(map(len, exp.state.frames))
            total += sum(map(len, exp.next_state.frames))
        return total


def _batch_inputs(stacks, dtype) -> np.ndarray:
    """(n, 84, 84, 4) batch of ``FrameStack.to_input`` values, unpacked in one pass."""
    packed = b"".join(frame for stack in stacks for frame in stack.frames)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    bits = bits.reshape(len(stacks), STACK_DEPTH, FRAME_SIDE, FRAME_SIDE)
    return bits.transpose(0, 2, 3, 1).astype(dtype, order="C")


def oracle_batch(experiences) -> Batch:
    """The ``Batch`` the ring must return for these sampled experiences."""
    return Batch(
        states=_batch_inputs([e.state for e in experiences], np.uint8),
        actions=np.array([e.action for e in experiences], dtype=np.uint8),
        rewards=np.array([e.reward for e in experiences], dtype=np.float64),
        terminal=np.array([e.terminal for e in experiences], dtype=bool),
        next_states=_batch_inputs([e.next_state for e in experiences if not e.terminal],
                                  np.uint8),
    )


def assert_batches_equal(got: Batch, want: Batch) -> None:
    for name in ("states", "actions", "rewards", "terminal", "next_states"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def cell_frame(rng, cells: int = 12) -> bytes:
    """A Snake-like frame: a few set 3x3 cells on a clear 28x28 grid."""
    grid = np.zeros((FRAME_SIDE // 3, FRAME_SIDE // 3), dtype=bool)
    grid.flat[rng.choice(grid.size, size=cells, replace=False)] = True
    return pack_frame(np.kron(grid, np.ones((3, 3), dtype=bool)))


# Distinct frames for ``episodes`` to draw from; generating a frame per step
# would cost more than the buffers under test.
_POOL = tuple(cell_frame(np.random.default_rng(i)) for i in range(64))


def episodes(lengths, seed: int = 0, last_terminal: bool = True, rewards=None) -> list:
    """Chained transitions of episodes with the given lengths, as training pushes them.

    Each episode starts from ``stack_init`` and each step's state is the
    previous step's ``next_state`` object. Every episode but the last ends
    terminal; the last ends terminal iff ``last_terminal``. ``rewards``, if
    given, is called with the transition's index to tag it.
    """
    rng = np.random.default_rng(seed)
    out = []
    for e, length in enumerate(lengths):
        frames = [_POOL[i] for i in rng.integers(len(_POOL), size=length + 1)]
        actions = rng.integers(0, 4, size=length).tolist()
        drawn = rng.choice([1.0, -1.0, -0.1], size=length).tolist()
        stack = stack_init(frames[0])
        for t in range(length):
            nxt = stack_push(stack, frames[t + 1])
            end = t == length - 1 and (e < len(lengths) - 1 or last_terminal)
            reward = rewards(len(out)) if rewards is not None else drawn[t]
            out.append(Experience(stack, actions[t], reward, nxt, end))
            stack = nxt
    return out
