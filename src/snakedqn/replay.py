"""Fixed-capacity FIFO experience replay over a ring of deflated frames.

Consecutive experiences of an episode share three of their four state frames,
and an experience's next state is the following experience's state. So the
ring stores one frame per experience, bit-packed into 882 bytes and deflated
with zlib, which shrinks a sparse Snake frame to a few dozen bytes. Each
slot adds its action, reward and terminal flag, and ``back``, how many
earlier frames of its episode a stack may use. Clamping the look-back to
``back`` reproduces the episode-start stack, whose first frame repeats four
times.

The deflated rows live in segments of 64 consecutive ring rows, so a row
costs its bytes plus a uint16 start and length, not a Python object of its
own. A segment is one ``bytes`` holding its rows back to back. Rows are
written in ring order, so the segment being written collects its new rows
in a list while the rows it has not reached yet stay in its old ``bytes``.
When a write moves on to another segment, or wraps round to the first row
of a one-segment ring, the list is joined into the segment's new ``bytes``.

``sample`` assembles channels-last batch arrays straight from the ring. The
ring packs its frames bit-planar: byte ``b`` holds pixels ``b``,
``b + 882``, ..., ``b + 7 * 882``. Then the four channels' byte ``b``, read
as one 32-bit word and shifted by each bit position, gives eight pixels'
four channel bytes at once, written in pixel order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .preprocess import FRAME_SIDE, PACKED_BYTES, STACK_DEPTH, FrameStack, frame_bits

# A sampled row decodes its state's frames plus its next frame.
_WINDOW = STACK_DEPTH + 1
# Shift that brings bit plane k (MSB first) of every byte to bit 0.
_PLANE_SHIFTS = np.arange(7, -1, -1, dtype=np.uint32)[:, None]
_LOW_BITS = np.uint32(0x01010101)
# Deflate parameters for one 882-byte frame. zlib's defaults (a 32 KiB
# window, memLevel 8) give each compressor about 256 KiB of state, allocated
# and freed on every push, and where the allocator placed it decided whether
# the heap grew. A 2 KiB window still reaches every earlier byte of a frame,
# and memLevel 4 buffers 1023 symbols, more than a frame can emit, so a
# frame deflates to the same size from about 20 KiB of state.
_DEFLATE_WBITS = 11
_DEFLATE_MEM_LEVEL = 4
# Ring rows per segment. A row deflates to at most 893 bytes (882 stored,
# plus zlib's framing), so a segment's offsets stay below 64 * 893 < 2**16.
_SEGMENT_ROWS = 64


@dataclass(frozen=True)
class Experience:
    state: FrameStack
    action: int
    reward: float
    next_state: FrameStack
    terminal: bool


@dataclass(frozen=True)
class Batch:
    """Sampled experiences as arrays, in draw order.

    ``states`` and ``next_states`` are uint8 0/1 stacks of shape
    ``(rows, 84, 84, 4)``, frames channels-last, oldest first.
    ``next_states`` holds the non-terminal rows only, in batch order.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray
    next_states: np.ndarray


class ReplayBuffer:
    """Ring buffer: oldest entry is overwritten first once full.

    Experience ``g`` (counting pushes) keeps its state's newest frame at row
    ``g % (capacity + 4)`` and its next frame in the row after. A terminal
    transition's next frame is never read, so the next episode's first frame
    takes its row. The extra four rows hold the oldest live experience's
    three look-back frames and the newest one's next frame.

    Row ``r`` lies in segment ``r // 64`` (see the module docstring).
    ``_segments`` holds each segment's ``bytes``, and ``_start`` and
    ``_length`` locate each row in it. The rows the open segment ``_open``
    has rewritten this lap are in ``_open_rows``, from its first row on.
    ``nbytes`` counts the deflated rows, the two offset arrays and the
    per-slot columns.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rows = capacity + STACK_DEPTH
        self._segments = [b""] * -(-self._rows // _SEGMENT_ROWS)
        self._start = np.zeros(self._rows, dtype=np.uint16)
        self._length = np.zeros(self._rows, dtype=np.uint16)
        self._open = 0
        self._open_rows: list[bytes] = []
        self._action = np.zeros(capacity, dtype=np.uint8)
        self._reward = np.zeros(capacity, dtype=np.float64)
        self._terminal = np.zeros(capacity, dtype=bool)
        self._back = np.zeros(capacity, dtype=np.uint8)
        self._pushes = 0
        self._tail = None  # the last push's next_state while its episode runs on
        self._tail_back = 0

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def push(self, exp) -> None:
        """Store one transition of the training loop's episode-ordered stream.

        An episode continues when ``exp.state`` is the previous push's
        ``next_state``. Any other state starts an episode, which must be an
        initial stack (four equal frames) pushed first or after a terminal
        transition; the ring could not reproduce anything else.
        """
        state, nxt = exp.state.frames, exp.next_state.frames
        if nxt[:-1] != state[1:]:
            raise ValueError("next_state must be state shifted by one new frame")
        g = self._pushes
        if exp.state is self._tail:
            back = self._tail_back
        elif self._tail is not None:
            raise ValueError("an episode may start only after a terminal transition")
        elif state.count(state[0]) != STACK_DEPTH:
            raise ValueError("an episode must start from four equal frames")
        else:
            back = 0
            self._write(g % self._rows, _deflate(state[0]))
        self._write((g + 1) % self._rows, _deflate(nxt[-1]))
        slot = g % self.capacity
        self._action[slot] = exp.action
        self._reward[slot] = exp.reward
        self._terminal[slot] = exp.terminal
        self._back[slot] = back
        self._pushes = g + 1
        self._tail = None if exp.terminal else exp.next_state
        self._tail_back = min(back + 1, STACK_DEPTH - 1)

    def _write(self, row: int, data: bytes) -> None:
        """Store ``data`` as ring row ``row``.

        Rows are written in ring order, and only an episode start writes a
        row twice, right after the terminal push wrote it. So a write either
        appends to the open segment's list or replaces its last row, unless
        it has moved on to another segment or lap, which seals the open one.
        """
        segment, pos = divmod(row, _SEGMENT_ROWS)
        rows = self._open_rows
        if segment != self._open or pos < len(rows) - 1:
            self._seal()
            self._open, rows = segment, self._open_rows
        if pos < len(rows):
            rows[pos] = data
        else:
            rows.append(data)

    def _seal(self) -> None:
        """Join the open segment's rows into its ``bytes`` and record their offsets."""
        rows, base = self._open_rows, self._open * _SEGMENT_ROWS
        length = self._length[base : base + len(rows)]
        length[:] = list(map(len, rows))
        start = self._start[base : base + len(rows)]
        np.add.accumulate(length, out=start)
        start -= length
        self._segments[self._open] = b"".join(rows)
        self._open_rows = []

    def sample(self, batch: int, rng: np.random.Generator) -> Batch:
        """Uniform sample of ``batch`` distinct entries."""
        if len(self) < batch:
            raise ValueError(f"buffer holds {len(self)} < batch {batch}")
        slots = rng.choice(len(self), size=batch, replace=False)
        cap = self.capacity
        g = slots + cap * ((self._pushes - 1 - slots) // cap)
        # Window position t holds the frame t - 3 steps from the state's
        # newest, never reaching back before the episode's first frame.
        offsets = np.arange(_WINDOW) - (STACK_DEPTH - 1)
        back = self._back[slots].astype(np.int64)
        rows = ((g[:, None] + np.maximum(offsets, -back[:, None])) % self._rows).ravel()
        start = self._start[rows]
        stop = start + self._length[rows]
        segments, open_rows = self._segments, self._open_rows
        # Rows lo..hi-1 are in the open segment's list; the rest are slices of
        # their segment's bytes.
        lo = self._open * _SEGMENT_ROWS
        hi = lo + len(open_rows)
        packed = b"".join([
            zlib.decompress(open_rows[r - lo] if lo <= r < hi
                            else segments[r // _SEGMENT_ROWS][a:b])
            for r, a, b in zip(rows.tolist(), start.tolist(), stop.tolist())])
        window = np.frombuffer(packed, dtype=np.uint8).reshape(batch, _WINDOW, PACKED_BYTES)
        terminal = self._terminal[slots]
        return Batch(
            states=_unpack(window[:, :STACK_DEPTH]),
            actions=self._action[slots],
            rewards=self._reward[slots],
            terminal=terminal,
            next_states=_unpack(window[~terminal, 1:]),
        )

    @property
    def nbytes(self) -> int:
        """Bytes the ring holds: deflated frames, their offsets and the per-slot columns."""
        frames = sum(map(len, self._segments)) + sum(map(len, self._open_rows))
        columns = (self._start.nbytes + self._length.nbytes + self._action.nbytes
                   + self._reward.nbytes + self._terminal.nbytes + self._back.nbytes)
        return frames + columns


def _deflate(frame: bytes) -> bytes:
    """The ring's row for ``frame``: its bits packed bit-planar, then deflated."""
    planes = frame_bits(frame).reshape(8, PACKED_BYTES)
    deflater = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED,
                                _DEFLATE_WBITS, _DEFLATE_MEM_LEVEL)
    return deflater.compress(np.packbits(planes.T).tobytes()) + deflater.flush()


def _unpack(packed: np.ndarray) -> np.ndarray:
    """``(n, 4, 882)`` bit-planar frames -> ``(n, 84, 84, 4)`` uint8 bits, channels-last."""
    n = len(packed)
    # Channel c lands in bits 8c..8c+7 of each word, built in place.
    words = packed[:, 3].astype(np.uint32)
    for channel in (2, 1, 0):
        words <<= 8
        words |= packed[:, channel]
    bits = words[:, None, :] >> _PLANE_SHIFTS
    bits &= _LOW_BITS
    # Byte c of each word is channel c: little-endian order puts it at offset c.
    bits = bits.astype("<u4", copy=False).view(np.uint8)
    return bits.reshape(n, FRAME_SIDE, FRAME_SIDE, STACK_DEPTH)
