"""Frame preprocessing: RGB -> 84x84 single-bit pixels -> frame stacks.

:func:`binary_observation` maps a rendered ``(84f, 84f, 3)`` uint8 frame to
bits in one exact integer pass. A bit is set iff the mean BT.601 luma of
its ``f x f`` block, ``(299 R + 587 G + 114 B) / 1000``, is strictly above
127.5, that is iff the block's integer luma sum exceeds ``127500 f^2``. The
kernel sums each block's ``f`` rows in uint16, then takes one float32
product with the weights tiled ``f`` times. For ``f <= 8`` every partial
sum is an integer below ``255000 f^2 < 2^24``, so float32 holds it exactly
whatever order BLAS adds in; larger factors accumulate in float64. The
float64 grayscale -> block mean -> threshold chain this replaced lives on
in ``tests/preprocess_oracle.py`` as the test oracle, next to an int64
oracle of the definition above.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

FRAME_SIDE = 84
FRAME_PIXELS = FRAME_SIDE * FRAME_SIDE
PACKED_BYTES = FRAME_PIXELS // 8
STACK_DEPTH = 4
BINARIZE_THRESHOLD = 127.5
LUMA_WEIGHTS = (299, 587, 114)  # BT.601, in thousandths


class BinaryFrame:
    """An 84x84 single-bit image, stored bit-packed (882 bytes)."""

    __slots__ = ("_packed",)

    def __init__(self, packed: bytes):
        if len(packed) != PACKED_BYTES:
            raise ValueError(f"expected {PACKED_BYTES} packed bytes, got {len(packed)}")
        self._packed = bytes(packed)

    @classmethod
    def from_array(cls, bits: np.ndarray) -> "BinaryFrame":
        if bits.shape != (FRAME_SIDE, FRAME_SIDE):
            raise ValueError(f"expected {FRAME_SIDE}x{FRAME_SIDE} bits, got {bits.shape}")
        return cls(np.packbits(bits.astype(np.uint8).ravel()).tobytes())

    def to_array(self) -> np.ndarray:
        bits = np.unpackbits(np.frombuffer(self._packed, dtype=np.uint8))
        return bits.reshape(FRAME_SIDE, FRAME_SIDE)

    @property
    def packed(self) -> bytes:
        return self._packed

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryFrame) and self._packed == other._packed

    def __hash__(self) -> int:
        return hash(self._packed)


def binary_observation(rgb_frame: np.ndarray) -> BinaryFrame:
    """The full pipeline from a rendered uint8 RGB frame to a packed binary frame.

    The frame must be square and tile to 84x84 (side ``84 f``); see the
    module docstring for the exact definition of a set bit.
    """
    if rgb_frame.ndim != 3 or rgb_frame.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) RGB frame, got {rgb_frame.shape}")
    if rgb_frame.dtype != np.uint8:
        raise ValueError(f"expected uint8 RGB, got {rgb_frame.dtype}")
    side, width, _ = rgb_frame.shape
    if side != width or side < FRAME_SIDE or side % FRAME_SIDE:
        raise ValueError(f"a {side}x{width} frame does not tile to "
                         f"{FRAME_SIDE}x{FRAME_SIDE}")
    f = side // FRAME_SIDE
    sum_dtype, weights = _luma_kernel(f)
    rows = rgb_frame.reshape(FRAME_SIDE, f, width * 3).sum(axis=1, dtype=sum_dtype)
    luma = rows.reshape(FRAME_PIXELS, 3 * f) @ weights
    return BinaryFrame(np.packbits(luma > 1000 * BINARIZE_THRESHOLD * f * f).tobytes())


@functools.lru_cache(maxsize=8)
def _luma_kernel(f: int) -> tuple[type, np.ndarray]:
    """The row-sum dtype and the read-only weights, ``LUMA_WEIGHTS`` tiled
    ``f`` times, for blocks of side ``f``. float32 is exact while every
    partial sum, at most 255000 f^2, is below 2^24; larger blocks use float64."""
    exact32 = 1000 * 255 * f * f < 2**24
    weights = np.tile(LUMA_WEIGHTS, f).astype(np.float32 if exact32 else np.float64)
    weights.flags.writeable = False
    return (np.uint16 if exact32 else np.float64), weights


@dataclass(frozen=True)
class FrameStack:
    """The last four binary frames, oldest first."""

    frames: tuple[BinaryFrame, ...]

    def __post_init__(self):
        if len(self.frames) != STACK_DEPTH:
            raise ValueError(f"stack must hold {STACK_DEPTH} frames")

    def to_input(self) -> np.ndarray:
        """(84, 84, 4) uint8 tensor of 0/1 values, frames stacked channels-last."""
        return np.stack([f.to_array() for f in self.frames], axis=-1)


def stack_init(first: BinaryFrame) -> FrameStack:
    return FrameStack((first,) * STACK_DEPTH)


def stack_push(stack: FrameStack, frame: BinaryFrame) -> FrameStack:
    return FrameStack(stack.frames[1:] + (frame,))
