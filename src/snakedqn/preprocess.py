"""Frame preprocessing: RGB -> 84x84 single-bit pixels -> frame stacks.

A frame is the 882 bytes that hold its 84x84 bits, packed row-major, most
significant bit first. :func:`binary_observation` maps the board's rendered
``(252, 252, 3)`` uint8 frame to one in an exact integer pass. A bit is set
iff the mean BT.601 luma of its 3x3 block, ``(299 R + 587 G + 114 B) /
1000``, is strictly above 127.5, that is iff the block's integer luma sum
exceeds ``127500 * 9``. The kernel sums each block's 3 rows in uint16, then
takes one float32 product with the weights tiled 3 times. Every partial sum
is an integer below ``255000 * 9 < 2^24``, so float32 holds it exactly
whatever order BLAS adds in. The float64 grayscale -> block mean ->
threshold chain this replaced lives on in ``tests/preprocess_oracle.py`` as
the test oracle, next to an int64 oracle of the definition above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import FRAME_PX

FRAME_SIDE = 84
FRAME_PIXELS = FRAME_SIDE * FRAME_SIDE
PACKED_BYTES = FRAME_PIXELS // 8
STACK_DEPTH = 4
BINARIZE_THRESHOLD = 127.5
LUMA_WEIGHTS = (299, 587, 114)  # BT.601, in thousandths

_BLOCK = FRAME_PX // FRAME_SIDE  # the side of the pixel block behind each bit
# LUMA_WEIGHTS once per pixel of a block's row, read-only.
_ROW_WEIGHTS = np.tile(LUMA_WEIGHTS, _BLOCK).astype(np.float32)
_ROW_WEIGHTS.flags.writeable = False
_LUMA_LIMIT = 1000 * BINARIZE_THRESHOLD * _BLOCK * _BLOCK


def binary_observation(rgb_frame: np.ndarray) -> bytes:
    """The rendered board's uint8 RGB frame as a packed binary frame.

    See the module docstring for the exact definition of a set bit.
    """
    if rgb_frame.shape != (FRAME_PX, FRAME_PX, 3):
        raise ValueError(f"expected a ({FRAME_PX}, {FRAME_PX}, 3) RGB frame, "
                         f"got {rgb_frame.shape}")
    if rgb_frame.dtype != np.uint8:
        raise ValueError(f"expected uint8 RGB, got {rgb_frame.dtype}")
    rows = rgb_frame.reshape(FRAME_SIDE, _BLOCK, FRAME_PX * 3).sum(axis=1, dtype=np.uint16)
    luma = rows.reshape(FRAME_PIXELS, 3 * _BLOCK) @ _ROW_WEIGHTS
    return np.packbits(luma > _LUMA_LIMIT).tobytes()


def frame_bits(frame: bytes) -> np.ndarray:
    """A frame's (84, 84) uint8 0/1 bits."""
    return np.unpackbits(np.frombuffer(frame, dtype=np.uint8)).reshape(FRAME_SIDE, FRAME_SIDE)


@dataclass(frozen=True)
class FrameStack:
    """The last four binary frames, oldest first."""

    frames: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.frames) != STACK_DEPTH:
            raise ValueError(f"stack must hold {STACK_DEPTH} frames")

    def to_input(self) -> np.ndarray:
        """(84, 84, 4) uint8 tensor of 0/1 values, frames stacked channels-last."""
        return np.stack([frame_bits(f) for f in self.frames], axis=-1)


def stack_init(first: bytes) -> FrameStack:
    return FrameStack((first,) * STACK_DEPTH)


def stack_push(stack: FrameStack, frame: bytes) -> FrameStack:
    return FrameStack(stack.frames[1:] + (frame,))
