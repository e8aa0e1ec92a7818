"""Reference observation pipelines for ``snakedqn.preprocess.binary_observation``.

``chain_observation`` is the float64 grayscale -> block mean -> threshold
chain that the integer kernel replaced, built from ``to_grayscale``,
``downscale`` and ``binarize``. ``exact_observation`` applies the kernel's
definition in int64: a bit is set iff the block's luma sum
``sum(299 R + 587 G + 114 B)`` exceeds ``127500 f^2``.

The two oracles agree except on blocks whose luma sum equals the threshold
exactly: there the chain's mean is 127.5 give or take a rounding error,
and it can read as just above 127.5. Rendered game frames hold only 0 and
255, so no such block occurs in them. ``pack_frame`` packs test bits into a
frame, the 882 bytes ``binary_observation`` returns.
"""

import numpy as np

from snakedqn.preprocess import BINARIZE_THRESHOLD, FRAME_SIDE, LUMA_WEIGHTS


def pack_frame(bits) -> bytes:
    """(84, 84) 0/1 or bool bits as the frame ``binary_observation`` returns."""
    bits = np.asarray(bits)
    if bits.shape != (FRAME_SIDE, FRAME_SIDE):
        raise ValueError(f"expected {FRAME_SIDE}x{FRAME_SIDE} bits, got {bits.shape}")
    return np.packbits(bits).tobytes()


def to_grayscale(frame: np.ndarray) -> np.ndarray:
    """BT.601 luma, computed with integer weights so pure colors are exact.

    Input is (H, W, 3) with 8-bit channels; output is float64 in [0, 255].
    """
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) RGB frame, got {frame.shape}")
    rgb = frame.astype(np.float64)
    gray = (299 * rgb[:, :, 0] + 587 * rgb[:, :, 1] + 114 * rgb[:, :, 2]) / 1000
    return gray


def downscale(gray: np.ndarray, factor: int = 3) -> np.ndarray:
    """Exact block-mean downscale; input must tile evenly by ``factor``."""
    h, w = gray.shape
    if h % factor or w % factor:
        raise ValueError(f"{gray.shape} does not tile by {factor}")
    oh, ow = h // factor, w // factor
    return gray.reshape(oh, factor, ow, factor).mean(axis=(1, 3))


def binarize(gray: np.ndarray, threshold: float = BINARIZE_THRESHOLD) -> bytes:
    """Threshold to bits: 1 iff strictly above ``threshold``."""
    return pack_frame(gray > threshold)


def chain_observation(rgb_frame: np.ndarray) -> bytes:
    """The float64 pipeline ``binary_observation`` ran before the integer kernel."""
    gray = to_grayscale(rgb_frame)
    factor = gray.shape[0] // FRAME_SIDE
    return binarize(downscale(gray, factor))


def block_luma_sums(rgb_frame: np.ndarray) -> np.ndarray:
    """(84, 84) int64 sums of ``299 R + 587 G + 114 B`` over each block."""
    f = rgb_frame.shape[0] // FRAME_SIDE
    luma = rgb_frame.astype(np.int64) @ np.array(LUMA_WEIGHTS, dtype=np.int64)
    return luma.reshape(FRAME_SIDE, f, FRAME_SIDE, f).sum(axis=(1, 3))


def exact_observation(rgb_frame: np.ndarray) -> bytes:
    """The kernel's definition in int64 arithmetic."""
    f = rgb_frame.shape[0] // FRAME_SIDE
    limit = int(1000 * BINARIZE_THRESHOLD) * f * f
    return pack_frame(block_luma_sums(rgb_frame) > limit)
