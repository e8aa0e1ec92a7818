"""Preprocessing: the integer observation kernel against its oracles, frames, stacking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snakedqn import env, harness, preprocess
from snakedqn.agent import Hyperparams
from snakedqn.preprocess import (
    FRAME_SIDE,
    BinaryFrame,
    PixelFormat,
    binary_observation,
    frame_bytes,
    stack_init,
    stack_push,
)

from preprocess_oracle import (
    binarize,
    block_luma_sums,
    chain_observation,
    downscale,
    exact_observation,
    to_grayscale,
)


def rgb_fill(r, g, b):
    frame = np.empty((252, 252, 3), dtype=np.uint8)
    frame[..., 0] = r
    frame[..., 1] = g
    frame[..., 2] = b
    return frame


class TestGrayscale:
    def test_black(self):
        assert not to_grayscale(rgb_fill(0, 0, 0)).any()

    def test_white_exact(self):
        gray = to_grayscale(rgb_fill(255, 255, 255))
        assert (gray == 255.0).all()

    def test_pure_red_exact(self):
        gray = to_grayscale(rgb_fill(255, 0, 0))
        assert (gray == 76.245).all()

    def test_channel_weights(self):
        assert (to_grayscale(rgb_fill(0, 255, 0)) == 587 * 255 / 1000).all()
        assert (to_grayscale(rgb_fill(0, 0, 255)) == 114 * 255 / 1000).all()

    def test_range(self):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, size=(252, 252, 3), dtype=np.uint8)
        gray = to_grayscale(frame)
        assert gray.min() >= 0.0 and gray.max() <= 255.0

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            to_grayscale(np.zeros((252, 252), dtype=np.uint8))


class TestDownscale:
    def test_constant_preserved(self):
        assert (downscale(np.full((252, 252), 17.0)) == 17.0).all()

    def test_one_hot_block(self):
        img = np.zeros((252, 252))
        img[0, 2] = 255.0
        small = downscale(img)
        assert small[0, 0] == 255.0 / 9
        assert small.sum() == 255.0 / 9

    def test_white_cell_becomes_7x7(self):
        img = np.zeros((252, 252))
        img[42:63, 84:105] = 255.0  # cell (4, 2) at 21 px per cell
        small = downscale(img)
        assert (small[14:21, 28:35] == 255.0).all()
        assert small.sum() == 49 * 255.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            downscale(np.zeros((250, 252)))

    def test_block_constant_images_are_fixed_points(self):
        rng = np.random.default_rng(3)
        small = rng.integers(0, 2, size=(84, 84)).astype(np.float64) * 255
        big = np.kron(small, np.ones((3, 3)))
        assert np.array_equal(downscale(big), small)


class TestBinarize:
    def test_trivials(self):
        assert not binarize(np.zeros((84, 84))).to_array().any()
        assert binarize(np.full((84, 84), 255.0)).to_array().all()

    def test_strict_threshold(self):
        gray = np.zeros((84, 84))
        gray[0, :3] = [100.0, 127.5, 200.0]
        bits = binarize(gray).to_array()
        assert list(bits[0, :3]) == [0, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, (84, 84),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_output_is_binary(self, gray):
        bits = binarize(gray).to_array()
        assert set(np.unique(bits)) <= {0, 1}


@st.composite
def rgb_frames(draw):
    """Frames that tile to 84x84, made by repeating a drawn patch.

    The patch's period need not divide the block side, so blocks see many
    pixel mixes; channel values lean towards the 127.5 threshold.
    """
    f = draw(st.sampled_from([1, 2, 3]))
    channel = st.one_of(st.integers(0, 255), st.integers(124, 131))
    period = draw(st.integers(1, 2 * f + 1))
    patch = draw(hnp.arrays(np.uint8, (period, period, 3), elements=channel))
    side = FRAME_SIDE * f
    reps = -(-side // period)
    return np.tile(patch, (reps, reps, 1))[:side, :side]


class TestBinaryObservation:
    @pytest.mark.parametrize("f", [1, 2, 3, 8, 9, 12])
    def test_matches_exact_oracle(self, f):
        rng = np.random.default_rng(f)
        side = FRAME_SIDE * f
        for lo, hi in [(0, 255), (126, 129)]:
            frame = rng.integers(lo, hi + 1, size=(side, side, 3), dtype=np.uint8)
            assert binary_observation(frame) == exact_observation(frame)

    @settings(max_examples=60, deadline=None)
    @given(rgb_frames())
    def test_matches_oracles(self, frame):
        got = binary_observation(frame).to_array()
        assert np.array_equal(got, exact_observation(frame).to_array())
        # Off the exact boundary the float64 chain's rounding cannot matter.
        f = frame.shape[0] // FRAME_SIDE
        off = block_luma_sums(frame) != 127_500 * f * f
        assert np.array_equal(got[off], chain_observation(frame).to_array()[off])

    @pytest.mark.parametrize("f", [1, 2, 3, 8, 9, 12])
    def test_threshold_is_strict_and_exact(self, f):
        # Block (5, 7) sums to exactly 127500 f^2: a mean luma of 127.5.
        pixels = [[127] * 3, [128] * 3] * (f * f // 2)
        if f % 2:
            pixels.append([0, 204, 68])  # 299 R + 587 G + 114 B = 127500
        frame = np.zeros((FRAME_SIDE * f,) * 2 + (3,), dtype=np.uint8)
        block = frame[5 * f:6 * f, 7 * f:8 * f]
        block[...] = np.reshape(pixels, (f, f, 3))
        assert block_luma_sums(frame)[5, 7] == 127_500 * f * f
        assert not binary_observation(frame).to_array().any()
        # One more unit of luma sum sets the bit.
        block[-1, -1] = [2, 189, 140] if f % 2 else [2, 205, 62]
        assert block_luma_sums(frame)[5, 7] == 127_500 * f * f + 1
        bits = binary_observation(frame).to_array()
        assert bits[5, 7] and bits.sum() == 1

    def test_chain_rounds_at_the_threshold(self):
        """Why the chain oracle is compared off the boundary only."""
        frame = np.zeros((168, 168, 3), dtype=np.uint8)
        frame[:2, :2] = [[[158, 152, 113], [128, 135, 154]],
                         [[108, 145, 155], [203, 3, 246]]]
        assert block_luma_sums(frame)[0, 0] == 510_000
        assert not binary_observation(frame).to_array()[0, 0]
        assert chain_observation(frame).to_array()[0, 0]

    @pytest.mark.parametrize("shape", [
        (252, 252), (252, 252, 4), (252, 336, 3), (336, 252, 3),
        (250, 250, 3), (255, 255, 3), (42, 42, 3), (0, 0, 3),
    ])
    def test_rejects_frames_not_tiling_to_84(self, shape):
        with pytest.raises(ValueError):
            binary_observation(np.zeros(shape, dtype=np.uint8))

    def test_rejects_non_uint8(self):
        with pytest.raises(ValueError, match="uint8"):
            binary_observation(np.zeros((252, 252, 3), dtype=np.float64))


class TestBinaryFrame:
    def test_roundtrip_and_size(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(84, 84))
        frame = BinaryFrame.from_array(bits)
        assert frame.nbytes == 882
        assert len(frame.packed) == 882
        assert np.array_equal(frame.to_array(), bits)

    def test_equality(self):
        a = BinaryFrame.from_array(np.ones((84, 84), dtype=np.uint8))
        b = BinaryFrame.from_array(np.ones((84, 84), dtype=np.uint8))
        c = BinaryFrame.from_array(np.zeros((84, 84), dtype=np.uint8))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            BinaryFrame(b"\x00" * 10)
        with pytest.raises(ValueError):
            BinaryFrame.from_array(np.zeros((10, 10)))


class TestFrameStack:
    def _frames(self, n):
        out = []
        for i in range(n):
            bits = np.zeros((84, 84), dtype=np.uint8)
            bits[0, i] = 1
            out.append(BinaryFrame.from_array(bits))
        return out

    def test_init_repeats_first(self):
        (f,) = self._frames(1)
        stack = stack_init(f)
        assert stack.frames == (f, f, f, f)
        assert len(stack.frames) == 4

    def test_init_zero_tensor(self):
        zero = BinaryFrame.from_array(np.zeros((84, 84), dtype=np.uint8))
        assert not stack_init(zero).to_input().any()

    def test_push_order(self):
        a, b, c, d, e = self._frames(5)
        stack = preprocess.FrameStack((a, b, c, d))
        stack = stack_push(stack, e)
        assert stack.frames == (b, c, d, e)

    def test_four_pushes_replace_everything(self):
        frames = self._frames(8)
        stack = stack_init(frames[0])
        for f in frames[4:]:
            stack = stack_push(stack, f)
        assert stack.frames == tuple(frames[4:])
        assert len(stack.frames) == 4

    def test_to_input_layout(self):
        frames = self._frames(4)
        stack = preprocess.FrameStack(tuple(frames))
        x = stack.to_input()
        assert x.shape == (84, 84, 4)
        assert x.dtype == np.uint8
        for ch in range(4):
            assert x[0, ch, ch] == 1
        assert x.sum() == 4

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            preprocess.FrameStack(tuple(self._frames(3)))


class TestMemoryAccounting:
    def test_exact_bytes(self):
        assert frame_bytes(PixelFormat.RGB_FLOAT64) == 169_344
        assert frame_bytes(PixelFormat.GRAY_FLOAT64) == 56_448
        assert frame_bytes(PixelFormat.BINARY_BYTE) == 7_056
        assert frame_bytes(PixelFormat.BINARY_PACKED) == 882

    def test_kb_values(self):
        # The kB column of memreport's per-frame table.
        table = harness.memreport_text().split("\n\n")[0]
        kb = {}
        for line in table.splitlines()[2:]:
            *label, _bytes, value, _vs_rgb, _vs_gray = line.split()
            kb[" ".join(label)] = value
        assert kb == {"RGB float64": "165.375", "Gray float64": "55.125",
                      "Binary byte": "6.890", "Binary packed": "0.861"}

    def test_savings_ratios(self):
        rgb = frame_bytes(PixelFormat.RGB_FLOAT64)
        gray = frame_bytes(PixelFormat.GRAY_FLOAT64)
        binary = frame_bytes(PixelFormat.BINARY_BYTE)
        assert binary * 8 == gray  # 87.5% saving vs grayscale, exactly
        assert binary * 24 == rgb  # ~95.83% saving vs RGB
        assert 1 - binary / gray == 0.875


class TestEndToEnd:
    def test_occupied_cells_become_7x7_blocks(self):
        state = env.reset(seed=0)
        bits = binary_observation(env.render_rgb(state)).to_array()
        expected = np.zeros((84, 84), dtype=np.uint8)
        for x, y in list(state.body) + [state.apple]:
            expected[y * 7 : (y + 1) * 7, x * 7 : (x + 1) * 7] = 1
        assert np.array_equal(bits, expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_count_tracks_occupied_cells(self, seed):
        state = env.reset(seed=seed)
        bits = binary_observation(env.render_rgb(state)).to_array()
        assert bits.sum() == 4 * 49

    def test_train_matches_chain_oracle(self, tmp_path, monkeypatch):
        """A seeded run gives the same bytes with the float64 chain patched in."""
        hp = Hyperparams(random_frames=48, eps_greedy_frames=48, batch_size=8,
                         replay_capacity=96, target_sync_every=32)
        outputs = []
        for tag in ("kernel", "chain"):
            if tag == "chain":
                monkeypatch.setattr(harness, "binary_observation", chain_observation)
            config = harness.TrainConfig(
                hp=hp, episodes=1_000, seed=11, max_frames=160,
                metrics_path=str(tmp_path / f"{tag}.csv"),
                checkpoint_path=str(tmp_path / f"{tag}.bin"))
            rows = harness.train(config)
            assert any(not np.isnan(r.mean_loss) for r in rows)
            outputs.append((tmp_path / f"{tag}.csv").read_bytes()
                           + (tmp_path / f"{tag}.bin").read_bytes())
        assert outputs[0] == outputs[1]

