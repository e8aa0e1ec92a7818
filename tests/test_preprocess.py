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
    PACKED_BYTES,
    binary_observation,
    frame_bits,
    stack_init,
    stack_push,
)
from snakedqn.replay import Experience, ReplayBuffer

from preprocess_oracle import (
    binarize,
    block_luma_sums,
    chain_observation,
    downscale,
    exact_observation,
    pack_frame,
    to_grayscale,
)
from replay_oracle import ListReplayBuffer, assert_batches_equal, episodes, oracle_batch


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
        assert not frame_bits(binarize(np.zeros((84, 84)))).any()
        assert frame_bits(binarize(np.full((84, 84), 255.0))).all()

    def test_strict_threshold(self):
        gray = np.zeros((84, 84))
        gray[0, :3] = [100.0, 127.5, 200.0]
        bits = frame_bits(binarize(gray))
        assert list(bits[0, :3]) == [0, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, (84, 84),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_output_is_binary(self, gray):
        bits = frame_bits(binarize(gray))
        assert set(np.unique(bits)) <= {0, 1}


# Block sides of 84 f-px frames. Only the board's, 3 (252 px), is observed;
# every other frame is refused.
BLOCK_SIDES = [1, 2, 3, 8, 9, 12]


def assert_refused(frame):
    with pytest.raises(ValueError, match=r"expected a \(252, 252, 3\) RGB frame"):
        binary_observation(frame)


@st.composite
def rgb_frames(draw):
    """Board-sized frames made by repeating a drawn patch.

    The patch's period need not divide the 3-px block side, so blocks see
    many pixel mixes; channel values lean towards the 127.5 threshold.
    """
    channel = st.one_of(st.integers(0, 255), st.integers(124, 131))
    period = draw(st.integers(1, 7))
    patch = draw(hnp.arrays(np.uint8, (period, period, 3), elements=channel))
    reps = -(-env.FRAME_PX // period)
    return np.tile(patch, (reps, reps, 1))[:env.FRAME_PX, :env.FRAME_PX]


class TestBinaryObservation:
    @pytest.mark.parametrize("f", BLOCK_SIDES)
    def test_matches_exact_oracle(self, f):
        """The board's frames match the int64 oracle; other sizes are refused."""
        rng = np.random.default_rng(f)
        side = FRAME_SIDE * f
        for lo, hi in [(0, 255), (126, 129)]:
            frame = rng.integers(lo, hi + 1, size=(side, side, 3), dtype=np.uint8)
            if f == 3:
                assert binary_observation(frame) == exact_observation(frame)
            else:
                assert_refused(frame)

    @settings(max_examples=60, deadline=None)
    @given(rgb_frames())
    def test_matches_oracles(self, frame):
        got = frame_bits(binary_observation(frame))
        assert np.array_equal(got, frame_bits(exact_observation(frame)))
        # Off the exact boundary the float64 chain's rounding cannot matter.
        off = block_luma_sums(frame) != 127_500 * 9
        assert np.array_equal(got[off], frame_bits(chain_observation(frame))[off])

    @pytest.mark.parametrize("f", BLOCK_SIDES)
    def test_threshold_is_strict_and_exact(self, f):
        """At the board's block side the bit is set strictly above the
        threshold sum. The int64 oracle's boundary sums hold at every side."""
        # Block (5, 7) sums to exactly 127500 f^2: a mean luma of 127.5.
        pixels = [[127] * 3, [128] * 3] * (f * f // 2)
        if f % 2:
            pixels.append([0, 204, 68])  # 299 R + 587 G + 114 B = 127500
        frame = np.zeros((FRAME_SIDE * f,) * 2 + (3,), dtype=np.uint8)
        block = frame[5 * f:6 * f, 7 * f:8 * f]
        block[...] = np.reshape(pixels, (f, f, 3))
        assert block_luma_sums(frame)[5, 7] == 127_500 * f * f
        if f == 3:
            assert not frame_bits(binary_observation(frame)).any()
        else:
            assert_refused(frame)
        # One more unit of luma sum sets the bit.
        block[-1, -1] = [2, 189, 140] if f % 2 else [2, 205, 62]
        assert block_luma_sums(frame)[5, 7] == 127_500 * f * f + 1
        if f == 3:
            bits = frame_bits(binary_observation(frame))
            assert bits[5, 7] and bits.sum() == 1
        else:
            assert_refused(frame)

    def test_chain_rounds_at_the_threshold(self):
        """Why the chain oracle is compared off the boundary only."""
        frame = np.zeros((252, 252, 3), dtype=np.uint8)
        frame[:3, :3] = [[[116, 64, 115], [176, 166, 120], [81, 186, 112]],
                         [[60, 168, 135], [152, 153, 62], [90, 132, 186]],
                         [[61, 75, 132], [168, 167, 166], [106, 81, 251]]]
        assert block_luma_sums(frame)[0, 0] == 127_500 * 9
        assert not frame_bits(binary_observation(frame))[0, 0]
        assert frame_bits(chain_observation(frame))[0, 0]

    @pytest.mark.parametrize("shape", [
        (252, 252), (252, 252, 4), (252, 336, 3), (336, 252, 3),
        (250, 250, 3), (255, 255, 3), (42, 42, 3), (0, 0, 3),
    ])
    def test_rejects_frames_not_tiling_to_84(self, shape):
        assert_refused(np.zeros(shape, dtype=np.uint8))

    def test_rejects_non_uint8(self):
        with pytest.raises(ValueError, match="uint8"):
            binary_observation(np.zeros((252, 252, 3), dtype=np.float64))


class TestBinaryFrame:
    """A binary frame is the 882 bytes of its packed bits."""

    def test_roundtrip_and_size(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(84, 84))
        frame = pack_frame(bits)
        assert len(frame) == PACKED_BYTES == 882
        assert np.array_equal(frame_bits(frame), bits)
        observed = binary_observation(env.render_rgb(env.reset(seed=1, max_step=10)))
        assert type(observed) is bytes and len(observed) == PACKED_BYTES

    def test_bad_sizes(self):
        """A frame of another length fails numpy's reshape where it is
        unpacked, and the ring it was pushed to stays as it was."""
        exps = episodes([5, 4], last_terminal=False)
        ring, oracle = ReplayBuffer(16), ListReplayBuffer(16)
        for exp in exps:
            ring.push(exp)
            oracle.push(exp)
        tail = exps[-1].next_state
        for size in (0, 10, PACKED_BYTES - 1, PACKED_BYTES + 1):
            bad = b"\x00" * size
            with pytest.raises(ValueError, match="reshape"):
                stack_init(bad).to_input()
            with pytest.raises(ValueError, match="reshape"):  # an episode's next frame
                ring.push(Experience(tail, 0, -0.1, stack_push(tail, bad), False))
        end = Experience(tail, 1, -1.0, stack_push(tail, tail.frames[0]), True)
        ring.push(end)
        oracle.push(end)
        for size in (0, 10, PACKED_BYTES - 1, PACKED_BYTES + 1):
            bad = b"\x00" * size
            with pytest.raises(ValueError, match="reshape"):  # a new episode's first frame
                ring.push(Experience(stack_init(bad), 0, -0.1, stack_init(bad), False))
        assert len(ring) == len(exps) + 1
        for seed in range(3):
            want = oracle_batch(oracle.sample(len(oracle), np.random.default_rng(seed)))
            assert_batches_equal(ring.sample(len(ring), np.random.default_rng(seed)), want)


class TestFrameStack:
    def _frames(self, n):
        out = []
        for i in range(n):
            bits = np.zeros((84, 84), dtype=np.uint8)
            bits[0, i] = 1
            out.append(pack_frame(bits))
        return out

    def test_init_repeats_first(self):
        (f,) = self._frames(1)
        stack = stack_init(f)
        assert stack.frames == (f, f, f, f)
        assert len(stack.frames) == 4

    def test_init_zero_tensor(self):
        zero = pack_frame(np.zeros((84, 84), dtype=np.uint8))
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
    """memreport's per-frame table against the frames the pipeline makes."""

    @staticmethod
    def frame_table() -> dict[str, tuple[int, str]]:
        """Each format's (bytes, kB) columns."""
        table = harness.memreport_text().split("\n\n")[0]
        rows = {}
        for line in table.splitlines()[2:]:
            *label, nbytes, kb, _vs_rgb, _vs_gray = line.split()
            rows[" ".join(label)] = (int(nbytes), kb)
        return rows

    def test_exact_bytes(self):
        nbytes = {label: n for label, (n, _) in self.frame_table().items()}
        assert nbytes == {"RGB float64": 169_344, "Gray float64": 56_448,
                          "Binary byte": 7_056, "Binary packed": 882}
        rgb = env.render_rgb(env.reset(seed=0, max_step=Hyperparams().max_step))
        frame = binary_observation(rgb)
        assert nbytes["Binary packed"] == len(frame)
        assert nbytes["Binary byte"] == frame_bits(frame).size

    def test_kb_values(self):
        kb = {label: value for label, (_, value) in self.frame_table().items()}
        assert kb == {"RGB float64": "165.375", "Gray float64": "55.125",
                      "Binary byte": "6.890", "Binary packed": "0.861"}

    def test_savings_ratios(self):
        table = self.frame_table()
        rgb, gray, binary = (table[k][0] for k in ("RGB float64", "Gray float64", "Binary byte"))
        assert binary * 8 == gray  # 87.5% saving vs grayscale, exactly
        assert binary * 24 == rgb  # ~95.83% saving vs RGB
        assert 1 - binary / gray == 0.875


class TestEndToEnd:
    def test_occupied_cells_become_7x7_blocks(self):
        state = env.reset(seed=0, max_step=Hyperparams().max_step)
        bits = frame_bits(binary_observation(env.render_rgb(state)))
        expected = np.zeros((84, 84), dtype=np.uint8)
        for x, y in list(state.body) + [state.apple]:
            expected[y * 7 : (y + 1) * 7, x * 7 : (x + 1) * 7] = 1
        assert np.array_equal(bits, expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_count_tracks_occupied_cells(self, seed):
        state = env.reset(seed=seed, max_step=Hyperparams().max_step)
        bits = frame_bits(binary_observation(env.render_rgb(state)))
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

