"""Frame-ring replay: eviction order, uniform sampling, byte accounting,
and agreement with the list oracle."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakedqn.preprocess import (FRAME_SIDE, PACKED_BYTES, BinaryFrame, FrameStack, PixelFormat,
                                 stack_init, stack_push)
from snakedqn.replay import (
    FRAMES_PER_EXPERIENCE,
    Experience,
    ReplayBuffer,
    _deflate,
    memory_report,
)

from replay_oracle import ListReplayBuffer, assert_batches_equal, episodes, oracle_batch


def tagged(n, cap=None, lengths=None):
    """A ring and the list oracle fed the same ``n`` chained transitions.

    Transition ``i`` has reward ``i``, so a sampled row names its experience.
    """
    lengths = lengths or [7] * -(-n // 7)
    exps = episodes(lengths, rewards=float)[:n]
    ring, oracle = ReplayBuffer(cap or n), ListReplayBuffer(cap or n)
    for exp in exps:
        ring.push(exp)
        oracle.push(exp)
    return ring, oracle, exps


def assert_same_draw(ring, oracle, batch, seed=0):
    got = ring.sample(batch, np.random.default_rng(seed))
    assert_batches_equal(got, oracle_batch(oracle.sample(batch, np.random.default_rng(seed))))
    return got


class TestPush:
    def test_append_below_capacity(self):
        buf, oracle, exps = tagged(1, cap=3)
        assert len(buf) == 1
        assert oracle.snapshot() == exps
        assert_same_draw(buf, oracle, 1)

    def test_fifo_eviction(self):
        buf, oracle, exps = tagged(4, cap=3)
        assert len(buf) == 3
        assert oracle.snapshot() == exps[1:]
        assert_same_draw(buf, oracle, 3)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 100).flatmap(
        lambda cap: st.tuples(st.just(cap), st.integers(0, cap * 5))))
    def test_retains_newest_in_order(self, case):
        cap, pushes = case
        buf, oracle, exps = tagged(pushes, cap=cap)
        assert len(buf) == min(pushes, cap)
        assert oracle.snapshot() == exps[max(0, pushes - cap):]
        if pushes:
            got = assert_same_draw(buf, oracle, len(buf))
            assert sorted(got.rewards) == list(range(max(0, pushes - cap), pushes))


class TestSample:
    def test_exhaustive_when_len_equals_batch(self):
        buf, oracle, _ = tagged(32)
        out = buf.sample(32, np.random.default_rng(0))
        assert sorted(out.rewards) == list(range(32))
        assert_same_draw(buf, oracle, 32)

    def test_deterministic_given_rng_state(self):
        buf, _, _ = tagged(1000)
        a = buf.sample(32, np.random.default_rng(123))
        b = buf.sample(32, np.random.default_rng(123))
        assert_batches_equal(a, b)

    def test_insufficient_data(self):
        buf, _, _ = tagged(1, cap=10)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_no_duplicates_within_batch(self, n, seed):
        buf, _, _ = tagged(n)
        batch = min(n, 8)
        out = buf.sample(batch, np.random.default_rng(seed)).rewards
        assert len(set(out)) == batch
        assert all(0 <= v < n for v in out)

    def test_roughly_uniform(self):
        buf, _, _ = tagged(100)
        rng = np.random.default_rng(7)
        counts = np.zeros(100)
        draws = 2_000
        for _ in range(draws):
            for v in buf.sample(32, rng).rewards:
                counts[int(v)] += 1
        freqs = counts / draws
        assert np.abs(freqs - 0.32).max() < 0.05


class TestAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=12), st.integers(1, 64),
           st.booleans(), st.integers(0, 2**32 - 1), st.data())
    def test_draws_match_list_oracle(self, lengths, cap, last_terminal, seed, data):
        exps = episodes(lengths, seed=seed % 1000, last_terminal=last_terminal)
        ring, oracle = ReplayBuffer(cap), ListReplayBuffer(cap)
        ends = set(np.cumsum(lengths) - 1)
        for i, exp in enumerate(exps):
            ring.push(exp)
            oracle.push(exp)
            if i in ends or i == len(exps) - 1:
                batch = data.draw(st.integers(1, len(ring)), label="batch")
                assert_same_draw(ring, oracle, batch, seed=seed + i)

    def test_start_after_non_terminal_rejected(self):
        first, second = (episodes([3], seed=s, last_terminal=False) for s in (1, 2))
        buf = ReplayBuffer(8)
        for exp in first:
            buf.push(exp)
        with pytest.raises(ValueError):
            buf.push(second[0])
        assert len(buf) == 3

    def test_start_must_be_four_equal_frames(self):
        rng = np.random.default_rng(0)
        frames = [BinaryFrame.from_array(rng.random((84, 84)) < 0.03) for _ in range(5)]
        state = FrameStack(tuple(frames[:4]))
        buf = ReplayBuffer(8)
        with pytest.raises(ValueError):
            buf.push(Experience(state, 0, -0.1, stack_push(state, frames[4]), False))
        assert len(buf) == 0

    def test_next_state_must_follow_state(self):
        rng = np.random.default_rng(0)
        frames = [BinaryFrame.from_array(rng.random((84, 84)) < 0.03) for _ in range(2)]
        buf = ReplayBuffer(8)
        with pytest.raises(ValueError):
            buf.push(Experience(stack_init(frames[0]), 0, -0.1, stack_init(frames[1]), False))
        assert len(buf) == 0


class TestMemoryReport:
    def test_table_values(self):
        rgb_bytes, rgb_gb = memory_report(1_000_000, PixelFormat.RGB_FLOAT64)
        gray_bytes, gray_gb = memory_report(1_000_000, PixelFormat.GRAY_FLOAT64)
        bin_bytes, bin_gb = memory_report(50_000, PixelFormat.BINARY_BYTE)
        assert rgb_bytes == 1_000_000 * 8 * 169_344
        assert gray_bytes == 1_000_000 * 8 * 56_448
        assert bin_bytes == 50_000 * 8 * 7_056
        assert abs(rgb_gb - 1261.71) <= 0.01
        assert abs(gray_gb - 420.57) <= 0.01
        assert abs(bin_gb - 2.628) <= 0.01

    def test_zero_capacity(self):
        assert memory_report(0, PixelFormat.RGB_FLOAT64) == (0, 0.0)

    def test_savings_vs_million_entry_grayscale(self):
        gray_bytes, _ = memory_report(1_000_000, PixelFormat.GRAY_FLOAT64)
        bin_bytes, _ = memory_report(50_000, PixelFormat.BINARY_BYTE)
        # 1 - 0.00625 = 99.375% saving, exact in integer arithmetic
        assert bin_bytes * 160 == gray_bytes

    def test_frames_per_experience_default(self):
        assert FRAMES_PER_EXPERIENCE == 8
        nbytes, _ = memory_report(10, PixelFormat.BINARY_BYTE)
        assert nbytes == 10 * 8 * 7_056


class TestLiveBytes:
    def test_packed_accounting(self):
        buf, oracle, exps = tagged(20, cap=50, lengths=[20])
        assert oracle.live_bytes() == 20 * 8 * 882
        # One episode: its first frame, then one new frame per step.
        frames = [exps[0].state.frames[0]] + [e.next_state.frames[-1] for e in exps]
        held = sum(len(_deflate(f)) for f in frames)
        assert buf.nbytes == held + 50 * (1 + 8 + 1 + 1)
        assert buf.nbytes < 20 * 882

    def test_full_buffer_bound(self):
        cap = 200
        buf, oracle, _ = tagged(cap + 50, cap=cap)
        assert oracle.live_bytes() <= cap * 8 * 882
        assert buf.nbytes <= cap * 882


class TestDeflate:
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.2, 0.5, 1.0])
    def test_small_state_deflates_as_small(self, density):
        """A ring row inflates to the bit-planar frame, and its smaller deflate
        state costs at most a byte over zlib's defaults, on any density."""
        bits = np.random.default_rng(3).random((FRAME_SIDE, FRAME_SIDE)) < density
        frame = BinaryFrame.from_array(bits.astype(np.uint8))
        packed = np.packbits(frame.to_array().reshape(8, PACKED_BYTES).T).tobytes()
        row = _deflate(frame)
        assert zlib.decompress(row) == packed
        assert len(row) <= len(zlib.compress(packed)) + 1

    def test_episode_rows_as_small(self):
        exps = episodes([40])
        frames = [exps[0].state.frames[0]] + [e.next_state.frames[-1] for e in exps]
        packed = [np.packbits(f.to_array().reshape(8, PACKED_BYTES).T).tobytes() for f in frames]
        rows = [_deflate(f) for f in frames]
        assert [zlib.decompress(r) for r in rows] == packed
        assert sum(map(len, rows)) <= sum(len(zlib.compress(p)) for p in packed) + len(rows) // 8
