"""Frame-ring replay: eviction order, uniform sampling, byte accounting,
and agreement with the list oracle."""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakedqn import env as game
from snakedqn import replay
from snakedqn.agent import Hyperparams
from snakedqn.harness import observe
from snakedqn.preprocess import (FRAME_SIDE, PACKED_BYTES, FrameStack, frame_bits, stack_init,
                                 stack_push)
from snakedqn.replay import _SEGMENT_ROWS, Experience, ReplayBuffer, _deflate

from preprocess_oracle import pack_frame
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
        frames = [pack_frame(rng.random((84, 84)) < 0.03) for _ in range(5)]
        state = FrameStack(tuple(frames[:4]))
        buf = ReplayBuffer(8)
        with pytest.raises(ValueError):
            buf.push(Experience(state, 0, -0.1, stack_push(state, frames[4]), False))
        assert len(buf) == 0

    def test_next_state_must_follow_state(self):
        rng = np.random.default_rng(0)
        frames = [pack_frame(rng.random((84, 84)) < 0.03) for _ in range(2)]
        buf = ReplayBuffer(8)
        with pytest.raises(ValueError):
            buf.push(Experience(stack_init(frames[0]), 0, -0.1, stack_init(frames[1]), False))
        assert len(buf) == 0


def chained(frames, lengths, rng):
    """Episodes of the given lengths over frames drawn from ``frames``, all
    ending terminal, chained as the training loop pushes them."""
    out = []
    for length in lengths:
        drawn = [frames[i] for i in rng.integers(len(frames), size=length + 1)]
        stack = stack_init(drawn[0])
        for t in range(length):
            nxt = stack_push(stack, drawn[t + 1])
            out.append(Experience(stack, int(rng.integers(4)), -0.1, nxt, t == length - 1))
            stack = nxt
    return out


def random_play_frames(count, seed):
    """``count`` observations of seeded random-action Snake play."""
    rng = np.random.default_rng(seed)
    frames = []
    while len(frames) < count:
        state = game.reset(int(rng.integers(2**63)), Hyperparams().max_step)
        frames.append(observe(state))
        while not state.done and len(frames) < count:
            state, _ = game.step(state, game.ACTIONS[int(rng.integers(4))])
            frames.append(observe(state))
    return frames


def ring_row(buf, row):
    """Ring row ``row``'s deflated bytes, from the open segment's list or a
    segment's ``bytes``."""
    lo = buf._open * _SEGMENT_ROWS
    if lo <= row < lo + len(buf._open_rows):
        return buf._open_rows[row - lo]
    start = int(buf._start[row])
    return buf._segments[row // _SEGMENT_ROWS][start : start + int(buf._length[row])]


def assert_rows_hold(buf, exps):
    """Every ring row written by ``exps`` is ``_deflate`` of the frame it holds."""
    rows = buf.capacity + 4
    held, deflated = {}, {}
    for g, exp in enumerate(exps):
        if g == 0 or exps[g - 1].terminal:
            held[g % rows] = exp.state.frames[0]
        held[(g + 1) % rows] = exp.next_state.frames[-1]
    for row, frame in held.items():
        if frame not in deflated:
            deflated[frame] = _deflate(frame)
        assert ring_row(buf, row) == deflated[frame], row


class TestSegments:
    """The ring's rows live in 64-row segments, each one ``bytes`` with
    uint16 offsets; the segment being written collects its new rows in a list."""

    @pytest.mark.parametrize("cap", [1, 2, 59, 60, 61, 64, 124, 125, 200])
    def test_rows_inflate_to_deflate(self, cap):
        # Episodes of 1 to 5 steps put episode starts at every ring position.
        lengths = [1, 2, 3, 4, 5] * 30
        exps = episodes(lengths, seed=cap)
        ring, oracle = ReplayBuffer(cap), ListReplayBuffer(cap)
        for i, exp in enumerate(exps):
            ring.push(exp)
            oracle.push(exp)
            if i % 37 == 0 or i == len(exps) - 1:
                assert_rows_hold(ring, exps[: i + 1])
                assert_same_draw(ring, oracle, len(ring), seed=i)

    def test_ring_inside_one_segment_wraps_in_place(self):
        # Capacity 1 is 5 rows, all in segment 0: each wrap to row 0 seals
        # the segment and starts its next lap.
        exps = episodes([1, 3, 1, 1, 7, 2], seed=4)
        ring, oracle = ReplayBuffer(1), ListReplayBuffer(1)
        for i, exp in enumerate(exps):
            ring.push(exp)
            oracle.push(exp)
            assert_rows_hold(ring, exps[: i + 1])
            assert_same_draw(ring, oracle, 1, seed=i)
        assert ring._open == 0 and len(ring._segments) == 1 and ring._segments[0]

    def test_episode_start_rewrites_a_segments_last_row(self):
        # Push 62 is terminal and writes its next frame to row 63, the last
        # row of segment 0. The next episode's first frame takes that row, so
        # segment 0 must still be open; the push's next frame seals it.
        exps = episodes([63, 5], seed=2)
        ring, oracle = ReplayBuffer(200), ListReplayBuffer(200)
        for exp in exps[:63]:
            ring.push(exp)
            oracle.push(exp)
        assert ring._open == 0 and len(ring._open_rows) == _SEGMENT_ROWS
        ring.push(exps[63])
        oracle.push(exps[63])
        assert ring._open == 1
        assert ring_row(ring, 63) == _deflate(exps[63].state.frames[0])
        for exp in exps[64:]:
            ring.push(exp)
            oracle.push(exp)
        assert_rows_hold(ring, exps)
        assert_same_draw(ring, oracle, len(ring))

    def test_incompressible_frames_fill_a_segment(self):
        """Frames of 50% density deflate to the worst-case 893-byte row, and
        64 of them still fit one segment's uint16 offsets."""
        rng = np.random.default_rng(5)
        frames = [pack_frame(rng.random((FRAME_SIDE, FRAME_SIDE)) < 0.5) for _ in range(80)]
        exps = chained(frames, [79], rng)
        ring, oracle = ReplayBuffer(100), ListReplayBuffer(100)
        for exp in exps:
            ring.push(exp)
            oracle.push(exp)
        assert ring._open == 1
        segment = ring._segments[0]
        assert len(segment) == _SEGMENT_ROWS * 893 < 2**16
        assert int(ring._start[_SEGMENT_ROWS - 1]) + int(ring._length[_SEGMENT_ROWS - 1]) \
            == len(segment)
        assert_rows_hold(ring, exps)
        assert_same_draw(ring, oracle, len(ring))


class TestLiveBytes:
    def test_packed_accounting(self):
        buf, oracle, exps = tagged(20, cap=50, lengths=[20])
        assert oracle.live_bytes() == 20 * 8 * 882
        # One episode: its first frame, then one new frame per step.
        frames = [exps[0].state.frames[0]] + [e.next_state.frames[-1] for e in exps]
        held = sum(len(_deflate(f)) for f in frames)
        # Per slot: action, reward, terminal, back; per ring row: uint16 start and length.
        assert buf.nbytes == held + 50 * (1 + 8 + 1 + 1) + (50 + 4) * (2 + 2)
        assert buf.nbytes < 20 * 882

    def test_full_buffer_bound(self):
        cap = 200
        buf, oracle, _ = tagged(cap + 50, cap=cap)
        assert oracle.live_bytes() <= cap * 8 * 882
        assert buf.nbytes <= cap * 882

    def test_nbytes_is_what_the_ring_allocates(self):
        """``nbytes`` is within 15% of the memory tracemalloc finds held by
        allocations in ``replay.py`` after 20 000 pushes of random-play frames.
        A Python object per row would cost 41 B more per row than it counts."""
        rng = np.random.default_rng(8)
        exps = chained(random_play_frames(400, seed=8), rng.integers(1, 60, size=700), rng)
        exps = exps[:20_000]
        assert len(exps) == 20_000
        tracemalloc.start()
        try:
            ring = ReplayBuffer(len(exps))
            for exp in exps:
                ring.push(exp)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        traced = sum(t.size for t in snapshot.filter_traces(
            [tracemalloc.Filter(True, replay.__file__)]).traces)
        assert abs(traced - ring.nbytes) <= 0.15 * ring.nbytes


class TestDeflate:
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.2, 0.5, 1.0])
    def test_small_state_deflates_as_small(self, density):
        """A ring row inflates to the bit-planar frame, and its smaller deflate
        state costs at most a byte over zlib's defaults, on any density."""
        bits = np.random.default_rng(3).random((FRAME_SIDE, FRAME_SIDE)) < density
        frame = pack_frame(bits)
        packed = np.packbits(frame_bits(frame).reshape(8, PACKED_BYTES).T).tobytes()
        row = _deflate(frame)
        assert zlib.decompress(row) == packed
        assert len(row) <= len(zlib.compress(packed)) + 1

    def test_episode_rows_as_small(self):
        exps = episodes([40])
        frames = [exps[0].state.frames[0]] + [e.next_state.frames[-1] for e in exps]
        packed = [np.packbits(frame_bits(f).reshape(8, PACKED_BYTES).T).tobytes() for f in frames]
        rows = [_deflate(f) for f in frames]
        assert [zlib.decompress(r) for r in rows] == packed
        assert sum(map(len, rows)) <= sum(len(zlib.compress(p)) for p in packed) + len(rows) // 8
