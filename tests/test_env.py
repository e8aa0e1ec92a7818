"""Snake environment: placement, step semantics, rewards, rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakedqn import env
from snakedqn.agent import Hyperparams
from snakedqn.env import Direction

MAX_STEP = Hyperparams().max_step
# Every cell of the board in one path: rows in turn, alternately right- and leftward.
SERPENTINE = [(x if y % 2 == 0 else env.BOARD_CELLS - 1 - x, y)
              for y in range(env.BOARD_CELLS) for x in range(env.BOARD_CELLS)]


def make_state(body, heading, apple, max_step=MAX_STEP, seed=0, **kw):
    return env.EnvState(
        max_step=max_step,
        body=tuple(body),
        heading=heading,
        apple=apple,
        score=kw.get("score", 0),
        steps=kw.get("steps", 0),
        done=kw.get("done", False),
        rng=np.random.Generator(np.random.PCG64(seed)),
    )


class TestReset:
    def test_default_placement(self):
        state = env.reset(seed=0, max_step=MAX_STEP)
        assert state.head == (6, 6)
        assert state.body == ((6, 6), (5, 6), (4, 6))
        assert state.heading == Direction.RIGHT
        assert state.score == 0
        assert state.steps == 0
        assert not state.done

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
    def test_apple_off_body(self, seed):
        state = env.reset(seed=seed, max_step=MAX_STEP)
        assert state.apple not in state.body
        assert not state.done

    def test_grid_golden(self):
        state = env.reset(seed=0, max_step=MAX_STEP)
        assert state.body == ((6, 6), (5, 6), (4, 6))
        assert state.apple == (2, 10)  # this seed's first apple

    def test_same_seed_same_state(self):
        a = env.reset(seed=42, max_step=MAX_STEP)
        b = env.reset(seed=42, max_step=MAX_STEP)
        assert a.body == b.body
        assert a.apple == b.apple
        assert a.heading == b.heading

    def test_invalid_config_rejected(self):
        for max_step in (0, -1):
            with pytest.raises(ValueError, match="max_step"):
                env.reset(seed=0, max_step=max_step)


class TestStep:
    def test_wall_collision(self):
        state = make_state([(11, 6), (10, 6), (9, 6)], Direction.RIGHT, (0, 0))
        state, out = env.step(state, Direction.RIGHT)
        assert out.reward == -1.0
        assert out.terminal
        assert state.done
        assert state.body == ((11, 6), (10, 6), (9, 6))  # the snake does not move
        assert state.steps == 1

    def test_self_collision(self):
        body = [(2, 2), (3, 2), (3, 3), (2, 3), (1, 3)]
        state = make_state(body, Direction.LEFT, (8, 8))
        state, out = env.step(state, Direction.DOWN)
        assert out.reward == -1.0
        assert out.terminal
        assert state.body == tuple(body)

    def test_eat_apple(self):
        state = make_state([(6, 6), (5, 6), (4, 6)], Direction.RIGHT, (7, 6))
        state, out = env.step(state, Direction.RIGHT)
        assert out.reward == 1.0
        assert not out.terminal
        assert state.score == 1
        assert len(state.body) == 4
        assert state.head == (7, 6)
        assert state.apple != (7, 6)
        assert state.apple not in state.body

    def test_plain_move(self):
        state = make_state([(6, 6), (5, 6), (4, 6)], Direction.RIGHT, (0, 0))
        state, out = env.step(state, Direction.UP)
        assert out.reward == -0.1
        assert not out.terminal
        assert len(state.body) == 3
        assert state.head == (6, 5)

    def test_reverse_input_ignored(self):
        state = make_state([(6, 6), (5, 6), (4, 6)], Direction.RIGHT, (0, 0))
        state, out = env.step(state, Direction.LEFT)
        assert state.head == (7, 6)
        assert state.heading == Direction.RIGHT
        assert out.reward == -0.1 and not out.terminal

    def test_moving_into_vacating_tail_is_legal(self):
        # head circles back onto the tail cell, which empties this same step
        body = [(1, 0), (0, 0), (0, 1), (1, 1)]
        state = make_state(body, Direction.RIGHT, (5, 5))
        state, out = env.step(state, Direction.DOWN)
        assert out.reward == -0.1 and not out.terminal
        assert state.head == (1, 1)

    def test_step_done_state_raises(self):
        state = make_state([(6, 6)], Direction.RIGHT, (0, 0), done=True)
        with pytest.raises(ValueError):
            env.step(state, Direction.UP)

    def test_truncation_at_step_cap(self):
        state = env.reset(seed=3, max_step=1)
        state, out = env.step(state, Direction.RIGHT)
        assert out.reward == -0.1
        assert out.terminal
        assert state.done
        assert state.steps == 1
        assert state.head == (7, 6)  # a move, not a collision

    def test_truncation_keeps_apple_reward(self):
        state = make_state([(6, 6), (5, 6), (4, 6)], Direction.RIGHT, (7, 6), max_step=1)
        state, out = env.step(state, Direction.RIGHT)
        assert out.reward == 1.0
        assert out.terminal
        assert state.score == 1
        assert state.apple is not None  # the board is not full: not a win

    def test_win_on_full_board(self):
        # A 143-cell snake on the serpentine path, its head one cell short of
        # the last free cell, where the apple is.
        body = SERPENTINE[1:]
        state = make_state(body, Direction.LEFT, SERPENTINE[0], score=140)
        state, out = env.step(state, Direction.LEFT)
        assert out.reward == env.REWARD_APPLE
        assert out.terminal and state.done
        assert state.apple is None
        assert state.score == 141
        assert state.body == tuple(SERPENTINE)


class TestFreeCells:
    def test_default_reset_count(self):
        state = env.reset(seed=0, max_step=MAX_STEP)
        free = env.free_cells(state)
        assert len(free) == 144 - 3 - 1

    def test_disjoint_from_occupied(self):
        state = env.reset(seed=5, max_step=MAX_STEP)
        free = set(env.free_cells(state))
        assert free.isdisjoint(state.body)
        assert state.apple not in free

    def test_row_major_order(self):
        state = make_state(SERPENTINE[20:], Direction.RIGHT, SERPENTINE[3])
        free = env.free_cells(state)
        assert free == sorted(SERPENTINE[:3] + SERPENTINE[4:20], key=lambda c: (c[1], c[0]))

    def test_full_board_empty(self):
        state = make_state(SERPENTINE, Direction.LEFT, None)
        assert env.free_cells(state) == []


class TestRender:
    def test_white_pixel_count_at_reset(self):
        state = env.reset(seed=0, max_step=MAX_STEP)
        frame = env.render_rgb(state)
        assert frame.shape == (252, 252, 3)
        assert frame.dtype == np.uint8
        assert (frame == 255).all(axis=2).sum() == 4 * 21 * 21
        assert set(np.unique(frame)) <= {0, 255}

    def test_empty_board_is_black(self):
        state = make_state([], Direction.RIGHT, None)
        assert not env.render_rgb(state).any()

    def test_render_deterministic(self):
        state = env.reset(seed=9, max_step=MAX_STEP)
        assert np.array_equal(env.render_rgb(state), env.render_rgb(state))

    def test_block_placement(self):
        state = make_state([(0, 0)], Direction.RIGHT, (11, 11))
        frame = env.render_rgb(state)
        assert (frame[:21, :21] == 255).all()
        assert (frame[231:, 231:] == 255).all()
        assert not frame[:21, 21:].any()


class TestInvariants:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60),
           st.lists(st.sampled_from(list(Direction)), min_size=1, max_size=120))
    def test_random_walk(self, seed, max_step, actions):
        state = env.reset(seed=seed, max_step=max_step)
        prev_len = len(state.body)
        for action in actions:
            if state.done:
                break
            state, out = env.step(state, action)
            assert out.reward in (1.0, -1.0, -0.1)
            assert len(set(state.body)) == len(state.body) or state.done
            if not state.done:
                assert state.apple not in state.body
            assert state.score == len(state.body) - env.INIT_SNAKE_LEN
            assert state.steps <= max_step
            # Only an apple grows the snake; a collision leaves the body as it was.
            assert len(state.body) == prev_len + (out.reward == 1.0)
            prev_len = len(state.body)

    @staticmethod
    def apples_chased(seed):
        """The apples a snake that heads straight for each one sees, in order."""
        state = env.reset(seed=seed, max_step=500)
        apples = [state.apple]
        while not state.done:
            (hx, hy), (ax, ay) = state.head, state.apple
            if ax != hx:
                action = Direction.RIGHT if ax > hx else Direction.LEFT
            else:
                action = Direction.DOWN if ay > hy else Direction.UP
            state, out = env.step(state, action)
            if out.reward == env.REWARD_APPLE and not state.done:
                apples.append(state.apple)
        return apples

    def test_same_seed_same_apple_sequence(self):
        apples = self.apples_chased(77)
        assert len(apples) > 3
        assert self.apples_chased(77) == apples
        assert self.apples_chased(78) != apples
