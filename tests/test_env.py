"""Snake environment: placement, step semantics, rewards, rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakedqn import env
from snakedqn.env import Direction, GridConfig


def make_state(body, heading, apple, config=None, seed=0, **kw):
    config = config or GridConfig()
    return env.EnvState(
        config=config,
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
        state = env.reset(seed=0)
        assert state.head == (6, 6)
        assert state.body == ((6, 6), (5, 6), (4, 6))
        assert state.heading == Direction.RIGHT
        assert state.score == 0
        assert state.steps == 0
        assert not state.done

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
    def test_apple_off_body(self, seed):
        state = env.reset(seed=seed)
        assert state.apple not in state.body
        assert not state.done

    def test_grid_golden(self):
        state = env.reset(seed=0)
        assert state.body == ((6, 6), (5, 6), (4, 6))
        assert state.apple == (2, 10)  # this seed's first apple

    def test_same_seed_same_state(self):
        a = env.reset(seed=42)
        b = env.reset(seed=42)
        assert a.body == b.body
        assert a.apple == b.apple
        assert a.heading == b.heading

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(width=0)
        with pytest.raises(ValueError):
            GridConfig(init_snake_len=12)
        with pytest.raises(ValueError):
            GridConfig(max_steps=0)
        with pytest.raises(ValueError):
            env.reset(GridConfig(width=5, height=5, init_snake_len=4), seed=0)


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
        cfg = GridConfig(max_steps=1)
        state = env.reset(cfg, seed=3)
        state, out = env.step(state, Direction.RIGHT)
        assert out.reward == -0.1
        assert out.terminal
        assert state.done
        assert state.steps == 1
        assert state.head == (7, 6)  # a move, not a collision

    def test_truncation_keeps_apple_reward(self):
        cfg = GridConfig(max_steps=1)
        state = make_state([(6, 6), (5, 6), (4, 6)], Direction.RIGHT, (7, 6),
                           config=cfg)
        state, out = env.step(state, Direction.RIGHT)
        assert out.reward == 1.0
        assert out.terminal
        assert state.score == 1
        assert state.apple is not None  # the board is not full: not a win

    def test_win_on_full_board(self):
        cfg = GridConfig(width=2, height=2, init_snake_len=1)
        state = make_state([(0, 1), (0, 0), (1, 0)], Direction.DOWN, (1, 1),
                           config=cfg, score=2)
        state, out = env.step(state, Direction.RIGHT)
        assert out.reward == 1.0
        assert out.terminal
        assert state.apple is None
        assert state.score == 3
        assert len(state.body) == 4


class TestFreeCells:
    def test_default_reset_count(self):
        state = env.reset(seed=0)
        free = env.free_cells(state)
        assert len(free) == 144 - 3 - 1

    def test_disjoint_from_occupied(self):
        state = env.reset(seed=5)
        free = set(env.free_cells(state))
        assert free.isdisjoint(state.body)
        assert state.apple not in free

    def test_row_major_order(self):
        state = env.reset(GridConfig(width=3, height=3, init_snake_len=1), seed=0)
        free = env.free_cells(state)
        assert free == sorted(free, key=lambda c: (c[1], c[0]))

    def test_full_board_empty(self):
        cfg = GridConfig(width=3, height=3, init_snake_len=1)
        body = tuple((x, y) for y in range(3) for x in range(3))
        state = make_state(body, Direction.RIGHT, None, config=cfg)
        assert env.free_cells(state) == []


class TestRender:
    def test_white_pixel_count_at_reset(self):
        state = env.reset(seed=0)
        frame = env.render_rgb(state)
        assert frame.shape == (252, 252, 3)
        assert frame.dtype == np.uint8
        assert (frame == 255).all(axis=2).sum() == 4 * 21 * 21
        assert set(np.unique(frame)) <= {0, 255}

    def test_empty_board_is_black(self):
        state = make_state([], Direction.RIGHT, None)
        assert not env.render_rgb(state).any()

    def test_render_deterministic(self):
        state = env.reset(seed=9)
        assert np.array_equal(env.render_rgb(state), env.render_rgb(state))

    def test_block_placement(self):
        cfg = GridConfig()
        state = make_state([(0, 0)], Direction.RIGHT, (11, 11), config=cfg)
        frame = env.render_rgb(state)
        assert (frame[:21, :21] == 255).all()
        assert (frame[231:, 231:] == 255).all()
        assert not frame[:21, 21:].any()


@st.composite
def walk_cases(draw):
    width = draw(st.integers(4, 9))
    height = draw(st.integers(4, 9))
    init_len = draw(st.integers(1, width // 2 + 1))
    seed = draw(st.integers(0, 2**32 - 1))
    actions = draw(st.lists(st.sampled_from(list(Direction)), min_size=1, max_size=60))
    return width, height, init_len, seed, actions


class TestInvariants:
    @settings(max_examples=120, deadline=None)
    @given(walk_cases())
    def test_random_walk(self, case):
        width, height, init_len, seed, actions = case
        cfg = GridConfig(width=width, height=height, init_snake_len=init_len,
                         max_steps=50)
        state = env.reset(cfg, seed=seed)
        prev_len = len(state.body)
        for action in actions:
            if state.done:
                break
            state, out = env.step(state, action)
            assert out.reward in (1.0, -1.0, -0.1)
            assert len(set(state.body)) == len(state.body) or state.done
            if not state.done:
                assert state.apple not in state.body
            assert state.score == len(state.body) - init_len
            assert state.steps <= cfg.max_steps
            # Only an apple grows the snake; a collision leaves the body as it was.
            assert len(state.body) == prev_len + (out.reward == 1.0)
            prev_len = len(state.body)

    def test_same_seed_same_apple_sequence(self):
        cfg = GridConfig(width=6, height=6, init_snake_len=1, max_steps=500)
        rng = np.random.default_rng(0)
        actions = [Direction(int(a)) for a in rng.integers(0, 4, size=400)]
        apples_a, apples_b = [], []
        for apples in (apples_a, apples_b):
            state = env.reset(cfg, seed=77)
            apples.append(state.apple)
            for action in actions:
                if state.done:
                    break
                state, out = env.step(state, action)
                if out.reward == 1.0:
                    apples.append(state.apple)
        assert apples_a == apples_b
