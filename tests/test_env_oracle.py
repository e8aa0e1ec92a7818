"""Cross-check the environment against the naive reference simulator."""

import numpy as np
import pytest

from snakedqn import env
from snakedqn.env import Direction

from reference_env import RefSnake

ACTION_NAMES = {
    Direction.UP: "U",
    Direction.DOWN: "D",
    Direction.LEFT: "L",
    Direction.RIGHT: "R",
}

HEADING_NAMES = ACTION_NAMES
SIDE = env.BOARD_CELLS


def same(state, out, ref, reward, terminal):
    return (
        list(state.body) == ref.snake
        and HEADING_NAMES[state.heading] == ref.heading
        and state.apple == ref.apple
        and state.score == ref.score
        and state.steps == ref.steps
        and state.done == ref.done
        and out.reward == reward
        and out.terminal == terminal
    )


def drive(max_step: int, total_steps: int, master_seed: int):
    """Run both simulators in lockstep for ``total_steps`` random actions."""
    action_rng = np.random.default_rng(master_seed)
    episode = 0
    steps_done = 0
    mismatches = 0
    while steps_done < total_steps:
        seed = master_seed * 1_000_003 + episode
        state = env.reset(seed=seed, max_step=max_step)
        ref = RefSnake(SIDE, SIDE, env.INIT_SNAKE_LEN, max_step, seed)
        assert state.apple == ref.apple
        while not state.done and steps_done < total_steps:
            action = Direction(int(action_rng.integers(0, 4)))
            state, out = env.step(state, action)
            reward, terminal = ref.step(ACTION_NAMES[action])
            steps_done += 1
            if not same(state, out, ref, reward, terminal):
                mismatches += 1
        episode += 1
    return steps_done, episode, mismatches


def test_small_board_lockstep_100k():
    steps, episodes, mismatches = drive(10_000, total_steps=100_000, master_seed=1)
    assert steps == 100_000
    assert episodes > 100  # random play dies long before the step cap
    assert mismatches == 0


def test_truncation_heavy_lockstep():
    steps, episodes, mismatches = drive(6, total_steps=5_000, master_seed=9)
    assert mismatches == 0
    assert episodes >= 5_000 // 6  # the step cap forces frequent truncations


@pytest.mark.parametrize("action", list(Direction), ids=lambda d: d.name)
def test_last_apple_lockstep(action):
    """One apple short of a full board: a 143-cell snake on a serpentine path
    through every cell, its head beside the one free cell, where the apple
    is. Every action steps both simulators alike and ends the episode: the
    two that move onto the apple (LEFT, and RIGHT, a reverse input, ignored)
    fill the board and win; the other two die."""
    path = [(x if y % 2 == 0 else SIDE - 1 - x, y) for y in range(SIDE) for x in range(SIDE)]
    score = len(path) - 1 - env.INIT_SNAKE_LEN
    state = env.EnvState(max_step=10_000, body=tuple(path[1:]), heading=Direction.LEFT,
                         apple=path[0], score=score, steps=0, done=False,
                         rng=np.random.Generator(np.random.PCG64(5)))
    ref = RefSnake.from_state(SIDE, SIDE, path[1:], "L", path[0], score, 10_000, seed=5)
    state, out = env.step(state, action)
    reward, terminal = ref.step(ACTION_NAMES[action])
    assert same(state, out, ref, reward, terminal)
    assert state.done
    wins = action in (Direction.LEFT, Direction.RIGHT)
    assert out.reward == (env.REWARD_APPLE if wins else env.REWARD_DEATH)
    if wins:
        assert state.apple is None and state.body == tuple(path)
