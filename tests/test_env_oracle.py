"""Cross-check the environment against the naive reference simulator."""

import numpy as np
import pytest

from snakedqn import env
from snakedqn.env import Direction, GridConfig

from reference_env import RefSnake

ACTION_NAMES = {
    Direction.UP: "U",
    Direction.DOWN: "D",
    Direction.LEFT: "L",
    Direction.RIGHT: "R",
}

HEADING_NAMES = ACTION_NAMES


def drive(cfg: GridConfig, total_steps: int, master_seed: int):
    """Run both simulators in lockstep for ``total_steps`` random actions."""
    action_rng = np.random.default_rng(master_seed)
    episode = 0
    steps_done = 0
    mismatches = 0
    while steps_done < total_steps:
        seed = master_seed * 1_000_003 + episode
        state = env.reset(cfg, seed=seed)
        ref = RefSnake(cfg.width, cfg.height, cfg.init_snake_len,
                       cfg.max_steps, seed)
        assert state.apple == ref.apple
        while not state.done and steps_done < total_steps:
            action = Direction(int(action_rng.integers(0, 4)))
            state, out = env.step(state, action)
            reward, terminal = ref.step(ACTION_NAMES[action])
            steps_done += 1
            same = (
                list(state.body) == ref.snake
                and HEADING_NAMES[state.heading] == ref.heading
                and state.apple == ref.apple
                and state.score == ref.score
                and state.steps == ref.steps
                and state.done == ref.done
                and out.reward == reward
                and out.terminal == terminal
            )
            if not same:
                mismatches += 1
        episode += 1
    return steps_done, episode, mismatches


def test_small_board_lockstep_100k():
    cfg = GridConfig(width=4, height=4, init_snake_len=3, max_steps=10_000)
    steps, episodes, mismatches = drive(cfg, total_steps=100_000, master_seed=1)
    assert steps == 100_000
    assert episodes > 100  # random play dies often on a 4x4 board
    assert mismatches == 0


def test_truncation_heavy_lockstep():
    cfg = GridConfig(width=4, height=4, init_snake_len=1, max_steps=6)
    steps, episodes, mismatches = drive(cfg, total_steps=5_000, master_seed=9)
    assert mismatches == 0
    assert episodes >= 5_000 // 6  # the step cap forces frequent truncations


def test_larger_board_lockstep():
    cfg = GridConfig(width=7, height=5, init_snake_len=2, max_steps=300)
    _, _, mismatches = drive(cfg, total_steps=20_000, master_seed=4)
    assert mismatches == 0
