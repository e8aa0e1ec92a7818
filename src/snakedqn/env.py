"""Snake game environment on a small grid with block-graphics rendering.

The game lives on a fixed 12x12 cell grid and is rasterized to 252x252 RGB
pixels, 21 per cell, which the observation reduces to 84x84 bits. Rewards:
+1 for eating an apple, -1 for dying against a wall or the snake's own
body, -0.1 for any other move. Episodes also end when the board is full
(win) or when the state's step cap is reached (truncation).

Coordinates are ``(x, y)`` cell pairs with ``(0, 0)`` at the top-left;
``x`` grows rightwards, ``y`` grows downwards. Apple spawning draws one
uniform index into the row-major list of free cells from the state's PRNG
(PCG64), so a seed fixes the whole apple sequence.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

REWARD_APPLE = 1.0
REWARD_DEATH = -1.0
REWARD_STEP = -0.1

BOARD_CELLS = 12  # the board is BOARD_CELLS x BOARD_CELLS cells
CELL_PX = 21
FRAME_PX = BOARD_CELLS * CELL_PX
INIT_SNAKE_LEN = 3


class Direction(enum.IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITES[self]


_DELTAS = {
    Direction.UP: (0, -1),
    Direction.DOWN: (0, 1),
    Direction.LEFT: (-1, 0),
    Direction.RIGHT: (1, 0),
}

_OPPOSITES = {
    Direction.UP: Direction.DOWN,
    Direction.DOWN: Direction.UP,
    Direction.LEFT: Direction.RIGHT,
    Direction.RIGHT: Direction.LEFT,
}

ACTIONS: tuple[Direction, ...] = (
    Direction.UP,
    Direction.DOWN,
    Direction.LEFT,
    Direction.RIGHT,
)


@dataclass
class EnvState:
    """Full game state. ``body`` is head-first; ``rng`` drives apple spawns.

    ``step`` returns a new EnvState but shares (and advances) the ``rng``
    object, so states are snapshots of the board, not of the PRNG. The
    episode is truncated once ``steps`` reaches ``max_step``.
    """

    max_step: int
    body: tuple[tuple[int, int], ...]
    heading: Direction
    apple: tuple[int, int] | None
    score: int
    steps: int
    done: bool
    rng: np.random.Generator

    @property
    def head(self) -> tuple[int, int]:
        return self.body[0]


@dataclass(frozen=True)
class StepOutcome:
    reward: float
    terminal: bool


def _spawn_apple(rng: np.random.Generator, free: list[tuple[int, int]]) -> tuple[int, int]:
    # One uniform draw per spawn; free cells are in row-major order.
    return free[int(rng.integers(0, len(free)))]


def reset(seed: int, max_step: int) -> EnvState:
    """Start an episode: centered horizontal snake heading right, seeded apple."""
    if max_step < 1:
        raise ValueError(f"max_step must be positive, got {max_step}")
    head = (BOARD_CELLS // 2, BOARD_CELLS // 2)
    body = tuple((head[0] - i, head[1]) for i in range(INIT_SNAKE_LEN))
    rng = np.random.Generator(np.random.PCG64(seed))
    state = EnvState(
        max_step=max_step,
        body=body,
        heading=Direction.RIGHT,
        apple=None,
        score=0,
        steps=0,
        done=False,
        rng=rng,
    )
    state.apple = _spawn_apple(rng, free_cells(state))
    return state


def free_cells(state: EnvState) -> list[tuple[int, int]]:
    """Row-major list of cells not covered by the snake or the apple."""
    occupied = set(state.body)
    if state.apple is not None:
        occupied.add(state.apple)
    return [
        (x, y)
        for y in range(BOARD_CELLS)
        for x in range(BOARD_CELLS)
        if (x, y) not in occupied
    ]


def step(state: EnvState, action: Direction) -> tuple[EnvState, StepOutcome]:
    """Advance one move. Reverse inputs are ignored (the snake keeps going)."""
    if state.done:
        raise ValueError("cannot step a finished episode")

    heading = state.heading if action == state.heading.opposite else Direction(action)
    dx, dy = heading.delta
    new_head = (state.head[0] + dx, state.head[1] + dy)
    steps = state.steps + 1

    def make(body, apple, score, done, reward):
        new_state = dataclasses.replace(
            state,
            body=body,
            heading=heading,
            apple=apple,
            score=score,
            steps=steps,
            done=done,
        )
        return new_state, StepOutcome(reward=reward, terminal=done)

    out_of_bounds = not (0 <= new_head[0] < BOARD_CELLS and 0 <= new_head[1] < BOARD_CELLS)
    if new_head == state.apple:
        hits_body = new_head in state.body
    else:
        # The tail cell vacates on a non-eating move, so it is fair game.
        hits_body = new_head in state.body[:-1]
    if out_of_bounds or hits_body:
        return make(state.body, state.apple, state.score, True, REWARD_DEATH)

    if new_head == state.apple:
        body = (new_head,) + state.body
        score = state.score + 1
        probe = dataclasses.replace(state, body=body, apple=None)
        free = free_cells(probe)
        if not free:
            return make(body, None, score, True, REWARD_APPLE)
        apple = _spawn_apple(state.rng, free)
        reward = REWARD_APPLE
    else:
        body = (new_head,) + state.body[:-1]
        score = state.score
        apple = state.apple
        reward = REWARD_STEP

    return make(body, apple, score, steps >= state.max_step, reward)


def render_rgb(state: EnvState) -> np.ndarray:
    """Rasterize to (252, 252, 3) uint8: white 21x21 blocks on black."""
    frame = np.zeros((FRAME_PX, FRAME_PX, 3), dtype=np.uint8)
    cells = list(state.body)
    if state.apple is not None:
        cells.append(state.apple)
    for x, y in cells:
        frame[y * CELL_PX : (y + 1) * CELL_PX, x * CELL_PX : (x + 1) * CELL_PX, :] = 255
    return frame
