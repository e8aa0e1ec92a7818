"""Snake game environment on a small grid with block-graphics rendering.

The game lives on a ``width x height`` cell grid (default 12x12) and is
rasterized to ``width*cell_px x height*cell_px`` RGB pixels (default
252x252). Rewards: +1 for eating an apple, -1 for dying against a wall or
the snake's own body, -0.1 for any other move. Episodes also end when the
board is full (win) or when a step cap is reached (truncation).

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


@dataclass(frozen=True)
class GridConfig:
    """Board geometry and episode limits."""

    width: int = 12
    height: int = 12
    cell_px: int = 21
    init_snake_len: int = 3
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.cell_px < 1:
            raise ValueError("grid dimensions must be positive")
        if not (1 <= self.init_snake_len < self.width):
            raise ValueError("init_snake_len must satisfy 1 <= len < width")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    @property
    def pixel_width(self) -> int:
        return self.width * self.cell_px

    @property
    def pixel_height(self) -> int:
        return self.height * self.cell_px


@dataclass
class EnvState:
    """Full game state. ``body`` is head-first; ``rng`` drives apple spawns.

    ``step`` returns a new EnvState but shares (and advances) the ``rng``
    object, so states are snapshots of the board, not of the PRNG.
    """

    config: GridConfig
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


def reset(config: GridConfig = GridConfig(), seed: int = 0) -> EnvState:
    """Start an episode: centered horizontal snake heading right, seeded apple."""
    head = (config.width // 2, config.height // 2)
    if head[0] - (config.init_snake_len - 1) < 0:
        raise ValueError("snake does not fit left of the centered head")
    body = tuple((head[0] - i, head[1]) for i in range(config.init_snake_len))
    rng = np.random.Generator(np.random.PCG64(seed))
    state = EnvState(
        config=config,
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
    cfg = state.config
    return [
        (x, y)
        for y in range(cfg.height)
        for x in range(cfg.width)
        if (x, y) not in occupied
    ]


def step(state: EnvState, action: Direction) -> tuple[EnvState, StepOutcome]:
    """Advance one move. Reverse inputs are ignored (the snake keeps going)."""
    if state.done:
        raise ValueError("cannot step a finished episode")
    cfg = state.config

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

    out_of_bounds = not (0 <= new_head[0] < cfg.width and 0 <= new_head[1] < cfg.height)
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

    return make(body, apple, score, steps >= cfg.max_steps, reward)


def render_rgb(state: EnvState) -> np.ndarray:
    """Rasterize to (H, W, 3) uint8: white 21x21 blocks on black."""
    cfg = state.config
    frame = np.zeros((cfg.pixel_height, cfg.pixel_width, 3), dtype=np.uint8)
    cells = list(state.body)
    if state.apple is not None:
        cells.append(state.apple)
    px = cfg.cell_px
    for x, y in cells:
        frame[y * px : (y + 1) * px, x * px : (x + 1) * px, :] = 255
    return frame
