"""Deliberately naive Snake simulator used as an independent test oracle.

Everything is recomputed from scratch each step (free cells by scanning
the whole grid, collisions by list membership), with no code shared with
the package. Apple spawning draws one uniform index into the row-major
free-cell list, matching the documented spawn rule.
"""

import numpy as np

DELTA = {"U": (0, -1), "D": (0, 1), "L": (-1, 0), "R": (1, 0)}
OPPOSITE = {"U": "D", "D": "U", "L": "R", "R": "L"}


class RefSnake:
    def __init__(self, width, height, init_len, max_steps, seed):
        self.w = width
        self.h = height
        self.max_steps = max_steps
        cx, cy = width // 2, height // 2
        self.snake = [(cx - i, cy) for i in range(init_len)]
        self.heading = "R"
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.steps = 0
        self.score = 0
        self.done = False
        self.apple = None
        self.apple = self._spawn()

    def _free(self):
        cells = []
        for y in range(self.h):
            for x in range(self.w):
                if (x, y) in self.snake:
                    continue
                if self.apple is not None and (x, y) == self.apple:
                    continue
                cells.append((x, y))
        return cells

    def _spawn(self):
        free = self._free()
        return free[int(self.rng.integers(0, len(free)))]

    def step(self, action):
        assert not self.done
        if action != OPPOSITE[self.heading]:
            self.heading = action
        dx, dy = DELTA[self.heading]
        hx, hy = self.snake[0]
        nh = (hx + dx, hy + dy)
        self.steps += 1
        if not (0 <= nh[0] < self.w and 0 <= nh[1] < self.h):
            self.done = True
            return -1.0, True
        eating = nh == self.apple
        blocking = self.snake if eating else self.snake[:-1]
        if nh in blocking:
            self.done = True
            return -1.0, True
        if eating:
            self.snake = [nh] + self.snake
            self.score += 1
            self.apple = None
            if not self._free():
                self.done = True
                return 1.0, True
            self.apple = self._spawn()
            reward = 1.0
        else:
            self.snake = [nh] + self.snake[:-1]
            reward = -0.1
        if self.steps >= self.max_steps:
            self.done = True
            return reward, True
        return reward, False
