"""Training and evaluation orchestration, metrics logging, memory report.

The training loop is the standard cycle: act, step the game, preprocess
the new frame, store the transition, maybe learn, maybe sync the target
network. One CSV row is appended per finished episode. Seeding is fanned
out from a single master seed, so a fixed seed makes whole runs
bit-reproducible.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import env as game
from .agent import (
    AgentState,
    Hyperparams,
    epsilon_at,
    greedy_action,
    learn_step,
    load_agent,
    maybe_sync_target,
    new_agent,
    save_agent,
    select_action,
)
from .preprocess import FRAME_PIXELS, PACKED_BYTES, binary_observation, stack_init, stack_push
from .replay import Experience, ReplayBuffer


@dataclass
class TrainConfig:
    hp: Hyperparams = field(default_factory=Hyperparams)
    episodes: int = 140_000
    seed: int = 0
    metrics_path: str = "metrics.csv"
    checkpoint_path: str = "checkpoint.bin"
    checkpoint_every: int = 1_000
    max_frames: int | None = None  # frame cap: a config key and the benchmark's run length
    resume_from: str | None = None

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_frames is not None and self.max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {self.max_frames}")


@dataclass(frozen=True)
class EpisodeMetrics:
    episode: int
    score: int
    cumulative_reward: float
    discounted_return: float
    steps: int
    epsilon: float
    mean_loss: float
    frames_total: int

    def csv_row(self) -> str:
        """The row under CSV_HEADER; a float prints as ``repr`` does, round-trippable."""
        return ",".join(str(getattr(self, name)) for name in CSV_FIELDS)


# The metrics CSV has one column per EpisodeMetrics field, in field order.
CSV_FIELDS = [f.name for f in fields(EpisodeMetrics)]
CSV_HEADER = ",".join(CSV_FIELDS)


@dataclass(frozen=True)
class EvalResult:
    scores: list[int]
    mean: float
    best: int


def observe(state: game.EnvState):
    return binary_observation(game.render_rgb(state))


def run_episode(state: game.EnvState, agent: AgentState, buffer: ReplayBuffer,
                hp: Hyperparams, episode: int,
                max_frames: int | None = None) -> EpisodeMetrics | None:
    """Play one episode with learning; returns its metrics row.

    ``max_frames`` is the run's cap on ``agent.frame_count``; reaching it
    abandons the episode mid-flight and returns None.
    """
    stack = stack_init(observe(state))
    cumulative = 0.0
    discounted = 0.0
    gamma_t = 1.0
    losses: list[float] = []
    while not state.done:
        if max_frames is not None and agent.frame_count >= max_frames:
            return None
        action = select_action(stack, agent, hp)
        state, outcome = game.step(state, game.ACTIONS[action])
        agent.frame_count += 1
        next_stack = stack_push(stack, observe(state))
        buffer.push(Experience(stack, action, outcome.reward, next_stack,
                               outcome.terminal))
        loss = learn_step(agent, buffer, hp)
        if loss is not None:
            losses.append(loss)
        maybe_sync_target(agent, hp)
        stack = next_stack
        cumulative += outcome.reward
        discounted += gamma_t * outcome.reward
        gamma_t *= hp.gamma
    return EpisodeMetrics(
        episode=episode,
        score=state.score,
        cumulative_reward=cumulative,
        discounted_return=discounted,
        steps=state.steps,
        epsilon=epsilon_at(agent.frame_count, hp),
        mean_loss=float(np.mean(losses)) if losses else math.nan,
        frames_total=agent.frame_count,
    )


def train(config: TrainConfig) -> list[EpisodeMetrics]:
    """Run the training loop; writes the metrics CSV and checkpoints."""
    hp = config.hp
    master = np.random.SeedSequence(config.seed)
    agent_ss, env_ss = master.spawn(2)
    if config.resume_from is not None:
        agent = load_agent(config.resume_from, hp,
                           rng=np.random.Generator(np.random.PCG64(agent_ss.spawn(1)[0])))
    else:
        agent = new_agent(hp, agent_ss)
    env_seeder = np.random.Generator(np.random.PCG64(env_ss))
    buffer = ReplayBuffer(hp.replay_capacity)

    metrics: list[EpisodeMetrics] = []
    # Opening the sink up front surfaces unwritable paths before any work.
    with open(config.metrics_path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for episode in range(config.episodes):
            if config.max_frames is not None and agent.frame_count >= config.max_frames:
                break
            seed_ep = int(env_seeder.integers(0, 2**63))
            state = game.reset(seed_ep, hp.max_step)
            row = run_episode(state, agent, buffer, hp, episode, config.max_frames)
            if row is None:
                break
            metrics.append(row)
            fh.write(row.csv_row() + "\n")
            fh.flush()
            if config.checkpoint_path and (episode + 1) % config.checkpoint_every == 0:
                save_agent(config.checkpoint_path, agent, hp)
    if config.checkpoint_path:
        save_agent(config.checkpoint_path, agent, hp)
    return metrics


def evaluate(source, episodes: int = 50, epsilon: float = 0.0, seed: int = 0,
             hp: Hyperparams | None = None) -> EvalResult:
    """Play greedy (or epsilon-soft) episodes without learning.

    ``source`` may be a QNetwork, a checkpoint path, or None for a pure
    random policy (requires epsilon = 1). Each episode is capped at
    ``hp.max_step`` steps.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    hp = hp or Hyperparams()
    net = source
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        net = load_agent(source, hp).online
    if net is None and epsilon < 1.0:
        raise ValueError("a network is required unless epsilon = 1")

    master = np.random.SeedSequence(seed)
    act_ss, env_ss = master.spawn(2)
    rng = np.random.Generator(np.random.PCG64(act_ss))
    env_seeder = np.random.Generator(np.random.PCG64(env_ss))

    scores: list[int] = []
    for _ in range(episodes):
        state = game.reset(int(env_seeder.integers(0, 2**63)), hp.max_step)
        stack = stack_init(observe(state))
        while not state.done:
            action = greedy_action(stack, net, rng, epsilon)
            state, _ = game.step(state, game.ACTIONS[action])
            stack = stack_push(stack, observe(state))
        scores.append(state.score)
    return EvalResult(scores=scores, mean=float(np.mean(scores)), best=max(scores))


# memreport's one table: bytes per 84x84 frame in each format, the first two
# the references its savings columns compare against.
_FRAME_BYTES = {
    "RGB float64": FRAME_PIXELS * 3 * 8,
    "Gray float64": FRAME_PIXELS * 8,
    "Binary byte": FRAME_PIXELS,
    "Binary packed": PACKED_BYTES,
}
# The paper's replay accounting: 8 frames per experience (4 state and 4
# next-state frames), for million-experience RGB and gray replays against
# its 50,000-experience binary one.
_PAPER_EXPERIENCE_FRAMES = 8
_PAPER_REPLAYS = (("RGB float64", 1_000_000), ("Gray float64", 1_000_000),
                  ("Binary byte", 50_000))


def _trunc(value: float, decimals: int) -> str:
    scale = 10**decimals
    return f"{math.floor(value * scale) / scale:.{decimals}f}"


def _pct(saving: float) -> str:
    text = f"{saving * 100:.3f}".rstrip("0").rstrip(".")
    return f"{text}%"


def _size_table(title: str, key: str, rows: list[tuple[str, int]], unit: str, scale: int,
                widths: tuple[int, int]) -> list[str]:
    """A titled table of byte sizes, each also in ``unit`` (``scale`` bytes),
    with its savings against the first two rows. ``widths`` are the label
    and bytes columns' widths."""
    label_width, bytes_width = widths
    rgb, gray = rows[0][1], rows[1][1]
    lines = [title, f"{key:<{label_width}}{'bytes':>{bytes_width}}{unit:>10}"
                    f"{'vs RGB':>10}{'vs gray':>10}"]
    for label, nbytes in rows:
        vs_gray = _pct(1 - nbytes / gray) if nbytes <= gray else "-"
        lines.append(f"{label:<{label_width}}{nbytes:>{bytes_width}}"
                     f"{_trunc(nbytes / scale, 3):>10}{_pct(1 - nbytes / rgb):>10}{vs_gray:>10}")
    return lines


def memreport_text() -> str:
    """Both memory tables: per-frame sizes and the paper's replay accounting.

    The replay rows count the paper's 8 frames per experience, 4 state and 4
    next-state frames. That is not what the ring holds: it keeps each frame
    once, deflated, packed back to back in 64-row segments, and
    ``ReplayBuffer.nbytes`` counts those bytes and their offsets.
    """
    frames = _size_table("Per-frame storage (84x84 observation)", "format",
                         list(_FRAME_BYTES.items()), unit="kB", scale=1024, widths=(16, 10))
    replays = _size_table(
        f"Replay memory accounting ({_PAPER_EXPERIENCE_FRAMES} frames per experience)",
        "buffer",
        [(f"{fmt} x {capacity:,}", capacity * _PAPER_EXPERIENCE_FRAMES * _FRAME_BYTES[fmt])
         for fmt, capacity in _PAPER_REPLAYS],
        unit="GB", scale=1024**3, widths=(28, 16))
    return "\n".join(frames + [""] + replays) + "\n"


def _scalar_type(hint):
    """The type a config value parses to: ``X`` for an ``X | None`` field."""
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


# Every field of Hyperparams and TrainConfig but the nested ``hp`` is a key.
_CONFIG_KEYS = {
    name: (owner, _scalar_type(hint))
    for owner in (Hyperparams, TrainConfig)
    for name, hint in typing.get_type_hints(owner).items()
    if name != "hp"
}


def parse_config_file(path) -> TrainConfig:
    """Flat ``key = value`` file -> TrainConfig. Unknown keys are errors."""
    kwargs: dict = {Hyperparams: {}, TrainConfig: {}}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"unknown key {key!r}")
                owner, kind = _CONFIG_KEYS[key]
                kwargs[owner][key] = kind(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return TrainConfig(hp=Hyperparams(**kwargs[Hyperparams]), **kwargs[TrainConfig])
