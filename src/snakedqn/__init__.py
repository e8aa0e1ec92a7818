"""Memory-efficient DQN for Snake: binarized 84x84 frames, a FIFO replay that
stores each frame once, deflated, and a from-scratch numpy CNN trained with Adam."""

from .agent import AgentState, Hyperparams, epsilon_at, load_agent, new_agent, save_agent
from .env import Direction, EnvState, StepOutcome, reset, step
from .harness import EvalResult, TrainConfig, evaluate, memreport_text, train
from .nn import QNetwork, build_q_network
from .preprocess import FrameStack
from .replay import Experience, ReplayBuffer

__all__ = [
    "AgentState",
    "Direction",
    "EnvState",
    "EvalResult",
    "Experience",
    "FrameStack",
    "Hyperparams",
    "QNetwork",
    "ReplayBuffer",
    "StepOutcome",
    "TrainConfig",
    "build_q_network",
    "epsilon_at",
    "evaluate",
    "load_agent",
    "memreport_text",
    "new_agent",
    "reset",
    "save_agent",
    "step",
    "train",
]
