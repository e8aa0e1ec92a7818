"""Memory-efficient DQN for Snake: binarized 84x84 frames, a FIFO replay that
stores each frame once, deflated, and a from-scratch numpy CNN trained with Adam."""

from .agent import AgentState, Hyperparams, epsilon_at, load_agent, new_agent, save_agent
from .env import Direction, EnvState, GridConfig, StepEvent, StepOutcome, reset, step
from .harness import EvalResult, TrainConfig, evaluate, memreport_text, train
from .nn import QNetwork, build_q_network
from .preprocess import BinaryFrame, FrameStack, PixelFormat, frame_bytes
from .replay import Experience, ReplayBuffer, memory_report

__all__ = [
    "AgentState",
    "BinaryFrame",
    "Direction",
    "EnvState",
    "EvalResult",
    "Experience",
    "FrameStack",
    "GridConfig",
    "Hyperparams",
    "PixelFormat",
    "QNetwork",
    "ReplayBuffer",
    "StepEvent",
    "StepOutcome",
    "TrainConfig",
    "build_q_network",
    "epsilon_at",
    "evaluate",
    "frame_bytes",
    "load_agent",
    "memory_report",
    "memreport_text",
    "new_agent",
    "reset",
    "save_agent",
    "step",
    "train",
]
