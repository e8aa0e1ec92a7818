"""In-memory span tracing around the package's public functions and methods.

The benchmark patches the functions it wants to observe, from its own files,
so the package under test carries no tracing code. A hook whose target no
longer exists is reported as absent and leaves its metrics at zero; the run
and its end-to-end numbers go on. Spans are written out when the run ends.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from stats import p99_or_tail, percentile

PACKAGE = "snakedqn"


def patch(target: str, make_wrapper: Callable, callers: tuple[str, ...] | None = None):
    """Replace the callable at ``target`` ("module:Attr.path") with ``make_wrapper(original)``.

    A method is replaced on its class. A function is replaced in every loaded
    module of the package that holds a reference to it, or only in
    ``callers`` when given, so a hook can observe one caller's calls alone.
    Returns an undo callable, or None when the target does not exist.
    """
    module_name, attr_path = target.split(":")
    owner = sys.modules.get(module_name)
    *owner_path, attr = attr_path.split(".")
    for name in owner_path:
        owner = getattr(owner, name, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
        if not callable(original):
            return None
        setattr(owner, attr, make_wrapper(original))
        return lambda: setattr(owner, attr, original)

    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    if callers is not None:
        scope = [sys.modules[name] for name in callers if name in sys.modules]
    else:
        scope = [mod for name, mod in list(sys.modules.items())
                 if name == PACKAGE or name.startswith(PACKAGE + ".")]
    replaced = []
    for mod in scope:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                replaced.append((mod, key))
    if not replaced:
        return None

    def undo():
        for mod, key in replaced:
            setattr(mod, key, original)

    return undo


@dataclass(frozen=True)
class Hook:
    """A span around one callable. ``resolve`` renames the span from its result;
    ``count`` returns counters to add; ``enter`` runs before the span opens."""

    name: str
    target: str
    callers: tuple[str, ...] | None = None
    resolve: Callable | None = None
    count: Callable | None = None
    enter: Callable | None = None


class Tracer:
    """Records spans (name, start_ns, end_ns, parent index, episode) while active.

    Spans are kept in flat per-field lists: a list per span would be tracked by
    the cyclic garbage collector and slow the traced run as the log grows.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.episodes: list[int] = []
        self.counts: Counter = Counter()
        self.episode = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[Callable] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.episodes.append(self.episode)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def spans(self) -> list[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.episodes))

    @contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself around one of its calls."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def next_episode(self, *_args, **_kwargs) -> None:
        self.episode += 1

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook.enter is not None:
                hook.enter(self)
            index = self._open(hook.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook.resolve is not None:
                self.names[index] = hook.resolve(args, kwargs, result)
            if hook.count is not None:
                self.counts.update(hook.count(args, kwargs, result))
            return result

        return traced

    def install(self, hooks) -> None:
        for hook in hooks:
            undo = patch(hook.target, lambda fn, hook=hook: self.wrap(hook, fn), hook.callers)
            if undo is None:
                self.absent.append(f"{hook.name} ({hook.target})")
            else:
                self._undo.append(undo)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for _name, start, end, parent, _episode in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _episode) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def roots(spans) -> list[int]:
    """Index of each span's outermost ancestor (parents precede their children)."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span[3] < 0 else out[span[3]])
    return out


def write_spans(path, spans, self_ns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "start_ns", "end_ns", "parent", "episode", "self_ns"])
        for span, own in zip(spans, self_ns):
            writer.writerow([*span, own])


# ---------------------------------------------------------------------------
# Hooks and per-layer metrics

def _forward_name(args, kwargs, _result) -> str:
    train = args[2] if len(args) > 2 else kwargs.get("train", False)
    return "nn.forward_train" if train else "nn.forward_eval"


def _forward_rows(args, kwargs, _result) -> dict:
    if _forward_name(args, kwargs, None) != "nn.forward_eval":
        return {}
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"nn.forward_eval.rows": int(x.shape[0])}


def _learn_name(_args, _kwargs, result) -> str:
    return "agent.learn_step.idle" if result is None else "agent.learn_step"


def _written_bytes(args, kwargs, _result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"checkpoint.write_records.bytes": os.path.getsize(path)}


LAYER_KINDS = {"conv": "Conv2D", "maxpool": "MaxPool2D", "batchnorm": "BatchNorm", "dense": "Dense"}

HOOKS = [
    Hook("harness.train", "snakedqn.harness:train"),
    Hook("env.reset", "snakedqn.env:reset", enter=Tracer.next_episode),
    Hook("env.step", "snakedqn.env:step"),
    Hook("env.render_rgb", "snakedqn.env:render_rgb"),
    Hook("preprocess.binary_observation", "snakedqn.preprocess:binary_observation"),
    Hook("preprocess.stack_push", "snakedqn.preprocess:stack_push"),
    Hook("preprocess.to_input", "snakedqn.preprocess:FrameStack.to_input"),
    # Action selection as the training loop calls it.
    Hook("agent.select_action", "snakedqn.harness:select_action", callers=("snakedqn.harness",)),
    Hook("agent.learn_step", "snakedqn.agent:learn_step", resolve=_learn_name),
    Hook("agent.compute_targets", "snakedqn.agent:compute_targets"),
    Hook("agent.td_loss_and_gradient", "snakedqn.agent:td_loss_and_gradient"),
    Hook("optim.clip_global_norm", "snakedqn.optim:clip_global_norm"),
    Hook("optim.adam_step", "snakedqn.optim:adam_step"),
    Hook("replay.push", "snakedqn.replay:ReplayBuffer.push"),
    Hook("replay.sample", "snakedqn.replay:ReplayBuffer.sample"),
    Hook("replay.len", "snakedqn.replay:ReplayBuffer.__len__"),
    Hook("nn.forward", "snakedqn.nn:QNetwork.forward", resolve=_forward_name, count=_forward_rows),
    Hook("nn.backward", "snakedqn.nn:QNetwork.backward"),
    Hook("nn.copy_weights", "snakedqn.nn:copy_weights"),
    *[Hook(f"nn.{kind}.{stage}", f"snakedqn.nn:{cls}.{method}")
      for kind, cls in LAYER_KINDS.items()
      for stage, method in (("fwd", "forward"), ("bwd", "backward"))],
    Hook("checkpoint.write_records", "snakedqn.checkpoint:write_records", count=_written_bytes),
]

TIMED_SPANS = (
    "env.step", "env.render_rgb",
    "preprocess.binary_observation", "preprocess.stack_push",
    "nn.forward_eval", "nn.forward_train", "nn.backward",
    "agent.select_action", "agent.compute_targets", "agent.td_loss_and_gradient",
    "optim.clip_global_norm", "optim.adam_step",
    "replay.push", "replay.sample",
)

PER_LAYER: list[tuple[str, str]] = [
    *[(f"{span}.{stat}", unit) for span in TIMED_SPANS
      for stat, unit in (("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("us_p99", "us"))],
    ("env.reset.calls", "count"),
    ("nn.forward_eval.rows", "count"),
    ("nn.forward_eval.select.calls", "count"),
    ("nn.forward_eval.select.us_p50", "us"),
    ("nn.forward_eval.select.us_p99", "us"),
    ("agent.greedy_ratio", "1"),
    *[(f"nn.{kind}.{stage}_s", "s") for kind in LAYER_KINDS for stage in ("fwd", "bwd")],
    ("agent.learn_step.calls", "count"),
    ("agent.learn_step.updates", "count"),
    ("agent.learn_step.update_ratio", "1"),
    ("agent.learn_step.us_p50", "us"),
    ("agent.learn_step.us_p99", "us"),
    ("preprocess.to_input.calls", "count"),
    ("preprocess.to_input.self_s", "s"),
    ("replay.len.calls", "count"),
    ("replay.len.self_s", "s"),
    ("checkpoint.write_records.calls", "count"),
    ("checkpoint.write_records.self_s", "s"),
    ("checkpoint.write_records.bytes", "B"),
    ("nn.copy_weights.calls", "count"),
    ("harness.train.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.layers_self_s", "s"),
    ("trace.unattributed_share", "1"),
    ("trace.overhead", "1"),
    ("trace.frames_per_s_traced", "frames/s"),
    ("trace.frames_per_s_untraced", "frames/s"),
]


OUTER_SPANS = ("bench.call", "harness.train")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(log, counts, self_ns, timing: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the recorded spans.

    ``timing`` holds the benchmark's own clock readings: ``wall_s`` (traced
    calls), ``frames_per_s_traced`` and ``frames_per_s_untraced``.
    ``us_p99`` is the 99th percentile when at least ten calls lie beyond it,
    otherwise the highest percentile that has ten beyond (see stats.py).
    ``trace.layers_self_s`` sums the self times of the hooked spans under the
    timed calls, leaving out OUTER_SPANS: the benchmark's own ``bench.call``
    root and the training loop. ``trace.unattributed_share`` is the share of
    ``wall_s`` it leaves over: loop code no layer below the harness covers.
    ``nn.forward_eval.select`` covers the eval forwards made inside action
    selection, which are batch-1.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    own: dict[str, int] = defaultdict(int)
    for span, self_span in zip(log, self_ns):
        durations[span[0]].append((span[2] - span[1]) / 1e3)
        own[span[0]] += self_span

    def span_stats(name: str) -> dict[str, float]:
        us = durations.get(name, [])
        return {
            f"{name}.calls": len(us),
            f"{name}.self_s": own.get(name, 0) / 1e9,
            f"{name}.us_p50": percentile(us, 50),
            f"{name}.us_p99": p99_or_tail(us)[0],
        }

    out: dict[str, float] = {}
    for name in TIMED_SPANS:
        out.update(span_stats(name))
    out["env.reset.calls"] = len(durations.get("env.reset", []))
    out["nn.forward_eval.rows"] = counts.get("nn.forward_eval.rows", 0)
    selects = {i for i, span in enumerate(log) if span[0] == "agent.select_action"}
    select_us = [(span[2] - span[1]) / 1e3 for span in log
                 if span[0] == "nn.forward_eval" and span[3] in selects]
    out["agent.greedy_ratio"] = _ratio(len(select_us), len(selects))
    out["nn.forward_eval.select.calls"] = len(select_us)
    out["nn.forward_eval.select.us_p50"] = percentile(select_us, 50)
    out["nn.forward_eval.select.us_p99"] = p99_or_tail(select_us)[0]
    for kind in LAYER_KINDS:
        for stage in ("fwd", "bwd"):
            out[f"nn.{kind}.{stage}_s"] = own.get(f"nn.{kind}.{stage}", 0) / 1e9
    updates = span_stats("agent.learn_step")
    calls = updates["agent.learn_step.calls"] + len(durations.get("agent.learn_step.idle", []))
    out["agent.learn_step.calls"] = calls
    out["agent.learn_step.updates"] = updates["agent.learn_step.calls"]
    out["agent.learn_step.update_ratio"] = _ratio(updates["agent.learn_step.calls"], calls)
    out["agent.learn_step.us_p50"] = updates["agent.learn_step.us_p50"]
    out["agent.learn_step.us_p99"] = updates["agent.learn_step.us_p99"]
    for name in ("preprocess.to_input", "replay.len", "checkpoint.write_records"):
        full = span_stats(name)
        out[f"{name}.calls"] = full[f"{name}.calls"]
        out[f"{name}.self_s"] = full[f"{name}.self_s"]
    out["checkpoint.write_records.bytes"] = counts.get("checkpoint.write_records.bytes", 0)
    out["nn.copy_weights.calls"] = len(durations.get("nn.copy_weights", []))
    out["harness.train.self_s"] = own.get("harness.train", 0) / 1e9

    root_of = roots(log)
    timed = {i for i, span in enumerate(log) if span[3] < 0 and span[0] == "bench.call"}
    layers_ns = sum(own_ns for span, own_ns, r in zip(log, self_ns, root_of)
                    if r in timed and span[0] not in OUTER_SPANS)
    out["trace.wall_s"] = timing["wall_s"]
    out["trace.layers_self_s"] = layers_ns / 1e9
    out["trace.unattributed_share"] = 1.0 - _ratio(out["trace.layers_self_s"], timing["wall_s"])
    out["trace.overhead"] = _ratio(timing["frames_per_s_untraced"],
                                   timing["frames_per_s_traced"]) - 1.0
    out["trace.frames_per_s_traced"] = timing["frames_per_s_traced"]
    out["trace.frames_per_s_untraced"] = timing["frames_per_s_untraced"]
    return out
