"""Workload inputs, timed loops and output checks.

Every workload is one process, one caller, closed loop: the next call starts
when the previous one returns. The package is driven only through its public
entry points (``train``, ``new_agent``, ``save_agent``, ``load_agent``);
the workload seed reaches it only as generated configs and env seeds.

- fill: replay warm-up. ``train`` at epsilon = 1 throughout, so no update
  ever runs; the replay capacity sits below the frames played, so the FIFO
  overwrite path runs. Exercises env, preprocess and replay; nn does no work.
- learn: ``train`` through a short random warm-up into the learning phase
  with the default update schedule and batch; target syncs and checkpoint
  saves fall inside every call. Exercises nn training and optim.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from stats import p99_or_tail, percentile

WORKLOADS = ("fill", "learn")

# Call shapes. None of these depend on the workload seed.
FILL_FRAMES = 3300          # frames per fill call ...
FILL_CAPACITY = 3000        # ... into a smaller replay, so the last 300 overwrite
WARM_FRAMES = 64            # the replay probe's warm-up call
WARM_CAPACITY = 32
NEVER = 10**9               # random_frames / episodes beyond any call
LEARN_WARMUP = 128          # random frames before the first update
LEARN_FRAMES = 320          # frames per learn call: 48 updates at update_every=4
LEARN_TARGET_SYNC = 64
LEARN_CHECKPOINT_EVERY = 4  # episodes
PROBE_ROWS = 16

MIN_FRAME_SAMPLES = 1000    # frame latencies needed for a p99 with ten samples beyond it
P99_BLOCK = 1000            # frame_ms.p99 is the lowest per-block p99 over blocks this long
SETUP_BURST = 3             # set-up samples taken together ...
SETUP_EVERY = 2.0           # ... before the timed calls and then at most this often (s)
TRACE_UNTRACED_SHARE = 1 / 3
MAX_LOOP_SECONDS = 120.0    # stop starting calls here even if samples are short
Q_TOLERANCE = 1e-3          # learn: float32 vs float64 Q-values, relative to the largest |Q|
REWARDS = (1.0, -1.0, -0.1)

END_TO_END = [
    ("frames_per_s", "frames/s"),
    ("frame_ms.p50", "ms"),
    ("frame_ms.p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("replay_bytes_per_exp", "B"),
    ("passed_ratio", "1"),
]


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the package. Only the seed-derived parts vary with ``seed``."""

    workload: str
    seed: int
    hp: dict       # Hyperparams overrides
    call: dict     # call shape

    def call_seed(self, i: int) -> int:
        return derive_seed(self.seed, 1, i)

    def probe_seeds(self) -> tuple[int, int]:
        return derive_seed(self.seed, 0, 0), derive_seed(self.seed, 0, 1)

    def probe_batch(self) -> np.ndarray:
        """Sparse random binary stacks for the learn workload's float64 Q check."""
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        return (rng.random((PROBE_ROWS, 84, 84, 4)) < 0.05).astype(np.float64)


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "fill":
        hp = {"random_frames": NEVER, "replay_capacity": FILL_CAPACITY}
        call = {"max_frames": FILL_FRAMES}
    elif workload == "learn":
        hp = {"random_frames": LEARN_WARMUP,
              "eps_greedy_frames": LEARN_FRAMES - LEARN_WARMUP,
              "target_sync_every": LEARN_TARGET_SYNC}
        call = {"max_frames": LEARN_FRAMES, "checkpoint_every": LEARN_CHECKPOINT_EVERY}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, hp, call)


class Checks:
    """Outcome units counted towards passed_ratio.

    A unit is one timed call together with the checks on its outputs, or one
    group of checks made after the timed calls. It fails when any check in it
    fails or its call raises. A run has few enough units that one failed unit
    moves passed_ratio by more than its bound, however many single checks
    (one per replay push on fill) the unit holds.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._unit_failed: bool | None = None

    @contextmanager
    def unit(self):
        self._unit_failed = False
        try:
            yield
        except BaseException:
            self._unit_failed = True
            raise
        finally:
            self.attempted += 1
            self.failed += self._unit_failed
            self._unit_failed = None

    def check(self, ok: bool, what: str) -> None:
        if self._unit_failed is None:
            raise RuntimeError("check outside a unit")
        if not ok:
            self._unit_failed = True
            if len(self.notes) < 20:
                self.notes.append(what)


class StepClock:
    """Entry time of every env.step call; None marks an episode start."""

    def __init__(self):
        self.marks: list[int | None] = []

    def install(self) -> bool:
        marks = self.marks
        clock = time.perf_counter_ns

        def wrap_step(fn):
            def step(*args, **kwargs):
                marks.append(clock())
                return fn(*args, **kwargs)
            return step

        def wrap_reset(fn):
            def reset(*args, **kwargs):
                marks.append(None)
                return fn(*args, **kwargs)
            return reset

        return (spans.patch("snakedqn.env:step", wrap_step) is not None
                and spans.patch("snakedqn.env:reset", wrap_reset) is not None)

    def frames_since(self, start: int) -> int:
        return sum(1 for m in self.marks[start:] if m is not None)

    def intervals_ms(self, start: int, end: int) -> list[float]:
        out = []
        prev = None
        for mark in self.marks[start:end]:
            if mark is not None and prev is not None:
                out.append((mark - prev) / 1e6)
            prev = mark
        return out


class ReplayCheck:
    """Checks every experience as it is pushed, and counts apples per episode."""

    def __init__(self, checks: Checks):
        self.checks = checks
        self.apples = 0
        self.episode_apples: list[int] = []
        self.installed = False

    def install(self) -> bool:
        def wrap(push):
            def checked_push(buffer, exp, *args, **kwargs):
                self.observe(exp)
                return push(buffer, exp, *args, **kwargs)
            return checked_push

        self.installed = spans.patch("snakedqn.replay:ReplayBuffer.push", wrap) is not None
        return self.installed

    def begin(self) -> None:
        self.apples = 0
        self.episode_apples = []

    def observe(self, exp) -> None:
        self.checks.check(tuple(exp.next_state.frames[:3]) == tuple(exp.state.frames[1:]),
                          "next_state.frames[:3] != state.frames[1:]")
        reward = float(exp.reward)
        self.checks.check(min(abs(reward - r) for r in REWARDS) < 1e-6,
                          f"reward {reward} outside {REWARDS}")
        if abs(reward - 1.0) < 1e-6:
            self.apples += 1
        if exp.terminal:
            self.episode_apples.append(self.apples)
            self.apples = 0


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def block_p99(values: list[float]) -> float:
    """Lowest 99th percentile over consecutive P99_BLOCK-sample blocks.

    Each block keeps ten samples beyond its p99. On a shared host, load from
    elsewhere sets the tail of most blocks; a stall the program makes itself
    recurs in every block, so the quietest block still shows it.
    """
    blocks = [values[i:i + P99_BLOCK] for i in range(0, len(values) - P99_BLOCK + 1, P99_BLOCK)]
    if not blocks:
        return p99_or_tail(values)[0]
    return min(percentile(block, 99) for block in blocks)


def maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def float64_copy(sd, net):
    """The same weights in a float64 network of the same architecture."""
    twin = sd.build_q_network(net.n_outputs, dtype=np.float64)
    source = net.state_arrays()
    for name, arr in twin.state_arrays().items():
        np.copyto(arr, source[name])
    return twin


class Run:
    """One workload in one process: inputs, replay probe, set-up, timed calls, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, root: Path):
        self.inputs = make_inputs(workload, seed)
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.out_dir = root / ".perfbench_out"
        self.work = self.out_dir / f"work-{os.getpid()}"
        self.checks = Checks()
        self.clock = StepClock()
        self.tracer = spans.Tracer()
        self.sd = None
        self.replay_check = ReplayCheck(self.checks)
        self.last_checkpoint: str | None = None
        self.setup_times: list[float] = []
        self.last_setup = 0.0
        self.notes: list[str] = []

    # -- set-up ------------------------------------------------------------

    def hp(self):
        return self.sd.Hyperparams(**self.inputs.hp)

    def replay_probe(self) -> float:
        """RSS growth per stored experience over a fill call whose replay wraps.

        A short call with the same code path runs first, so the probe's peak
        RSS differs from the baseline only by what its larger replay holds.
        """
        sd = self.sd
        warm_seed, probe_seed = self.inputs.probe_seeds()
        for capacity, frames, seed in ((WARM_CAPACITY, WARM_FRAMES, warm_seed),
                                       (FILL_CAPACITY, FILL_FRAMES, probe_seed)):
            before = maxrss_kib()
            sd.train(sd.TrainConfig(
                hp=sd.Hyperparams(random_frames=NEVER, replay_capacity=capacity),
                episodes=NEVER, seed=seed, metrics_path=str(self.work / "probe.csv"),
                checkpoint_path="", max_frames=frames))
        return (maxrss_kib() - before) * 1024 / (FILL_CAPACITY - WARM_CAPACITY)

    def build(self, sd):
        """What the first timed call needs; this is what setup_s times."""
        hp = sd.Hyperparams(**self.inputs.hp)
        return sd.new_agent(hp, self.inputs.call_seed(0)), sd.ReplayBuffer(hp.replay_capacity)

    def sample_setup(self) -> None:
        """Time SETUP_BURST fresh imports of the package plus ``build``.

        The fresh modules are dropped afterwards and the run's own (hooked)
        modules put back. Set-up is fixed work that load elsewhere on the
        machine can only slow, so setup_s is the fastest sample. Samples are
        spread over the whole run, because on a shared host Python-heavy work
        like this slows by up to 1.5x for seconds at a time.
        """
        own = {n: m for n, m in sys.modules.items()
               if n == spans.PACKAGE or n.startswith(spans.PACKAGE + ".")}
        for _ in range(SETUP_BURST):
            for name in own:
                sys.modules.pop(name, None)
            t0 = time.perf_counter()
            self.build(importlib.import_module(spans.PACKAGE))
            self.setup_times.append(time.perf_counter() - t0)
        sys.modules.update(own)
        self.last_setup = time.perf_counter()

    # -- timed calls -------------------------------------------------------

    def timed(self, fn):
        """Run one call; returns (result, seconds) or (None, None) if it raised.

        Call it inside a unit of ``self.checks``: a call that raises fails it.
        """
        t0 = time.perf_counter()
        try:
            if self.tracer.active:
                with self.tracer.root("bench.call"):
                    result = fn()
            else:
                result = fn()
        except Exception:  # one failed call is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            self.checks.check(False, "timed call raised")
            return None, None
        return result, time.perf_counter() - t0

    def train_config(self, seed: int, tag: str):
        sd = self.sd
        call = self.inputs.call
        checkpoint = ""
        if self.workload == "learn":
            checkpoint = str(self.work / f"{tag}.bin")
        return sd.TrainConfig(
            hp=self.hp(), episodes=NEVER, seed=seed,
            metrics_path=str(self.work / f"{tag}.csv"), checkpoint_path=checkpoint,
            checkpoint_every=call.get("checkpoint_every", 1), max_frames=call["max_frames"])

    def fill_unit(self, i: int) -> list[tuple[int, float]]:
        """One fill call; its unit also holds every push check and the CSV checks."""
        config = self.train_config(self.inputs.call_seed(i), "fill")
        with self.checks.unit():
            self.replay_check.begin()
            mark = len(self.clock.marks)
            _, seconds = self.timed(lambda: self.sd.train(config))
            if seconds is None:
                return []
            frames = self.clock.frames_since(mark)
            self.checks.check(frames == config.max_frames, f"fill played {frames} frames")
            if self.replay_check.installed:
                rows = read_csv(config.metrics_path)
                stored = self.replay_check.episode_apples
                self.checks.check(len(rows) == len(stored),
                                  f"{len(rows)} CSV rows for {len(stored)} stored episodes")
                for row, apples in zip(rows, stored):
                    self.checks.check(int(row["score"]) == apples,
                                      f"episode {row['episode']}: score {row['score']} "
                                      f"vs {apples} apples stored")
        return [(frames, seconds)]

    def learn_unit(self, i: int) -> list[tuple[int, float]]:
        """Two calls with the same seed, so their loss columns can be compared.

        Each call is a unit with its frame and loss checks; the comparison of
        the pair is a third.
        """
        seed = self.inputs.call_seed(i)
        out = []
        configs = [self.train_config(seed, f"learn{k}") for k in (0, 1)]
        for config in configs:
            with self.checks.unit():
                mark = len(self.clock.marks)
                _, seconds = self.timed(lambda: self.sd.train(config))
                if seconds is None:
                    return out
                frames = self.clock.frames_since(mark)
                self.checks.check(frames == config.max_frames, f"learn played {frames} frames")
                self.check_losses(read_csv(config.metrics_path))
            out.append((frames, seconds))
        with self.checks.unit():
            a, b = (read_csv(c.metrics_path) for c in configs)
            self.checks.check([r["mean_loss"] for r in a] == [r["mean_loss"] for r in b],
                              "same seed gave different loss columns")
            self.checks.check(Path(configs[0].checkpoint_path).read_bytes()
                              == Path(configs[1].checkpoint_path).read_bytes(),
                              "same seed gave different checkpoints")
        self.last_checkpoint = configs[1].checkpoint_path
        return out

    def check_losses(self, rows: list[dict]) -> None:
        """An episode's mean loss is finite iff an update fell inside it, else NaN."""
        hp = self.hp()
        first = max(hp.random_frames, hp.batch_size)
        prev = 0
        for row in rows:
            total = int(row["frames_total"])
            updated = any(f >= first and f % hp.update_every == 0 for f in range(prev + 1, total + 1))
            loss = float(row["mean_loss"])
            self.checks.check(math.isfinite(loss) if updated else math.isnan(loss),
                              f"episode {row['episode']}: mean_loss {loss} (update expected: {updated})")
            prev = total

    def loop(self, budget: float, min_samples: int, start: int) -> tuple[list, int]:
        """Run units until about ``budget`` seconds and ``min_samples`` frame latencies.

        The loop stops at the unit boundary nearest the budget, so a run takes
        about ``budget`` seconds whatever a unit's length.
        """
        unit = getattr(self, f"{self.workload}_unit")
        calls: list[tuple[int, float]] = []
        mark = len(self.clock.marks)
        t0 = time.perf_counter()
        i = start
        while True:
            u0 = time.perf_counter()
            calls += unit(i)
            i += 1
            now = time.perf_counter()
            elapsed, last = now - t0, now - u0
            if not self.trace and now - self.last_setup >= SETUP_EVERY:
                self.sample_setup()
            if elapsed >= MAX_LOOP_SECONDS or not calls and elapsed >= budget:
                break
            if (elapsed + last / 2 >= budget
                    and len(self.clock.intervals_ms(mark, None)) >= min_samples):
                break
        return calls, i

    # -- checks after the timed calls --------------------------------------

    def check_checkpoint(self, path: str) -> None:
        """The final checkpoint round-trips and its net agrees with a float64 copy.

        Three units: the records, the re-saved bytes and the float64 Q-values.
        """
        sd = self.sd
        hp = self.hp()
        with self.checks.unit():
            records = importlib.import_module("snakedqn.checkpoint").read_records(path)
            agent = sd.load_agent(path, hp)
            self.checks.check(agent.frame_count == LEARN_FRAMES,
                              f"checkpoint frame_count {agent.frame_count}")
            groups = (("online/", agent.online.state_arrays()),
                      ("target/", agent.target.state_arrays()),
                      ("adam/m/", agent.adam.m), ("adam/v/", agent.adam.v))
            for prefix, arrays in groups:
                for name, arr in arrays.items():
                    stored = records.get(prefix + name)
                    self.checks.check(stored is not None and stored.dtype == arr.dtype
                                      and np.array_equal(stored, arr),
                                      f"checkpoint record {prefix}{name} does not round-trip")
        with self.checks.unit():
            again = self.work / "resaved.bin"
            sd.save_agent(str(again), agent, hp)
            self.checks.check(again.read_bytes() == Path(path).read_bytes(),
                              "load_agent + save_agent changed the checkpoint bytes")
        with self.checks.unit():
            probe = self.inputs.probe_batch()
            q32 = agent.online.forward(probe.astype(agent.online.dtype),
                                       train=False).astype(np.float64)
            q64 = float64_copy(sd, agent.online).forward(probe, train=False)
            scale = max(1.0, float(np.abs(q64).max()))
            for row32, row64 in zip(q32, q64):
                self.checks.check(bool(np.all(np.isfinite(row32)))
                                  and float(np.abs(row32 - row64).max()) <= Q_TOLERANCE * scale,
                                  f"float32 Q {row32} vs float64 {row64}")

    # -- the whole run -----------------------------------------------------

    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self) -> dict:
        self.sd = importlib.import_module(spans.PACKAGE)
        replay_bytes = self.replay_probe()

        if not self.clock.install():
            raise RuntimeError("snakedqn.env.step/reset not found: frames cannot be counted")
        if self.workload == "fill" and not self.replay_check.install():
            self.notes.append("replay push check absent: ReplayBuffer.push not found")

        if self.trace:
            calls, next_unit = self.loop(self.seconds * TRACE_UNTRACED_SHARE, 0, 0)
            untraced = calls
            self.tracer.install(spans.HOOKS)
            self.tracer.active = True
            with self.tracer.root("bench.setup"):
                self.build(self.sd)
            calls, _ = self.loop(self.seconds * (1 - TRACE_UNTRACED_SHARE), 0, next_unit)
            self.tracer.active = False
        else:
            self.sample_setup()
            mark = len(self.clock.marks)
            calls, _ = self.loop(self.seconds, MIN_FRAME_SAMPLES, 0)
            frame_ms = self.clock.intervals_ms(mark, None)
        if not calls:
            raise RuntimeError("no timed call completed")

        if self.last_checkpoint is not None:
            self.check_checkpoint(self.last_checkpoint)

        def rate(pairs):
            return float(np.median([frames / seconds for frames, seconds in pairs]))

        if self.trace:
            recorded = self.tracer.spans()
            self_ns = spans.self_times(recorded)
            metrics = spans.per_layer_metrics(
                recorded, self.tracer.counts, self_ns,
                {"wall_s": sum(s for _, s in calls),
                 "frames_per_s_traced": rate(calls),
                 "frames_per_s_untraced": rate(untraced) if untraced else 0.0})
            units = dict(spans.PER_LAYER)
            self.out_dir.mkdir(exist_ok=True)
            spans.write_spans(self.out_dir / f"trace-{self.workload}-seed{self.inputs.seed}.csv",
                              recorded, self_ns)
            self.notes += [f"hook absent: {name}" for name in self.tracer.absent]
        else:
            if len(frame_ms) < P99_BLOCK:
                self.notes.append(f"frame_ms.p99 is p{p99_or_tail(frame_ms)[1]}: "
                                  f"only {len(frame_ms)} frame latencies")
            metrics = {
                "frames_per_s": rate(calls),
                "frame_ms.p50": percentile(frame_ms, 50),
                "frame_ms.p99": block_p99(frame_ms),
                "setup_s": min(self.setup_times),
                "peak_rss_mb": maxrss_kib() / 1024,
                "replay_bytes_per_exp": replay_bytes,
                "passed_ratio": 1.0 - self.checks.failed / self.checks.attempted,
            }
            units = dict(END_TO_END)
        return {
            "correct": self.checks.failed == 0,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


def environment(blas_threads: int) -> dict:
    """Where the numbers were measured."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }
