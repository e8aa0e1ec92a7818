"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from stats import p99_or_tail, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentileRule:
    @pytest.mark.parametrize("n, q", [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
        (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, q):
        assert tail_percentile(n) == q

    def test_p99_falls_back_to_the_rule(self):
        assert p99_or_tail(list(range(1000)))[1] == 99.0
        assert p99_or_tail(list(range(100)))[1] == 90.0
        value, used = p99_or_tail([1.0, 2.0, 3.0])
        assert used is None and value == 2.0

    def test_block_p99_is_lowest_block_tail(self):
        blocks = [np.full(workloads.P99_BLOCK, level) for level in (5.0, 1.0, 2.0)]
        assert workloads.block_p99(list(np.concatenate(blocks))) == 1.0


class TestChecks:
    @staticmethod
    def passed_ratio(checks):
        return 1.0 - checks.failed / checks.attempted

    def test_one_failed_check_fails_its_whole_unit(self):
        checks = workloads.Checks()
        for unit in range(5):  # a fill run: a few calls, ~6600 push checks each
            with checks.unit():
                for i in range(6600):
                    checks.check(not (unit == 2 and i == 123), "push")
        assert (checks.attempted, checks.failed) == (5, 1)
        bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "passed_ratio")
        assert 1.0 - self.passed_ratio(checks) > bound

    def test_exception_fails_its_unit(self):
        checks = workloads.Checks()
        with pytest.raises(ZeroDivisionError):
            with checks.unit():
                1 / 0
        with checks.unit():
            checks.check(True, "")
        assert (checks.attempted, checks.failed) == (2, 1)

    def test_check_outside_a_unit_is_an_error(self):
        with pytest.raises(RuntimeError):
            workloads.Checks().check(True, "")


class TestSelfTime:
    def test_nested_spans(self):
        log = [
            ("root", 0, 100, -1, 0),
            ("a", 10, 40, 0, 0),
            ("a.child", 15, 25, 1, 0),
            ("b", 50, 90, 0, 0),
        ]
        own = spans.self_times(log)
        assert own == [30, 20, 10, 40]
        assert sum(own) == 100

    def test_overlapping_and_overhanging_children_count_once(self):
        log = [
            ("root", 0, 100, -1, 0),
            ("x", 10, 50, 0, 0),
            ("y", 40, 70, 0, 0),
            ("z", 90, 130, 0, 0),  # only 90..100 lies inside the parent
        ]
        assert spans.self_times(log)[0] == 100 - 60 - 10

    def test_tracer_records_parents_and_accounts_for_root(self):
        ticks = iter(range(0, 1000, 7))
        tracer = spans.Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap(spans.Hook("inner", "m:inner"), lambda: None)
        outer = tracer.wrap(spans.Hook("outer", "m:outer"), lambda: (inner(), inner()))
        tracer.active = True
        with tracer.root("bench.call"):
            outer()
        log = tracer.spans()
        assert [(s[0], s[3]) for s in log] == [
            ("bench.call", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
        assert sum(spans.self_times(log)) == log[0][2] - log[0][1]
        assert spans.roots(log) == [0, 0, 0, 0]


    def test_layer_self_time_leaves_out_the_loops(self):
        log = [
            ("bench.call", 0, 100, -1, 0),
            ("harness.train", 2, 98, 0, 0),
            ("env.step", 10, 40, 1, 0),
            ("nn.forward_eval", 50, 80, 1, 0),
        ]
        timing = {"wall_s": 100e-9, "frames_per_s_traced": 1.0, "frames_per_s_untraced": 1.0}
        metrics = spans.per_layer_metrics(log, {}, spans.self_times(log), timing)
        assert metrics["trace.layers_self_s"] == pytest.approx(60e-9)
        assert metrics["trace.unattributed_share"] == pytest.approx(0.4)


class TestHooks:
    def test_hooks_exist_and_restore(self, tmp_path):
        sys.path.insert(0, str(ROOT / "src"))
        snakedqn = pytest.importorskip("snakedqn")
        original_step = snakedqn.env.step
        tracer = spans.Tracer()
        tracer.install(spans.HOOKS)
        try:
            assert tracer.absent == []
            tracer.active = True
            with tracer.root("bench.call"):
                snakedqn.train(snakedqn.TrainConfig(
                    hp=snakedqn.Hyperparams(random_frames=20, replay_capacity=64),
                    episodes=10**9, seed=0, metrics_path=str(tmp_path / "m.csv"),
                    checkpoint_path="", max_frames=40))
            tracer.active = False
        finally:
            tracer.uninstall()
        assert snakedqn.env.step is original_step
        log = tracer.spans()
        names = {s[0] for s in log}
        assert {"harness.train", "env.reset", "env.step", "env.render_rgb",
                "preprocess.binary_observation", "agent.select_action"} <= names
        own = spans.self_times(log)
        assert sum(own) == log[0][2] - log[0][1]

    def test_absent_target_is_reported_not_raised(self):
        tracer = spans.Tracer()
        tracer.install([spans.Hook("gone", "snakedqn.env:no_such_function"),
                        spans.Hook("gone2", "no_such_module:f")])
        assert len(tracer.absent) == 2


class TestMetricNames:
    def test_code_and_benchmark_json_agree(self):
        assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == workloads.END_TO_END
        assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    def test_per_layer_metrics_cover_every_name(self):
        timing = {"wall_s": 1.0, "frames_per_s_traced": 1.0, "frames_per_s_untraced": 1.0}
        metrics = spans.per_layer_metrics([], {}, [], timing)
        assert sorted(metrics) == sorted(name for name, _ in spans.PER_LAYER)

    @pytest.mark.parametrize("trace", ["0", "1"])
    def test_printed_names_are_in_benchmark_json(self, trace):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fill", "--seed", "7",
             "--seconds", "1", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert "environment" in json.loads(lines[-2])
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}

    def test_fails_without_the_package(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fill", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


class TestSeeds:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_seed_changes_only_generated_inputs(self, workload):
        a, b = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
        assert (a.workload, a.hp, a.call) == (b.workload, b.hp, b.call)
        assert all(a.call_seed(i) != b.call_seed(i) for i in range(50))
        assert a.probe_seeds() != b.probe_seeds()
        assert not np.array_equal(a.probe_batch(), b.probe_batch())

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload):
        a, b = workloads.make_inputs(workload, 5), workloads.make_inputs(workload, 5)
        assert a == b
        assert [a.call_seed(i) for i in range(50)] == [b.call_seed(i) for i in range(50)]
        assert len({a.call_seed(i) for i in range(50)}) == 50
        assert np.array_equal(a.probe_batch(), b.probe_batch())
