"""Checkpoint container format and agent save/load round-trips."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from snakedqn import agent as agent_module
from snakedqn import checkpoint, harness
from snakedqn.agent import HEAD_RECORDS, Hyperparams, load_agent, new_agent, save_agent
from snakedqn.checkpoint import (
    MAGIC,
    CheckpointError,
    read_records,
    write_records,
)

from checkpoint_oracle import encode_record, reference_bytes


class FailingWrites:
    """``open`` stand-in whose files raise on the second write, as a full disk would."""

    def __init__(self):
        self.paths = []

    def __call__(self, path, mode="r"):
        self.paths.append(path)
        fh = open(path, mode)
        real_write, calls = fh.write, []

        def write(data):
            calls.append(data)
            if len(calls) == 2:
                real_write(data[: len(data) // 2])
                raise OSError("No space left on device")
            return real_write(data)

        fh.write = write
        return fh


class TestRecordContainer:
    def test_roundtrip_dtypes(self, tmp_path):
        path = tmp_path / "c.bin"
        records = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "f64": np.array([[1.5]], dtype=np.float64),
            "scalar": np.int64(42),
            "bytes": np.array([0, 255, 7], dtype=np.uint8),
        }
        write_records(path, records)
        out = read_records(path)
        assert set(out) == set(records)
        for name in records:
            want = np.asarray(records[name])
            assert out[name].dtype == want.dtype
            assert np.array_equal(out[name], want)

    def test_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        write_records(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        assert blob[:8] == MAGIC
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            read_records(path)

    def test_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "c.bin"
        write_records(path, {"x": np.arange(100, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_records(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_records(path, {"x": np.arange(100, dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_records(path)

    def test_bytes_match_reference_layout(self, tmp_path):
        agent = new_agent(Hyperparams(), seed=3)
        records = {f"online/{k}": v for k, v in agent.online.state_arrays().items()}
        records["frame_count"] = np.int64(7)
        path = tmp_path / "c.bin"
        write_records(path, records)
        assert path.read_bytes() == reference_bytes(records)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        old = {"x": np.arange(10, dtype=np.float32)}
        write_records(path, old)
        failing = FailingWrites()
        monkeypatch.setattr(checkpoint, "open", failing, raising=False)
        with pytest.raises(OSError, match="No space"):
            write_records(path, {"x": np.ones(10, dtype=np.float32)})
        monkeypatch.undo()
        assert failing.paths and all(p != str(path) for p in failing.paths)
        assert np.array_equal(read_records(path)["x"], old["x"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]

    def test_overwrite_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "c.bin"
        for value in (1.0, 2.0):
            write_records(path, {"x": np.full(3, value)})
        assert read_records(path)["x"].tolist() == [2.0, 2.0, 2.0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]

    def test_repeated_name_rejected(self, tmp_path):
        # Intact (the CRC holds), but "a" is declared twice.
        payload = struct.pack("<I", 2) + b"".join(
            encode_record("a", np.full(2, v, dtype=np.float32)) for v in (1.0, 2.0))
        path = tmp_path / "c.bin"
        path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CheckpointError, match="'a' appears twice"):
            read_records(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world, definitely not tensors")
        with pytest.raises(CheckpointError):
            read_records(path)


class TestAgentRoundTrip:
    def test_full_state_restored(self, tmp_path):
        hp = Hyperparams()
        agent = new_agent(hp, seed=5)
        # make the state non-trivial before saving
        x = np.random.default_rng(0).random((4, 84, 84, 4)).astype(np.float32)
        agent.online.forward(x, train=True)
        # A fresh agent holds no moments; give it some, so every one is compared.
        params = agent.online.params()
        agent.adam.m = {k: np.full_like(p, 0.25) for k, p in params.items()}
        agent.adam.v = {k: np.full_like(p, 0.5) for k, p in params.items()}
        agent.adam.t = 17
        agent.frame_count = 123_456

        path = tmp_path / "agent.bin"
        save_agent(path, agent, hp)
        loaded = load_agent(path, hp)

        assert loaded.frame_count == 123_456
        assert loaded.adam.t == 17
        for name, arr in agent.online.state_arrays().items():
            assert np.array_equal(arr, loaded.online.state_arrays()[name]), name
        for name, arr in agent.target.state_arrays().items():
            assert np.array_equal(arr, loaded.target.state_arrays()[name]), name
        assert agent.adam.m.keys() == loaded.adam.m.keys() == params.keys()
        for name in agent.adam.m:
            assert np.array_equal(agent.adam.m[name], loaded.adam.m[name])
            assert np.array_equal(agent.adam.v[name], loaded.adam.v[name])

    def test_missing_record_rejected(self, tmp_path):
        hp = Hyperparams()
        agent = new_agent(hp, seed=1)
        path = tmp_path / "agent.bin"
        save_agent(path, agent, hp)
        records = read_records(path)
        del records["online/conv1.w"]
        write_records(path, records)
        with pytest.raises(CheckpointError, match="missing"):
            load_agent(path, hp)

    def test_shape_mismatch_rejected(self, tmp_path):
        hp = Hyperparams()
        agent = new_agent(hp, seed=1)
        path = tmp_path / "agent.bin"
        save_agent(path, agent, hp)
        records = read_records(path)
        records["online/conv1.w"] = records["online/conv1.w"][..., :16]
        write_records(path, records)
        with pytest.raises(CheckpointError, match="mismatch"):
            load_agent(path, hp)

    @pytest.mark.parametrize("n_actions", [2**40, 10**7, 5, 3])
    def test_n_actions_checked_against_head_before_building(self, tmp_path, monkeypatch,
                                                           n_actions):
        # The CRC holds and n_actions is a valid count, but the head records
        # are for 4 actions: loading must fail without building a network
        # for n_actions (2**40 would ask for terabytes).
        hp = Hyperparams()
        path = tmp_path / "agent.bin"
        save_agent(path, new_agent(hp, seed=0), hp)
        write_records(path, {**read_records(path), "meta/n_actions": np.int64(n_actions)})
        build = agent_module.build_q_network

        def only_four_actions(n_actions=4, dtype=np.float32):
            if n_actions != 4:
                raise AssertionError(f"built a network for {n_actions} actions")
            return build(n_actions, dtype=dtype)

        monkeypatch.setattr(agent_module, "build_q_network", only_four_actions)
        with pytest.raises(CheckpointError, match="online/dense3.w"):
            load_agent(path, hp)

    def test_head_records_are_the_last_layer(self):
        net = agent_module.build_q_network(7)
        assert HEAD_RECORDS == tuple(f"online/{k}" for k in list(net.params())[-2:])
        for key in HEAD_RECORDS:
            assert net.params()[key.removeprefix("online/")].shape[-1] == 7

    def test_file_with_eps_frames_record_loads(self, tmp_path):
        # Older files end with an ``eps_frames`` record; loading ignores it.
        hp = Hyperparams()
        agent = new_agent(hp, seed=2)
        agent.frame_count = 60_000
        path = tmp_path / "agent.bin"
        save_agent(path, agent, hp)
        current = path.read_bytes()
        older = tmp_path / "older.bin"
        write_records(older, {**read_records(path), "eps_frames": np.int64(10_000)})
        loaded = load_agent(older, hp)
        assert loaded.frame_count == 60_000
        save_agent(path, loaded, hp)
        assert path.read_bytes() == current

    def test_save_copies_no_array(self, tmp_path):
        """Saving a 7 MB agent allocates under 1 MB at its peak: each array
        goes to the file from its own memory."""
        hp = Hyperparams()
        agent = new_agent(hp, seed=6)
        params = agent.online.params()
        agent.adam.m = {k: np.full_like(p, 0.25) for k, p in params.items()}
        agent.adam.v = {k: np.full_like(p, 0.5) for k, p in params.items()}
        path = tmp_path / "agent.bin"
        tracemalloc.start()
        try:
            save_agent(path, agent, hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 7_000_000
        assert peak < 1_000_000

    def test_eval_forward_identical_after_reload(self, tmp_path):
        hp = Hyperparams()
        agent = new_agent(hp, seed=9)
        path = tmp_path / "agent.bin"
        save_agent(path, agent, hp)
        loaded = load_agent(path, hp)
        x = np.random.default_rng(1).random((8, 84, 84, 4)).astype(np.float32)
        assert np.array_equal(agent.online.forward(x), loaded.online.forward(x))


# The layers' saved arrays in network order; the optimizer's moments cover
# the same names without the batch-norm running statistics.
STATE_NAMES = [
    "conv1.w", "conv1.b", "conv2.w", "conv2.b",
    "batchnorm1.gamma", "batchnorm1.beta", "batchnorm1.running_mean", "batchnorm1.running_var",
    "conv3.w", "conv3.b",
    "batchnorm2.gamma", "batchnorm2.beta", "batchnorm2.running_mean", "batchnorm2.running_var",
    "dense1.w", "dense1.b", "dense2.w", "dense2.b", "dense3.w", "dense3.b",
]
PARAM_NAMES = [n for n in STATE_NAMES if "running" not in n]


class TestLayout:
    def test_record_names_in_file_order(self, tmp_path):
        path = tmp_path / "agent.bin"
        save_agent(path, new_agent(Hyperparams(), seed=0), Hyperparams())
        assert list(read_records(path)) == [
            "meta/n_actions",
            *(f"online/{n}" for n in STATE_NAMES),
            *(f"target/{n}" for n in STATE_NAMES),
            *(f"adam/m/{n}" for n in PARAM_NAMES),
            *(f"adam/v/{n}" for n in PARAM_NAMES),
            "adam/t",
            "frame_count",
        ]
        assert (len(STATE_NAMES), len(PARAM_NAMES)) == (20, 16)


class TestAdamMomentsBeforeFirstUpdate:
    """Adam's moments are allocated by the first update, yet every save has them."""

    def warmup_run(self, tmp_path, monkeypatch):
        saved = []

        def spy(path, agent, hp):
            saved.append(agent)
            save_agent(path, agent, hp)

        monkeypatch.setattr(harness, "save_agent", spy)
        hp = Hyperparams(random_frames=10_000, replay_capacity=64)
        path = tmp_path / "warm.bin"
        harness.train(harness.TrainConfig(
            hp=hp, episodes=1_000, seed=4, metrics_path=str(tmp_path / "m.csv"),
            checkpoint_path=str(path), max_frames=80))
        return saved[-1], path

    def test_warmup_only_train_allocates_no_moments(self, tmp_path, monkeypatch):
        agent, _ = self.warmup_run(tmp_path, monkeypatch)
        assert agent.frame_count == 80
        assert agent.adam.t == 0
        assert agent.adam.m == {} and agent.adam.v == {}

    def test_save_before_first_update_has_zero_moments(self, tmp_path, monkeypatch):
        agent, path = self.warmup_run(tmp_path, monkeypatch)
        records = read_records(path)
        for name, p in agent.online.params().items():
            for moment in ("m", "v"):
                stored = records[f"adam/{moment}/{name}"]
                assert stored.dtype == p.dtype and stored.shape == p.shape
                assert not stored.any()
        assert int(records["adam/t"]) == 0
        loaded = load_agent(path, Hyperparams())
        assert loaded.adam.m.keys() == agent.online.params().keys()
        resaved = tmp_path / "again.bin"
        save_agent(resaved, loaded, Hyperparams())
        assert resaved.read_bytes() == path.read_bytes()
