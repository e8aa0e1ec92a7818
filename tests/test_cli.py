"""Command line: documented exit codes, and the config-file parser."""

import dataclasses
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest

from snakedqn import agent as agent_module
from snakedqn.agent import Hyperparams, load_agent, new_agent, save_agent
from snakedqn.checkpoint import MAGIC, read_records, write_records
from snakedqn.cli import EXIT_CORRUPT, EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from snakedqn.harness import CSV_HEADER, TrainConfig, memreport_text, parse_config_file

from checkpoint_oracle import encode_record


# The paper's memory accounting as `snakedqn memreport` prints it.
MEMREPORT = """\
Per-frame storage (84x84 observation)
format               bytes        kB    vs RGB   vs gray
RGB float64         169344   165.375        0%         -
Gray float64         56448    55.125   66.667%        0%
Binary byte           7056     6.890   95.833%     87.5%
Binary packed          882     0.861   99.479%   98.438%

Replay memory accounting (8 frames per experience)
buffer                                 bytes        GB    vs RGB   vs gray
RGB float64 x 1,000,000        1354752000000  1261.711        0%         -
Gray float64 x 1,000,000        451584000000   420.570   66.667%        0%
Binary byte x 50,000              2822400000     2.628   99.792%   99.375%
"""


def write_config(path, *lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def tiny_train_config(tmp_path, *extra):
    return write_config(
        tmp_path / "train.cfg",
        "random_frames = 1000000",
        "replay_capacity = 16",
        "batch_size = 8",
        "max_frames = 30",
        f"metrics_path = {tmp_path / 'metrics.csv'}",
        f"checkpoint_path = {tmp_path / 'agent.bin'}",
        *extra,
    )


class TestExitCodes:
    def test_memreport(self, capsys):
        assert main(["memreport"]) == EXIT_OK
        assert capsys.readouterr().out == memreport_text()

    def test_memreport_text_golden(self):
        assert memreport_text() == MEMREPORT

    def test_tiny_train(self, tmp_path, capsys):
        assert main(["train", "--config", tiny_train_config(tmp_path), "--seed", "3"]) == EXIT_OK
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER
        assert (tmp_path / "agent.bin").stat().st_size > 0
        assert "metrics.csv" in capsys.readouterr().out
        # The plotter reads what train wrote: one point per episode row.
        out = tmp_path / "score.svg"
        argv = ["plot", "--metrics", str(tmp_path / "metrics.csv"), "--kind", "score",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        raw = ET.fromstring(out.read_bytes()).findall(SVG + "polyline")[0]
        assert len(raw.get("points").split()) == len(rows) - 1 == 2

    @pytest.mark.parametrize("line, message", [
        ("learning_rate = nan", "learning_rate must be finite, got nan"),
        ("clip_norm = inf", "clip_norm must be finite, got inf"),
        ("batch_size = 64", "batch_size 64 exceeds replay_capacity 16"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, line, message):
        config = tiny_train_config(tmp_path, line)
        assert main(["train", "--config", config]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_train_nonpositive_max_frames(self, tmp_path, capsys, value):
        config = tiny_train_config(tmp_path, f"max_frames = {value}")
        assert main(["train", "--config", config]) == EXIT_USAGE
        assert f"max_frames must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()
        assert not (tmp_path / "agent.bin").exists()

    def test_train_diverged(self, tmp_path, capsys, monkeypatch):
        # A NaN TD loss from the 20th update on: train stops with exit 4 and
        # keeps the CSV rows and the last checkpoint of finished episodes.
        td_loss = agent_module.td_loss_and_gradient
        calls = []

        def nan_from_the_20th_update(batch, targets, online):
            loss, grads = td_loss(batch, targets, online)
            calls.append(loss)
            return (loss if len(calls) < 20 else float("nan")), grads

        monkeypatch.setattr(agent_module, "td_loss_and_gradient", nan_from_the_20th_update)
        config = write_config(
            tmp_path / "train.cfg",
            "random_frames = 128",
            "eps_greedy_frames = 192",
            "target_sync_every = 64",
            "max_frames = 320",
            "checkpoint_every = 1",
            f"metrics_path = {tmp_path / 'metrics.csv'}",
            f"checkpoint_path = {tmp_path / 'agent.bin'}",
        )
        assert main(["train", "--config", config, "--seed", "11"]) == EXIT_DIVERGED
        # Updates run at frames 128, 132, ...: the 20th is at frame 204.
        assert capsys.readouterr().err == "error: TD loss is nan at frame 204\n"
        header, *rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert header == CSV_HEADER
        frames_total = [int(row.rsplit(",", 1)[1]) for row in rows]
        assert frames_total and 128 <= frames_total[-1] < 204
        agent = load_agent(tmp_path / "agent.bin", Hyperparams())
        assert agent.frame_count == frames_total[-1]
        assert agent.adam.t > 0
        assert main(["eval", "--checkpoint", str(tmp_path / "agent.bin"),
                     "--episodes", "1"]) == EXIT_OK

    def test_eval_trained_checkpoint(self, tmp_path, capsys):
        assert main(["train", "--config", tiny_train_config(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(tmp_path / "agent.bin"), "--episodes", "3"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        scores = []
        for i, line in enumerate(lines[:3]):
            head, score = line.rsplit(" ", 1)
            assert head == f"episode {i}: score"
            scores.append(int(score))
        assert lines[3] == f"mean {sum(scores) / 3:.3f} best {max(scores)}"

    @pytest.mark.parametrize("key", ["no_such_key = 1", "deterministic = true",
                                     "eval_epsilon = 0.0"])
    def test_unknown_config_key(self, tmp_path, capsys, key):
        config = tiny_train_config(tmp_path, key)
        assert main(["train", "--config", config]) == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["train"],
        ["train", "--config", "x.cfg", "--deterministic"],
        ["train", "--config", "x.cfg", "--seed", "seven"],
        ["plot", "--metrics", "m.csv", "--kind", "nope", "--out", "o.svg"],
    ])
    def test_bad_arguments(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_metrics_path_in_missing_directory(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "train.cfg",
            "max_frames = 10",
            f"metrics_path = {tmp_path / 'missing' / 'metrics.csv'}",
            "checkpoint_path =",
        )
        assert main(["train", "--config", config]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_eval_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "agent.bin"
        hp = Hyperparams()
        save_agent(path, new_agent(hp, seed=0), hp)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == EXIT_CORRUPT
        (tmp_path / "junk.bin").write_bytes(b"not a checkpoint at all")
        assert main(["eval", "--checkpoint", str(tmp_path / "junk.bin")]) == EXIT_CORRUPT

    @pytest.mark.parametrize("key, value", [
        ("meta/n_actions", np.array([4, 4], dtype=np.int64)),
        ("meta/n_actions", np.int64(-2)),
        ("meta/n_actions", np.int64(0)),
        ("meta/n_actions", np.float64(4.0)),
        ("adam/t", np.zeros(3, dtype=np.int64)),
        ("frame_count", np.int64(-1)),
    ], ids=["n_actions-vector", "n_actions-negative", "n_actions-zero", "n_actions-float",
            "adam_t-vector", "frame_count-negative"])
    def test_eval_bad_counter_record(self, tmp_path, capsys, key, value):
        # The file is intact (its CRC holds); a counter record's value is not.
        path = tmp_path / "agent.bin"
        hp = Hyperparams()
        save_agent(path, new_agent(hp, seed=0), hp)
        write_records(path, {**read_records(path), key: value})
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == EXIT_CORRUPT
        assert f"error: {key} must be one integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("online/dense3.w", np.full((512, 4), 1e300)),
        ("online/conv1.w", np.ones((8, 8, 4, 32), dtype=np.uint8)),
    ], ids=["float64-head", "uint8-conv1"])
    def test_eval_record_of_the_wrong_dtype(self, tmp_path, capsys, key, value):
        # An intact file whose record has the right shape but not the
        # network's dtype exits 3: no cast to inf or from bytes.
        path = tmp_path / "agent.bin"
        hp = Hyperparams()
        save_agent(path, new_agent(hp, seed=0), hp)
        write_records(path, {**read_records(path), key: value})
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == EXIT_CORRUPT
        assert f"error: dtype mismatch at {key}: {value.dtype} vs float32" in capsys.readouterr().err

    def test_eval_n_actions_past_the_head(self, tmp_path, capsys, monkeypatch):
        # An intact file claiming 2**40 actions exits 3 before any network of
        # that size is built.
        path = tmp_path / "agent.bin"
        hp = Hyperparams()
        save_agent(path, new_agent(hp, seed=0), hp)
        write_records(path, {**read_records(path), "meta/n_actions": np.int64(2**40)})
        build = agent_module.build_q_network

        def only_four_actions(n_actions=4, dtype=np.float32):
            if n_actions != 4:
                raise AssertionError(f"built a network for {n_actions} actions")
            return build(n_actions, dtype=dtype)

        monkeypatch.setattr(agent_module, "build_q_network", only_four_actions)
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == EXIT_CORRUPT
        assert "meta/n_actions 1099511627776" in capsys.readouterr().err

    def test_eval_repeated_record(self, tmp_path, capsys):
        # An intact file that declares frame_count a second time exits 3.
        path = tmp_path / "agent.bin"
        hp = Hyperparams()
        save_agent(path, new_agent(hp, seed=0), hp)
        blob = path.read_bytes()
        (count,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
        payload = (struct.pack("<I", count + 1) + blob[len(MAGIC) + 4 : -4]
                   + encode_record("frame_count", np.int64(5)))
        path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == EXIT_CORRUPT
        assert "'frame_count' appears twice" in capsys.readouterr().err

    def test_eval_record_size_overflows(self, tmp_path, capsys):
        # An intact file with a record of (2**32 - 1)**2 floats exits 3: its
        # size, about 2**66 bytes, must not wrap to a small or negative count.
        path = tmp_path / "agent.bin"
        hp = Hyperparams()
        save_agent(path, new_agent(hp, seed=0), hp)
        blob = path.read_bytes()
        (count,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
        huge = struct.pack("<H", 4) + b"huge" + struct.pack("<BBII", 0, 2, 2**32 - 1, 2**32 - 1)
        payload = struct.pack("<I", count + 1) + blob[len(MAGIC) + 4 : -4] + huge
        path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == EXIT_CORRUPT
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_eval_record_name_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "agent.bin"
        hp = Hyperparams()
        save_agent(path, new_agent(hp, seed=0), hp)
        blob = path.read_bytes()
        at = blob.index(b"frame_count")
        payload = blob[len(MAGIC) : at] + b"\xff" + blob[at + 1 : -4]
        path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == EXIT_CORRUPT
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--episodes", "0"), ("--episodes", "-3"),
                                               ("--epsilon", "-0.1"), ("--epsilon", "1.5"),
                                               ("--epsilon", "nan")])
    def test_eval_bad_arguments(self, tmp_path, capsys, option, value):
        # Rejected before the checkpoint is opened: this one does not exist.
        argv = ["eval", "--checkpoint", str(tmp_path / "missing.bin"), option, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and option[2:] in err

    @pytest.mark.parametrize("body", [
        "",
        "episode,score\n0,1\n",
        CSV_HEADER + "\n",
        CSV_HEADER + "\n0,1,2.0,1.5,10,1.0,nan\n",
        CSV_HEADER + "\n0,1,2.0,1.5,ten,1.0,nan,10\n",
    ])
    def test_plot_malformed_csv(self, tmp_path, body, capsys):
        (tmp_path / "m.csv").write_text(body)
        argv = ["plot", "--metrics", str(tmp_path / "m.csv"), "--kind", "score",
                "--out", str(tmp_path / "o.svg")]
        assert main(argv) == EXIT_CORRUPT
        assert "line " in capsys.readouterr().err
        assert not (tmp_path / "o.svg").exists()


SVG = "{http://www.w3.org/2000/svg}"


class TestPlot:
    @staticmethod
    def render(tmp_path, rows, kind, name):
        csv = tmp_path / "m.csv"
        csv.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        out = tmp_path / name
        assert main(["plot", "--metrics", str(csv), "--kind", kind, "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    @pytest.mark.parametrize("kind", ["score", "reward"])
    def test_multi_row_chart(self, tmp_path, kind, capsys):
        rows = [f"{i},{i % 3},{0.5 * i - 1!r},{0.25 * i!r},{10 + i},1.0,nan,{(i + 1) * 10}"
                for i in range(7)]
        svg = self.render(tmp_path, rows, kind, "a.svg")
        assert self.render(tmp_path, rows, kind, "b.svg") == svg
        assert "a.svg" in capsys.readouterr().out
        root = ET.fromstring(svg)
        assert root.tag == SVG + "svg"
        lines = root.findall(SVG + "polyline")
        assert len(lines) == 2  # the raw series and its rolling mean
        for line in lines:
            points = line.get("points").split()
            assert len(points) == len(rows)
            assert all(len(p.split(",")) == 2 for p in points)
        assert root.findall(SVG + "circle") == []

    @pytest.mark.parametrize("kind", ["score", "reward"])
    def test_single_row_chart(self, tmp_path, kind):
        rows = ["0,2,1.5,1.25,12,1.0,nan,12"]
        svg = self.render(tmp_path, rows, kind, "a.svg")
        assert self.render(tmp_path, rows, kind, "b.svg") == svg
        root = ET.fromstring(svg)
        assert len(root.findall(SVG + "circle")) == 1
        assert root.findall(SVG + "polyline") == []


class TestParseConfigFile:
    def test_every_key_type(self, tmp_path):
        hp_values = dict(gamma=0.5, eps_initial=0.9, eps_final=0.05, batch_size=16,
                         max_step=200, learning_rate=1e-3, clip_norm=2.0, random_frames=100,
                         eps_greedy_frames=1000, replay_capacity=500, update_every=2,
                         target_sync_every=50)
        tc_values = dict(episodes=7, seed=42, metrics_path="out/m.csv", checkpoint_path="",
                         checkpoint_every=3, max_frames=100, resume_from="ckpt.bin")
        assert set(hp_values) == {f.name for f in dataclasses.fields(Hyperparams)}
        assert set(tc_values) | {"hp"} == {f.name for f in dataclasses.fields(TrainConfig)}
        path = write_config(
            tmp_path / "c.cfg",
            "# a full-line comment",
            "",
            "   ",
            "batch_size = 16   # trailing comment",
            "gamma=0.5",
            "  learning_rate =  1e-3  ",
            "clip_norm = 2",  # an integer literal still parses to a float
            "checkpoint_path =",
            *(f"{key} = {value}" for key, value in {**hp_values, **tc_values}.items()
              if key not in {"batch_size", "gamma", "learning_rate", "clip_norm",
                             "checkpoint_path"}),
        )
        config = parse_config_file(path)
        for owner, values in ((config.hp, hp_values), (config, tc_values)):
            for key, want in values.items():
                got = getattr(owner, key)
                assert got == want and type(got) is type(want), key

    def test_empty_file_gives_defaults(self, tmp_path):
        config = parse_config_file(write_config(tmp_path / "c.cfg", "# nothing set"))
        assert config.hp == Hyperparams()
        assert config.max_frames is None

    @pytest.mark.parametrize("lines, lineno, fragment", [
        (["seed = 1", "no equals sign"], 2, "expected 'key = value'"),
        (["", "# x", "batch_size = 1.5"], 3, "invalid literal"),
        (["gamma = fast"], 1, "could not convert"),
        (["seed = 1", "colour = red"], 2, "unknown key 'colour'"),
        (["deterministic = true"], 1, "unknown key 'deterministic'"),
        (["eval_epsilon = 0.05"], 1, "unknown key 'eval_epsilon'"),
    ])
    def test_errors_name_path_and_line(self, tmp_path, lines, lineno, fragment):
        path = write_config(tmp_path / "c.cfg", *lines)
        with pytest.raises(ValueError) as info:
            parse_config_file(path)
        message = str(info.value)
        assert message.startswith(f"{path}:{lineno}: ")
        assert fragment in message

    def test_out_of_range_value_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config_file(write_config(tmp_path / "c.cfg", "batch_size = 0"))
