"""Command line: documented exit codes, and the config-file parser."""

import numpy as np
import pytest

from snakedqn.agent import Hyperparams, new_agent, save_agent
from snakedqn.cli import EXIT_CORRUPT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from snakedqn.harness import CSV_HEADER, memreport_text, parse_config_file


def write_config(path, *lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def tiny_train_config(tmp_path, *extra):
    return write_config(
        tmp_path / "train.cfg",
        "random_frames = 1000000",
        "replay_capacity = 16",
        "max_frames = 30",
        f"metrics_path = {tmp_path / 'metrics.csv'}",
        f"checkpoint_path = {tmp_path / 'agent.bin'}",
        *extra,
    )


class TestExitCodes:
    def test_memreport(self, capsys):
        assert main(["memreport"]) == EXIT_OK
        assert capsys.readouterr().out == memreport_text()

    def test_tiny_train(self, tmp_path, capsys):
        assert main(["train", "--config", tiny_train_config(tmp_path), "--seed", "3"]) == EXIT_OK
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER
        assert (tmp_path / "agent.bin").stat().st_size > 0
        assert "metrics.csv" in capsys.readouterr().out

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


class TestParseConfigFile:
    def test_every_key_type(self, tmp_path):
        path = write_config(
            tmp_path / "c.cfg",
            "# a full-line comment",
            "",
            "   ",
            "batch_size = 16   # trailing comment",
            "gamma=0.5",
            "  learning_rate =  1e-3  ",
            "episodes = 7",
            "seed = 42",
            "max_frames = 100",
            "metrics_path = out/m.csv",
            "checkpoint_path =",
            "resume_from = ckpt.bin",
        )
        config = parse_config_file(path)
        assert config.hp.batch_size == 16 and isinstance(config.hp.batch_size, int)
        assert config.hp.gamma == 0.5
        assert config.hp.learning_rate == 1e-3
        assert config.episodes == 7
        assert config.seed == 42
        assert config.max_frames == 100
        assert config.metrics_path == "out/m.csv"
        assert config.checkpoint_path == ""
        assert config.resume_from == "ckpt.bin"
        assert config.hp.replay_capacity == Hyperparams().replay_capacity

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
