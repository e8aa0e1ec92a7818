"""Command-line entry point: train, eval, memreport, plot.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 corrupt checkpoint
or metrics data, 4 training diverged (a non-finite TD loss; training stops
before the step, so the last checkpoint and the CSV rows are kept).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .checkpoint import CheckpointError
from .harness import evaluate, memreport_text, parse_config_file, train
from .plotting import PLOT_KINDS, MetricsParseError, plot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CORRUPT = 3
EXIT_DIVERGED = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="snakedqn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop")
    p_train.add_argument("--config", required=True, help="key = value config file")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--episodes", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, default=50)
    p_eval.add_argument("--epsilon", type=float, default=0.0)
    p_eval.add_argument("--seed", type=int, default=0)

    sub.add_parser("memreport", help="print the memory accounting tables")

    p_plot = sub.add_parser("plot", help="render a metrics CSV to SVG")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--kind", required=True, choices=sorted(PLOT_KINDS))
    p_plot.add_argument("--out", required=True)
    return parser


def _cmd_train(args) -> int:
    config = parse_config_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if overrides:
        config = dataclasses.replace(config, **overrides)
    metrics = train(config)
    print(f"trained {len(metrics)} episodes -> {config.metrics_path}")
    if config.checkpoint_path:
        print(f"checkpoint -> {config.checkpoint_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    result = evaluate(args.checkpoint, episodes=args.episodes,
                      epsilon=args.epsilon, seed=args.seed)
    for i, score in enumerate(result.scores):
        print(f"episode {i}: score {score}")
    print(f"mean {result.mean:.3f} best {result.best}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "memreport":
            print(memreport_text(), end="")
            return EXIT_OK
        if args.command == "plot":
            plot(args.metrics, args.out, kind=args.kind)
            print(f"wrote {args.out}")
            return EXIT_OK
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as exc:
        if isinstance(exc, MetricsParseError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CORRUPT
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
