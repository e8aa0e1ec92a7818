"""Seeded learn-shaped runs whose output bytes a behaviour-preserving change keeps.

Trains three 640-frame runs with the package of the checkout this file sits
in, and prints the sha256 of each run's metrics CSV and final checkpoint.
Run it in a change's checkout and in its parent's; the printed lines must be
the same:

    python tests/seeded_runs.py

Each run has random_frames 128, eps_greedy_frames 192, target_sync_every 64
and checkpoint_every 4, so it learns for about 500 frames and syncs its
target network about 8 times. The runs are seeds 11 and 3, and seed 5 with
a 100-row replay, which wraps many times. BLAS is pinned to one thread
unless the environment already sets it.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from snakedqn import Hyperparams, TrainConfig, train  # noqa: E402

FRAMES = 640
RUNS = ((11, {}), (3, {}), (5, {"replay_capacity": 100}))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed, extra in RUNS:
            hp = Hyperparams(random_frames=128, eps_greedy_frames=192, target_sync_every=64,
                             **extra)
            csv, checkpoint = Path(tmp, f"seed{seed}.csv"), Path(tmp, f"seed{seed}.bin")
            train(TrainConfig(hp=hp, seed=seed, max_frames=FRAMES, checkpoint_every=4,
                              metrics_path=str(csv), checkpoint_path=str(checkpoint)))
            print(f"seed {seed:>2} replay {hp.replay_capacity:>6}: "
                  f"csv {sha256(csv)} checkpoint {sha256(checkpoint)}", flush=True)


if __name__ == "__main__":
    main()
