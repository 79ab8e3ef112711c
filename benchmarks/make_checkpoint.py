#!/usr/bin/env python3
"""Regenerate benchmarks/checkpoint/baseline.npz, the checkpoint the mining workloads load.

Usage:
    python3 benchmarks/make_checkpoint.py

It trains the way a user does: ``attnmine gen-data`` and ``attnmine
train`` with the default config (200 train images, 200 epochs) at seed
2, single-threaded.  That takes about four minutes on one core.  The
mining workloads need a converged checkpoint, because how sharp its
heatmaps are decides how much flood fill `mine` does.  Seed 2 is the
median of the seeds measured; README.md has the figures.
Run it again when the checkpoint format changes, then re-pin the
digests that depend on the checkpoint.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEED = 2


def main():
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from attnmine import cli

    work = BENCH_DIR.parent / ".bench_work" / "checkpoint"
    shutil.rmtree(work, ignore_errors=True)
    seed = ["--seed", str(SEED)]
    if cli.main(["gen-data", *seed, "--out", str(work / "data")]) != 0:
        return 1
    if cli.main(["train", *seed, "--data", str(work / "data"), "--out", str(work / "model")]) != 0:
        return 1
    target = BENCH_DIR / "checkpoint" / "baseline.npz"
    target.parent.mkdir(exist_ok=True)
    shutil.copyfile(work / "model" / "baseline.npz", target)
    shutil.rmtree(work)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
