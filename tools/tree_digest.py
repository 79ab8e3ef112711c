"""Digest of a small end-to-end run, for checking that a change keeps every output byte-identical.

Usage: python tools/tree_digest.py SRC WORK

Runs gen-data -> train -> mine (--kp off, vanilla and full) -> eval with the
package under SRC (put on PYTHONPATH) and OPENBLAS_NUM_THREADS=1, inside the
directory WORK, which must not exist or be empty.  A single-scale backbone
(``use_msa: false``) gets its own train and ``mine --kp full`` on the same
data, so the drift regularizer's single-scale path is covered too.  Prints
one sorted ``sha256  path`` line for every file the run writes and for each
command's stdout (as ``stdout/<step>``), and one ``dir  path/`` line for every
directory under WORK.  Two listings that `diff` clean mean the two source trees
produce the same bytes in the same directories.

The config covers a one-sample last training batch (17 images at batch size
8), fine-tuning phases of 2, 1 and 1 epochs (4 epochs over 3 mining steps)
and an eval split of two chunks (10 images), so `mine` writes its PGMs
through its forked helper.  One more ``mine --kp full`` on the same
checkpoint runs at batch size 16 (``config-one-chunk.json``), where the
eval split is one chunk and `mine` writes its PGMs in-process.  Only the
standard library is used.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

CONFIG = {
    "train_count": 17,
    "eval_count": 10,
    "batch_size": 8,
    "epochs": 3,
    "finetune_epochs": 4,
    "am_steps": 3,
}
CONFIGS = {
    "config.json": CONFIG,
    "config-plain.json": {**CONFIG, "use_msa": False},
    "config-one-chunk.json": {**CONFIG, "batch_size": 16},
}


def _steps():
    """(step name, CLI arguments, config file) of each command, in run order."""
    yield "gen-data", ["gen-data", "--out", "data"], "config.json"
    yield "train", ["train", "--data", "data", "--out", "model"], "config.json"
    for mode in ("off", "vanilla", "full"):
        yield f"mine-{mode}", [
            "mine", "--checkpoint", "model/baseline.npz", "--data", "data",
            "--kp", mode, "--out", f"mine-{mode}",
        ], "config.json"
        yield f"eval-{mode}", [
            "eval", "--predictions", f"mine-{mode}/predictions.jsonl",
            "--ground-truth", "data/eval/manifest.jsonl", "--out", f"eval-{mode}",
        ], "config.json"
    yield "mine-one-chunk", [
        "mine", "--checkpoint", "model/baseline.npz", "--data", "data",
        "--kp", "full", "--out", "mine-one-chunk",
    ], "config-one-chunk.json"
    yield "train-plain", ["train", "--data", "data", "--out", "model-plain"], "config-plain.json"
    yield "mine-plain-full", [
        "mine", "--checkpoint", "model-plain/baseline.npz", "--data", "data",
        "--kp", "full", "--out", "mine-plain-full",
    ], "config-plain.json"


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: tree_digest.py SRC WORK")
    src, work = Path(argv[0]).resolve(), Path(argv[1])
    if work.exists() and any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    work.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        (work / name).write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    digests = {}
    for name, args, config in _steps():
        cmd = [sys.executable, "-m", "attnmine.cli", *args, "--config", config]
        run = subprocess.run(cmd, cwd=work, env=env, capture_output=True)
        if run.returncode:
            sys.exit(f"{name} exited {run.returncode}: {run.stderr.decode().strip()}")
        digests[f"stdout/{name}"] = hashlib.sha256(run.stdout).hexdigest()
    for path in work.rglob("*"):
        name = path.relative_to(work).as_posix()
        if path.is_dir():
            digests[f"{name}/"] = "dir"
        elif path.is_file():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
