"""Workload definitions, CLI stage calls and the correctness gate.

Every workload drives the program only through ``attnmine.cli.main``: it
writes a config JSON, generates the data from the workload seed with
``gen-data`` and then calls the CLI stages on that data directory.  The
gate checks each call's exit code and fingerprints its artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from attnmine import cli
from attnmine.evalloc import read_predictions


# The mining workloads fine-tune or mine this checkpoint, trained with
# the default config by make_checkpoint.py.  How sharp a checkpoint's
# heatmaps are sets the flood-fill work, and short set-up checkpoints
# took 1.6 to 3.6 times as long to mine as converged ones (README.md).
CHECKPOINT = Path(__file__).resolve().parent / "checkpoint" / "baseline.npz"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # RunConfig overrides written to the config JSON
    pipeline: tuple         # CLI stages timed in every iteration
    throughput_stage: str   # the stage whose wall time img_per_s divides
    throughput_label: str   # what img_per_s measures on this workload, for the report
    work_unit: str

    def work(self):
        """Images the throughput stage processes in one call."""
        c = self.config
        if self.throughput_stage == "train":
            return c["train_count"] * c["epochs"]
        if c.get("finetune_epochs", 0):
            return c["train_count"] * c["finetune_epochs"]
        return c["eval_count"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-baseline",
            config={"train_count": 128, "eval_count": 8, "epochs": 3},
            pipeline=("train",),
            throughput_stage="train",
            throughput_label="train_img_per_s",
            work_unit="image-epochs/s",
        ),
        Workload(
            name="finetune-full",
            config={
                "train_count": 64,
                "eval_count": 16,
                "finetune_epochs": 3,
                "kp_mode": "full",
                "am_steps": 3,
            },
            pipeline=("mine",),
            throughput_stage="mine",
            throughput_label="finetune_img_per_s",
            work_unit="image-epochs/s",
        ),
        Workload(
            name="mine-eval",
            config={
                "train_count": 16,
                "eval_count": 200,
                "finetune_epochs": 0,
                "kp_mode": "off",
                "am_steps": 3,
                "multi_instance_fraction": 1.0,
            },
            pipeline=("mine", "eval"),
            throughput_stage="mine",
            throughput_label="mine_img_per_s",
            work_unit="images/s",
        ),
    )
}


class Run:
    """Config files, argv and data directories of one workload run.

    Stages run in order and each `gen-data` call replaces the data
    directory that later stages use.
    """

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work_dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config, sort_keys=True))
        self.data = self.mine_out = None

    def argv(self, stage, out):
        common = ["--config", str(self.config_path), "--seed", str(self.seed)]
        c = self.workload.config
        if stage == "gen-data":
            return ["gen-data", *common, "--out", str(out)]
        if stage == "train":
            return ["train", *common, "--data", str(self.data), "--out", str(out)]
        if stage == "mine":
            return [
                "mine", *common,
                "--checkpoint", str(CHECKPOINT),
                "--data", str(self.data),
                "--kp", c["kp_mode"],
                "--am-steps", str(c["am_steps"]),
                "--out", str(out),
            ]
        if stage == "eval":
            return [
                "eval", *common,
                "--predictions", str(self.mine_out / "predictions.jsonl"),
                "--ground-truth", str(self.data / "eval" / "manifest.jsonl"),
                "--out", str(out),
            ]
        raise ValueError(f"unknown stage {stage!r}")

    def call(self, stage, out, span=None):
        """Run one CLI stage; returns (exit code, seconds, captured output)."""
        out = Path(out)
        argv = self.argv(stage, out)
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            with span(f"cli.{stage}") if span else contextlib.nullcontext():
                try:
                    rc = cli.main(argv)
                except Exception:  # a crash is one failed operation, not the end of the run
                    traceback.print_exc(file=buf)
                    rc = "uncaught exception"
        seconds = time.perf_counter() - start
        if stage == "gen-data":
            self.data = out
        elif stage == "mine":
            self.mine_out = out
        return rc, seconds, buf.getvalue()


def _hash_files(h, root, paths):
    for path in paths:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())


def _hash_params(h, npz_path):
    with np.load(npz_path) as data:
        for key in sorted(data.files):
            arr = data[key]
            h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())


def fingerprint(stage, out):
    """sha256 over the deterministic artifacts one stage call wrote to `out`."""
    out = Path(out)
    h = hashlib.sha256()
    if stage == "gen-data":
        files = sorted(out.glob("*/manifest.jsonl")) + sorted(out.glob("*/images/*.pgm"))
        _hash_files(h, out, files)
    elif stage == "train":
        _hash_params(h, out / "baseline.npz")
        _hash_files(h, out, [out / "loss_log.csv"])
    elif stage == "mine":
        _hash_params(h, out / "mined.npz")
        _hash_files(h, out, sorted((out / "heatmaps").iterdir()) + [out / "predictions.jsonl"])
    elif stage == "eval":
        _hash_files(h, out, [out / "report.csv"])
    return h.hexdigest()


def check_outputs(stage, out, config):
    """Structural checks beyond the fingerprint; returns a list of problems."""
    out = Path(out)
    problems = []
    if stage == "mine":
        boxes = read_predictions(out / "predictions.jsonl")
        heatmaps = list((out / "heatmaps").glob("*_c?.pgm"))
        masks = list((out / "heatmaps").glob("*_mask.pgm"))
        if not boxes or not heatmaps:
            problems.append(f"mine wrote {len(boxes)} boxes and {len(heatmaps)} heatmaps")
        if len(masks) != len(heatmaps):
            problems.append(f"{len(heatmaps)} heatmaps but {len(masks)} masks")
    elif stage == "eval":
        rows = (out / "report.csv").read_text().splitlines()[1:]
        run_config = cli.RunConfig(**config)
        expected = run_config.num_classes * len(run_config.iou_thresholds)
        if len(rows) != expected:
            problems.append(f"report.csv has {len(rows)} rows, expected {expected}")
    return problems


class Gate:
    """Correctness of every CLI stage call; each call is one operation."""

    def __init__(self, workload, pinned):
        self.workload = workload
        self.pinned = pinned
        self.attempted = self.failed = 0
        self.first = {}
        self.problems = []

    def check(self, stage, rc, out, log):
        self.attempted += 1
        problems = []
        if rc != 0:
            tail = log.strip().splitlines()[-1:] or [""]
            problems.append(f"exit {rc}: {tail[0]}")
        else:
            try:
                digest = fingerprint(stage, out)
                problems += check_outputs(stage, out, self.workload.config)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                if digest != self.first.setdefault(stage, digest):
                    problems.append("fingerprint differs from the first call's")
                if stage in (self.pinned or {}) and digest != self.pinned[stage]:
                    problems.append(f"fingerprint {digest} differs from the pinned digest")
        if problems:
            self.failed += 1
            self.problems.append(f"{stage}: " + "; ".join(problems))
