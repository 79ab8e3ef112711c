"""Command-line pipeline: gen-data, train, mine, eval.

Every command takes an optional JSON config file plus overriding flags,
writes its outputs atomically (temp file + rename) and records a run
manifest with the config hash and seed.  Failures exit nonzero with a
one-line ``error:<category>: message`` on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__, atomic_write_bytes
from .evalloc import (
    EvalConfig,
    extract_bboxes,
    build_pool,
    evaluate_report,
    ground_truth_by_class,
    read_ground_truth,
    read_predictions,
    write_predictions,
    write_report_csv,
)
from .kp import KPConfig
from .mining import MiningConfig, write_heatmap_pgm, write_mask_pgm
from .mining import run_am  # noqa: F401  not called; benchmarks/spans.py wraps cli.run_am
from .model import BackboneConfig, Network, load_checkpoint, save_checkpoint
from .synthetic import DatasetConfig, generate_dataset, save_dataset, load_dataset
from .train import am_finetune, mean_auc, mine_final_heatmaps, predict_logits, train_baseline


# sub-config fields whose RunConfig source has another name
_RENAMED = {"num_steps": "am_steps", "weight": "kp_weight", "mode": "kp_mode"}


@dataclass
class RunConfig:
    seed: int = 42
    image_size: int = 64
    num_classes: int = 4
    train_count: int = 200
    eval_count: int = 50
    multi_instance_fraction: float = 0.5
    lr: float = 0.5
    finetune_lr: float = 0.05
    epochs: int = 200
    finetune_epochs: int = 24
    batch_size: int = 16
    am_steps: int = 3
    binarize_threshold: float = 0.5
    connectivity: int = 8
    min_peak_ratio: float = 0.6
    kp_mode: str = "full"
    kp_weight: float = 0.5
    am_fraction: float = 0.125
    use_msa: bool = True
    stage_channels: list = field(default_factory=lambda: [8, 16, 32, 64])
    stage_strides: list = field(default_factory=lambda: [1, 2, 2, 2])
    msa_reduced_channels: list = field(default_factory=lambda: [32, 16])
    bbox_thresholds: list = field(default_factory=lambda: [0.75, 0.5, 0.25])
    iou_thresholds: list = field(
        default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    )
    afp_upper_bound: float = 10.0

    @classmethod
    def load(cls, path=None, **overrides):
        """Defaults, then the JSON object at `path`, then the non-None overrides.

        Every value must have its default's JSON type (an int also serves
        for a float, and is stored as one), be finite and make valid
        sub-configs; `batch_size`, `epochs` and the split counts must be
        >= 1, `seed` and `finetune_epochs` >= 0, both learning rates > 0,
        and `image_size` a positive multiple of the backbone's stride
        product; else CommandError("config").
        """
        data = {}
        if path:
            try:
                with open(path) as f:
                    data = json.load(f)
            except (OSError, ValueError) as exc:
                raise CommandError("config", f"{path}: {exc}")
            if not isinstance(data, dict):
                raise CommandError("config", f"{path}: config must be a JSON object")
            unknown = set(data) - set(cls.__dataclass_fields__)
            if unknown:
                raise CommandError("config", f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        defaults = cls()
        for key, value in data.items():
            default = getattr(defaults, key)
            if not _same_json_type(value, default):
                kind = type(default).__name__
                raise CommandError("config", f"{key} must be of type {kind}, not {value!r}")
            if isinstance(default[0] if isinstance(default, list) else default, float):
                try:
                    items = [float(v) for v in (value if isinstance(value, list) else [value])]
                except OverflowError:  # a JSON integer beyond float range
                    raise CommandError("config", f"{key} must be finite")
                if not all(map(math.isfinite, items)):
                    raise CommandError("config", f"{key} must be finite, not {value!r}")
                data[key] = items if isinstance(value, list) else items[0]
        config = cls(**data)
        for key, low in (
            ("batch_size", 1), ("train_count", 1), ("eval_count", 1), ("seed", 0),
            ("epochs", 1), ("finetune_epochs", 0),
        ):
            if getattr(config, key) < low:
                raise CommandError("config", f"{key} must be >= {low}")
        for key in ("lr", "finetune_lr"):
            if getattr(config, key) <= 0:
                raise CommandError("config", f"{key} must be > 0")
        try:
            stride = config.backbone_config().stride_product
            config.dataset_config()
            config.mining_config()
            config.kp_config()
            config.eval_config()
        except ValueError as exc:
            raise CommandError("config", str(exc))
        if config.image_size < 1 or config.image_size % stride:
            message = f"image_size must be a positive multiple of {stride}, not {config.image_size}"
            raise CommandError("config", message)
        return config

    def _sub(self, cls):
        """`cls` with each field taken from the RunConfig field of that name (or its rename)."""
        return cls(**{f.name: getattr(self, _RENAMED.get(f.name, f.name)) for f in fields(cls)})

    def dataset_config(self):
        return self._sub(DatasetConfig)

    def backbone_config(self):
        return self._sub(BackboneConfig)

    def mining_config(self):
        return self._sub(MiningConfig)

    def kp_config(self):
        return self._sub(KPConfig)

    def eval_config(self):
        return self._sub(EvalConfig)


def _same_json_type(value, default):
    """bool only for bool, an int also for a float, and list items like the default's first."""
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_json_type(v, default[0]) for v in value)
    return isinstance(value, type(default))


class CommandError(Exception):
    def __init__(self, category, message):
        super().__init__(message)
        self.category = category


def _output_dir(path):
    """`path` as a Path; it or a parent existing as a non-directory is CommandError("exists")."""
    out = Path(path)
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise CommandError("exists", f"output path {p} exists and is not a directory")
    return out


def write_run_manifest(out_dir, config, command):
    payload = json.dumps(asdict(config), sort_keys=True).encode()
    manifest = {
        "command": command,
        "config": asdict(config),
        "config_sha256": hashlib.sha256(payload).hexdigest(),
        "seed": config.seed,
        "version": __version__,
    }
    atomic_write_bytes(
        Path(out_dir) / "run_manifest.json",
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )


def cmd_gen_data(args, config, out):
    if out.exists() and any(out.iterdir()) and not args.force:
        raise CommandError("exists", f"output dir {out} is not empty; use --force")
    ds_config = config.dataset_config()
    for split, count, seed_offset in (
        ("train", config.train_count, 0),
        ("eval", config.eval_count, 1),
    ):
        images, manifest = generate_dataset(config.seed + seed_offset, count, ds_config)
        save_dataset(out / split, images, manifest)
    print(f"wrote {config.train_count} train and {config.eval_count} eval images to {out}")


def cmd_train(args, config, out):
    split = Path(args.data) / "train"
    backbone = config.backbone_config()
    try:
        _, images, labels, _ = load_dataset(split, config.num_classes)
        backbone.check_input_dims(images.shape[1:], f"{split}: image")
    except ValueError as exc:
        raise CommandError("schema", str(exc))
    net = Network(backbone, seed=config.seed)
    history = train_baseline(
        net,
        images,
        labels,
        epochs=config.epochs,
        lr=config.lr,
        batch_size=config.batch_size,
    )
    save_checkpoint(out / "baseline.npz", net)
    lines = ["epoch,cls_loss"] + [f"{i},{v:.12f}" for i, v in enumerate(history)]
    atomic_write_bytes(out / "loss_log.csv", ("\n".join(lines) + "\n").encode())
    auc = mean_auc(predict_logits(net, images, config.batch_size), labels)
    print(f"checkpoint {out / 'baseline.npz'}; final train AUC {auc:.4f}")


def cmd_mine(args, config, out):
    data_dir = Path(args.data)
    try:
        net = load_checkpoint(args.checkpoint)
        _, train_images, train_labels, _ = load_dataset(data_dir / "train", net.num_classes)
        eval_ids, eval_images, eval_labels, _ = load_dataset(data_dir / "eval", net.num_classes)
        for split, images in (("train", train_images), ("eval", eval_images)):
            net.config.check_input_dims(images.shape[1:], f"{data_dir / split}: image")
    except ValueError as exc:
        raise CommandError("schema", str(exc))
    mining_config = config.mining_config()
    log = am_finetune(
        net,
        train_images,
        train_labels,
        mining_config,
        config.kp_config(),
        epochs=config.finetune_epochs,
        lr=config.finetune_lr,
        batch_size=config.batch_size,
        shuffle_seed=config.seed,
    )
    hm_dir = out / "heatmaps"
    eval_config = config.eval_config()
    boxes = []
    # one forked helper creates each chunk's PGM files, which costs kernel
    # time, while this process mines the next chunk; forked, it writes
    # through this module's bindings without a fresh import.  A fork makes
    # this process fault on its next write to each page it had, so a
    # one-chunk split, with no mining to overlap, is written here instead
    starts = range(0, len(eval_ids), config.batch_size)
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as writer:
        writes = []
        for start in starts:
            batch = slice(start, start + config.batch_size)
            mined = mine_final_heatmaps(
                net, eval_images[batch], eval_labels[batch], mining_config, config.batch_size
            )
            chunk = [(eval_ids[start + i], c, hm, mask) for i, c, hm, mask in mined]
            if len(starts) > 1:
                writes.append(writer.submit(_write_pgms, hm_dir, chunk))
            else:
                _write_pgms(hm_dir, chunk)
            for image_id, c, hm, _ in chunk:
                scale = eval_images.shape[1] // hm.shape[0]
                boxes.extend(extract_bboxes(hm, image_id, c, eval_config, scale=scale)[0])
        # a failed PGM write raises here, before the three files below exist
        for write in writes:
            write.result()
        save_checkpoint(out / "mined.npz", net)
        write_predictions(out / "predictions.jsonl", boxes)
        atomic_write_bytes(out / "finetune_log.json", json.dumps(log).encode())
    print(f"mined {len(boxes)} boxes over {len(eval_ids)} eval images into {out}")


def _write_pgms(hm_dir, chunk):
    """Write each (image_id, class, heatmap, mask) of `chunk` as two PGMs under `hm_dir`."""
    for image_id, c, hm, mask in chunk:
        write_heatmap_pgm(hm_dir / f"{image_id}_c{c}.pgm", hm)
        write_mask_pgm(hm_dir / f"{image_id}_c{c}_mask.pgm", mask)


def cmd_eval(args, config, out):
    try:
        predictions = read_predictions(args.predictions)
        gt_records = read_ground_truth(args.ground_truth)
    except ValueError as exc:
        raise CommandError("schema", str(exc))
    gt_by_class = ground_truth_by_class(gt_records)
    by_class = {cls: [] for cls in gt_by_class}
    for box in predictions:
        by_class.setdefault(box.cls, []).append(box)
    pools = {cls: build_pool(boxes) for cls, boxes in by_class.items()}
    rows, skipped = evaluate_report(pools, gt_by_class, config.eval_config())
    report_path = out / "report.csv"
    write_report_csv(report_path, rows)
    for cls in skipped:
        print(f"notice: class {cls} has no ground truth; omitted from report")
    print(f"report written to {report_path}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attnmine",
        description="Weakly supervised pattern localization mining pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", required=True)

    p = sub.add_parser("gen-data", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[common], help="train the baseline classifier")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("mine", parents=[common], help="masked fine-tuning and heatmap mining")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kp", dest="kp_mode")
    p.add_argument("--am-steps", type=int, dest="am_steps")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("eval", parents=[common], help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--ground-truth", required=True, dest="ground_truth")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    """Parse `argv`, load the config (a flag whose dest names a RunConfig
    field overrides it), run the command and record its run manifest."""
    args = build_parser().parse_args(argv)
    try:
        overrides = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
        config = RunConfig.load(args.config, **overrides)
        out = _output_dir(args.out)
        args.func(args, config, out)
        write_run_manifest(out, config, args.command)
    except CommandError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        # an input path that is missing, or a file where a directory belongs or vice versa
        why = " not found" if isinstance(exc, FileNotFoundError) else f": {exc.strerror}"
        print(f"error:missing-input: {exc.filename}{why}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error:runtime: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
