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
import sys
from dataclasses import asdict, dataclass, field
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
    patience: int = 0
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
        for a float) and make valid sub-configs, and `image_size` must be a
        positive multiple of the backbone's stride product; else
        CommandError("config").
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
        config = cls(**data)
        if config.batch_size < 1:
            raise CommandError("config", "batch_size must be >= 1")
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

    def dataset_config(self):
        return DatasetConfig(
            image_size=self.image_size,
            num_classes=self.num_classes,
            multi_instance_fraction=self.multi_instance_fraction,
        )

    def backbone_config(self):
        return BackboneConfig(
            stage_channels=list(self.stage_channels),
            stage_strides=list(self.stage_strides),
            msa_reduced_channels=tuple(self.msa_reduced_channels),
            num_classes=self.num_classes,
            use_msa=self.use_msa,
        )

    def mining_config(self):
        return MiningConfig(
            num_steps=self.am_steps,
            binarize_threshold=self.binarize_threshold,
            connectivity=self.connectivity,
            min_peak_ratio=self.min_peak_ratio,
        )

    def kp_config(self):
        return KPConfig(
            am_fraction=self.am_fraction, weight=self.kp_weight, mode=self.kp_mode
        )

    def eval_config(self):
        return EvalConfig(
            iou_thresholds=list(self.iou_thresholds),
            bbox_thresholds=list(self.bbox_thresholds),
            afp_upper_bound=self.afp_upper_bound,
        )


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


def cmd_gen_data(args):
    config = RunConfig.load(args.config, seed=args.seed)
    out = _output_dir(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise CommandError("exists", f"output dir {out} is not empty; use --force")
    out.mkdir(parents=True, exist_ok=True)
    ds_config = config.dataset_config()
    for split, count, seed_offset in (
        ("train", config.train_count, 0),
        ("eval", config.eval_count, 1),
    ):
        images, manifest = generate_dataset(config.seed + seed_offset, count, ds_config)
        save_dataset(out / split, images, manifest)
    write_run_manifest(out, config, "gen-data")
    print(f"wrote {config.train_count} train and {config.eval_count} eval images to {out}")
    return 0


def cmd_train(args):
    config = RunConfig.load(args.config, seed=args.seed)
    out = _output_dir(args.out)
    try:
        _, images, labels, _ = load_dataset(Path(args.data) / "train", config.num_classes)
    except ValueError as exc:
        raise CommandError("schema", str(exc))
    out.mkdir(parents=True, exist_ok=True)
    net = Network(config.backbone_config(), seed=config.seed)
    history = train_baseline(
        net,
        images,
        labels,
        epochs=config.epochs,
        lr=config.lr,
        batch_size=config.batch_size,
        patience=config.patience,
    )
    save_checkpoint(out / "baseline.npz", net)
    lines = ["epoch,cls_loss"] + [f"{i},{v:.12f}" for i, v in enumerate(history)]
    atomic_write_bytes(out / "loss_log.csv", ("\n".join(lines) + "\n").encode())
    auc = mean_auc(predict_logits(net, images), labels)
    write_run_manifest(out, config, "train")
    print(f"checkpoint {out / 'baseline.npz'}; final train AUC {auc:.4f}")
    return 0


def cmd_mine(args):
    config = RunConfig.load(
        args.config, seed=args.seed, kp_mode=args.kp, am_steps=args.am_steps
    )
    out = _output_dir(args.out)
    data_dir = Path(args.data)
    try:
        net = load_checkpoint(args.checkpoint)
        _, train_images, train_labels, _ = load_dataset(data_dir / "train", net.num_classes)
        eval_ids, eval_images, eval_labels, _ = load_dataset(data_dir / "eval", net.num_classes)
    except ValueError as exc:
        raise CommandError("schema", str(exc))
    out.mkdir(parents=True, exist_ok=True)
    log = am_finetune(
        net,
        train_images,
        train_labels,
        config.mining_config(),
        config.kp_config(),
        epochs=config.finetune_epochs,
        lr=config.finetune_lr,
        batch_size=config.batch_size,
        shuffle_seed=config.seed,
    )
    mined = mine_final_heatmaps(net, eval_images, eval_labels, config.mining_config())
    save_checkpoint(out / "mined.npz", net)
    hm_dir = out / "heatmaps"
    hm_dir.mkdir(exist_ok=True)
    eval_config = config.eval_config()
    boxes = []
    for i, image_id in enumerate(eval_ids):
        for c, (hm, mask) in sorted(mined[i].items()):
            write_heatmap_pgm(hm_dir / f"{image_id}_c{c}.pgm", hm)
            write_mask_pgm(hm_dir / f"{image_id}_c{c}_mask.pgm", mask)
            scale = eval_images.shape[1] // hm.shape[0]
            boxes.extend(extract_bboxes(hm, image_id, c, eval_config, scale=scale)[0])
    write_predictions(out / "predictions.jsonl", boxes)
    atomic_write_bytes(out / "finetune_log.json", json.dumps(log).encode())
    write_run_manifest(out, config, "mine")
    print(f"mined {len(boxes)} boxes over {len(eval_ids)} eval images into {out}")
    return 0


def cmd_eval(args):
    config = RunConfig.load(args.config, seed=args.seed)
    out = _output_dir(args.out)
    try:
        predictions = read_predictions(args.predictions)
        gt_records = read_ground_truth(args.ground_truth)
    except ValueError as exc:
        raise CommandError("schema", str(exc))
    eval_config = config.eval_config()
    gt_by_class = ground_truth_by_class(gt_records)
    per_class_images = {}
    for box in predictions:
        per_class_images.setdefault(box.cls, {}).setdefault(box.image_id, []).append(box)
    pools = {}
    for cls, by_image in per_class_images.items():
        ranked = [
            sorted(by_image[iid], key=lambda b: -b.score) for iid in sorted(by_image)
        ]
        pools[cls] = build_pool(ranked)
    for cls in gt_by_class:
        pools.setdefault(cls, [])
    rows, skipped = evaluate_report(pools, gt_by_class, eval_config)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.csv"
    write_report_csv(report_path, rows)
    for cls in skipped:
        print(f"notice: class {cls} has no ground truth; omitted from report")
    write_run_manifest(out, config, "eval")
    print(f"report written to {report_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attnmine",
        description="Weakly supervised pattern localization mining pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the baseline classifier")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("mine", help="masked fine-tuning and heatmap mining")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kp", choices=["off", "vanilla", "full"])
    p.add_argument("--am-steps", type=int, dest="am_steps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--predictions", required=True)
    p.add_argument("--ground-truth", required=True, dest="ground_truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
