import errno
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import attnmine
from attnmine.autodiff import Tensor
from attnmine.cli import CommandError, RunConfig, main
from attnmine.evalloc import EvalConfig, read_ground_truth, read_predictions
from attnmine.kp import KPConfig
from attnmine.mining import MiningConfig, run_am
from attnmine.model import BackboneConfig, load_checkpoint
from attnmine.synthetic import DatasetConfig, load_dataset, read_image_pgm

# a deliberately tiny configuration so pipeline tests stay fast
SMALL = {
    "train_count": 12,
    "eval_count": 6,
    "epochs": 2,
    "finetune_epochs": 2,
    "batch_size": 4,
}


COMMANDS = ["gen-data", "train", "mine", "eval"]


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture
def dataset(tmp_path, small_config):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", small_config, "--out", str(out)]) == 0
    return out


class TestRunConfig:
    def test_defaults_construct_subconfigs(self):
        config = RunConfig()
        assert config.mining_config().num_steps == 3
        assert config.kp_config().mode == "full"
        assert config.eval_config().afp_upper_bound == 10.0
        assert config.backbone_config().use_msa is True

        # every sub-config field away from both defaults, so a field that is
        # dropped or taken from the wrong RunConfig field shows
        config = RunConfig(
            image_size=96, num_classes=3, multi_instance_fraction=0.25,
            use_msa=False, stage_channels=[4, 8, 12], stage_strides=[1, 2, 2],
            msa_reduced_channels=[6, 5],
            am_steps=2, binarize_threshold=0.4, connectivity=4, min_peak_ratio=0.3,
            kp_mode="vanilla", kp_weight=0.25, am_fraction=0.375,
            bbox_thresholds=[0.8, 0.4], iou_thresholds=[0.3, 0.6], afp_upper_bound=4.0,
        )
        assert config.dataset_config() == DatasetConfig(
            image_size=96, num_classes=3, multi_instance_fraction=0.25
        )
        assert config.backbone_config() == BackboneConfig(
            stage_channels=[4, 8, 12], stage_strides=[1, 2, 2],
            msa_reduced_channels=(6, 5), num_classes=3, use_msa=False,
        )
        assert config.mining_config() == MiningConfig(
            num_steps=2, binarize_threshold=0.4, connectivity=4, min_peak_ratio=0.3
        )
        assert config.kp_config() == KPConfig(am_fraction=0.375, weight=0.25, mode="vanilla")
        assert config.eval_config() == EvalConfig(
            iou_thresholds=[0.3, 0.6], bbox_thresholds=[0.8, 0.4], afp_upper_bound=4.0
        )

    def test_zero_finetune_epochs_is_valid(self):
        # the mine-eval benchmark workload mines without fine-tuning
        assert RunConfig.load(finetune_epochs=0).finetune_epochs == 0

    def test_single_scale_backbone_may_end_at_stride_1(self):
        # only the aggregation head needs the last stage to halve its input
        config = RunConfig.load(stage_strides=[1, 2, 2, 1], use_msa=False)
        assert config.backbone_config().stage_strides == [1, 2, 2, 1]

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()
        # a removed knob is unknown too
        path.write_text(json.dumps({"patience": 3}))
        assert "unknown config keys: ['patience']" in config_error(
            capsys, tmp_path, "gen-data", "--config", str(path)
        )

    def test_flag_overrides_config(self, tmp_path, small_config):
        out = tmp_path / "d"
        assert main(["gen-data", "--config", small_config, "--seed", "5", "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 5

    @pytest.mark.parametrize(
        "text",
        [
            '{"epochs": 10',
            "[1, 2]",
            '{"epochs": "ten"}',
            '{"epochs": 10.0}',
            '{"use_msa": 1}',
            '{"lr": true}',
            '{"stage_channels": [8, "16", 32, 64]}',
            '{"kp_mode": "bogus"}',
            '{"batch_size": 0}',
            '{"image_size": 60}',
            '{"image_size": 32}',
            '{"image_size": 40}',
            '{"stage_strides": [1, 0, 2, 2]}',
        ],
    )
    def test_bad_config_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for command in COMMANDS:
            config_error(capsys, tmp_path, command, "--config", str(path))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("train_count", 0),
            ("eval_count", 0),
            ("seed", -1),
            ("lr", 0),
            ("finetune_lr", -0.05),
            ("msa_reduced_channels", [32]),
            ("msa_reduced_channels", [1, 2, 3]),
            ("msa_reduced_channels", []),
            ("bbox_thresholds", [1.5]),
            ("bbox_thresholds", [0.5, 0.0]),
            ("epochs", -1),
            ("epochs", 0),
            ("finetune_epochs", -2),
            ("iou_thresholds", []),
            ("iou_thresholds", [1.5]),
            ("iou_thresholds", [0.5, 0.0]),
            ("afp_upper_bound", -1.0),
            ("stage_channels", [0, 16, 32, 64]),
            ("stage_channels", [-1, 16, 32, 64]),
            ("stage_strides", [1, 2, 2, 1]),
            ("stage_strides", [2, 2, 2, 1]),
            # a JSON integer beyond float range
            *[
                pytest.param(key, 10**400, id=f"{key}-401-digits")
                for key in ("lr", "finetune_lr", "kp_weight", "afp_upper_bound")
            ],
            *[
                (key, value)
                for nonfinite in (float("nan"), float("inf"), float("-inf"))
                for key, value in (
                    ("lr", nonfinite),
                    ("finetune_lr", nonfinite),
                    ("kp_weight", nonfinite),
                    ("afp_upper_bound", nonfinite),
                    ("bbox_thresholds", [0.75, nonfinite, 0.25]),
                )
            ],
        ],
    )
    def test_out_of_range_value_is_config_error_naming_it(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: value}))
        for command in COMMANDS:
            assert key in config_error(capsys, tmp_path, command, "--config", str(path))

    def test_int_for_a_float_is_stored_as_a_float(self, tmp_path):
        # one run, one config hash: {"lr": 1} and {"lr": 1.0} are the same config
        dumps = set()
        for text in ('{"lr": 1, "bbox_thresholds": [1, 0.5]}', '{"lr": 1.0, "bbox_thresholds": [1.0, 0.5]}'):
            path = tmp_path / "c.json"
            path.write_text(text)
            config = RunConfig.load(str(path))
            assert type(config.lr) is float and type(config.bbox_thresholds[0]) is float
            dumps.add(json.dumps(asdict(config), sort_keys=True))
        assert len(dumps) == 1

    @settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        key=st.sampled_from(sorted(RunConfig.__dataclass_fields__)),
        value=st.sampled_from([
            math.nan, math.inf, -math.inf, -0.0, 1e308, 2**63, 10**400, "", [], {}, None, True,
        ]),
    )
    def test_hostile_value_is_config_error_or_finite_config(self, tmp_path, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        try:
            config = RunConfig.load(str(path))
        except CommandError as exc:
            assert exc.category == "config"
            return
        for name, default in asdict(RunConfig()).items():
            if isinstance(default[0] if isinstance(default, list) else default, float):
                got = getattr(config, name)
                for v in got if isinstance(got, list) else [got]:
                    assert type(v) is float and math.isfinite(v), name
        json.dumps(asdict(config), allow_nan=False)

    @pytest.mark.parametrize(
        "flags, commands",
        [(["--seed", "-1"], COMMANDS), (["--kp", "bogus"], ["mine"])],
        ids=["seed", "kp"],
    )
    def test_bad_flag_is_config_error(self, tmp_path, capsys, flags, commands):
        for command in commands:
            config_error(capsys, tmp_path, command, *flags)


def config_error(capsys, tmp_path, command, *flags):
    """stderr of `command` run with `flags` and inputs that do not exist; the
    run must exit 2 with one error:config: line and create no --out."""
    nope = str(tmp_path / "nope")
    inputs = {
        "gen-data": [],
        "train": ["--data", nope],
        "mine": ["--checkpoint", nope, "--data", nope],
        "eval": ["--predictions", nope, "--ground-truth", nope],
    }[command]
    out = tmp_path / "o"
    assert main([command, *inputs, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:config: ") and err.count("\n") == 1
    assert not out.exists()
    return err


class TestGenData:
    def test_writes_both_splits(self, dataset):
        for split, count in (("train", 12), ("eval", 6)):
            ids, images, labels, records = load_dataset(dataset / split, 4)
            assert len(ids) == count
            assert images.shape == (count, 64, 64)

    def test_refuses_nonempty_output_without_force(self, dataset, small_config, capsys):
        assert main(["gen-data", "--config", small_config, "--out", str(dataset)]) == 2
        assert "error:exists" in capsys.readouterr().err

    def test_force_overwrites(self, dataset, small_config):
        assert main(["gen-data", "--config", small_config, "--out", str(dataset), "--force"]) == 0

    def test_seed_changes_bytes_not_schema(self, tmp_path, small_config):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"d{seed}"
            assert main(["gen-data", "--config", small_config, "--seed", str(seed), "--out", str(out)]) == 0
            _, images, _, _ = load_dataset(out / "train", 4)
            outs.append(images)
        assert outs[0].shape == outs[1].shape
        assert outs[0].tobytes() != outs[1].tobytes()

    def test_writes_run_manifest(self, dataset):
        manifest = json.loads((dataset / "run_manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert len(manifest["config_sha256"]) == 64


class TestTrain:
    def test_smoke_checkpoint_and_loss_log(self, tmp_path, dataset, small_config):
        out = tmp_path / "model"
        assert main(["train", "--config", small_config, "--data", str(dataset), "--out", str(out)]) == 0
        net = load_checkpoint(out / "baseline.npz")
        assert net.config.use_msa
        lines = (out / "loss_log.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,cls_loss"
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(math.isfinite(v) for v in losses)

    def test_first_epoch_loss_near_ln2(self, tmp_path, dataset, small_config):
        # zero-initialized branches emit logit 0, so the per-class loss
        # starts at ln 2 and the first epoch mean stays in its vicinity
        out = tmp_path / "model"
        main(["train", "--config", small_config, "--data", str(dataset), "--out", str(out)])
        first = float((out / "loss_log.csv").read_text().splitlines()[1].split(",")[1])
        assert abs(first - math.log(2)) < 0.05

    @pytest.mark.parametrize("fault", ["missing", "not-0/1", "longer", "records-disagree"])
    def test_bad_manifest_labels_are_schema_errors(self, tmp_path, dataset, small_config, capsys, fault):
        path = dataset / "train" / "manifest.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        first = [r for r in records if r["image_id"] == records[0]["image_id"]]
        if fault == "missing":
            del first[0]["labels"]
        elif fault == "records-disagree":
            first[0]["labels"][0] = 1 - first[0]["labels"][0]
        for r in first:
            if fault == "not-0/1":
                r["labels"][0] = 2
            elif fault == "longer":
                r["labels"].append(0)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "m"
        assert main(["train", "--config", small_config, "--data", str(dataset), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:schema: ") and str(path) in err and err.count("\n") == 1
        assert not out.exists()

    def test_image_pgm_with_maxval_0_is_schema_error(self, tmp_path, dataset, small_config, capsys):
        path = next((dataset / "train" / "images").glob("*.pgm"))
        path.write_bytes(path.read_bytes().replace(b"\n255\n", b"\n0\n", 1))
        out = tmp_path / "m"
        assert main(["train", "--config", small_config, "--data", str(dataset), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:schema: ") and str(path) in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_parameters_are_not_saved(self, tmp_path, dataset, capsys):
        # one 12-image batch per epoch: the first step moves only the
        # zero-initialized branches, the second overflows the backbone
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps({**SMALL, "lr": 1e308, "batch_size": 16}))
        out = tmp_path / "m"
        assert main(["train", "--config", str(config), "--data", str(dataset), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:runtime: ") and "stage0_w" in err and err.count("\n") == 1
        assert not out.exists()

    def test_missing_dataset_rejected(self, tmp_path, small_config, capsys):
        code = main(["train", "--config", small_config, "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "error:missing-input" in capsys.readouterr().err


@pytest.fixture
def trained(tmp_path, dataset, small_config):
    out = tmp_path / "model"
    assert main(["train", "--config", small_config, "--data", str(dataset), "--out", str(out)]) == 0
    return out / "baseline.npz"


class TestMine:
    def test_outputs_schema(self, tmp_path, dataset, small_config, trained):
        out = tmp_path / "mine"
        assert main(["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)]) == 0
        assert (out / "mined.npz").exists()
        assert (out / "finetune_log.json").exists()
        boxes = read_predictions(out / "predictions.jsonl")
        for b in boxes:
            assert 0 <= b.x and b.x + b.w <= 64
            assert 0.0 <= b.score <= 1.0
        pgms = list((out / "heatmaps").glob("*_c*.pgm"))
        heat_pgms = [p for p in pgms if not p.name.endswith("_mask.pgm")]
        assert heat_pgms
        # mine writes normalized heatmaps, so the sidecar holds the unit range
        assert json.loads(Path(f"{heat_pgms[0]}.json").read_text()) == {"min": 0.0, "max": 1.0}
        assert attnmine.read_pgm(heat_pgms[0]).shape == (16, 16)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("batch_size, helper", [(4, True), (8, False)])
    def test_pgm_writer_failure_exits_1(self, tmp_path, dataset, trained, capsys, monkeypatch, batch_size, helper):
        # the 6 eval images make two chunks at batch size 4, whose PGMs a
        # forked helper writes, and one chunk at 8, written in this process;
        # the helper inherits the patch, and its error must reach main as
        # an in-process write error does
        writer_pids = tmp_path / "writer_pids.log"

        def full_disk(path, mask):
            with open(writer_pids, "a") as log:
                log.write(f"{os.getpid()}\n")
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        config = tmp_path / "batch.json"
        config.write_text(json.dumps({**SMALL, "batch_size": batch_size}))
        monkeypatch.setattr("attnmine.cli.write_mask_pgm", full_disk)
        code = main(["mine", "--config", str(config), "--checkpoint", str(trained), "--data", str(dataset), "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:runtime: ") and "No space left on device" in err
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []
        pids = set(writer_pids.read_text().split())
        assert len(pids) == 1 and (pids == {str(os.getpid())}) != helper
        # a failed run leaves no file that a finished one writes after its PGMs
        for name in ("mined.npz", "predictions.jsonl", "finetune_log.json"):
            assert not (tmp_path / "m" / name).exists()

    def test_forked_and_in_process_writes_match(self, tmp_path, dataset, trained):
        # 6 eval images: two chunks at batch size 4, written by the forked
        # helper, and one chunk at 8, written in this process; without
        # fine-tuning, the two runs mine the same network
        trees = {}
        for batch_size in (4, 8):
            config = tmp_path / f"batch{batch_size}.json"
            config.write_text(json.dumps({**SMALL, "finetune_epochs": 0, "batch_size": batch_size}))
            out = tmp_path / f"mine{batch_size}"
            assert main(["mine", "--config", str(config), "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)]) == 0
            trees[batch_size] = {
                p.relative_to(out): p.read_bytes()
                for p in out.rglob("*") if p.is_file() and p.name != "run_manifest.json"
            }
        assert any(p.name.endswith("_mask.pgm") for p in trees[4])
        assert trees[4] == trees[8]

    def test_kp_modes_differ_same_schema(self, tmp_path, dataset, small_config, trained):
        nets = {}
        for mode in ("off", "full"):
            out = tmp_path / f"mine-{mode}"
            assert main(["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--kp", mode, "--out", str(out)]) == 0
            nets[mode] = load_checkpoint(out / "mined.npz")
        assert set(nets["off"].params) == set(nets["full"].params)
        assert any(
            not np.array_equal(nets["off"].params[k].data, nets["full"].params[k].data)
            for k in nets["off"].params
        )

    def test_single_step_heatmaps_equal_plain_cams(self, tmp_path, dataset, small_config, trained):
        # one mining step means no erasure: the aggregate is the plain CAM
        out = tmp_path / "mine1"
        assert main(["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--am-steps", "1", "--out", str(out)]) == 0
        net = load_checkpoint(out / "mined.npz")
        ids, images, labels, _ = load_dataset(dataset / "eval", 4)
        from attnmine.mining import normalize01

        feat = net.forward_features(Tensor(images[..., None])).data
        checked = 0
        for i, image_id in enumerate(ids):
            for c in range(4):
                path = out / "heatmaps" / f"{image_id}_c{c}.pgm"
                if not path.exists():
                    continue
                expected, degenerate = normalize01(feat[i] @ net.branch_weight(c).data)
                assert not degenerate
                stored = attnmine.read_pgm(path)
                np.testing.assert_allclose(stored, expected, atol=2e-5)
                checked += 1
        assert checked > 0

    def test_mask_pgms_are_last_mining_masks(self, tmp_path, dataset, small_config, trained):
        # the masks come from the mining pass that made the heatmaps; a
        # fresh run on the mined checkpoint must reproduce each of them
        out = tmp_path / "mine"
        assert main(["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)]) == 0
        config = RunConfig.load(small_config)
        assert config.am_steps == 3
        net = load_checkpoint(out / "mined.npz")
        ids, images, _, _ = load_dataset(dataset / "eval", 4)
        feat = net.forward_features(Tensor(images[..., None])).data
        hm_dir = out / "heatmaps"
        masks = {p.name[: -len("_mask.pgm")] for p in hm_dir.glob("*_mask.pgm")}
        heats = {p.stem for p in hm_dir.glob("*.pgm") if not p.name.endswith("_mask.pgm")}
        assert masks and masks == heats
        for i, image_id in enumerate(ids):
            for c in range(config.num_classes):
                path = hm_dir / f"{image_id}_c{c}_mask.pgm"
                if not path.exists():
                    continue
                run = run_am(feat[i], net.branch_weight(c).data, config.mining_config())
                rows, cols = run.masks[-1].shape
                assert path.read_text().startswith(f"P2\n{cols} {rows}\n1\n")
                np.testing.assert_array_equal(np.loadtxt(path, skiprows=3, ndmin=2), run.masks[-1])

    def test_truncated_checkpoint_rejected(self, tmp_path, dataset, small_config, trained, capsys):
        checkpoint = tmp_path / "truncated.npz"
        checkpoint.write_bytes(trained.read_bytes()[:1000])
        out = tmp_path / "m"
        code = main(["mine", "--config", small_config, "--checkpoint", str(checkpoint), "--data", str(dataset), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:schema: ") and str(checkpoint) in err and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_checkpoint_rejected(self, tmp_path, dataset, small_config, trained, capsys):
        # save_checkpoint refuses non-finite parameters, so write the arrays directly
        with np.load(trained) as data:
            arrays = dict(data)
        arrays["stage0_w"][0, 0, 0, 0] = np.nan
        checkpoint = tmp_path / "nan.npz"
        np.savez(checkpoint, **arrays)
        out = tmp_path / "m"
        code = main(["mine", "--config", small_config, "--checkpoint", str(checkpoint), "--data", str(dataset), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:schema: ") and str(checkpoint) in err and "stage0_w" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_box_scale_from_mined_images(self, tmp_path, small_config):
        # the heatmap-to-image scale comes from the eval images, so a config
        # that leaves image_size at its default mines 128-px data the same
        config_128 = tmp_path / "config_128.json"
        config_128.write_text(json.dumps({**SMALL, "image_size": 128}))
        data, model = tmp_path / "data", tmp_path / "model"
        assert main(["gen-data", "--config", str(config_128), "--out", str(data)]) == 0
        assert main(["train", "--config", str(config_128), "--data", str(data), "--out", str(model)]) == 0
        predictions = []
        for name, config in (("with", config_128), ("without", small_config)):
            out = tmp_path / name
            assert main(["mine", "--config", str(config), "--checkpoint", str(model / "baseline.npz"), "--data", str(data), "--out", str(out)]) == 0
            predictions.append((out / "predictions.jsonl").read_bytes())
        assert predictions[0] and predictions[0] == predictions[1]

    def test_missing_checkpoint_rejected(self, tmp_path, dataset, small_config, capsys):
        code = main(["mine", "--config", small_config, "--checkpoint", str(tmp_path / "no.npz"), "--data", str(dataset), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "error:missing-input" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("key", ["finetune_lr", "kp_weight"])
    def test_overflowing_finetune_leaves_no_out(self, tmp_path, dataset, trained, capsys, key):
        # a finite but huge value overflows the fine-tuning before mine's first write
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps({**SMALL, key: 1e308}))
        out = tmp_path / "m"
        code = main(["mine", "--config", str(config), "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:runtime: ") and err.count("\n") == 1
        assert not out.exists()


class TestMissingInput:
    @pytest.mark.parametrize("missing", ["eval-split", "image", "predictions", "ground-truth"])
    def test_missing_input_exits_2_before_work(self, tmp_path, dataset, small_config, trained, capsys, monkeypatch, missing):
        def no_finetune(*args, **kwargs):
            pytest.fail("fine-tuning started with an input missing")

        monkeypatch.setattr("attnmine.cli.am_finetune", no_finetune)
        out, pred = tmp_path / "out", tmp_path / "pred.jsonl"
        pred.write_text("")
        gt = dataset / "eval" / "manifest.jsonl"
        mine = ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)]
        ev = ["eval", "--predictions", str(pred), "--ground-truth", str(gt), "--out", str(out)]
        argv, gone = {
            "eval-split": (mine, gt),
            "image": (mine, dataset / "eval" / "images" / "img0003.pgm"),
            "predictions": (ev, pred),
            "ground-truth": (ev, gt),
        }[missing]
        if missing == "eval-split":
            shutil.rmtree(dataset / "eval")
        else:
            gone.unlink()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error:missing-input: {gone} not found\n"
        assert not out.exists()


class TestLabelWidth:
    @pytest.mark.parametrize("command, split", [("train", "train"), ("mine", "train"), ("mine", "eval")])
    def test_label_width_must_match_class_count(self, tmp_path, dataset, small_config, trained, capsys, command, split):
        path = dataset / split / "manifest.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for r in records:
            r["labels"].append(0)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", small_config, "--data", str(dataset), "--out", str(out)],
            "mine": ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:schema: ") and str(path) in err and err.count("\n") == 1
        assert not out.exists()


class TestImageDims:
    @pytest.mark.parametrize("command, split", [("train", "train"), ("mine", "train"), ("mine", "eval")])
    def test_split_images_must_fit_the_backbone(self, tmp_path, dataset, small_config, trained, capsys, command, split):
        # 60 is not a multiple of the default backbone's stride product, 8
        for path in (dataset / split / "images").glob("*.pgm"):
            attnmine.write_pgm(path, read_image_pgm(path)[:60, :60], 255)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", small_config, "--data", str(dataset), "--out", str(out)],
            "mine": ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:schema: ") and err.count("\n") == 1
        assert f"{dataset / split}: image spatial dims (60, 60) must be positive multiples of 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, split", [("train", "train"), ("mine", "eval")])
    def test_zero_size_images_rejected(self, tmp_path, dataset, small_config, trained, capsys, command, split):
        for path in (dataset / split / "images").glob("*.pgm"):
            path.write_bytes(b"P5\n0 0\n255\n")
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", small_config, "--data", str(dataset), "--out", str(out)],
            "mine": ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:schema: ") and err.count("\n") == 1
        assert f"{dataset / split}: image spatial dims (0, 0) must be positive multiples of 8" in err
        assert not out.exists()


    @pytest.mark.parametrize("command, split", [("train", "train"), ("mine", "eval")])
    def test_truncated_image_is_schema_error_naming_it(self, tmp_path, dataset, small_config, trained, capsys, command, split):
        path = sorted((dataset / split / "images").glob("*.pgm"))[1]
        path.write_bytes(path.read_bytes()[:40])
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", small_config, "--data", str(dataset), "--out", str(out)],
            "mine": ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error:schema: {path}: PGM has 27 sample bytes, its 64x64 header needs 4096\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, split", [("train", "train"), ("mine", "train"), ("mine", "eval")])
    def test_mixed_image_sizes_are_schema_error_naming_the_split(self, tmp_path, dataset, small_config, trained, capsys, command, split):
        paths = sorted((dataset / split / "images").glob("*.pgm"))
        attnmine.write_pgm(paths[2], read_image_pgm(paths[2])[:32, :32], 255)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", small_config, "--data", str(dataset), "--out", str(out)],
            "mine": ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error:schema: {dataset / split}: image {paths[2].stem} is (32, 32),"
            f" image {paths[0].stem} is (64, 64)\n"
        )
        assert not out.exists()


class TestEmptyManifest:
    @pytest.mark.parametrize("command, split", [("train", "train"), ("mine", "train"), ("mine", "eval")])
    def test_empty_manifest_is_schema_error_naming_it(self, tmp_path, dataset, small_config, trained, capsys, command, split):
        path = dataset / split / "manifest.jsonl"
        path.write_text("")
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--config", small_config, "--data", str(dataset), "--out", str(out)],
            "mine": ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error:schema: {path}: no records\n"
        assert not out.exists()


class TestWrongKindPath:
    @pytest.mark.parametrize(
        "command, arg",
        [
            ("mine", "--checkpoint"),
            ("eval", "--predictions"),
            ("eval", "--ground-truth"),
            ("train", "--data"),
            ("mine", "--data"),
            ("gen-data", "--out"),
            ("train", "--out"),
            ("mine", "--out"),
            ("eval", "--out"),
        ],
    )
    def test_wrong_kind_path_exits_2_before_work(self, tmp_path, dataset, small_config, trained, capsys, monkeypatch, command, arg):
        for work in ("generate_dataset", "train_baseline", "am_finetune", "evaluate_report"):
            monkeypatch.setattr(f"attnmine.cli.{work}", lambda *a, **k: pytest.fail(f"{command} started work"))
        out, pred = tmp_path / "out", tmp_path / "pred.jsonl"
        pred.write_text("")
        argv = {
            "gen-data": ["gen-data", "--config", small_config, "--out", str(out)],
            "train": ["train", "--config", small_config, "--data", str(dataset), "--out", str(out)],
            "mine": ["mine", "--config", small_config, "--checkpoint", str(trained), "--data", str(dataset), "--out", str(out)],
            "eval": ["eval", "--predictions", str(pred), "--ground-truth", str(dataset / "eval" / "manifest.jsonl"), "--out", str(out)],
        }[command]
        # a file where a directory belongs, a directory where a file belongs
        wrong = tmp_path / "wrong"
        if arg in ("--data", "--out"):
            wrong.write_text("")
        else:
            wrong.mkdir()
        argv[argv.index(arg) + 1] = str(wrong)
        assert main(argv) == 2
        err = capsys.readouterr().err
        category = "exists" if arg == "--out" else "missing-input"
        assert err.startswith(f"error:{category}: ") and str(wrong) in err and err.count("\n") == 1
        assert not out.exists() and wrong.exists()


class TestEval:
    def _write_jsonl(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_perfect_predictions(self, tmp_path):
        gt = [
            {"image_id": f"img{i}", "class": 0, "boxes": [[4, 6, 10, 8]], "labels": [1]}
            for i in range(3)
        ]
        preds = [
            {"image_id": f"img{i}", "class": 0, "x": 4, "y": 6, "w": 10, "h": 8, "score": 0.9}
            for i in range(3)
        ]
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        self._write_jsonl(gt_path, gt)
        self._write_jsonl(pred_path, preds)
        out = tmp_path / "eval"
        assert main(["eval", "--predictions", str(pred_path), "--ground-truth", str(gt_path), "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().strip().splitlines()
        assert rows[0] == "class,t_iou,acc,afp,boxes_used"
        for row in rows[1:]:
            _, _, acc, afp, _ = row.split(",")
            assert float(acc) == 1.0
            assert float(afp) == 0.0

    def test_empty_predictions(self, tmp_path):
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        self._write_jsonl(gt_path, [{"image_id": "a", "class": 0, "boxes": [[0, 0, 4, 4]], "labels": [1]}])
        pred_path.write_text("")
        out = tmp_path / "eval"
        assert main(["eval", "--predictions", str(pred_path), "--ground-truth", str(gt_path), "--out", str(out)]) == 0
        for row in (out / "report.csv").read_text().strip().splitlines()[1:]:
            _, _, acc, afp, _ = row.split(",")
            assert float(acc) == 0.0
            assert float(afp) == 0.0

    def test_schema_violation_reports_line(self, tmp_path, capsys):
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        self._write_jsonl(gt_path, [{"image_id": "a", "class": 0, "boxes": [], "labels": [0]}])
        pred_path.write_text('{"image_id": "a", "class": 0, "x": 1}\n')
        code = main(["eval", "--predictions", str(pred_path), "--ground-truth", str(gt_path), "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:schema" in err
        assert ":1:" in err

    @pytest.mark.parametrize(
        "name, line",
        [
            ("pred", "[]"),
            ("pred", "1"),
            ("pred", "null"),
            ("pred", '{"image_id": "a", "class": [0], "x": 1, "y": 1, "w": 2, "h": 2}'),
            ("gt", "[]"),
            ("gt", '{"image_id": "a", "class": 0, "boxes": [0], "labels": [1]}'),
            ("gt", '{"image_id": "a", "class": 0, "boxes": [[0, 0, 4]], "labels": [1]}'),
            ("gt", '{"image_id": "a", "class": 0, "boxes": [[0, 0, 0, 4]], "labels": [1]}'),
            ("pred", '{"image_id": "a", "class": 0, "x": 16.9, "y": 1, "w": 2, "h": 2}'),
            ("pred", '{"image_id": "a", "class": 0, "x": true, "y": 1, "w": 2, "h": 2}'),
            ("pred", '{"image_id": "a", "class": 0, "x": 1, "y": 1, "w": 2, "h": 2, "score": NaN}'),
            ("pred", '{"image_id": "a", "class": 0, "x": 1, "y": 1, "w": 2, "h": 2, "score": Infinity}'),
            ("pred", '{"image_id": "a", "class": 0, "x": 1, "y": 1, "w": 2, "h": 2, "score": true}'),
            ("gt", '{"image_id": "a", "class": 0, "boxes": [[16.5, 0, 4, 4]], "labels": [1]}'),
            # an image_id must be a JSON string: 5 and ["5"] are not the image "5"
            ("gt", '{"image_id": 5, "class": 0, "boxes": [[0, 0, 4, 4]], "labels": [1]}'),
            ("pred", '{"image_id": 5, "class": 0, "x": 0, "y": 0, "w": 4, "h": 4}'),
            ("pred", '{"image_id": ["5"], "class": 0, "x": 0, "y": 0, "w": 4, "h": 4}'),
        ],
    )
    def test_unreadable_record_is_schema_error(self, tmp_path, capsys, name, line):
        paths = {"gt": tmp_path / "gt.jsonl", "pred": tmp_path / "pred.jsonl"}
        self._write_jsonl(paths["gt"], [{"image_id": "a", "class": 0, "boxes": [[0, 0, 4, 4]], "labels": [1]}])
        paths["pred"].write_text("")
        paths[name].write_text(line + "\n")
        code = main(["eval", "--predictions", str(paths["pred"]), "--ground-truth", str(paths["gt"]), "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error:schema: {paths[name]}:1: ")


# record keys of every JSON format the readers parse, so that generated
# objects reach the field conversions and not only the key lookups
RECORD_KEYS = ["image_id", "class", "x", "y", "w", "h", "score", "boxes", "labels"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(RECORD_KEYS), inner, max_size=8),
    max_leaves=12,
)
HEADERS = [b"P5\n", b"P5\n2 1\n255\n", b"P5\n1 1\n65535\n", b"P2\n", b"P2\n2 1\n1\n"]
FILE_BYTES = st.one_of(
    st.binary(max_size=32),
    st.tuples(st.sampled_from(HEADERS), st.binary(max_size=4)).map(b"".join),
    st.tuples(st.sampled_from(HEADERS), st.text("01 -\n", max_size=6)).map(
        lambda t: t[0] + t[1].encode()
    ),
    st.lists(JSON_VALUES.map(lambda v: json.dumps(v).encode()), max_size=3).map(b"\n".join),
)


class TestReaders:
    @pytest.mark.parametrize(
        "reader",
        [read_image_pgm, read_predictions, read_ground_truth],
        ids=lambda f: f.__name__,
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=FILE_BYTES)
    def test_arbitrary_bytes_read_or_raise_value_error(self, tmp_path, reader, payload):
        path = tmp_path / "f.pgm"
        path.write_bytes(payload)
        try:
            reader(path)
        except ValueError:
            pass

    @pytest.mark.parametrize(
        "pgm, error",
        [
            (b"P5\n2 1\n0\n\x00\x00", "maxval 0 is outside 1..65535"),
            (b"P5\n1 1\n65536\n\x00\x00", "maxval 65536 is outside 1..65535"),
            (b"P5\n2 1\n10\n\x05\xff", "sample 255 exceeds maxval 10"),
            (b"P5\n1 1\n300\n\x01\x2d", "sample 301 exceeds maxval 300"),
            (b"P5\n2 2\n255\n\x00\x00\x00", "3 sample bytes, its 2x2 header needs 4"),
            (b"P5\n2 1\n255\n\x00\x00\x00", "3 sample bytes, its 2x1 header needs 2"),
            (b"P5\n1 1\n300\n\x01", "1 sample bytes, its 1x1 header needs 2"),
        ],
    )
    def test_pgm_maxval_and_samples_checked(self, tmp_path, pgm, error):
        path = tmp_path / "f.pgm"
        path.write_bytes(pgm)
        with pytest.raises(ValueError, match=error) as exc:
            read_image_pgm(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "pgm, expected",
        [(b"P5\n2 1\n1\n\x00\x01", [[0.0, 1.0]]), (b"P5\n1 1\n65535\n\xff\xff", [[1.0]])],
    )
    def test_pgm_maxval_range_ends_read(self, tmp_path, pgm, expected):
        path = tmp_path / "f.pgm"
        path.write_bytes(pgm)
        np.testing.assert_array_equal(read_image_pgm(path), expected)


class TestAtomicOutputs:
    def test_every_output_renamed_into_place_with_umask_mode(self, tmp_path, small_config, monkeypatch):
        # renames go to a log file, not a set in this process, because
        # `mine`'s forked PGM writer renames too
        renames = tmp_path / "renames.log"
        replace = os.replace

        def recording_replace(src, dst):
            replace(src, dst)
            with open(renames, "a") as log:
                log.write(f"{dst}\n")

        monkeypatch.setattr(os, "replace", recording_replace)
        data, model, mine, ev = (tmp_path / name for name in ("data", "model", "mine", "eval"))
        umask = os.umask(0o027)
        try:
            assert main(["gen-data", "--config", small_config, "--out", str(data)]) == 0
            assert main(["train", "--config", small_config, "--data", str(data), "--out", str(model)]) == 0
            assert main(["mine", "--config", small_config, "--checkpoint", str(model / "baseline.npz"), "--data", str(data), "--out", str(mine)]) == 0
            assert main(["eval", "--config", small_config, "--predictions", str(mine / "predictions.jsonl"), "--ground-truth", str(data / "eval" / "manifest.jsonl"), "--out", str(ev)]) == 0
        finally:
            os.umask(umask)
        files = {p for tree in (data, model, mine, ev) for p in tree.rglob("*") if p.is_file()}
        placed = {Path(line) for line in renames.read_text().splitlines()}
        assert any(p.name.endswith("_mask.pgm") for p in files)
        assert sorted(files - placed) == []
        assert {oct(p.stat().st_mode & 0o777) for p in files} == {oct(0o666 & ~0o027)}

    def test_writer_creates_missing_directories_with_umask_mode(self, tmp_path):
        umask = os.umask(0o027)
        try:
            attnmine.atomic_write_bytes(tmp_path / "a" / "b" / "f.txt", b"x")
        finally:
            os.umask(umask)
        assert (tmp_path / "a" / "b" / "f.txt").read_bytes() == b"x"
        for d in (tmp_path / "a", tmp_path / "a" / "b"):
            assert oct(d.stat().st_mode & 0o777) == oct(0o777 & ~0o027)
        # a path under a file is no directory to create
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(NotADirectoryError):
            attnmine.atomic_write_bytes(blocker / "sub" / "f.txt", b"x")
        assert blocker.read_text() == "" and sorted(p.name for p in tmp_path.iterdir()) == ["a", "file"]


class TestEntryPoint:
    def test_module_invocation(self):
        # the subprocess finds the package where this process imported it,
        # installed or not
        src = str(Path(attnmine.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "attnmine.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout
