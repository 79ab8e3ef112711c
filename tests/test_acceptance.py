"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single ``CRITERION <n>: PASS`` line (visible with -v
through the test id) and pins golden values established by oracle runs,
so any behavioral regression — numeric or structural — turns the
corresponding criterion red.  The heavyweight fixtures (a fully trained
baseline and its fine-tuned variants) are module-scoped and shared.
"""

import json
import time

import numpy as np
import pytest

from attnmine import autodiff as ad
from attnmine.autodiff import Tensor
from attnmine.cli import main
from attnmine.evalloc import (
    BBox,
    EvalConfig,
    build_pool,
    evaluate,
    extract_bboxes,
    iou,
)
from attnmine.gradcheck import finite_diff_check
from attnmine.kp import (
    DEFAULT_LAYERS,
    KPConfig,
    combined_loss,
    gap_drift,
    kp_layer_loss,
    kp_total_loss,
)
from attnmine.mining import (
    MiningConfig,
    aggregate_final_heatmap,
    compute_cam,
    normalize01,
    run_am,
)
from attnmine.model import (
    BackboneConfig,
    Network,
    all_ones_masks,
    load_checkpoint,
    save_checkpoint,
)
from attnmine.synthetic import DatasetConfig, generate_dataset
from attnmine.train import (
    am_finetune,
    mean_auc,
    mine_final_heatmaps,
    predict_logits,
    train_baseline,
)

# wall-clock cost of shared fixtures, charged to the criteria that use them
FIXTURE_SECONDS = {}


def _labels_from_manifest(manifest):
    by_img = {}
    for rec in manifest:
        by_img.setdefault(rec["image_id"], {})[rec["class"]] = rec
    ids = sorted(by_img)
    labels = np.array([by_img[i][0]["labels"] for i in ids], dtype=np.float64)
    return ids, labels, by_img


@pytest.fixture(scope="module")
def train_split():
    images, manifest = generate_dataset(42, 200, DatasetConfig(multi_instance_fraction=0.5))
    _, labels, _ = _labels_from_manifest(manifest)
    return images, labels


@pytest.fixture(scope="module")
def two_instance_split():
    images, manifest = generate_dataset(123, 200, DatasetConfig(multi_instance_fraction=1.0))
    ids, labels, by_img = _labels_from_manifest(manifest)
    return images, ids, labels, by_img


@pytest.fixture(scope="module")
def baseline_path(tmp_path_factory, train_split):
    images, labels = train_split
    start = time.time()
    net = Network(BackboneConfig(), seed=42)
    train_baseline(net, images, labels, epochs=200, lr=0.5, batch_size=16)
    FIXTURE_SECONDS["baseline"] = time.time() - start
    assert mean_auc(predict_logits(net, images), labels) == 1.0
    path = tmp_path_factory.mktemp("ckpt") / "baseline.npz"
    save_checkpoint(path, net)
    return path


def _finetune(baseline_path, train_split, num_steps, mode):
    images, labels = train_split
    net = load_checkpoint(baseline_path)
    config = MiningConfig(num_steps=num_steps, min_peak_ratio=0.6)
    am_finetune(net, images, labels, config, KPConfig(mode=mode), epochs=24, lr=0.05)
    return net


@pytest.fixture(scope="module")
def finetuned_t3_path(tmp_path_factory, baseline_path, train_split):
    """The T=3 full-regularization fine-tune, shared by three criteria."""
    start = time.time()
    net = _finetune(baseline_path, train_split, 3, "full")
    FIXTURE_SECONDS["finetune_t3"] = time.time() - start
    path = tmp_path_factory.mktemp("ckpt-ft") / "finetuned_t3.npz"
    save_checkpoint(path, net)
    return path


def _small_net_and_input(seed, rng):
    """A tiny network plus input kept away from ReLU kinks for stable
    finite differences."""
    cfg = BackboneConfig(
        stage_channels=[2, 3],
        stage_strides=[1, 2],
        msa_reduced_channels=(2, 2),
        num_classes=2,
    )
    for attempt in range(30):
        net = Network(cfg, seed=seed + 1000 * attempt)
        for k, p in net.params.items():
            if k.endswith("_b"):
                p.data += 0.3
        for c in range(2):
            net.params[f"branch{c}_w"].data = rng.normal(0, 0.5, 4)
        x = rng.uniform(0.1, 1.0, (2, 8, 8, 1))
        if net.relu_kink_margin(Tensor(x)) > 1e-3:
            return net, x
    raise AssertionError("could not find a kink-free configuration")


def test_criterion_1_composed_loss_gradient_check():
    """Full composed loss (masked classification + weighted drift over all
    preserved layers) passes finite-difference checking at 100 seeded
    configurations with max relative error < 1e-4, in under 2 minutes."""
    start = time.time()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        net, x = _small_net_and_input(5000 + trial, rng)
        frozen = net.snapshot()
        for p in frozen.params.values():
            p.data += rng.normal(0, 0.05, p.data.shape)
        labels = (rng.uniform(size=(1, 2)) < 0.5).astype(float)
        masks = np.ones((2, 1, 8, 8))
        if rng.uniform() < 0.5:
            masks[rng.integers(2), 0, 2:5, 2:5] = 0
        weight = float(rng.choice([0.3, 0.5, 1.0]))

        def loss_fn(params):
            am = Tensor(x[:1])
            kp = Tensor(x[1:])
            feat = net.forward_features(am)
            cls = net.classification_loss(feat, masks, labels)
            cap_a, cap_b = {}, {}
            frozen.forward_features(kp, capture=cap_a)
            net.forward_features(kp, capture=cap_b)
            drift = kp_total_loss(
                [kp_layer_loss(cap_a[n], cap_b[n]) for n in DEFAULT_LAYERS]
            )
            return combined_loss(cls, drift, weight)

        rep = finite_diff_check(
            loss_fn, net.param_list(), max_coords=3, rng=np.random.default_rng(trial)
        )
        assert rep.passed, f"trial {trial}: max rel err {rep.max_rel_error}"
        worst = max(worst, rep.max_rel_error)
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 120, f"gradient check took {elapsed:.0f}s"
    print(f"CRITERION 1: PASS — max rel error {worst:.2e} over 100 configs, {elapsed:.0f}s")


class TestCriterion2Identities:
    """Bit-exact structural identities of the loss composition."""

    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(77)
        net, x = _small_net_and_input(77, rng)
        feat = net.forward_features(Tensor(x))
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        return net, x, feat, labels

    def test_all_ones_mask_is_identity(self, setup):
        net, x, feat, labels = setup
        ones = all_ones_masks(2, *feat.shape[:3])
        masked = net.classification_loss(feat, ones, labels)
        unmasked = ad.mean_of(
            [
                ad.sigmoid_bce(net.branch_logits(feat, c), labels[:, c])
                for c in range(2)
            ]
        )
        assert float(masked.data) == float(unmasked.data)
        w = net.branch_weight(0).data
        cam = compute_cam(feat.data[0], np.ones(feat.shape[1:3]), w)
        assert np.array_equal(cam, feat.data[0] @ w)

    def test_single_step_aggregate_is_plain_cam(self, setup):
        net, x, feat, labels = setup
        rng = np.random.default_rng(3)
        f = rng.normal(size=(6, 6, 4))
        w = rng.normal(size=4)
        run = run_am(f, w, MiningConfig(num_steps=1))
        assert run.steps_completed == 1
        final = aggregate_final_heatmap(run.heatmaps, run.masks)
        plain, _ = normalize01(compute_cam(f, np.ones((6, 6)), w))
        assert np.array_equal(final, plain)

    def test_identical_partitions_zero_drift(self, setup):
        net, x, feat, labels = setup
        cap = {}
        fa = net.forward_features(Tensor(x), capture=cap)
        drift = kp_total_loss([kp_layer_loss(fa, fa)])
        assert float(drift.data) == 0.0
        cls = net.classification_loss(feat, all_ones_masks(2, *feat.shape[:3]), labels)
        total = combined_loss(cls, drift, 0.5)
        assert float(total.data) == float(cls.data)
        assert combined_loss(cls, None, 0.5) is cls

    def test_zero_weight_matches_partition_only_mode(self):
        images, manifest = generate_dataset(7, 20, DatasetConfig())
        _, labels, _ = _labels_from_manifest(manifest)
        config = MiningConfig(num_steps=2)
        nets = {}
        logs = {}
        for mode, weight in (("full", 0.0), ("vanilla", 0.5)):
            net = Network(BackboneConfig(), seed=9)
            log = am_finetune(
                net, images, labels, config,
                KPConfig(mode=mode, weight=weight), epochs=4, lr=0.1,
            )
            nets[mode] = net
            logs[mode] = [entry["cls_loss"] for entry in log]
        assert logs["full"] == logs["vanilla"]
        for k in nets["full"].params:
            assert np.array_equal(
                nets["full"].params[k].data, nets["vanilla"].params[k].data
            ), k
        print("CRITERION 2: PASS — all four identities hold bit-exactly")


def test_criterion_3_mining_structural_properties():
    """500 seeded erase-and-remine runs: masks stay binary and monotone,
    heatmap support never leaves the live mask, every completed step
    strictly shrinks the mask, and erased cells never re-activate."""
    violations = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        f = rng.normal(0, 1, (8, 8, 5))
        w = rng.normal(0, 1, 5)
        config = MiningConfig(
            num_steps=int(rng.integers(1, 5)),
            binarize_threshold=float(rng.choice([0.25, 0.5, 0.75])),
            connectivity=int(rng.choice([4, 8])),
        )
        run = run_am(f, w, config)
        for mask in run.masks:
            if not np.all((mask == 0) | (mask == 1)):
                violations += 1
        for t in range(run.steps_completed):
            prev, nxt = run.masks[t], run.masks[t + 1]
            if np.any(nxt > prev):  # monotone: erased cells stay erased
                violations += 1
            # a positive live peak must be erased; with an all-negative
            # live region the global max sits on erased zeros and the
            # step is a no-op, which monotonicity still covers
            if run.raw_heatmaps[t][prev == 1].max() > 0 and nxt.sum() >= prev.sum():
                violations += 1
            if np.any(run.raw_heatmaps[t][prev == 0] != 0):  # support in mask
                violations += 1
            for later in run.raw_heatmaps[t + 1 :]:
                if np.any(later[nxt == 0] != 0):  # no re-activation
                    violations += 1
    assert violations == 0
    print("CRITERION 3: PASS — zero structural violations over 500 runs")


def _second_instance_recall(net, two_instance_split, num_steps):
    images, ids, labels, by_img = two_instance_split
    config = MiningConfig(num_steps=num_steps, min_peak_ratio=0.6)
    heatmaps = mine_final_heatmaps(net, images, labels, config)
    eval_config = EvalConfig()
    hits = total = 0
    for idx, image_id in enumerate(ids):
        for c, (heat, _) in heatmaps.get(idx, {}).items():
            gts = [BBox(image_id, c, *b) for b in by_img[image_id][c]["boxes"]]
            if len(gts) < 2:
                continue
            boxes, _ = extract_bboxes(heat, image_id, c, eval_config, scale=4)
            total += 1
            if any(iou(b, gts[1]) >= 0.3 for b in boxes):
                hits += 1
    return hits, total


def test_criterion_4_multi_instance_mining_recall(
    baseline_path, train_split, finetuned_t3_path, two_instance_split
):
    """On the two-instance eval split, second-instance recall at IoU 0.3
    is strictly higher with three mining steps than with one, and the
    golden counts from the pinned oracle run reproduce exactly."""
    start = time.time()
    net_t1 = _finetune(baseline_path, train_split, 1, "full")
    hits_t1, total_t1 = _second_instance_recall(net_t1, two_instance_split, 1)
    net_t3 = load_checkpoint(finetuned_t3_path)
    hits_t3, total_t3 = _second_instance_recall(net_t3, two_instance_split, 3)
    elapsed = time.time() - start + FIXTURE_SECONDS.get("finetune_t3", 0.0)

    assert total_t1 == total_t3 == 382
    assert hits_t3 > hits_t1
    # golden counts pinned from the oracle run of this exact procedure
    assert (hits_t1, hits_t3) == (18, 23)
    assert elapsed < 600, f"mining comparison took {elapsed:.0f}s"
    print(
        f"CRITERION 4: PASS — second-instance recall {hits_t1}/382 (T=1) "
        f"vs {hits_t3}/382 (T=3), margin +{hits_t3 - hits_t1}, {elapsed:.0f}s"
    )


# held-out GAP drift per preserved layer, pinned from the oracle run
DRIFT_GOLDEN = {
    "off": [39.166, 71.924, 111.127, 252.119],
    "vanilla": [21.652, 49.912, 86.654, 221.225],
    "full": [5.827, 14.202, 31.442, 92.360],
}


def test_criterion_5_drift_ordering(
    baseline_path, train_split, finetuned_t3_path, two_instance_split
):
    """After fine-tuning, held-out GAP drift from the frozen snapshot is
    smallest with the full regularizer and largest with no preservation,
    layer by layer."""
    images = two_instance_split[0]
    base = load_checkpoint(baseline_path)
    drifts = {}
    for mode in ("off", "vanilla"):
        net = _finetune(baseline_path, train_split, 3, mode)
        drifts[mode] = gap_drift(base, net, images)
    drifts["full"] = gap_drift(base, load_checkpoint(finetuned_t3_path), images)
    for i, layer in enumerate(DEFAULT_LAYERS):
        off, van, full = (drifts[m][layer] for m in ("off", "vanilla", "full"))
        assert full < van < off, f"{layer}: full {full} vanilla {van} off {off}"
        for mode in drifts:
            np.testing.assert_allclose(
                drifts[mode][layer], DRIFT_GOLDEN[mode][i], atol=5e-3
            )
    summary = "; ".join(
        f"{layer} {drifts['full'][layer]:.1f}<{drifts['vanilla'][layer]:.1f}"
        f"<{drifts['off'][layer]:.1f}"
        for layer in DEFAULT_LAYERS
    )
    print(f"CRITERION 5: PASS — drift full<vanilla<off per layer ({summary})")


class TestCriterion6MetricOracles:
    def test_iou_matches_pixel_counting(self):
        rng = np.random.default_rng(99)
        grid = 80
        for _ in range(1000):
            ax, ay, bx, by = rng.integers(0, 60, 4)
            aw, ah, bw, bh = rng.integers(1, 20, 4)
            a = BBox("i", 0, int(ax), int(ay), int(aw), int(ah))
            b = BBox("i", 0, int(bx), int(by), int(bw), int(bh))
            pa = np.zeros((grid, grid), bool)
            pb = np.zeros((grid, grid), bool)
            pa[ay : ay + ah, ax : ax + aw] = True
            pb[by : by + bh, bx : bx + bw] = True
            brute = (pa & pb).sum() / (pa | pb).sum()
            assert iou(a, b) == brute

    def test_hand_traced_accuracy_and_false_positives(self):
        gt = {
            "A": [BBox("A", 0, 10, 10, 10, 10)],
            "B": [BBox("B", 0, 30, 30, 8, 8)],
            "C": [BBox("C", 0, 50, 50, 6, 6)],
            "D": [BBox("D", 0, 5, 40, 10, 10)],
            "E": [BBox("E", 0, 40, 5, 12, 12)],
        }
        pool = [
            BBox("A", 0, 10, 10, 10, 10, 0.9),  # hit
            BBox("B", 0, 0, 0, 5, 5, 0.8),      # miss
            BBox("B", 0, 30, 30, 8, 8, 0.7),    # hit
            BBox("C", 0, 50, 50, 3, 6, 0.6),    # IoU exactly 0.5: hit
            BBox("D", 0, 50, 0, 4, 4, 0.5),     # miss
            BBox("E", 0, 0, 60, 4, 4, 0.4),     # miss
            BBox("A", 0, 10, 10, 10, 10, 0.3),  # hit on an already-hit image
        ]
        acc, afp, used = evaluate(pool, gt, 0.5, 10.0)
        assert abs(acc - 3 / 5) < 1e-12
        assert abs(afp - 3 / 5) < 1e-12
        assert used == 7
        # the bound stops consumption just before the third miss
        acc, afp, used = evaluate(pool, gt, 0.5, 0.4)
        assert abs(acc - 3 / 5) < 1e-12
        assert abs(afp - 2 / 5) < 1e-12
        assert used == 5
        print("CRITERION 6: PASS — IoU exact on 1000 pairs; Acc/AFP hand-traced")


# per-class localization Acc at IoU 0.3, pinned from the oracle run
MSA_ACC_GOLDEN = {True: [0.240, 0.636, 0.111, 0.000], False: [0.120, 0.227, 0.111, 0.000]}
SMALL_PATTERN_CLASS = 3


def _localization_acc(net, use_msa):
    images, manifest = generate_dataset(43, 50, DatasetConfig(multi_instance_fraction=0.5))
    ids, labels, by_img = _labels_from_manifest(manifest)
    config = MiningConfig(num_steps=3, min_peak_ratio=0.6)
    heatmaps = mine_final_heatmaps(net, images, labels, config)
    eval_config = EvalConfig()
    scale = 64 // (16 if use_msa else 8)
    per_image = {c: {} for c in range(4)}
    for idx, image_id in enumerate(ids):
        for c, (heat, _) in heatmaps.get(idx, {}).items():
            boxes, _ = extract_bboxes(heat, image_id, c, eval_config, scale=scale)
            per_image[c][image_id] = boxes
    accs = []
    for c in range(4):
        gt = {}
        for image_id in ids:
            rec = by_img[image_id][c]
            if rec["boxes"]:
                gt[image_id] = [BBox(image_id, c, *b) for b in rec["boxes"]]
        pool = build_pool([per_image[c].get(image_id, []) for image_id in ids])
        acc, _, _ = evaluate(pool, gt, 0.3, eval_config.afp_upper_bound)
        accs.append(acc)
    return accs


def test_criterion_7_msa_resolution_property(finetuned_t3_path, train_split):
    """With multi-scale aggregation the small-pattern class localizes at
    least as well as the single-scale backbone at IoU 0.3, on the same
    seeded run; all per-class accuracies reproduce the pinned values."""
    images, labels = train_split
    msa_accs = _localization_acc(load_checkpoint(finetuned_t3_path), True)

    net = Network(BackboneConfig(use_msa=False), seed=42)
    train_baseline(net, images, labels, epochs=200, lr=0.5, batch_size=16)
    config = MiningConfig(num_steps=3, min_peak_ratio=0.6)
    am_finetune(net, images, labels, config, KPConfig(mode="full"), epochs=24, lr=0.05)
    plain_accs = _localization_acc(net, False)

    c = SMALL_PATTERN_CLASS
    assert msa_accs[c] >= plain_accs[c]
    np.testing.assert_allclose(msa_accs, MSA_ACC_GOLDEN[True], atol=5e-4)
    np.testing.assert_allclose(plain_accs, MSA_ACC_GOLDEN[False], atol=5e-4)
    print(
        f"CRITERION 7: PASS — small-pattern Acc {msa_accs[c]:.3f} (MSA) >= "
        f"{plain_accs[c]:.3f} (single-scale); per-class margins "
        + " ".join(f"c{i}:+{m - p:.3f}" for i, (m, p) in enumerate(zip(msa_accs, plain_accs)))
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    """Two complete pipeline runs from one config and seed produce
    byte-identical artifacts, including the final report."""
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "train_count": 16,
                "eval_count": 8,
                "epochs": 2,
                "finetune_epochs": 2,
                "batch_size": 8,
            }
        )
    )
    reports = []
    for run in ("a", "b"):
        root = tmp_path / run
        data, model, mine, ev = (root / n for n in ("data", "model", "mine", "eval"))
        assert main(["gen-data", "--config", str(config_path), "--out", str(data)]) == 0
        assert main(["train", "--config", str(config_path), "--data", str(data), "--out", str(model)]) == 0
        assert main([
            "mine", "--config", str(config_path),
            "--checkpoint", str(model / "baseline.npz"),
            "--data", str(data), "--out", str(mine),
        ]) == 0
        assert main([
            "eval", "--config", str(config_path),
            "--predictions", str(mine / "predictions.jsonl"),
            "--ground-truth", str(data / "eval" / "manifest.jsonl"),
            "--out", str(ev),
        ]) == 0
        reports.append(
            {
                "report": (ev / "report.csv").read_bytes(),
                "checkpoint": (model / "baseline.npz").read_bytes(),
                "predictions": (mine / "predictions.jsonl").read_bytes(),
            }
        )
    assert reports[0]["report"] == reports[1]["report"]
    assert reports[0]["checkpoint"] == reports[1]["checkpoint"]
    assert reports[0]["predictions"] == reports[1]["predictions"]
    print("CRITERION 8: PASS — repeated pipeline runs are byte-identical")
