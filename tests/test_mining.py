import json
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from attnmine import read_pgm
from attnmine.mining import (
    MiningConfig,
    aggregate_final_heatmap,
    flood_fill_component,
    normalize01,
    run_am,
    write_heatmap_pgm,
    write_mask_pgm,
)
from attnmine.model import BackboneConfig, Network
from attnmine.synthetic import DatasetConfig, generate_dataset
from attnmine.train import masks_for_batch, mine_final_heatmaps, predict_logits


def blob(size, cx, cy, sigma, amp=1.0):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    return amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))


def first_step(feat, w=None):
    """run_am's first step on `feat`, with unit weights unless `w` is given."""
    w = np.ones(feat.shape[-1]) if w is None else w
    return run_am(feat, w, MiningConfig(num_steps=1))


class TestProjection:
    def test_onehot_selector(self):
        rng = np.random.default_rng(0)
        feat = rng.normal(size=(5, 5, 3))
        run = first_step(feat, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(run.raw_heatmaps[0], feat[:, :, 1])

    def test_dot_product_single_pixel(self):
        feat = np.array([[[0.5, 0.2]], [[0.0, 0.0]]])
        run = first_step(feat, np.array([1.0, -1.0]))
        assert run.raw_heatmaps[0][0, 0] == pytest.approx(0.3)

    def test_raw_heatmaps_are_projection_times_mask(self):
        # every step's raw map is bit-equal to the plain projection under that step's mask
        rng = np.random.default_rng(11)
        for _ in range(20):
            feat = rng.normal(size=(9, 7, 3))
            w = rng.normal(size=3)
            run = run_am(feat, w, MiningConfig(num_steps=4))
            assert run.steps_completed >= 2
            for t, raw in enumerate(run.raw_heatmaps):
                assert np.array_equal(raw, (feat @ w) * run.masks[t])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_feature_map_rejected(self, bad):
        feat = np.zeros((4, 4, 2))
        feat[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_am(feat, np.array([1.0, 0.5]), MiningConfig())


class TestThresholdAndPeak:
    def test_single_spike(self):
        h = np.zeros((4, 4))
        h[1, 2] = 3.0
        run = first_step(h[..., None])
        assert run.steps_completed == 1
        assert np.argwhere(run.masks[1] == 0).tolist() == [[1, 2]]

    def test_hand_normalization_and_inclusive_threshold(self):
        # 0.5 is erased at threshold 0.5: the binarization is >=
        h = np.array([[0.0, 0.2, 0.5, 1.0]])
        run = first_step(h[..., None])
        np.testing.assert_allclose(run.heatmaps[0], h)
        np.testing.assert_array_equal(run.masks[1], [[1.0, 1.0, 0.0, 0.0]])

    def test_rowmajor_tie_break(self):
        h = np.zeros((3, 3))
        h[2, 0] = h[0, 2] = 5.0
        run = first_step(h[..., None])
        assert np.argwhere(run.masks[1] == 0).tolist() == [[0, 2]]


class TestErase:
    def test_block_erased(self):
        h = np.zeros((5, 5))
        h[1:3, 1:3] = 1.0
        mask = first_step(h[..., None]).masks[1]
        assert mask[1:3, 1:3].sum() == 0
        assert mask.sum() == 25 - 4

    def test_disjoint_blob_untouched(self):
        h = np.zeros((6, 6))
        h[0:2, 0:2] = 1.0  # blob A, holding the peak
        h[4:6, 4:6] = 0.8  # blob B, above threshold but not connected
        mask = first_step(h[..., None]).masks[1]
        assert mask[0:2, 0:2].sum() == 0
        assert mask[4:6, 4:6].sum() == 4

    def test_connectivity_sensitivity(self):
        binary = np.zeros((4, 4), dtype=bool)
        binary[0, 0] = binary[1, 1] = True  # diagonal touch
        comp8 = flood_fill_component(binary, (0, 0), connectivity=8)
        comp4 = flood_fill_component(binary, (0, 0), connectivity=4)
        assert comp8.sum() == 2
        assert comp4.sum() == 1

    def test_matches_scipy_label_oracle(self):
        # non-square, one-row and one-column maps, seeded at random and at
        # every set border cell and corner, so a row stride taken from the
        # wrong axis or a border cell treated as inner shows
        rng = np.random.default_rng(2)
        for rows, cols in ((12, 12), (5, 9), (9, 5), (1, 8), (8, 1)):
            for conn, structure in ((8, np.ones((3, 3))), (4, None)):
                for _ in range(50):
                    binary = rng.random((rows, cols)) > 0.6
                    if not binary.any():
                        continue
                    seeds = np.argwhere(binary)
                    on_border = np.isin(seeds[:, 0], (0, rows - 1)) | np.isin(seeds[:, 1], (0, cols - 1))
                    labels, _ = ndimage.label(binary, structure=structure)
                    for seed in [seeds[rng.integers(len(seeds))], *seeds[on_border]]:
                        seed = tuple(seed)
                        comp = flood_fill_component(binary, seed, connectivity=conn)
                        np.testing.assert_array_equal(comp, labels == labels[seed])

    def test_unset_seed_rejected(self):
        with pytest.raises(ValueError, match="not set"):
            flood_fill_component(np.zeros((3, 3), dtype=bool), (1, 1))


def two_blob_feat(size=12):
    # single-channel feature map with a strong and a weak blob
    f = blob(size, 3, 3, 1.2, amp=1.0) + blob(size, 9, 9, 1.2, amp=0.6)
    return f[..., None]


class TestRunAm:
    def test_t1_base_case(self):
        feat = two_blob_feat()
        run = run_am(feat, np.ones(1), MiningConfig(num_steps=1))
        assert run.steps_completed == 1
        assert len(run.masks) == 2
        norm, _ = normalize01(feat[..., 0])
        np.testing.assert_array_equal(run.heatmaps[0], norm)

    def test_peak_migrates_to_weak_blob(self):
        feat = two_blob_feat()
        run = run_am(feat, np.ones(1), MiningConfig(num_steps=2))
        assert run.steps_completed == 2
        first_peak = np.unravel_index(np.argmax(run.heatmaps[0]), (12, 12))
        second_peak = np.unravel_index(np.argmax(run.heatmaps[1]), (12, 12))
        assert first_peak == (3, 3)
        assert second_peak == (9, 9)

    def test_constant_input_early_stop(self):
        feat = np.full((6, 6, 1), 2.0)
        run = run_am(feat, np.ones(1), MiningConfig(num_steps=3))
        assert run.steps_completed == 0
        assert len(run.masks) == 1

    def test_mask_monotonicity_and_growth(self):
        feat = two_blob_feat()
        run = run_am(feat, np.ones(1), MiningConfig(num_steps=3))
        zeros = 0
        for prev, cur in zip(run.masks, run.masks[1:]):
            assert np.all(cur <= prev)
            new_zeros = int((cur == 0).sum())
            assert new_zeros > zeros
            zeros = new_zeros

    def test_support_within_live_mask(self):
        feat = two_blob_feat()
        run = run_am(feat, np.ones(1), MiningConfig(num_steps=3))
        for t, h in enumerate(run.raw_heatmaps):
            dead = run.masks[t] == 0
            assert np.all(np.asarray(h)[dead] == 0.0)

    def test_erased_components_stay_dead(self):
        feat = two_blob_feat()
        run = run_am(feat, np.ones(1), MiningConfig(num_steps=3))
        for t in range(1, len(run.masks)):
            erased = run.masks[t] == 0
            for h in run.raw_heatmaps[t:]:
                assert np.all(np.asarray(h)[erased] == 0.0)

    def test_determinism(self):
        feat = two_blob_feat()
        r1 = run_am(feat, np.ones(1), MiningConfig())
        r2 = run_am(feat, np.ones(1), MiningConfig())
        for a, b in zip(r1.heatmaps, r2.heatmaps):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(r1.masks, r2.masks):
            np.testing.assert_array_equal(a, b)


class TestMasksForBatch:
    def test_last_mask_of_each_positive_run_without_peak_stop(self):
        config = BackboneConfig(stage_channels=[2, 3], stage_strides=[1, 2], msa_reduced_channels=(1, 1), num_classes=2)
        net = Network(config, seed=0)
        net.branch_weight(0).data[:] = [1.0, 0.0]
        net.branch_weight(1).data[:] = [0.0, 1.0]
        a = two_blob_feat()[..., 0]
        b = a[::-1].copy()
        feat = np.stack([np.stack([a, b], -1), np.stack([b, a], -1)])
        labels = np.array([[1.0, 0.0], [1.0, 1.0]])
        # the weak blob peaks at 0.6 of the strong one: eval-time mining stops after one step
        mining = MiningConfig(num_steps=3, min_peak_ratio=0.9)
        assert run_am(feat[0], net.branch_weight(0).data, mining).steps_completed == 1
        masks = masks_for_batch(net, feat, labels, 2, mining)
        assert masks.shape == (2, 2, 12, 12)
        for i, c in [(0, 0), (1, 0), (1, 1)]:
            run = run_am(feat[i], net.branch_weight(c).data, MiningConfig(num_steps=2))
            assert run.steps_completed == 2
            np.testing.assert_array_equal(masks[c, i], run.masks[-1])
        np.testing.assert_array_equal(masks[1, 0], 1.0)
        np.testing.assert_array_equal(masks_for_batch(net, feat, labels, 0, mining), 1.0)


class TestChunkedInference:
    def test_chunked_forward_is_exact(self):
        # 20 images forwarded as one batch or as a 16 + 4 split
        images, manifest = generate_dataset(9, 20, DatasetConfig())
        labels = np.array([r["labels"] for r in manifest[::4]])
        net = Network(BackboneConfig(), seed=4)
        rng = np.random.default_rng(4)
        for c in range(net.num_classes):
            net.branch_weight(c).data[:] = rng.normal(size=net.config.feature_channels)
        config = MiningConfig(num_steps=3)
        split, whole = (
            (
                predict_logits(net, images, batch_size),
                mine_final_heatmaps(net, images, labels, config, batch_size),
            )
            for batch_size in (16, 20)
        )
        assert np.array_equal(split[0], whole[0])
        assert whole[1] and len(split[1]) == len(whole[1])
        for a, b in zip(split[1], whole[1]):
            assert a[:2] == b[:2]
            assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])
        # index-then-class order, the order `mine` writes its files in
        assert [a[:2] for a in whole[1]] == sorted(a[:2] for a in whole[1])


class TestAggregateFinalHeatmap:
    def test_t1_is_plain_cam(self):
        h = np.random.default_rng(3).random((6, 6))
        out = aggregate_final_heatmap([h], [np.ones((6, 6)), np.ones((6, 6))])
        np.testing.assert_array_equal(out, h)  # bit-exact

    def test_erased_pixel_fill_in(self):
        # pixel (0,0) erased at step 1 with step-1 response 0.8
        h1 = np.array([[0.8, 0.1], [0.1, 0.1]])
        h2 = np.array([[0.0, 0.3], [0.2, 0.1]])
        m0 = np.ones((2, 2))
        m1 = np.array([[0.0, 1.0], [1.0, 1.0]])
        m2 = m1.copy()
        out = aggregate_final_heatmap([h1, h2], [m0, m1, m2])
        assert out[0, 0] == pytest.approx((0.8 + (0.0 + 0.8)) / 2)

    def test_unerased_pixel_plain_average(self):
        h1 = np.full((2, 2), 0.4)
        h2 = np.full((2, 2), 0.6)
        h1[0, 0], h2[0, 0] = 0.9, 0.0  # make step 1 erase only (0,0)
        m0 = np.ones((2, 2))
        m1 = np.array([[0.0, 1.0], [1.0, 1.0]])
        out = aggregate_final_heatmap([h1, h2], [m0, m1, m1.copy()])
        assert out[1, 1] == pytest.approx((0.4 + 0.6 + 0.0) / 2)

    def test_mismatched_step_counts_rejected(self):
        with pytest.raises(ValueError, match="masks"):
            aggregate_final_heatmap([np.ones((2, 2))], [np.ones((2, 2))])


class TestDumpFormats:
    def test_heatmap_pgm_roundtrip(self, tmp_path):
        h = np.random.default_rng(4).uniform(-2, 3, size=(8, 6))
        path = tmp_path / "h.pgm"
        write_heatmap_pgm(path, h)
        sidecar = json.loads(Path(f"{path}.json").read_text())
        assert sidecar == {"min": h.min(), "max": h.max()}
        back = read_pgm(path) * (sidecar["max"] - sidecar["min"]) + sidecar["min"]
        np.testing.assert_allclose(back, h, atol=(h.max() - h.min()) / 65535)

    # single-row and single-column masks are where a text reader
    # collapses a dimension
    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 8), (8, 1), (7, 9), (16, 16)])
    def test_mask_pgm_roundtrip(self, tmp_path, rows, cols):
        m = (np.random.default_rng(5).random((rows, cols)) > 0.5).astype(float)
        path = tmp_path / "m.pgm"
        write_mask_pgm(path, m)
        assert path.read_text().startswith(f"P2\n{cols} {rows}\n1\n")
        np.testing.assert_array_equal(np.loadtxt(path, skiprows=3, ndmin=2), m)

    @pytest.mark.parametrize("mask", [[[0, 1], [5, 1]], [[0.5, 1]], [[-1, 0]]], ids=["5", "0.5", "-1"])
    def test_mask_pgm_rejects_non_binary(self, tmp_path, mask):
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError, match="mask must be binary"):
            write_mask_pgm(path, np.array(mask))
        assert not path.exists()


def test_structural_properties_500_seeded_runs():
    """Mask monotonicity, CAM support and no-reactivation over 500 random runs."""
    violations = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        feat = rng.normal(size=(10, 10, d))
        w = rng.normal(size=d)
        run = run_am(feat, w, MiningConfig(num_steps=3))
        for prev, cur in zip(run.masks, run.masks[1:]):
            if not np.all(cur <= prev):
                violations += 1
        for t, h in enumerate(run.raw_heatmaps):
            if not np.all(np.asarray(h)[run.masks[t] == 0] == 0.0):
                violations += 1
        for t in range(1, len(run.masks)):
            erased = run.masks[t] == 0
            for h in run.raw_heatmaps[t:]:
                if not np.all(np.asarray(h)[erased] == 0.0):
                    violations += 1
    assert violations == 0
