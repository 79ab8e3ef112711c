import hashlib
import json

import numpy as np
import pytest

from attnmine.synthetic import (
    DatasetConfig,
    PATTERN_NAMES,
    _render_pattern,
    generate_dataset,
    load_dataset,
    read_image_pgm,
    save_dataset,
    write_image_pgm,
)
from attnmine.train import roc_auc

# typical GT box extents per class, used to place negative probe boxes
TYPICAL_BOX = {0: (9, 9), 1: (23, 23), 2: (38, 3), 3: (3, 3)}


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a_imgs, a_manifest = generate_dataset(7, 20, DatasetConfig())
        b_imgs, b_manifest = generate_dataset(7, 20, DatasetConfig())
        assert a_imgs.tobytes() == b_imgs.tobytes()
        assert json.dumps(a_manifest) == json.dumps(b_manifest)

    def test_different_seed_same_schema(self):
        a_imgs, a_manifest = generate_dataset(7, 10, DatasetConfig())
        b_imgs, b_manifest = generate_dataset(8, 10, DatasetConfig())
        assert a_imgs.tobytes() != b_imgs.tobytes()
        assert {tuple(sorted(r)) for r in a_manifest} == {
            tuple(sorted(r)) for r in b_manifest
        }

    def test_golden_multi_instance_count_pinned(self):
        # pinned from the seeded oracle run of this generator
        imgs, manifest = generate_dataset(
            42, 200, DatasetConfig(multi_instance_fraction=0.5)
        )
        multi = len({r["image_id"] for r in manifest if len(r["boxes"]) == 2})
        assert multi == 92
        assert hashlib.sha256(imgs.tobytes()).hexdigest().startswith("cc7bb06a")


class TestInstances:
    def test_zero_fraction_single_instance(self):
        _, manifest = generate_dataset(
            3, 40, DatasetConfig(multi_instance_fraction=0.0)
        )
        for rec in manifest:
            if rec["labels"][rec["class"]] == 1:
                assert len(rec["boxes"]) == 1
            else:
                assert rec["boxes"] == []

    def test_labels_consistent_with_boxes(self):
        _, manifest = generate_dataset(4, 30, DatasetConfig())
        for rec in manifest:
            assert (len(rec["boxes"]) > 0) == (rec["labels"][rec["class"]] == 1)

    def test_gt_box_contains_pattern_peak(self):
        for kind in PATTERN_NAMES:
            field_, (x, y, w, h) = _render_pattern(64, kind, 30.0, 25.0, 0.9)
            py, px = np.unravel_index(np.argmax(field_), field_.shape)
            assert x <= px < x + w
            assert y <= py < y + h

    def test_nodule_support_small(self):
        _, (x, y, w, h) = _render_pattern(64, "nodule", 32.0, 32.0, 0.9)
        assert w <= 5 and h <= 5

    def test_second_instance_dimmer(self):
        imgs, manifest = generate_dataset(
            5, 60, DatasetConfig(multi_instance_fraction=1.0)
        )
        ids = sorted({r["image_id"] for r in manifest})
        idx = {iid: i for i, iid in enumerate(ids)}
        diffs = []
        for rec in manifest:
            if len(rec["boxes"]) != 2:
                continue
            img = imgs[idx[rec["image_id"]]]
            peaks = [img[y : y + h, x : x + w].max() for x, y, w, h in rec["boxes"]]
            diffs.append(peaks[0] - peaks[1])
        assert len(diffs) > 10
        # overlap with other patterns adds noise per image; the first
        # instance is brighter in the bulk of cases
        assert np.median(diffs) > 0.05


def test_pattern_templates_pairwise_distinct():
    temps = np.stack(
        [_render_pattern(64, k, 32.0, 32.0, 1.0)[0].ravel() for k in PATTERN_NAMES]
    )
    corr = np.corrcoef(temps)
    off_diag = np.abs(corr[np.triu_indices(4, 1)])
    assert off_diag.max() < 0.5


def test_pattern_region_intensity_probe_auc():
    """Mean intensity in the pattern region separates labels (task learnable)."""
    imgs, manifest = generate_dataset(
        42, 200, DatasetConfig(multi_instance_fraction=0.5)
    )
    ids = sorted({r["image_id"] for r in manifest})
    idx = {iid: i for i, iid in enumerate(ids)}
    rng = np.random.default_rng(0)
    for cls in range(4):
        scores, labels = [], []
        for rec in manifest:
            if rec["class"] != cls:
                continue
            img = imgs[idx[rec["image_id"]]]
            if rec["boxes"]:
                x, y, w, h = rec["boxes"][0]
                labels.append(1)
            else:
                w, h = TYPICAL_BOX[cls]
                x = int(rng.integers(0, 64 - w))
                y = int(rng.integers(0, 64 - h))
                labels.append(0)
            scores.append(float(img[y : y + h, x : x + w].mean()))
        assert roc_auc(scores, labels) > 0.95, f"class {cls} not separable"


class TestImageIo:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.random.default_rng(9).uniform(0, 1, (16, 16))
        path = tmp_path / "img.pgm"
        write_image_pgm(path, img)
        back = read_image_pgm(path)
        np.testing.assert_allclose(back, img, atol=1 / 255)

    def test_dataset_roundtrip(self, tmp_path):
        imgs, manifest = generate_dataset(11, 6, DatasetConfig())
        save_dataset(tmp_path / "ds", imgs, manifest)
        ids, images, labels, recs = load_dataset(tmp_path / "ds", 4)
        assert len(ids) == 6
        assert images.shape == (6, 64, 64)
        assert labels.shape == (6, 4)
        assert recs == manifest

    def test_dataset_roundtrip_keeps_pixels_with_ids_past_9999(self, tmp_path):
        # "img10000" sorts between "img1000" and "img1001": images are
        # written in manifest order, not in the order their ids sort
        gen_ids = ["img9999", "img10000", "img10001"]
        imgs = np.stack([np.full((8, 8), v / 255) for v in (40, 120, 200)])
        manifest = [
            {"image_id": iid, "class": 0, "boxes": [], "labels": [k % 2]}
            for k, iid in enumerate(gen_ids)
        ]
        save_dataset(tmp_path / "ds", imgs, manifest)
        ids, images, labels, _ = load_dataset(tmp_path / "ds", 1)
        for iid, image, label in zip(ids, images, labels):
            k = gen_ids.index(iid)
            np.testing.assert_array_equal(image, imgs[k], err_msg=iid)
            assert label.tolist() == [k % 2]


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(multi_instance_fraction=1.5)
    with pytest.raises(ValueError):
        DatasetConfig(num_classes=9)
