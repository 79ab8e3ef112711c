import numpy as np
import pytest

from attnmine.evalloc import (
    BBox,
    EvalConfig,
    build_pool,
    evaluate,
    evaluate_report,
    extract_bboxes,
    ground_truth_by_class,
    iou,
    read_ground_truth,
    read_predictions,
    write_ground_truth,
    write_predictions,
    write_report_csv,
)


def box(x, y, w, h, image_id="i", cls=0, score=0.0):
    return BBox(image_id, cls, x, y, w, h, score)


def iou_bruteforce(a, b, grid=32):
    """Pixel-membership count oracle on a finite grid."""
    ga = np.zeros((grid, grid), dtype=bool)
    gb = np.zeros((grid, grid), dtype=bool)
    ga[a.y : a.y + a.h, a.x : a.x + a.w] = True
    gb[b.y : b.y + b.h, b.x : b.x + b.w] = True
    inter = (ga & gb).sum()
    union = (ga | gb).sum()
    return inter / union if union else 0.0


class TestIou:
    def test_identical(self):
        assert iou(box(2, 3, 5, 4), box(2, 3, 5, 4)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 4, 4), box(10, 10, 4, 4)) == 0.0

    def test_half_overlap(self):
        assert iou(box(0, 0, 10, 10), box(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = box(*rng.integers(0, 20, 2), *rng.integers(1, 12, 2))
            b = box(*rng.integers(0, 20, 2), *rng.integers(1, 12, 2))
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)
            assert (v == 1.0) == a.same_extent(b)

    def test_matches_bruteforce_oracle_1000_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = box(*rng.integers(0, 24, 2), *rng.integers(1, 8, 2))
            b = box(*rng.integers(0, 24, 2), *rng.integers(1, 8, 2))
            assert iou(a, b) == pytest.approx(iou_bruteforce(a, b), abs=1e-12)


def gaussian_heatmap(size=16, cx=8, cy=8, sigma=3.0):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))


class TestExtractBboxes:
    def test_gaussian_blob_nested(self):
        h = gaussian_heatmap()
        boxes, degenerate = extract_bboxes(h, "img", 0, EvalConfig())
        assert not degenerate
        assert len(boxes) == 3
        areas = sorted(b.area() for b in boxes)
        assert areas[0] < areas[1] < areas[2]
        scores = [b.score for b in sorted(boxes, key=lambda b: b.area())]
        assert scores[0] > scores[1] > scores[2]
        # nested: highest-threshold box contained in each lower-threshold box
        small = min(boxes, key=lambda b: b.area())
        for big in boxes:
            assert big.x <= small.x and big.y <= small.y
            assert big.x + big.w >= small.x + small.w
            assert big.y + big.h >= small.y + small.h

    def test_binary_plateau_collapses(self):
        h = np.zeros((10, 10))
        h[3:6, 2:7] = 1.0
        boxes, degenerate = extract_bboxes(h, "img", 1, EvalConfig())
        assert not degenerate
        assert len(boxes) == 1
        b = boxes[0]
        assert (b.x, b.y, b.w, b.h) == (2, 3, 5, 3)

    def test_constant_heatmap_degenerate(self):
        boxes, degenerate = extract_bboxes(np.full((8, 8), 0.5), "img", 0, EvalConfig())
        assert degenerate and boxes == []

    def test_scale_applied(self):
        h = np.zeros((8, 8))
        h[2:4, 2:4] = 1.0
        boxes, _ = extract_bboxes(h, "img", 0, EvalConfig(), scale=4)
        assert (boxes[0].x, boxes[0].y, boxes[0].w, boxes[0].h) == (8, 8, 8, 8)


class TestBuildPool:
    def test_rank_major_order(self):
        boxes = [box(0, 0, 1, 1, "i1", score=s) for s in (3, 2, 1)]
        boxes += [box(1, 1, 1, 1, "i2", score=s) for s in (3, 2, 1)]
        pool = build_pool(boxes)
        order = [(b.image_id, b.score) for b in pool]
        assert order == [("i1", 3), ("i2", 3), ("i1", 2), ("i2", 2), ("i1", 1), ("i2", 1)]

    def test_missing_entries_skipped(self):
        boxes = [box(0, 0, 1, 1, "i1", score=s) for s in (3, 2, 1)]
        boxes += [box(1, 1, 1, 1, "i2", score=3)]
        pool = build_pool(boxes)
        assert [(b.image_id, b.score) for b in pool] == [
            ("i1", 3), ("i2", 3), ("i1", 2), ("i1", 1),
        ]

    def test_single_image(self):
        boxes = [box(0, 0, 1, 1, "i1", score=s) for s in (3, 2, 1)]
        assert [b.score for b in build_pool(boxes)] == [3, 2, 1]

    def test_shuffled_input_with_score_tie(self):
        # images come out in id order whatever the input order; boxes of
        # one image with equal scores keep their input order
        boxes = [
            box(0, 0, 1, 1, "i2", score=1),
            box(1, 0, 1, 1, "i1", score=2),
            box(2, 0, 1, 1, "i2", score=3),
            box(3, 0, 1, 1, "i1", score=5),
            box(4, 0, 1, 1, "i2", score=3),
            box(5, 0, 1, 1, "i0", score=4),
        ]
        assert [b.x for b in build_pool(boxes)] == [5, 3, 2, 1, 4, 0]


class TestEvaluate:
    def test_perfect_predictor(self):
        gt = {f"i{k}": [box(4, 4, 8, 8, f"i{k}")] for k in range(3)}
        pool = [box(4, 4, 8, 8, f"i{k}") for k in range(3)]
        for t in (0.1, 0.5, 0.7):
            acc, afp, used = evaluate(pool, gt, t, afp_upper_bound=10)
            assert acc == 1.0 and afp == 0.0 and used == 3

    def test_hand_traced_mixed_case(self):
        # image 1 rank-1 hits at IoU 0.4 >= 0.3; image 2 misses everything
        gt = {"i1": [box(0, 0, 10, 10, "i1")], "i2": [box(20, 20, 5, 5, "i2")]}
        pool = [
            box(0, 4, 10, 10, "i1"),   # IoU = 60/140 ~ 0.43 -> hit
            box(0, 0, 5, 5, "i2"),     # miss
            box(5, 5, 3, 3, "i2"),     # miss
        ]
        acc, afp, used = evaluate(pool, gt, 0.3, afp_upper_bound=10)
        assert acc == 0.5
        assert afp == pytest.approx(2 / 2)
        assert used == 3

    def test_zero_bound_stops_before_first_miss(self):
        gt = {"i1": [box(0, 0, 4, 4, "i1")], "i2": [box(0, 0, 4, 4, "i2")]}
        pool = [
            box(0, 0, 4, 4, "i1"),      # hit
            box(20, 20, 4, 4, "i2"),    # miss -> would exceed bound 0
            box(0, 0, 4, 4, "i2"),      # hit, never reached
        ]
        acc, afp, used = evaluate(pool, gt, 0.5, afp_upper_bound=0)
        assert used == 1
        assert acc == 0.5
        assert afp == 0.0

    def test_no_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="no ground truth"):
            evaluate([], {"i1": []}, 0.3, 1.0)

    def test_acc_monotone_in_iou_threshold(self):
        rng = np.random.default_rng(2)
        gt = {f"i{k}": [box(*rng.integers(0, 16, 2), 8, 8, f"i{k}")] for k in range(6)}
        pool = [box(*rng.integers(0, 16, 2), 8, 8, f"i{k}") for k in range(6)]
        accs = [evaluate(pool, gt, t, 10)[0] for t in (0.1, 0.3, 0.5, 0.7)]
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_acc_monotone_in_afp_bound(self):
        rng = np.random.default_rng(3)
        gt = {f"i{k}": [box(*rng.integers(0, 16, 2), 8, 8, f"i{k}")] for k in range(6)}
        pool = [box(*rng.integers(0, 16, 2), 8, 8, f"i{rng.integers(6)}") for _ in range(18)]
        accs = [evaluate(pool, gt, 0.3, bound)[0] for bound in (0.0, 0.5, 1.0, 2.0, 10.0)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_report_skips_classes_without_gt(self):
        gt_by_class = {0: {"i1": [box(0, 0, 4, 4, "i1")]}, 1: {"i1": []}}
        pools = {0: [box(0, 0, 4, 4, "i1")], 1: []}
        rows, skipped = evaluate_report(pools, gt_by_class, EvalConfig())
        assert skipped == [1]
        assert {r.cls for r in rows} == {0}


class TestSerialization:
    def test_predictions_roundtrip(self, tmp_path):
        boxes = [box(1, 2, 3, 4, "im1", cls=2, score=0.75)]
        path = tmp_path / "pred.jsonl"
        write_predictions(path, boxes)
        assert read_predictions(path) == boxes

    def test_prediction_schema_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "a", "class": 0, "x": 1, "y": 1, "w": 2, "h": 2}\n{"nope": 1}\n')
        with pytest.raises(ValueError, match=":2:"):
            read_predictions(path)

    def test_ground_truth_roundtrip(self, tmp_path):
        recs = [
            {"image_id": "im1", "class": 0, "boxes": [[1, 2, 3, 4]], "labels": [1, 0]},
        ]
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, recs)
        assert read_ground_truth(path) == recs
        by_class = ground_truth_by_class(recs)
        assert by_class[0]["im1"][0].same_extent(box(1, 2, 3, 4))

    def test_report_csv_shape(self, tmp_path):
        rows, _ = evaluate_report(
            {0: [box(0, 0, 4, 4, "i1")]},
            {0: {"i1": [box(0, 0, 4, 4, "i1")]}},
            EvalConfig(),
        )
        path = tmp_path / "report.csv"
        write_report_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class,t_iou,acc,afp,boxes_used"
        assert len(lines) == 1 + 7


class TestEvalConfigValidation:
    def test_thresholds_must_decrease(self):
        with pytest.raises(ValueError):
            EvalConfig(bbox_thresholds=[0.25, 0.5, 0.75])

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(bbox_thresholds=[0.5, 0.5, 0.25])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iou_thresholds", []),
            ("iou_thresholds", [1.5]),
            ("iou_thresholds", [0.5, 0.0]),
            ("iou_thresholds", [-0.1]),
            ("afp_upper_bound", -1.0),
        ],
    )
    def test_out_of_range_rejected_naming_field(self, key, value):
        with pytest.raises(ValueError, match=key):
            EvalConfig(**{key: value})

    def test_range_edges_accepted(self):
        config = EvalConfig(iou_thresholds=[1.0], afp_upper_bound=0.0)
        assert (config.iou_thresholds, config.afp_upper_bound) == ([1.0], 0.0)
