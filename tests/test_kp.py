import hashlib

import numpy as np
import pytest

from attnmine import autodiff as ad
from attnmine.autodiff import Tensor
from attnmine.kp import (
    DEFAULT_LAYERS,
    KPConfig,
    combined_loss,
    gap_drift,
    kp_layer_loss,
    kp_total_loss,
    partition_batch,
)
from attnmine.mining import MiningConfig
from attnmine.model import BackboneConfig, Network
from attnmine.train import MAP_LAYERS, am_finetune, masks_for_batch

from gradcheck import finite_diff_check


class TestPartitionBatch:
    def test_default_operating_point(self):
        assert partition_batch(16, KPConfig(am_fraction=0.125)) == 2

    def test_clamped_minimum(self):
        assert partition_batch(8, KPConfig(am_fraction=0.125)) == 1

    def test_half_split(self):
        assert partition_batch(4, KPConfig(am_fraction=0.5)) == 2

    def test_off_mode_erases_whole_batch(self):
        assert partition_batch(16, KPConfig(mode="off")) == 16

    @pytest.mark.parametrize("mode", ["off", "vanilla", "full"])
    def test_single_sample_batch_is_erased(self, mode):
        assert partition_batch(1, KPConfig(mode=mode)) == 1


@pytest.mark.parametrize("mode", ["off", "vanilla", "full"])
def test_finetune_phases_and_split(mode):
    # 9 images at batch size 4 give batches of 4, 4 and 1; 4 epochs over
    # 3 mining steps give phases of 2, 1 and 1 epochs
    rng = np.random.default_rng(8)
    images = rng.uniform(0, 1, (9, 8, 8))
    labels = rng.integers(0, 2, (9, 4))
    cfg = BackboneConfig(stage_channels=[4, 8], stage_strides=[1, 2], msa_reduced_channels=(2, 2))
    net = Network(cfg, seed=3)
    for c in range(net.num_classes):
        net.branch_weight(c).data[:] = rng.normal(size=cfg.feature_channels)
    log = am_finetune(
        net, images, labels, MiningConfig(num_steps=3), KPConfig(mode=mode), epochs=4, batch_size=4
    )
    assert [e["phase"] for e in log] == [1] * 6 + [2] * 3 + [3] * 3
    if mode == "full":
        # only the one-sample batches have no untouched part to hold to the snapshot
        assert [e["kp_loss"] is None for e in log] == [False, False, True] * 4
    else:
        assert all(e["kp_loss"] is None for e in log)
    assert all(e["loss"] == e["cls_loss"] for e in log if e["kp_loss"] is None)


@pytest.mark.parametrize("use_msa", [True, False])
def test_frozen_rows_do_not_depend_on_the_batch(use_msa):
    # the cache's premise: an image's GAP rows are the same bits whether it
    # is forwarded alone, in a 16-image batch or in the chunked `gap_rows` pass
    rng = np.random.default_rng(11)
    frozen = Network(BackboneConfig(use_msa=use_msa), seed=4).snapshot()
    images = rng.uniform(0, 1, (20, 64, 64))
    cached = frozen.gap_rows(images, MAP_LAYERS, 16)  # chunks of 16 and 4
    batch = {}
    frozen.forward_features(images[3:19][..., None], capture=batch)  # straddles the chunks
    for i in (3, 10, 15, 16, 18):
        alone = {}
        frozen.forward_features(images[i : i + 1][..., None], capture=alone)
        for name in MAP_LAYERS:
            row = ad.gap(alone[name]).data[0].tobytes()
            assert ad.gap(batch[name]).data[i - 3].tobytes() == row, (i, name)
            assert cached[name][i].tobytes() == row, (i, name)


def _finetune_reforwarding(net, images, labels, mining_config, kp_config, epochs, lr, batch_size):
    """`am_finetune` in full mode with the snapshot forwarding every batch's
    untouched samples, the reference for the cached frozen rows."""
    labels = np.asarray(labels, dtype=np.float64)
    frozen = net.snapshot()
    rng = np.random.default_rng(0)
    log = []
    for phase, epoch_ids in enumerate(np.array_split(range(epochs), mining_config.num_steps), 1):
        for _ in epoch_ids:
            order = rng.permutation(len(images))
            for start in range(0, len(images), batch_size):
                idx = order[start : start + batch_size].tolist()
                batch_images = images[idx][..., None]
                batch_labels = labels[idx]
                n = partition_batch(len(idx), kp_config)
                feat = net.forward_features(batch_images[:n])
                masks = masks_for_batch(net, feat.data, batch_labels[:n], phase - 1, mining_config)
                cls_loss = net.classification_loss(feat, masks, batch_labels[:n])
                kp_loss = None
                if n < len(idx):
                    cls_loss = ad.scale(cls_loss, n / len(idx))
                    cap_a, cap_b = {}, {}
                    frozen.forward_features(batch_images[n:], capture=cap_a)
                    net.forward_features(batch_images[n:], capture=cap_b)
                    kp_loss = kp_total_loss(
                        [kp_layer_loss(cap_a[name], cap_b[name]) for name in DEFAULT_LAYERS]
                    )
                loss = combined_loss(cls_loss, kp_loss, kp_config.weight)
                net.zero_grad()
                loss.backward()
                ad.sgd_step(net.param_list(), lr)
                log.append(
                    {
                        "phase": phase,
                        "loss": float(loss.data),
                        "cls_loss": float(cls_loss.data),
                        "kp_loss": None if kp_loss is None else float(kp_loss.data),
                    }
                )
    return log


@pytest.mark.parametrize("use_msa", [True, False])
@pytest.mark.parametrize("batch_size, count", [(16, 17), (7, 15)])
def test_cached_frozen_rows_match_reforwarding(use_msa, batch_size, count):
    # each count leaves a one-sample last batch, which takes no drift loss
    rng = np.random.default_rng(batch_size)
    images = rng.uniform(0, 1, (count, 32, 32))
    labels = rng.integers(0, 2, (count, 4))
    runs = []
    for finetune in (am_finetune, _finetune_reforwarding):
        net = Network(BackboneConfig(use_msa=use_msa), seed=2)
        for c in range(net.num_classes):
            net.branch_weight(c).data[:] = np.random.default_rng(c).normal(size=net.config.feature_channels)
        log = finetune(
            net, images, labels, MiningConfig(num_steps=3), KPConfig(mode="full"),
            epochs=3, lr=0.05, batch_size=batch_size,
        )
        digest = hashlib.sha256(b"".join(p.data.tobytes() for p in net.param_list())).hexdigest()
        runs.append((log, digest))
    (log, digest), (ref_log, ref_digest) = runs
    assert [e["kp_loss"] is None for e in log] == ([False] * (count // batch_size) + [True]) * 3
    assert log == ref_log
    assert digest == ref_digest


class TestKpLayerLoss:
    def test_identical_is_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 4, 2)))
        assert float(kp_layer_loss(x, Tensor(x.data.copy())).data) == 0.0

    def test_single_coordinate_delta(self):
        a = np.zeros((1, 2, 2, 3))
        b = a.copy()
        b[..., 1] = 0.4  # GAP feature differs by 0.4 in one coordinate
        loss = kp_layer_loss(Tensor(a), Tensor(b))
        assert float(loss.data) == pytest.approx(0.4)

    def test_stacked_norm_convention(self):
        # batch 2, per-sample GAP difference vectors (3,4) and (0,0)
        a = np.zeros((2, 1, 1, 2))
        b = a.copy()
        b[0, 0, 0] = [3.0, 4.0]
        loss = kp_layer_loss(Tensor(a), Tensor(b))
        assert float(loss.data) == pytest.approx(2.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            kp_layer_loss(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((1, 2, 2, 2))))
        with pytest.raises(ValueError, match="mismatch"):
            kp_layer_loss(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2, 2, 3))))

    def test_gap_rows_against_a_map(self):
        rng = np.random.default_rng(2)
        a, b = Tensor(rng.normal(size=(3, 4, 4, 2))), Tensor(rng.normal(size=(3, 4, 4, 2)), requires_grad=True)
        rows = Tensor(a.data.mean(axis=(1, 2)))
        assert float(kp_layer_loss(rows, b).data) == float(kp_layer_loss(a, b).data)


class TestKpTotalLoss:
    def test_singleton(self):
        loss = kp_total_loss([Tensor(np.array(1.7))])
        assert float(loss.data) == pytest.approx(1.7)

    def test_arithmetic_mean(self):
        loss = kp_total_loss([Tensor(np.array(1.0)), Tensor(np.array(3.0))])
        assert float(loss.data) == pytest.approx(2.0)

    def test_all_zero(self):
        loss = kp_total_loss([Tensor(np.array(0.0))] * 3)
        assert float(loss.data) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            kp_total_loss([])


class TestCombinedLoss:
    def test_zero_weight(self):
        cls = Tensor(np.array(0.6))
        assert combined_loss(cls, Tensor(np.array(9.0)), 0.0) is cls

    def test_default_weighting(self):
        out = combined_loss(Tensor(np.array(0.6)), Tensor(np.array(0.6)), 0.5)
        assert float(out.data) == pytest.approx(0.9)

    def test_identical_networks_reduce_to_cls(self):
        net = Network(BackboneConfig(), seed=0)
        frozen = net.snapshot()
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (2, 16, 16, 1)))
        fa = frozen.forward_features(x)
        fb = net.forward_features(x)
        kp = kp_total_loss([kp_layer_loss(fa, fb)])
        assert float(kp.data) == 0.0
        cls = Tensor(np.array(0.42))
        assert float(combined_loss(cls, kp, 0.5).data) == float(cls.data)

    def test_monotone_in_each_argument(self):
        base = float(combined_loss(Tensor(np.array(1.0)), Tensor(np.array(1.0)), 0.5).data)
        assert float(combined_loss(Tensor(np.array(1.5)), Tensor(np.array(1.0)), 0.5).data) > base
        assert float(combined_loss(Tensor(np.array(1.0)), Tensor(np.array(2.0)), 0.5).data) > base


class TestKPConfig:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            KPConfig(am_fraction=0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            KPConfig(mode="sometimes")


def test_kp_gradient_flows_only_into_updating_network(small_net_and_input):
    rng = np.random.default_rng(21)
    net, x = small_net_and_input(200, rng)
    frozen = net.snapshot()
    # perturb the updating network so the drift loss is nonzero
    for p in net.params.values():
        p.data += rng.normal(0, 0.05, p.data.shape)

    def loss_fn(params):
        xt = Tensor(x)
        fa = frozen.forward_features(xt)
        fb = net.forward_features(xt)
        return kp_total_loss([kp_layer_loss(fa, fb)])

    rep = finite_diff_check(
        loss_fn, net.param_list(), max_coords=8, rng=np.random.default_rng(3)
    )
    assert rep.passed, f"max rel err {rep.max_rel_error}"
    # the snapshot's tensors never accumulate gradient
    loss = loss_fn(None)
    loss.backward()
    assert all(p.grad is None for p in frozen.params.values())


def test_gap_drift_zero_for_identical_networks():
    net = Network(BackboneConfig(), seed=5)
    frozen = net.snapshot()
    images = np.random.default_rng(6).uniform(0, 1, (2, 16, 16))
    drift = gap_drift(frozen, net, images)
    assert set(drift) == {"stage_penultimate", "stage_last", "aggregated", "logits"}
    assert all(v == 0.0 for v in drift.values())


def test_gap_drift_matches_numpy_oracle():
    rng = np.random.default_rng(7)
    nets = [Network(BackboneConfig(), seed=seed) for seed in (5, 6)]
    for net in nets:
        for c in range(net.num_classes):
            net.branch_weight(c).data[:] = rng.normal(size=net.config.feature_channels)
    images = rng.uniform(0, 1, (20, 16, 16))  # two chunks
    drift = gap_drift(*nets, images)
    cap_a, cap_b = {}, {}
    nets[0].forward_features(images[..., None], capture=cap_a)
    nets[1].forward_features(images[..., None], capture=cap_b)
    for name in DEFAULT_LAYERS:
        da, db = cap_a[name].data, cap_b[name].data
        if da.ndim == 4:
            da, db = da.mean(axis=(1, 2)), db.mean(axis=(1, 2))
        expected = np.linalg.norm(da - db)
        assert expected > 0
        np.testing.assert_allclose(drift[name], expected, rtol=1e-12)


def test_gap_drift_forwards_in_chunks(monkeypatch):
    batch_sizes = []
    forward = Network.forward_features

    def recording(self, image, capture=None):
        batch_sizes.append(image.shape[0])
        return forward(self, image, capture)

    monkeypatch.setattr(Network, "forward_features", recording)
    net = Network(BackboneConfig(), seed=5)
    gap_drift(net.snapshot(), net, np.random.default_rng(8).uniform(0, 1, (20, 16, 16)))
    assert sorted(batch_sizes) == [4, 4, 16, 16]
