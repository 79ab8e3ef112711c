import numpy as np
import pytest

from attnmine.autodiff import Tensor
from attnmine.gradcheck import finite_diff_check
from attnmine.kp import (
    DEFAULT_LAYERS,
    KPConfig,
    combined_loss,
    gap_drift,
    kp_layer_loss,
    kp_total_loss,
    partition_batch,
)
from attnmine.model import BackboneConfig, Network


class TestPartitionBatch:
    def test_default_operating_point(self):
        am, kp = partition_batch(16, 0.125)
        assert am == [0, 1]
        assert len(kp) == 14

    def test_clamped_minimum(self):
        am, kp = partition_batch(8, 0.125)
        assert am == [0]
        assert len(kp) == 7

    def test_half_split_restores_batch(self):
        am, kp = partition_batch(4, 0.5)
        assert am == [0, 1]
        assert kp == [2, 3]
        assert am + kp == list(range(4))

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            partition_batch(1, 0.125)


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
    images = rng.uniform(0, 1, (3, 16, 16))
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
