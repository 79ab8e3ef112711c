import numpy as np
import pytest

from attnmine import autodiff as ad
from attnmine.autodiff import Tensor
from attnmine.kp import kp_layer_loss
from attnmine.model import (
    BackboneConfig,
    Network,
    load_checkpoint,
    save_checkpoint,
)

from gradcheck import finite_diff_check


@pytest.fixture
def net():
    return Network(BackboneConfig(), seed=0)


@pytest.fixture
def tiny_net():
    cfg = BackboneConfig(
        stage_channels=[2, 3],
        stage_strides=[1, 2],
        msa_reduced_channels=(2, 2),
        num_classes=2,
    )
    return Network(cfg, seed=3)


class TestForwardStages:
    def test_default_shapes_64(self, net):
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 64, 64, 1)))
        shallow, deep = net.forward_stages(x)
        assert shallow.shape == (1, 16, 16, 32)
        assert deep.shape == (1, 8, 8, 64)

    def test_zero_input_zero_bias(self, net):
        shallow, deep = net.forward_stages(Tensor(np.zeros((1, 64, 64, 1))))
        np.testing.assert_array_equal(shallow.data, 0.0)
        np.testing.assert_array_equal(deep.data, 0.0)

    def test_batch_independence(self, net):
        img = np.random.default_rng(1).uniform(0, 1, (64, 64, 1))
        batch = Tensor(np.stack([img, img]))
        shallow, deep = net.forward_stages(batch)
        np.testing.assert_array_equal(shallow.data[0], shallow.data[1])
        np.testing.assert_array_equal(deep.data[0], deep.data[1])

    def test_indivisible_dims_rejected(self, net):
        with pytest.raises(ValueError, match="positive multiples of 8"):
            net.forward_stages(Tensor(np.zeros((1, 60, 60, 1))))


class TestMsaAggregate:
    def test_default_shapes(self, net):
        x = Tensor(np.random.default_rng(2).uniform(0, 1, (1, 64, 64, 1)))
        feat = net.forward_features(x)
        assert feat.shape == (1, 16, 16, 48)

    def test_zero_inputs(self, net):
        deep = Tensor(np.zeros((1, 8, 8, 64)))
        shallow = Tensor(np.zeros((1, 16, 16, 32)))
        out = net.msa_aggregate(deep, shallow)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_concat_order_deep_first(self, net):
        # Plant a marker through the deep stream with zeroed kernels: only
        # the bias survives, proving which half of the channels it fills.
        net.params["msa_deep_w"].data[:] = 0.0
        net.params["msa_deep_b"].data[:] = 7.0
        net.params["msa_shallow_w"].data[:] = 0.0
        net.params["msa_shallow_b"].data[:] = 0.0
        deep = Tensor(np.zeros((1, 8, 8, 64)))
        shallow = Tensor(np.zeros((1, 16, 16, 32)))
        out = net.msa_aggregate(deep, shallow).data
        np.testing.assert_array_equal(out[..., :32], 7.0)
        np.testing.assert_array_equal(out[..., 32:], 0.0)

    def test_spatial_mismatch_rejected(self, net):
        with pytest.raises(ValueError, match="spatial mismatch"):
            net.msa_aggregate(
                Tensor(np.zeros((1, 8, 8, 64))), Tensor(np.zeros((1, 20, 16, 32)))
            )


class TestBranchLogits:
    def test_zero_weights(self, net):
        feat = Tensor(np.random.default_rng(3).uniform(0, 1, (2, 4, 4, 48)))
        logits = net.branch_logits(feat, 0)
        np.testing.assert_array_equal(logits.data, 0.0)

    def test_constant_feature_unit_weight(self, net):
        net.params["branch1_w"].data[:] = 0.0
        net.params["branch1_w"].data[5] = 1.0
        feat = Tensor(np.full((3, 4, 4, 48), 0.8))
        logits = net.branch_logits(feat, 1)
        np.testing.assert_allclose(logits.data, 0.8)

    def test_dot_product(self):
        cfg = BackboneConfig(
            stage_channels=[2, 2], msa_reduced_channels=(1, 1), num_classes=1,
            stage_strides=[1, 2],
        )
        net = Network(cfg, seed=0)
        net.params["branch0_w"].data[:] = [1.0, -1.0]
        feat = np.zeros((1, 2, 2, 2))
        feat[..., 0] = 0.5
        feat[..., 1] = 0.2
        assert net.branch_logits(Tensor(feat), 0).data[0] == pytest.approx(0.3)

    def test_length_mismatch_rejected(self, net):
        with pytest.raises(ValueError, match="channels"):
            net.branch_logits(Tensor(np.zeros((1, 4, 4, 10))), 0)
        with pytest.raises(ValueError, match="channels"):
            net.branch_logits(Tensor(np.zeros((1, 10))), 0)

    @pytest.mark.parametrize("use_msa", [True, False])
    def test_gap_rows_give_the_bytes_of_the_map(self, use_msa):
        # fine-tuning computes the snapshot's logits from its cached GAP rows
        rng = np.random.default_rng(9)
        net = Network(BackboneConfig(use_msa=use_msa), seed=2)
        for c in range(net.num_classes):
            net.branch_weight(c).data[:] = rng.normal(size=net.config.feature_channels)
        feat = net.forward_features(rng.uniform(0, 1, (5, 16, 16, 1)))
        rows = Tensor(ad.gap(feat).data)
        for c in range(net.num_classes):
            on_map = net.branch_logits(feat, c).data
            assert np.any(on_map != 0)
            assert net.branch_logits(rows, c).data.tobytes() == on_map.tobytes(), c


class TestClassificationLoss:
    def test_all_ones_masks_zero_logits(self, net):
        feat = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 4, 4, 48)))
        masks = np.ones((4, 2, 4, 4))
        labels = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
        loss = net.classification_loss(feat, masks, labels)
        assert float(loss.data) == pytest.approx(np.log(2))

    def test_single_class_reduces_to_mean_bce(self):
        cfg = BackboneConfig(
            stage_channels=[2, 2], stage_strides=[1, 2],
            msa_reduced_channels=(1, 1), num_classes=1,
        )
        net = Network(cfg, seed=1)
        net.params["branch0_w"].data[:] = [0.5, -0.5]
        feat = Tensor(np.random.default_rng(5).uniform(0, 1, (3, 4, 4, 2)))
        masks = np.ones((1, 3, 4, 4))
        labels = np.array([[1], [0], [1]])
        loss = net.classification_loss(feat, masks, labels)
        logits = net.branch_logits(feat, 0)
        expected = ad.sigmoid_bce(logits, labels[:, 0].astype(float))
        assert float(loss.data) == pytest.approx(float(expected.data), rel=1e-15)

    def test_fully_masked_gives_ln2(self, net):
        feat = Tensor(np.random.default_rng(6).uniform(0, 1, (2, 4, 4, 48)))
        masks = np.zeros((4, 2, 4, 4))
        labels = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        loss = net.classification_loss(feat, masks, labels)
        assert float(loss.data) == pytest.approx(np.log(2))

    def test_nonbinary_mask_rejected(self, net):
        feat = Tensor(np.zeros((1, 4, 4, 48)))
        masks = np.full((4, 1, 4, 4), 0.5)
        with pytest.raises(ValueError, match="binary"):
            net.classification_loss(feat, masks, np.ones((1, 4)))


class TestErasureIdentities:
    def test_all_ones_mask_is_identity(self, tiny_net):
        rng = np.random.default_rng(7)
        for c in range(2):
            tiny_net.params[f"branch{c}_w"].data = rng.normal(0, 0.5, 4)
        feat = Tensor(rng.uniform(0, 1, (2, 8, 8, 4)))
        labels = np.array([[1, 0], [0, 1]])
        masked = tiny_net.classification_loss(feat, np.ones((2, 2, 8, 8)), labels)
        # unmasked reference computed directly from the same logits
        losses = [
            ad.sigmoid_bce(tiny_net.branch_logits(feat, c), labels[:, c].astype(float))
            for c in range(2)
        ]
        unmasked = ad.mean_of(losses)
        assert float(masked.data) == float(unmasked.data)  # bit-exact

    @pytest.mark.parametrize("use_msa", [True, False])
    def test_all_ones_masks_keep_the_bits_of_a_product_for_every_class(self, use_msa):
        # a class whose mask is all ones reads the map itself; the loss and
        # every parameter gradient, a drift term's included, must keep the
        # bits of multiplying each class's mask in
        cfg = BackboneConfig(
            stage_channels=[3, 4, 5], stage_strides=[1, 2, 2],
            msa_reduced_channels=(3, 2), num_classes=4, use_msa=use_msa,
        )
        net = Network(cfg, seed=4)
        rng = np.random.default_rng(10)
        for c in range(4):
            net.branch_weight(c).data[:] = rng.normal(size=cfg.feature_channels)
        frozen = net.snapshot()
        for p in net.param_list():
            p.data += rng.normal(0, 0.05, p.data.shape)
        image = rng.uniform(0, 1, (3, 16, 16, 1))
        side = 8 if use_msa else 4
        masks = np.ones((4, 3, side, side))
        masks[1] = rng.random((3, side, side)) < 0.7
        masks[3, 0, :2, :2] = 0
        labels = rng.integers(0, 2, (3, 4)).astype(float)

        def every_product(feat):
            return ad.mean_of([
                ad.sigmoid_bce(net.branch_logits(ad.mul_const(feat, m[..., None]), c), labels[:, c])
                for c, m in enumerate(masks)
            ])

        def bits(cls_loss_of):
            net.zero_grad()
            feat = net.forward_features(image)
            cls_loss = cls_loss_of(feat)
            kp_loss = kp_layer_loss(frozen.forward_features(image), feat)
            ad.add(cls_loss, ad.scale(kp_loss, 0.5)).backward()
            return [cls_loss.data.tobytes()] + [p.grad.tobytes() for p in net.param_list()]

        assert bits(lambda feat: net.classification_loss(feat, masks, labels)) == bits(every_product)

    def test_annihilation_where_mask_zero(self):
        rng = np.random.default_rng(8)
        feat = rng.uniform(0.5, 1.0, (1, 6, 6, 3))
        mask = np.ones((1, 6, 6))
        mask[0, 2:4, 1:5] = 0
        erased = ad.mul_const(Tensor(feat), mask[..., None]).data
        assert np.all(erased[0, 2:4, 1:5, :] == 0.0)
        np.testing.assert_array_equal(erased[0, 0], feat[0, 0])

    def test_class_permutation_symmetry(self, tiny_net):
        rng = np.random.default_rng(9)
        for c in range(2):
            tiny_net.params[f"branch{c}_w"].data = rng.normal(0, 0.5, 4)
        feat = Tensor(rng.uniform(0, 1, (2, 8, 8, 4)))
        labels = np.array([[1, 0], [0, 1]])
        masks = np.ones((2, 2, 8, 8))
        masks[0, 0, :2, :2] = 0
        loss = tiny_net.classification_loss(feat, masks, labels)
        # permute the two classes: swap branches, labels and masks
        b0 = tiny_net.params["branch0_w"].data.copy()
        tiny_net.params["branch0_w"].data = tiny_net.params["branch1_w"].data.copy()
        tiny_net.params["branch1_w"].data = b0
        loss_perm = tiny_net.classification_loss(
            feat, masks[::-1], labels[:, ::-1]
        )
        assert float(loss.data) == pytest.approx(float(loss_perm.data), rel=1e-15)


def test_masked_loss_gradient_check(small_net_and_input):
    net, x = small_net_and_input(100, np.random.default_rng(11))
    labels = np.array([[1, 0], [0, 1]], dtype=float)
    masks = np.ones((2, 2, 8, 8))
    masks[0, 0, 2:5, 2:5] = 0

    def loss_fn(params):
        feat = net.forward_features(Tensor(x))
        return net.classification_loss(feat, masks, labels)

    rep = finite_diff_check(
        loss_fn, net.param_list(), max_coords=10, rng=np.random.default_rng(2)
    )
    assert rep.passed, f"max rel err {rep.max_rel_error} at {rep.worst_coord}"


class TestCheckpoint:
    def test_exact_roundtrip(self, tmp_path, net):
        rng = np.random.default_rng(12)
        for p in net.params.values():
            p.data += rng.normal(0, 0.1, p.data.shape)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net)
        assert stored_meta(path) == (
            '{"format_version": 1, "stage_channels": [8, 16, 32, 64], '
            '"stage_strides": [1, 2, 2, 2], "msa_reduced_channels": [32, 16], '
            '"num_classes": 4, "use_msa": 1}'
        )
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        for k in net.params:
            np.testing.assert_array_equal(loaded.params[k].data, net.params[k].data)

    def test_snapshot_immutable_copy(self, net):
        frozen = net.snapshot()
        before = frozen.params["stage0_w"].data.copy()
        net.params["stage0_w"].data += 1.0
        np.testing.assert_array_equal(frozen.params["stage0_w"].data, before)
        assert not frozen.params["stage0_w"].requires_grad

    def test_no_msa_variant(self, tmp_path):
        cfg = BackboneConfig(use_msa=False)
        net = Network(cfg, seed=0)
        x = Tensor(np.random.default_rng(13).uniform(0, 1, (1, 64, 64, 1)))
        feat = net.forward_features(x)
        assert feat.shape == (1, 8, 8, 64)
        save_checkpoint(tmp_path / "c.npz", net)
        assert stored_meta(tmp_path / "c.npz") == (
            '{"format_version": 1, "stage_channels": [8, 16, 32, 64], '
            '"stage_strides": [1, 2, 2, 2], "msa_reduced_channels": [32, 16], '
            '"num_classes": 4, "use_msa": 0}'
        )
        assert load_checkpoint(tmp_path / "c.npz").config.use_msa is False


def stored_meta(path):
    """The checkpoint's `__meta__` record, as the text it was written as."""
    with np.load(path) as data:
        return bytes(data["__meta__"]).decode()
