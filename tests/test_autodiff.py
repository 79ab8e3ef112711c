import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmine import autodiff as ad
from attnmine.autodiff import Tensor
from attnmine.kp import kp_layer_loss
from attnmine.model import BackboneConfig, Network

from gradcheck import finite_diff_check


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 5, 5, 1))
        k = np.ones((1, 1, 1, 1))
        out = ad.conv2d(Tensor(x), Tensor(k))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_kernel(self):
        x = np.random.default_rng(1).normal(size=(1, 4, 4, 3))
        out = ad.conv2d(Tensor(x), Tensor(np.zeros((3, 3, 3, 2))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_box_kernel_corner_padding(self):
        # 3x3 box kernel on a constant-5 map: interior stays 5, corners see
        # only 4 in-bounds cells under zero same-padding.
        x = np.full((1, 4, 4, 1), 5.0)
        k = np.full((3, 3, 1, 1), 1.0 / 9.0)
        out = ad.conv2d(Tensor(x), Tensor(k)).data[0, :, :, 0]
        assert out[1, 1] == pytest.approx(5.0)
        assert out[0, 0] == pytest.approx(5.0 * 4 / 9)

    def test_stride_output_shape(self):
        x = np.zeros((2, 7, 5, 3))
        out = ad.conv2d(Tensor(x), Tensor(np.zeros((3, 3, 3, 4))), stride=2)
        assert out.shape == (2, 4, 3, 4)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ad.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_forward_and_backward_bits_of_the_padded_copy(self, monkeypatch, k, stride):
        rng = np.random.default_rng(10 * k + stride)
        x = rng.normal(size=(3, 7, 6, 4))
        x[0, :2] = 0.0
        x[1, :, :2] = -0.0
        kernel, bias = rng.normal(size=(k, k, 4, 5)), rng.normal(size=5)
        g = rng.normal(size=(3, -(-7 // stride), -(-6 // stride), 5))
        g[2, :1] = -0.0

        def run():
            xt = Tensor(x, requires_grad=True)
            kt, bt = Tensor(kernel, requires_grad=True), Tensor(bias, requires_grad=True)
            out = ad.conv2d(xt, kt, bt, stride=stride)
            out.backward(g)
            return [a.tobytes() for a in (out.data, xt.grad, kt.grad, bt.grad)]

        fast = run()
        monkeypatch.setattr(ad, "_pad_same", _pad_same_copy)
        assert fast == run()

    def test_1x1_conv_leaves_its_input_unmodified(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 5, 4, 3))
        before = x.tobytes()
        assert ad._pad_same(x, 1, 1)[0] is x
        xt = Tensor(x, requires_grad=True)
        ad.conv2d(xt, Tensor(rng.normal(size=(1, 1, 3, 2))), Tensor(np.ones(2))).backward(
            np.ones((2, 5, 4, 2))
        )
        assert xt.data is x and x.tobytes() == before

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 1, 6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        a, b = 1.7, -0.4
        lhs = ad.conv2d(Tensor(a * x + b * y), Tensor(k)).data
        rhs = a * ad.conv2d(Tensor(x), Tensor(k)).data + b * ad.conv2d(
            Tensor(y), Tensor(k)
        ).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _pad_same_copy(x, kw, kh):
    """The np.pad reference of `ad._pad_same`: a padded copy, a 1x1 kernel's included."""
    pw0, ph0 = (kw - 1) // 2, (kh - 1) // 2
    pads = (pw0, kw - 1 - pw0, ph0, kh - 1 - ph0)
    return np.pad(x, ((0, 0), pads[:2], pads[2:], (0, 0))), pads


def _im2col_loop(xp, kw, kh, stride, ow, oh):
    """The per-tap reference `ad._im2col` must copy exactly: one strided slice a kernel tap."""
    n, _, _, d = xp.shape
    cols = np.empty((n, ow, oh, kw, kh, d), dtype=np.float64)
    for i in range(kw):
        for j in range(kh):
            cols[:, :, :, i, j, :] = xp[
                :, i : i + ow * stride : stride, j : j + oh * stride : stride, :
            ]
    return cols.reshape(n, ow, oh, kw * kh * d)


class TestIm2col:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n, w, h, d", [(1, 8, 8, 1), (3, 7, 5, 2), (2, 6, 9, 4), (16, 16, 16, 8)])
    def test_equals_per_tap_loop(self, stride, k, n, w, h, d):
        x = np.random.default_rng(w * h + d).normal(size=(n, w, h, d))
        xp, _ = ad._pad_same(x, k, k)
        ow, oh = -(-w // stride), -(-h // stride)
        cols = ad._im2col(xp, k, k, stride, ow, oh)
        assert cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, _im2col_loop(xp, k, k, stride, ow, oh))

    def test_rectangular_kernel(self):
        x = np.random.default_rng(4).normal(size=(2, 5, 6, 3))
        xp, _ = ad._pad_same(x, 3, 1)
        cols = ad._im2col(xp, 3, 1, 2, 3, 3)
        np.testing.assert_array_equal(cols, _im2col_loop(xp, 3, 1, 2, 3, 3))


class TestGap:
    def test_constant(self):
        out = ad.gap(Tensor(np.full((3, 4, 5, 2), 2.75)))
        np.testing.assert_array_equal(out.data, 2.75)

    def test_direct_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert ad.gap(Tensor(x)).data[0, 0] == pytest.approx(2.5)

    def test_single_spike(self):
        x = np.zeros((1, 4, 8, 1))
        x[0, 2, 3, 0] = 1.0
        assert ad.gap(Tensor(x)).data[0, 0] == pytest.approx(1.0 / 32)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 2, 3, 3, 4))
        lhs = ad.gap(Tensor(0.3 * x - 2.0 * y)).data
        rhs = 0.3 * ad.gap(Tensor(x)).data - 2.0 * ad.gap(Tensor(y)).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n, w, h, d", [(1, 1, 1, 1), (2, 3, 5, 4), (16, 16, 16, 48)])
    def test_backward_bits_of_the_two_pass_formula(self, n, w, h, d):
        rng = np.random.default_rng(w * h)
        out = ad.gap(Tensor(rng.normal(size=(n, w, h, d)), requires_grad=True))
        g = rng.normal(size=(n, d))
        g[0, :1] = -0.0
        two_pass = (np.broadcast_to(g[:, None, None, :], (n, w, h, d)) / (w * h)).copy()
        assert out._backward_fn(g)[0].tobytes() == two_pass.tobytes()


def _upsample_backward_add_at(x, g):
    """The np.add.at reference of the upsample backward: every output pixel's
    four weighted taps, one (w, h) weight pair after another."""
    wi0, wi1, wf = ad._upsample_indices(x.shape[1])
    hi0, hi1, hf = ad._upsample_indices(x.shape[2])
    wf = wf[:, None, None]
    hf = hf[None, :, None]
    gx = np.zeros_like(x)
    for widx, wwt in [(wi0, 1 - wf), (wi1, wf)]:
        for hidx, hwt in [(hi0, 1 - hf), (hi1, hf)]:
            np.add.at(gx, (slice(None), widx[:, None], hidx[None, :]), g * wwt * hwt)
    return gx


class TestBilinearUpsample:
    @pytest.mark.parametrize("shape", [(1, 1, 1, 3), (3, 5, 7, 2), (2, 2, 9, 1), (16, 8, 8, 32)])
    def test_backward_bits_of_add_at(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        out = ad.bilinear_upsample2x(Tensor(x, requires_grad=True))
        g = rng.normal(size=out.shape) * 1e3
        g[rng.random(g.shape) < 0.2] = 0.0
        g[rng.random(g.shape) < 0.2] = -0.0
        g[0, :2] = -0.0
        gx = out._backward_fn(g)[0]
        assert gx.tobytes() == _upsample_backward_add_at(x, g).tobytes()

    def test_constant_1x1(self):
        out = ad.bilinear_upsample2x(Tensor(np.full((1, 1, 1, 1), 5.0)))
        assert out.shape == (1, 2, 2, 1)
        np.testing.assert_array_equal(out.data, 5.0)

    def test_row_constant_halfpixel(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(1, 2, 2, 1)
        out = ad.bilinear_upsample2x(Tensor(x)).data[0, :, :, 0]
        for row in out:
            np.testing.assert_allclose(row, [0.0, 0.25, 0.75, 1.0])

    def test_gap_preserved_for_constants(self):
        x = np.full((2, 3, 3, 2), -1.25)
        up = ad.bilinear_upsample2x(Tensor(x))
        np.testing.assert_allclose(
            ad.gap(up).data, ad.gap(Tensor(x)).data, rtol=0, atol=0
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_range_bounded(self, seed):
        x = np.random.default_rng(seed).uniform(-1e3, 1e3, size=(1, 3, 4, 2))
        out = ad.bilinear_upsample2x(Tensor(x)).data
        assert out.min() >= x.min() - 1e-9
        assert out.max() <= x.max() + 1e-9


class TestSigmoidBce:
    def test_zero_logit(self):
        assert ad.sigmoid_bce(Tensor(np.array([0.0])), [1.0]).data == pytest.approx(
            np.log(2)
        )
        assert ad.sigmoid_bce(Tensor(np.array([0.0])), [0.0]).data == pytest.approx(
            np.log(2)
        )

    def test_saturation_no_overflow(self):
        assert float(ad.sigmoid_bce(Tensor(np.array([50.0])), [1.0]).data) < 1e-20
        assert ad.sigmoid_bce(Tensor(np.array([50.0])), [0.0]).data == pytest.approx(
            50.0
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ad.sigmoid_bce(Tensor(np.array([np.inf])), [1.0])

    def test_gradient_formula(self):
        z = Tensor(np.array([0.3]), requires_grad=True)
        ad.sigmoid_bce(z, [1.0]).backward()
        sigma = 1 / (1 + np.exp(-0.3))
        assert z.grad[0] == pytest.approx(sigma - 1.0, rel=1e-12)


def _param_with_grad(data, grad):
    p = Tensor(np.array(data), requires_grad=True)
    p.grad = np.array(grad)
    return p


class TestSgdStep:
    def test_zero_gradient(self):
        p = _param_with_grad([1.0, 2.0], np.zeros(2))
        ad.sgd_step([p], 0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_direct_arithmetic(self):
        p = _param_with_grad([1.0], [0.5])
        ad.sgd_step([p], 0.1)
        assert p.data[0] == pytest.approx(0.95)

    def test_two_steps_equal_double_lr(self):
        g = [0.7, -0.2]
        p1 = _param_with_grad([1.0, 1.0], g)
        p2 = _param_with_grad([1.0, 1.0], g)
        ad.sgd_step([p1], 0.1)
        ad.sgd_step([p1], 0.1)
        ad.sgd_step([p2], 0.2)
        np.testing.assert_allclose(p1.data, p2.data, rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        p = _param_with_grad(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            ad.sgd_step([p], 0.1)

    def test_parameter_without_gradient_unchanged(self):
        # a parameter that backward did not reach keeps grad None
        p = Tensor(np.array([1.0, -0.0]), requires_grad=True)
        q = _param_with_grad([1.0], [0.5])
        ad.sgd_step([p, q], 0.1)
        assert p.grad is None
        np.testing.assert_array_equal(p.data, [1.0, -0.0])
        assert np.signbit(p.data[1])
        assert q.data[0] == pytest.approx(0.95)


class TestBackward:
    def test_tape_freed_without_cycle_collector(self):
        # once the loss is dropped, reference counting alone must free the
        # tape: backward() may leave no reference cycle that holds it
        rng = np.random.default_rng(0)
        k = Tensor(rng.normal(size=(3, 3, 1, 2)), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            feat = ad.relu(ad.conv2d(Tensor(rng.normal(size=(2, 6, 6, 1))), k))
            ref = weakref.ref(feat)
            loss = ad.l2_norm(ad.gap(feat))
            del feat
            loss.backward()
            del loss
            assert ref() is None
            assert k.grad is not None
        finally:
            if was_enabled:
                gc.enable()

    def test_array_for_a_tensor_argument_raises(self):
        # an op never turns an array into a leaf: passing a parameter's
        # .data would otherwise run and leave its gradient None
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 6, 6, 1)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 1, 2)), requires_grad=True)
        with pytest.raises((AttributeError, TypeError, ValueError)):
            ad.conv2d(x, k.data)
        # an op whose forward runs on an array raises at the call, naming its type
        rows = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=3), requires_grad=True)
        with pytest.raises(TypeError, match="ndarray"):
            ad.matvec(rows, w.data)


def _small_net(seed):
    cfg = BackboneConfig(
        stage_channels=[3, 4], stage_strides=[1, 2], msa_reduced_channels=(3, 2), num_classes=2
    )
    net = Network(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for c in range(cfg.num_classes):
        net.branch_weight(c).data[:] = rng.normal(size=cfg.feature_channels)
    return net


def _param_grads(net, frozen, image, masks, labels):
    """Parameter gradients of an erased classification loss plus a drift penalty."""
    net.zero_grad()
    feat = net.forward_features(image)
    cls_loss = net.classification_loss(feat, masks, labels)
    kp_loss = kp_layer_loss(frozen.forward_features(image), feat)
    ad.add(cls_loss, ad.scale(kp_loss, 0.5)).backward()
    return [p.grad for p in net.param_list()]


class TestPrunedTape:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16), st.booleans())
    def test_pruned_tape_gives_bit_identical_parameter_gradients(self, seed, erase):
        # an image that requires a gradient keeps the whole tape, the frozen
        # snapshot's forward and stage 0's input gradient included; a plain
        # image prunes both, which must not change one bit of any parameter's
        # gradient
        net = _small_net(seed)
        frozen = net.snapshot()
        for p in net.param_list():
            p.data += np.random.default_rng(seed + 1).normal(0, 0.05, p.data.shape)
        rng = np.random.default_rng(seed + 2)
        x = rng.uniform(0, 1, (3, 8, 8, 1))
        masks = (rng.random((2, 3, 8, 8)) < 0.7) if erase else np.ones((2, 3, 8, 8))
        labels = rng.integers(0, 2, (3, 2))
        full = _param_grads(net, frozen, Tensor(x, requires_grad=True), masks, labels)
        pruned = _param_grads(net, frozen, Tensor(x), masks, labels)
        assert all(g is not None for g in pruned)
        for a, b in zip(full, pruned):
            assert np.array_equal(a, b)

    def test_inference_builds_no_tape(self):
        frozen = _small_net(0).snapshot()
        capture = {}
        feat = frozen.forward_features(Tensor(np.ones((2, 8, 8, 1))), capture=capture)
        for t in (feat, *capture.values()):
            assert not t.requires_grad
            assert t._parents == () and t._backward_fn is None

    def test_stage0_conv_backward_skips_input_gradient(self):
        rng = np.random.default_rng(1)
        k = Tensor(rng.normal(size=(3, 3, 1, 2)), requires_grad=True)
        for needs_grad in (False, True):
            x = Tensor(rng.normal(size=(2, 6, 6, 1)), requires_grad=needs_grad)
            out = ad.conv2d(x, k)
            gx, gk = out._backward_fn(np.ones(out.shape))
            assert (gx is not None) == needs_grad
            assert gk.shape == k.shape
            out.backward(np.ones(out.shape))
            assert (x.grad is not None) == needs_grad
            k.zero_grad()

    def test_grad_stored_on_leaves_only(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mid = ad.scale(p, 3.0)
        assert mid.requires_grad
        ad.l2_norm(mid).backward()
        assert mid.grad is None and p.grad is not None


class TestFiniteDiffCheck:
    def test_quadratic(self):
        p = Tensor(np.array([3.0]), requires_grad=True)

        def quad(params):
            t = params[0]
            return Tensor(
                t.data**2,
                parents=[t],
                backward_fn=lambda g: [2 * t.data * g],
            )

        rep = finite_diff_check(quad, [p])
        assert rep.max_rel_error < 1e-6

    def test_bce_gradient(self):
        z = Tensor(np.array([0.3]), requires_grad=True)
        rep = finite_diff_check(lambda ps: ad.sigmoid_bce(ps[0], [1.0]), [z])
        assert rep.max_rel_error < 1e-6

    def test_composed_network_seed7(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 1.0, size=(2, 5, 5, 2))
        k = Tensor(rng.normal(0, 0.3, size=(3, 3, 2, 3)), requires_grad=True)
        w = Tensor(rng.normal(0, 0.3, size=3), requires_grad=True)

        def loss(params):
            feat = ad.conv2d(Tensor(x), params[0])
            return ad.sigmoid_bce(ad.matvec(ad.gap(feat), params[1]), [1.0, 0.0])

        rep = finite_diff_check(loss, [k, w])
        assert rep.max_rel_error < 1e-4

    def test_epsilon_range_enforced(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda ps: ad.l2_norm(ps[0]), [p], epsilon=1e-2)


def test_gradients_at_100_random_configs():
    """Each op family checked against finite differences at 100 seeded configs."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, w, h, d_in, d_out = 1, 4, 4, 2, 2
        x = Tensor(rng.normal(0.5, 0.5, size=(n, w, h, d_in)), requires_grad=True)
        k = Tensor(rng.normal(0, 0.4, size=(3, 3, d_in, d_out)), requires_grad=True)
        b = Tensor(rng.normal(0, 0.2, size=d_out), requires_grad=True)
        wv = Tensor(rng.normal(0, 0.5, size=d_out), requires_grad=True)
        y = rng.integers(0, 2, size=n).astype(float)

        def loss(params):
            feat = ad.bilinear_upsample2x(
                ad.conv2d(params[0], params[1], params[2], stride=2)
            )
            return ad.sigmoid_bce(ad.matvec(ad.gap(feat), params[3]), y)

        rep = finite_diff_check(
            loss, [x, k, b, wv], max_coords=4, rng=np.random.default_rng(seed)
        )
        worst = max(worst, rep.max_rel_error)
    assert worst < 1e-4


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_all_outputs_finite_extreme_magnitudes(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e3, 1e3, size=(1, 4, 4, 2))
    k = rng.uniform(-1e3, 1e3, size=(3, 3, 2, 2))
    xt = Tensor(x, requires_grad=True)
    out = ad.conv2d(xt, Tensor(k))
    up = ad.bilinear_upsample2x(out)
    g = ad.gap(up)
    loss = ad.scale(ad.l2_norm(g), 1e-3)
    loss.backward()
    for arr in (out.data, up.data, g.data, loss.data, xt.grad):
        assert np.all(np.isfinite(arr))
