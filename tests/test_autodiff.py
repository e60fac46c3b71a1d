import numpy as np
import pytest

from shadowstorm import autodiff as ad
from shadowstorm.autodiff import ShapeMismatchError, Tensor
from shadowstorm.rng import Xoshiro256StarStar


def finite_diff(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (float(f(xp)) - float(f(xm))) / (2.0 * h)
    return grad


def analytic_grad(f_tensor, x):
    leaf = Tensor(x.copy(), requires_grad=True)
    f_tensor(leaf).backward()
    return leaf.grad


class TestBasics:
    def test_relu_dead_region(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        ad.tsum(ad.relu(x)).backward()
        assert x.grad[0] == 0.0

    def test_conv2d_identity_kernel(self):
        rng = Xoshiro256StarStar(1)
        x = Tensor(rng.fill((5, 5, 2)), requires_grad=True)
        kernel = np.zeros((3, 3, 2, 2))
        kernel[1, 1, 0, 0] = 1.0
        kernel[1, 1, 1, 1] = 1.0
        out = ad.conv2d(x, Tensor(kernel))
        assert np.array_equal(out.data, x.data)
        seed = rng.fill((5, 5, 2))
        out.backward(seed)
        assert np.array_equal(x.grad, seed)

    def test_quadratic_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_clamp_straight_through_strictly_inside(self):
        x = Tensor(np.array([0.0, 0.5, 1.0, -0.2, 1.3]), requires_grad=True)
        ad.tsum(ad.clamp01(x)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0, 0.0, 0.0])

    def test_broadcast_channel_gain(self):
        rng = Xoshiro256StarStar(2)
        x = Tensor(rng.fill((3, 3, 3)), requires_grad=True)
        g = Tensor(rng.fill((3, 3, 1)), requires_grad=True)
        ad.tsum(ad.mul(x, g)).backward()
        assert x.grad.shape == (3, 3, 3)
        assert g.grad.shape == (3, 3, 1)
        assert np.allclose(g.grad[:, :, 0], x.data.sum(axis=2))


def per_tap_blur(x, kern, cotangent):
    """Reference blur2d forward and VJP with one multiply per tap."""
    kh, kw = kern.shape
    h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((h + kh - 1, w + kw - 1, c))
    padded[ph:ph + h, pw:pw + w] = x
    out = np.zeros_like(x)
    gpad = np.zeros_like(padded)
    for i in range(kh):
        for j in range(kw):
            out += kern[i, j] * padded[i:i + h, j:j + w]
            gpad[i:i + h, j:j + w] += kern[i, j] * cotangent
    return out, gpad[ph:ph + h, pw:pw + w]


ASYMMETRIC_KERNEL = np.array([[0.05, 0.10, 0.02],
                              [0.20, 0.30, 0.07],
                              [0.01, 0.15, 0.10]])


class TestBlur2dBytes:
    # the single-channel cases take kernels wider than the image, as the
    # gain map's 9x9 box does on small inputs
    @pytest.mark.parametrize("shape,kern", [
        ((9, 7, 3), ad.box_kernel(2)),
        ((9, 7, 3), ASYMMETRIC_KERNEL),
        ((5, 7, 1), ad.box_kernel(4)),
        ((1, 1, 1), ad.box_kernel(4)),
        ((1, 1, 1), ASYMMETRIC_KERNEL)],
        ids=["box", "asymmetric", "box-wider-than-image", "one-pixel-box",
             "one-pixel-asymmetric"])
    def test_matches_per_tap_loop(self, shape, kern):
        rng = Xoshiro256StarStar(21)
        x = rng.fill_uniform(shape, -1.0, 1.0)
        cotangent = rng.fill_uniform(shape, -1.0, 1.0)
        leaf = Tensor(x, requires_grad=True)
        out = ad.blur2d(leaf, kern)
        ad.tsum(ad.mul(out, Tensor(cotangent))).backward()
        ref_out, ref_grad = per_tap_blur(x, kern, cotangent)
        assert out.data.tobytes() == ref_out.tobytes()
        assert leaf.grad.tobytes() == ref_grad.tobytes()


def per_tap_conv(x, kernel, bias, cotangent):
    """Reference conv2d forward and VJPs with one product per tap window."""
    h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((h + kh - 1, w + kw - 1, cin))
    padded[ph:ph + h, pw:pw + w] = x
    out = np.zeros((h, w, cout))
    gpad = np.zeros_like(padded)
    gk = np.empty_like(kernel)
    for i in range(kh):
        for j in range(kw):
            window = padded[i:i + h, j:j + w]
            out += np.tensordot(window, kernel[i, j], axes=([2], [0]))
            gpad[i:i + h, j:j + w] += np.tensordot(
                cotangent, kernel[i, j], axes=([2], [1]))
            gk[i, j] = np.tensordot(window, cotangent, axes=([0, 1], [0, 1]))
    if bias is not None:
        out += bias
    return (out, gpad[ph:ph + h, pw:pw + w], gk,
            cotangent.sum(axis=(0, 1)))


class TestConv2dBytes:
    # Cin = 1 puts the input VJP on BLAS's matrix-vector kernel, whose
    # rounding follows a row's position in its block (see conv2d): the
    # 7x9x1 case matches the per-tap loop, but 8x8x1 -> 8 with a 3x3
    # kernel does not, in the input VJP only. No zoo layer has Cin = 1.
    @pytest.mark.parametrize("h,w,cin,cout,kh,kw,with_bias", [
        (9, 7, 3, 8, 3, 3, True), (5, 12, 8, 3, 5, 3, False),
        (6, 4, 1, 2, 1, 1, True), (7, 9, 1, 8, 3, 3, True),
        (1, 1, 3, 8, 3, 3, True),
        (64, 64, 8, 8, 3, 3, True)])
    def test_matches_per_tap_loop(self, h, w, cin, cout, kh, kw, with_bias):
        rng = Xoshiro256StarStar(22)
        x = rng.fill_uniform((h, w, cin), -1.0, 1.0)
        kernel = rng.fill_uniform((kh, kw, cin, cout), -1.0, 1.0)
        bias = rng.fill_uniform((cout,), -1.0, 1.0) if with_bias else None
        cotangent = rng.fill_uniform((h, w, cout), -1.0, 1.0)
        cotangent[:(h + 1) // 2, :(w + 1) // 2] = 0.0
        leaf = Tensor(x, requires_grad=True)
        kt = Tensor(kernel, requires_grad=True)
        bt = Tensor(bias, requires_grad=True) if with_bias else None
        out = ad.conv2d(leaf, kt, bt)
        out.backward(cotangent)
        ref_out, ref_grad, ref_gk, ref_gb = per_tap_conv(
            x, kernel, bias, cotangent)
        assert out.data.tobytes() == ref_out.tobytes()
        assert leaf.grad.tobytes() == ref_grad.tobytes()
        assert kt.grad.tobytes() == ref_gk.tobytes()
        if with_bias:
            assert bt.grad.tobytes() == ref_gb.tobytes()


class TestChannelSumBytes:
    """The channel sum adds slices into +0.0 in order; numpy's reduction
    does the same for up to 7 entries, -0.0 entries included."""

    @pytest.mark.parametrize("channels", range(1, 8))
    def test_matches_numpy_reductions(self, channels):
        rng = Xoshiro256StarStar(channels)
        shape = (9, 11, channels)
        a = (rng.fill_uniform(shape, -1.0, 1.0)
             * 10.0 ** np.round(rng.fill_uniform(shape, -8.0, 8.0)))
        a[rng.fill(shape) < 0.2] = -0.0
        a[0, 0] = -0.0  # a pixel of nothing but -0.0
        summed = ad._sum_last(a)
        assert summed.tobytes() == np.sum(a, axis=-1, keepdims=True).tobytes()
        assert (summed / channels)[..., 0].tobytes() \
            == a.mean(axis=2).tobytes()
        assert ad.mean_channels(Tensor(a)).data.tobytes() \
            == a.mean(axis=2, keepdims=True).tobytes()
        # the gradient of a per-pixel gain summed back over the channels
        gain = Tensor(np.ones(shape[:2] + (1,)), requires_grad=True)
        ad.mul(Tensor(a), gain).backward(np.ones(shape))
        assert gain.grad.tobytes() \
            == np.sum(a, axis=2, keepdims=True).tobytes()


class TestErrors:
    def test_accumulate_checks_shape_and_copies(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ShapeMismatchError, match=r"\(3,\).*\(2, 3\)"):
            t._accumulate(np.zeros(3))
        assert t.grad is None
        view = np.broadcast_to(np.array(-0.0), (2, 3))
        t._accumulate(view)  # a read-only view; -0.0 becomes +0.0
        assert t.grad.tobytes() == np.zeros((2, 3)).tobytes()
        t._accumulate(np.ones((2, 3)))
        assert t.grad.tolist() == [[1.0] * 3] * 2 and view[0, 0] == 0.0

    def test_shape_mismatch_names_shapes_and_primitive(self):
        with pytest.raises(ShapeMismatchError, match=r"add.*\(2,\).*\(3,\)"):
            ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_non_scalar_backward_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.relu(x).backward()

    def test_double_backward_rejected(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = ad.sqnorm(x)
        out.backward()
        with pytest.raises(RuntimeError, match="twice"):
            out.backward()

    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="conv2d"):
            ad.conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))


class TestLinearity:
    def test_backward_linear_combination(self):
        rng = Xoshiro256StarStar(3)
        x0 = rng.fill((4, 4, 2))
        alpha, beta = 1.7, -0.6

        def f(t):
            return ad.sqnorm(t)

        def g(t):
            return ad.tsum(ad.mul(t, ad.add(t, Tensor(np.full(x0.shape, 0.3)))))

        grad_f = analytic_grad(f, x0)
        grad_g = analytic_grad(g, x0)
        combo = analytic_grad(
            lambda t: ad.add(ad.smul(f(t), alpha), ad.smul(g(t), beta)), x0)
        expect = alpha * grad_f + beta * grad_g
        assert np.abs(combo - expect).max() <= 1e-12 * np.abs(expect).max()


class TestDeterminism:
    def test_identical_tapes_identical_grads(self):
        rng = Xoshiro256StarStar(4)
        x0 = rng.fill((6, 6, 3))
        kern = rng.fill_uniform((3, 3, 3, 4), -0.2, 0.2)

        def run():
            x = Tensor(x0.copy(), requires_grad=True)
            k = Tensor(kern.copy(), requires_grad=True)
            out = ad.sqnorm(ad.relu(ad.conv2d(x, k)))
            out.backward()
            return x.grad.copy(), k.grad.copy()

        gx1, gk1 = run()
        gx2, gk2 = run()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gk1, gk2)


# random inputs away from relu/clamp kinks, |x| > 1e-2
def _safe_uniform(rng, shape, lo=0.1, hi=0.9):
    return rng.fill_uniform(shape, lo, hi)


class TestFiniteDifferences:
    """Every primitive's analytic VJP against central differences."""

    def check(self, f_tensor, x, tol=1e-4):
        analytic = analytic_grad(f_tensor, x)
        numeric = finite_diff(lambda a: f_tensor(Tensor(a)).data, x, h=1e-5)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale < tol

    def test_mul_div(self):
        rng = Xoshiro256StarStar(10)
        x = _safe_uniform(rng, (3, 4, 2))
        other = Tensor(_safe_uniform(rng, (3, 4, 2), 0.5, 1.5))
        self.check(lambda t: ad.tsum(ad.div(ad.mul(t, other), ad.add(other, t))), x)

    def test_conv2d_wrt_input_and_kernel(self):
        rng = Xoshiro256StarStar(11)
        x = _safe_uniform(rng, (6, 5, 3))
        kern = rng.fill_uniform((3, 3, 3, 4), -0.3, 0.3)
        bias = rng.fill_uniform((4,), -0.1, 0.1)
        probe = Tensor(rng.fill_uniform((6, 5, 4), -1.0, 1.0))
        self.check(lambda t: ad.tsum(ad.mul(
            ad.conv2d(t, Tensor(kern), Tensor(bias)), probe)), x)
        # kernel side
        self.check(lambda t: ad.tsum(ad.mul(
            ad.conv2d(Tensor(x), t, Tensor(bias)), probe)), kern)
        self.check(lambda t: ad.tsum(ad.mul(
            ad.conv2d(Tensor(x), Tensor(kern), t), probe)), bias)

    def test_blur2d(self):
        rng = Xoshiro256StarStar(12)
        x = _safe_uniform(rng, (6, 6, 2))
        probe = Tensor(rng.fill_uniform((6, 6, 2), -1.0, 1.0))
        # an asymmetric kernel catches a flipped or transposed backward rule
        skewed = np.array([[0.05, 0.10, 0.02],
                           [0.20, 0.30, 0.07],
                           [0.01, 0.15, 0.10]])
        self.check(lambda t: ad.tsum(ad.mul(
            ad.blur2d(t, ad.box_kernel(1)), probe)), x)
        self.check(lambda t: ad.tsum(ad.mul(ad.blur2d(t, skewed), probe)), x)

    def test_sqnorm_and_mean_channels(self):
        rng = Xoshiro256StarStar(13)
        x = _safe_uniform(rng, (4, 4, 1))
        offset = Tensor(np.full(x.shape, 0.45))
        self.check(lambda t: ad.sqnorm(ad.sub(t, offset)), x)
        self.check(lambda t: ad.sqnorm(t), x)
        self.check(lambda t: ad.sqnorm(ad.mean_channels(t)), x)

    def test_relu_clamp_away_from_kinks(self):
        rng = Xoshiro256StarStar(14)
        x = rng.fill_uniform((5, 5, 2), -0.9, 0.9)
        x[np.abs(x) < 2e-2] = 0.25           # keep clear of the relu kink
        x[np.abs(x - 1.0) < 2e-2] = 0.25     # and the upper clamp bound
        probe = Tensor(rng.fill_uniform((5, 5, 2), -1.0, 1.0))
        self.check(lambda t: ad.tsum(ad.mul(ad.relu(t), probe)), x)
        self.check(lambda t: ad.tsum(ad.mul(ad.clamp01(t), probe)), x)

    def test_three_layer_conv_net(self):
        # the composite case: conv -> relu -> conv -> relu -> conv -> squared l2
        rng = Xoshiro256StarStar(15)
        x = _safe_uniform(rng, (8, 8, 3), 0.2, 0.8)
        k1 = Tensor(rng.fill_uniform((3, 3, 3, 4), -0.1, 0.1))
        k2 = Tensor(rng.fill_uniform((3, 3, 4, 4), -0.1, 0.1))
        k3 = Tensor(rng.fill_uniform((3, 3, 4, 3), -0.1, 0.1))
        anchor = Tensor(_safe_uniform(rng, (8, 8, 3)))

        def net(t):
            h1 = ad.relu(ad.conv2d(t, k1))
            h2 = ad.relu(ad.conv2d(h1, k2))
            return ad.sqnorm(ad.sub(ad.conv2d(h2, k3), anchor))

        analytic = analytic_grad(net, x)
        numeric = finite_diff(lambda a: net(Tensor(a)).data, x, h=1e-4)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale < 1e-4


class TestGradCheck:
    def test_quadratic_passes_tight(self):
        rng = Xoshiro256StarStar(16)
        report = ad.grad_check(ad.sqnorm, rng.fill((3, 3, 1)), h=1e-4, tol=1e-6)
        assert report.passed

    def test_wrong_backward_rule_fails(self):
        def broken(t):
            out = Tensor(np.asarray((t.data ** 2).sum()), requires_grad=True,
                         _parents=(t,))
            def back(g):
                t._accumulate(3.0 * g * t.data)  # should be 2x
            out._backward = back
            return out

        rng = Xoshiro256StarStar(17)
        report = ad.grad_check(broken, rng.fill_uniform((4,), 0.3, 0.9),
                               h=1e-4, tol=1e-4)
        assert not report.passed

    def test_report_fields(self):
        rng = Xoshiro256StarStar(18)
        report = ad.grad_check(ad.sqnorm, rng.fill((2, 2, 1)))
        assert report.tolerance == 1e-4
        assert len(report.worst_coord) == 3
        assert all(type(i) is int for i in report.worst_coord)
        assert report.scale > 0
        assert report.checked_count == 4
        assert report.nonsmooth_count == 0

    def test_kink_crossing_coordinates_excluded_not_failed(self):
        # a relu kink inside the +/-h window makes central differences wrong
        # by an h-independent amount; grad_check must exclude, not fail
        x = np.array([0.5, 1e-5, 0.25])  # middle coordinate hugs the kink
        weight = Tensor(np.array([1.0, 1.0, 1.0]))
        report = ad.grad_check(
            lambda t: ad.tsum(ad.mul(ad.relu(t), weight)), x)
        assert report.nonsmooth_count == 1
        assert report.checked_count == 2
        assert report.passed
