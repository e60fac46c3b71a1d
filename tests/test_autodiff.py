import gc
import weakref

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
        out = ad.conv2d(x, Tensor(kernel), Tensor(np.zeros(2)))
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
        ad.tsum(ad.clamp(x, 0.0, 1.0)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0, 0.0, 0.0])

    def test_interior_node_released_before_its_rule_runs(self):
        # a rule reads only its parents' values, so the walk releases the
        # node itself first; gc is off, so only reference counts free it
        leaf = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        seen = []

        def rule(g):
            seen.append(node() is None)
            leaf._accumulate(g * leaf.data)
        mid = Tensor(leaf.data * 3.0, requires_grad=True, _parents=(leaf,),
                     _backward=rule)
        node = weakref.ref(mid)
        loss = ad.tsum(mid)
        del mid
        gc.disable()
        try:
            loss.backward()
        finally:
            gc.enable()
        assert seen == [True]
        assert np.array_equal(leaf.grad, [1.0, 2.0])

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


def conv2d_case(h, w, cin, cout, kh, kw, with_bias):
    """conv2d's output and leaf gradients on seeded data, each paired with
    per_tap_conv's: (output, input, kernel, bias)."""
    rng = Xoshiro256StarStar(22)
    x = rng.fill_uniform((h, w, cin), -1.0, 1.0)
    kernel = rng.fill_uniform((kh, kw, cin, cout), -1.0, 1.0)
    bias = rng.fill_uniform((cout,), -1.0, 1.0) if with_bias else None
    cotangent = rng.fill_uniform((h, w, cout), -1.0, 1.0)
    cotangent[:(h + 1) // 2, :(w + 1) // 2] = 0.0
    leaf = Tensor(x, requires_grad=True)
    kt = Tensor(kernel, requires_grad=True)
    bt = Tensor(bias if with_bias else np.zeros(cout), requires_grad=True)
    out = ad.conv2d(leaf, kt, bt)
    out.backward(cotangent)
    got = (out.data, leaf.grad, kt.grad, bt.grad)
    return list(zip(got, per_tap_conv(x, kernel, bias, cotangent)))


# Cin = 1 puts the input VJP on OpenBLAS's matrix-vector kernel, which
# rounds a block's last rows mod 4 rows differently (see conv2d). The
# 7x9x1 case matches the per-tap loop: its one block of 75 rows and the
# loop's 63-row windows end their tails on the same three pixels, and the
# kernel multiplies that same block at every tap. 8x8x1 -> 8 with a 3x3
# kernel does not match, in the input VJP only. No zoo layer has Cin = 1.
# Without a bias the reference adds none and conv2d gets a zero one:
# the bits agree, as an accumulator that starts at +0.0 never holds -0.0.
CONV2D_CASES = [
    (9, 7, 3, 8, 3, 3, True), (5, 12, 8, 3, 5, 3, False),
    (6, 4, 1, 2, 1, 1, True), (7, 9, 1, 8, 3, 3, True),
    (1, 1, 3, 8, 3, 3, True),
    (64, 64, 8, 8, 3, 3, True),
    # the zoo's tinycnn layers on a 64x64 image, and an odd size
    (64, 64, 3, 8, 3, 3, True), (64, 64, 8, 3, 3, 3, True),
    (13, 17, 8, 8, 3, 3, False)]


class TestConv2dBytes:
    @pytest.mark.parametrize("h,w,cin,cout,kh,kw,with_bias", CONV2D_CASES)
    def test_matches_per_tap_loop(self, h, w, cin, cout, kh, kw, with_bias):
        pairs = conv2d_case(h, w, cin, cout, kh, kw, with_bias)
        for name, (got, ref) in zip(("out", "x", "kernel", "bias"), pairs):
            assert got.tobytes() == ref.tobytes(), name

    # With one output column, conv2d's and the loop's kernel-gradient GEMMs
    # both take the matrix-vector kernel; that case's forward differs from
    # the loop's. test_byte_guard.py reruns this test under three cores.
    @pytest.mark.parametrize("h,w,cin,cout,kh,kw,with_bias",
                             CONV2D_CASES + [(8, 8, 8, 1, 3, 3, True)])
    def test_kernel_grad_matches_per_tap_loop(self, h, w, cin, cout, kh, kw,
                                              with_bias):
        got, ref = conv2d_case(h, w, cin, cout, kh, kw, with_bias)[2]
        assert got.tobytes() == ref.tobytes()


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


class TestOwnership:
    """A vjp's new share becomes its tensor's gradient without a copy;
    a passed-through cotangent, a view or a 0-d scalar is copied."""

    @staticmethod
    def disjoint(*arrays):
        return not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    def test_gradients_share_no_memory(self):
        rng = Xoshiro256StarStar(3)
        seed = rng.fill((4, 5))
        kept = seed.copy()
        for op in (ad.add, ad.sub, ad.mul):
            a = Tensor(rng.fill((4, 5)), requires_grad=True)
            b = Tensor(rng.fill((4, 5)), requires_grad=True)
            op(a, b).backward(seed)
            assert self.disjoint(a.grad, b.grad, seed, a.data, b.data), op
        assert np.array_equal(a.grad, seed * b.data)
        for op in (ad.add, ad.mul):
            x = Tensor(rng.fill((4, 5)), requires_grad=True)
            op(x, x).backward(seed)
            assert self.disjoint(x.grad, seed, x.data), op
        assert x.grad.tobytes() == (seed * x.data + seed * x.data).tobytes()
        assert seed.tobytes() == kept.tobytes()

    def test_fresh_share_taken_in_place_with_the_bits_of_a_copy(self):
        share = np.array([-0.0, 1.5, -0.0, -2.0])
        x = Tensor(np.zeros(4), requires_grad=True)
        ad._make(np.zeros(4), (x, lambda g: share)).backward(np.ones(4))
        assert x.grad is share
        assert x.grad.tobytes() == np.array([0.0, 1.5, 0.0, -2.0]).tobytes()
        # a product's -0.0 entries, as a first gradient, become +0.0
        a = Tensor(np.zeros(4), requires_grad=True)
        b = np.array([-1.0, 2.0, -0.0, 3.0])
        seed = np.array([0.0, -0.0, 1.0, 1.0])
        ad.mul(a, Tensor(b)).backward(seed)
        assert a.grad.tobytes() == (seed * b + 0.0).tobytes()
        assert np.signbit(seed * b).any() and not np.signbit(a.grad[:3]).any()

    @pytest.mark.parametrize("op", ["tsum", "mean_channels", "blur2d",
                                    "conv2d"])
    def test_views_reach_grad_as_copies(self, op):
        x = Tensor(Xoshiro256StarStar(5).fill((6, 7, 3)), requires_grad=True)
        out = {"tsum": lambda: ad.tsum(x),
               "mean_channels": lambda: ad.mean_channels(x),
               "blur2d": lambda: ad.blur2d(x, ad.box_kernel(1)),
               "conv2d": lambda: ad.conv2d(x, Tensor(np.ones((3, 3, 3, 2))),
                                           Tensor(np.zeros(2)))}[op]()
        out.backward(np.ones(out.data.shape))
        assert x.grad.base is None and x.grad.flags.writeable
        assert x.grad.shape == x.data.shape

    @pytest.mark.parametrize("shape", [(), (5, 4, 3)], ids=["0-d", "HxWxC"])
    def test_constant_factor_has_the_bits_of_a_float_product(self, shape):
        """mul by a 0-d constant tensor, as gainmap's mean and the trainer's
        loss scale use it: forward and input gradient are the products
        with the Python float bit for bit, and only the operand is taped."""
        rng = Xoshiro256StarStar(12)
        c = -1.0 / 3.0
        x = rng.fill_uniform(shape, -1.0, 1.0)
        g = rng.fill_uniform(shape, -1.0, 1.0)
        a = Tensor(x, requires_grad=True)
        out = ad.mul(a, Tensor(c))
        assert out.data.tobytes() == (x * c).tobytes()
        assert out._parents == (a,)
        out.backward(g)
        assert a.grad.tobytes() == (g * c).tobytes()
        # +0.0 times a negative factor is a -0.0 share; a first gradient
        # makes it +0.0
        zeros = np.zeros(shape)
        a = Tensor(x, requires_grad=True)
        ad.mul(a, Tensor(c)).backward(zeros)
        assert np.all(np.signbit(zeros * c))
        assert a.grad.tobytes() == zeros.tobytes()

    def test_scalar_shares_reach_grad(self):
        s = Tensor(np.asarray(2.0), requires_grad=True)
        ad.sqnorm(ad.mul(s, Tensor(3.0))).backward()
        assert float(s.grad) == 36.0


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
            ad.conv2d(Tensor(np.zeros((4, 4, 2))),
                      Tensor(np.zeros((3, 3, 3, 1))), Tensor(np.zeros(1)))


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
            lambda t: ad.add(ad.mul(f(t), Tensor(alpha)),
                             ad.mul(g(t), Tensor(beta))), x0)
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
            out = ad.sqnorm(ad.relu(ad.conv2d(x, k, Tensor(np.zeros(4)))))
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

    def test_sub_wrt_second_operand(self):
        rng = Xoshiro256StarStar(23)
        x = _safe_uniform(rng, (4, 3, 2))
        base = Tensor(_safe_uniform(rng, (4, 3, 2)))
        probe = Tensor(rng.fill_uniform((4, 3, 2), -1.0, 1.0))
        self.check(lambda t: ad.tsum(ad.mul(ad.sub(base, t), probe)), x)

    @pytest.mark.parametrize("shape", [(1, 5, 3), (4, 1, 3)],
                             ids=["first-axis", "middle-axis"])
    def test_mul_broadcast_over_a_leading_axis(self, shape):
        # the broadcast operand's share is summed over a non-last axis
        rng = Xoshiro256StarStar(24)
        x = _safe_uniform(rng, shape)
        other = Tensor(_safe_uniform(rng, (4, 5, 3)))
        self.check(lambda t: ad.sqnorm(ad.mul(t, other)), x)
        self.check(lambda t: ad.sqnorm(ad.mul(other, t)), x)

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
        self.check(lambda t: ad.tsum(ad.mul(ad.clamp(t, 0.0, 1.0), probe)), x)

    def test_three_layer_conv_net(self):
        # the composite case: conv -> relu -> conv -> relu -> conv -> squared l2
        rng = Xoshiro256StarStar(15)
        x = _safe_uniform(rng, (8, 8, 3), 0.2, 0.8)
        k1 = Tensor(rng.fill_uniform((3, 3, 3, 4), -0.1, 0.1))
        k2 = Tensor(rng.fill_uniform((3, 3, 4, 4), -0.1, 0.1))
        k3 = Tensor(rng.fill_uniform((3, 3, 4, 3), -0.1, 0.1))
        anchor = Tensor(_safe_uniform(rng, (8, 8, 3)))

        def net(t):
            h1 = ad.relu(ad.conv2d(t, k1, Tensor(np.zeros(4))))
            h2 = ad.relu(ad.conv2d(h1, k2, Tensor(np.zeros(4))))
            return ad.sqnorm(ad.sub(ad.conv2d(h2, k3, Tensor(np.zeros(3))),
                                    anchor))

        analytic = analytic_grad(net, x)
        numeric = finite_diff(lambda a: net(Tensor(a)).data, x, h=1e-4)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale < 1e-4


class TestGradCheck:
    def test_quadratic_passes_tight(self, monkeypatch):
        monkeypatch.setattr(ad, "GRAD_CHECK_TOL", 1e-6)
        rng = Xoshiro256StarStar(16)
        report = ad.grad_check(ad.sqnorm, rng.fill((3, 3, 1)))
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
        report = ad.grad_check(broken, rng.fill_uniform((4,), 0.3, 0.9))
        assert not report.passed

    def test_report_fields(self):
        rng = Xoshiro256StarStar(18)
        report = ad.grad_check(ad.sqnorm, rng.fill((2, 2, 1)))
        assert (ad.GRAD_CHECK_STEP, ad.GRAD_CHECK_TOL) == (1e-4, 1e-4)
        assert report.passed == (report.max_rel_error < 1e-4)
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
