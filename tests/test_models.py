import gc
import struct
import weakref

import numpy as np
import pytest

from shadowstorm import autodiff as ad
from shadowstorm.autodiff import Tensor
from shadowstorm.imagecore import Image
from shadowstorm.models import (DivergenceError, ParamsError, TapeModel,
                                TinyCnnModel, load_params, model_gainmap,
                                model_identity, model_tinycnn,
                                model_tinycnn_from_params, probe_gradients,
                                save_params, train_toy)
from shadowstorm.rng import Xoshiro256StarStar
from shadowstorm.synthdata import SynthConfig, gen_triplet


def random_image(seed, shape=(16, 16, 3), lo=0.2, hi=0.8):
    return Image(Xoshiro256StarStar(seed).fill_uniform(shape, lo, hi))


def param_arrays(model):
    """Copies of the model's parameter arrays, by name."""
    return {name: p.data.copy() for name, p in model.params.items()}


def probe_grad_check(model, seed, shape=(16, 16, 3), tol=1e-4):
    """FD check of the model's input gradient through one linear probe."""
    reports, _ = probe_gradients(model, seed, 1, shape, 1e-4, tol)
    return reports[0]


class TestIdentity:
    def test_forward_is_input(self):
        img = Image(np.array([[[0.2], [0.9]]]))
        assert np.array_equal(model_identity().forward(img).data, img.data)

    def test_input_grad_passes_cotangent(self):
        img = random_image(1)
        cot = Xoshiro256StarStar(2).fill_uniform(img.shape, -1.0, 1.0)
        assert np.array_equal(model_identity().input_grad(img, cot), cot)

    def test_pullback_passes_cotangent(self):
        img = random_image(1)
        cot = Xoshiro256StarStar(2).fill_uniform(img.shape, -1.0, 1.0)
        out, pullback = model_identity().vjp(img)
        assert np.array_equal(out.data, img.data)
        assert np.array_equal(pullback(cot), cot)

    def test_grad_check(self):
        report = probe_grad_check(model_identity(), seed=3)
        assert report.passed


class TestGainMap:
    def test_constant_image_unchanged(self):
        # flat illumination: raw gain < 1 everywhere, clamped up to exactly 1
        img = Image(np.full((12, 12, 3), 0.5))
        out = model_gainmap().forward(img)
        assert np.array_equal(out.data, img.data)

    def test_brightens_shadow_region(self):
        cfg = SynthConfig(seed=5, count=1, height=32, width=32)
        triplet = gen_triplet(cfg, 0)
        out = model_gainmap().forward(triplet.shadow)
        shadow_sel = triplet.mask.data.astype(bool)
        before = triplet.shadow.data[shadow_sel].mean()
        after = out.data[shadow_sel].mean()
        assert after > before

    def test_never_darkens(self):
        img = random_image(6, lo=0.05, hi=0.95)
        out = model_gainmap().forward(img)
        assert np.all(out.data >= img.data - 1e-15)

    def test_grad_check(self):
        for seed in (7, 8, 9):
            assert probe_grad_check(model_gainmap(), seed).passed

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="blur_radius"):
            model_gainmap(blur_radius=0)
        with pytest.raises(ValueError, match="max_gain"):
            model_gainmap(max_gain=1.0)


class TestTinyCnn:
    def test_output_shape_matches_input(self):
        model = model_tinycnn(seed=1)
        for shape in ((3, 3, 3), (5, 9, 3)):
            img = random_image(10, shape=shape)
            assert model.forward(img).shape == shape

    def test_seeded_determinism(self):
        img = random_image(11)
        out1 = model_tinycnn(seed=42).forward(img)
        out2 = model_tinycnn(seed=42).forward(img)
        assert np.array_equal(out1.data, out2.data)

    def test_different_seeds_differ(self):
        img = random_image(12)
        out1 = model_tinycnn(seed=1).forward(img)
        out2 = model_tinycnn(seed=2).forward(img)
        assert not np.array_equal(out1.data, out2.data)

    def test_grad_check(self):
        for seed in (13, 14, 15):
            assert probe_grad_check(model_tinycnn(seed=42), seed).passed

    def test_output_in_range(self):
        img = random_image(16, lo=0.0, hi=1.0)
        out = model_tinycnn(seed=3).forward(img)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_conv_kernels_have_several_channels_each_way(self):
        # Cout = 1 (or Cin = 1 in the input VJP) sends conv2d down a BLAS
        # matrix-vector kernel whose rounding follows the row's position,
        # which the flat-block tap layout does not hold bit for bit
        kernels = [shape for _, shape in TinyCnnModel.LAYOUT if len(shape) == 4]
        assert len(kernels) == 3
        for _kh, _kw, cin, cout in kernels:
            assert cin > 1 and cout > 1


class TestDirectionalDerivatives:
    """The vjp pullback against finite differences of directional probes."""

    @pytest.mark.parametrize("maker", [model_identity,
                                       model_gainmap,
                                       lambda: model_tinycnn(seed=42)])
    def test_vjp_matches_fd_directional(self, maker):
        model = maker()
        rng = Xoshiro256StarStar(20)
        img = Image(rng.fill_uniform((12, 12, 3), 0.25, 0.75))
        cot = rng.fill_uniform(img.shape, -1.0, 1.0)
        _, pullback = model.vjp(img)
        grad = pullback(cot)
        h = 1e-4
        for probe_seed in range(3):
            v = Xoshiro256StarStar(probe_seed).fill_uniform(img.shape, -1.0, 1.0)
            fp = float(np.sum(model.forward(
                Image(np.clip(img.data + h * v, 0, 1))).data * cot))
            fm = float(np.sum(model.forward(
                Image(np.clip(img.data - h * v, 0, 1))).data * cot))
            fd = (fp - fm) / (2 * h)
            analytic = float(np.sum(grad * v))
            scale = max(abs(fd), abs(analytic), 1e-12)
            assert abs(fd - analytic) / scale < 1e-4


class TestVjp:
    @pytest.mark.parametrize("maker", [model_identity, model_gainmap,
                                       lambda: model_tinycnn(seed=42)],
                             ids=["identity", "gainmap", "tinycnn"])
    def test_output_equals_forward_bytes(self, maker):
        model = maker()
        img = random_image(40, shape=(12, 10, 3), lo=0.0, hi=1.0)
        out, _ = model.vjp(img)
        expected = model.forward(img)
        assert out.data.dtype == expected.data.dtype
        assert out.data.tobytes() == expected.data.tobytes()

    def test_pullback_releases_tape_without_gc(self):
        class Probe(TapeModel):
            """Keeps a weak reference to an intermediate tape tensor."""
            hidden = None

            def forward_t(self, x, params):
                mid = ad.relu(ad.smul(x, 2.0))
                Probe.hidden = weakref.ref(mid)
                return ad.clamp01(ad.smul(mid, 0.5))

        img = random_image(41, shape=(8, 8, 3))
        gc.disable()
        try:
            out = Probe().forward_t(Tensor(img.data, requires_grad=True), {})
            assert Probe.hidden() is not None
            out.backward(np.ones(img.shape))
            assert Probe.hidden() is None

            _, pullback = Probe().vjp(img)
            assert Probe.hidden() is not None
            pullback(np.ones(img.shape))
            assert Probe.hidden() is None
        finally:
            gc.enable()

    def test_pullback_runs_once(self):
        _, pullback = model_gainmap().vjp(random_image(42))
        pullback(np.ones((16, 16, 3)))
        with pytest.raises(RuntimeError, match="twice"):
            pullback(np.ones((16, 16, 3)))

    def test_train_freezes_params_again(self):
        model = model_tinycnn(seed=4)
        train_toy(model, make_dataset(count=1), epochs=2, lr=0.05)
        assert all(not p.requires_grad and p.grad is None
                   and not p.data.flags.writeable
                   for p in model.params.values())


class TestParameterState:
    def test_parameter_arrays_read_only(self):
        model = model_tinycnn(seed=4)
        for p in model.params.values():
            with pytest.raises(ValueError, match="read-only"):
                p.data[(0,) * p.data.ndim] = 1.0

    def test_load_state_copies_and_freezes(self):
        model = model_tinycnn(seed=4)
        source = param_arrays(model_tinycnn(seed=5))
        model.load_state(source)
        source["b1"][0] = 9.0
        assert model.params["b1"].data[0] != 9.0
        assert not model.params["b1"].data.flags.writeable


class TestGainMapBorderWeight:
    def test_cached_read_only(self):
        from shadowstorm.models import _inverse_border_weight
        first = _inverse_border_weight(9, 7, 2)
        assert _inverse_border_weight(9, 7, 2) is first
        assert _inverse_border_weight(9, 7, 3) is not first
        assert not first.flags.writeable
        assert first.shape == (9, 7, 1)
        assert first[4, 3, 0] == pytest.approx(1.0)
        # a corner keeps 9 of the 25 taps of a radius-2 box inside the image
        assert first[0, 0, 0] == pytest.approx(25 / 9)

    def test_inverse_cached_read_only(self):
        from shadowstorm.models import _inverse_border_weight
        inverse = _inverse_border_weight(9, 7, 2)
        assert _inverse_border_weight(9, 7, 2) is inverse
        assert not inverse.flags.writeable
        ones = Tensor(np.ones((9, 7, 1)))
        expected = 1.0 / ad.blur2d(ones, ad.box_kernel(2)).data
        assert inverse.tobytes() == expected.tobytes()


class ScaleModel(TapeModel):
    """y = w * x: unclamped, so a large enough lr makes GD diverge."""
    LAYOUT = (("w", (1,)),)

    def __init__(self):
        super().__init__()
        self.load_state({"w": np.array([2.0])})

    def forward_t(self, x, params):
        return ad.mul(x, params["w"])


def make_dataset(seed=7, count=32, size=32, blur=4):
    cfg = SynthConfig(seed=seed, count=count, height=size, width=size,
                      blur_radius=blur)
    return [(t.shadow, t.shadow_free)
            for t in (gen_triplet(cfg, i) for i in range(count))]


class TestTrainToy:
    def test_zero_epochs_no_op(self):
        model = model_tinycnn(seed=0)
        before = param_arrays(model)
        after = train_toy(model, make_dataset(count=2), epochs=0, lr=0.05)
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_halves_mse(self):
        # measured on this fixture: 200 epochs reach ~0.45x the initial loss
        model = model_tinycnn(seed=0)
        losses = []
        train_toy(model, make_dataset(), epochs=200, lr=0.05,
                  on_epoch=lambda _e, v: losses.append(v))
        assert len(losses) == 200
        assert losses[-1] < 0.5 * losses[0]

    def test_deterministic(self):
        data = make_dataset(count=3)
        p1 = train_toy(model_tinycnn(seed=9), data, epochs=5, lr=0.05)
        p2 = train_toy(model_tinycnn(seed=9), data, epochs=5, lr=0.05)
        for name in p1:
            assert np.array_equal(p1[name], p2[name])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_recommends_smaller_lr(self):
        # the final clamp keeps tinycnn's loss bounded at any lr, so the
        # divergence path is exercised with an unclamped scale model whose
        # GD provably blows up once lr exceeds the stable step
        with pytest.raises(DivergenceError, match="smaller lr"):
            train_toy(ScaleModel(), make_dataset(count=2), epochs=80, lr=1e10)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_leaves_no_gradient_state(self):
        model = ScaleModel()
        with pytest.raises(DivergenceError):
            train_toy(model, make_dataset(count=2), epochs=80, lr=1e10)
        (w,) = model.params.values()
        assert w.data[0] != 2.0  # the epochs before the blow-up stepped
        assert not w.requires_grad and w.grad is None

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_toy(model_tinycnn(seed=0), [], epochs=1, lr=0.05)

    def test_shape_mismatch_rejected(self):
        a = random_image(1, shape=(8, 8, 3))
        b = random_image(2, shape=(9, 8, 3))
        with pytest.raises(ValueError, match="mismatched"):
            train_toy(model_tinycnn(seed=0), [(a, b)], epochs=1, lr=0.05)


class TestParamsIO:
    def test_round_trip_bit_identical(self, tmp_path):
        params = param_arrays(model_tinycnn(seed=5))
        path = tmp_path / "m.sspm"
        save_params(params, path)
        loaded = load_params(path)
        assert sorted(loaded) == sorted(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == np.float64

    def test_truncated_names_tensor(self, tmp_path):
        params = param_arrays(model_tinycnn(seed=5))
        path = tmp_path / "m.sspm"
        save_params(params, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) - 40])
        with pytest.raises(ParamsError, match="truncated.*'k"):
            load_params(path)

    def test_empty_map_valid(self, tmp_path):
        path = tmp_path / "e.sspm"
        save_params({}, path)
        assert load_params(path) == {}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sspm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParamsError, match="magic"):
            load_params(path)

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            save_params({"w": np.array([np.inf])}, tmp_path / "x.sspm")

    def test_model_from_params(self, tmp_path):
        model = model_tinycnn(seed=8)
        path = tmp_path / "m.sspm"
        save_params(param_arrays(model), path)
        clone = model_tinycnn_from_params(load_params(path))
        img = random_image(30)
        assert np.array_equal(model.forward(img).data, clone.forward(img).data)

    @pytest.mark.parametrize("tail,match", [
        ("duplicate", "duplicate tensor 'b1'"), ("trailing", "trailing bytes"),
        ("nan", "'b1' holds a non-finite"), ("-inf", "'b1' holds a non-finite")])
    def test_rejects_what_save_params_never_writes(self, tmp_path, tail, match):
        path = tmp_path / "m.sspm"
        save_params({"b1": np.zeros(2)}, path)
        blob = path.read_bytes()
        if tail == "duplicate":  # the same record twice, count raised to 2
            blob = blob[:8] + struct.pack("<I", 2) + blob[12:] + blob[12:]
        elif tail == "trailing":
            blob += b"\x00" * 8
        else:  # the last payload value
            blob = blob[:-8] + struct.pack("<d", float(tail))
        path.write_bytes(blob)
        with pytest.raises(ParamsError, match=match):
            load_params(path)

    def test_unknown_tensor_rejected(self):
        params = {**param_arrays(model_tinycnn(seed=1)), "k4": np.zeros(1)}
        with pytest.raises(ParamsError, match="unknown.*'k4'"):
            model_tinycnn_from_params(params)

    def test_wrong_shape_rejected(self):
        params = param_arrays(model_tinycnn(seed=1))
        params["k1"] = params["k1"][:, :, :, :4]
        with pytest.raises(ParamsError, match="k1"):
            model_tinycnn_from_params(params)
