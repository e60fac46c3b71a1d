import gc
import re
import struct
import weakref

import numpy as np
import pytest

from shadowstorm import autodiff as ad
from shadowstorm import metrics, models
from shadowstorm.autodiff import Tensor
from shadowstorm.imagecore import Image
from shadowstorm.models import (DivergenceError, GainMapModel, IdentityModel,
                                ParamsError, TapeModel, TinyCnnModel,
                                load_params, model_tinycnn, probe_gradients,
                                save_params, train_toy)
from shadowstorm.rng import Xoshiro256StarStar
from shadowstorm.synthdata import SynthConfig, gen_triplet


def random_image(seed, shape=(16, 16, 3), lo=0.2, hi=0.8):
    return Image(Xoshiro256StarStar(seed).fill_uniform(shape, lo, hi))


def param_arrays(model):
    """Copies of the model's parameter arrays, by name."""
    return {name: p.data.copy() for name, p in model.params.items()}


def probe_grad_check(model, seed, shape=(16, 16, 3)):
    """FD check of the model's input gradient through one linear probe."""
    reports, _ = probe_gradients(model, seed, 1, shape)
    return reports[0]


class TestIdentity:
    def test_forward_is_input(self):
        img = Image(np.array([[[0.2], [0.9]]]))
        assert np.array_equal(IdentityModel().forward(img).data, img.data)

    def test_input_grad_passes_cotangent(self):
        img = random_image(1)
        cot = Xoshiro256StarStar(2).fill_uniform(img.shape, -1.0, 1.0)
        assert np.array_equal(IdentityModel().input_grad(img, cot), cot)

    def test_pullback_passes_cotangent(self):
        img = random_image(1)
        cot = Xoshiro256StarStar(2).fill_uniform(img.shape, -1.0, 1.0)
        out, pullback = IdentityModel().vjp(img.data)
        assert np.array_equal(out, img.data)
        assert np.array_equal(pullback(cot), cot)

    def test_grad_check(self):
        report = probe_grad_check(IdentityModel(), seed=3)
        assert report.passed


class TestGainMap:
    def test_constant_image_unchanged(self):
        # flat illumination: raw gain < 1 everywhere, clamped up to exactly 1
        img = Image(np.full((12, 12, 3), 0.5))
        out = GainMapModel().forward(img)
        assert np.array_equal(out.data, img.data)

    def test_brightens_shadow_region(self):
        cfg = SynthConfig(seed=5, count=1, height=32, width=32)
        triplet = gen_triplet(cfg, 0)
        out = GainMapModel().forward(triplet.shadow)
        shadow_sel = triplet.mask.data.astype(bool)
        before = triplet.shadow.data[shadow_sel].mean()
        after = out.data[shadow_sel].mean()
        assert after > before

    def test_never_darkens(self):
        img = random_image(6, lo=0.05, hi=0.95)
        out = GainMapModel().forward(img)
        assert np.all(out.data >= img.data - 1e-15)

    def test_grad_check(self):
        for seed in (7, 8, 9):
            assert probe_grad_check(GainMapModel(), seed).passed

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="blur_radius"):
            GainMapModel(blur_radius=0)
        with pytest.raises(ValueError, match="max_gain"):
            GainMapModel(max_gain=1.0)


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

    def test_channel_contract(self):
        # tinycnn takes the input channels of its first kernel; gainmap
        # and identity take any count
        assert TinyCnnModel.channels == dict(TinyCnnModel.LAYOUT)["k1"][2] == 3
        assert model_tinycnn(seed=1).channels == 3
        assert GainMapModel().channels is None
        assert IdentityModel().channels is None

    def test_conv_kernels_have_several_channels_each_way(self):
        # Cout = 1 (or Cin = 1 in the input VJP) sends conv2d down
        # OpenBLAS's matrix-vector kernel, which rounds a block's last
        # rows mod 4 rows differently: conv2d's one block per tap then
        # differs from per-window products in the last bit
        kernels = [shape for _, shape in TinyCnnModel.LAYOUT if len(shape) == 4]
        assert len(kernels) == 3
        for _kh, _kw, cin, cout in kernels:
            assert cin > 1 and cout > 1


class TestDirectionalDerivatives:
    """The vjp pullback against finite differences of directional probes."""

    @pytest.mark.parametrize("maker", [IdentityModel, GainMapModel,
                                       lambda: model_tinycnn(seed=42)])
    def test_vjp_matches_fd_directional(self, maker):
        model = maker()
        rng = Xoshiro256StarStar(20)
        img = Image(rng.fill_uniform((12, 12, 3), 0.25, 0.75))
        cot = rng.fill_uniform(img.shape, -1.0, 1.0)
        _, pullback = model.vjp(img.data)
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
    @pytest.mark.parametrize("maker", [IdentityModel, GainMapModel,
                                       lambda: model_tinycnn(seed=42)],
                             ids=["identity", "gainmap", "tinycnn"])
    def test_output_equals_forward_bytes(self, maker):
        model = maker()
        img = random_image(40, shape=(12, 10, 3), lo=0.0, hi=1.0)
        out, _ = model.vjp(img.data)
        expected = model.forward(img)
        assert out.dtype == expected.data.dtype
        assert out.tobytes() == expected.data.tobytes()

    def test_pullback_releases_tape_without_gc(self):
        class Probe(TapeModel):
            """Keeps weak references to intermediate tape tensors; a
            hand-built rule at the bottom of the chain records, when it
            runs, whether the node right above it is still alive."""
            hidden = above = None
            above_alive_at_bottom: list = []

            def forward_t(self, x, params):
                def bottom_rule(g):
                    Probe.above_alive_at_bottom.append(
                        Probe.above() is not None)
                    x._accumulate(g)
                bottom = Tensor(x.data, requires_grad=True, _parents=(x,),
                                _backward=bottom_rule)
                doubled = ad.mul(bottom, Tensor(2.0))
                Probe.above = weakref.ref(doubled)
                mid = ad.relu(doubled)
                Probe.hidden = weakref.ref(mid)
                return ad.clamp(ad.mul(mid, Tensor(0.5)), 0.0, 1.0)

        img = random_image(41, shape=(8, 8, 3))
        gc.disable()
        try:
            leaf = Tensor(img.data, requires_grad=True)
            out = Probe().forward_t(leaf, {})
            assert Probe.hidden() is not None
            out.backward(np.ones(img.shape))
            assert Probe.hidden() is None
            # the walk freed each interior node once its rule had run
            assert Probe.above_alive_at_bottom == [False]
            # only the leaf keeps a gradient: 2 * 0.5 through relu and clamp
            assert out.grad is None
            assert leaf.grad.tobytes() == np.ones(img.shape).tobytes()

            _, pullback = Probe().vjp(img.data)
            assert Probe.hidden() is not None
            grad = pullback(np.ones(img.shape))
            assert Probe.hidden() is None
            assert Probe.above_alive_at_bottom == [False, False]
            assert grad.tobytes() == np.ones(img.shape).tobytes()
        finally:
            gc.enable()

    def test_pullback_runs_once(self):
        _, pullback = GainMapModel().vjp(random_image(42).data)
        pullback(np.ones((16, 16, 3)))
        with pytest.raises(RuntimeError, match="twice"):
            pullback(np.ones((16, 16, 3)))

    def test_pullback_holds_no_output_value(self):
        # the walk reads the root's rule, parents and shape; gc is off, so
        # only reference counts free the output node's value
        seen = []

        class Probe(models.GainMapModel):
            def forward_t(self, x, params):
                out = super().forward_t(x, params)
                value, rule = weakref.ref(out.data), out._backward

                def probed(g):
                    seen.append(value() is None)
                    rule(g)
                out._backward = probed
                return out

        img = random_image(42)
        gc.disable()
        try:
            _, pullback = Probe().vjp(img.data)
            grad = pullback(np.ones(img.shape))
        finally:
            gc.enable()
        assert seen == [True]
        # the walk from the output node itself gives the same bytes
        leaf = Tensor(img.data, requires_grad=True)
        GainMapModel().forward_t(leaf, {}).backward(np.ones(img.shape))
        assert grad.tobytes() == leaf.grad.tobytes()

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

    @pytest.mark.parametrize("make", [IdentityModel, GainMapModel,
                                      model_tinycnn])
    def test_model_arrays_read_only(self, make):
        """bench --jobs N threads share a model: none of its arrays, and
        none of its parameters', may be written."""
        model = make()
        arrays = [value for value in vars(model).values()
                  if isinstance(value, np.ndarray)]
        arrays += [p.data for p in model.params.values()]
        assert all(not a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("module", [ad, metrics, models],
                             ids=["autodiff", "metrics", "models"])
    def test_module_arrays_read_only(self, module):
        """Every thread reads a module-level array; none may be written."""
        arrays = {name: value for name, value in vars(module).items()
                  if isinstance(value, np.ndarray)}
        assert [name for name, a in arrays.items()
                if a.flags.writeable] == []


def tape_of(out):
    """Every tensor reachable from `out` through its tape parents."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestTape:
    @pytest.mark.parametrize("make", [model_tinycnn, GainMapModel],
                             ids=["tinycnn", "gainmap"])
    def test_links_only_tensors_that_need_a_gradient(self, make):
        model = make()
        outputs = []
        forward_t = model.forward_t

        def capture(x, params):
            outputs.append(forward_t(x, params))
            return outputs[-1]
        model.forward_t = capture
        model.vjp(random_image(43).data)
        tape = tape_of(outputs[0])
        params = {id(p) for p in model.params.values()}
        assert len(tape) > 5
        assert all(t.requires_grad and id(t) not in params for t in tape)

    def test_pullback_leaves_parameters_alone(self):
        writes = []

        class Logged(Tensor):
            __slots__ = ()

            def __setattr__(self, name, value):
                writes.append(name)
                super().__setattr__(name, value)

        model = model_tinycnn(seed=0)
        model.params = {n: Logged(p.data) for n, p in model.params.items()}
        writes.clear()
        _, pullback = model.vjp(random_image(44).data)
        pullback(np.ones((16, 16, 3)))
        assert writes == []


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


class NanSecondTermModel(ScaleModel):
    """ScaleModel whose second image of epoch `bad_epoch` gives NaN. A
    hand-built rule on top of each forward records which forwards (counted
    over all epochs) were walked back."""

    def __init__(self, bad_epoch, images):
        super().__init__()
        self.bad = bad_epoch * images + 1
        self.forwards = 0
        self.walked: list[int] = []

    def forward_t(self, x, params):
        index, self.forwards = self.forwards, self.forwards + 1
        out = super().forward_t(x, params)

        def rule(g):
            self.walked.append(index)
            out._accumulate(g)
        data = np.full(out.data.shape, np.nan) if index == self.bad else out.data
        return Tensor(data, requires_grad=True, _parents=(out,),
                      _backward=rule)


def make_dataset(seed=7, count=32, size=32, blur=4):
    cfg = SynthConfig(seed=seed, count=count, height=size, width=size,
                      blur_radius=blur)
    return [(t.shadow, t.shadow_free)
            for t in (gen_triplet(cfg, i) for i in range(count))]


def train_full_batch(model, dataset, epochs, lr):
    """The full-batch epoch that train_toy streams: one tape over every
    image's loss term, scaled by 1 / len(dataset), walked back once. Kept
    here only as the reference of train_toy's bits. Returns the final
    parameter arrays and the epoch losses."""
    n_values = int(np.prod(dataset[0][0].shape))
    losses = []
    for _ in range(epochs):
        leaves = {name: Tensor(p.data, requires_grad=True)
                  for name, p in model.params.items()}
        loss = None
        for shadow, free in dataset:
            pred = model.forward_t(Tensor(shadow.data), leaves)
            err = ad.sub(pred, Tensor(free.data))
            term = ad.mul(ad.sqnorm(err), Tensor(1.0 / n_values))
            loss = term if loss is None else ad.add(loss, term)
        loss = ad.mul(loss, Tensor(1.0 / len(dataset)))
        losses.append(float(loss.data))
        loss.backward()
        model.load_state({name: leaf.data - lr * leaf.grad
                          for name, leaf in leaves.items()})
    return param_arrays(model), losses


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

    @pytest.mark.parametrize("epoch", [0, 1])
    def test_divergence_stops_at_the_first_non_finite_term(self, epoch):
        data = make_dataset(count=3)
        model = NanSecondTermModel(bad_epoch=epoch, images=3)
        message = (f"training loss became non-finite at epoch {epoch}; "
                   "try a smaller lr than 0.05")
        with pytest.raises(DivergenceError, match=re.escape(message)):
            train_toy(model, data, epochs=epoch + 2, lr=0.05)
        # the NaN term's forward ends the epoch, and its walk never ran
        assert model.forwards == 3 * epoch + 2
        assert model.walked == list(range(3 * epoch + 1))
        # the diverging epoch stepped no parameter
        stepped = train_toy(ScaleModel(), data, epochs=epoch, lr=0.05)
        assert model.params["w"].data.tobytes() == stepped["w"].tobytes()

    @pytest.mark.parametrize("make,count", [
        (lambda: model_tinycnn(seed=0), 3), (ScaleModel, 2)],
        ids=["tinycnn", "scale"])
    def test_bits_of_the_full_batch_tape(self, make, count):
        data = make_dataset(count=count)  # 32x32 images
        expected, expected_losses = train_full_batch(make(), data, 3, 0.05)
        losses = []
        params = train_toy(make(), data, epochs=3, lr=0.05,
                           on_epoch=lambda _e, v: losses.append(v))
        assert sorted(params) == sorted(expected)
        for name in expected:
            assert params[name].tobytes() == expected[name].tobytes()
        assert [struct.pack("<d", v) for v in losses] \
            == [struct.pack("<d", v) for v in expected_losses]

    def test_each_image_tape_dead_before_next_forward(self):
        model = model_tinycnn(seed=0)
        preds, alive = [], []
        forward_t = model.forward_t

        def probed(x, params):
            alive.append([p() is not None for p in preds])
            out = forward_t(x, params)
            preds.append(weakref.ref(out))
            return out
        model.forward_t = probed
        gc.disable()
        try:
            train_toy(model, make_dataset(count=3), epochs=2, lr=0.05)
        finally:
            gc.enable()
        # at each forward's start no earlier image's prediction is alive
        assert alive == [[False] * i for i in range(6)]

    def test_peak_memory_flat_in_dataset_size(self, traced_peak):
        def peak_mib(count):
            data = make_dataset(count=count, size=64)
            model = model_tinycnn(seed=0)
            return traced_peak(
                lambda: train_toy(model, data, epochs=3, lr=0.2)) / 2**20
        small, large = peak_mib(2), peak_mib(12)
        assert large <= 1.25 * small, (small, large)

    def test_tensor_without_gradient_keeps_its_value(self):
        class UnreadModel(ScaleModel):
            """ScaleModel with a second tensor that forward_t never reads."""
            LAYOUT = (("w", (1,)), ("unread", (2,)))

            def __init__(self):
                TapeModel.__init__(self)
                self.load_state({"w": np.array([2.0]),
                                 "unread": np.array([0.25, -0.5])})

        data = [(random_image(3, shape=(4, 4, 3)),
                 random_image(4, shape=(4, 4, 3)))]
        params = train_toy(UnreadModel(), data, epochs=2, lr=0.05)
        assert params["unread"].tobytes() == np.array([0.25, -0.5]).tobytes()
        stepped = train_toy(ScaleModel(), data, epochs=2, lr=0.05)
        assert params["w"].tobytes() == stepped["w"].tobytes()
        assert params["w"][0] != 2.0

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
        clone = TinyCnnModel(load_params(path))
        img = random_image(30)
        assert np.array_equal(model.forward(img).data, clone.forward(img).data)

    @pytest.mark.parametrize("tail,match", [
        ("duplicate", "duplicate tensor 'b1'"), ("trailing", "trailing bytes"),
        ("nan", "'b1' holds a non-finite"), ("-inf", "'b1' holds a non-finite"),
        ("header", "truncated header"), ("version", "unsupported version 2"),
        ("name-overrun", "truncated file while reading tensor #0")])
    def test_rejects_what_save_params_never_writes(self, tmp_path, tail, match):
        path = tmp_path / "m.sspm"
        save_params({"b1": np.zeros(2)}, path)
        blob = path.read_bytes()
        if tail == "duplicate":  # the same record twice, count raised to 2
            blob = blob[:8] + struct.pack("<I", 2) + blob[12:] + blob[12:]
        elif tail == "trailing":
            blob += b"\x00" * 8
        elif tail == "header":
            blob = blob[:10]
        elif tail == "version":
            blob = blob[:4] + struct.pack("<I", 2) + blob[8:]
        elif tail == "name-overrun":  # the name's length
            blob = blob[:12] + struct.pack("<I", len(blob)) + blob[16:]
        else:  # the last payload value
            blob = blob[:-8] + struct.pack("<d", float(tail))
        path.write_bytes(blob)
        with pytest.raises(ParamsError, match=match):
            load_params(path)

    def test_every_prefix_names_the_tensor_it_cuts(self, tmp_path):
        """Cut before a record's name is read, the error names the record's
        index; after, its name. A rank of 2**32 - 1 is cut too."""
        path = tmp_path / "m.sspm"
        save_params(param_arrays(model_tinycnn(seed=5)), path)
        blob = path.read_bytes()
        records, pos = [], 12  # (name end, record end, name) of each
        while pos < len(blob):
            (size,) = struct.unpack_from("<I", blob, pos)
            name_end = pos + 4 + size
            (rank,) = struct.unpack_from("<I", blob, name_end)
            shape = struct.unpack_from(f"<{rank}I", blob, name_end + 4)
            pos = name_end + 4 + 4 * rank + 8 * int(np.prod(shape))
            records.append((name_end, pos,
                            blob[name_end - size:name_end].decode()))
        assert len(records) == 6
        for cut in range(12, len(blob)):
            i = next(i for i, (_, end, _) in enumerate(records) if cut < end)
            name_end, _, name = records[i]
            path.write_bytes(blob[:cut])
            with pytest.raises(ParamsError) as info:
                load_params(path)
            label = f"#{i}" if cut < name_end else repr(name)
            assert str(info.value) == (
                f"truncated file while reading tensor {label}")
        path.write_bytes(blob[:12] + struct.pack("<I", 2) + b"b1"
                         + struct.pack("<I", 2**32 - 1) + bytes(64))
        with pytest.raises(ParamsError,
                           match="^truncated file while reading tensor 'b1'$"):
            load_params(path)

    def test_model_from_params_draws_nothing(self, monkeypatch):
        params = param_arrays(model_tinycnn(seed=0))

        def no_draw(self, shape):
            raise AssertionError("drew from the generator")
        monkeypatch.setattr(Xoshiro256StarStar, "fill", no_draw)
        clone = TinyCnnModel(params)
        assert clone.name == "tinycnn(seed=0)"
        assert all(np.array_equal(clone.params[name].data, arr)
                   for name, arr in params.items())

    def test_unknown_tensor_rejected(self):
        params = {**param_arrays(model_tinycnn(seed=1)), "k4": np.zeros(1)}
        with pytest.raises(ParamsError, match="unknown.*'k4'"):
            TinyCnnModel(params)

    def test_wrong_shape_rejected(self):
        params = param_arrays(model_tinycnn(seed=1))
        params["k1"] = params["k1"][:, :, :, :4]
        with pytest.raises(ParamsError, match="k1"):
            TinyCnnModel(params)
