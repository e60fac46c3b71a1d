import gc
import math
import weakref

import numpy as np
import pytest

from shadowstorm import attack
from shadowstorm.attack import (STEP_DIVISOR, AttackConfig, BudgetBox,
                                NonFiniteGradientError, _radius,
                                attack_objective, budget_box,
                                equivalent_uniform_budget, init_delta,
                                pgd_attack, verify_l1_bound)
from shadowstorm.imagecore import INTENSITY_FLOOR, Image
from shadowstorm.metrics import (normalized_perturbation_map,
                                 perturbation_norms, psnr)
from shadowstorm.models import GainMapModel, IdentityModel, model_tinycnn
from shadowstorm.rng import Xoshiro256StarStar
from shadowstorm.synthdata import SynthConfig, gen_triplet


def interior_image(seed, shape=(8, 8, 3), lo=0.1, hi=0.9):
    return Image(Xoshiro256StarStar(seed).fill_uniform(shape, lo, hi))


class TestBudgetBox:
    def test_uniform_clamps_to_range(self):
        img = Image(np.full((1, 1, 1), 0.95))
        box = budget_box(img, AttackConfig(mode="uniform", epsilon=0.1))
        assert box.lower[0, 0, 0] == pytest.approx(-0.1)
        assert box.upper[0, 0, 0] == pytest.approx(0.05)

    def test_adaptive_direct_formula(self):
        img = Image(np.full((1, 1, 1), 0.1))
        box = budget_box(img, AttackConfig(mode="adaptive", epsilon=0.3))
        assert box.lower[0, 0, 0] == pytest.approx(-0.03)
        assert box.upper[0, 0, 0] == pytest.approx(0.03)

    def test_adaptive_dark_pixel_floor(self):
        img = Image(np.zeros((1, 1, 1)))
        box = budget_box(img, AttackConfig(mode="adaptive", epsilon=0.3))
        # lower bound -I = 0 dominates; upper uses the floored intensity
        assert box.lower[0, 0, 0] == 0.0
        assert box.upper[0, 0, 0] == pytest.approx(0.3 / 255.0)

    def test_monotone_budget_dominance(self):
        img = interior_image(1)
        for mode in ("uniform", "adaptive"):
            small = budget_box(img, AttackConfig(mode=mode, epsilon=0.05))
            large = budget_box(img, AttackConfig(mode=mode, epsilon=0.2))
            assert np.all(large.lower <= small.lower)
            assert np.all(small.upper <= large.upper)

    def test_invariant_lower_le_zero_le_upper(self):
        img = Image(Xoshiro256StarStar(3).fill((6, 6, 3)))  # includes extremes
        for mode in ("uniform", "adaptive"):
            box = budget_box(img, AttackConfig(mode=mode, epsilon=0.25))
            assert np.all(box.lower <= 0.0)
            assert np.all(box.upper >= 0.0)


BLACK = Image(np.zeros((2, 2, 1)))
ADAPTIVE = AttackConfig(mode="adaptive", epsilon=0.5)
SMALL_DELTA = np.full((2, 2, 1), 0.25)


@pytest.mark.parametrize("use,expected", [
    (lambda: budget_box(BLACK, ADAPTIVE).upper, 0.5 * INTENSITY_FLOOR),
    (lambda: _radius(BLACK, ADAPTIVE) / STEP_DIVISOR,
     (0.5 / 4.0) * INTENSITY_FLOOR),
    (lambda: perturbation_norms(SMALL_DELTA, BLACK).linf_normalized,
     0.25 / INTENSITY_FLOOR),
    (lambda: normalized_perturbation_map(SMALL_DELTA, BLACK),
     0.25 / INTENSITY_FLOOR),
    (lambda: verify_l1_bound(SMALL_DELTA, BLACK, 0.5).bound,
     0.5 * INTENSITY_FLOOR),
], ids=["budget_box", "step_size", "linf_normalized", "normalized_map",
        "l1_bound"])
def test_black_pixel_gets_the_intensity_floor(use, expected):
    assert INTENSITY_FLOOR == 1.0 / 255.0
    assert np.all(use() == expected)


class TestAttackConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="epsilon"):
            AttackConfig(mode="uniform", epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            AttackConfig(mode="uniform", epsilon=1.0)
        with pytest.raises(ValueError, match="mode"):
            AttackConfig(mode="chaotic", epsilon=0.1)
        with pytest.raises(ValueError, match="iterations"):
            AttackConfig(mode="uniform", epsilon=0.1, iterations=0)


class TestInitDelta:
    def test_degenerate_box_gives_zero(self):
        box = BudgetBox(lower=np.zeros((2, 2, 1)), upper=np.zeros((2, 2, 1)))
        assert np.array_equal(init_delta(box, seed=0), np.zeros((2, 2, 1)))

    def test_deterministic(self):
        img = interior_image(4)
        box = budget_box(img, AttackConfig(mode="uniform", epsilon=0.1))
        a = init_delta(box, seed=7)
        b = init_delta(box, seed=7)
        assert np.array_equal(a, b)
        assert not a.flags.writeable
        c = init_delta(box, seed=8)
        assert not np.array_equal(a, c)

    def test_stays_in_box(self):
        img = Image(Xoshiro256StarStar(5).fill((10, 10, 3)))
        box = budget_box(img, AttackConfig(mode="adaptive", epsilon=0.2))
        delta = init_delta(box, seed=1)
        assert np.all(delta >= box.lower)
        assert np.all(delta <= box.upper)

    def test_mean_near_midpoint_statistical(self):
        # 1e5 coordinates with a constant box: the empirical mean must fall
        # within 3 sigma of the box midpoint, sigma = width / sqrt(12 n)
        n = 100_000
        lower = np.full((n, 1, 1), -0.08)
        upper = np.full((n, 1, 1), 0.12)
        box = BudgetBox(lower=lower, upper=upper)
        delta = init_delta(box, seed=11)
        midpoint = 0.02
        sigma = 0.2 / math.sqrt(12 * n)
        assert abs(delta.mean() - midpoint) < 3 * sigma


class TestPgdAttackIdentity:
    def test_fixed_point_on_interior_pixels(self):
        # analytic oracle: on the identity model the objective is |delta|_2,
        # sign ascent pushes every nonzero coordinate to its box face, and
        # interior pixels have faces at exactly +/- eps
        img = interior_image(6, shape=(6, 6, 3))
        config = AttackConfig(mode="uniform", epsilon=0.1, iterations=20, seed=3)
        result = pgd_attack(IdentityModel(), img, config)
        delta0 = init_delta(budget_box(img, config), seed=3)
        moving = delta0 != 0.0
        assert np.all(np.abs(result.perturbation[moving]) == 0.1)

    def test_single_huge_step_saturates(self, monkeypatch):
        monkeypatch.setattr(attack, "STEP_DIVISOR", 0.01)
        img = interior_image(7, shape=(5, 5, 3))
        config = AttackConfig(mode="uniform", epsilon=0.05, iterations=1,
                              seed=5)
        result = pgd_attack(IdentityModel(), img, config)
        delta0 = init_delta(budget_box(img, config), seed=5)
        signs = np.sign(delta0)
        nonzero = signs != 0
        assert np.all(np.abs(result.perturbation[nonzero]) == 0.05)

    def test_objective_is_l2_of_delta(self):
        img = interior_image(8)
        config = AttackConfig(mode="uniform", epsilon=0.07, iterations=3, seed=9)
        result = pgd_attack(IdentityModel(), img, config)
        delta0 = init_delta(budget_box(img, config), seed=9)
        assert result.objective_trace[0] == pytest.approx(
            float(np.linalg.norm(delta0.ravel())), abs=1e-12)


class TestPgdConstraints:
    @pytest.mark.parametrize("mode", ["uniform", "adaptive"])
    def test_every_iteration_in_box(self, mode):
        img = Image(Xoshiro256StarStar(10).fill((12, 12, 3)))
        config = AttackConfig(mode=mode, epsilon=16 / 255, iterations=8, seed=2)
        box = budget_box(img, config)
        seen = []

        def audit(t, delta):
            seen.append(t)
            assert np.all(delta >= box.lower - 1e-12)
            assert np.all(delta <= box.upper + 1e-12)
            assert np.all(img.data + delta >= -1e-12)
            assert np.all(img.data + delta <= 1.0 + 1e-12)

        pgd_attack(GainMapModel(blur_radius=2), img, config, on_iteration=audit)
        assert seen == list(range(8))

    def test_adaptive_normalized_constraint(self):
        triplet = gen_triplet(SynthConfig(seed=12, count=1, height=32,
                                          width=32), 0)
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=10,
                              seed=4)
        result = pgd_attack(GainMapModel(), triplet.shadow, config)
        norms = perturbation_norms(result.perturbation, triplet.shadow)
        assert norms.linf_normalized <= 8 / 255 + 1e-9

    def test_optimized_beats_random_init(self):
        triplet = gen_triplet(SynthConfig(seed=13, count=1, height=32,
                                          width=32), 0)
        model = GainMapModel()
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=20,
                              seed=6)
        result = pgd_attack(model, triplet.shadow, config)
        delta0 = init_delta(budget_box(triplet.shadow, config), seed=6)
        clean_out = model.forward(triplet.shadow)
        out_final = model.forward(result.attacked_image)
        out_init = model.forward(
            Image(np.clip(triplet.shadow.data + delta0, 0, 1)))
        assert psnr(clean_out, out_final) < psnr(clean_out, out_init)

    def test_zero_budget_limit(self):
        img = interior_image(14)
        config = AttackConfig(mode="uniform", epsilon=1e-9, iterations=4, seed=1)
        result = pgd_attack(IdentityModel(), img, config)
        assert np.abs(result.perturbation).max() <= 1e-9

    def test_deterministic_end_to_end(self):
        img = interior_image(15, shape=(10, 10, 3))
        model = model_tinycnn(seed=3)
        config = AttackConfig(mode="adaptive", epsilon=4 / 255, iterations=6,
                              seed=21)
        r1 = pgd_attack(model, img, config)
        r2 = pgd_attack(model, img, config)
        assert np.array_equal(r1.perturbation, r2.perturbation)
        assert not r1.perturbation.flags.writeable
        assert r1.objective_trace == r2.objective_trace
        assert np.array_equal(r1.attacked_image.data, r2.attacked_image.data)

    def test_trace_finite_one_entry_per_iteration(self):
        img = interior_image(16)
        config = AttackConfig(mode="uniform", epsilon=0.05, iterations=7, seed=2)
        result = pgd_attack(GainMapModel(blur_radius=2), img, config)
        assert len(result.objective_trace) == 7
        assert all(math.isfinite(v) for v in result.objective_trace)

    def test_non_finite_gradient_names_iteration(self):
        class BrokenModel:
            name = "broken"

            def forward(self, image):
                return image

            def vjp(self, x):
                return x, lambda cotangent: np.full_like(x, np.nan)

        img = interior_image(17)
        config = AttackConfig(mode="uniform", epsilon=0.1, iterations=3, seed=0)
        with pytest.raises(NonFiniteGradientError, match="iteration 0"):
            pgd_attack(BrokenModel(), img, config)

    def test_non_finite_objective_names_iteration(self):
        class NanOutputModel:
            name = "nan-output"
            passes = 0

            def forward(self, image):
                return image

            def vjp(self, x):
                self.passes += 1
                if self.passes < 3:
                    return x, lambda cotangent: cotangent

                def pullback(cotangent):
                    raise AssertionError("pullback ran on a NaN objective")
                return np.full_like(x, np.nan), pullback

        img = interior_image(18)
        config = AttackConfig(mode="uniform", epsilon=0.1, iterations=5, seed=0)
        with pytest.raises(NonFiniteGradientError,
                           match="objective at iteration 2"):
            pgd_attack(NanOutputModel(), img, config)

    def test_loop_builds_no_image(self, monkeypatch):
        # the anchor, the attacked image and its output are the only Images
        built = []
        post_init = Image.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(Image, "__post_init__", counting)
        img = interior_image(22, shape=(16, 16, 3))
        counts = []
        for iterations in (1, 8):
            del built[:]
            pgd_attack(GainMapModel(), img, AttackConfig(
                mode="adaptive", epsilon=8 / 255, iterations=iterations))
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_nothing_of_an_iteration_outlives_it(self):
        # by the time on_iteration runs, iteration t's output tensor and
        # output array are freed, so they are not alive during the next
        # iteration's forward; gc is off, so only reference counts free them
        tensors, arrays, alive = [], [], []

        class Probe(GainMapModel):
            def forward_t(self, x, params):
                out = super().forward_t(x, params)
                if x.requires_grad:  # a vjp's tape, not the anchor's
                    tensors.append(weakref.ref(out))
                return out

            def vjp(self, x):
                out, pullback = super().vjp(x)
                arrays.append(weakref.ref(out))
                return out, pullback

        def hook(t, delta):
            alive.append((len(tensors), tensors[t]() is not None,
                          arrays[t]() is not None))

        gc.disable()
        try:
            pgd_attack(Probe(), interior_image(23, shape=(12, 12, 3)),
                       AttackConfig(mode="uniform", epsilon=0.05,
                                    iterations=3), on_iteration=hook)
        finally:
            gc.enable()
        assert alive == [(t + 1, False, False) for t in range(3)]

    def test_output_array_dead_before_pullback(self):
        # the objective is the output array's last reader, so it is freed
        # before the pullback walks the tape
        dead = []

        class Probe(GainMapModel):
            def vjp(self, x):
                out, pullback = super().vjp(x)
                ref = weakref.ref(out)

                def probed(cotangent):
                    dead.append(ref() is None)
                    return pullback(cotangent)
                return out, probed

        gc.disable()
        try:
            pgd_attack(Probe(), interior_image(24, shape=(12, 12, 3)),
                       AttackConfig(mode="adaptive", epsilon=0.05,
                                    iterations=3))
        finally:
            gc.enable()
        assert dead == [True] * 3

    def test_pgd_attack_peak_memory(self, traced_peak):
        # the backward walk hands each new gradient share to its tensor
        # without a copy and the pullback holds no output value; at
        # 128x128 the peak above entry measured 14.5 image arrays with
        # copied first gradients and the output value held, and 12.8 with
        # neither
        image = gen_triplet(SynthConfig(seed=33, count=1, height=128,
                                        width=128), 0).shadow
        model = GainMapModel()
        config = AttackConfig(mode="adaptive", epsilon=16 / 255, iterations=3)
        peak = traced_peak(lambda: pgd_attack(model, image, config))
        assert peak <= 13.5 * image.data.nbytes, peak / image.data.nbytes

    def test_parameters_untouched_by_attack(self):
        model = model_tinycnn(seed=5)
        before = {name: p.data.copy() for name, p in model.params.items()}
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=3,
                              seed=2)
        pgd_attack(model, interior_image(19), config)
        for name, p in model.params.items():
            assert p.data.tobytes() == before[name].tobytes()
            assert p.grad is None

    @pytest.mark.parametrize("make", [IdentityModel, GainMapModel,
                                      lambda: model_tinycnn(seed=6)],
                             ids=["identity", "gainmap", "tinycnn"])
    def test_result_carries_clean_and_attacked_outputs(self, make):
        model = make()
        img = interior_image(20, shape=(10, 10, 3))
        config = AttackConfig(mode="uniform", epsilon=4 / 255, iterations=3,
                              seed=3)
        result = pgd_attack(model, img, config)
        assert result.clean_output.data.tobytes() \
            == model.forward(img).data.tobytes()
        assert result.attacked_output.data.tobytes() \
            == model.forward(result.attacked_image).data.tobytes()


def reference_pgd(model, image, config):
    """pgd_attack's loop with no exit: one model pass per iteration.
    Returns the trace, every (t, delta bytes) after a projection, and the
    final perturbation, attacked image and attacked output."""
    box = budget_box(image, config)
    delta = init_delta(box, config.seed)
    anchor = model.forward(image)
    step = _radius(image, config) / STEP_DIVISOR
    trace, seen = [], []
    for t in range(config.iterations):
        out, pullback = model.vjp(np.clip(image.data + delta, 0.0, 1.0))
        value, cotangent = attack_objective(anchor.data, out)
        trace.append(value)
        delta = np.clip(delta + step * np.sign(pullback(cotangent)),
                        box.lower, box.upper)
        seen.append((t, delta.tobytes()))
    attacked = Image(np.clip(image.data + delta, 0.0, 1.0))
    return trace, seen, delta, attacked, model.forward(attacked)


def first_repeat(seen):
    """(u, p): the first iterate delta_u with the bits of delta_{u-p}, for
    p = 1 or 2 and u - p >= 1 (seen[t] holds delta_{t+1}); None if none."""
    for u in range(2, len(seen) + 1):
        for p in (1, 2):
            if u - p >= 1 and seen[u - 1][1] == seen[u - 1 - p][1]:
                return u, p
    return None


class Counted:
    """A model wrapper that counts vjp calls."""

    def __init__(self, model):
        self.model, self.name, self.passes = model, model.name, 0

    def forward(self, image):
        return self.model.forward(image)

    def vjp(self, x):
        self.passes += 1
        return self.model.vjp(x)


class Repel:
    """A pure model whose pullback returns -cotangent: every coordinate
    steps towards 0 and then swings around it."""

    name = "repel"

    def forward(self, image):
        return image

    def vjp(self, x):
        return x, lambda cotangent: -cotangent


def shadow_image(seed):
    return gen_triplet(SynthConfig(seed=seed, count=1, height=32, width=32),
                       0).shadow


class TestRepeatExit:
    # pgd_attack stops its model passes once the iterate repeats; a loop
    # with no exit is the oracle for every byte it hands out
    def assert_matches_reference(self, model, image, config):
        seen = []
        counted = Counted(model)
        result = pgd_attack(counted, image, config, on_iteration=lambda t, d:
                            seen.append((t, d.tobytes())))
        trace, ref_seen, delta, attacked, output = reference_pgd(
            model, image, config)
        assert np.array(result.objective_trace).tobytes() \
            == np.array(trace).tobytes()
        assert seen == ref_seen
        assert result.perturbation.tobytes() == delta.tobytes()
        assert result.attacked_image.data.tobytes() == attacked.data.tobytes()
        assert result.attacked_output.data.tobytes() == output.data.tobytes()
        return counted.passes, ref_seen

    @pytest.mark.parametrize("make, seed, mode, budget, iterations, period", [
        (GainMapModel, 0, "adaptive", 8, 20, 1),
        (GainMapModel, 33, "uniform", 4, 20, 2),
        (GainMapModel, 33, "uniform", 16, 10, None),
        (lambda: model_tinycnn(seed=0), 0, "adaptive", 4, 20, 1),
        (lambda: model_tinycnn(seed=0), 3, "uniform", 4, 20, 2),
        (lambda: model_tinycnn(seed=0), 20, "uniform", 16, 20, None),
    ], ids=["gainmap-fixed", "gainmap-2cycle", "gainmap-none",
            "tinycnn-fixed", "tinycnn-2cycle", "tinycnn-none"])
    def test_matches_loop_without_exit(self, make, seed, mode, budget,
                                       iterations, period):
        config = AttackConfig(mode=mode, epsilon=budget / 255,
                              iterations=iterations)
        passes, seen = self.assert_matches_reference(
            make(), shadow_image(seed), config)
        repeat = first_repeat(seen)
        if period is None:
            assert repeat is None
            assert passes == iterations
        else:
            # delta_u repeats: iterations 0 .. u-1 ran the model
            assert repeat[1] == period
            assert passes == repeat[0] < iterations

    def test_black_image_keeps_negative_zero(self):
        # the uniform box's lower face is -0.0 on a black pixel, so iterates
        # equal in value can differ in bits
        image = Image(np.zeros((8, 8, 3)))
        config = AttackConfig(mode="uniform", epsilon=8 / 255)
        passes, seen = self.assert_matches_reference(GainMapModel(), image,
                                                     config)
        final = np.frombuffer(seen[-1][1])
        assert np.any(np.signbit(final) & (final == 0.0))
        assert passes < config.iterations

    def test_wide_2_cycle_runs_every_pass(self):
        # every coordinate swings around 0: a 2-cycle too wide to record
        image = interior_image(25)
        config = AttackConfig(mode="uniform", epsilon=0.1, iterations=20,
                              seed=4)
        passes, seen = self.assert_matches_reference(Repel(), image, config)
        u, p = first_repeat(seen)
        moved = np.frombuffer(seen[u - 1][1]) != np.frombuffer(seen[u - 2][1])
        assert p == 2 and np.count_nonzero(moved) > moved.size / 16
        assert passes == config.iterations

    def test_every_iterate_is_read_only(self):
        refused = []

        def scribble(t, delta):
            with pytest.raises(ValueError, match="read-only"):
                delta[0, 0, 0] = 0.5
            refused.append(t)

        counted = Counted(GainMapModel())
        result = pgd_attack(counted, shadow_image(0), AttackConfig(
            mode="adaptive", epsilon=8 / 255), on_iteration=scribble)
        assert refused == list(range(20))
        assert counted.passes < 20
        assert not result.perturbation.flags.writeable


class TestBudgetEquivalence:
    def test_equivalent_budget_direct_case(self):
        img = Image(np.full((4, 4, 3), 0.4))
        eps_u = equivalent_uniform_budget(img, 16 / 255)
        assert eps_u == pytest.approx(16 / 255 * 0.4, abs=1e-15)
        assert eps_u == pytest.approx(0.025098, abs=1e-6)

    def test_constant_white_image_identity(self):
        img = Image(np.ones((3, 3, 1)))
        assert equivalent_uniform_budget(img, 0.2) == pytest.approx(0.2, abs=1e-15)

    def test_matches_independent_mean(self):
        img = interior_image(18, shape=(9, 11, 3))
        eps_a = 12 / 255
        oracle = eps_a * (math.fsum(img.data.ravel()) / img.data.size)
        assert abs(equivalent_uniform_budget(img, eps_a) - oracle) < 1e-12

    def test_rejects_out_of_range(self):
        img = interior_image(19)
        with pytest.raises(ValueError):
            equivalent_uniform_budget(img, 0.0)
        with pytest.raises(ValueError):
            equivalent_uniform_budget(img, 1.0)
        with pytest.raises(ValueError, match="epsilon_a must lie"):
            equivalent_uniform_budget(img, 5e-324)


class TestL1Bound:
    def test_zero_delta_holds(self):
        img = interior_image(20)
        report = verify_l1_bound(np.zeros(img.shape), img, 0.1)
        assert report.ok
        assert report.mean_abs == 0.0

    def test_face_saturation_reaches_equality(self):
        # unsaturated image: every coordinate can sit exactly on its face
        img = interior_image(21, lo=0.1, hi=0.7)
        eps_a = 16 / 255
        ieff = np.maximum(img.data, 1 / 255)
        delta = eps_a * ieff
        report = verify_l1_bound(delta, img, eps_a)
        assert report.ok
        assert report.mean_abs == pytest.approx(report.bound, abs=1e-9)

    def test_single_coordinate_violation_named(self):
        img = Image(np.full((2, 2, 1), 0.5))
        eps_a = 0.1
        delta = eps_a * np.full(img.shape, 0.5)
        delta[1, 0, 0] += 2e-9
        report = verify_l1_bound(delta, img, eps_a)
        assert not report.ok
        assert not report.per_pixel_ok
        assert report.first_violation == (1, 0, 0)
        assert report.violation_excess == pytest.approx(2e-9, rel=0.1)

    def test_adaptive_attack_results_satisfy_bound(self):
        triplet = gen_triplet(SynthConfig(seed=22, count=1, height=32,
                                          width=32), 0)
        for eps_a in (2 / 255, 16 / 255):
            config = AttackConfig(mode="adaptive", epsilon=eps_a,
                                  iterations=10, seed=5)
            result = pgd_attack(GainMapModel(), triplet.shadow, config)
            assert verify_l1_bound(result.perturbation, triplet.shadow, eps_a).ok


class TestGrayscale:
    def test_adaptive_attack_on_single_channel(self):
        img = Image(Xoshiro256StarStar(40).fill_uniform((16, 16, 1), 0.1, 0.9))
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=6,
                              seed=3)
        result = pgd_attack(GainMapModel(blur_radius=2), img, config)
        assert result.perturbation.shape == (16, 16, 1)
        norms = perturbation_norms(result.perturbation, img)
        assert norms.linf_normalized <= 8 / 255 + 1e-9
