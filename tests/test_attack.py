import math
from types import SimpleNamespace

import numpy as np
import pytest

from shadowstorm.attack import (AttackConfig, BudgetBox, NonFiniteGradientError,
                                _step_size, budget_box,
                                equivalent_uniform_budget, init_delta,
                                pgd_attack, verify_l1_bound)
from shadowstorm.imagecore import INTENSITY_FLOOR, Image, Perturbation
from shadowstorm.metrics import (normalized_perturbation_map,
                                 perturbation_norms, psnr)
from shadowstorm.models import model_gainmap, model_identity, model_tinycnn
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

    def test_degenerate_flag(self):
        tight = BudgetBox(lower=np.zeros((2, 2, 1)), upper=np.zeros((2, 2, 1)))
        assert tight.is_degenerate
        img = interior_image(2)
        box = budget_box(img, AttackConfig(mode="uniform", epsilon=0.1))
        assert not box.is_degenerate

    def test_invariant_lower_le_zero_le_upper(self):
        img = Image(Xoshiro256StarStar(3).fill((6, 6, 3)))  # includes extremes
        for mode in ("uniform", "adaptive"):
            box = budget_box(img, AttackConfig(mode=mode, epsilon=0.25))
            assert np.all(box.lower <= 0.0)
            assert np.all(box.upper >= 0.0)


BLACK = Image(np.zeros((2, 2, 1)))
ADAPTIVE = AttackConfig(mode="adaptive", epsilon=0.5, step_divisor=4.0)
SMALL_DELTA = Perturbation(np.full((2, 2, 1), 0.25))


@pytest.mark.parametrize("use,expected", [
    (lambda: budget_box(BLACK, ADAPTIVE).upper, 0.5 * INTENSITY_FLOOR),
    (lambda: _step_size(BLACK, ADAPTIVE), (0.5 / 4.0) * INTENSITY_FLOOR),
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
        for divisor in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step_divisor"):
                AttackConfig(mode="uniform", epsilon=0.1, step_divisor=divisor)


class TestInitDelta:
    def test_degenerate_box_gives_zero(self):
        box = BudgetBox(lower=np.zeros((2, 2, 1)), upper=np.zeros((2, 2, 1)))
        assert np.array_equal(init_delta(box, seed=0).data, np.zeros((2, 2, 1)))

    def test_deterministic(self):
        img = interior_image(4)
        box = budget_box(img, AttackConfig(mode="uniform", epsilon=0.1))
        a = init_delta(box, seed=7)
        b = init_delta(box, seed=7)
        assert np.array_equal(a.data, b.data)
        c = init_delta(box, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_stays_in_box(self):
        img = Image(Xoshiro256StarStar(5).fill((10, 10, 3)))
        box = budget_box(img, AttackConfig(mode="adaptive", epsilon=0.2))
        delta = init_delta(box, seed=1)
        assert np.all(delta.data >= box.lower)
        assert np.all(delta.data <= box.upper)

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
        assert abs(delta.data.mean() - midpoint) < 3 * sigma


class TestPgdAttackIdentity:
    def test_fixed_point_on_interior_pixels(self):
        # analytic oracle: on the identity model the objective is |delta|_2,
        # sign ascent pushes every nonzero coordinate to its box face, and
        # interior pixels have faces at exactly +/- eps
        img = interior_image(6, shape=(6, 6, 3))
        config = AttackConfig(mode="uniform", epsilon=0.1, iterations=20, seed=3)
        result = pgd_attack(model_identity(), img, config)
        delta0 = init_delta(budget_box(img, config), seed=3)
        moving = delta0.data != 0.0
        assert np.all(np.abs(result.perturbation.data[moving]) == 0.1)

    def test_single_huge_step_saturates(self):
        img = interior_image(7, shape=(5, 5, 3))
        config = AttackConfig(mode="uniform", epsilon=0.05, iterations=1,
                              step_divisor=0.01, seed=5)
        result = pgd_attack(model_identity(), img, config)
        delta0 = init_delta(budget_box(img, config), seed=5)
        signs = np.sign(delta0.data)
        nonzero = signs != 0
        assert np.all(np.abs(result.perturbation.data[nonzero]) == 0.05)

    def test_objective_is_l2_of_delta(self):
        img = interior_image(8)
        config = AttackConfig(mode="uniform", epsilon=0.07, iterations=3, seed=9)
        result = pgd_attack(model_identity(), img, config)
        delta0 = init_delta(budget_box(img, config), seed=9)
        assert result.objective_trace[0] == pytest.approx(
            float(np.linalg.norm(delta0.data.ravel())), abs=1e-12)


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

        pgd_attack(model_gainmap(blur_radius=2), img, config, on_iteration=audit)
        assert seen == list(range(8))

    def test_adaptive_normalized_constraint(self):
        triplet = gen_triplet(SynthConfig(seed=12, count=1, height=32,
                                          width=32), 0)
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=10,
                              seed=4)
        result = pgd_attack(model_gainmap(), triplet.shadow, config)
        norms = perturbation_norms(result.perturbation, triplet.shadow)
        assert norms.linf_normalized <= 8 / 255 + 1e-9

    def test_optimized_beats_random_init(self):
        triplet = gen_triplet(SynthConfig(seed=13, count=1, height=32,
                                          width=32), 0)
        model = model_gainmap()
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=20,
                              seed=6)
        result = pgd_attack(model, triplet.shadow, config)
        delta0 = init_delta(budget_box(triplet.shadow, config), seed=6)
        clean_out = model.forward(triplet.shadow)
        out_final = model.forward(result.attacked_image)
        out_init = model.forward(
            Image(np.clip(triplet.shadow.data + delta0.data, 0, 1)))
        assert psnr(clean_out, out_final) < psnr(clean_out, out_init)

    def test_zero_budget_limit(self):
        img = interior_image(14)
        config = AttackConfig(mode="uniform", epsilon=1e-9, iterations=4, seed=1)
        result = pgd_attack(model_identity(), img, config)
        assert np.abs(result.perturbation.data).max() <= 1e-9

    def test_deterministic_end_to_end(self):
        img = interior_image(15, shape=(10, 10, 3))
        model = model_tinycnn(seed=3)
        config = AttackConfig(mode="adaptive", epsilon=4 / 255, iterations=6,
                              seed=21)
        r1 = pgd_attack(model, img, config)
        r2 = pgd_attack(model, img, config)
        assert np.array_equal(r1.perturbation.data, r2.perturbation.data)
        assert r1.objective_trace == r2.objective_trace
        assert np.array_equal(r1.attacked_image.data, r2.attacked_image.data)

    def test_trace_finite_one_entry_per_iteration(self):
        img = interior_image(16)
        config = AttackConfig(mode="uniform", epsilon=0.05, iterations=7, seed=2)
        result = pgd_attack(model_gainmap(blur_radius=2), img, config)
        assert len(result.objective_trace) == 7
        assert all(math.isfinite(v) for v in result.objective_trace)

    def test_non_finite_gradient_names_iteration(self):
        class BrokenModel:
            name = "broken"

            def forward(self, image):
                return image

            def vjp(self, image):
                return image, lambda cotangent: np.full_like(image.data, np.nan)

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

            def vjp(self, image):
                self.passes += 1
                if self.passes < 3:
                    return image, lambda cotangent: cotangent

                def pullback(cotangent):
                    raise AssertionError("pullback ran on a NaN objective")
                # Image() rejects NaN, so the output is a bare duck type
                return SimpleNamespace(
                    data=np.full_like(image.data, np.nan)), pullback

        img = interior_image(18)
        config = AttackConfig(mode="uniform", epsilon=0.1, iterations=5, seed=0)
        with pytest.raises(NonFiniteGradientError,
                           match="objective at iteration 2"):
            pgd_attack(NanOutputModel(), img, config)

    def test_parameters_untouched_by_attack(self):
        model = model_tinycnn(seed=5)
        before = {name: p.data.copy() for name, p in model.params.items()}
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=3,
                              seed=2)
        pgd_attack(model, interior_image(19), config)
        for name, p in model.params.items():
            assert p.data.tobytes() == before[name].tobytes()
            assert p.grad is None

    @pytest.mark.parametrize("make", [model_identity, model_gainmap,
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


class TestL1Bound:
    def test_zero_delta_holds(self):
        img = interior_image(20)
        report = verify_l1_bound(Perturbation(np.zeros(img.shape)), img, 0.1)
        assert report.ok
        assert report.mean_abs == 0.0

    def test_face_saturation_reaches_equality(self):
        # unsaturated image: every coordinate can sit exactly on its face
        img = interior_image(21, lo=0.1, hi=0.7)
        eps_a = 16 / 255
        ieff = np.maximum(img.data, 1 / 255)
        delta = Perturbation(eps_a * ieff)
        report = verify_l1_bound(delta, img, eps_a)
        assert report.ok
        assert report.mean_abs == pytest.approx(report.bound, abs=1e-9)

    def test_single_coordinate_violation_named(self):
        img = Image(np.full((2, 2, 1), 0.5))
        eps_a = 0.1
        delta = eps_a * np.full(img.shape, 0.5)
        delta[1, 0, 0] += 2e-9
        report = verify_l1_bound(Perturbation(delta), img, eps_a)
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
            result = pgd_attack(model_gainmap(), triplet.shadow, config)
            assert verify_l1_bound(result.perturbation, triplet.shadow, eps_a).ok


class TestGrayscale:
    def test_adaptive_attack_on_single_channel(self):
        img = Image(Xoshiro256StarStar(40).fill_uniform((16, 16, 1), 0.1, 0.9))
        config = AttackConfig(mode="adaptive", epsilon=8 / 255, iterations=6,
                              seed=3)
        result = pgd_attack(model_gainmap(blur_radius=2), img, config)
        assert result.perturbation.shape == (16, 16, 1)
        norms = perturbation_norms(result.perturbation, img)
        assert norms.linf_normalized <= 8 / 255 + 1e-9
