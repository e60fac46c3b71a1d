import math
from fractions import Fraction

import numpy as np
import pytest

from shadowstorm.attack import AttackConfig, pgd_attack
from shadowstorm.imagecore import Image, Perturbation, ShadowMask
from shadowstorm.metrics import (EmptyRegionError, normalized_perturbation_map,
                                 perturbation_norms, psnr, region_mse, ssim,
                                 ssim_map)
from shadowstorm.models import model_gainmap
from shadowstorm.rng import Xoshiro256StarStar
from shadowstorm.synthdata import SynthConfig, gen_triplet


def random_pair(seed, shape=(16, 16, 3)):
    rng = Xoshiro256StarStar(seed)
    return Image(rng.fill(shape)), Image(rng.fill(shape))


def checker_mask(h, w):
    return ShadowMask((np.indices((h, w)).sum(axis=0) % 2).astype(np.uint8))


class TestPsnr:
    def test_identical_images_infinite(self):
        img, _ = random_pair(1)
        assert psnr(img, img) == math.inf

    def test_constant_offset_analytic(self):
        a = Image(np.full((4, 4, 1), 0.5))
        b = Image(np.full((4, 4, 1), 0.6))
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_masked_regions_hand_computed(self):
        x = Image(np.array([[[0.5], [0.5]]]))
        y = Image(np.array([[[0.6], [0.8]]]))  # diffs 0.1 and 0.3
        mask = ShadowMask(np.array([[1, 0]], dtype=np.uint8))
        assert psnr(x, y, mask, "shadow") == pytest.approx(20.0, abs=1e-9)
        assert psnr(x, y, mask, "nonshadow") == pytest.approx(
            10 * math.log10(1 / 0.09), abs=1e-9)

    def test_symmetry(self):
        x, y = random_pair(2)
        assert psnr(x, y) == pytest.approx(psnr(y, x), abs=1e-12)

    def test_translation_consistency(self):
        rng = Xoshiro256StarStar(3)
        base = rng.fill_uniform((6, 6, 1), 0.2, 0.6)
        noise = rng.fill_uniform((6, 6, 1), -0.05, 0.05)
        shift = 0.2
        a1, b1 = Image(base), Image(base + noise)
        a2, b2 = Image(base + shift), Image(base + noise + shift)
        assert psnr(a1, b1) == pytest.approx(psnr(a2, b2), abs=1e-9)

    def test_region_additivity_identity(self):
        x, y = random_pair(4, shape=(12, 12, 3))
        mask = checker_mask(12, 12)
        n_all = x.data.shape[0] * x.data.shape[1]
        n_s = int(mask.data.sum())
        n_ns = n_all - n_s
        lhs = n_all * region_mse(x, y)
        rhs = (n_s * region_mse(x, y, mask, "shadow")
               + n_ns * region_mse(x, y, mask, "nonshadow"))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        a = Image(np.zeros((2, 2, 1)))
        b = Image(np.zeros((2, 3, 1)))
        with pytest.raises(ValueError, match="shapes differ"):
            psnr(a, b)

    def test_single_class_mask_rejected(self):
        x, y = random_pair(5, shape=(4, 4, 1))
        allshadow = ShadowMask(np.ones((4, 4), dtype=np.uint8))
        with pytest.raises(EmptyRegionError):
            psnr(x, y, allshadow, "shadow")

    def test_region_without_mask_rejected(self):
        x, y = random_pair(6)
        with pytest.raises(ValueError, match="requires a shadow mask"):
            psnr(x, y, None, "shadow")


class TestSsim:
    def test_identity_exactly_one(self):
        img, _ = random_pair(7)
        assert ssim(img, img) == 1.0

    def test_constant_pair_closed_form(self):
        # luminance term only; contrast/structure terms are exactly 1
        oracle = float((Fraction(2 * 5 * 3, 100) + Fraction(1, 10000))
                       / (Fraction(34, 100) + Fraction(1, 10000)))
        a = Image(np.full((16, 16, 3), 0.5))
        b = Image(np.full((16, 16, 3), 0.3))
        assert ssim(a, b) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.8823875330785064, abs=1e-15)

    def test_symmetry_to_1e12(self):
        for seed in (8, 9):
            x, y = random_pair(seed)
            assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)

    def test_window_size_enforced(self):
        x, y = random_pair(10, shape=(10, 12, 1))
        with pytest.raises(ValueError, match="smaller than"):
            ssim(x, y)

    def test_map_shape_valid_windows(self):
        x, y = random_pair(11, shape=(15, 13, 3))
        assert ssim_map(x, y).shape == (5, 3, 3)

    def test_bounded_by_one(self):
        x, y = random_pair(12)
        smap = ssim_map(x, y)
        assert smap.max() <= 1.0 + 1e-12

    def test_region_uses_window_centers(self):
        x, y = random_pair(13, shape=(22, 22, 1))
        mask_data = np.zeros((22, 22), dtype=np.uint8)
        mask_data[:, :11] = 1  # left half shadow
        mask = ShadowMask(mask_data)
        s_shadow = ssim(x, y, mask, "shadow")
        s_nonshadow = ssim(x, y, mask, "nonshadow")
        s_all = ssim(x, y)
        smap = ssim_map(x, y)
        centers = mask_data[5:-5, 5:-5].astype(bool)
        assert s_shadow == pytest.approx(float(smap[centers].mean()), abs=1e-12)
        assert s_nonshadow == pytest.approx(float(smap[~centers].mean()), abs=1e-12)
        assert s_all == pytest.approx(float(smap.mean()), abs=1e-12)

    def test_region_fully_outside_valid_area_rejected(self):
        x, y = random_pair(14, shape=(16, 16, 1))
        mask_data = np.zeros((16, 16), dtype=np.uint8)
        mask_data[0, 0] = 1  # shadow exists but never as a window center
        with pytest.raises(EmptyRegionError, match="window centers"):
            ssim(x, y, ShadowMask(mask_data), "shadow")


class TestPerturbationNorms:
    def test_zero_delta(self):
        img, _ = random_pair(16)
        norms = perturbation_norms(Perturbation(np.zeros(img.shape)), img)
        assert (norms.l1_mean, norms.linf, norms.linf_normalized) == (0, 0, 0)

    def test_direct_computation(self):
        img = Image(np.array([[[0.5], [0.8]]]))
        delta = Perturbation(np.array([[[0.1], [-0.2]]]))
        norms = perturbation_norms(delta, img)
        assert norms.l1_mean == pytest.approx(0.15)
        assert norms.linf == pytest.approx(0.2)
        assert norms.linf_normalized == pytest.approx(0.25)

    def test_normalized_map_values(self):
        img = Image(np.array([[[0.1]]]))
        delta = Perturbation(np.array([[[0.05]]]))
        nmap = normalized_perturbation_map(delta, img)
        assert nmap[0, 0, 0] == pytest.approx(0.5)

    def test_map_not_clamped_above_one(self):
        img = Image(np.full((1, 1, 1), 0.01))
        delta = Perturbation(np.full((1, 1, 1), 0.05))
        nmap = normalized_perturbation_map(delta, img)
        assert nmap[0, 0, 0] == pytest.approx(5.0)

    def test_dark_pixel_floor(self):
        img = Image(np.zeros((1, 1, 1)))
        delta = Perturbation(np.full((1, 1, 1), 1 / 255))
        nmap = normalized_perturbation_map(delta, img, floor=1 / 255)
        assert nmap[0, 0, 0] == pytest.approx(1.0)


class TestOnAttackOutputs:
    def test_adaptive_linf_normalized_bounded(self):
        triplet = gen_triplet(SynthConfig(seed=30, count=1, height=32,
                                          width=32), 0)
        eps = 16 / 255
        config = AttackConfig(mode="adaptive", epsilon=eps, iterations=10, seed=3)
        result = pgd_attack(model_gainmap(), triplet.shadow, config)
        norms = perturbation_norms(result.perturbation, triplet.shadow)
        assert norms.linf_normalized <= eps + 1e-9

    def test_uniform_normalized_map_peaks_in_shadow(self):
        # the qualitative point of the adaptive budget: a uniform attack's
        # normalized perturbation concentrates in the dark region
        triplet = gen_triplet(SynthConfig(seed=31, count=1, height=32,
                                          width=32), 0)
        config = AttackConfig(mode="uniform", epsilon=8 / 255, iterations=10,
                              seed=4)
        result = pgd_attack(model_gainmap(), triplet.shadow, config)
        nmap = normalized_perturbation_map(result.perturbation, triplet.shadow)
        sel = triplet.mask.data.astype(bool)
        assert nmap[sel].mean() > nmap[~sel].mean()
