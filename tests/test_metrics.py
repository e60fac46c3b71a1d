import math
from fractions import Fraction

import numpy as np
import pytest

from shadowstorm import bench
from shadowstorm.attack import AttackConfig, pgd_attack
from shadowstorm.imagecore import Image, ShadowMask
from shadowstorm.metrics import (SSIM_BAND, SSIM_K1, SSIM_K2,
                                 EmptyRegionError, _filter_valid,
                                 check_scorable,
                                 normalized_perturbation_map,
                                 perturbation_norms, psnr, region_mse,
                                 region_psnr, region_ssim, ssim, ssim_map)
from shadowstorm.models import GainMapModel
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
        _, shadow, nonshadow = region_psnr(x, y, mask)
        assert shadow == pytest.approx(20.0, abs=1e-9)
        assert nonshadow == pytest.approx(10 * math.log10(1 / 0.09), abs=1e-9)

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
        mse_all, mse_shadow, mse_nonshadow = region_mse(x, y, mask)
        lhs = n_all * mse_all
        rhs = n_s * mse_shadow + n_ns * mse_nonshadow
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_region_psnr_equals_three_psnr_calls(self):
        # each region scored on its own as a 1 x N strip of its pixels
        for seed, shape in ((17, (5, 7, 1)), (18, (40, 36, 3))):
            x, y = random_pair(seed, shape=shape)
            mask = checker_mask(*shape[:2])
            shadow = mask.data.astype(bool)

            def strip(img, select):
                return Image(img.data[select][np.newaxis])

            expected = (psnr(x, y),
                        psnr(strip(x, shadow), strip(y, shadow)),
                        psnr(strip(x, ~shadow), strip(y, ~shadow)))
            got = region_psnr(x, y, mask)
            assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert region_psnr(x, x, mask) == (math.inf,) * 3

    def test_shape_mismatch_rejected(self):
        a = Image(np.zeros((2, 2, 1)))
        b = Image(np.zeros((2, 3, 1)))
        with pytest.raises(ValueError, match="shapes differ"):
            psnr(a, b)

    def test_single_class_mask_rejected(self):
        x, y = random_pair(5, shape=(4, 4, 1))
        allshadow = ShadowMask(np.ones((4, 4), dtype=np.uint8))
        with pytest.raises(EmptyRegionError):
            region_psnr(x, y, allshadow)


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
        [(s_all, s_shadow, s_nonshadow)] = region_ssim([x], y, mask)
        smap = ssim_map(x, y)
        centers = mask_data[5:-5, 5:-5].astype(bool)
        assert s_shadow == pytest.approx(float(smap[centers].mean()), abs=1e-12)
        assert s_nonshadow == pytest.approx(float(smap[~centers].mean()), abs=1e-12)
        assert s_all == pytest.approx(float(smap.mean()), abs=1e-12)

    def test_region_ssim_equals_three_ssim_calls(self):
        for seed, shape in ((15, (22, 22, 1)), (16, (40, 36, 3))):
            x, y = random_pair(seed, shape=shape)
            other, _ = random_pair(seed + 100, shape=shape)
            mask = checker_mask(*shape[:2])
            centers = mask.data[5:-5, 5:-5].astype(bool)
            expected = []
            for ref in (x, other):
                smap = ssim_map(ref, y)
                expected.append((ssim(ref, y), float(np.mean(smap[centers])),
                                 float(np.mean(smap[~centers]))))
            got = region_ssim([x, other], y, mask)
            assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_check_mask_needs_pixels_and_window_centers(self):
        image = Image(np.full((16, 16, 3), 0.5))
        check_scorable(image, checker_mask(16, 16))
        border = np.ones((16, 16), dtype=np.uint8)
        border[5:-5, 5:-5] = 0  # shadow only where no window is centered
        for data, match in ((np.zeros((16, 16)), "both shadow"),
                            (np.ones((16, 16)), "both shadow"),
                            (border, "'shadow' has no window centers"),
                            (1 - border, "'nonshadow' has no window centers")):
            with pytest.raises(EmptyRegionError, match=match):
                check_scorable(image, ShadowMask(data.astype(np.uint8)))

    @pytest.mark.parametrize("image_size,mask_size,match", [
        ((10, 16), None, "smaller than the 11x11 SSIM window"),
        ((16, 16), (16, 12), "does not match image shape")],
        ids=["below-ssim-window", "mask-size-mismatch"])
    def test_check_scorable_needs_a_window_and_a_mask_of_the_image_size(
            self, image_size, mask_size, match):
        mask = None if mask_size is None else checker_mask(*mask_size)
        with pytest.raises(ValueError, match=match):
            check_scorable(Image(np.full((*image_size, 3), 0.5)), mask)

    def test_region_fully_outside_valid_area_rejected(self):
        x, y = random_pair(14, shape=(16, 16, 1))
        mask_data = np.zeros((16, 16), dtype=np.uint8)
        mask_data[0, 0] = 1  # shadow exists but never as a window center
        with pytest.raises(EmptyRegionError, match="window centers"):
            region_ssim([x], y, ShadowMask(mask_data))


def whole_image_ssim_map(x, y):
    """ssim_map from one whole-image filter pass per statistic: the
    reference for the maps built in row bands."""
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    xd, yd = x.data, y.data
    mu_x, mu_y = _filter_valid(xd), _filter_valid(yd)
    sig_x = _filter_valid(xd * xd) - mu_x * mu_x
    sig_y = _filter_valid(yd * yd) - mu_y * mu_y
    sig_xy = _filter_valid(xd * yd) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * sig_xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (sig_x + sig_y + c2)
    return num / den


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestBandedMaps:
    # map rows: one, one full band, one band and a row, two bands and one
    @pytest.mark.parametrize("rows", [1, SSIM_BAND, SSIM_BAND + 1,
                                      2 * SSIM_BAND + 1])
    @pytest.mark.parametrize("width", [13, 37])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_bits_of_whole_image_reference(self, rows, width, channels):
        shape = (rows + 10, width, channels)
        x, y = random_pair(40 + rows + width + channels, shape=shape)
        other, _ = random_pair(90 + rows + width + channels, shape=shape)
        mask = checker_mask(*shape[:2])
        centers = mask.data[5:-5, 5:-5].astype(bool)
        expected = []
        for ref in (x, other):
            smap = whole_image_ssim_map(ref, y)
            assert np.array_equal(bits(ssim_map(ref, y)), bits(smap))
            assert bits(ssim(ref, y)) == bits(np.mean(smap))
            expected.append([np.mean(smap[select])
                             for select in (..., centers, ~centers)])
        got = region_ssim([x, other], y, mask)
        assert np.array_equal(bits(got), bits(expected))


class TestRegionTriples:
    def test_whole_image_scores_equal_all_entries(self):
        for seed, shape in ((17, (22, 15, 1)), (18, (40, 36, 3))):
            x, y = random_pair(seed, shape=shape)
            other, _ = random_pair(seed + 100, shape=shape)
            mask = checker_mask(*shape[:2])
            assert (np.float64(psnr(x, y)).tobytes()
                    == np.float64(region_psnr(x, y, mask)[0]).tobytes())
            got = [entries[0] for entries in region_ssim([x, other], y, mask)]
            expected = [ssim(x, y), ssim(other, y)]
            assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert region_psnr(x, x, mask) == (math.inf,) * 3

    def test_mask_of_another_size_rejected(self):
        x, y = random_pair(19, shape=(16, 16, 3))
        mask = checker_mask(16, 17)
        with pytest.raises(ValueError, match="does not match image shape"):
            region_psnr(x, y, mask)
        with pytest.raises(ValueError, match="does not match image shape"):
            region_ssim([x], y, mask)

    def test_checks_run_before_any_map_in_order(self):
        # pair shapes, then the SSIM window, then the mask's regions
        x, y = random_pair(20, shape=(16, 16, 3))
        bad_mask = checker_mask(16, 17)
        other = Image(np.zeros((16, 15, 3)))
        small = Image(np.zeros((10, 16, 3)))
        for refs, test, match in (([x, other], y, "shapes differ"),
                                  ([small], small, "smaller than"),
                                  ([x], y, "does not match image shape")):
            with pytest.raises(ValueError, match=match):
                region_ssim(refs, test, bad_mask)

    def test_region_metrics_peak_memory(self, traced_peak):
        # the SSIM maps are built in bands of SSIM_BAND rows, so the window
        # statistics are held for one band at a time; at 128x128 the peak
        # above entry measured 6.3 image arrays with whole-image statistics
        # and one map at a time, and 3.6 with banded statistics and both
        # maps
        triplet = gen_triplet(SynthConfig(seed=32, count=1, height=128,
                                          width=128), 0)
        test = Image(np.clip(triplet.shadow.data * 1.1, 0.0, 1.0))
        references = [triplet.shadow_free, triplet.shadow]
        peak = traced_peak(
            lambda: bench.region_metrics(references, test, triplet.mask))
        assert peak <= 5.0 * test.data.nbytes, peak / test.data.nbytes


class TestPerturbationNorms:
    def test_zero_delta(self):
        img, _ = random_pair(16)
        norms = perturbation_norms(np.zeros(img.shape), img)
        assert (norms.l1_mean, norms.linf, norms.linf_normalized) == (0, 0, 0)

    def test_direct_computation(self):
        img = Image(np.array([[[0.5], [0.8]]]))
        delta = np.array([[[0.1], [-0.2]]])
        norms = perturbation_norms(delta, img)
        assert norms.l1_mean == pytest.approx(0.15)
        assert norms.linf == pytest.approx(0.2)
        assert norms.linf_normalized == pytest.approx(0.25)

    def test_normalized_map_values(self):
        img = Image(np.array([[[0.1]]]))
        delta = np.array([[[0.05]]])
        nmap = normalized_perturbation_map(delta, img)
        assert nmap[0, 0, 0] == pytest.approx(0.5)

    def test_map_not_clamped_above_one(self):
        img = Image(np.full((1, 1, 1), 0.01))
        delta = np.full((1, 1, 1), 0.05)
        nmap = normalized_perturbation_map(delta, img)
        assert nmap[0, 0, 0] == pytest.approx(5.0)

    def test_dark_pixel_floor(self):
        img = Image(np.zeros((1, 1, 1)))
        delta = np.full((1, 1, 1), 1 / 255)
        nmap = normalized_perturbation_map(delta, img)
        assert nmap[0, 0, 0] == pytest.approx(1.0)


class TestOnAttackOutputs:
    def test_adaptive_linf_normalized_bounded(self):
        triplet = gen_triplet(SynthConfig(seed=30, count=1, height=32,
                                          width=32), 0)
        eps = 16 / 255
        config = AttackConfig(mode="adaptive", epsilon=eps, iterations=10, seed=3)
        result = pgd_attack(GainMapModel(), triplet.shadow, config)
        norms = perturbation_norms(result.perturbation, triplet.shadow)
        assert norms.linf_normalized <= eps + 1e-9

    def test_uniform_normalized_map_peaks_in_shadow(self):
        # the qualitative point of the adaptive budget: a uniform attack's
        # normalized perturbation concentrates in the dark region
        triplet = gen_triplet(SynthConfig(seed=31, count=1, height=32,
                                          width=32), 0)
        config = AttackConfig(mode="uniform", epsilon=8 / 255, iterations=10,
                              seed=4)
        result = pgd_attack(GainMapModel(), triplet.shadow, config)
        nmap = normalized_perturbation_map(result.perturbation, triplet.shadow)
        sel = triplet.mask.data.astype(bool)
        assert nmap[sel].mean() > nmap[~sel].mean()
