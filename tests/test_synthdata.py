import os

import numpy as np
import pytest

from shadowstorm import autodiff as ad
from shadowstorm.synthdata import (MANIFEST_NAME, SynthConfig, SynthDataError,
                                   Triplet, TripletDirError, gen_dataset,
                                   gen_triplet, load_triplet_dir,
                                   render_triplet, triplet_paths)


def unit_tap_blur(arr, radius):
    """The generator's soft-mask blur of a 2-D array: blur2d with unit taps,
    divided by their count."""
    size = 2 * radius + 1
    taps = ad.blur2d(ad.Tensor(arr[:, :, np.newaxis]), np.ones((size, size)))
    return taps.data[:, :, 0] / (size * size)


class TestConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="attenuation"):
            SynthConfig(attenuation_range=(0.8, 0.4))
        with pytest.raises(ValueError, match="mask_area"):
            SynthConfig(mask_area_range=(0.0, 0.4))
        with pytest.raises(ValueError, match="32x32"):
            SynthConfig(height=16)
        with pytest.raises(ValueError, match="count"):
            SynthConfig(count=0)


class TestGenTriplet:
    def test_shapes_agree(self):
        t = gen_triplet(SynthConfig(seed=1, count=1), 0)
        assert t.shadow.shape == t.shadow_free.shape
        assert t.mask.data.shape == t.shadow.shape[:2]

    def test_attenuation_formula_hard_mask(self):
        # blur_radius = 0: soft mask equals the hard mask, so inside it
        # shadow = free * (1 - k) exactly and outside shadow = free exactly
        cfg = SynthConfig(seed=2, count=1, blur_radius=0)
        t = gen_triplet(cfg, 0)
        sel = t.mask.data.astype(bool)
        ratio = (t.shadow.data[sel] / t.shadow_free.data[sel]).ravel()
        k = 1.0 - ratio[0]
        assert cfg.attenuation_range[0] <= k <= cfg.attenuation_range[1]
        assert np.allclose(ratio, 1.0 - k, atol=1e-12)
        assert np.array_equal(t.shadow.data[~sel], t.shadow_free.data[~sel])

    def test_outside_soft_support_bit_exact(self):
        cfg = SynthConfig(seed=3, count=1, blur_radius=2)
        t = gen_triplet(cfg, 0)
        soft = unit_tap_blur(t.mask.data.astype(float), cfg.blur_radius)
        outside = soft == 0.0
        assert outside.any()
        assert np.array_equal(t.shadow.data[outside], t.shadow_free.data[outside])

    def test_shadow_never_brighter(self):
        t = gen_triplet(SynthConfig(seed=4, count=1), 0)
        assert np.all(t.shadow.data <= t.shadow_free.data + 1e-15)

    def test_base_range(self):
        t = gen_triplet(SynthConfig(seed=5, count=1), 0)
        assert t.shadow_free.data.min() >= 0.15 - 1e-12
        assert t.shadow_free.data.max() <= 0.95 + 1e-12

    def test_deterministic_per_index(self):
        cfg = SynthConfig(seed=6, count=3)
        a = gen_triplet(cfg, 1)
        b = gen_triplet(cfg, 1)
        assert np.array_equal(a.shadow.data, b.shadow.data)
        assert np.array_equal(a.mask.data, b.mask.data)
        c = gen_triplet(cfg, 2)
        assert not np.array_equal(a.shadow.data, c.shadow.data)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            gen_triplet(SynthConfig(seed=1, count=2), 2)

    def test_unsatisfiable_area_raises(self):
        cfg = SynthConfig(seed=7, count=1,
                          mask_area_range=(0.0001, 0.00011))
        with pytest.raises(SynthDataError, match="100 attempts"):
            gen_triplet(cfg, 0)


class TestAttenuationMonotonic:
    def test_larger_k_darker_shadow_region(self):
        cfg = SynthConfig(seed=8, count=1)
        from shadowstorm.synthdata import _draw_parts
        base, mask, _ = _draw_parts(cfg, 0)
        sel = mask.astype(bool)
        low = render_triplet(base, mask, 0.3, cfg.blur_radius)
        high = render_triplet(base, mask, 0.7, cfg.blur_radius)
        assert high.shadow.data[sel].mean() < low.shadow.data[sel].mean()


class TestGenDataset:
    def test_file_count_and_manifest(self, tmp_path):
        cfg = SynthConfig(seed=9, count=4)
        entries = gen_dataset(cfg, tmp_path)
        files = sorted(os.listdir(tmp_path))
        assert len([f for f in files if f.endswith((".ppm", ".pgm"))]) == 12
        assert MANIFEST_NAME in files
        assert len(entries) == 4
        lines = [l for l in open(tmp_path / MANIFEST_NAME)
                 if not l.startswith("#")]
        assert len(lines) == 4

    def test_manifest_k_within_range(self, tmp_path):
        cfg = SynthConfig(seed=10, count=6, attenuation_range=(0.45, 0.7))
        entries = gen_dataset(cfg, tmp_path)
        for e in entries:
            assert 0.45 <= e.k <= 0.7
            assert cfg.mask_area_range[0] <= e.area_fraction <= cfg.mask_area_range[1]

    def test_repeated_generation_byte_identical(self, tmp_path):
        cfg = SynthConfig(seed=11, count=2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_dataset(cfg, d1)
        gen_dataset(cfg, d2)
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_shadow_region_darker_every_triplet(self, tmp_path):
        cfg = SynthConfig(seed=12, count=8)
        gen_dataset(cfg, tmp_path)
        for _, t in load_triplet_dir(tmp_path):
            sel = t.mask.data.astype(bool)
            assert t.shadow.data[sel].mean() < t.shadow.data[~sel].mean()


class TestLoadTripletDir:
    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(seed=13, count=3)
        gen_dataset(cfg, tmp_path)
        loaded = load_triplet_dir(tmp_path)
        assert [i for i, _ in loaded] == [0, 1, 2]
        for index, triplet in loaded:
            fresh = gen_triplet(cfg, index)
            # files are 8-bit quantized; half-step tolerance
            assert np.abs(triplet.shadow.data
                          - fresh.shadow.data).max() <= 1 / 510 + 1e-12
            assert np.array_equal(triplet.mask.data, fresh.mask.data)

    def test_orphan_member_raises(self, tmp_path):
        cfg = SynthConfig(seed=14, count=1)
        gen_dataset(cfg, tmp_path)
        shadow_path, _, _ = triplet_paths(tmp_path, 0)
        os.remove(shadow_path)
        with pytest.raises(TripletDirError, match="missing shadow_0000"):
            load_triplet_dir(tmp_path)

    def test_empty_dir_returns_empty(self, tmp_path):
        assert load_triplet_dir(tmp_path) == []

    def test_shape_mismatch_names_index(self, tmp_path):
        from shadowstorm.imagecore import save_pnm
        from shadowstorm.imagecore import Image
        cfg = SynthConfig(seed=15, count=1)
        gen_dataset(cfg, tmp_path)
        free_path = triplet_paths(tmp_path, 0)[2]
        save_pnm(Image(np.zeros((8, 8, 3))), free_path)
        with pytest.raises(TripletDirError, match="0000.*shapes"):
            load_triplet_dir(tmp_path)


class TestBoxBlur:
    def test_zero_radius_identity(self):
        arr = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(unit_tap_blur(arr, 0), arr)

    def test_preserves_unit_range_and_interior(self):
        mask = np.zeros((11, 11))
        mask[2:9, 2:9] = 1.0
        soft = unit_tap_blur(mask, 2)
        assert soft.min() >= 0.0 and soft.max() <= 1.0
        assert soft[5, 5] == pytest.approx(1.0)  # deep interior untouched
        assert 0.0 < soft[2, 2] < 1.0            # boundary softened
