import math
import os

import numpy as np
import pytest

from shadowstorm import bench, models
from shadowstorm.imagecore import (Image, PnmError, Perturbation, ShadowMask,
                                   load_mask, load_pnm, mean_intensity,
                                   quantize, save_mask, save_pnm)
from shadowstorm.rng import Xoshiro256StarStar


def write_pnm_bytes(path, magic, width, height, payload, maxval=255):
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n%d\n" % (width, height, maxval))
        fh.write(bytes(payload))


class TestLoadPnm:
    def test_p5_endpoints(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pnm_bytes(path, b"P5", 2, 1, [0, 255])
        img = load_pnm(path)
        assert (img.height, img.width, img.channels) == (1, 2, 1)
        assert np.array_equal(img.data.ravel(), [0.0, 1.0])

    def test_p6_direct_scaling(self, tmp_path):
        path = tmp_path / "b.ppm"
        write_pnm_bytes(path, b"P6", 1, 1, [128, 128, 128])
        img = load_pnm(path)
        assert img.channels == 3
        assert np.allclose(img.data.ravel(), 128 / 255.0)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "c.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        with pytest.raises(PnmError, match="unsupported maxval"):
            load_pnm(path)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "d.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P7\n1 1\n255\n\x00")
        with pytest.raises(PnmError, match="byte offset 0"):
            load_pnm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "e.pgm"
        write_pnm_bytes(path, b"P5", 4, 4, [0] * 7)
        with pytest.raises(PnmError, match="truncated payload"):
            load_pnm(path)

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "f.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n# converted from elsewhere\n2 1\n255\n\x07\x09")
        img = load_pnm(path)
        assert np.allclose(img.data.ravel(), [7 / 255.0, 9 / 255.0])


class TestSavePnm:
    def test_ties_round_away_from_zero(self, tmp_path):
        # 0.5 * 255 = 127.5 -> 128
        img = Image(np.full((1, 1, 1), 0.5))
        path = tmp_path / "half.pgm"
        save_pnm(img, path)
        assert open(path, "rb").read().endswith(b"\x80")

    def test_endpoints(self, tmp_path):
        img = Image(np.array([[[0.0], [1.0]]]))
        path = tmp_path / "ends.pgm"
        save_pnm(img, path)
        assert open(path, "rb").read().endswith(b"\x00\xff")

    def test_round_trip_quantization_bound(self, tmp_path):
        rng = Xoshiro256StarStar(3)
        img = Image(rng.fill((9, 7, 3)))
        path = tmp_path / "rt.ppm"
        save_pnm(img, path)
        back = load_pnm(path)
        assert np.abs(back.data - img.data).max() <= 1.0 / 510.0 + 1e-15

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = Xoshiro256StarStar(4)
        img = Image(rng.fill((5, 6, 3)))
        p1, p2 = tmp_path / "one.ppm", tmp_path / "two.ppm"
        save_pnm(img, p1)
        save_pnm(load_pnm(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestWriteAtomic:
    @pytest.mark.parametrize("write", [
        lambda path: save_pnm(Image(np.zeros((2, 2, 1))), path),
        lambda path: bench.write_csv(path, []),
        lambda path: models.save_params({"w": np.ones(2)}, path),
    ], ids=["save_pnm", "write_csv", "save_params"])
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch,
                                                write):
        path = tmp_path / "out"
        path.write_bytes(b"previous contents")

        def refuse(_src, _dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write(path)
        assert path.read_bytes() == b"previous contents"
        assert os.listdir(tmp_path) == ["out"]  # no temporary file left


class TestLoadMask:
    def test_threshold_endpoints(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pnm_bytes(path, b"P5", 2, 1, [0, 255])
        mask = load_mask(path)
        assert np.array_equal(mask.data.ravel(), [0, 1])

    def test_threshold_boundary(self, tmp_path):
        # 127/255 < 0.5 < 128/255
        path = tmp_path / "m.pgm"
        write_pnm_bytes(path, b"P5", 2, 1, [127, 128])
        mask = load_mask(path)
        assert np.array_equal(mask.data.ravel(), [0, 1])

    def test_three_channel_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        write_pnm_bytes(path, b"P6", 1, 1, [255, 255, 255])
        with pytest.raises(PnmError, match="single-channel"):
            load_mask(path)

    def test_output_strictly_binary(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pnm_bytes(path, b"P5", 4, 2, [0, 60, 120, 130, 180, 255, 1, 254])
        mask = load_mask(path)
        assert set(np.unique(mask.data)) <= {0, 1}

    def test_mask_round_trip(self, tmp_path):
        mask = ShadowMask(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        path = tmp_path / "m.pgm"
        save_mask(mask, path)
        assert np.array_equal(load_mask(path).data, mask.data)


class TestMeanIntensity:
    def test_checkerboard(self):
        data = np.indices((2, 2)).sum(axis=0) % 2
        assert mean_intensity(Image(data.astype(float)[:, :, None])) == 0.5

    def test_constant(self):
        assert mean_intensity(Image(np.full((3, 3, 3), 0.3))) == pytest.approx(0.3)

    def test_permutation_invariant(self):
        rng = Xoshiro256StarStar(8)
        flat = rng.fill(60)
        a = Image(flat.reshape(4, 5, 3))
        perm = np.argsort(rng.fill(60))
        b = Image(flat[perm].reshape(4, 5, 3))
        assert mean_intensity(a) == pytest.approx(mean_intensity(b), abs=1e-15)

    def test_matches_fsum_oracle(self):
        rng = Xoshiro256StarStar(13)
        img = Image(rng.fill((6, 6, 3)))
        oracle = math.fsum(img.data.ravel()) / img.data.size
        assert mean_intensity(img) == pytest.approx(oracle, abs=1e-13)

    def test_between_region_means_on_shadow_image(self):
        # dark shadow region pulls the global mean strictly between the
        # two region means
        from shadowstorm.synthdata import SynthConfig, gen_triplet
        triplet = gen_triplet(SynthConfig(seed=3, count=1, height=32,
                                          width=32), 0)
        sel = triplet.mask.data.astype(bool)
        shadow_mean = triplet.shadow.data[sel].mean()
        nonshadow_mean = triplet.shadow.data[~sel].mean()
        overall = mean_intensity(triplet.shadow)
        assert shadow_mean < overall < nonshadow_mean


class TestContainers:
    def test_image_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Image(np.full((2, 2, 1), 1.5))

    def test_image_rejects_bad_channels(self):
        with pytest.raises(ValueError, match="channels"):
            Image(np.zeros((2, 2, 2)))

    def test_image_is_read_only(self):
        img = Image(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 0.5

    def test_mask_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            ShadowMask(np.array([[0, 2]]))

    def test_perturbation_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Perturbation(np.full((1, 1, 1), np.nan))

    def test_quantize_rule(self):
        assert quantize(np.array([0.0, 0.5, 1.0])).tolist() == [0, 128, 255]
