import os
import platform
import struct
import subprocess
import sys

import numpy as np
import pytest

from shadowstorm import cli
from shadowstorm.cli import main, parse_budget, parse_size
from shadowstorm.imagecore import Image, ShadowMask, load_pnm, save_mask, save_pnm
from shadowstorm.models import (PARAMS_MAGIC, load_params, model_tinycnn,
                                save_params)
from shadowstorm.synthdata import SynthConfig, gen_dataset


def forbid_model_load(monkeypatch):
    def load_model(_identifier):
        pytest.fail("the model was loaded before the inputs were validated")
    monkeypatch.setattr(cli, "load_model", load_model)


def forbid_attack(monkeypatch):
    from shadowstorm import bench

    def pgd_attack(*_args, **_kwargs):
        pytest.fail("an attack ran before the inputs were validated")
    forbid_model_load(monkeypatch)
    monkeypatch.setattr(cli, "pgd_attack", pgd_attack)
    monkeypatch.setattr(bench, "pgd_attack", pgd_attack)


def param_arrays(model):
    """Copies of the model's parameter arrays, by name."""
    return {name: p.data.copy() for name, p in model.params.items()}


def degenerate_mask(kind, size=32):
    """A mask that leaves one region without pixels or window centers."""
    data = np.ones((size, size), dtype=np.uint8)
    if kind == "no-shadow":
        data[:] = 0
    elif kind == "border-only":
        data[5:-5, 5:-5] = 0  # shadow at no valid SSIM window center
    return ShadowMask(data)


DEGENERATE_MASKS = ("no-shadow", "all-shadow", "border-only")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    gen_dataset(SynthConfig(seed=3, count=3, height=32, width=32), path)
    return path


@pytest.fixture(scope="module")
def overflowing_params(tmp_path_factory):
    """tinycnn parameters scaled so far that its output is NaN."""
    path = tmp_path_factory.mktemp("params") / "huge.sspm"
    save_params({name: arr * 1e306 for name, arr
                 in param_arrays(model_tinycnn(seed=0)).items()}, path)
    return path


class TestParsers:
    def test_budget_fraction_and_decimal(self):
        assert parse_budget("16/255") == pytest.approx(16 / 255)
        assert parse_budget("0.05") == 0.05

    def test_budget_rejects_out_of_range(self):
        for bad in ("0", "1", "-0.1", "2/2", "abc"):
            with pytest.raises(ValueError):
                parse_budget(bad)

    def test_size(self):
        assert parse_size("64x48") == (64, 48)
        assert parse_size("32X32") == (32, 32)
        for bad in ("64", "0x0", "0x32", "32x-1"):
            with pytest.raises(ValueError):
                parse_size(bad)

    def test_non_positive_size_names_the_flag(self, capsys):
        rc = main(["gradcheck", "--model", "identity", "--size", "0x0",
                   "--inputs", "1"])
        assert rc == 2
        assert "--size" in capsys.readouterr().err

    @pytest.mark.parametrize("command,retired", [
        ("attack", ["--floor", "2/255"]), ("bench", ["--floor", "2/255"]),
        ("bench", ["--timing"])], ids=["attack-floor", "bench-floor",
                                        "bench-timing"])
    def test_retired_flag_usage_error(self, dataset_dir, tmp_path, capsys,
                                      command, retired):
        # a script that still passes one must fail, not run another setup
        argv = {"attack": ["attack", "--mode", "adaptive", "--eps", "2/255",
                           "--image", str(dataset_dir / "shadow_0000.ppm"),
                           "--out-prefix", str(tmp_path / "x")],
                "bench": ["bench", "--dataset", str(dataset_dir),
                          "--out", str(tmp_path / "r.csv")]}[command]
        assert main(argv + retired) == 2
        assert retired[0] in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestGen:
    def test_writes_files_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["gen", "--seed", "5", "--count", "2", "--size", "32x32"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert len([n for n in names if n.endswith((".ppm", ".pgm"))]) == 6
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_out_is_usage_error(self):
        assert main(["gen", "--seed", "1"]) == 2


class TestAttack:
    def test_writes_artifacts_and_constraint_holds(self, dataset_dir, tmp_path):
        prefix = str(tmp_path / "run")
        rc = main(["attack", "--mode", "adaptive", "--eps", "16/255",
                   "--iters", "4", "--model", "gainmap",
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--mask", str(dataset_dir / "mask_0000.pgm"),
                   "--free", str(dataset_dir / "free_0000.ppm"),
                   "--out-prefix", prefix])
        assert rc == 0
        for suffix in ("_attacked.ppm", "_delta_viz.ppm", "_normmap.ppm"):
            assert os.path.exists(prefix + suffix)
        rows = [l for l in open(prefix + ".csv") if not l.startswith("#")]
        header, data = rows[0].rstrip("\n"), rows[1].rstrip("\n")
        cols = dict(zip(header.split(","), data.split(",")))
        assert float(cols["linf_normalized"]) <= 16 / 255 + 1e-9
        assert cols["mode"] == "adaptive"
        # stretch factor of the delta visualization is recorded
        assert any(l.startswith("# delta_viz_stretch")
                   for l in open(prefix + ".csv"))

    def test_zero_eps_rejected_usage(self, dataset_dir, tmp_path, capsys):
        rc = main(["attack", "--mode", "uniform", "--eps", "0",
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 2

    def test_deterministic_csv(self, dataset_dir, tmp_path):
        argv = ["attack", "--mode", "uniform", "--eps", "4/255", "--iters",
                "3", "--model", "gainmap", "--seed", "9",
                "--image", str(dataset_dir / "shadow_0001.ppm"),
                "--mask", str(dataset_dir / "mask_0001.pgm")]
        p1, p2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(argv + ["--out-prefix", p1]) == 0
        assert main(argv + ["--out-prefix", p2]) == 0
        assert open(p1 + ".csv").read().replace("r1", "") \
            == open(p2 + ".csv").read().replace("r2", "")

    @pytest.mark.parametrize("image_size,mask_size",
                             [((8, 8), None), ((32, 32), (24, 24))],
                             ids=["below-ssim-window", "mask-size-mismatch"])
    def test_bad_input_usage_error_before_any_write(
            self, tmp_path, monkeypatch, image_size, mask_size):
        # an image below the 11x11 SSIM window, or a mask of another size
        image = tmp_path / "img.ppm"
        save_pnm(Image(np.full((*image_size, 3), 0.5)), image)
        argv = ["attack", "--mode", "uniform", "--eps", "4/255",
                "--image", str(image)]
        if mask_size is not None:
            save_mask(ShadowMask(np.eye(*mask_size, dtype=np.uint8)),
                      tmp_path / "mask.pgm")
            argv += ["--mask", str(tmp_path / "mask.pgm")]
        out = tmp_path / "out"
        out.mkdir()
        forbid_model_load(monkeypatch)
        assert main(argv + ["--out-prefix", str(out / "x")]) == 2
        assert os.listdir(out) == []

    @pytest.mark.parametrize("kind", DEGENERATE_MASKS)
    def test_degenerate_mask_usage_error_before_any_work(
            self, dataset_dir, tmp_path, monkeypatch, capsys, kind):
        save_mask(degenerate_mask(kind), tmp_path / "mask.pgm")
        out = tmp_path / "out"
        out.mkdir()
        forbid_attack(monkeypatch)
        rc = main(["attack", "--mode", "uniform", "--eps", "4/255",
                   "--iters", "1",
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--mask", str(tmp_path / "mask.pgm"),
                   "--out-prefix", str(out / "x")])
        assert rc == 2
        assert "mask.pgm" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_model_output_numeric_error_before_any_write(
            self, dataset_dir, overflowing_params, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["attack", "--mode", "uniform", "--eps", "4/255",
                   "--iters", "2", "--model", str(overflowing_params),
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--out-prefix", str(out / "x")])
        assert rc == 4
        assert "output is not finite" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_step_div_usage_error_before_any_work(
            self, dataset_dir, tmp_path, monkeypatch, capsys, value):
        out = tmp_path / "out"
        out.mkdir()
        forbid_attack(monkeypatch)
        rc = main(["attack", "--mode", "uniform", "--eps", "4/255",
                   "--step-div", value,
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--out-prefix", str(out / "x")])
        assert rc == 2
        assert "step_divisor" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_missing_image_is_io_error(self, tmp_path):
        rc = main(["attack", "--mode", "uniform", "--eps", "0.1",
                   "--image", str(tmp_path / "nope.ppm"),
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 3

    def test_grayscale_input_writes_pgm_artifacts(self, tmp_path):
        import numpy as np
        from shadowstorm.imagecore import Image, save_pnm
        from shadowstorm.rng import Xoshiro256StarStar
        gray = tmp_path / "gray.pgm"
        save_pnm(Image(Xoshiro256StarStar(1).fill((24, 24, 1))), gray)
        prefix = str(tmp_path / "g")
        rc = main(["attack", "--mode", "adaptive", "--eps", "8/255",
                   "--iters", "3", "--model", "gainmap",
                   "--image", str(gray), "--out-prefix", prefix])
        assert rc == 0
        assert os.path.exists(prefix + "_attacked.pgm")
        assert os.path.exists(prefix + "_delta_viz.pgm")


class TestBench:
    def test_row_cardinality_and_summary(self, dataset_dir, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--dataset", str(dataset_dir), "--model",
                   "gainmap", "--budgets", "2/255,8/255", "--modes",
                   "uniform,adaptive", "--iters", "3", "--out", str(out)])
        assert rc == 0
        lines = open(out).read().splitlines()
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(rows) == 3 * 2 * 2
        summaries = [l for l in lines if l.startswith("# summary mode=")]
        assert len(summaries) == 4
        assert lines[0] == "# shadowstorm-csv v1"
        # rows sorted by (image_id, mode, epsilon)
        keys = [(r.split(",")[0], r.split(",")[1], float(r.split(",")[2]))
                for r in rows]
        assert keys == sorted(keys)

    def test_byte_identical_reruns(self, dataset_dir, tmp_path):
        argv = ["bench", "--dataset", str(dataset_dir), "--model", "gainmap",
                "--budgets", "4/255", "--modes", "adaptive", "--iters", "2"]
        c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(argv + ["--out", str(c1)]) == 0
        assert main(argv + ["--out", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()
        assert (tmp_path / "c1.plot").read_bytes() \
            == (tmp_path / "c2.plot").read_bytes()

    def test_jobs_do_not_change_bytes(self, dataset_dir, tmp_path):
        base = ["bench", "--dataset", str(dataset_dir), "--model", "gainmap",
                "--budgets", "2/255,4/255", "--modes", "uniform,adaptive",
                "--iters", "2"]
        outputs = []
        for jobs in ("1", "2", "4"):
            csv = tmp_path / f"s{jobs}.csv"
            assert main(base + ["--jobs", jobs, "--out", str(csv)]) == 0
            outputs.append((csv.read_bytes(),
                            (tmp_path / f"s{jobs}.plot").read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_clean_anchor_once_per_image(self, dataset_dir):
        # per image one clean forward; per cell one forward of the attacked
        # image, which the attack hands back as its attacked output
        from shadowstorm import bench
        from shadowstorm.models import model_identity
        from shadowstorm.synthdata import load_triplet_dir

        class CountingModel:
            name = "counting"
            inner = model_identity()
            forwards = 0

            def forward(self, image):
                CountingModel.forwards += 1
                return self.inner.forward(image)

            def vjp(self, image):
                return self.inner.vjp(image)

        triplets = load_triplet_dir(dataset_dir)[:2]
        rows, failures = bench.run_sweep(
            CountingModel(), triplets, [2 / 255, 4 / 255],
            ["uniform", "adaptive"], iterations=2)
        assert len(rows) == 8 and not failures
        assert CountingModel.forwards == 2 + 8

    def test_failed_clean_forward_fails_each_cell_of_its_image(
            self, dataset_dir, tmp_path):
        from shadowstorm import bench
        from shadowstorm.models import model_identity
        from shadowstorm.synthdata import load_triplet_dir

        triplets = load_triplet_dir(dataset_dir)
        broken = triplets[1][1].shadow

        class BrokenAnchorModel:
            name = "broken-anchor"
            inner = model_identity()

            def forward(self, image):
                if image is broken:
                    raise RuntimeError("synthetic breakage")
                return self.inner.forward(image)

            def vjp(self, image):
                return self.inner.vjp(image)

        rows, failures = bench.run_sweep(
            BrokenAnchorModel(), triplets, [2 / 255, 4 / 255],
            ["uniform", "adaptive"], iterations=2, jobs=2)
        assert len(rows) == 8
        assert [(f.image_id, f.mode, f.epsilon_nominal) for f in failures] \
            == [("0001", mode, eps) for mode in ("adaptive", "uniform")
                for eps in (2 / 255, 4 / 255)]
        assert all(f.error == "RuntimeError: synthetic breakage"
                   for f in failures)
        out = tmp_path / "broken.csv"
        bench.write_csv(out, rows, failures)
        assert sum(l.startswith("# failed 0001") for l in open(out)) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_model_output_fails_each_cell_as_numeric(
            self, dataset_dir, overflowing_params, tmp_path):
        out = tmp_path / "huge.csv"
        rc = main(["bench", "--dataset", str(dataset_dir), "--model",
                   str(overflowing_params), "--budgets", "4/255",
                   "--iters", "2", "--out", str(out)])
        assert rc == 4  # no row at all, and every failure is numeric
        failed = [l for l in open(out) if l.startswith("# failed")]
        assert len(failed) == 3 * 2
        assert all(l.rstrip("\n").endswith(
            "FloatingPointError: tinycnn(seed=0) output is not finite")
            for l in failed)
        assert (tmp_path / "huge.plot").exists()

    @pytest.mark.parametrize("broken, error", [
        ({"0001"}, FloatingPointError),
        ({"0000", "0001", "0002"}, RuntimeError),
    ], ids=["some-numeric", "all-non-numeric"])
    def test_partly_or_non_numerically_failed_sweep_exits_1(
            self, dataset_dir, tmp_path, monkeypatch, broken, error):
        """Exit 4 needs no row and only numeric failures (the test above);
        rows next to a numeric failure, or any non-numeric one, exit 1."""
        import numpy as np
        from shadowstorm import cli
        from shadowstorm.models import model_identity
        from shadowstorm.synthdata import load_triplet_dir

        triplets = load_triplet_dir(dataset_dir)
        broken_images = [t.shadow for index, t in triplets
                         if f"{index:04d}" in broken]

        class BrokenModel:
            name = "broken"
            inner = model_identity()

            def forward(self, image):  # the clean anchor of each image
                if any(np.array_equal(image.data, b.data)
                       for b in broken_images):
                    raise error("synthetic breakage")
                return self.inner.forward(image)

            def vjp(self, image):
                return self.inner.vjp(image)

        monkeypatch.setattr(cli, "load_model", lambda _name: BrokenModel())
        out = tmp_path / "b.csv"
        assert main(["bench", "--dataset", str(dataset_dir), "--budgets",
                     "4/255", "--modes", "uniform", "--iters", "2",
                     "--out", str(out)]) == 1
        failed = [l for l in open(out) if l.startswith("# failed")]
        assert len(failed) == len(broken)
        assert all(l.rstrip("\n").endswith(
            f"{error.__name__}: synthetic breakage") for l in failed)
        assert (tmp_path / "b.plot").exists()

    def test_equalize_effective_epsilon(self, dataset_dir, tmp_path):
        # the row value matches the independent mean recomputation to 1e-12;
        # the CSV text stores 9 significant digits of it
        from shadowstorm import bench
        from shadowstorm.attack import equivalent_uniform_budget
        from shadowstorm.models import model_identity
        from shadowstorm.synthdata import load_triplet_dir
        triplets = load_triplet_dir(dataset_dir)
        rows, failures = bench.run_sweep(model_identity(), triplets,
                                         [8 / 255], ["uniform"],
                                         equalize=True, iterations=2)
        assert not failures
        by_id = dict(triplets)
        for row in rows:
            oracle = equivalent_uniform_budget(
                by_id[int(row.image_id)].shadow, 8 / 255)
            assert abs(row.epsilon_effective - oracle) < 1e-12
        out = tmp_path / "eq.csv"
        bench.write_csv(out, rows)
        printed = [l.split(",")[3] for l in open(out)
                   if l and not l.startswith(("#", "image_id"))]
        for text, row in zip(printed, rows):
            assert text == format(row.epsilon_effective, ".9g")

    def test_unsorted_budgets_rejected(self, dataset_dir, tmp_path):
        rc = main(["bench", "--dataset", str(dataset_dir), "--budgets",
                   "8/255,2/255", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("flag,value", [("--iters", "0"),
                                            ("--jobs", "0"),
                                            ("--jobs", "-2")])
    def test_count_below_one_usage_error_before_any_write(
            self, dataset_dir, tmp_path, flag, value):
        rc = main(["bench", "--dataset", str(dataset_dir), flag, value,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_step_div_usage_error_before_any_write(
            self, dataset_dir, tmp_path, monkeypatch, capsys, value):
        forbid_model_load(monkeypatch)
        rc = main(["bench", "--dataset", str(dataset_dir), "--step-div", value,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--step-div" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,value", [("--budgets", "1/255,1/255"),
                                            ("--budgets", "1/255,2/255,2/255"),
                                            ("--budgets", "0.1,0.1000000001"),
                                            ("--modes", "uniform,uniform")])
    def test_duplicate_budget_or_mode_usage_error_before_model_load(
            self, dataset_dir, tmp_path, monkeypatch, flag, value):
        forbid_model_load(monkeypatch)
        rc = main(["bench", "--dataset", str(dataset_dir), flag, value,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert os.listdir(tmp_path) == []

    def test_image_below_ssim_window_usage_error_before_any_write(
            self, tmp_path, monkeypatch):
        small = tmp_path / "small"
        small.mkdir()
        image = Image(np.full((8, 8, 3), 0.5))
        save_pnm(image, small / "shadow_0000.ppm")
        save_pnm(image, small / "free_0000.ppm")
        save_mask(ShadowMask(np.eye(8, dtype=np.uint8)),
                  small / "mask_0000.pgm")
        out = tmp_path / "out"
        out.mkdir()
        forbid_model_load(monkeypatch)
        rc = main(["bench", "--dataset", str(small),
                   "--out", str(out / "x.csv")])
        assert rc == 2
        assert os.listdir(out) == []

    @pytest.mark.parametrize("kind", DEGENERATE_MASKS)
    def test_degenerate_mask_usage_error_before_any_work(
            self, dataset_dir, tmp_path, monkeypatch, capsys, kind):
        data = tmp_path / "data"
        data.mkdir()
        for index in (0, 1):
            for name in (f"shadow_{index:04d}.ppm", f"free_{index:04d}.ppm",
                         f"mask_{index:04d}.pgm"):
                (data / name).write_bytes((dataset_dir / name).read_bytes())
        save_mask(degenerate_mask(kind), data / "mask_0001.pgm")
        out = tmp_path / "out"
        out.mkdir()
        forbid_attack(monkeypatch)
        rc = main(["bench", "--dataset", str(data),
                   "--out", str(out / "x.csv")])
        assert rc == 2
        assert "triplet 0001" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_threaded_sweep_leaves_parameters_untouched(self, dataset_dir):
        from shadowstorm import bench
        from shadowstorm.synthdata import load_triplet_dir

        model = model_tinycnn(seed=0)
        before = param_arrays(model)
        rows, failures = bench.run_sweep(
            model, load_triplet_dir(dataset_dir), [2 / 255, 4 / 255],
            ["uniform", "adaptive"], iterations=2, jobs=2)
        assert len(rows) == 12 and not failures
        for name, p in model.params.items():
            assert p.data.tobytes() == before[name].tobytes()
            assert p.grad is None

    def test_sweep_continues_past_failures(self, dataset_dir, tmp_path):
        # a model that blows up on one image must not sink the other cells
        from shadowstorm import bench
        from shadowstorm.models import model_identity
        from shadowstorm.synthdata import load_triplet_dir

        class FlakyModel:
            name = "flaky"
            inner = model_identity()

            def forward(self, image):
                return self.inner.forward(image)

            def vjp(self, image):
                if image.width != image.height:
                    raise RuntimeError("synthetic breakage")
                return self.inner.vjp(image)

        triplets = load_triplet_dir(dataset_dir)
        # make the first triplet non-square so only it fails
        import numpy as np
        from shadowstorm.imagecore import Image, ShadowMask
        from shadowstorm.synthdata import Triplet
        t0 = triplets[0][1]
        squashed = Triplet(
            shadow=Image(t0.shadow.data[:16]),
            mask=ShadowMask(t0.mask.data[:16]),
            shadow_free=Image(t0.shadow_free.data[:16]))
        triplets = [(triplets[0][0], squashed)] + triplets[1:]
        rows, failures = bench.run_sweep(FlakyModel(), triplets, [4 / 255],
                                         ["uniform"], iterations=2)
        assert len(rows) == len(triplets) - 1
        assert len(failures) == 1
        assert failures[0].image_id == "0000"
        assert "synthetic breakage" in failures[0].error
        out = tmp_path / "flaky.csv"
        bench.write_csv(out, rows, failures)
        assert any(l.startswith("# failed 0000") for l in open(out))


class TestGradcheckCommand:
    def test_stock_zoo_passes(self, capsys):
        rc = main(["gradcheck", "--model", "all", "--inputs", "2",
                   "--size", "12x12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity" in out and "gainmap" in out and "tinycnn" in out

    def test_identity_error_negligible(self, capsys):
        rc = main(["gradcheck", "--model", "identity", "--inputs", "1",
                   "--size", "8x8"])
        assert rc == 0
        reported = float(capsys.readouterr().out.split()[4])
        assert reported < 1e-9

    @pytest.mark.parametrize("flag,value", [
        ("--inputs", "0"), ("--inputs", "-1"),
        ("--h", "0"), ("--h", "-0.5"), ("--h", "nan"), ("--h", "inf"),
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")])
    def test_nothing_checkable_usage_error_before_model_load(
            self, monkeypatch, capsys, flag, value):
        forbid_model_load(monkeypatch)
        assert main(["gradcheck", "--model", "identity", flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_too_few_valid_probes_is_validation_failure(self, capsys):
        # a tolerance far below float noise seats every coordinate on a
        # "kink", so every draw is redrawn and no probe is kept
        rc = main(["gradcheck", "--model", "identity", "--inputs", "1",
                   "--size", "4x4", "--tol", "1e-300"])
        assert rc == 5
        assert "identity kept 0 of 1" in capsys.readouterr().err

    def test_corrupted_params_io_error(self, tmp_path):
        bad = tmp_path / "bad.sspm"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["gradcheck", "--model", str(bad), "--inputs", "1"])
        assert rc == 3

    @pytest.mark.parametrize("name,shape", [
        (b"\xff", (1,)),
        # 2**94 elements: a count in int64 would wrap to 0
        (b"k1", (2**31, 2**31, 2**31, 2))], ids=["bad-utf8-name",
                                                 "shape-overflows-int64"])
    def test_malformed_tensor_io_error(self, tmp_path, name, shape):
        bad = tmp_path / "bad.sspm"
        bad.write_bytes(PARAMS_MAGIC + struct.pack("<II", 1, 1)
                        + struct.pack("<I", len(name)) + name
                        + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)
                        + struct.pack("<d", 0.5))
        rc = main(["gradcheck", "--model", str(bad), "--inputs", "1"])
        assert rc == 3


class TestTrain:
    def test_epochs_zero_params_equal_seeded_init(self, dataset_dir, tmp_path):
        out = tmp_path / "p.sspm"
        rc = main(["train", "--dataset", str(dataset_dir), "--epochs", "0",
                   "--lr", "0.05", "--seed", "4", "--out", str(out)])
        assert rc == 0
        loaded = load_params(out)
        init = param_arrays(model_tinycnn(seed=4))
        for name in init:
            assert np.array_equal(loaded[name], init[name])

    def test_deterministic_bytes_and_loss_log(self, dataset_dir, tmp_path):
        argv = ["train", "--dataset", str(dataset_dir), "--epochs", "3",
                "--lr", "0.05", "--seed", "1"]
        p1, p2 = tmp_path / "p1.sspm", tmp_path / "p2.sspm"
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        log = open(str(p1) + ".losslog.csv").read().splitlines()
        assert log[0] == "epoch,loss"
        assert len(log) == 4
        losses = [float(l.split(",")[1]) for l in log[1:]]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("flag,value", [("--epochs", "-2"),
                                            ("--lr", "0"), ("--lr", "-1"),
                                            ("--lr", "nan"), ("--lr", "inf")])
    def test_bad_flag_usage_error_before_dataset_load(
            self, dataset_dir, tmp_path, monkeypatch, capsys, flag, value):
        def load_triplet_dir(_path):
            pytest.fail("the dataset was loaded before the flags were checked")
        monkeypatch.setattr(cli, "load_triplet_dir", load_triplet_dir)
        rc = main(["train", "--dataset", str(dataset_dir), flag, value,
                   "--out", str(tmp_path / "p.sspm")])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_empty_dataset_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["train", "--dataset", str(empty), "--epochs", "1",
                   "--out", str(tmp_path / "p.sspm")])
        assert rc == 2

    def test_bench_empty_dataset_usage_error(self, tmp_path, monkeypatch,
                                             capsys):
        forbid_model_load(monkeypatch)
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["bench", "--dataset", str(empty),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "no triplets" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["empty"]


class TestModelLoading:
    def test_params_file_round_trip_through_cli(self, dataset_dir, tmp_path):
        params_path = tmp_path / "m.sspm"
        save_params(param_arrays(model_tinycnn(seed=6)), params_path)
        prefix = str(tmp_path / "via_params")
        rc = main(["attack", "--mode", "uniform", "--eps", "2/255",
                   "--iters", "2", "--model", str(params_path),
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--out-prefix", prefix])
        assert rc == 0
        assert load_pnm(prefix + "_attacked.ppm").shape == (32, 32, 3)

    @pytest.mark.parametrize("kind", ["extra-tensor", "duplicate-name",
                                      "trailing-bytes", "nan-value"])
    def test_params_file_save_params_never_writes_io_error(
            self, dataset_dir, tmp_path, kind):
        params = param_arrays(model_tinycnn(seed=6))
        if kind == "extra-tensor":
            params["k4"] = np.zeros(1)
        save_params(params, tmp_path / "m.sspm")
        blob = (tmp_path / "m.sspm").read_bytes()
        if kind == "duplicate-name":  # every record twice, count doubled
            blob = blob[:8] + struct.pack("<I", 2 * len(params)) + blob[12:] * 2
        elif kind == "trailing-bytes":
            blob += b"\x00" * 8
        elif kind == "nan-value":  # the last payload value
            blob = blob[:-8] + struct.pack("<d", np.nan)
        (tmp_path / "m.sspm").write_bytes(blob)
        rc = main(["attack", "--mode", "uniform", "--eps", "2/255",
                   "--iters", "2", "--model", str(tmp_path / "m.sspm"),
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 3
        assert os.listdir(tmp_path) == ["m.sspm"]

    @pytest.mark.parametrize("argv", [
        ["bench", "--budgets", "4/255", "--modes", "uniform", "--iters", "2"],
        ["gradcheck", "--inputs", "1"]], ids=["bench", "gradcheck"])
    def test_params_file_non_finite_value_io_error(
            self, dataset_dir, tmp_path, argv):
        path = tmp_path / "m.sspm"
        save_params(param_arrays(model_tinycnn(seed=6)), path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", np.nan))
        if argv[0] == "bench":
            argv = argv + ["--dataset", str(dataset_dir),
                           "--out", str(tmp_path / "r.csv")]
        assert main(argv + ["--model", str(path)]) == 3
        assert os.listdir(tmp_path) == ["m.sspm"]

    def test_unknown_model_usage_error(self, dataset_dir, tmp_path):
        rc = main(["attack", "--mode", "uniform", "--eps", "2/255",
                   "--model", "resnet50",
                   "--image", str(dataset_dir / "shadow_0000.ppm"),
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 2


MEMORY_PROBE = """
import resource, sys
import numpy as np
from shadowstorm import cli
assert cli.main(["gen", "--count", "1", "--size", "32x32",
                 "--out", sys.argv[1]]) == 0
np.ones(1 << 18)  # the heap grows once to hold a 2 MB array
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    np.ones(1 << 18)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestMemoryPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator policy is glibc's")
    def test_freed_arrays_stay_in_the_heap(self, tmp_path):
        """After one CLI command, a freed 2 MB array is reused, not
        unmapped and faulted in afresh on the next allocation."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE,
                               str(tmp_path / "ds")],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.splitlines()[-1]) < 100

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_no_call_without_glibc(self, monkeypatch, error):
        def confstr(_name):
            raise error("no such configuration name")

        def cdll(_name):
            pytest.fail("the C library was opened off glibc")
        monkeypatch.setattr(cli.os, "confstr", confstr)
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._retain_freed_memory()
