"""Acceptance suite: one test per criterion, one PASS line per criterion.

Fixture constants (dataset seeds, model settings, thresholds derived from
measured runs) are frozen here; regenerating them with the recorded seeds
reproduces the measurements bit for bit.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from shadowstorm import autodiff, bench, metrics, models, synthdata
from shadowstorm.attack import (AttackConfig, budget_box,
                                equivalent_uniform_budget, init_delta,
                                pgd_attack, verify_l1_bound)
from shadowstorm.cli import main
from shadowstorm.imagecore import Image
from shadowstorm.rng import Xoshiro256StarStar, derive_seed

BUDGET_SWEEP = tuple(n / 255.0 for n in (1, 2, 4, 8, 16))

# benchmark fixture: gentle, well-restorable shadows so that attack
# distortion (not residual restoration error) dominates the PSNR drop
GENTLE = dict(attenuation_range=(0.06, 0.12), mask_area_range=(0.08, 0.2),
              blur_radius=4)
TRAIN_SEED, TRAIN_COUNT, TRAIN_EPOCHS, TRAIN_LR = 7, 12, 250, 0.2
BENCH_SEED, BENCH_COUNT = 11, 16
SWEEP_SEED = 5
GAINMAP_FIXTURE = dict(blur_radius=4, max_gain=1.13)

# normalized-perturbation fixture: dark, hard shadows where the uniform
# attack's visibility imbalance is pronounced
DARK = dict(attenuation_range=(0.55, 0.8), mask_area_range=(0.1, 0.3),
            blur_radius=2)
DARK_SEED, DARK_COUNT = 21, 8


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def trained_cnn():
    cfg = synthdata.SynthConfig(seed=TRAIN_SEED, count=TRAIN_COUNT,
                                height=64, width=64, **GENTLE)
    dataset = [(t.shadow, t.shadow_free)
               for t in (synthdata.gen_triplet(cfg, i)
                         for i in range(TRAIN_COUNT))]
    model = models.model_tinycnn(seed=0)
    models.train_toy(model, dataset, epochs=TRAIN_EPOCHS, lr=TRAIN_LR)
    return model


@pytest.fixture(scope="module")
def bench_triplets():
    cfg = synthdata.SynthConfig(seed=BENCH_SEED, count=BENCH_COUNT,
                                height=64, width=64, **GENTLE)
    return [(i, synthdata.gen_triplet(cfg, i)) for i in range(BENCH_COUNT)]


@pytest.fixture(scope="module")
def sweep_rows(trained_cnn, bench_triplets):
    """Unequalized budget sweep per model, the Fig.-2-shaped experiment."""
    out = {}
    for name, model in (("cnn", trained_cnn),
                        ("gainmap", models.GainMapModel(**GAINMAP_FIXTURE))):
        rows, failures = bench.run_sweep(
            model, bench_triplets, BUDGET_SWEEP, ["uniform", "adaptive"],
            equalize=False, iterations=20, seed=SWEEP_SEED)
        assert not failures
        out[name] = rows
    return out


def zoo_for_audit():
    return (models.IdentityModel(),
            models.GainMapModel(blur_radius=2, max_gain=3.0),
            models.model_tinycnn(seed=42))


def test_criterion_01_constraint_exactness():
    """1,000 randomized attacks: delta inside its box and I+delta inside
    [0,1] after every single iteration, at tolerance 1e-12."""
    started = time.time()
    zoo = zoo_for_audit()
    rng = Xoshiro256StarStar(2024)
    checked_iterations = 0
    adaptive_results = []
    for run in range(1000):
        model = zoo[rng.randint(0, 2)]
        side = rng.randint(8, 20)
        data = rng.fill((side, side, 3))
        # force saturated pixels so the [-I, 1-I] walls are exercised
        data[0, 0, :], data[0, 1, :] = 0.0, 1.0
        image = Image(data)
        mode = "adaptive" if rng.random() < 0.5 else "uniform"
        config = AttackConfig(
            mode=mode,
            epsilon=rng.uniform(1 / 255, 24 / 255),
            iterations=rng.randint(2, 6),
            seed=derive_seed(2024, run),
        )
        box = budget_box(image, config)
        audits = []

        def audit(t, delta, box=box, image=image, audits=audits):
            assert np.all(delta >= box.lower - 1e-12)
            assert np.all(delta <= box.upper + 1e-12)
            total = image.data + delta
            assert np.all(total >= -1e-12) and np.all(total <= 1 + 1e-12)
            audits.append(t)

        result = pgd_attack(model, image, config, on_iteration=audit)
        assert len(audits) == config.iterations
        checked_iterations += len(audits)
        if mode == "adaptive":
            adaptive_results.append((result, image, config))
    elapsed = time.time() - started
    assert elapsed < 120.0
    test_criterion_01_constraint_exactness.adaptive_results = adaptive_results
    report(1, f"1000 runs / {checked_iterations} iterations audited, "
              f"zero violations at 1e-12, {elapsed:.0f}s")


def test_criterion_02_mean_l1_budget_bound():
    """Mean-l1 of every adaptive attack is bounded by eps * mean floored
    intensity; a face-saturating delta attains the bound to 1e-9."""
    results = getattr(test_criterion_01_constraint_exactness,
                      "adaptive_results", None)
    if results is None:  # criterion 1 not run first; regenerate a sample
        results = []
        rng = Xoshiro256StarStar(77)
        model = models.GainMapModel(blur_radius=2)
        for run in range(50):
            image = Image(rng.fill((12, 12, 3)))
            config = AttackConfig(mode="adaptive",
                                  epsilon=rng.uniform(1 / 255, 24 / 255),
                                  iterations=4, seed=run)
            results.append((pgd_attack(model, image, config), image, config))
    for result, image, config in results:
        check = verify_l1_bound(result.perturbation, image, config.epsilon)
        assert check.ok, (check.mean_abs, check.bound, check.first_violation)

    # equality case: every coordinate exactly on its adaptive face
    img = Image(Xoshiro256StarStar(88).fill_uniform((16, 16, 3), 0.1, 0.7))
    eps_a = 16 / 255
    ieff = np.maximum(img.data, 1 / 255)
    saturated = verify_l1_bound(eps_a * ieff, img, eps_a)
    assert saturated.ok
    assert abs(saturated.mean_abs - saturated.bound) <= 1e-9
    report(2, f"{len(results)} adaptive results bounded; face-saturating "
              f"delta attains equality within 1e-9")


def test_criterion_03_budget_mapping():
    """eps_u = eps_a * mean intensity, against an fsum recomputation."""
    img = Image(np.full((5, 5, 3), 0.4))
    eps_u = equivalent_uniform_budget(img, 16 / 255)
    assert abs(eps_u - 16 / 255 * 0.4) < 1e-15
    assert abs(eps_u - 0.025098) < 1e-6
    rng = Xoshiro256StarStar(99)
    for trial in range(20):
        img = Image(rng.fill((11, 7, 3)))
        eps_a = rng.uniform(0.01, 0.3)
        oracle = eps_a * (math.fsum(img.data.ravel()) / img.data.size)
        assert abs(equivalent_uniform_budget(img, eps_a) - oracle) <= 1e-12
    report(3, "eps_u = eps_a * mean(I) to 1e-12 on 20 random images "
              "plus the 16/255 * 0.4 = 0.025098 case")


def test_criterion_04_gradient_fidelity():
    """grad_check on every zoo model, 20 random 16x16 inputs each,
    h = 1e-4 central differences, max relative error < 1e-4.

    A rare draw can land a clamp argument within float-noise of its bound,
    making the function non-smooth in every direction (finite differences
    are then not a gradient oracle at all); such draws are redrawn, and a
    valid probe must still have >= 95% of its coordinates away from kinks.
    """
    assert (autodiff.GRAD_CHECK_STEP, autodiff.GRAD_CHECK_TOL) == (1e-4, 1e-4)
    started = time.time()
    worst_overall = 0.0
    redraws = 0
    for mi, model in enumerate(zoo_for_audit()):
        reports, model_redraws = models.probe_gradients(
            model, derive_seed(0, mi), 20, (16, 16, 3))
        # 20 valid probes within 25 attempts
        assert model_redraws <= 5, f"{model.name}: too many degenerate draws"
        assert len(reports) == 20, model.name
        for i, rep in enumerate(reports):
            assert rep.passed, (model.name, i, rep.max_rel_error)
            worst_overall = max(worst_overall, rep.max_rel_error)
        redraws += model_redraws
    elapsed = time.time() - started
    assert elapsed < 300.0
    report(4, f"3 models x 20 inputs, worst relative error "
              f"{worst_overall:.2e} < 1e-4, {redraws} kink-seated draws "
              f"redrawn, {elapsed:.0f}s")


def test_criterion_05_identity_fixed_point():
    """Uniform PGD on the identity model drives every moving interior
    coordinate exactly onto the +/-eps box face."""
    eps = 0.1
    for seed in (1, 2, 3):
        img = Image(Xoshiro256StarStar(seed).fill_uniform((12, 12, 3),
                                                          0.1, 0.9))
        config = AttackConfig(mode="uniform", epsilon=eps, iterations=20,
                              seed=seed)
        result = pgd_attack(models.IdentityModel(), img, config)
        delta0 = init_delta(budget_box(img, config), seed=seed)
        moving = delta0 != 0.0
        assert moving.all()  # continuous draws never start at exactly 0
        assert np.all(np.abs(result.perturbation[moving]) == eps)
    report(5, "final |delta_i| == eps exactly on all interior coordinates, "
              "3 seeds")


def test_criterion_06_metric_correctness():
    a = Image(np.full((16, 16, 1), 0.5))
    b = Image(np.full((16, 16, 1), 0.6))
    assert metrics.psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    img = Image(Xoshiro256StarStar(4).fill((16, 16, 3)))
    assert metrics.ssim(img, img) == 1.0

    # closed form for constant 0.5 vs 0.3 (variance terms vanish):
    # (2*0.5*0.3 + C1) / (0.5^2 + 0.3^2 + C1) with C1 = 1e-4,
    # evaluated in exact rational arithmetic
    oracle = float((Fraction(3, 10) + Fraction(1, 10000))
                   / (Fraction(34, 100) + Fraction(1, 10000)))
    x = Image(np.full((16, 16, 3), 0.5))
    y = Image(np.full((16, 16, 3), 0.3))
    assert abs(metrics.ssim(x, y) - oracle) < 1e-4

    rng = Xoshiro256StarStar(5)
    p = Image(rng.fill((14, 14, 3)))
    q = Image(rng.fill((14, 14, 3)))
    mask_data = (rng.fill((14, 14)) > 0.5).astype(np.uint8)
    mask_data[0, 0], mask_data[0, 1] = 1, 0  # ensure both classes
    mask = synthdata.ShadowMask(mask_data)
    n_all = 14 * 14
    n_s = int(mask.data.sum())
    mse_all, mse_shadow, mse_nonshadow = metrics.region_mse(p, q, mask)
    lhs = n_all * mse_all
    rhs = n_s * mse_shadow + (n_all - n_s) * mse_nonshadow
    assert lhs == pytest.approx(rhs, rel=1e-12)
    report(6, f"PSNR 20.0 dB exact, SSIM(x,x)=1, constant-pair SSIM matches "
              f"closed form {oracle:.6f}, MSE region additivity at 1e-12")


def test_criterion_07_budget_sweep_trend(sweep_rows, trained_cnn,
                                         bench_triplets):
    """Mean attacked PSNR non-increasing in the budget for every model,
    mode and region; at 16/255 the drop from clean exceeds 3 dB."""
    started = time.time()
    gainmap = models.GainMapModel(**GAINMAP_FIXTURE)
    drops = {}
    for name, model in (("cnn", trained_cnn), ("gainmap", gainmap)):
        per_image = [metrics.region_psnr(t.shadow_free,
                                         model.forward(t.shadow), t.mask)
                     for _i, t in bench_triplets]
        clean = {region: float(np.mean(vals)) for region, vals
                 in zip(("all", "shadow", "nonshadow"), zip(*per_image))}
        summary = bench.summarize(sweep_rows[name])
        for mode in ("uniform", "adaptive"):
            for region in ("all", "shadow", "nonshadow"):
                curve = [means[f"psnr_gt_{region}"]
                         for m, _e, means in summary if m == mode]
                assert len(curve) == len(BUDGET_SWEEP)
                for i in range(len(curve) - 1):
                    assert curve[i] >= curve[i + 1], (name, mode, region, curve)
            at_16 = [means["psnr_gt_all"] for m, _e, means in summary
                     if m == mode][-1]
            drop = clean["all"] - at_16
            assert drop > 3.0, (name, mode, drop)
            drops[(name, mode)] = drop
    elapsed = time.time() - started
    assert elapsed < 600.0
    pretty = ", ".join(f"{k[0]}/{k[1]} {v:.1f} dB" for k, v in drops.items())
    report(7, f"12 monotone curves; drops at 16/255: {pretty}")


def test_criterion_08_normalized_perturbation_split(trained_cnn):
    """Under equalized budgets the uniform attack's normalized perturbation
    concentrates >= 2x in the shadow region; the adaptive attack keeps the
    two region means within 25% of each other."""
    cfg = synthdata.SynthConfig(seed=DARK_SEED, count=DARK_COUNT,
                                height=64, width=64, **DARK)
    triplets = [(i, synthdata.gen_triplet(cfg, i)) for i in range(DARK_COUNT)]
    eps_a = 16 / 255
    for model in (trained_cnn, models.GainMapModel()):
        uni_s, uni_ns, ada_s, ada_ns = [], [], [], []
        for i, t in triplets:
            eps_u = equivalent_uniform_budget(t.shadow, eps_a)
            sel = t.mask.data.astype(bool)
            for mode, eps, acc_s, acc_ns in (
                    ("uniform", eps_u, uni_s, uni_ns),
                    ("adaptive", eps_a, ada_s, ada_ns)):
                config = AttackConfig(mode=mode, epsilon=eps, iterations=20,
                                      seed=100 + i)
                res = pgd_attack(model, t.shadow, config)
                nmap = metrics.normalized_perturbation_map(res.perturbation,
                                                           t.shadow)
                acc_s.append(float(nmap[sel].mean()))
                acc_ns.append(float(nmap[~sel].mean()))
        ratio = np.mean(uni_s) / np.mean(uni_ns)
        assert ratio >= 2.0, (model.name, ratio)
        s, ns = np.mean(ada_s), np.mean(ada_ns)
        rel = abs(s - ns) / max(s, ns)
        assert rel < 0.25, (model.name, rel)
    report(8, f"uniform shadow/nonshadow ratio {ratio:.2f} >= 2; adaptive "
              f"region means within {rel * 100:.1f}% < 25%")


def test_criterion_09_comparable_strength(trained_cnn, bench_triplets):
    """Budget-equalized uniform and adaptive attacks land within 1.5 dB
    mean PSNR of each other."""
    worst = 0.0
    for model in (trained_cnn, models.GainMapModel(**GAINMAP_FIXTURE)):
        rows, failures = bench.run_sweep(
            model, bench_triplets, [8 / 255, 16 / 255],
            ["uniform", "adaptive"], equalize=True, iterations=20,
            seed=SWEEP_SEED)
        assert not failures
        summary = {(m, round(e, 9)): means
                   for m, e, means in bench.summarize(rows)}
        for eps in (8 / 255, 16 / 255):
            gap = abs(summary[("adaptive", round(eps, 9))]["psnr_gt_all"]
                      - summary[("uniform", round(eps, 9))]["psnr_gt_all"])
            assert gap <= 1.5, (model.name, eps, gap)
            worst = max(worst, gap)
    report(9, f"max |adaptive - uniform| mean PSNR gap {worst:.2f} dB <= 1.5")


def test_criterion_10_cli_determinism(tmp_path):
    """Two identical bench invocations produce byte-identical CSV and
    plot-data files."""
    data_dir = tmp_path / "data"
    assert main(["gen", "--seed", "31", "--count", "4", "--size", "48x48",
                 "--out", str(data_dir)]) == 0
    run_args = ["bench", "--dataset", str(data_dir), "--model", "gainmap",
                "--budgets", "2/255,8/255", "--modes", "uniform,adaptive",
                "--equalize", "--iters", "5", "--seed", "17"]
    outs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        plot_path = tmp_path / f"{tag}.plot"
        assert main(run_args + ["--out", str(csv_path),
                                "--plot-out", str(plot_path)]) == 0
        outs.append((csv_path.read_bytes(), plot_path.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    report(10, f"bench CSV ({len(outs[0][0])} bytes) and plot data "
               f"({len(outs[0][1])} bytes) byte-identical across runs")
