"""Command-line front end: gen | attack | bench | gradcheck | train.

Exit codes: 0 success, 1 partial failures in a sweep, 2 usage error,
3 I/O or file-format error, 4 numeric failure, 5 validation failure.
All commands are deterministic under fixed flags; `bench --timing` opts
into wall-clock runtime_ms at the cost of byte-stable output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench, metrics
from .attack import AttackConfig, pgd_attack
from .imagecore import (Image, PnmError, ShadowMask, load_mask, load_pnm,
                        save_pnm, write_atomic)
from .models import (ParamsError, load_params, model_gainmap, model_identity,
                     model_tinycnn, model_tinycnn_from_params, probe_gradients,
                     save_params, train_toy)
from .rng import derive_seed
from .synthdata import SynthConfig, TripletDirError, gen_dataset, load_triplet_dir

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VALIDATION = 5

ZOO_NAMES = ("identity", "gainmap", "tinycnn")


class UsageError(ValueError):
    pass


def parse_budget(text: str) -> float:
    """Accept '16/255' fractions or plain decimals; must lie in (0, 1)."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse budget {text!r}") from None
    if not 0.0 < value < 1.0:
        raise UsageError(f"budget must lie in (0, 1) exclusive, got {text!r}")
    return value


def parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x", 1)
        return int(h), int(w)
    except ValueError:
        raise UsageError(f"cannot parse size {text!r}, expected HxW") from None


def load_model(identifier: str):
    """Zoo name or a parameter-file path."""
    if identifier == "identity":
        return model_identity()
    if identifier == "gainmap":
        return model_gainmap()
    if identifier == "tinycnn":
        return model_tinycnn(seed=0)
    if os.path.exists(identifier):
        return model_tinycnn_from_params(load_params(identifier))
    raise UsageError(f"unknown model {identifier!r}: expected one of "
                     f"{ZOO_NAMES} or a parameter file")


def _check_ssim_size(image: Image, what: str) -> None:
    """Every result row carries SSIM, so an image must hold one window."""
    if min(image.height, image.width) < metrics.SSIM_WINDOW:
        raise UsageError(
            f"{what} is {image.height}x{image.width}, smaller than the "
            f"{metrics.SSIM_WINDOW}x{metrics.SSIM_WINDOW} SSIM window")


def _check_mask(mask: ShadowMask, what: str) -> None:
    """Every region column needs shadow and non-shadow pixels and window
    centers, so a mask short of either fails before any attack."""
    try:
        metrics.check_mask(mask)
    except metrics.EmptyRegionError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _write_stretched(arr: np.ndarray, path) -> float:
    """Save |arr| linearly stretched to full range; returns the stretch factor."""
    peak = float(np.abs(arr).max())
    stretch = 1.0 / peak if peak > 0.0 else 1.0
    save_pnm(Image(np.clip(np.abs(arr) * stretch, 0.0, 1.0)), path)
    return stretch


def cmd_gen(args) -> int:
    config = SynthConfig(seed=args.seed, count=args.count,
                         height=args.size[0], width=args.size[1],
                         attenuation_range=(args.k_min, args.k_max),
                         mask_area_range=(args.area_min, args.area_max),
                         blur_radius=args.blur_radius)
    entries = gen_dataset(config, args.out)
    print(f"wrote {len(entries)} triplets to {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    image = load_pnm(args.image)
    mask = load_mask(args.mask) if args.mask else None
    free = load_pnm(args.free) if args.free else None
    _check_ssim_size(image, args.image)
    if mask is not None:
        if not mask.matches(image):
            raise UsageError(f"mask {args.mask} is {mask.height}x{mask.width}, "
                             f"image is {image.height}x{image.width}")
        _check_mask(mask, f"mask {args.mask}")
    if free is not None and free.shape != image.shape:
        raise UsageError(f"--free image has shape {free.shape}, "
                         f"image has {image.shape}")
    config = AttackConfig(mode=args.mode, epsilon=args.eps,
                          iterations=args.iters, step_divisor=args.step_div,
                          seed=args.seed, intensity_floor=args.floor)
    model = load_model(args.model)
    result = pgd_attack(model, image, config)

    # metrics before any write, so a failure leaves no artifact on disk
    image_id = os.path.splitext(os.path.basename(args.image))[0]
    row = bench.result_row(image_id, args.eps, result, image, free, mask)

    prefix = args.out_prefix
    ext = "pgm" if image.channels == 1 else "ppm"
    save_pnm(result.attacked_image, f"{prefix}_attacked.{ext}")
    delta_stretch = _write_stretched(result.perturbation.data,
                                     f"{prefix}_delta_viz.{ext}")
    norm_map = metrics.normalized_perturbation_map(result.perturbation, image,
                                                   args.floor)
    norm_stretch = _write_stretched(norm_map, f"{prefix}_normmap.{ext}")
    bench.write_csv(f"{prefix}.csv", [row], extra_comments=(
        f"# delta_viz_stretch {bench.fmt_value(delta_stretch)}",
        f"# normmap_stretch {bench.fmt_value(norm_stretch)}",
    ))
    print(f"attacked {args.image}: objective "
          f"{result.objective_trace[-1]:.6g}, wrote {prefix}.csv")
    return EXIT_OK


def cmd_bench(args) -> int:
    for flag, value in (("--iters", args.iters), ("--jobs", args.jobs)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    triplets = load_triplet_dir(args.dataset)
    for index, triplet in triplets:
        _check_ssim_size(triplet.shadow, f"triplet {index:04d}")
        _check_mask(triplet.mask, f"triplet {index:04d} mask")
    budgets = [parse_budget(b) for b in args.budgets.split(",")]
    if budgets != sorted(budgets):
        raise UsageError("budgets must be sorted ascending")
    modes = args.modes.split(",")
    for mode in modes:
        if mode not in ("uniform", "adaptive"):
            raise UsageError(f"unknown mode {mode!r}")
    model = load_model(args.model)
    rows, failures = bench.run_sweep(
        model, triplets, budgets, modes, equalize=args.equalize,
        iterations=args.iters, step_divisor=args.step_div, seed=args.seed,
        floor=args.floor, jobs=args.jobs, timing=args.timing)
    comments = (f"# model {model.name}", f"# dataset {args.dataset}",
                f"# equalize {int(args.equalize)}")
    bench.write_csv(args.out, rows, failures, extra_comments=comments)
    plot_path = args.plot_out or os.path.splitext(args.out)[0] + ".plot"
    bench.write_plot_data(plot_path, rows)
    print(f"wrote {len(rows)} rows to {args.out}, plot data to {plot_path}"
          + (f", {len(failures)} failures" if failures else ""))
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_gradcheck(args) -> int:
    names = ZOO_NAMES if args.model == "all" else (args.model,)
    worst_name, worst = None, None
    for mi, name in enumerate(names):
        reports, redrawn = probe_gradients(
            load_model(name), derive_seed(args.seed, mi), args.inputs,
            (*args.size, 3), args.h, args.tol)
        for report in reports:
            if not report.passed and (worst is None
                                      or report.max_rel_error > worst.max_rel_error):
                worst_name, worst = name, report
        model_worst = max((r.max_rel_error for r in reports), default=0.0)
        note = f", {redrawn} kink-seated draws redrawn" if redrawn else ""
        print(f"{name}: max relative error {model_worst:.3e} "
              f"over {len(reports)} inputs (tol {args.tol:g}){note}")
    if worst is not None:
        print(f"FAIL: {worst_name} gradient mismatch {worst.max_rel_error:.3e} "
              f"at coordinate {worst.worst_coord}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_train(args) -> int:
    triplets = load_triplet_dir(args.dataset)
    if not triplets:
        raise UsageError(f"no triplets in {args.dataset}")
    dataset = [(t.shadow, t.shadow_free) for _, t in triplets]
    model = model_tinycnn(seed=args.seed)
    losses: list[float] = []
    params = train_toy(model, dataset, epochs=args.epochs, lr=args.lr,
                       on_epoch=lambda _e, loss: losses.append(loss))
    save_params(params, args.out)
    log_path = args.loss_log or args.out + ".losslog.csv"
    lines = ["epoch,loss"] + [f"{epoch},{bench.fmt_value(loss)}"
                              for epoch, loss in enumerate(losses)]
    write_atomic(log_path, ("\n".join(lines) + "\n").encode("utf-8"))
    final = f", final loss {losses[-1]:.6g}" if losses else ""
    print(f"trained {args.epochs} epochs{final}; params -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowstorm",
        description="Adversarial attacks and evaluation for shadow-removal models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic triplet dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--size", type=parse_size, default=(64, 64),
                   help="HxW, e.g. 64x64")
    p.add_argument("--out", required=True)
    p.add_argument("--k-min", type=float, default=0.4)
    p.add_argument("--k-max", type=float, default=0.8)
    p.add_argument("--area-min", type=float, default=0.1)
    p.add_argument("--area-max", type=float, default=0.4)
    p.add_argument("--blur-radius", type=int, default=2)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("attack", help="attack a single image")
    p.add_argument("--mode", choices=("uniform", "adaptive"), required=True)
    p.add_argument("--eps", type=parse_budget, required=True,
                   help="budget, e.g. 16/255 or 0.0627")
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--step-div", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--floor", type=parse_budget, default=1.0 / 255.0)
    p.add_argument("--model", default="gainmap")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--free", default=None,
                   help="optional ground-truth shadow-free image")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="sweep attacks over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default="gainmap")
    p.add_argument("--budgets", default="1/255,2/255,4/255,8/255,16/255")
    p.add_argument("--modes", default="uniform,adaptive")
    p.add_argument("--equalize", action="store_true",
                   help="per-image uniform budget = eps * mean intensity")
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--step-div", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--floor", type=parse_budget, default=1.0 / 255.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock runtime_ms (breaks byte determinism)")
    p.add_argument("--out", required=True)
    p.add_argument("--plot-out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference check of the zoo")
    p.add_argument("--model", default="all",
                   help="all, a zoo name, or a parameter file")
    p.add_argument("--inputs", type=int, default=3)
    p.add_argument("--size", type=parse_size, default=(16, 16))
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train the tiny CNN on a triplet dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-log", default=None)
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PnmError, ParamsError, TripletDirError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
