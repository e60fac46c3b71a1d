"""Command-line front end: gen | attack | bench | gradcheck | train.

Exit codes: 0 success, 1 failed cells in a sweep, 2 usage error, 3 I/O or
file-format error, 4 numeric failure (also a sweep that wrote no row
because every cell failed numerically), 5 validation failure.
All commands are deterministic under fixed flags.

Each flag's rule is its argparse ``type`` (:func:`at_least`,
:func:`positive`, :func:`parse_budget`, :func:`parse_budgets`,
:func:`parse_modes`, :func:`parse_size`), so a bad flag, like an
abbreviated or retired one, exits 2 while the arguments are parsed, before
any file is read. An output whose directory does not exist exits 2 before
any input is read. Each input image is checked once, by
:func:`metrics.check_scorable`, before the model loads, and against the
channel count the loaded model takes before any attack. Under ``bench
--equalize`` each image's equalized uniform budgets pass
:func:`attack.check_budget` before the model loads, too.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

import numpy as np

from . import autodiff, bench, metrics
from .attack import (MODE_UNIFORM, MODES, AttackConfig, check_budget,
                     equivalent_uniform_budget, pgd_attack)
from .imagecore import (Image, PnmError, ShadowMask, load_mask, load_pnm,
                        save_pnm, write_atomic)
from .models import (GainMapModel, IdentityModel, ParamsError, TinyCnnModel,
                     load_params, model_tinycnn, probe_gradients, save_params,
                     train_toy)
from .rng import derive_seed
from .synthdata import (SynthConfig, TripletDirError, gen_dataset,
                        load_triplet_dir, triplet_paths)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VALIDATION = 5

ZOO = {"identity": IdentityModel, "gainmap": GainMapModel,
       "tinycnn": model_tinycnn}

# glibc mallopt parameters; a fixed threshold also stops glibc's dynamic one
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest mmap threshold on 64-bit
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES  # glibc's own dynamic ratio


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Exit 2. Raised by a flag's type, argparse reports it under the flag."""


def parse_budget(text: str) -> float:
    """Accept '16/255' fractions or plain decimals; see check_budget."""
    try:
        num, slash, den = text.partition("/")
        value = float(num) / float(den) if slash else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse budget {text!r}") from None
    try:
        check_budget(value, "budget")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return value


def parse_size(text: str, least: int = 1) -> tuple[int, int]:
    """HxW, each side >= `least`."""
    try:
        h, w = text.lower().split("x", 1)
        size = int(h), int(w)
    except ValueError:
        raise UsageError(f"cannot parse size {text!r}, expected HxW") from None
    if min(size) < least:
        raise UsageError(f"size sides must be >= {least}, got {text!r}")
    return size


def parse_budgets(text: str) -> list[float]:
    """Comma-separated budgets, strictly ascending as printed: rows and
    cell seeds are keyed by the printed budget."""
    budgets = [parse_budget(b) for b in text.split(",")]
    for a, b in zip(budgets, budgets[1:]):
        if a >= b or bench.fmt_epsilon(a) == bench.fmt_epsilon(b):
            raise UsageError("budgets must be strictly ascending as printed, "
                             f"got {bench.fmt_epsilon(a)} then "
                             f"{bench.fmt_epsilon(b)}")
    return budgets


def parse_modes(text: str) -> list[str]:
    """Comma-separated attack modes, each known and given once."""
    modes = text.split(",")
    for mode in modes:
        if mode not in MODES:
            raise UsageError(f"unknown mode {mode!r}, expected one of {MODES}")
    if len(set(modes)) < len(modes):
        raise UsageError(f"modes must be distinct, got {text!r}")
    return modes


def at_least(least: int):
    """The type of an integer flag that must be >= `least`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise UsageError(f"must be >= {least}, got {value}")
        return value
    return integer


def positive(text: str) -> float:
    """The type of a real flag that must be positive and finite."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise UsageError(f"must be positive and finite, got {text}")
    return value


def load_model(identifier: str):
    """Zoo name or a parameter-file path."""
    if identifier in ZOO:
        return ZOO[identifier]()
    if os.path.exists(identifier):
        return TinyCnnModel(load_params(identifier))
    raise UsageError(f"unknown model {identifier!r}: expected one of "
                     f"{tuple(ZOO)} or a parameter file")


def _check_scorable(image: Image, mask: ShadowMask | None, what: str) -> None:
    """Usage error, naming `what`, unless every score of a result row can
    be computed on `image` (and `mask`): checked before any attack."""
    try:
        metrics.check_scorable(image, mask)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _check_equalized(image: Image, budgets, what: str) -> None:
    """ValueError (exit 2), naming `what` and the budget, unless every
    budget's equalized uniform budget on `image` passes check_budget,
    checked before any attack. An all-black image equalizes all to 0."""
    for eps in budgets:
        check_budget(equivalent_uniform_budget(image, eps),
                     f"{what}: equalized uniform budget of "
                     f"{bench.fmt_epsilon(eps)}")


def _check_channels(model, identifier: str, images) -> None:
    """Usage error, naming the file and the model, unless the loaded model
    takes the channel count of every (path, image) in `images`: checked
    before any attack or training. A model that declares no ``channels``
    takes any count."""
    channels = getattr(model, "channels", None)
    for path, image in images:
        if channels not in (None, image.channels):
            raise UsageError(f"{path}: model {identifier} takes "
                             f"{channels}-channel images, got "
                             f"{image.channels}")


def _shadow_files(directory: str, triplets):
    """(shadow file path, shadow image) of each loaded triplet."""
    return ((triplet_paths(directory, index)[0], triplet.shadow)
            for index, triplet in triplets)


def _check_dir(flag: str, path: str) -> None:
    """Usage error, naming `flag`, when the directory that `path` is
    written into does not exist: the write would fail after all the work."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise UsageError(f"{flag} {path}: no directory {folder}")


def _check_distinct(out: str, other: str, what: str) -> None:
    """Usage error when `other` is the same file as --out `out`: the
    command's later write would replace the earlier one."""
    if os.path.realpath(out) == os.path.realpath(other):
        raise UsageError(f"--out {out} and {what} {other} are the same file")


def _stretched(arr: np.ndarray) -> tuple[Image, float]:
    """|arr| linearly stretched to full range, and the stretch factor."""
    peak = float(np.abs(arr).max())
    stretch = 1.0 / peak if peak > 0.0 else 1.0
    return Image(np.clip(np.abs(arr) * stretch, 0.0, 1.0)), stretch


def cmd_gen(args) -> int:
    config = SynthConfig(seed=args.seed, count=args.count,
                         height=args.size[0], width=args.size[1])
    entries = gen_dataset(config, args.out)
    print(f"wrote {len(entries)} triplets to {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    _check_dir("--out-prefix", args.out_prefix)
    image = load_pnm(args.image)
    mask = load_mask(args.mask) if args.mask else None
    free = load_pnm(args.free) if args.free else None
    _check_scorable(image, mask, args.image
                    + (f" with mask {args.mask}" if args.mask else ""))
    if free is not None and free.shape != image.shape:
        raise UsageError(f"--free image has shape {free.shape}, "
                         f"image has {image.shape}")
    config = AttackConfig(mode=args.mode, epsilon=args.eps,
                          iterations=args.iters, seed=args.seed)
    model = load_model(args.model)
    _check_channels(model, args.model, [(args.image, image)])
    result = pgd_attack(model, image, config)

    # every artifact before the first write, so a failure leaves none on disk
    image_id = os.path.splitext(os.path.basename(args.image))[0]
    row = bench.result_row(image_id, args.eps, result, image, free, mask)
    delta_viz, delta_stretch = _stretched(result.perturbation)
    norm_viz, norm_stretch = _stretched(
        metrics.normalized_perturbation_map(result.perturbation, image))
    table = bench.csv_text([row], extra_comments=(
        f"# delta_viz_stretch {bench.fmt_value(delta_stretch)}",
        f"# normmap_stretch {bench.fmt_value(norm_stretch)}"))

    prefix = args.out_prefix
    ext = "pgm" if image.channels == 1 else "ppm"
    save_pnm(result.attacked_image, f"{prefix}_attacked.{ext}")
    save_pnm(delta_viz, f"{prefix}_delta_viz.{ext}")
    save_pnm(norm_viz, f"{prefix}_normmap.{ext}")
    write_atomic(f"{prefix}.csv", table)
    print(f"attacked {args.image}: objective "
          f"{result.objective_trace[-1]:.6g}, wrote {prefix}.csv")
    return EXIT_OK


def cmd_bench(args) -> int:
    plot_path = args.plot_out or os.path.splitext(args.out)[0] + ".plot"
    _check_dir("--out", args.out)
    _check_dir("--plot-out", plot_path)
    _check_distinct(args.out, plot_path, "plot data")
    triplets = load_triplet_dir(args.dataset)
    if not triplets:
        raise UsageError(f"no triplets in {args.dataset}")
    for index, triplet in triplets:
        _check_scorable(triplet.shadow, triplet.mask, f"triplet {index:04d}")
        if args.equalize and MODE_UNIFORM in args.modes:
            _check_equalized(triplet.shadow, args.budgets,
                             f"triplet {index:04d}")
    model = load_model(args.model)
    _check_channels(model, args.model, _shadow_files(args.dataset, triplets))
    rows, failures = bench.run_sweep(
        model, triplets, args.budgets, args.modes, equalize=args.equalize,
        iterations=args.iters, seed=args.seed, jobs=args.jobs)
    comments = (f"# model {model.name}", f"# dataset {args.dataset}",
                f"# equalize {int(args.equalize)}")
    bench.write_csv(args.out, rows, failures, extra_comments=comments)
    bench.write_plot_data(plot_path, rows)
    print(f"wrote {len(rows)} rows to {args.out}, plot data to {plot_path}"
          + (f", {len(failures)} failures" if failures else ""))
    if failures and not rows and all(f.numeric for f in failures):
        return EXIT_NUMERIC
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_gradcheck(args) -> int:
    names = ZOO if args.model == "all" else (args.model,)
    worst_name, worst = None, None
    failures = []
    for mi, name in enumerate(names):
        reports, redrawn = probe_gradients(
            load_model(name), derive_seed(args.seed, mi), args.inputs,
            (*args.size, 3))
        for report in reports:
            if not report.passed and (worst is None
                                      or report.max_rel_error > worst.max_rel_error):
                worst_name, worst = name, report
        if len(reports) < args.inputs:
            failures.append(f"{name} kept {len(reports)} of {args.inputs} "
                            "probes after redraws")
        model_worst = max((r.max_rel_error for r in reports), default=0.0)
        note = f", {redrawn} kink-seated draws redrawn" if redrawn else ""
        print(f"{name}: max relative error {model_worst:.3e} over "
              f"{len(reports)} inputs (tol {autodiff.GRAD_CHECK_TOL:g}){note}")
    if worst is not None:
        failures.append(f"{worst_name} gradient mismatch {worst.max_rel_error:.3e} "
                        f"at coordinate {worst.worst_coord}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_train(args) -> int:
    log_path = args.loss_log or args.out + ".losslog.csv"
    _check_dir("--out", args.out)
    _check_dir("--loss-log", log_path)
    _check_distinct(args.out, log_path, "loss log")
    triplets = load_triplet_dir(args.dataset)
    if not triplets:
        raise UsageError(f"no triplets in {args.dataset}")
    dataset = [(t.shadow, t.shadow_free) for _, t in triplets]
    model = model_tinycnn(seed=args.seed)
    _check_channels(model, "tinycnn", _shadow_files(args.dataset, triplets))
    losses: list[float] = []
    params = train_toy(model, dataset, epochs=args.epochs, lr=args.lr,
                       on_epoch=lambda _e, loss: losses.append(loss))
    save_params(params, args.out)
    lines = ["epoch,loss"] + [f"{epoch},{bench.fmt_value(loss)}"
                              for epoch, loss in enumerate(losses)]
    write_atomic(log_path, ("\n".join(lines) + "\n").encode("utf-8"))
    final = f", final loss {losses[-1]:.6g}" if losses else ""
    print(f"trained {args.epochs} epochs{final}; params -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowstorm", allow_abbrev=False,
        description="Adversarial attacks and evaluation for shadow-removal models")
    sub = parser.add_subparsers(dest="command")

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "generate a synthetic triplet dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=at_least(1), default=8)
    p.add_argument("--size", type=lambda text: parse_size(text, least=32),
                   default=(64, 64), help="HxW, at least 32x32, e.g. 64x64")
    p.add_argument("--out", required=True)

    p = command("attack", cmd_attack, "attack a single image")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--eps", type=parse_budget, required=True,
                   help="budget, e.g. 16/255 or 0.0627")
    p.add_argument("--iters", type=at_least(1), default=AttackConfig.iterations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="gainmap")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--free", default=None,
                   help="optional ground-truth shadow-free image")
    p.add_argument("--out-prefix", required=True)

    p = command("bench", cmd_bench, "sweep attacks over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default="gainmap")
    p.add_argument("--budgets", type=parse_budgets,
                   default="1/255,2/255,4/255,8/255,16/255")
    p.add_argument("--modes", type=parse_modes, default=",".join(MODES))
    p.add_argument("--equalize", action="store_true",
                   help="per-image uniform budget = eps * mean intensity")
    p.add_argument("--iters", type=at_least(1), default=AttackConfig.iterations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=at_least(1), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-out", default=None)

    p = command("gradcheck", cmd_gradcheck, "finite-difference check of the zoo")
    p.add_argument("--model", default="all",
                   help="all, a zoo name, or a parameter file")
    p.add_argument("--inputs", type=at_least(1), default=3)
    p.add_argument("--size", type=parse_size, default=(16, 16))
    p.add_argument("--seed", type=int, default=0)

    p = command("train", cmd_train, "train the tiny CNN on a triplet dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=at_least(0), default=100)
    p.add_argument("--lr", type=positive, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-log", default=None)

    return parser


def _retain_freed_memory() -> None:
    """On glibc, keep freed arrays in the heap for reuse: its dynamic mmap
    threshold and heap trimming hand many 100 KB-1.5 MB temporaries fresh,
    zero-filled pages, tens of thousands of page faults per command. No
    computed value depends on it. Only `main` calls this, so importing the
    package leaves the process's allocator alone."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _retain_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # unknown flags first
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (PnmError, ParamsError, TripletDirError, OSError) as exc:
        error, code = exc, EXIT_IO
    except ArithmeticError as exc:
        error, code = exc, EXIT_NUMERIC
    except ValueError as exc:  # UsageError too
        error, code = exc, EXIT_USAGE
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
