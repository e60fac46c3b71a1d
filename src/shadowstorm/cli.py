"""Command-line front end: gen | attack | bench | gradcheck | train.

Exit codes: 0 success, 1 failed cells in a sweep, 2 usage error, 3 I/O or
file-format error, 4 numeric failure (also a sweep that wrote no row
because every cell failed numerically), 5 validation failure.
All commands are deterministic under fixed flags.

Each flag's rule is its argparse ``type`` (:func:`at_least`,
:func:`positive`, :func:`parse_budget`, :func:`parse_budgets`,
:func:`parse_modes`, :func:`parse_size`), so a bad flag, like an
abbreviated or retired one, exits 2 while the arguments are parsed, before
any file is read. One rule covers every output, in
:func:`_check_outputs`: an output whose directory does not exist, or that
is the same file as another output, exits 2 before any input is read, and
an output that is the same file as an input the command reads (the image,
mask, free image or parameter file of ``attack``; every triplet file and
``bench``'s parameter file), or that ``bench`` or ``train`` would write
into the dataset directory under a triplet member's name, exits 2 once
that input is known, before any attack or training. Each input image is
checked once, by :func:`_check_image`, before the model loads, and against
the channel count the loaded model takes before any attack. Under
``bench --equalize`` each image's equalized uniform budgets pass
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
from .imagecore import (Image, PnmError, load_mask, load_pnm, save_pnm,
                        write_atomic)
from .models import (GainMapModel, IdentityModel, ParamsError, TinyCnnModel,
                     load_params, model_tinycnn, probe_gradients, save_params,
                     train_toy)
from .rng import derive_seed
from .synthdata import (_TRIPLET_RE, SynthConfig, TripletDirError,
                        gen_dataset, load_triplet_dir, triplet_paths)

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


def _check_image(image: Image, mask, what: str, equalized=()) -> None:
    """Usage error (exit 2), naming `what`, unless every score of a result
    row can be computed on `image` (and `mask`) and each budget in
    `equalized` has an equalized uniform budget on `image` that passes
    check_budget (naming the budget): checked before the model loads. An
    all-black image equalizes every budget to 0."""
    try:
        metrics.check_scorable(image, mask)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None
    for eps in equalized:
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


def _load_dataset(directory: str):
    """The (index, Triplet) pairs in `directory`, each one's (shadow file,
    shadow image) pair, and every file they were read from as a
    ("--dataset", path) input: usage error when there is no triplet."""
    triplets = load_triplet_dir(directory)
    if not triplets:
        raise UsageError(f"no triplets in {directory}")
    files = [triplet_paths(directory, index) for index, _ in triplets]
    shadows = [(paths[0], t.shadow) for paths, (_, t) in zip(files, triplets)]
    return triplets, shadows, [("--dataset", p) for ps in files for p in ps]


def _check_outputs(outputs, inputs=(), dataset=None) -> None:
    """Usage error, naming the flags, when the directory an output is
    written into does not exist, when an output is the same file as an
    earlier output or as an input, or when it lands in the `dataset`
    directory under a name that load_triplet_dir reads as a triplet member:
    the write would fail after all the work, replace a file the command
    wrote or reads, or break the dataset for the next command. `outputs`
    and `inputs` hold (flag, path) pairs; an input with no path is not
    given."""
    seen = {os.path.realpath(p): (flag, p) for flag, p in inputs if p}
    for flag, path in outputs:
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            raise UsageError(f"{flag} {path}: no directory {folder}")
        other = seen.setdefault(os.path.realpath(path), (flag, path))
        if other != (flag, path):
            raise UsageError(f"{flag} {path} and {' '.join(other)} are the "
                             "same file")
        if (dataset is not None and _TRIPLET_RE.match(os.path.basename(path))
                and os.path.realpath(folder) == os.path.realpath(dataset)):
            raise UsageError(f"{flag} {path}: a triplet file name in "
                             f"--dataset {dataset}")


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
    _check_outputs([("--out-prefix", args.out_prefix)])
    image = load_pnm(args.image)
    mask = load_mask(args.mask) if args.mask else None
    free = load_pnm(args.free) if args.free else None
    ext = "pgm" if image.channels == 1 else "ppm"
    paths = [args.out_prefix + end for end in (
        f"_attacked.{ext}", f"_delta_viz.{ext}", f"_normmap.{ext}", ".csv")]
    _check_outputs([("--out-prefix", path) for path in paths], [
        ("--image", args.image), ("--mask", args.mask), ("--free", args.free),
        ("--model", None if args.model in ZOO else args.model)])
    _check_image(image, mask, args.image
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

    save_pnm(result.attacked_image, paths[0])
    save_pnm(delta_viz, paths[1])
    save_pnm(norm_viz, paths[2])
    write_atomic(paths[3], table)
    print(f"attacked {args.image}: objective "
          f"{result.objective_trace[-1]:.6g}, wrote {paths[3]}")
    return EXIT_OK


def cmd_bench(args) -> int:
    plot_path = args.plot_out or os.path.splitext(args.out)[0] + ".plot"
    outputs = [("--out", args.out), ("--plot-out", plot_path)]
    _check_outputs(outputs)
    triplets, shadows, inputs = _load_dataset(args.dataset)
    _check_outputs(outputs, inputs + [
        ("--model", None if args.model in ZOO else args.model)], args.dataset)
    uniform = args.equalize and MODE_UNIFORM in args.modes
    for index, triplet in triplets:
        _check_image(triplet.shadow, triplet.mask, f"triplet {index:04d}",
                     args.budgets if uniform else ())
    model = load_model(args.model)
    _check_channels(model, args.model, shadows)
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
    failing, failures = [], []
    for mi, name in enumerate(names):
        reports, redrawn = probe_gradients(
            load_model(name), derive_seed(args.seed, mi), args.inputs,
            (*args.size, 3))
        failing += [(name, report) for report in reports if not report.passed]
        if len(reports) < args.inputs:
            failures.append(f"{name} kept {len(reports)} of {args.inputs} "
                            "probes after redraws")
        model_worst = max((r.max_rel_error for r in reports), default=0.0)
        note = f", {redrawn} kink-seated draws redrawn" if redrawn else ""
        print(f"{name}: max relative error {model_worst:.3e} over "
              f"{len(reports)} inputs (tol {autodiff.GRAD_CHECK_TOL:g}){note}")
    if failing:
        name, worst = max(failing, key=lambda pair: pair[1].max_rel_error)
        failures.append(f"{name} gradient mismatch {worst.max_rel_error:.3e} "
                        f"at coordinate {worst.worst_coord}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_train(args) -> int:
    log_path = args.loss_log or args.out + ".losslog.csv"
    outputs = [("--out", args.out), ("--loss-log", log_path)]
    _check_outputs(outputs)
    triplets, shadows, inputs = _load_dataset(args.dataset)
    _check_outputs(outputs, inputs, args.dataset)
    dataset = [(t.shadow, t.shadow_free) for _, t in triplets]
    model = model_tinycnn(seed=args.seed)
    _check_channels(model, "tinycnn", shadows)
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
        p.add_argument("--seed", type=int, default=0)
        return p

    p = command("gen", cmd_gen, "generate a synthetic triplet dataset")
    p.add_argument("--count", type=at_least(1), default=8)
    p.add_argument("--size", type=lambda text: parse_size(text, least=32),
                   default=(64, 64), help="HxW, at least 32x32, e.g. 64x64")
    p.add_argument("--out", required=True)

    p = command("attack", cmd_attack, "attack a single image")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--eps", type=parse_budget, required=True,
                   help="budget, e.g. 16/255 or 0.0627")
    p.add_argument("--iters", type=at_least(1), default=AttackConfig.iterations)
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
    p.add_argument("--jobs", type=at_least(1), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-out", default=None)

    p = command("gradcheck", cmd_gradcheck, "finite-difference check of the zoo")
    p.add_argument("--model", default="all",
                   help="all, a zoo name, or a parameter file")
    p.add_argument("--inputs", type=at_least(1), default=3)
    p.add_argument("--size", type=parse_size, default=(16, 16))

    p = command("train", cmd_train, "train the tiny CNN on a triplet dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=at_least(0), default=100)
    p.add_argument("--lr", type=positive, default=0.05)
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
