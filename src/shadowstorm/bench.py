"""Benchmark sweeps: attacks across a dataset, modes and budgets, with
deterministic CSV and plot-data emission.

Per (image, mode, budget) cell one attack runs and one row is produced,
carrying region PSNR/SSIM of the attacked model output against two
references: the ground-truth shadow-free image (columns prefixed gt_) and
the model's clean output (columns prefixed clean_). Rows are sorted by
(image_id, mode, epsilon) so output bytes do not depend on scheduling.

runtime_ms is always 0, kept so v1 CSV bytes hold: a wall-clock time would
break the byte-for-byte determinism the CSV promises.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

from .attack import (MODE_UNIFORM, AttackConfig, AttackResult,
                     equivalent_uniform_budget, pgd_attack)
from .imagecore import Image, ShadowMask, write_atomic
from .metrics import (perturbation_norms, psnr, region_psnr, region_ssim,
                      ssim)
from .models import DiffModel
from .rng import derive_seed
from .synthdata import Triplet

CSV_SCHEMA_LINE = "# shadowstorm-csv v1"
PLOT_SCHEMA_LINE = "# shadowstorm-plot v1"


@dataclass(frozen=True)
class ResultRow:
    image_id: str
    mode: str
    epsilon_nominal: float
    epsilon_effective: float
    psnr_gt_all: float
    psnr_gt_shadow: float
    psnr_gt_nonshadow: float
    ssim_gt_all: float
    ssim_gt_shadow: float
    ssim_gt_nonshadow: float
    psnr_clean_all: float
    psnr_clean_shadow: float
    psnr_clean_nonshadow: float
    ssim_clean_all: float
    ssim_clean_shadow: float
    ssim_clean_nonshadow: float
    l1_mean: float
    linf: float
    linf_normalized: float
    iterations: int
    runtime_ms: float


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
_METRIC_COLUMNS = RESULT_COLUMNS[4:16]


def fmt_value(value) -> str:
    """Deterministic text form: an int as is, else the shortest float repr,
    which prints 'inf', '-inf' and 'nan' (for a NaN of either sign)."""
    return str(value) if isinstance(value, int) else repr(float(value))


def fmt_epsilon(value: float) -> str:
    """Budgets are printed with 9 significant digits."""
    return format(float(value), ".9g")


def cell_seed(seed: int, image_id: str, mode: str, epsilon: float) -> int:
    """Stable per-cell attack seed: FNV-1a of the cell key mixed with the
    sweep seed through the package PRNG derivation."""
    key = f"{image_id}|{mode}|{fmt_epsilon(epsilon)}"
    h = 0xCBF29CE484222325
    for byte in key.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return derive_seed(seed ^ h, 0)


def region_metrics(references: list[Image], test: Image,
                   mask: ShadowMask | None) -> list[tuple[float, ...]]:
    """PSNR then SSIM, each over all, shadow and non-shadow pixels, of
    `test` against each reference; the region columns are NaN without a
    mask. With a mask, the SSIM statistics of `test` are computed once."""
    if mask is None:
        nan = float("nan")
        return [(psnr(ref, test), nan, nan, ssim(ref, test), nan, nan)
                for ref in references]
    return [(*region_psnr(ref, test, mask), *ssims) for ref, ssims
            in zip(references, region_ssim(references, test, mask))]


def result_row(image_id: str, epsilon_nominal: float, result: AttackResult,
               image: Image, free: Image | None,
               mask: ShadowMask | None) -> ResultRow:
    """Measure one finished attack on `image`: region metrics against the
    shadow-free reference `free` (NaN without one) and against the clean
    output, and the perturbation norms."""
    config = result.config
    references = [ref for ref in (free, result.clean_output) if ref is not None]
    scores = region_metrics(references, result.attacked_output, mask)
    gt = (float("nan"),) * 6 if free is None else scores[0]
    clean = scores[-1]
    norms = perturbation_norms(result.perturbation, image)
    return ResultRow(image_id, config.mode, epsilon_nominal, config.epsilon,
                     *gt, *clean,
                     norms.l1_mean, norms.linf, norms.linf_normalized,
                     config.iterations, 0.0)


def evaluate_cell(model: DiffModel, image_id: str, triplet: Triplet,
                  mode: str, epsilon_nominal: float, *, anchor: Image,
                  equalize: bool, iterations: int, seed: int) -> ResultRow:
    """Attack one image at one budget and measure everything; `anchor` is
    the model's clean output on the image."""
    epsilon = epsilon_nominal
    if mode == MODE_UNIFORM and equalize:
        epsilon = equivalent_uniform_budget(triplet.shadow, epsilon_nominal)
    config = AttackConfig(mode=mode, epsilon=epsilon, iterations=iterations,
                          seed=cell_seed(seed, image_id, mode, epsilon_nominal))
    result = pgd_attack(model, triplet.shadow, config, anchor=anchor)
    return result_row(image_id, epsilon_nominal, result, triplet.shadow,
                      triplet.shadow_free, triplet.mask)


@dataclass(frozen=True)
class SweepFailure:
    image_id: str
    mode: str
    epsilon_nominal: float
    error: str
    numeric: bool  # the exception was an ArithmeticError


def run_sweep(model: DiffModel, triplets: list[tuple[int, Triplet]],
              budgets, modes, *, iterations: int, equalize: bool = False,
              seed: int = 0, jobs: int = 1
              ) -> tuple[list[ResultRow], list[SweepFailure]]:
    """Attack every (image, mode, budget) cell; continue past failures.

    Returns rows sorted by (image_id, mode, epsilon_nominal) plus any
    failures in the same order, independent of scheduling.
    """
    cells = sorted(
        (f"{index:04d}", mode, eps)
        for index, _ in triplets for mode in sorted(modes) for eps in budgets)
    by_id = {f"{index:04d}": triplet for index, triplet in triplets}
    # the clean output is the same for every cell of an image; an exception
    # in its place fails each of them
    anchors = {image_id: _guard(model.forward, triplet.shadow)
               for image_id, triplet in by_id.items()}

    def run_one(cell):
        image_id, mode, eps = cell
        anchor = anchors[image_id]
        if isinstance(anchor, Exception):
            return anchor
        return evaluate_cell(model, image_id, by_id[image_id], mode, eps,
                             anchor=anchor, equalize=equalize,
                             iterations=iterations, seed=seed)

    rows: list[ResultRow] = []
    failures: list[SweepFailure] = []
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(lambda c: _guard(run_one, c), cells))
    else:
        outcomes = [_guard(run_one, c) for c in cells]
    for cell, outcome in zip(cells, outcomes):
        if isinstance(outcome, ResultRow):
            rows.append(outcome)
        else:
            failures.append(SweepFailure(
                *cell, f"{type(outcome).__name__}: {outcome}",
                isinstance(outcome, ArithmeticError)))
    return rows, failures


def _guard(fn, arg):
    try:
        return fn(arg)
    except Exception as exc:  # recorded per cell; sweep must go on
        return exc.with_traceback(None)  # its frames hold the cell's arrays


def summarize(rows: list[ResultRow]) -> list[tuple[str, float, dict[str, float]]]:
    """Arithmetic means of the metric columns per (mode, nominal budget)."""
    groups: dict[tuple[str, float], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.mode, row.epsilon_nominal), []).append(row)
    out = []
    for (mode, eps) in sorted(groups):
        members = groups[(mode, eps)]
        means = {col: sum(getattr(r, col) for r in members) / len(members)
                 for col in _METRIC_COLUMNS}
        out.append((mode, eps, means))
    return out


def format_row(row: ResultRow) -> str:
    parts = [row.image_id, row.mode, fmt_epsilon(row.epsilon_nominal),
             fmt_epsilon(row.epsilon_effective)]
    for col in RESULT_COLUMNS[4:]:
        parts.append(fmt_value(getattr(row, col)))
    return ",".join(parts)


def csv_text(rows: list[ResultRow], failures: list[SweepFailure] = (),
             extra_comments: tuple[str, ...] = ()) -> bytes:
    """The versioned CSV: schema line, comments, header, rows, then a
    summary block and any per-cell failures as trailing comments."""
    lines = [CSV_SCHEMA_LINE,
             "# psnr/ssim bases: gt = ground-truth shadow-free reference, "
             "clean = unattacked model output",
             "# trailing '# summary' lines are arithmetic means of the "
             "per-image metric columns"]
    lines.extend(extra_comments)
    lines.append(",".join(RESULT_COLUMNS))
    lines.extend(format_row(row) for row in rows)
    for mode, eps, means in summarize(rows):
        pieces = " ".join(f"{col}={fmt_value(means[col])}"
                          for col in _METRIC_COLUMNS)
        lines.append(f"# summary mode={mode} eps={fmt_epsilon(eps)} {pieces}")
    for f in failures:
        lines.append(f"# failed {f.image_id} {f.mode} "
                     f"{fmt_epsilon(f.epsilon_nominal)} {f.error}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_csv(path, rows: list[ResultRow], failures: list[SweepFailure] = (),
              extra_comments: tuple[str, ...] = ()) -> None:
    """Write :func:`csv_text` to `path`."""
    write_atomic(path, csv_text(rows, failures, extra_comments))


def write_plot_data(path, rows: list[ResultRow]) -> None:
    """Budget-vs-mean-metric table (ground-truth base), one line per
    (mode, budget), whitespace separated for any plotting tool."""
    lines = [PLOT_SCHEMA_LINE,
             "# mode epsilon psnr_all psnr_shadow psnr_nonshadow "
             "ssim_all ssim_shadow ssim_nonshadow"]
    for mode, eps, means in summarize(rows):
        values = " ".join(fmt_value(means[col]) for col in (
            "psnr_gt_all", "psnr_gt_shadow", "psnr_gt_nonshadow",
            "ssim_gt_all", "ssim_gt_shadow", "ssim_gt_nonshadow"))
        lines.append(f"{mode} {fmt_epsilon(eps)} {values}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
