"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one client: it issues one
``shadowstorm`` CLI command, waits for it, checks what it wrote, then
issues the next. The program only sees the dataset ``gen`` writes from
the workload seed. Why each workload exists:

* ``sweep-tinycnn-64`` -- ``bench --model tinycnn --equalize`` over 4
  images of 64x64, one budget per command (8 cells of 20 PGD iterations),
  cycling through the 5 default budgets, so every 5 commands cover the
  default 40-cell sweep; on 96 KB arrays per-call overhead of conv2d and
  the autodiff tape dominates.
* ``attack-gainmap-256`` -- single ``attack --model gainmap`` commands on
  one 256x256 image, alternating mode and budget: 1.5 MB arrays, no conv,
  so per-pixel layers (blur2d, PRNG fill, SSIM) and PNM I/O dominate.
* ``train-tinycnn-64`` -- ``train`` on 12 images of 64x64: the only
  workload on the parameter-gradient path; no attack, metrics or PRNG fill.

A unit of work is one bench cell, one attack command or one training
epoch; timings and per-layer figures are per unit. Every command takes
one to two seconds, so a run holds a few dozen of them.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

EPS_REL_TOL = 1e-8  # budgets are printed with 9 significant digits
TRAIN_EPOCHS = 25
ATTACK_VARIANTS = (("uniform", "4/255"), ("adaptive", "4/255"),
                   ("uniform", "16/255"), ("adaptive", "16/255"))
SWEEP_BUDGETS = ("1/255", "2/255", "4/255", "8/255", "16/255")  # the default
SWEEP_CELLS = 4 * 2  # images x modes, at one budget


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    label: str              # commands with one label must write equal bytes
    argv: list[str]
    units: int              # cells or epochs the command performs


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    gen_args: tuple[str, ...]
    command: Callable[[int, str, str], Command]  # (index, data dir, out dir)
    check: Callable[[Command, str], tuple[int, list[str]]]  # failed units, problems


def fingerprint(out_dir: str) -> dict[str, str]:
    """First 16 hex digits of the sha256 of every file a command wrote.

    The bench CSV's ``# dataset <path>`` comment is dropped, so the value
    does not depend on where the dataset lives.
    """
    fps = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            raw = fh.read()
        if name.endswith(".csv"):
            raw = b"".join(line for line in raw.splitlines(keepends=True)
                           if not line.startswith(b"# dataset "))
        fps[name] = hashlib.sha256(raw).hexdigest()[:16]
    return fps


def read_result_csv(path: str) -> tuple[list[dict[str, str]], list[str]]:
    """Rows of a shadowstorm result CSV as dicts, plus its '# failed' lines."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    failed = [line for line in lines if line.startswith("# failed ")]
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        return [], failed
    header = body[0].split(",")
    return [dict(zip(header, line.split(","))) for line in body[1:]], failed


def check_rows(rows: list[dict[str, str]], expected: int) -> list[str]:
    """Invariants every result row must satisfy.

    Metric columns are finite (a PSNR of +inf is an exact match and is
    allowed); uniform rows keep linf within the effective budget; adaptive
    rows keep the intensity-normalized linf within the nominal budget.
    """
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for row in rows:
        where = f"row {row.get('image_id')} {row.get('mode')} " \
                f"{row.get('epsilon_nominal')}"
        try:
            values = {k: float(v) for k, v in row.items()
                      if k not in ("image_id", "mode")}
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        for col, v in values.items():
            if math.isnan(v) or (math.isinf(v)
                                 and not (col.startswith("psnr_") and v > 0)):
                problems.append(f"{where}: {col} = {v}")
        # a missing column reads NaN, which fails the comparison
        budget = {k: values.get(k, math.nan) for k in (
            "epsilon_nominal", "epsilon_effective", "linf", "linf_normalized")}
        if row.get("mode") == "uniform":
            limit = budget["epsilon_effective"] * (1.0 + EPS_REL_TOL)
            if not budget["linf"] <= limit:
                problems.append(f"{where}: linf {budget['linf']} > {limit}")
        elif row.get("mode") == "adaptive":
            limit = budget["epsilon_nominal"] * (1.0 + EPS_REL_TOL)
            if not budget["linf_normalized"] <= limit:
                problems.append(
                    f"{where}: linf_normalized {budget['linf_normalized']} "
                    f"> {limit}")
        else:
            problems.append(f"{where}: unknown mode")
    return problems


# -- sweep-tinycnn-64 ---------------------------------------------------------

def _sweep_command(index: int, data: str, out: str) -> Command:
    budget = SWEEP_BUDGETS[index % len(SWEEP_BUDGETS)]
    return Command(f"bench {budget}", [
        "bench", "--dataset", data, "--model", "tinycnn", "--equalize",
        "--budgets", budget, "--jobs", "1",
        "--out", os.path.join(out, "sweep.csv")], SWEEP_CELLS)


def _sweep_check(command: Command, out: str) -> tuple[int, list[str]]:
    csv = os.path.join(out, "sweep.csv")
    if not os.path.exists(csv) or not os.path.exists(
            os.path.join(out, "sweep.plot")):
        return command.units, ["sweep wrote no CSV or plot file"]
    rows, failed = read_result_csv(csv)
    problems = check_rows(rows, command.units - len(failed))
    problems += failed
    return len(failed), problems


# -- attack-gainmap-256 -------------------------------------------------------

def _attack_command(index: int, data: str, out: str) -> Command:
    mode, eps = ATTACK_VARIANTS[index % len(ATTACK_VARIANTS)]
    return Command(f"{mode} {eps}", [
        "attack", "--model", "gainmap", "--mode", mode, "--eps", eps,
        "--image", os.path.join(data, "shadow_0000.ppm"),
        "--mask", os.path.join(data, "mask_0000.pgm"),
        "--free", os.path.join(data, "free_0000.ppm"),
        "--out-prefix", os.path.join(out, "attack")], 1)


def _attack_check(command: Command, out: str) -> tuple[int, list[str]]:
    expected = {"attack.csv", "attack_attacked.ppm", "attack_delta_viz.ppm",
                "attack_normmap.ppm"}
    missing = expected - set(os.listdir(out))
    if missing:
        return 1, [f"attack did not write {sorted(missing)}"]
    rows, failed = read_result_csv(os.path.join(out, "attack.csv"))
    problems = check_rows(rows, 1) + failed
    return (1 if problems else 0), problems


# -- train-tinycnn-64 ---------------------------------------------------------

def _train_command(_index: int, data: str, out: str) -> Command:
    return Command("train", ["train", "--dataset", data,
                             "--epochs", str(TRAIN_EPOCHS), "--lr", "0.2",
                             "--seed", "0",
                             "--out", os.path.join(out, "params.sspm")],
                   TRAIN_EPOCHS)


def _train_check(command: Command, out: str) -> tuple[int, list[str]]:
    log = os.path.join(out, "params.sspm.losslog.csv")
    if not os.path.exists(os.path.join(out, "params.sspm")) \
            or not os.path.exists(log):
        return command.units, ["train wrote no params or loss log"]
    with open(log, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    try:
        losses = [float(line.split(",")[1]) for line in lines]
    except (IndexError, ValueError) as exc:
        return command.units, [f"unreadable loss log: {exc}"]
    problems = []
    if len(losses) != command.units:
        problems.append(f"{len(losses)} epochs logged, expected {command.units}")
    elif not all(math.isfinite(v) for v in losses):
        problems.append("non-finite training loss")
    elif not losses[-1] < losses[0]:
        problems.append(f"final loss {losses[-1]} not below first {losses[0]}")
    return command.units - len(losses), problems


WORKLOADS = {w.name: w for w in (
    Workload("sweep-tinycnn-64", "cell",
             ("--count", "4", "--size", "64x64"), _sweep_command, _sweep_check),
    Workload("attack-gainmap-256", "cell",
             ("--count", "1", "--size", "256x256"), _attack_command,
             _attack_check),
    Workload("train-tinycnn-64", "epoch",
             ("--count", "12", "--size", "64x64"), _train_command, _train_check),
)}
