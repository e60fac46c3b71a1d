"""Benchmark of the shadowstorm CLI: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, nothing is installed. The workload runs in a
fresh child process (client.py) with BLAS and OpenMP pinned to one thread.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, the fingerprints of what the program wrote and
the latency tail.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- process start to the first measured command (interpreter
  and imports, ``gen`` of the dataset); the median over SETUP_SAMPLES fresh
  processes, one of which goes on to run the workload;
* ``unit_time_ref`` -- the cost of one unit of work (a bench cell, an
  attack command or a training epoch) in units of a fixed reference
  computation: the wall time of a command divided by the cells or epochs
  it completed and by the time of the reference kernel (yardstick.py),
  run in a process of its own just before and just after the command;
  the median over the run's commands. Other tenants of a shared host
  slow everything on it by tens of percent for minutes at a time, so a
  time in milliseconds follows the host's load; the ratio follows the
  program's own cost;
* ``peak_rss_mb`` -- peak resident memory of the workload process.

The median and tail latency of one command in milliseconds, with their
sample count, and the median time of the reference kernel are printed on
comment lines.

``--trace 1`` wraps the program's public functions (tracer.py) and reports
per-layer figures per unit of work instead. ``correct`` is true only when
every command exited 0 and every output check in workloads.py passed,
including the byte fingerprints in fingerprints.json for recorded seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
SETUP_SAMPLES = 21
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, workdir: str, deadline: float, setup_only: bool
              ) -> tuple[float, dict]:
    """Start client.py, wait for it, return (its start time, its result)."""
    argv = [sys.executable, os.path.join(HERE, "client.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    started = perf_counter()
    # a session of its own, so that the yardstick process it starts ends
    # with it when the deadline kills it
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return started, json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def unit_costs(res: dict) -> list[float]:
    """Each command's wall time per unit of work over the mean of the
    yardstick times just before and just after it."""
    refs = res["yardstick_s"]
    return [ms / 1000.0 / units / ((before + after) / 2.0)
            for ms, units, before, after in zip(
                res["durations_ms"], res["command_units"], refs, refs[1:])]


def fingerprint_problems(workload: str, seed: int, seen: dict) -> list[str]:
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed), {})
    return [f"{label}: fingerprints {fps} differ from recorded "
            f"{recorded[label]}"
            for label, fps in seen.items()
            if label in recorded and recorded[label] != fps]


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (result object, details). The details are
    the workload process's own result plus ``setup_s_samples`` and every
    problem found, fingerprint mismatches included."""
    if not os.path.isfile(os.path.join(ROOT, "src", "shadowstorm", "cli.py")):
        raise BenchError(f"no shadowstorm sources under {ROOT}/src")
    deadline = perf_counter() + DEADLINE_S
    os.makedirs(WORKDIR, exist_ok=True)
    base = os.path.join(WORKDIR, str(os.getpid()))
    try:
        setups = []

        def setup_probes(first: int, last: int) -> None:
            for i in range(first, last):
                started, probe = run_child(args, f"{base}-setup{i}", deadline,
                                           True)
                setups.append(probe["ready_at"] - started)

        # half of the set-up probes run before the workload and half after
        # it, so one slow phase of the host does not set the whole median
        probes = SETUP_SAMPLES - 1 if args.trace == 0 else 0
        setup_probes(0, probes // 2)
        started, res = run_child(args, f"{base}-run", deadline, False)
        setups.append(res["ready_at"] - started)
        setup_probes(probes // 2, probes)
    finally:
        for name in os.listdir(WORKDIR):
            if name.startswith(f"{os.getpid()}-"):
                shutil.rmtree(os.path.join(WORKDIR, name), ignore_errors=True)
        if not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)

    res["problems"] += fingerprint_problems(
        args.workload, args.seed, res["fingerprints"])
    res["setup_s_samples"] = setups
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "unit_time_ref": {"value": statistics.median(unit_costs(res)),
                              "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return result, res


def report_lines(args, res: dict) -> list[str]:
    """Comment lines printed before the result: environment, fingerprints,
    set-up samples, command latencies and problems."""
    durations = res["durations_ms"]
    tail_at = tail(durations)
    return [f"# env {json.dumps(res['env'], sort_keys=True)}",
            f"# fingerprints {json.dumps(res['fingerprints'], sort_keys=True)}",
            f"# {args.workload} seed {args.seed} trace {args.trace}: "
            f"{len(durations)} commands, {res['attempted']} "
            f"{WORKLOADS[args.workload].unit}s attempted, "
            f"{res['failed']} failed",
            f"# setup_s samples {res['setup_s_samples']}",
            f"# command_ms {durations}",
            f"# yardstick_s {res['yardstick_s']}, median "
            f"{statistics.median(res['yardstick_s'])} s",
            f"# command_latency samples {len(durations)}, p50 "
            f"{statistics.median(durations)} ms, "
            + (f"p{tail_at[0]:g} {tail_at[1]} ms" if tail_at else
               "no percentile above p50 has 10 samples beyond it")
            ] + [f"# problem {p}" for p in res["problems"][:50]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, details = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(args, details)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
