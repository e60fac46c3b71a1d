"""One workload process of the shadowstorm benchmark.

Started by run.py, never by hand. It sets up (imports, ``gen`` from the
workload seed), then drives ``shadowstorm.cli.main`` as a closed loop of
one client until the next command would end past ``--seconds``. After
every command it checks the files the command wrote. It prints one JSON
object as its last line; ``ready_at`` is the ``time.perf_counter`` value
(CLOCK_MONOTONIC, shared across processes) at which set-up ended, and
``yardstick_s`` the time of the reference kernel (yardstick.py) before
the first command and after each one.

With ``--setup-only`` it stops after set-up, so run.py can time set-up in
several fresh processes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from workloads import WORKLOADS, fingerprint  # noqa: E402  (script import)


def run_cli(main, argv, tracer):
    """Run one CLI command with its console output captured; returns
    (exit code or None when it raised, captured text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.main", main, argv)
    except Exception:  # a crash is one failed command; the loop goes on
        return None, sink.getvalue() + traceback.format_exc()
    return code, sink.getvalue()


class Yardstick:
    """The reference kernel of yardstick.py, in a process of its own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "yardstick.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the yardstick process ended early")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "shadowstorm")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "commit": git_commit(),
        "src_sha256_16": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    from shadowstorm import cli
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    data = os.path.join(args.workdir, "data")
    code, text = run_cli(cli.main, ["gen", "--seed", str(args.seed),
                                    *workload.gen_args, "--out", data], tracer)
    if code != 0:
        print(f"gen failed ({code}): {text}", file=sys.stderr)
        return 3
    ready_at = perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    if tracer is not None:
        tracer.start_measuring()
    durations: list[float] = []
    command_units: list[int] = []
    attempted = failed = 0
    problems: list[str] = []
    fingerprints: dict[str, dict[str, str]] = {}
    yardstick = Yardstick()
    try:
        yardstick_s = [yardstick.time()]
        loop_start = perf_counter()
        index = 0
        while True:
            out = os.path.join(args.workdir, f"out{index}")
            os.makedirs(out)
            command = workload.command(index, data, out)
            if tracer is not None:
                tracer.begin_command()
                tracer.next_unit()
            started = perf_counter()
            code, text = run_cli(cli.main, command.argv, tracer)
            took = perf_counter() - started
            if tracer is not None:
                tracer.end_command()
            yardstick_s.append(yardstick.time())

            bad, found = workload.check(command, out)
            if code != 0:
                found.insert(0, f"{command.label}: exit code {code}: "
                                f"{text.strip()[-400:]}")
                bad = bad or command.units
            problems += found
            fps = fingerprint(out)
            seen = fingerprints.setdefault(command.label, fps)
            if seen != fps:
                problems.append(f"{command.label}: output bytes differ "
                                f"between repeats: {seen} vs {fps}")
            shutil.rmtree(out)
            # a CLI user gets a fresh process per command: free this
            # command's reference cycles before the next one, outside the
            # timed region
            gc.collect()
            durations.append(took)
            command_units.append(command.units)
            attempted += command.units
            failed += bad
            index += 1
            if perf_counter() - loop_start + took > args.seconds:
                break
    finally:
        yardstick.close()

    units = attempted - failed
    wall_ms = sum(durations) * 1000.0
    result = {
        "ready_at": ready_at,
        "attempted": attempted,
        "failed": failed,
        "durations_ms": [d * 1000.0 for d in durations],
        "command_units": command_units,
        "yardstick_s": yardstick_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": problems,
        "fingerprints": fingerprints,
        "layers": (tracer.layer_metrics(units, wall_ms)
                   if tracer is not None else None),
        "env": environment(args.seed),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
