"""The benchmark tracer (perfbench/tracer.py) against the program it wraps.

The tracer times a backward rule by replacing a node's `_backward` with a
`functools.partial` around it, so it depends on the tape's calling
convention. It rebinds module attributes for good, so it runs in a
subprocess of its own.
"""

import json
import os
import subprocess
import sys

from shadowstorm.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_RUN = """
import json, sys
sys.path.insert(0, {perfbench!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
from shadowstorm.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({{"codes": codes,
                  "spans": sorted({{span[0] for span in tracer.spans}})}}))
"""


def commands(dataset, out):
    return [
        ["attack", "--mode", "adaptive", "--eps", "8/255", "--iters", "2",
         "--model", "gainmap", "--image", str(dataset / "shadow_0000.ppm"),
         "--mask", str(dataset / "mask_0000.pgm"),
         "--out-prefix", str(out / "attack")],
        ["bench", "--dataset", str(dataset), "--model", "tinycnn",
         "--budgets", "4/255", "--modes", "uniform", "--iters", "2",
         "--out", str(out / "bench.csv")],
    ]


def test_traced_run_records_vjps_and_writes_the_same_bytes(tmp_path):
    dataset = tmp_path / "ds"
    assert main(["gen", "--seed", "2", "--count", "1", "--size", "32x32",
                 "--out", str(dataset)]) == 0
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    assert [main(argv) for argv in commands(dataset, plain)] == [0, 0]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         TRACED_RUN.format(perfbench=os.path.join(ROOT, "perfbench")),
         json.dumps(commands(dataset, traced))],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert {"autodiff.blur2d", "autodiff.blur2d_vjp", "autodiff.conv2d",
            "autodiff.conv2d_vjp"} <= set(report["spans"])

    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(traced))
    assert len(names) == 6
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
