"""The benchmark tracer (perfbench/tracer.py) against the program it wraps.

The tracer times a backward rule by replacing a node's `_backward` with a
`functools.partial` around it, so it depends on the tape's calling
convention. Its `models.param_grad_leak` count reads `.grad` on each
parameter of every model a command loaded. It rebinds module attributes
for good, so it runs in a subprocess of its own.
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
codes, checked = [], []
for argv in json.loads(sys.argv[1]):
    tracer.begin_command()
    codes.append(main(argv))
    tracer.end_command()
    checked.append(sum(len(model.params) for model in tracer._models))
print(json.dumps({{"codes": codes, "checked": checked,
                  "leak": tracer.param_grad_leak,
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
        ["train", "--dataset", str(dataset), "--epochs", "2", "--lr", "0.2",
         "--out", str(out / "cnn.sspm")],
        ["attack", "--mode", "uniform", "--eps", "4/255", "--iters", "2",
         "--model", str(out / "cnn.sspm"),
         "--image", str(dataset / "shadow_0000.ppm"),
         "--out-prefix", str(out / "cnn")],
    ]


def test_traced_run_records_vjps_and_writes_the_same_bytes(tmp_path):
    dataset = tmp_path / "ds"
    assert main(["gen", "--seed", "2", "--count", "1", "--size", "32x32",
                 "--out", str(dataset)]) == 0
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    assert [main(argv) for argv in commands(dataset, plain)] == [0] * 4

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
    assert report["codes"] == [0] * 4
    # the tinycnn bench and the attack of the trained file each loaded a
    # model with 6 parameter tensors, and none came back with a .grad
    assert report["checked"] == [0, 6, 0, 6]
    assert report["leak"] == 0
    assert {"autodiff.blur2d", "autodiff.blur2d_vjp", "autodiff.conv2d",
            "autodiff.conv2d_vjp"} <= set(report["spans"])

    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(traced))
    assert len(names) == 12
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
