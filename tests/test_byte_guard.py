"""Byte identity of small gen, attack, bench, train and gradcheck runs.

The bench and train digests were recorded from the code before the
single-pass `vjp` protocol, the gen digests from the code before the
generator's soft-mask blur moved onto `autodiff.blur2d`, the attack
digests from the code before the channel-sum and shared-metric passes, the
digest of a bench of a params file from the code that drew seed-0 weights
before loading the file's, the gradcheck digest from the code in which
gradcheck's finite-difference step and tolerance were flags; a change that moves them changes what the CLI
writes and must say so. The bench CSV is hashed without its `# dataset`
line, which holds a temporary path.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from shadowstorm.cli import main

GEN_DIGESTS = {
    "free_0000.ppm":
        "55c3cdeb15aedce2f113fc9e2b0812d83c227312bb9afe0a7e1c2c51243c743c",
    "free_0001.ppm":
        "56449eb223ebe7374c70adf44f366927917a68a3d5a1e5e216151bdab7ed28d3",
    "manifest.tsv":
        "ffc96386f7074269505c10b3e93b4eb18810464ff06537c636dc5827c48c8ee3",
    "mask_0000.pgm":
        "872956dc698a13ccadd264c6c54ab410a6fae930e3c208655e127b1214d53f1a",
    "mask_0001.pgm":
        "c693feff891a4e2eb45a64ca07163f613dbbc635e7b9b4899b5a02b3adfa6d73",
    "shadow_0000.ppm":
        "40aec1fa84c415bef0b5ae76722ef92af0f8c758e9a2e6f6b9bb390196733855",
    "shadow_0001.ppm":
        "b57459e0e9d1859fca2107b29eb984f99695227287a9d98e0286bcc75be135f0",
}
ATTACK_DIGESTS = {
    "a.csv":
        "491e0ad8a0de8ee24f26e9cb87f831b6d9c9b18423529df8239a5cb1cd840d27",
    "a_attacked.ppm":
        "5f33e97723b059f4d88d8f1eb9239187cc9d793636019efd1c914921abd74257",
    "a_delta_viz.ppm":
        "97caf6cf7aca7f6f23a36a97227154c03f997d389b727ce98d5226289c7f09fc",
    "a_normmap.ppm":
        "9908543571f5c5ca551da72014f2ff69845739f62633a370c12147cd8aeb770d",
}
BENCH_DIGESTS = {
    "gainmap": (
        "dde52238ea1e3c5f8611190bd693fc94ae496d832ef92998ddd7a6ac2da15861",
        "5992769a219ad1b27aa238c98b800913205d03a88f5a1d1b3f467694c0f80cbf"),
    "tinycnn": (
        "f190091a6d9282dda98cf98db25e57164be09f7899d5dce58282cdd9a3474a3d",
        "e8cfd5f1adc87b96c396d8e67b78a7bebd9b6a818f4dce26d7dc0f4f38064687"),
}
PARAMS_BENCH_DIGEST = (
    "1deb00eb835ed7fd429d0a683292d046c35d8611cfc8484b6594759b40f23c82")
TRAIN_PARAMS_DIGEST = (
    "df957daeabaf788836fe01ab0b0fccaeed3c5fe01c926f9da5a503042b9e03a2")
TRAIN_LOSSLOG_DIGEST = (
    "6febc2ef9755366b9150589cba5999b47e42e6dfbe06c7ce97614f4acb3a300c")
GRADCHECK_DIGEST = (
    "6734265a58e7482d3a1bac561f7ce5189193ae25f876b372a1b515e112fa0a27")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("guard") / "ds"
    assert main(["gen", "--seed", "1", "--count", "2", "--size", "32x32",
                 "--out", str(path)]) == 0
    return path


def test_gen_bytes(small_dataset):
    assert {path.name: sha256(path.read_bytes())
            for path in small_dataset.iterdir()} == GEN_DIGESTS


def test_attack_bytes(small_dataset, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["attack", "--model", "gainmap", "--mode", "adaptive",
                 "--eps", "16/255", "--iters", "5",
                 "--image", str(small_dataset / "shadow_0000.ppm"),
                 "--mask", str(small_dataset / "mask_0000.pgm"),
                 "--free", str(small_dataset / "free_0000.ppm"),
                 "--out-prefix", str(out / "a")]) == 0
    assert {path.name: sha256(path.read_bytes())
            for path in out.iterdir()} == ATTACK_DIGESTS


@pytest.mark.parametrize("model", sorted(BENCH_DIGESTS))
def test_bench_bytes(small_dataset, tmp_path, model):
    out = tmp_path / f"{model}.csv"
    assert main(["bench", "--dataset", str(small_dataset), "--model", model,
                 "--iters", "5", "--out", str(out)]) == 0
    lines = [line for line in out.read_bytes().split(b"\n")
             if not line.startswith(b"# dataset")]
    csv_digest, plot_digest = BENCH_DIGESTS[model]
    assert sha256(b"\n".join(lines)) == csv_digest
    assert sha256((tmp_path / f"{model}.plot").read_bytes()) == plot_digest


def test_train_bytes(small_dataset, tmp_path):
    out = tmp_path / "p.sspm"
    assert main(["train", "--dataset", str(small_dataset), "--epochs", "3",
                 "--lr", "0.2", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == TRAIN_PARAMS_DIGEST
    assert sha256((tmp_path / "p.sspm.losslog.csv").read_bytes()) \
        == TRAIN_LOSSLOG_DIGEST


def test_bench_params_file_bytes(small_dataset, tmp_path):
    """A bench of a trained `.sspm`: the file's model keeps the name
    `tinycnn(seed=0)` in the CSV's `# model` line."""
    params = tmp_path / "p.sspm"
    assert main(["train", "--dataset", str(small_dataset), "--epochs", "3",
                 "--lr", "0.2", "--out", str(params)]) == 0
    out = tmp_path / "p.csv"
    assert main(["bench", "--dataset", str(small_dataset), "--model",
                 str(params), "--iters", "5", "--out", str(out)]) == 0
    lines = [line for line in out.read_bytes().split(b"\n")
             if not line.startswith(b"# dataset")]
    assert b"# model tinycnn(seed=0)" in lines
    assert sha256(b"\n".join(lines)) == PARAMS_BENCH_DIGEST


def test_gradcheck_report_bytes(capsys):
    """The report of a gradcheck of the whole zoo, recorded while its
    finite-difference step and tolerance were still flags."""
    assert main(["gradcheck", "--model", "all", "--inputs", "1",
                 "--size", "12x12"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) \
        == GRADCHECK_DIGEST


def rerun(selection, **env) -> str:
    """Run the tests that pytest's `selection` arguments pick in a fresh
    process with `env` added; returns pytest's output."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *selection],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=dict(os.environ, **env), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("threads", ["1", "2"])
def test_digests_hold_under_blas_threads(threads):
    """The digests above, recomputed in a fresh process with OpenBLAS
    limited to `threads` threads, so each thread count writes the same
    bytes."""
    assert "7 passed" in rerun(
        [__file__, "-k", "not blas_threads and not openblas_cores"],
        OPENBLAS_NUM_THREADS=threads)


@pytest.mark.parametrize("core", ["SkylakeX", "Haswell", "Prescott"])
def test_gen_bytes_hold_under_openblas_cores(core):
    """The gen digests, recomputed in a fresh process whose OpenBLAS runs
    the `core` kernels, as it picks them on a CPU of that type. The attack,
    bench and train digests hold on the `SkylakeX` core only: SSIM's
    filter and conv2d's kernel VJP round differently under the others."""
    assert "1 passed" in rerun([f"{__file__}::test_gen_bytes"],
                               OPENBLAS_CORETYPE=core)


@pytest.mark.parametrize("core", ["SkylakeX", "Haswell", "Prescott"])
def test_conv2d_kernel_grad_holds_under_openblas_cores(core):
    """conv2d's kernel gradient, recomputed in a fresh process under the
    `core` kernels, has the bits of a per-tap tensordot under that core.
    Its forward and input VJP do not on every core (see conv2d)."""
    tests = os.path.dirname(os.path.abspath(__file__))
    assert "10 passed" in rerun(
        [os.path.join(tests, "test_autodiff.py"),
         "-k", "test_kernel_grad_matches_per_tap_loop"],
        OPENBLAS_CORETYPE=core)
