"""Byte identity of small gen, bench and train runs.

The bench and train digests were recorded from the code before the
single-pass `vjp` protocol, the gen digests from the code before the
generator's soft-mask blur moved onto `autodiff.blur2d`; a change that
moves them changes what the CLI writes and must say so. The CSV is hashed
without its `# dataset` line, which holds a temporary path.
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
BENCH_DIGESTS = {
    "gainmap": (
        "dde52238ea1e3c5f8611190bd693fc94ae496d832ef92998ddd7a6ac2da15861",
        "5992769a219ad1b27aa238c98b800913205d03a88f5a1d1b3f467694c0f80cbf"),
    "tinycnn": (
        "f190091a6d9282dda98cf98db25e57164be09f7899d5dce58282cdd9a3474a3d",
        "e8cfd5f1adc87b96c396d8e67b78a7bebd9b6a818f4dce26d7dc0f4f38064687"),
}
TRAIN_PARAMS_DIGEST = (
    "df957daeabaf788836fe01ab0b0fccaeed3c5fe01c926f9da5a503042b9e03a2")
TRAIN_LOSSLOG_DIGEST = (
    "6febc2ef9755366b9150589cba5999b47e42e6dfbe06c7ce97614f4acb3a300c")


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_digests_hold_under_blas_threads(threads):
    """The digests above, recomputed in a fresh process with OpenBLAS
    limited to `threads` threads, so each thread count writes the same
    bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "not blas_threads"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout
