"""Byte identity of small bench and train runs.

The expected digests were recorded from the code before the single-pass
`vjp` protocol; a change that moves them changes what the CLI writes and
must say so. The CSV is hashed without its `# dataset` line, which holds
a temporary path.
"""

import hashlib

import pytest

from shadowstorm.cli import main

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
