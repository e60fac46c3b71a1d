"""Seeded mutation fuzz of every file reader (random-input testing after
Miller et al., CACM 1990).

Bytes of a valid 32x32 shadow PPM, mask PGM and shadow-free PPM, and of a
tinycnn `.sspm`, are flipped, inserted, deleted, truncated and extended.
Each mutant runs through `cli.main`, as an `attack` input and, for the PNM
files, as a member of a `bench` triplet directory, and through the reader
it reaches. No command reads the dataset's `manifest.tsv`, so it is not
mutated.
"""

import contextlib
import os
import shutil

import pytest

from shadowstorm.cli import main
from shadowstorm.imagecore import PnmError, load_mask, load_pnm
from shadowstorm.models import (ParamsError, load_params, model_tinycnn,
                                save_params)
from shadowstorm.rng import Xoshiro256StarStar, derive_seed
from shadowstorm.synthdata import (SynthConfig, TripletDirError, gen_dataset,
                                   load_triplet_dir)

SEED = 1990
MUTANTS = 100  # per target and command
HEADER = 64  # half the edits land in the first bytes, where the headers are
BYTES = b" \t\n#0123456789P56-+\x00\xff"  # bytes that header fields are made of
READER_ERRORS = (PnmError, ParamsError, TripletDirError)
PNM_FILES = ("shadow_0000.ppm", "mask_0000.pgm", "free_0000.ppm")
FILES = (*PNM_FILES, "tinycnn.sspm")


def mutate(rng: Xoshiro256StarStar, raw: bytes) -> bytes:
    """One to three random edits of `raw`."""
    raw = bytearray(raw)
    for _ in range(rng.randint(1, 3)):
        span = min(len(raw), HEADER if rng.random() < 0.5 else len(raw))
        at = rng.randint(0, max(span - 1, 0))
        byte = (BYTES[rng.randint(0, len(BYTES) - 1)] if rng.random() < 0.5
                else rng.randint(0, 255))
        edit = rng.randint(0, 4)
        if edit == 0:
            raw[at:at + 1] = [byte]  # flip
        elif edit == 1:
            raw[at:at] = [byte]  # insert
        elif edit == 2:
            del raw[at:at + 1]  # delete
        elif edit == 3:
            del raw[at:]  # truncate
        else:
            raw += bytes([byte]) * rng.randint(1, 16)  # extend
    return bytes(raw)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A one-triplet 32x32 dataset and a tinycnn parameter file."""
    path = tmp_path_factory.mktemp("valid")
    gen_dataset(SynthConfig(seed=5, count=1, height=32, width=32), path)
    save_params({name: p.data for name, p
                 in model_tinycnn(seed=0).params.items()}, path / "tinycnn.sspm")
    return path


def run_main(argv, out, capsys, named=None):
    """Run `main`: it must return a documented exit code, write nothing on
    a usage or file error, and name `named` (a mutated PNM file) on a file
    error."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3, 4), err
    if rc in (2, 3):
        assert os.listdir(out) == [], err
    if rc == 3 and named is not None:
        assert str(named) in err
    return rc


def mutants(valid, name, stream):
    rng = Xoshiro256StarStar(derive_seed(SEED, stream))
    raw = (valid / name).read_bytes()
    return [mutate(rng, raw) for _ in range(MUTANTS)]


@pytest.mark.parametrize("name", FILES)
def test_attack_input_mutants(valid, tmp_path, capsys, name):
    """Each mutant as the `attack` input it was made from: the image, the
    mask, the shadow-free image or the model."""
    inputs = {"--image": valid / "shadow_0000.ppm",
              "--mask": valid / "mask_0000.pgm",
              "--free": valid / "free_0000.ppm", "--model": "gainmap"}
    flag = {"shadow_0000.ppm": "--image", "mask_0000.pgm": "--mask",
            "free_0000.ppm": "--free", "tinycnn.sspm": "--model"}[name]
    mutant = inputs[flag] = tmp_path / name
    codes = set()
    for i, raw in enumerate(mutants(valid, name, FILES.index(name))):
        mutant.write_bytes(raw)
        if name.endswith(".sspm"):
            with contextlib.suppress(ParamsError):
                load_params(mutant)
        else:
            for reader in (load_pnm, load_mask):
                with contextlib.suppress(PnmError):
                    reader(mutant)
        out = tmp_path / f"out{i}"
        out.mkdir()
        argv = ["attack", "--mode", "uniform", "--eps", "4/255", "--iters",
                "1", "--out-prefix", str(out / "x")]
        for key, value in inputs.items():
            argv += [key, str(value)]
        codes.add(run_main(argv, out, capsys,
                           named=None if flag == "--model" else mutant))
    assert 3 in codes  # the mutants reach the readers' error branches


@pytest.mark.parametrize("name", PNM_FILES)
def test_bench_member_mutants(valid, tmp_path, capsys, name):
    """Each mutant as one member of a `bench` triplet directory."""
    data = tmp_path / "data"
    shutil.copytree(valid, data)
    codes = set()
    stream = len(FILES) + PNM_FILES.index(name)
    for i, raw in enumerate(mutants(valid, name, stream)):
        (data / name).write_bytes(raw)
        with contextlib.suppress(*READER_ERRORS):
            load_triplet_dir(data)
        out = tmp_path / f"out{i}"
        out.mkdir()
        codes.add(run_main(
            ["bench", "--dataset", str(data), "--budgets", "4/255",
             "--modes", "uniform", "--iters", "1", "--out",
             str(out / "bench.csv")], out, capsys, named=data / name))
    assert 3 in codes
