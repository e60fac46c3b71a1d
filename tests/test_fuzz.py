"""Seeded mutation fuzz of every file reader (random-input testing after
Miller et al., CACM 1990), and the budget edges of the threat model.

Bytes of a valid 32x32 shadow PPM, mask PGM and shadow-free PPM, and of a
tinycnn `.sspm`, are flipped, inserted, deleted, truncated and extended.
Each mutant runs through `cli.main`, as an `attack` input and, for the PNM
files, as a member of a `bench` triplet directory, and through the reader
it reaches. No command reads the dataset's `manifest.tsv`, so it is not
mutated.

Budgets at the edges of the accepted range run through `attack` and
`bench` on constant and mixed 16x16 images: each exits with a documented
code, a rejected budget leaves nothing behind, and an accepted one gives
rows whose perturbation norms hold the budget (a QuickCheck-style property,
after Claessen & Hughes, ICFP 2000).
"""

import contextlib
import csv
import os
import shutil

import numpy as np
import pytest

from shadowstorm.attack import MODES, STEP_DIVISOR, AttackConfig, _radius
from shadowstorm.cli import main
from shadowstorm.imagecore import (INTENSITY_FLOOR, Image, PnmError,
                                   ShadowMask, effective_intensity, load_mask,
                                   load_pnm, save_mask, save_pnm)
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


def smallest_budget() -> float:
    """The smallest budget whose smallest step, on a pixel at the
    intensity floor, is a normal float."""
    def normal_step(eps):
        return eps / STEP_DIVISOR * INTENSITY_FLOOR >= np.finfo(float).tiny
    eps = np.finfo(float).tiny * STEP_DIVISOR / INTENSITY_FLOOR
    while not normal_step(eps):
        eps = np.nextafter(eps, 1.0)
    while normal_step(np.nextafter(eps, 0.0)):
        eps = np.nextafter(eps, 0.0)
    return float(eps)


FLOOR = smallest_budget()
EDGE_BUDGETS = {"5e-324": 5e-324, "1e-310": 1e-310,
                "below-floor": float(np.nextafter(FLOOR, 0.0)),
                "floor": FLOOR, "1/255": 1 / 255, "1-2^-53": 1 - 2.0 ** -53}
PRINTED = 1e-8  # relative error of a budget printed to 9 significant digits


@pytest.mark.parametrize("mode", MODES)
def test_attack_config_budget_floor(mode):
    """A budget is accepted exactly when its smallest step is a normal
    float."""
    assert AttackConfig(mode=mode, epsilon=FLOOR).epsilon == FLOOR
    for budget in EDGE_BUDGETS.values():
        if budget < FLOOR:
            with pytest.raises(ValueError, match="epsilon must lie"):
                AttackConfig(mode=mode, epsilon=budget)


def test_step_keeps_the_bits_of_the_former_formula():
    """The step, the radius over STEP_DIVISOR, equals the former
    (epsilon / STEP_DIVISOR) * max(I, 1/255) bit for bit, on seeded budgets
    log-uniform from the floor to 1 - 2**-53."""
    rng = Xoshiro256StarStar(derive_seed(SEED, 100))
    top = 1.0 - 2.0 ** -53
    drawn = np.exp(rng.fill_uniform((200,), np.log(FLOOR), 0.0))
    budgets = [FLOOR, top, *np.clip(drawn, FLOOR, top)]
    intensities = np.concatenate([[0.0, 1e-300, INTENSITY_FLOOR, 0.5, 1.0],
                                  rng.fill((995,))])
    image = Image(intensities.reshape(50, 20, 1))
    for eps in map(float, budgets):
        uniform = AttackConfig(mode="uniform", epsilon=eps)
        assert _radius(image, uniform) / STEP_DIVISOR == eps / STEP_DIVISOR
        adaptive = AttackConfig(mode="adaptive", epsilon=eps)
        former = (eps / STEP_DIVISOR) * effective_intensity(image)
        step = _radius(image, adaptive) / STEP_DIVISOR
        assert step.tobytes() == former.tobytes(), eps


@pytest.fixture(scope="module")
def edge_images(tmp_path_factory):
    """16x16 black, 0.2-gray, 0.5-gray and white PGMs, and a PPM holding
    all four levels."""
    path = tmp_path_factory.mktemp("edge")
    levels = {"black": 0.0, "gray20": 0.2, "gray50": 0.5, "white": 1.0}
    for name, level in levels.items():
        save_pnm(Image(np.full((16, 16, 1), level)), path / f"{name}.pgm")
    mixed = np.zeros((16, 16, 3))
    mixed[:8, :, 0], mixed[:, :8, 1], mixed[..., 2] = 1.0, 0.2, 0.5
    save_pnm(Image(mixed), path / "mixed.ppm")
    return path


@pytest.fixture(scope="module")
def edge_dataset(edge_images, tmp_path_factory):
    """Triplets of the black and of the mixed image, with a mask whose
    left half is shadow."""
    path = tmp_path_factory.mktemp("edge_data")
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[:, :8] = 1
    for index, name in enumerate(("black.pgm", "mixed.ppm")):
        image = load_pnm(edge_images / name)
        if image.channels == 1:
            image = Image(np.repeat(image.data, 3, axis=2))
        for kind in ("shadow", "free"):
            save_pnm(image, path / f"{kind}_{index:04d}.ppm")
        save_mask(ShadowMask(mask), path / f"mask_{index:04d}.pgm")
    return path


def run_edge(argv, out, capsys, budget, flag):
    """Run `main` at one budget: below the floor it must exit 2 while the
    flags are parsed and write nothing; at or above it, it must exit with a
    documented code and write rows that hold the budget. Returns the exit
    code."""
    rc = main(argv)
    err = capsys.readouterr().err
    if budget < FLOOR:
        assert rc == 2, err
        assert f"argument {flag}: budget must lie in (0, 1)" in err
        assert os.listdir(out) == []
        return rc
    assert rc in (0, 1, 4), err
    if rc in (0, 1):
        table = out / next(n for n in os.listdir(out) if n.endswith(".csv"))
        rows = list(csv.DictReader(line for line in table.read_text()
                                   .splitlines() if not line.startswith("#")))
        assert rows or rc == 1
        for row in rows:
            assert row["epsilon_nominal"] == format(budget, ".9g")
            assert float(row["linf"]) > 0.0, row  # the budget moved a pixel
            if row["mode"] == "uniform":
                assert float(row["linf"]) \
                    <= float(row["epsilon_effective"]) * (1 + PRINTED), row
            else:
                assert float(row["linf_normalized"]) \
                    <= budget * (1 + PRINTED), row
    return rc


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("budget", EDGE_BUDGETS.values(),
                         ids=EDGE_BUDGETS.keys())
def test_attack_edge_budgets(edge_images, tmp_path, capsys, budget, mode):
    """Each edge budget in each mode, on each edge image."""
    for image in sorted(edge_images.iterdir()):
        out = tmp_path / image.stem
        out.mkdir()
        rc = run_edge(["attack", "--mode", mode, "--eps", repr(budget),
                       "--iters", "2", "--image", str(image),
                       "--out-prefix", str(out / "x")],
                      out, capsys, budget, "--eps")
        assert rc == (2 if budget < FLOOR else 0)


@pytest.mark.parametrize("equalize", [False, True], ids=["plain", "equalize"])
@pytest.mark.parametrize("budget", EDGE_BUDGETS.values(),
                         ids=EDGE_BUDGETS.keys())
def test_bench_edge_budgets(edge_dataset, tmp_path, capsys, budget, equalize):
    """Each edge budget through a sweep of both modes. With --equalize the
    uniform budget of the black image is 0, below the floor: the sweep
    exits 2 naming that triplet and the budget before any attack, and
    writes nothing."""
    out = tmp_path / "out"
    out.mkdir()
    argv = ["bench", "--dataset", str(edge_dataset), "--budgets",
            repr(budget), "--iters", "2", "--out", str(out / "r.csv")]
    if not equalize or budget < FLOOR:
        rc = run_edge(argv + ["--equalize"] * equalize, out, capsys, budget,
                      "--budgets")
        assert rc == (2 if budget < FLOOR else 0)
        return
    assert main(argv + ["--equalize"]) == 2
    err = capsys.readouterr().err
    assert (f"triplet 0000: equalized uniform budget of "
            f"{format(budget, '.9g')} must lie in (0, 1)") in err
    assert os.listdir(out) == []
