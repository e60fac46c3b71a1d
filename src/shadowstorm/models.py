"""Differentiable shadow-removal targets for the attack engine.

Every model exposes exactly two capabilities consumed by the attacks:

  * ``forward(image) -> Image``: deterministic, output clamped to [0, 1];
  * ``vjp(x) -> (ndarray, pullback)``: on an H x W x C array, the same
    clamped output as an array from one forward pass, plus
    ``pullback(cotangent) -> ndarray``, the vector-Jacobian product of the
    forward map with an upstream cotangent array. A pullback runs once,
    and its backward walk frees each tape node as it consumes it: only the
    input leaf keeps a gradient, the one it returns. It holds the output
    node's rule, parents and shape, not its value.

Anything implementing that pair can be attacked; the bundled zoo holds an
identity map (analytic test target), an illumination gain-map corrector,
and a tiny residual CNN with a toy full-batch trainer. Zoo parameters are
constant tensors over read-only arrays and never carry gradient state, so
attacks differentiate the input only; :func:`train_toy` differentiates
fresh leaf tensors over them each epoch, accumulates the full-batch
gradient one image at a time, and stores the step through ``load_state``.
A zoo model declares in ``channels`` the channel count it takes (None for
any), so the CLI can reject an image before any attack.
"""

from __future__ import annotations

import functools
import logging
import math
import struct
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .imagecore import Image, write_atomic
from .rng import Xoshiro256StarStar

log = logging.getLogger(__name__)

GAIN_DENOM_EPS = 1e-3  # floor under the blurred luminance; avoids blow-up at black pixels

PARAMS_MAGIC = b"SSPM"
PARAMS_VERSION = 1


class ParamsError(ValueError):
    """Malformed parameter file."""


class DiffModel(Protocol):
    """The capability pair above. ``vjp`` must be a pure function of its
    input's bits, keeping no state that depends on the call count: the
    attack's exit on a repeat, ``--jobs`` and the anchor rely on it."""

    name: str

    def forward(self, image: Image) -> Image: ...

    def vjp(self, x: np.ndarray
            ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]: ...


class TapeModel:
    """Base for zoo models: implements the capability pair on top of a
    tensor-level ``forward_t(x, params)``. ``LAYOUT`` names the parameter
    tensors and their shapes; ``channels`` is the channel count of the
    images the model takes, None for any."""

    name = "tape"
    LAYOUT: Sequence[tuple[str, tuple[int, ...]]] = ()
    channels: int | None = None

    def __init__(self):
        self.params: dict[str, Tensor] = {}

    def forward_t(self, x: Tensor, params: Mapping[str, Tensor]) -> Tensor:
        raise NotImplementedError

    def forward(self, image: Image) -> Image:
        out = self.forward_t(Tensor(image.data), self.params)
        return Image(self._output(out))

    def vjp(self, x: np.ndarray
            ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        leaf = Tensor(x, requires_grad=True)
        out = self.forward_t(leaf, self.params)
        data = self._output(out)
        if out._backward is not None:
            # the walk reads the root's rule, parents and shape, not its value
            out = Tensor(np.broadcast_to(0.0, out.data.shape), True,
                         out._parents, out._backward)

        def pullback(cotangent: np.ndarray) -> np.ndarray:
            out.backward(cotangent)
            if leaf.grad is None:
                return np.zeros_like(leaf.data)
            return leaf.grad
        return data, pullback

    def _output(self, out: Tensor) -> np.ndarray:
        """The clamped output; NaN in it is a numeric failure, not bad input."""
        data = np.clip(out.data, 0.0, 1.0)
        if not np.all(np.isfinite(data)):
            raise FloatingPointError(f"{self.name} output is not finite")
        return data

    # Kept only as a delegate to vjp: the benchmark tracer binds this name.
    def input_grad(self, image: Image, cotangent: np.ndarray) -> np.ndarray:
        return self.vjp(image.data)[1](cotangent)

    def load_state(self, params: Mapping[str, np.ndarray]) -> None:
        """Replace the parameters with constant tensors over read-only
        float64 copies of `params`, which must match ``LAYOUT`` exactly."""
        unknown = sorted(set(params) - {pname for pname, _ in self.LAYOUT})
        if unknown:
            raise ParamsError(f"unknown parameter tensor '{unknown[0]}'")
        state = {}
        for pname, shape in self.LAYOUT:
            if pname not in params:
                raise ParamsError(f"missing parameter tensor '{pname}'")
            arr = np.array(params[pname], dtype=np.float64)
            if arr.shape != shape:
                raise ParamsError(
                    f"parameter '{pname}' has shape {arr.shape}, expected {shape}")
            arr.flags.writeable = False
            state[pname] = Tensor(arr)
        self.params = state


class IdentityModel(TapeModel):
    name = "identity"

    def forward_t(self, x: Tensor, params: Mapping[str, Tensor]) -> Tensor:
        return x


@functools.lru_cache(maxsize=16)
def _inverse_border_weight(height: int, width: int, radius: int) -> np.ndarray:
    """Reciprocal of the blur mass that falls inside the image; multiplying
    a zero-padded box blur by it undoes the darkening at the borders.
    Cached per shape and radius, so the array is returned read-only."""
    ones = Tensor(np.ones((height, width, 1)))
    inverse = 1.0 / ad.blur2d(ones, ad.box_kernel(radius)).data
    inverse.flags.writeable = False
    return inverse


class GainMapModel(TapeModel):
    """Analytic illumination corrector.

    Brightens dark regions by a spatially varying multiplicative gain
    g = clamp(mu / (blur(luminance) + eps), 1, max_gain), where mu is the
    global mean luminance. Never darkens; fully differentiable.
    """

    def __init__(self, blur_radius: int = 4, max_gain: float = 4.0):
        super().__init__()
        if blur_radius < 1:
            raise ValueError(f"blur_radius must be >= 1, got {blur_radius}")
        if max_gain <= 1.0:
            raise ValueError(f"max_gain must exceed 1, got {max_gain}")
        self.blur_radius = blur_radius
        self.max_gain = max_gain
        self._kernel = ad.box_kernel(blur_radius)
        self.name = f"gainmap(r={blur_radius},g={max_gain:g})"

    def forward_t(self, x: Tensor, params: Mapping[str, Tensor]) -> Tensor:
        h, w = x.data.shape[0], x.data.shape[1]
        lum = ad.mean_channels(x)
        mu = ad.mul(ad.tsum(lum), Tensor(1.0 / (h * w)))
        smooth = ad.mul(ad.blur2d(lum, self._kernel),
                        Tensor(_inverse_border_weight(h, w, self.blur_radius)))
        gain = ad.clamp(ad.div(mu, ad.add(smooth, Tensor(GAIN_DENOM_EPS))),
                        1.0, self.max_gain)
        return ad.clamp(ad.mul(x, gain), 0.0, 1.0)


class TinyCnnModel(TapeModel):
    """Three-layer residual CNN (3->8->8->3, 3x3 kernels, relu, final clamp).

    :func:`model_tinycnn` draws seeded uniform(-0.1, 0.1) weights (`seed`
    only names them; a params file's model is named seed 0); train with
    :func:`train_toy` to get a model that actually removes shadows.
    """

    LAYOUT = (
        ("k1", (3, 3, 3, 8)), ("b1", (8,)),
        ("k2", (3, 3, 8, 8)), ("b2", (8,)),
        ("k3", (3, 3, 8, 3)), ("b3", (3,)),
    )
    channels = dict(LAYOUT)["k1"][2]

    def __init__(self, params: Mapping[str, np.ndarray], seed: int = 0):
        super().__init__()
        self.name = f"tinycnn(seed={seed})"
        self.load_state(params)

    def forward_t(self, x: Tensor, params: Mapping[str, Tensor]) -> Tensor:
        h1 = ad.relu(ad.conv2d(x, params["k1"], params["b1"]))
        h2 = ad.relu(ad.conv2d(h1, params["k2"], params["b2"]))
        res = ad.conv2d(h2, params["k3"], params["b3"])
        return ad.clamp(ad.add(x, res), 0.0, 1.0)


def model_tinycnn(seed: int = 0) -> TinyCnnModel:
    rng = Xoshiro256StarStar(seed)
    return TinyCnnModel({pname: rng.fill_uniform(shape, -0.1, 0.1)
                         for pname, shape in TinyCnnModel.LAYOUT}, seed)


def probe_gradients(model: TapeModel, seed: int, inputs: int,
                    shape: tuple[int, ...]
                    ) -> tuple[list[ad.GradCheckReport], int]:
    """Finite-difference check of the model's input gradient on `inputs`
    random probes, each an input in [0.2, 0.8] and a cotangent in [-1, 1]
    of the given shape, drawn in that order from one stream seeded by
    `seed`.

    A draw can seat a clamp argument within float noise of its bound, where
    central differences are no gradient oracle; a probe with fewer than 95%
    of its coordinates away from kinks is redrawn. Drawing stops once
    `inputs` probes are valid or after `inputs + 6` redraws. Returns the
    valid probes' reports and the number of redraws.
    """
    rng = Xoshiro256StarStar(seed)
    reports: list[ad.GradCheckReport] = []
    redraws = 0
    while len(reports) < inputs and redraws <= inputs + 5:
        x = rng.fill_uniform(shape, 0.2, 0.8)
        cot = Tensor(rng.fill_uniform(shape, -1.0, 1.0))
        report = ad.grad_check(
            lambda t: ad.tsum(ad.mul(model.forward_t(t, model.params), cot)),
            x)
        if report.checked_count < 0.95 * x.size:
            redraws += 1
        else:
            reports.append(report)
    return reports, redraws


class DivergenceError(ArithmeticError):
    """Training loss became non-finite."""


def train_toy(model: TapeModel,
              dataset: Sequence[tuple[Image, Image]],
              epochs: int,
              lr: float,
              on_epoch: Callable[[int, float], None] | None = None,
              ) -> dict[str, np.ndarray]:
    """Full-batch gradient descent on mean squared error.

    dataset holds (shadow, shadow-free) pairs of identical shape. Plain GD
    with no momentum keeps the run deterministic; the trainer draws no
    randomness, so the model's initialization seed fixes the whole run.
    Each epoch differentiates fresh leaf tensors over the parameters and
    stores the step through ``load_state``; a tensor that received no
    gradient keeps its value. The full-batch gradient is
    accumulated one image at a time: each image's loss term is walked back,
    seeded with the cotangent 1 / len(dataset) that the mean would hand
    it, as soon as its forward ends, so only one image's tape is alive at
    a time. The leaves sum the images' shares in dataset order, the order
    a walk of the whole mean's tape reaches them, so gradients and losses
    keep their bits. A non-finite running loss raises
    :class:`DivergenceError` before that term's walk and any step. Returns
    the model's final read-only parameter arrays; per-epoch losses go to
    `on_epoch` and the module logger.
    """
    if not dataset:
        raise ValueError("training dataset must be non-empty")
    shape = dataset[0][0].shape
    for i, (shadow, free) in enumerate(dataset):
        if shadow.shape != free.shape or shadow.shape != shape:
            raise ValueError(
                f"dataset pair {i} has mismatched shapes "
                f"{shadow.shape} vs {free.shape}")
    n_values = int(np.prod(shape))
    weight = 1.0 / len(dataset)
    seed = np.asarray(weight)  # each term's cotangent in the mean's tape

    for epoch in range(epochs):
        leaves = {name: Tensor(p.data, requires_grad=True)
                  for name, p in model.params.items()}
        total = 0.0
        for shadow, free in dataset:
            # only `term` outlives its walk, which frees the image's tape
            term = ad.mul(ad.sqnorm(ad.sub(
                model.forward_t(Tensor(shadow.data), leaves),
                Tensor(free.data))), Tensor(1.0 / n_values))
            total += float(term.data)
            if not math.isfinite(total):
                raise DivergenceError(
                    f"training loss became non-finite at epoch {epoch}; "
                    f"try a smaller lr than {lr}")
            term.backward(seed)
        value = total * weight
        model.load_state({name: leaf.data if leaf.grad is None
                          else leaf.data - lr * leaf.grad
                          for name, leaf in leaves.items()})
        log.debug("epoch %d loss %.6g", epoch, value)
        if on_epoch is not None:
            on_epoch(epoch, value)
    return {name: p.data for name, p in model.params.items()}


def save_params(params: Mapping[str, np.ndarray], path) -> None:
    """Write a named tensor map: magic, version, count, then per tensor the
    name, shape and float64 little-endian payload. Tensors are stored in
    sorted name order so files are byte-stable."""
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"parameter tensor '{name}' contains non-finite values")
    chunks = [PARAMS_MAGIC, struct.pack("<II", PARAMS_VERSION, len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<I", len(encoded)), encoded,
                   struct.pack("<I", arr.ndim),
                   struct.pack(f"<{arr.ndim}I", *arr.shape),
                   arr.astype("<f8").tobytes()]
    write_atomic(path, b"".join(chunks))


def load_params(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != PARAMS_MAGIC:
        raise ParamsError(f"bad magic {raw[:4]!r}, expected {PARAMS_MAGIC!r}")
    if len(raw) < 12:
        raise ParamsError("truncated header")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != PARAMS_VERSION:
        raise ParamsError(f"unsupported version {version}")
    pos = 12

    def take(n: int) -> bytes:
        """The next `n` bytes; struct.error when fewer are left."""
        nonlocal pos
        if len(raw) - pos < n:
            raise struct.error
        pos += n
        return raw[pos - n:pos]

    out: dict[str, np.ndarray] = {}
    for i in range(count):
        label = f"#{i}"
        try:
            (name_len,) = struct.unpack("<I", take(4))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise ParamsError(
                    f"tensor {label} name is not valid UTF-8") from None
            label = repr(name)
            (rank,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{rank}I", take(4 * rank))
            payload = take(math.prod(shape) * 8)
        except struct.error:
            raise ParamsError(
                f"truncated file while reading tensor {label}") from None
        if name in out:
            raise ParamsError(f"duplicate tensor {label}")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ParamsError(f"tensor {label} holds a non-finite value")
        out[name] = arr.reshape(shape)
    if pos != len(raw):
        raise ParamsError(
            f"{len(raw) - pos} trailing bytes after {count} tensors")
    return out
