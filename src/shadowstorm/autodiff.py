"""Reverse-mode differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array and records the operations that
produced it; calling :meth:`Tensor.backward` on a scalar result walks the
tape in reverse topological order and accumulates exact vector-Jacobian
products into every reachable tensor with ``requires_grad``.

The primitive set is deliberately small and holds only what the model zoo
and its trainer use: element-wise add/sub/mul/div and scaling, relu,
clamp, 2-D convolution (stride 1, zero-padded to same size), depthwise
blur with a fixed kernel, the channel mean, the sum and the squared l2
norm. Primitives are module-level functions; Tensor has no operator
overloads. Images and feature maps are (height, width, channels) arrays;
scalars are 0-d.

Gradient conventions (documented because they matter for attacks):
  * clamp is straight-through strictly inside its bounds, 0 at and beyond;
  * relu's gradient at exactly 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np


class ShapeMismatchError(ValueError):
    pass


def _shape_check(op: str, a: np.ndarray, b: np.ndarray) -> None:
    """Allow equal shapes or numpy-broadcastable ones (scalars, size-1 axes)."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def _sum_last(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as size 1: its slices added in order to
    a +0.0 accumulator. numpy adds up to 7 entries the same way, so the
    bits equal np.sum's and np.mean's for 1-7 entries (images have 1 or 3
    channels); from 8 entries on its pairwise unroll rounds differently."""
    acc = np.zeros(a.shape[:-1] + (1,))
    for k in range(a.shape[-1]):
        acc += a[..., k:k + 1]
    return acc


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = (_sum_last(grad) if axis == grad.ndim - 1
                    else grad.sum(axis=axis, keepdims=True))
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward",
                 "_backward_done", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _parents=(),
                 _backward: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        """Add `g` of this tensor's shape to the gradient. A first gradient
        is a new array, g + 0.0: the bits of zeros + g, as -0.0 + 0.0 = +0.0."""
        if g.shape != self.data.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} does not match tensor shape "
                f"{self.data.shape}")
        if self.grad is None:
            self.grad = g + 0.0
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Without `seed` this tensor must be scalar (the loss) and is seeded
        with 1.0. With `seed` (an array matching this tensor's shape) the
        call computes the corresponding vector-Jacobian product instead.
        A tape can only be walked once; build a fresh graph to re-derive.
        Every walked node drops its backward closure and parents afterwards:
        a model's pullback still holds its output node, which would
        otherwise keep the whole tape alive as long as the pullback.
        """
        if self._backward_done:
            raise RuntimeError("backward called twice on the same tape; "
                               "rebuild the graph to differentiate again")
        if seed is None:
            if self.data.size != 1:
                raise ValueError(
                    f"backward without a seed requires a scalar, got shape "
                    f"{self.data.shape}")
            seed = np.ones_like(self.data)
        self._accumulate(np.asarray(seed, dtype=np.float64))
        self._backward_done = True

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            # a backward rule may leave a parent without any contribution
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        for node in topo:
            if node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.data)
            node._backward = None
            node._parents = ()


def _make(data: np.ndarray, parents: tuple[Tensor, ...],
          back: Callable[[np.ndarray], None]) -> Tensor:
    """Create an op output; records the tape, with `back(g)` as its rule,
    only if some parent needs grad, so a one-parent rule may assume it does."""
    if not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=parents, _backward=back)


def add(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("add", a.data, b.data)
    data = a.data + b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))
    return _make(data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("sub", a.data, b.data)
    data = a.data - b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))
    return _make(data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("mul", a.data, b.data)
    data = a.data * b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))
    return _make(data, (a, b), back)


def div(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("div", a.data, b.data)
    data = a.data / b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(
                -g * a.data / (b.data * b.data), b.data.shape))
    return _make(data, (a, b), back)


def smul(a: Tensor, scalar: float) -> Tensor:
    data = a.data * scalar

    def back(g):
        a._accumulate(g * scalar)
    return _make(data, (a,), back)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def back(g):
        a._accumulate(g * (a.data > 0.0))
    return _make(data, (a,), back)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only strictly inside the bounds."""
    data = np.clip(a.data, lo, hi)

    def back(g):
        a._accumulate(g * ((a.data > lo) & (a.data < hi)))
    return _make(data, (a,), back)


def clamp01(a: Tensor) -> Tensor:
    return clamp(a, 0.0, 1.0)


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def back(g):
        a._accumulate(np.broadcast_to(g, a.data.shape))
    return _make(data, (a,), back)


def mean_channels(a: Tensor) -> Tensor:
    """(H, W, C) -> (H, W, 1) average over the channel axis."""
    if a.data.ndim != 3:
        raise ShapeMismatchError(
            f"mean_channels: expected HxWxC input, got shape {a.data.shape}")
    channels = a.data.shape[2]
    data = _sum_last(a.data) / channels

    def back(g):
        a._accumulate(np.broadcast_to(g / channels, a.data.shape))
    return _make(data, (a,), back)


def sqnorm(a: Tensor) -> Tensor:
    """Squared l2 norm over all entries (scalar output)."""
    data = np.asarray(np.sum(a.data * a.data))

    def back(g):
        a._accumulate(g * 2.0 * a.data)
    return _make(data, (a,), back)


def _pad_flat(a: np.ndarray, kshape: tuple[int, ...], op: str
              ) -> tuple[np.ndarray, int, int]:
    """The tap layout of conv2d and blur2d. Returns (flat, wp, rows): the
    (H, W, C) array `a` zero-padded to same size for the odd kernel dims
    (kh, kw) = kshape[:2], as one C-ordered ((H + kh - 1) * wp, C) list of
    pixels, wp = W + kw - 1.

    Tap (i, j) sees all outputs as one contiguous block of that list,
    flat[i * wp + j:][:rows] with rows = (H - 1) * wp + W, so a tap reads
    no slice copy. The block runs in rows of width wp; the kw - 1 extra
    columns per output row are computed and dropped, and a VJP scatters its
    cotangent at the same offsets, widened by zero columns (_widen). The
    bits are those of a per-tap loop over (H, W) windows: each output gets
    the same products, added into a +0.0 accumulator in row-major tap
    order, and the zero columns add only +-0.0, which changes no
    accumulator."""
    kh, kw = kshape[0], kshape[1]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(
            f"{op}: kernel dims must be odd for same padding, got {kshape}")
    h, w, c = a.shape
    wp = w + kw - 1
    padded = np.zeros((h + kh - 1, wp, c))
    padded[kh // 2:kh // 2 + h, kw // 2:kw // 2 + w] = a
    return padded.reshape(-1, c), wp, (h - 1) * wp + w


def _widen(g: np.ndarray, wp: int, rows: int) -> np.ndarray:
    """An (H, W, C) cotangent as one tap block of _pad_flat's layout: rows
    of width wp, zero in the wp - W extra columns."""
    h, w, c = g.shape
    wide = np.zeros((h, wp, c))
    wide[:, :w] = g
    return wide.reshape(-1, c)[:rows]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Spatial convolution (cross-correlation), stride 1, zero padding to
    same size. x: (H, W, Cin); kernel: (kh, kw, Cin, Cout); bias: (Cout,).

    Forward and input VJP take one matrix product per tap block (see
    _pad_flat). Their bits match a product per tap window only while BLAS
    rounds a Cin-long (Cout-long in the input VJP) dot product the same
    whatever the length of its block; OpenBLAS does for the zoo's layers,
    but a single output column (Cout = 1, or Cin = 1 in the input VJP)
    takes a matrix-vector kernel whose rounding follows the row's position.
    The kernel and bias VJPs reduce over the H * W window positions only."""
    xd, kd = x.data, kernel.data
    if xd.ndim != 3 or kd.ndim != 4 or xd.shape[2] != kd.shape[2]:
        raise ShapeMismatchError(
            f"conv2d: incompatible shapes {xd.shape} and {kd.shape}")
    kh, kw, cin, cout = kd.shape
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeMismatchError(
            f"conv2d: bias shape {bias.data.shape} does not match {cout} outputs")
    h, w = xd.shape[0], xd.shape[1]
    flat, wp, rows = _pad_flat(xd, kd.shape, "conv2d")
    acc = np.zeros((h * wp, cout))
    for i, j in product(range(kh), range(kw)):
        start = i * wp + j
        acc[:rows] += flat[start:start + rows] @ kd[i, j]
    data = acc.reshape(h, wp, cout)[:, :w]
    if bias is not None:
        data = data + bias.data

    def back(g):
        if x.requires_grad:
            gwide = _widen(g, wp, rows)
            gflat = np.zeros_like(flat)
            for i, j in product(range(kh), range(kw)):
                start = i * wp + j
                gflat[start:start + rows] += gwide @ kd[i, j].T
            x._accumulate(gflat.reshape(-1, wp, cin)[kh // 2:kh // 2 + h,
                                                     kw // 2:kw // 2 + w])
        if kernel.requires_grad:
            padded = flat.reshape(-1, wp, cin)
            gk = np.empty_like(kd)
            for i, j in product(range(kh), range(kw)):
                gk[i, j] = np.tensordot(padded[i:i + h, j:j + w], g,
                                        axes=([0, 1], [0, 1]))
            kernel._accumulate(gk)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 1)))
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(data, parents, back)


def blur2d(x: Tensor, kernel2d: np.ndarray) -> Tensor:
    """Depthwise blur with a fixed 2-D kernel (not differentiated), zero
    padding to same size. Used for box/Gaussian smoothing inside models.

    Forward and VJP add one tap block (see _pad_flat) per tap of a copy
    scaled once per distinct tap value (a box kernel has one), which
    leaves every product, and so every sum, as it would be with one
    multiply per tap."""
    xd = x.data
    kern = np.asarray(kernel2d, dtype=np.float64)
    if xd.ndim != 3 or kern.ndim != 2:
        raise ShapeMismatchError(
            f"blur2d: incompatible shapes {xd.shape} and {kern.shape}")
    kh, kw = kern.shape
    h, w, c = xd.shape
    flat, wp, rows = _pad_flat(xd, kern.shape, "blur2d")
    taps, tap_of = np.unique(kern, return_inverse=True)
    tap_of = tap_of.reshape(kern.shape)
    scaled = [v * flat for v in taps]
    acc = np.zeros((h * wp, c))
    for i, j in product(range(kh), range(kw)):
        start = i * wp + j
        acc[:rows] += scaled[tap_of[i, j]][start:start + rows]
    data = acc.reshape(h, wp, c)[:, :w]

    def back(g):
        gwide = _widen(g, wp, rows)
        scaled_grad = [v * gwide for v in taps]
        gflat = np.zeros_like(flat)
        for i, j in product(range(kh), range(kw)):
            start = i * wp + j
            gflat[start:start + rows] += scaled_grad[tap_of[i, j]]
        x._accumulate(gflat.reshape(-1, wp, c)[kh // 2:kh // 2 + h,
                                               kw // 2:kw // 2 + w])
    return _make(data, (x,), back)


def box_kernel(radius: int) -> np.ndarray:
    """(2r+1) x (2r+1) averaging kernel."""
    size = 2 * radius + 1
    return np.full((size, size), 1.0 / (size * size))


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of an analytic-vs-central-difference gradient comparison.

    Relative error is measured against the larger of the two gradients'
    max-norms, so coordinates where both gradients vanish do not blow up
    the ratio. Coordinates where the displacement sweeps across a kink of
    a relu/clamp are excluded (central differences are only a gradient
    oracle at locally smooth points) and counted in nonsmooth_count.
    """
    max_rel_error: float
    worst_coord: tuple[int, ...]
    scale: float
    tolerance: float
    passed: bool
    checked_count: int
    nonsmooth_count: int


def grad_check(f: Callable[[Tensor], Tensor], x: np.ndarray,
               h: float = 1e-4, tol: float = 1e-4) -> GradCheckReport:
    """Compare f's analytic input gradient against central differences.

    f maps a Tensor to a scalar Tensor and must be deterministic. Each
    coordinate of x is displaced by +/-h and +/-h/2 for two central
    estimates plus the corresponding one-sided slopes. Central differences
    are a gradient oracle only where f is locally C^1, so kink-crossing
    coordinates are excluded rather than reported as gradient defects;
    they are recognized by either h-independent signature: the two central
    estimates disagree, or the one-sided slope gap fails to halve under
    step halving the way smooth curvature (gap ~ h * f'') must. On the
    remaining coordinates the h-step estimate has to match the analytic
    gradient within tol of the gradient scale.
    """
    x = np.asarray(x, dtype=np.float64)
    leaf = Tensor(x.copy(), requires_grad=True)
    out = f(leaf)
    out.backward()
    analytic = leaf.grad.copy() if leaf.grad is not None else np.zeros_like(x)

    def scalar_at(values: np.ndarray) -> float:
        return float(f(Tensor(values)).data)

    f0 = scalar_at(x)
    numeric = np.empty_like(x)
    numeric_half = np.empty_like(x)
    onesided_gap = np.empty_like(x)       # |d+ - d-| at step h
    onesided_gap_half = np.empty_like(x)  # |d+ - d-| at step h/2
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        for step, central, gap in ((h, numeric, onesided_gap),
                                   (h / 2.0, numeric_half, onesided_gap_half)):
            xp[idx] = x[idx] + step
            xm[idx] = x[idx] - step
            fp, fm = scalar_at(xp), scalar_at(xm)
            central[idx] = (fp - fm) / (2.0 * step)
            gap[idx] = abs((fp - f0) / step - (f0 - fm) / step)

    scale = max(float(np.max(np.abs(analytic))),
                float(np.max(np.abs(numeric))), 1e-12)
    # two kink detectors, both with h-independent signatures:
    #  * the two central estimates disagree (kink between the half and full
    #    windows), or
    #  * the one-sided slopes disagree and that gap does not shrink with the
    #    step as smooth curvature would (gap ~ h * f'' halves; a slope jump
    #    across a kink stays put)
    central_disagree = np.abs(numeric - numeric_half) > tol * scale
    jump_like = ((onesided_gap > tol * scale)
                 & (onesided_gap < 1.5 * onesided_gap_half))
    smooth = ~(central_disagree | jump_like)
    rel = np.where(smooth, np.abs(analytic - numeric) / scale, 0.0)
    if rel.size and smooth.any():
        worst = tuple(int(i) for i in
                      np.unravel_index(int(np.argmax(rel)), rel.shape))
        max_rel = float(rel.max())
    else:
        worst, max_rel = (), 0.0
    return GradCheckReport(max_rel_error=max_rel, worst_coord=worst,
                           scale=scale, tolerance=tol, passed=max_rel < tol,
                           checked_count=int(smooth.sum()),
                           nonsmooth_count=int((~smooth).sum()))
