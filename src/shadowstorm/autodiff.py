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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward",
                 "_backward_done", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _parents=(),
                 _backward: Callable[[], None] | None = None):
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Without `seed` this tensor must be scalar (the loss) and is seeded
        with 1.0. With `seed` (an array matching this tensor's shape) the
        call computes the corresponding vector-Jacobian product instead.
        A tape can only be walked once; build a fresh graph to re-derive.
        Every walked node drops its backward closure and parents afterwards:
        each closure refers to its own node, so the tape would otherwise
        live until the next cyclic garbage collection.
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
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ShapeMismatchError(
                    f"backward seed shape {seed.shape} does not match tensor "
                    f"shape {self.data.shape}")
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

        self._accumulate(seed)
        for node in reversed(topo):
            # a backward rule may leave a parent without any contribution
            if node._backward is not None and node.grad is not None:
                node._backward()
        for node in topo:
            if node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.data)
            node._backward = None
            node._parents = ()


def _make(data: np.ndarray, parents: tuple[Tensor, ...],
          backward_builder) -> Tensor:
    """Create an op output; records the tape only if some parent needs grad."""
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data)
    out = Tensor(data, requires_grad=True, _parents=parents)
    out._backward = backward_builder(out)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("add", a.data, b.data)
    data = a.data + b.data

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad, b.data.shape))
        return back
    return _make(data, (a, b), build)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("sub", a.data, b.data)
    data = a.data - b.data

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-out.grad, b.data.shape))
        return back
    return _make(data, (a, b), build)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("mul", a.data, b.data)
    data = a.data * b.data

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * a.data, b.data.shape))
        return back
    return _make(data, (a, b), build)


def div(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("div", a.data, b.data)
    data = a.data / b.data

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(
                    -out.grad * a.data / (b.data * b.data), b.data.shape))
        return back
    return _make(data, (a, b), build)


def smul(a: Tensor, scalar: float) -> Tensor:
    data = a.data * scalar

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(out.grad * scalar)
        return back
    return _make(data, (a,), build)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(out.grad * (a.data > 0.0))
        return back
    return _make(data, (a,), build)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only strictly inside the bounds."""
    data = np.clip(a.data, lo, hi)

    def build(out):
        def back():
            if a.requires_grad:
                inside = (a.data > lo) & (a.data < hi)
                a._accumulate(out.grad * inside)
        return back
    return _make(data, (a,), build)


def clamp01(a: Tensor) -> Tensor:
    return clamp(a, 0.0, 1.0)


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(np.broadcast_to(out.grad, a.data.shape).copy())
        return back
    return _make(data, (a,), build)


def mean_channels(a: Tensor) -> Tensor:
    """(H, W, C) -> (H, W, 1) average over the channel axis."""
    if a.data.ndim != 3:
        raise ShapeMismatchError(
            f"mean_channels: expected HxWxC input, got shape {a.data.shape}")
    channels = a.data.shape[2]
    data = a.data.mean(axis=2, keepdims=True)

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(np.broadcast_to(
                    out.grad / channels, a.data.shape).copy())
        return back
    return _make(data, (a,), build)


def sqnorm(a: Tensor) -> Tensor:
    """Squared l2 norm over all entries (scalar output)."""
    data = np.asarray(np.sum(a.data * a.data))

    def build(out):
        def back():
            if a.requires_grad:
                a._accumulate(out.grad * 2.0 * a.data)
        return back
    return _make(data, (a,), build)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Spatial convolution (cross-correlation), stride 1, zero padding to
    same size. x: (H, W, Cin); kernel: (kh, kw, Cin, Cout); bias: (Cout,).

    The zero-padded image is one C-ordered (H + kh - 1, wp, Cin) array,
    wp = W + kw - 1, read as a flat list of pixels. Tap (i, j) sees all
    outputs as one contiguous block of that list, starting at pixel
    i * wp + j, so each tap is one matrix product and copies no slice. The
    block runs in rows of width wp; the kw - 1 extra columns per output
    row are computed and dropped. The input VJP widens the cotangent by
    zero columns and scatters it at the same offsets.

    The bits are those of a product per tap over its (H, W) window: each
    output element is the same Cin-long (Cout-long in the input VJP) dot
    product, added into a +0.0 accumulator in row-major tap order, and the
    zero columns add only +-0.0, which changes no accumulator. This needs
    BLAS to round a dot product the same whatever the length of its block
    (with one output the block is one row, like the window); OpenBLAS does
    for the zoo's layers, but a single output column (Cout = 1, or Cin = 1
    in the input VJP) takes a matrix-vector kernel whose rounding follows
    the row's position. The kernel and bias VJPs reduce over the H * W
    window positions only."""
    xd, kd = x.data, kernel.data
    if xd.ndim != 3 or kd.ndim != 4 or xd.shape[2] != kd.shape[2]:
        raise ShapeMismatchError(
            f"conv2d: incompatible shapes {xd.shape} and {kd.shape}")
    kh, kw = kd.shape[0], kd.shape[1]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(
            f"conv2d: kernel dims must be odd for same padding, got {kd.shape}")
    h, w = xd.shape[0], xd.shape[1]
    cout = kd.shape[3]
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeMismatchError(
            f"conv2d: bias shape {bias.data.shape} does not match {cout} outputs")

    hp, wp = h + kh - 1, w + kw - 1
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((hp, wp, xd.shape[2]))
    padded[ph:ph + h, pw:pw + w] = xd
    flat = padded.reshape(hp * wp, -1)
    rows = (h - 1) * wp + w  # output (0, 0) through (h - 1, w - 1)
    acc = np.zeros((h * wp, cout))
    for i in range(kh):
        for j in range(kw):
            start = i * wp + j
            acc[:rows] += flat[start:start + rows] @ kd[i, j]
    data = acc.reshape(h, wp, cout)[:, :w]
    if bias is not None:
        data = data + bias.data

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def build(out):
        def back():
            g = out.grad
            if x.requires_grad:
                gext = np.zeros((h, wp, cout))
                gext[:, :w] = g
                gext = gext.reshape(-1, cout)[:rows]
                gpad = np.zeros_like(padded)
                gflat = gpad.reshape(hp * wp, -1)
                for i in range(kh):
                    for j in range(kw):
                        start = i * wp + j
                        gflat[start:start + rows] += gext @ kd[i, j].T
                x._accumulate(gpad[ph:ph + h, pw:pw + w])
            if kernel.requires_grad:
                gk = np.empty_like(kd)
                for i in range(kh):
                    for j in range(kw):
                        gk[i, j] = np.tensordot(padded[i:i + h, j:j + w], g,
                                                axes=([0, 1], [0, 1]))
                kernel._accumulate(gk)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 1)))
        return back
    return _make(data, parents, build)


def blur2d(x: Tensor, kernel2d: np.ndarray) -> Tensor:
    """Depthwise blur with a fixed 2-D kernel (not differentiated), zero
    padding to same size. Used for box/Gaussian smoothing inside models.

    Forward and VJP shift-and-add one scaled copy per tap in row-major tap
    order; the copy is scaled once per distinct tap value (a box kernel has
    one), which leaves every product, and so every sum, as it would be with
    one multiply per tap."""
    xd = x.data
    kern = np.asarray(kernel2d, dtype=np.float64)
    if xd.ndim != 3 or kern.ndim != 2:
        raise ShapeMismatchError(
            f"blur2d: incompatible shapes {xd.shape} and {kern.shape}")
    kh, kw = kern.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(
            f"blur2d: kernel dims must be odd for same padding, got {kern.shape}")
    h, w, c = xd.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((h + kh - 1, w + kw - 1, c))
    padded[ph:ph + h, pw:pw + w] = xd
    taps, tap_of = np.unique(kern, return_inverse=True)
    tap_of = tap_of.reshape(kern.shape)
    scaled = [v * padded for v in taps]
    data = np.zeros_like(xd)
    for i in range(kh):
        for j in range(kw):
            data += scaled[tap_of[i, j]][i:i + h, j:j + w]

    def build(out):
        def back():
            if x.requires_grad:
                gpad = np.zeros_like(padded)
                scaled_grad = [v * out.grad for v in taps]
                for i in range(kh):
                    for j in range(kw):
                        gpad[i:i + h, j:j + w] += scaled_grad[tap_of[i, j]]
                x._accumulate(gpad[ph:ph + h, pw:pw + w])
        return back
    return _make(data, (x,), build)


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
        worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
        max_rel = float(rel.max())
    else:
        worst, max_rel = (), 0.0
    return GradCheckReport(max_rel_error=max_rel, worst_coord=tuple(worst),
                           scale=scale, tolerance=tol, passed=max_rel < tol,
                           checked_count=int(smooth.sum()),
                           nonsmooth_count=int((~smooth).sum()))
