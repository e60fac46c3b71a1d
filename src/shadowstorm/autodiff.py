"""Reverse-mode differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array and records the operations that
produced it; calling :meth:`Tensor.backward` on a scalar result walks the
tape in reverse topological order and accumulates exact vector-Jacobian
products into every reachable tensor with ``requires_grad``.

The op rule: a primitive computes its value and hands :func:`_make` one
(parent, vjp) pair per operand, vjp(g) being that operand's share of the
output cotangent. ``_make`` alone decides what is taped: operands that
need no gradient (parameters, constants) are dropped, an output with none
left is a constant, and the one backward rule sums each share back over
broadcast axes and accumulates it. The tape so links only tensors that
need a gradient.

Ownership: a vjp returns either g itself or a new array that nothing else
holds. The backward rule hands such a new array (one that owns its memory
and is writable) to its parent, whose first gradient takes it in place;
g passed through (which ``add``'s two parents both receive), views
(broadcasts, a convolution's padded interior) and 0-d numpy scalars are
copied, as is every gradient given to ``_accumulate`` directly. A seed
is never written.

The primitive set is deliberately small and holds only what the model zoo
and its trainer use: element-wise add/sub/mul/div, relu, clamp, 2-D
convolution (stride 1, zero-padded to same size), depthwise blur with a
fixed kernel, the channel mean, the sum and the squared l2 norm.
Primitives are module-level functions; Tensor has no operator
overloads, and a constant factor c is ``mul(a, Tensor(c))``. Images and
feature maps are (height, width, channels) arrays; scalars are 0-d.

Gradient conventions (documented because they matter for attacks):
  * clamp is straight-through strictly inside its bounds, 0 at and beyond;
  * relu's gradient at exactly 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add `g` of this tensor's shape to the gradient. A first gradient
        has the bits of g + 0.0, those of zeros + g, as -0.0 + 0.0 = +0.0.
        With `owned` it is `g` itself, made so in place: the backward rule
        hands over a new array that a vjp made and nothing else holds (the
        module's ownership rule). Otherwise (a passed-through cotangent, a
        view, a 0-d scalar, a direct call) it is a copy."""
        if g.shape != self.data.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} does not match tensor shape "
                f"{self.data.shape}")
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=g) if owned else g + 0.0
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Without `seed` this tensor must be scalar (the loss) and is seeded
        with 1.0. With `seed` (an array matching this tensor's shape) the
        call computes the corresponding vector-Jacobian product instead.
        A tape can only be walked once; build a fresh graph to re-derive.

        The walk frees the tape as it goes: each node is popped off it and
        drops its backward closure and parents before its rule runs. An
        interior node (one with a rule) also hands its gradient to the rule
        and is itself released before the rule runs: a rule reads only its
        parents' values, and every child of the node has already run, so
        the node's value is freed unless the caller still holds the node.
        The walk so holds only the nodes not yet reached and the gradient
        frontier, one array per edge: a rule's new share becomes its
        parent's gradient without a copy (see the module's ownership rule),
        and `seed` is copied, never written. Only leaves keep ``.grad``.
        With `seed` the root's value is not read, only its shape.
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

        while topo:
            node = topo.pop()
            rule, node._backward, node._parents = node._backward, None, ()
            if rule is None:
                continue  # a leaf keeps its gradient
            grad, node.grad = node.grad, None
            del node
            # a hand-built rule may leave a parent without a gradient
            if grad is not None:
                rule(grad)


def _make(data: np.ndarray, *rules: tuple[Tensor, Callable]) -> Tensor:
    """Create an op output. Each rule is a pair (parent, vjp), where vjp(g)
    is that parent's share of the output cotangent g, possibly of the
    broadcast output shape. Only parents that need a gradient are kept: with
    none the output is a constant; otherwise they alone are its tape parents,
    and its one backward rule sums each share down to its parent's shape and
    accumulates it, in rule order, handing over a share that is a new array
    (see the module's ownership rule)."""
    rules = tuple((p, vjp) for p, vjp in rules if p.requires_grad)
    if not rules:
        return Tensor(data)

    def back(g):
        for parent, vjp in rules:
            share = _unbroadcast(vjp(g), parent.data.shape)
            parent._accumulate(share, share is not g and share.base is None
                               and share.flags.writeable)
            del share  # a copied view would keep its base past the next vjp
    return Tensor(data, requires_grad=True,
                  _parents=tuple(p for p, _ in rules), _backward=back)


def add(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("add", a.data, b.data)
    return _make(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("sub", a.data, b.data)
    return _make(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("mul", a.data, b.data)
    return _make(a.data * b.data, (a, lambda g: g * b.data),
                 (b, lambda g: g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("div", a.data, b.data)
    return _make(a.data / b.data, (a, lambda g: g / b.data),
                 (b, lambda g: -g * a.data / (b.data * b.data)))


def relu(a: Tensor) -> Tensor:
    return _make(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only strictly inside the bounds."""
    return _make(np.clip(a.data, lo, hi),
                 (a, lambda g: g * ((a.data > lo) & (a.data < hi))))


def tsum(a: Tensor) -> Tensor:
    return _make(np.asarray(a.data.sum()),
                 (a, lambda g: np.broadcast_to(g, a.data.shape)))


def mean_channels(a: Tensor) -> Tensor:
    """(H, W, C) -> (H, W, 1) average over the channel axis."""
    if a.data.ndim != 3:
        raise ShapeMismatchError(
            f"mean_channels: expected HxWxC input, got shape {a.data.shape}")
    channels = a.data.shape[2]
    return _make(_sum_last(a.data) / channels,
                 (a, lambda g: np.broadcast_to(g / channels, a.data.shape)))


def sqnorm(a: Tensor) -> Tensor:
    """Squared l2 norm over all entries (scalar output)."""
    return _make(np.asarray(np.sum(a.data * a.data)),
                 (a, lambda g: g * 2.0 * a.data))


def _shift_add(a: np.ndarray, kshape: tuple[int, ...], cout: int,
               terms: Callable[[np.ndarray], Iterable[np.ndarray]],
               adjoint: bool, op: str) -> np.ndarray:
    """The one tap kernel of conv2d and blur2d, forward and VJP.

    The (H, W, C) operand `a` is widened once into a C-ordered block of
    rows = (H - 1) * wp + W pixels, rows of width wp = W + kw - 1 with zero
    extra columns, for the odd kernel dims (kh, kw) = kshape[:2].
    terms(block) gives each tap's (rows, cout) product with that block, in
    row-major tap order. Each is added at its offset into one +0.0
    accumulator over the zero-padded (H + kh - 1, wp, cout) output, whose
    (H, W) interior is returned as a view. The forward adds tap (i, j) at
    the mirrored offset (kh-1-i) * wp + kw-1-j, so output pixel (y, x)
    gets a[y+i-kh//2, x+j-kw//2]'s share; a VJP adds it at i * wp + j.

    The bits are those of a per-tap loop over (H, W) windows: each output
    gets the same products, added in row-major tap order, and the zero
    columns and padding add only +-0.0, which changes no accumulator that
    starts at +0.0. Every tap multiplies the same block: OpenBLAS's
    matrix-vector kernel (one output column) rounds a block's last
    rows mod 4 rows differently, so a block that moved with the tap would
    send other rows down that tail."""
    kh, kw = kshape[0], kshape[1]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(
            f"{op}: kernel dims must be odd for same padding, got {kshape}")
    h, w, c = a.shape
    wp = w + kw - 1
    rows = (h - 1) * wp + w
    wide = np.zeros((h, wp, c))
    wide[:, :w] = a
    acc = np.zeros(((h + kh - 1) * wp, cout))
    taps = product(range(kh), range(kw))
    for (i, j), term in zip(taps, terms(wide.reshape(-1, c)[:rows])):
        start = i * wp + j if adjoint else (kh - 1 - i) * wp + kw - 1 - j
        acc[start:start + rows] += term
    return acc.reshape(h + kh - 1, wp, cout)[kh // 2:kh // 2 + h,
                                            kw // 2:kw // 2 + w]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Spatial convolution (cross-correlation), stride 1, zero padding to
    same size. x: (H, W, Cin); kernel: (kh, kw, Cin, Cout); bias: (Cout,).

    Forward and input VJP take one matrix product per tap with one block
    (see _shift_add). Their bits match a product per tap window only while
    BLAS rounds a Cin-long (Cout-long in the input VJP) dot product the
    same wherever its row sits in the block; OpenBLAS's SkylakeX core does
    for the zoo's layers, but a single output column (Cout = 1, or Cin = 1
    in the input VJP) takes its matrix-vector kernel, which rounds the
    block's last rows mod 4 rows differently. The bias is added after
    every tap.
    The input VJP takes a C-contiguous copy of the transposed kernel, which
    OpenBLAS's SkylakeX core runs on its small-matrix kernel, with the bits
    of the transposed view except on 1 x 1 inputs (a matrix-vector product;
    only `gradcheck --size 1x1` runs one, at a tolerance far above the last
    bit; SSIM keeps `attack` and `bench` at 11 x 11 or more).
    The kernel VJP takes per tap a (Cin, H * W) window of one channel-major
    padded copy @ the (H * W, Cout) cotangent: tensordot's GEMM and bits."""
    xd, kd = x.data, kernel.data
    if xd.ndim != 3 or kd.ndim != 4 or xd.shape[2] != kd.shape[2]:
        raise ShapeMismatchError(
            f"conv2d: incompatible shapes {xd.shape} and {kd.shape}")
    kh, kw, cin, cout = kd.shape
    if bias.data.shape != (cout,):
        raise ShapeMismatchError(
            f"conv2d: bias shape {bias.data.shape} does not match {cout} outputs")
    h, w = xd.shape[0], xd.shape[1]
    out = _shift_add(xd, kd.shape, cout, lambda block: (
        block @ k for k in kd.reshape(-1, cin, cout)), False, "conv2d")
    data = (out.reshape(h, w * cout) + np.tile(bias.data, w)).reshape(h, w, cout)

    def input_vjp(g):
        kt = np.ascontiguousarray(kd.transpose(0, 1, 3, 2))
        return _shift_add(g, kd.shape, cin, lambda block: (
            block @ k for k in kt.reshape(-1, cout, cin)), True, "conv2d")

    def kernel_vjp(g):
        planes = np.zeros((cin, h + kh - 1, w + kw - 1))
        planes[:, kh // 2:kh // 2 + h, kw // 2:kw // 2 + w] = xd.transpose(2, 0, 1)
        gcols, gk = g.reshape(h * w, cout), np.empty_like(kd)
        for i, j in product(range(kh), range(kw)):
            window = planes[:, i:i + h, j:j + w].reshape(cin, h * w)
            gk[i, j] = np.dot(window, gcols)
        return gk

    return _make(data, (x, input_vjp), (kernel, kernel_vjp),
                 (bias, lambda g: g.sum(axis=(0, 1))))


def blur2d(x: Tensor, kernel2d: np.ndarray) -> Tensor:
    """Depthwise blur with a fixed 2-D kernel (not differentiated), zero
    padding to same size. Used for box/Gaussian smoothing inside models.

    Forward and VJP add per tap (see _shift_add) a copy of the block
    scaled once per distinct tap value (a box kernel has one), which
    leaves every product, and so every sum, as it would be with one
    multiply per tap."""
    xd = x.data
    kern = np.asarray(kernel2d, dtype=np.float64)
    if xd.ndim != 3 or kern.ndim != 2:
        raise ShapeMismatchError(
            f"blur2d: incompatible shapes {xd.shape} and {kern.shape}")
    c = xd.shape[2]
    taps, tap_of = np.unique(kern, return_inverse=True)

    def scaled(block):
        copies = [v * block for v in taps]
        return (copies[t] for t in tap_of.ravel())

    return _make(_shift_add(xd, kern.shape, c, scaled, False, "blur2d"),
                 (x, lambda g: _shift_add(g, kern.shape, c, scaled, True,
                                          "blur2d")))


def box_kernel(radius: int) -> np.ndarray:
    """(2r+1) x (2r+1) averaging kernel, read-only (models share it)."""
    size = 2 * radius + 1
    kernel = np.full((size, size), 1.0 / (size * size))
    kernel.flags.writeable = False
    return kernel


GRAD_CHECK_STEP = 1e-4  # grad_check's finite-difference step h
GRAD_CHECK_TOL = 1e-4  # grad_check's bound on the relative error


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
    passed: bool
    checked_count: int
    nonsmooth_count: int


def grad_check(f: Callable[[Tensor], Tensor], x: np.ndarray
               ) -> GradCheckReport:
    """Compare f's analytic input gradient against central differences.

    f maps a Tensor to a scalar Tensor and must be deterministic. Each
    coordinate of x is displaced by +/-h and +/-h/2, h = GRAD_CHECK_STEP,
    for two central estimates plus the corresponding one-sided slopes.
    Central differences are a gradient oracle only where f is locally C^1,
    so kink-crossing coordinates are excluded rather than reported as
    gradient defects; they are recognized by either h-independent
    signature: the two central estimates disagree, or the one-sided slope
    gap fails to halve under step halving the way smooth curvature
    (gap ~ h * f'') must. On the remaining coordinates the h-step estimate
    has to match the analytic gradient within tol = GRAD_CHECK_TOL of the
    gradient scale.
    """
    h, tol = GRAD_CHECK_STEP, GRAD_CHECK_TOL
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
                           scale=scale, passed=max_rel < tol,
                           checked_count=int(smooth.sum()),
                           nonsmooth_count=int((~smooth).sum()))
