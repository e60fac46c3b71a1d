"""Deterministic synthetic (shadow, mask, shadow-free) triplet generator.

Shadow-free bases are sums of 2-4 smooth procedural components (linear
gradients, low-frequency sinusoids, soft blobs) normalized into
[0.15, 0.95]. A filled ellipse or convex polygon provides the binary mask;
its box-blurred soft version modulates a multiplicative attenuation
shadow = free * (1 - k * soft_mask), which leaves everything outside the
blur support untouched and darkens the masked region by factor up to k.

All randomness is derived from (seed, index) through the package PRNG, so
any triplet can be regenerated independently and identically on any
platform. Per triplet the draw order is fixed: base components, mask
shape(s), then the attenuation factor k.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .imagecore import (Image, ShadowMask, load_mask, load_pnm, save_mask,
                        save_pnm, write_atomic)
from .rng import Xoshiro256StarStar, derive_seed

MANIFEST_NAME = "manifest.tsv"
MASK_REJECTION_LIMIT = 100


class SynthDataError(ValueError):
    pass


class TripletDirError(ValueError):
    """A triplet directory is missing files or has inconsistent shapes."""


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    count: int = 1
    height: int = 64
    width: int = 64
    attenuation_range: tuple[float, float] = (0.4, 0.8)
    mask_area_range: tuple[float, float] = (0.1, 0.4)
    blur_radius: int = 2

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.height < 32 or self.width < 32:
            raise ValueError(
                f"images must be at least 32x32, got {self.height}x{self.width}")
        k_min, k_max = self.attenuation_range
        if not 0.0 < k_min < k_max < 1.0:
            raise ValueError(
                f"attenuation_range must satisfy 0 < min < max < 1, got "
                f"{self.attenuation_range}")
        a_min, a_max = self.mask_area_range
        if not 0.0 < a_min < a_max < 1.0:
            raise ValueError(
                f"mask_area_range must satisfy 0 < min < max < 1, got "
                f"{self.mask_area_range}")
        if self.blur_radius < 0:
            raise ValueError(f"blur_radius must be >= 0, got {self.blur_radius}")


@dataclass(frozen=True)
class Triplet:
    shadow: Image
    mask: ShadowMask
    shadow_free: Image


def _grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    ys = np.linspace(0.0, 1.0, height)[:, np.newaxis]
    xs = np.linspace(0.0, 1.0, width)[np.newaxis, :]
    return np.broadcast_to(ys, (height, width)), np.broadcast_to(xs, (height, width))


def _gen_base(rng: Xoshiro256StarStar, height: int, width: int) -> np.ndarray:
    """Smooth 3-channel base image with values in [0.15, 0.95]."""
    yy, xx = _grid(height, width)
    field = np.zeros((height, width))
    n_components = rng.randint(2, 4)
    for _ in range(n_components):
        kind = rng.randint(0, 2)
        amplitude = rng.uniform(0.5, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        axis = math.cos(theta) * xx + math.sin(theta) * yy
        if kind == 0:        # linear gradient
            field += amplitude * axis
        elif kind == 1:      # low-frequency sinusoid
            freq = rng.uniform(0.5, 2.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            field += amplitude * np.sin(2.0 * math.pi * freq * axis + phase)
        else:                # soft blob
            cx = rng.uniform(0.2, 0.8)
            cy = rng.uniform(0.2, 0.8)
            sigma = rng.uniform(0.15, 0.4)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            field += sign * amplitude * np.exp(
                -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma * sigma))
    weights = np.array([rng.uniform(0.6, 1.0) for _ in range(3)])
    offsets = np.array([rng.uniform(-0.15, 0.15) for _ in range(3)])
    base = field[:, :, np.newaxis] * weights + offsets
    lo, hi = base.min(), base.max()
    if hi - lo < 1e-9:
        return np.full((height, width, 3), 0.55)
    return 0.15 + 0.8 * (base - lo) / (hi - lo)


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; points (N, 2) -> hull vertices in ccw order."""
    pts = sorted(map(tuple, points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _fill_ellipse(rng: Xoshiro256StarStar, height: int, width: int,
                  target_area: float) -> np.ndarray:
    ab = target_area * height * width / math.pi
    aspect = rng.uniform(0.5, 2.0)
    a = math.sqrt(ab * aspect)
    b = math.sqrt(ab / aspect)
    cx = rng.uniform(0.25, 0.75) * width
    cy = rng.uniform(0.25, 0.75) * height
    theta = rng.uniform(0.0, math.pi)
    ys = np.arange(height)[:, np.newaxis] - cy
    xs = np.arange(width)[np.newaxis, :] - cx
    u = math.cos(theta) * xs + math.sin(theta) * ys
    v = -math.sin(theta) * xs + math.cos(theta) * ys
    return ((u / a) ** 2 + (v / b) ** 2 <= 1.0).astype(np.uint8)


def _fill_polygon(rng: Xoshiro256StarStar, height: int, width: int,
                  target_area: float) -> np.ndarray:
    n_points = rng.randint(4, 7)
    radius = math.sqrt(target_area * height * width / math.pi)
    cx = rng.uniform(0.3, 0.7) * width
    cy = rng.uniform(0.3, 0.7) * height
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_points))
    pts = np.array([
        (cx + rng.uniform(0.7, 1.3) * radius * math.cos(t),
         cy + rng.uniform(0.7, 1.3) * radius * math.sin(t))
        for t in angles])
    hull = _convex_hull(pts)
    if len(hull) < 3:
        return np.zeros((height, width), dtype=np.uint8)
    ys = np.arange(height)[:, np.newaxis]
    xs = np.arange(width)[np.newaxis, :]
    inside = np.ones((height, width), dtype=bool)
    for i in range(len(hull)):
        px, py = hull[i]
        qx, qy = hull[(i + 1) % len(hull)]
        # hull is ccw: interior points have non-negative cross products
        inside &= (qx - px) * (ys - py) - (qy - py) * (xs - px) >= 0.0
    return inside.astype(np.uint8)


def _gen_mask(rng: Xoshiro256StarStar, height: int, width: int,
              area_range: tuple[float, float]) -> np.ndarray:
    a_min, a_max = area_range
    for _ in range(MASK_REJECTION_LIMIT):
        target = rng.uniform(a_min, a_max)
        if rng.random() < 0.5:
            mask = _fill_ellipse(rng, height, width, target)
        else:
            mask = _fill_polygon(rng, height, width, target)
        frac = float(mask.mean())
        if a_min <= frac <= a_max and 0.0 < frac < 1.0:
            return mask
    raise SynthDataError(
        f"could not draw a mask with area fraction in [{a_min}, {a_max}] "
        f"after {MASK_REJECTION_LIMIT} attempts")


def render_triplet(base: np.ndarray, mask: np.ndarray, k: float,
                   blur_radius: int) -> Triplet:
    """Apply the attenuation model to prebuilt base and mask arrays. The
    soft mask is a zero-padded (2r+1)-square box blur of the hard one: unit
    taps summed, then divided by their count."""
    size = 2 * blur_radius + 1
    taps = ad.blur2d(ad.Tensor(mask[:, :, np.newaxis]), np.ones((size, size)))
    shadow = base * (1.0 - k * (taps.data / (size * size)))
    return Triplet(shadow=Image(shadow), mask=ShadowMask(mask),
                   shadow_free=Image(base))


def _draw_parts(config: SynthConfig, index: int
                ) -> tuple[np.ndarray, np.ndarray, float]:
    rng = Xoshiro256StarStar(derive_seed(config.seed, index))
    base = _gen_base(rng, config.height, config.width)
    mask = _gen_mask(rng, config.height, config.width, config.mask_area_range)
    k = rng.uniform(*config.attenuation_range)
    return base, mask, k


def gen_triplet(config: SynthConfig, index: int) -> Triplet:
    """Generate the index-th triplet of the configured dataset."""
    if index >= config.count:
        raise ValueError(f"index {index} out of range for count {config.count}")
    base, mask, k = _draw_parts(config, index)
    return render_triplet(base, mask, k, config.blur_radius)


@dataclass(frozen=True)
class ManifestEntry:
    index: int
    k: float
    area_fraction: float
    seed: int


def triplet_paths(out_dir, index: int) -> tuple[str, str, str]:
    return (os.path.join(out_dir, f"shadow_{index:04d}.ppm"),
            os.path.join(out_dir, f"mask_{index:04d}.pgm"),
            os.path.join(out_dir, f"free_{index:04d}.ppm"))


def gen_dataset(config: SynthConfig, out_dir) -> list[ManifestEntry]:
    """Write `count` triplets plus a tab-separated manifest to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for index in range(config.count):
        base, mask, k = _draw_parts(config, index)
        triplet = render_triplet(base, mask, k, config.blur_radius)
        shadow_path, mask_path, free_path = triplet_paths(out_dir, index)
        save_pnm(triplet.shadow, shadow_path)
        save_mask(triplet.mask, mask_path)
        save_pnm(triplet.shadow_free, free_path)
        entries.append(ManifestEntry(index=index, k=k,
                                     area_fraction=float(mask.mean()),
                                     seed=derive_seed(config.seed, index)))
    lines = ["# shadowstorm-manifest v1", "# index\tk\tarea_fraction\tseed"]
    lines += [f"{e.index}\t{e.k!r}\t{e.area_fraction!r}\t{e.seed}"
              for e in entries]
    write_atomic(os.path.join(out_dir, MANIFEST_NAME),
                 ("\n".join(lines) + "\n").encode("utf-8"))
    return entries


_TRIPLET_RE = re.compile(r"^(shadow|mask|free)_(\d+)\.(ppm|pgm)$")


def load_triplet_dir(directory) -> list[tuple[int, Triplet]]:
    """Load (index, Triplet) pairs sorted by index.

    A member's file name must be the one `triplet_paths` gives for its
    index, and any index seen in one member's file name must have all three
    files; shapes must agree. An empty directory is valid and returns [].
    """
    indices: set[int] = set()
    for name in sorted(os.listdir(directory)):
        m = _TRIPLET_RE.match(name)
        if m:
            path, index = os.path.join(directory, name), int(m.group(2))
            expected = triplet_paths(directory, index)[
                ("shadow", "mask", "free").index(m.group(1))]
            if path != expected:
                raise TripletDirError(f"{path}: not a triplet file name, "
                                      f"expected {os.path.basename(expected)}")
            indices.add(index)
    triplets = []
    for index in sorted(indices):
        shadow_path, mask_path, free_path = triplet_paths(directory, index)
        for path in (shadow_path, mask_path, free_path):
            if not os.path.exists(path):
                raise TripletDirError(
                    f"{directory}: missing {os.path.basename(path)}")
        shadow = load_pnm(shadow_path)
        mask = load_mask(mask_path)
        free = load_pnm(free_path)
        if shadow.shape != free.shape or mask.data.shape != shadow.shape[:2]:
            raise TripletDirError(
                f"triplet {index:04d} has inconsistent shapes: {shadow_path} "
                f"{shadow.shape}, {free_path} {free.shape}, {mask_path} "
                f"{mask.data.shape}")
        triplets.append((index, Triplet(shadow=shadow, mask=mask,
                                        shadow_free=free)))
    return triplets
