"""Full-reference image quality metrics with shadow/non-shadow splitting.

PSNR uses peak 1.0 on unit-range images: 10 * log10(1 / MSE) over the
selected pixel set across all channels, +inf on exact equality. SSIM uses
the standard 11x11 Gaussian window (sigma 1.5, truncated and renormalized)
with K1 = 0.01, K2 = 0.03 on a dense per-pixel map; windows are 'valid'
(fully inside the image) and each map pixel is assigned to a region by the
mask value at its window center.

:func:`region_ssim` gives the whole-image, shadow and non-shadow SSIM of one
image against several references, one map each; :func:`check_mask` tells
up front whether a mask leaves both regions something to measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imagecore import Image, Perturbation, ShadowMask

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

REGION_ALL = "all"
REGION_SHADOW = "shadow"
REGION_NONSHADOW = "nonshadow"
_REGIONS = (REGION_ALL, REGION_SHADOW, REGION_NONSHADOW)


class EmptyRegionError(ValueError):
    """The requested region contains no pixels."""


def _region_select(mask: ShadowMask | None, region: str,
                   shape: tuple[int, int]) -> np.ndarray:
    """Boolean (H, W) membership map for the requested region."""
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}, expected one of {_REGIONS}")
    if region == REGION_ALL:
        return np.ones(shape, dtype=bool)
    if mask is None:
        raise ValueError(f"region {region!r} requires a shadow mask")
    if mask.data.shape != shape:
        raise ValueError(
            f"mask shape {mask.data.shape} does not match image shape {shape}")
    shadow = _split(mask)
    return shadow if region == REGION_SHADOW else ~shadow


def _split(mask: ShadowMask) -> np.ndarray:
    """Boolean shadow map; raises unless both regions hold pixels."""
    shadow = mask.data.astype(bool)
    if not shadow.any() or shadow.all():
        raise EmptyRegionError(
            "region metrics need both shadow and non-shadow pixels")
    return shadow


def _window_centers(select: np.ndarray, region: str) -> np.ndarray:
    """The part of an (H, W) region map at valid SSIM window centers, in
    the layout of :func:`ssim_map`; raises if it holds none."""
    margin = (SSIM_WINDOW - 1) // 2
    height, width = select.shape
    centers = select[margin:height - margin, margin:width - margin]
    if not centers.any():
        raise EmptyRegionError(
            f"region {region!r} has no window centers inside the valid area")
    return centers


def check_mask(mask: ShadowMask) -> None:
    """Raise EmptyRegionError unless the shadow and the non-shadow region
    each hold pixels (for PSNR) and valid SSIM window centers (for SSIM)."""
    shadow = _split(mask)
    _window_centers(shadow, REGION_SHADOW)
    _window_centers(~shadow, REGION_NONSHADOW)


def _check_pair(x: Image, y: Image) -> None:
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")


def region_mse(x: Image, y: Image, mask: ShadowMask | None = None,
               region: str = REGION_ALL) -> float:
    """Mean squared error over the selected pixels, all channels."""
    _check_pair(x, y)
    select = _region_select(mask, region, x.shape[:2])
    diff = x.data[select] - y.data[select]
    return float(np.mean(diff * diff))


def _decibels(mse: float) -> float:
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def psnr(x: Image, y: Image, mask: ShadowMask | None = None,
         region: str = REGION_ALL) -> float:
    """Peak signal-to-noise ratio in dB (peak 1.0); +inf on exact equality."""
    return _decibels(region_mse(x, y, mask, region))


def _region_psnr(x: Image, y: Image, mask: ShadowMask) -> tuple[float, ...]:
    """PSNR over all, shadow and non-shadow pixels from one squared error;
    each equals the matching :func:`psnr` call bit for bit."""
    _check_pair(x, y)
    selects = [_region_select(mask, region, x.shape[:2]) for region in _REGIONS]
    squared = np.square(x.data - y.data)
    return tuple(_decibels(float(np.mean(squared[select])))
                 for select in selects)


def _gaussian_1d() -> np.ndarray:
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(offsets ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return g / g.sum()


_SSIM_TAP = _gaussian_1d()


def _filter_valid(a: np.ndarray) -> np.ndarray:
    """Separable Gaussian filtering of (H, W, C), valid windows only."""
    rows = sliding_window_view(a, SSIM_WINDOW, axis=0) @ _SSIM_TAP
    return sliding_window_view(rows, SSIM_WINDOW, axis=1) @ _SSIM_TAP


def _ssim_maps(references: Sequence[Image], y: Image) -> list[np.ndarray]:
    """The ssim_map of each reference against `y`, with the filtered mean
    and variance of `y` computed once for them all."""
    for x in references:
        _check_pair(x, y)
    if min(y.height, y.width) < SSIM_WINDOW:
        raise ValueError(
            f"image {y.height}x{y.width} is smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    yd = y.data
    mu_y = _filter_valid(yd)
    sig_y = _filter_valid(yd * yd) - mu_y * mu_y
    maps = []
    for x in references:
        xd = x.data
        mu_x = _filter_valid(xd)
        sig_x = _filter_valid(xd * xd) - mu_x * mu_x
        sig_xy = _filter_valid(xd * yd) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * sig_xy + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (sig_x + sig_y + c2)
        maps.append(num / den)
    return maps


def ssim_map(x: Image, y: Image) -> np.ndarray:
    """Dense per-pixel SSIM of valid windows: (H-10, W-10, C)."""
    return _ssim_maps([x], y)[0]


def _region_mean(smap: np.ndarray, shape: tuple[int, int],
                 mask: ShadowMask | None, region: str) -> float:
    """Mean of an SSIM map over the window centers of one region."""
    centers = _window_centers(_region_select(mask, region, shape), region)
    return float(np.mean(smap[centers]))


def ssim(x: Image, y: Image, mask: ShadowMask | None = None,
         region: str = REGION_ALL) -> float:
    """Mean SSIM over the selected region (window-center membership)."""
    return _region_mean(ssim_map(x, y), x.shape[:2], mask, region)


def region_ssim(references: Sequence[Image], y: Image, mask: ShadowMask
                ) -> list[tuple[float, float, float]]:
    """SSIM of `y` against each reference over all, shadow and non-shadow
    window centers; each equals the matching :func:`ssim` call bit for bit."""
    return [tuple(_region_mean(smap, y.shape[:2], mask, region)
                  for region in _REGIONS)
            for smap in _ssim_maps(references, y)]


@dataclass(frozen=True)
class PerturbationNorms:
    l1_mean: float
    linf: float
    linf_normalized: float


def perturbation_norms(delta: Perturbation, image: Image,
                       floor: float = 1.0 / 255.0) -> PerturbationNorms:
    """Mean-l1, max and intensity-normalized max magnitude of a perturbation.

    linf_normalized is the max over pixels of |delta_i| / max(I_i, floor),
    i.e. the sup norm of the normalized perturbation map.
    """
    if delta.shape != image.shape:
        raise ValueError(
            f"delta shape {delta.shape} does not match image shape {image.shape}")
    abs_delta = np.abs(delta.data)
    normalized = abs_delta / np.maximum(image.data, floor)
    return PerturbationNorms(
        l1_mean=float(np.mean(abs_delta)),
        linf=float(abs_delta.max()),
        linf_normalized=float(normalized.max()),
    )


def normalized_perturbation_map(delta: Perturbation, image: Image,
                                floor: float = 1.0 / 255.0) -> np.ndarray:
    """Element-wise |delta| / max(I, floor). Deliberately not clamped: values
    above 1 on dark pixels are exactly what uniform attacks produce."""
    if delta.shape != image.shape:
        raise ValueError(
            f"delta shape {delta.shape} does not match image shape {image.shape}")
    return np.abs(delta.data) / np.maximum(image.data, floor)
