"""Full-reference image quality metrics with shadow/non-shadow splitting.

PSNR uses peak 1.0 on unit-range images: 10 * log10(1 / MSE) over the
selected pixel set across all channels, +inf on exact equality. SSIM uses
the standard 11x11 Gaussian window (sigma 1.5, truncated and renormalized)
with K1 = 0.01, K2 = 0.03 on a dense per-pixel map; windows are 'valid'
(fully inside the image) and each map pixel is assigned to a region by the
mask value at its window center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    shadow = mask.data.astype(bool)
    if not shadow.any() or shadow.all():
        raise EmptyRegionError(
            "region metrics need both shadow and non-shadow pixels")
    return shadow if region == REGION_SHADOW else ~shadow


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


def psnr(x: Image, y: Image, mask: ShadowMask | None = None,
         region: str = REGION_ALL) -> float:
    """Peak signal-to-noise ratio in dB (peak 1.0); +inf on exact equality."""
    mse = region_mse(x, y, mask, region)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_1d() -> np.ndarray:
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(offsets ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return g / g.sum()


_SSIM_TAP = _gaussian_1d()


def _filter_valid(a: np.ndarray) -> np.ndarray:
    """Separable Gaussian filtering of (H, W, C), valid windows only."""
    rows = sliding_window_view(a, SSIM_WINDOW, axis=0) @ _SSIM_TAP
    return sliding_window_view(rows, SSIM_WINDOW, axis=1) @ _SSIM_TAP


def ssim_map(x: Image, y: Image) -> np.ndarray:
    """Dense per-pixel SSIM of valid windows: (H-10, W-10, C)."""
    _check_pair(x, y)
    if min(x.height, x.width) < SSIM_WINDOW:
        raise ValueError(
            f"image {x.height}x{x.width} is smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    xd, yd = x.data, y.data
    mu_x = _filter_valid(xd)
    mu_y = _filter_valid(yd)
    sig_x = _filter_valid(xd * xd) - mu_x * mu_x
    sig_y = _filter_valid(yd * yd) - mu_y * mu_y
    sig_xy = _filter_valid(xd * yd) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * sig_xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (sig_x + sig_y + c2)
    return num / den


def ssim(x: Image, y: Image, mask: ShadowMask | None = None,
         region: str = REGION_ALL) -> float:
    """Mean SSIM over the selected region (window-center membership)."""
    smap = ssim_map(x, y)
    margin = (SSIM_WINDOW - 1) // 2
    select = _region_select(mask, region, x.shape[:2])
    centers = select[margin:margin + smap.shape[0],
                     margin:margin + smap.shape[1]]
    if not centers.any():
        raise EmptyRegionError(
            f"region {region!r} has no window centers inside the valid area")
    return float(np.mean(smap[centers]))


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
