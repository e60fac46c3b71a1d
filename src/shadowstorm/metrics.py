"""Full-reference image quality metrics with shadow/non-shadow splitting.

PSNR uses peak 1.0 on unit-range images: 10 * log10(1 / MSE) over the
selected pixel set across all channels, +inf on exact equality. SSIM uses
the standard 11x11 Gaussian window (sigma 1.5, truncated and renormalized)
with K1 = 0.01, K2 = 0.03 on a dense per-pixel map; windows are 'valid'
(fully inside the image) and each map pixel is assigned to a region by the
mask value at its window center.

:func:`psnr` and :func:`ssim` score the whole image. :func:`region_mse`,
:func:`region_psnr` and :func:`region_ssim` return (all, shadow,
non-shadow) triples, the whole-image entry equal to the whole-image
function bit for bit; :func:`region_ssim` scores one image against several
references, one map each. :func:`check_scorable` tells up front whether an
image (and mask) can give every one of those scores.

SSIM's bits come from its Gaussian filter, one BLAS matrix-vector call per
window with the channels as rows (:func:`_filter_valid`). A map built in
bands of whole rows meets the same calls on the same operand layouts, so
it has the bits of the whole-image map while holding its statistics for
one band at a time; stacking the channels or flattening the rows into
fewer calls would change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imagecore import Image, ShadowMask, effective_intensity

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_SSIM_MARGIN = (SSIM_WINDOW - 1) // 2
SSIM_BAND = 32  # output rows of an SSIM map built at a time


class EmptyRegionError(ValueError):
    """The requested region contains no pixels."""


def _regions(mask: ShadowMask, shape: tuple[int, int], margin: int = 0
             ) -> tuple:
    """Selectors of the all, shadow and non-shadow pixels of an (H, W, ...)
    array: ``...`` and two boolean maps. With a margin the maps cover only
    the pixels that far inside the border, the SSIM window centers in the
    layout of :func:`ssim_map`. Raises unless the mask has the given shape
    and both regions hold pixels, inside the margin too."""
    if mask.data.shape != shape:
        raise ValueError(
            f"mask shape {mask.data.shape} does not match image shape {shape}")
    shadow = mask.data.astype(bool)
    if not shadow.any() or shadow.all():
        raise EmptyRegionError(
            "region metrics need both shadow and non-shadow pixels")
    height, width = shape
    inner = shadow[margin:height - margin, margin:width - margin]
    regions = (..., inner, ~inner)
    for name, select in zip(("shadow", "nonshadow"), regions[1:]):
        if not select.any():
            raise EmptyRegionError(
                f"region {name!r} has no window centers inside the valid area")
    return regions


def check_scorable(image: Image, mask: ShadowMask | None = None) -> None:
    """Raise ValueError unless `image` holds one SSIM window and `mask`, if
    given, has its size; EmptyRegionError unless the shadow and non-shadow
    region each hold pixels (for PSNR) and window centers (for SSIM)."""
    if min(image.height, image.width) < SSIM_WINDOW:
        raise ValueError(
            f"image {image.height}x{image.width} is smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    if mask is not None:
        _regions(mask, image.shape[:2], _SSIM_MARGIN)


def _check_pair(x: Image, y: Image) -> None:
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")


def _squared_error(x: Image, y: Image) -> np.ndarray:
    _check_pair(x, y)
    return np.square(x.data - y.data)


def _decibels(mse: float) -> float:
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def psnr(x: Image, y: Image) -> float:
    """Peak signal-to-noise ratio in dB (peak 1.0); +inf on exact equality."""
    return _decibels(float(np.mean(_squared_error(x, y))))


def region_mse(x: Image, y: Image, mask: ShadowMask
               ) -> tuple[float, float, float]:
    """Mean squared error over all, shadow and non-shadow pixels, all
    channels, from one squared error."""
    squared = _squared_error(x, y)
    return tuple(float(np.mean(squared[select]))
                 for select in _regions(mask, x.shape[:2]))


def region_psnr(x: Image, y: Image, mask: ShadowMask
                ) -> tuple[float, float, float]:
    """PSNR over all, shadow and non-shadow pixels from one squared error."""
    return tuple(_decibels(mse) for mse in region_mse(x, y, mask))


def _gaussian_1d() -> np.ndarray:
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(offsets ** 2) / (2.0 * SSIM_SIGMA ** 2))
    g /= g.sum()
    g.flags.writeable = False  # every bench --jobs thread reads it
    return g


_SSIM_TAP = _gaussian_1d()


def _filter_valid(a: np.ndarray) -> np.ndarray:
    """Separable Gaussian filtering of (H, W, C), valid windows only.

    Each pass is one BLAS matrix-vector call per window, the window's
    (C, 11) samples, channels as rows, times the tap: a value's bits
    depend on that call and its operand layout alone. Rows of `a`, sliced
    whole, so give the rows of the whole result bit for bit; stacking the
    channels or flattening the rows into fewer calls does not."""
    rows = sliding_window_view(a, SSIM_WINDOW, axis=0) @ _SSIM_TAP
    return sliding_window_view(rows, SSIM_WINDOW, axis=1) @ _SSIM_TAP


def _ssim_maps(references: Sequence[Image], y: Image,
               mask: ShadowMask | None = None) -> list[np.ndarray]:
    """The ssim_map of each reference against `y`, built SSIM_BAND output
    rows at a time: per band, the filtered mean and variance of `y` over
    the band's rows and the window margin are computed once for every
    reference, whose statistics then fill that band of its map. The checks
    of the pairs, of `y`'s size and of the `mask`, if given, run first."""
    for x in references:
        _check_pair(x, y)
    check_scorable(y, mask)
    height, width, channels = y.shape
    maps = [np.empty((height - 2 * _SSIM_MARGIN, width - 2 * _SSIM_MARGIN,
                      channels)) for _ in references]
    for top in range(0, height - 2 * _SSIM_MARGIN, SSIM_BAND):
        rows = slice(top, top + SSIM_BAND + SSIM_WINDOW - 1)
        yb = y.data[rows]
        mu_y = _filter_valid(yb)
        sig_y = _filter_valid(yb * yb) - mu_y * mu_y
        for x, smap in zip(references, maps):
            smap[top:top + SSIM_BAND] = _ssim_map_of(x.data[rows], yb, mu_y,
                                                     sig_y)
    return maps


def _ssim_map_of(xd: np.ndarray, yd: np.ndarray, mu_y: np.ndarray,
                 sig_y: np.ndarray) -> np.ndarray:
    """One SSIM map (or band of one) from `y`'s filtered statistics. The
    covariance is released once the numerator has read it, the other
    statistics of `x` on return, and the denominator divides the numerator
    in place."""
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    mu_x = _filter_valid(xd)
    sig_x = _filter_valid(xd * xd) - mu_x * mu_x
    sig_xy = _filter_valid(xd * yd) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * sig_xy + c2)
    del sig_xy
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (sig_x + sig_y + c2)
    num /= den
    return num


def ssim_map(x: Image, y: Image) -> np.ndarray:
    """Dense per-pixel SSIM of valid windows: (H-10, W-10, C)."""
    return _ssim_maps([x], y)[0]


def ssim(x: Image, y: Image) -> float:
    """Mean SSIM over every valid window."""
    return float(np.mean(ssim_map(x, y)))


def region_ssim(references: Sequence[Image], y: Image, mask: ShadowMask
                ) -> list[tuple[float, float, float]]:
    """SSIM of `y` against each reference over all, shadow and non-shadow
    window centers. Every check runs before any map is built; the maps
    are built band by band and reduced to their region means at the
    end."""
    maps = _ssim_maps(references, y, mask)
    centers = _regions(mask, y.shape[:2], _SSIM_MARGIN)
    return [tuple(float(np.mean(smap[select])) for select in centers)
            for smap in maps]


@dataclass(frozen=True)
class PerturbationNorms:
    l1_mean: float
    linf: float
    linf_normalized: float


def perturbation_norms(delta: np.ndarray, image: Image) -> PerturbationNorms:
    """Mean-l1, max and intensity-normalized max magnitude of a perturbation.

    linf_normalized is the max over pixels of |delta_i| / max(I_i, 1/255),
    i.e. the sup norm of the normalized perturbation map.
    """
    normalized = normalized_perturbation_map(delta, image)
    abs_delta = np.abs(delta)
    return PerturbationNorms(
        l1_mean=float(np.mean(abs_delta)),
        linf=float(abs_delta.max()),
        linf_normalized=float(normalized.max()),
    )


def normalized_perturbation_map(delta: np.ndarray, image: Image) -> np.ndarray:
    """Element-wise |delta| / max(I, 1/255). Deliberately not clamped: values
    above 1 on dark pixels are exactly what uniform attacks produce."""
    if delta.shape != image.shape:
        raise ValueError(
            f"delta shape {delta.shape} does not match image shape {image.shape}")
    return np.abs(delta) / effective_intensity(image)
