"""Image, shadow-mask and perturbation containers plus binary PNM file I/O.

Images hold unit-interval float64 intensities in (row, column, channel)
layout. Files are 8-bit binary PGM (P5, single channel) or PPM (P6, three
channels) with maxval 255; stored bytes map to intensities as v / 255.
All containers are immutable after construction (the backing numpy arrays
are marked read-only) and safe to share across workers.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np


class PnmError(ValueError):
    """Malformed PNM file. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64, copy=True, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Image:
    """H x W x C array of intensities in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim == 2:
            data = data[:, :, np.newaxis]
        if data.ndim != 3:
            raise ValueError(f"image data must be HxWxC, got ndim={data.ndim}")
        if data.shape[2] not in (1, 3):
            raise ValueError(f"image channels must be 1 or 3, got {data.shape[2]}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"image dimensions must be positive, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("image intensities must be finite")
        if data.min() < 0.0 or data.max() > 1.0:
            raise ValueError(
                f"image intensities must lie in [0, 1], got range "
                f"[{data.min()}, {data.max()}]")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class ShadowMask:
    """H x W binary map; 1 marks shadow pixels."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError(f"mask data must be HxW, got ndim={data.ndim}")
        vals = np.unique(data)
        if not np.all(np.isin(vals, (0, 1))):
            raise ValueError(f"mask values must be exactly 0 or 1, got {vals}")
        frozen = np.array(data, dtype=np.uint8, copy=True, order="C")
        frozen.flags.writeable = False
        object.__setattr__(self, "data", frozen)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def matches(self, image: Image) -> bool:
        return (self.height, self.width) == (image.height, image.width)


@dataclass(frozen=True)
class Perturbation:
    """Signed offset with the same shape as the image it attacks."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError(f"perturbation data must be HxWxC, got ndim={data.ndim}")
        if not np.all(np.isfinite(data)):
            raise ValueError("perturbation values must be finite")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def quantize(values: np.ndarray) -> np.ndarray:
    """Map [0,1] floats to bytes: round(v * 255), ties away from zero."""
    return np.floor(np.asarray(values) * 255.0 + 0.5).astype(np.uint8)


class _PnmReader:
    """Tokenizer over a raw PNM byte string, tracking byte offsets."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def token(self, what: str) -> bytes:
        raw, n = self.raw, len(self.raw)
        pos = self.pos
        # skip whitespace and '#' comments (netpbm allows them in the header)
        while pos < n:
            c = raw[pos:pos + 1]
            if c.isspace():
                pos += 1
            elif c == b"#":
                while pos < n and raw[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        if pos >= n:
            raise PnmError(f"unexpected end of header, expected {what}", pos)
        start = pos
        while pos < n and not raw[pos:pos + 1].isspace():
            pos += 1
        self.pos = pos
        return raw[start:pos]

    def int_token(self, what: str) -> int:
        start = self.pos
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise PnmError(f"expected integer {what}, got {tok!r}", start) from None


def _parse_pnm(raw: bytes, path) -> tuple[int, int, int, np.ndarray]:
    """Parse raw PNM bytes -> (height, width, channels, byte payload)."""
    rd = _PnmReader(raw)
    magic = rd.token("magic")
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"bad magic {magic!r}, expected P5 or P6", 0)
    channels = 1 if magic == b"P5" else 3
    width = rd.int_token("width")
    height = rd.int_token("height")
    if width < 1 or height < 1:
        raise PnmError(f"non-positive dimensions {width}x{height}", rd.pos)
    maxval_at = rd.pos
    maxval = rd.int_token("maxval")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval}, only 255 is handled",
                       maxval_at)
    # exactly one whitespace byte separates the header from the payload
    if rd.pos >= len(raw) or not raw[rd.pos:rd.pos + 1].isspace():
        raise PnmError("missing whitespace before payload", rd.pos)
    rd.pos += 1
    expected = height * width * channels
    payload = raw[rd.pos:]
    if len(payload) < expected:
        raise PnmError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            rd.pos + len(payload))
    data = np.frombuffer(payload[:expected], dtype=np.uint8)
    return height, width, channels, data


def load_pnm(path) -> Image:
    """Load a binary 8-bit PGM (P5) or PPM (P6) file as a unit-range Image."""
    with open(path, "rb") as fh:
        raw = fh.read()
    height, width, channels, data = _parse_pnm(raw, path)
    return Image(data.reshape(height, width, channels) / 255.0)


def save_pnm(image: Image, path) -> None:
    """Write an Image as binary P5/P6 with maxval 255.

    Round-trip stable: loading the file back gives exactly
    quantize(image) / 255 in every pixel.
    """
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (image.width, image.height)
    write_atomic(path, header + quantize(image.data).tobytes())


def write_atomic(path, payload: bytes) -> None:
    """Write `payload` to a temporary file beside `path`, then rename it
    over `path`: readers see the old file or the new one, never a partial
    write. The temporary file is removed if any step fails."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_mask(path, threshold: float = 0.5) -> ShadowMask:
    """Load a P5 grayscale file as a binary mask: 1 where v/255 > threshold."""
    with open(path, "rb") as fh:
        raw = fh.read()
    height, width, channels, data = _parse_pnm(raw, path)
    if channels != 1:
        raise PnmError("mask must be single-channel (P5)", 0)
    return ShadowMask((data.reshape(height, width) / 255.0 > threshold)
                      .astype(np.uint8))


def save_mask(mask: ShadowMask, path) -> None:
    """Write a binary mask as P5 with shadow pixels at 255."""
    img = Image((mask.data[:, :, np.newaxis]).astype(np.float64))
    save_pnm(img, path)


def mean_intensity(image: Image) -> float:
    """Arithmetic mean over all H*W*C intensities."""
    return float(np.mean(image.data))
