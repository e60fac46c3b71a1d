"""Image and shadow-mask containers plus binary PNM file I/O.

Images hold unit-interval float64 intensities in (row, column, channel)
layout. Files are 8-bit binary PGM (P5, single channel) or PPM (P6, three
channels) with maxval 255; stored bytes map to intensities as v / 255.
All containers are immutable after construction (the backing numpy arrays
are marked read-only) and safe to share across workers.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass

import numpy as np


class PnmError(ValueError):
    """Malformed PNM file. The message names the file and carries the byte
    offset where parsing failed."""

    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} (byte offset {offset})")


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
        low, high = data.min(), data.max()  # NaN fails both tests below
        if not (low >= 0.0 and high <= 1.0):
            if not np.all(np.isfinite(data)):
                raise ValueError("image intensities must be finite")
            raise ValueError(
                f"image intensities must lie in [0, 1], got range "
                f"[{low}, {high}]")
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


def quantize(values: np.ndarray) -> np.ndarray:
    """Map [0,1] floats to bytes: round(v * 255), ties away from zero."""
    return np.floor(np.asarray(values) * 255.0 + 0.5).astype(np.uint8)


# A header gap is whitespace, then at most one '#' comment, matched again
# while it advances: one repeated group such as (?:\s|#[^\n]*)* would keep
# re's backtracking state per repetition, hundreds of MB on a long gap.
_GAP = re.compile(rb"\s*(?:#[^\n]*)?")
_TOKEN = re.compile(rb"\S*")


def _quote(token: bytes) -> str:
    """A header token as an error quotes it: at most its first 32 bytes,
    then its full length, since a token runs to the next whitespace byte,
    payload included."""
    head = token[:32]
    return repr(head) + ("" if head == token else f"... ({len(token)} bytes)")


def _read_pnm(path) -> np.ndarray:
    """Read a binary PNM file -> its (height, width, channels) uint8 payload.
    Whitespace and '#' comments may precede each header field (netpbm
    allows them in the header); each error names the byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def field(what: str) -> bytes:
        nonlocal pos
        while (gap := _GAP.match(raw, pos).end()) > pos:
            pos = gap
        if pos == len(raw):
            raise PnmError(path, f"unexpected end of header, expected {what}",
                           pos)
        start, pos = pos, _TOKEN.match(raw, pos).end()
        return raw[start:pos]

    def integer(what: str) -> int:
        start, token = pos, field(what)
        try:
            return int(token)
        except ValueError:
            raise PnmError(path, f"expected integer {what}, got "
                           f"{_quote(token)}", start) from None

    magic = field("magic")
    if magic not in (b"P5", b"P6"):
        raise PnmError(path, f"bad magic {_quote(magic)}, expected P5 or "
                       "P6", 0)
    width, height = integer("width"), integer("height")
    if width < 1 or height < 1:
        raise PnmError(path, f"non-positive dimensions {width}x{height}", pos)
    maxval_at, maxval = pos, integer("maxval")
    if maxval != 255:
        raise PnmError(path, f"unsupported maxval {maxval}, only 255 is handled",
                       maxval_at)
    # exactly one whitespace byte separates the header from the payload
    if not raw[pos:pos + 1].isspace():
        raise PnmError(path, "missing whitespace before payload", pos)
    channels = 1 if magic == b"P5" else 3
    expected, got = height * width * channels, len(raw) - pos - 1
    if got < expected:
        raise PnmError(path, f"truncated payload: expected {expected} bytes, "
                       f"got {got}", len(raw))
    return np.frombuffer(raw, np.uint8, expected, pos + 1).reshape(
        height, width, channels)


def load_pnm(path) -> Image:
    """Load a binary 8-bit PGM (P5) or PPM (P6) file as a unit-range Image."""
    return Image(_read_pnm(path) / 255.0)


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


def load_mask(path) -> ShadowMask:
    """Load a P5 grayscale file as a binary mask: 1 where v/255 > 0.5."""
    data = _read_pnm(path)
    if data.shape[2] != 1:
        raise PnmError(path, "mask must be single-channel (P5)", 0)
    return ShadowMask((data[:, :, 0] / 255.0 > 0.5).astype(np.uint8))


def save_mask(mask: ShadowMask, path) -> None:
    """Write a binary mask as P5 with shadow pixels at 255."""
    img = Image((mask.data[:, :, np.newaxis]).astype(np.float64))
    save_pnm(img, path)


def mean_intensity(image: Image) -> float:
    """Arithmetic mean over all H*W*C intensities."""
    return float(np.mean(image.data))


# one 8-bit level: a black pixel keeps some adaptive budget instead of none
INTENSITY_FLOOR = 1.0 / 255.0


def effective_intensity(image: Image) -> np.ndarray:
    """Pixel intensities with INTENSITY_FLOOR substituted below it."""
    return np.maximum(image.data, INTENSITY_FLOOR)
