"""Image containers and bit-exact file I/O.

All pixel data is held as float64 regardless of the source bit depth, so
8-bit photographs and signed MRI slices flow through identical code. Two
interchange formats are supported:

- PGM (P2 ASCII / P5 binary, maxval <= 65535) for 8/16-bit data;
- a minimal "MKFR" container (magic + u32le dims + f64le payload) for
  lossless round trips of real-valued rasters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

__all__ = [
    "Raster",
    "ComplexRaster",
    "load_pgm",
    "save_pgm",
    "load_f64_raster",
    "save_f64_raster",
]


@dataclass(frozen=True, eq=False)
class Raster:
    """2D grid of float64 intensities plus a nominal intensity range."""

    data: np.ndarray
    range_hint: tuple[float, float] = (0.0, 255.0)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"raster data must be 2D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("raster values must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def with_data(self, data: np.ndarray) -> "Raster":
        """New raster with the same range hint and fresh pixel data."""
        return Raster(data, self.range_hint)


@dataclass(frozen=True, eq=False)
class ComplexRaster:
    """One complex-valued slice stored as paired real/imaginary rasters."""

    real: Raster
    imag: Raster

    def __post_init__(self) -> None:
        if self.real.data.shape != self.imag.data.shape:
            raise ValueError(
                "real and imag parts must share dimensions, got "
                f"{self.real.data.shape} vs {self.imag.data.shape}"
            )


def _round_half_away(values: np.ndarray) -> np.ndarray:
    """Round half away from zero (np.round would round half to even)."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


# ---------------------------------------------------------------------------
# PGM


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def _header_int(buf: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, end = _next_token(buf, pos)
    try:
        value = int(tok)
    except ValueError:
        raise FormatError(f"malformed {what} {tok!r} at byte {pos}") from None
    return value, end


def load_pgm(path) -> Raster:
    """Decode a P2/P5 PGM file. Intensities are kept as read, no rescaling."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 2:
        raise FormatError("unexpected end of header at byte 0")
    magic = buf[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"unsupported magic {magic!r} at byte 0")
    width, pos = _header_int(buf, 2, "width")
    height, pos = _header_int(buf, pos, "height")
    maxval, pos = _header_int(buf, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"non-positive dimensions {width}x{height} at byte 2")
    if not 0 < maxval <= 65535:
        raise FormatError(f"maxval {maxval} out of range at byte {pos}")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the payload
        if pos >= len(buf) or not buf[pos : pos + 1].isspace():
            raise FormatError(f"missing header terminator at byte {pos}")
        pos += 1
        itemsize = 1 if maxval < 256 else 2
        need = count * itemsize
        payload = buf[pos : pos + need]
        if len(payload) < need:
            raise FormatError(
                f"truncated payload at byte {pos + len(payload)}: "
                f"expected {need} bytes, found {len(payload)}"
            )
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        values = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        # every sample takes at least a separator and a digit; checked
        # first so a forged header cannot demand a huge allocation
        if len(buf) - pos < 2 * count:
            raise FormatError(
                f"truncated payload at byte {len(buf)}: {width}x{height} "
                f"ASCII samples need at least {2 * count} bytes, "
                f"found {len(buf) - pos}")
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            sample, pos = _header_int(buf, pos, "sample")
            values[i] = sample
    if np.any(values > maxval):
        raise FormatError(f"sample exceeds declared maxval {maxval}")
    return Raster(values.reshape(height, width), range_hint=(0.0, float(maxval)))


def save_pgm(r: Raster, path) -> None:
    """Write a binary P5 file; values are clamped to [0,255] and rounded
    half away from zero."""
    clamped = np.clip(r.data, 0.0, 255.0)
    bytes_ = _round_half_away(clamped).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{r.width} {r.height}\n255\n".encode("ascii"))
        fh.write(bytes_.tobytes())


# ---------------------------------------------------------------------------
# MKFR: magic "MKFR", u32le width, u32le height, width*height f64le, row-major

_MKFR_MAGIC = b"MKFR"


def save_f64_raster(r: Raster, path) -> None:
    """Lossless (bit-exact) container for real-valued rasters."""
    with open(path, "wb") as fh:
        fh.write(_MKFR_MAGIC)
        fh.write(struct.pack("<II", r.width, r.height))
        fh.write(r.data.astype("<f8", copy=False).tobytes())


def load_f64_raster(path) -> Raster:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _MKFR_MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r} at byte 0")
    if len(buf) < 12:
        raise FormatError(f"truncated header at byte {len(buf)}")
    width, height = struct.unpack_from("<II", buf, 4)
    if width < 1 or height < 1:
        raise FormatError(f"non-positive dimensions {width}x{height} at byte 4")
    need = width * height * 8
    payload = buf[12:]
    if len(payload) != need:
        raise FormatError(
            f"payload length mismatch at byte 12: header declares "
            f"{width}x{height} ({need} bytes), found {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(height, width)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"non-finite value at byte {12 + 8 * int(bad[0])}")
    return Raster(values, range_hint=(float(values.min()), float(values.max())))

