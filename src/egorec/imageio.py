"""Binary PPM (P6) and PGM (P5) files, 8-bit, maxval 255.

Writers store uint8 arrays as they are, and float arrays in [0, 1] as
their rounded 8-bit quantization (as the visualizations do).

Readers open a file as a ``FilmStrip``: its path, the header's length and
the pixels' shape, uint8, and no pixels. Indexing a strip along its first
axis reads those rows from the file, and ``np.asarray`` reads all of them.
Each read opens the file, checks its size again, ``os.pread``s the rows and
closes it, so a strip holds no descriptor, and a file whose size changed
since it was opened raises ``ValueError`` naming it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


def _quantize(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype == np.uint8:
        return img
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class FilmStrip:
    """uint8 pixels of ``shape``, stored in ``path`` from byte ``offset`` to
    the end of the file. Any shape of the same size reads the same bytes, so
    an (L * H, W, 3) image is also L frames of (H, W, 3)."""

    path: str
    offset: int
    shape: tuple[int, ...]
    dtype = np.dtype(np.uint8)

    def _check_size(self, size: int) -> None:
        count = self.offset + math.prod(self.shape)
        if size < count:
            raise ValueError(f"{self.path}: truncated pixel data")
        if size > count:
            raise ValueError(f"{self.path}: {size - count} trailing bytes after the pixel data")

    def __getitem__(self, key) -> np.ndarray:
        """The rows ``key`` (an int, a slice or integer indices) picks on
        the first axis, read from the file, one ``pread`` per run of
        consecutive rows."""
        rows = np.arange(self.shape[0])[key]
        row_bytes = math.prod(self.shape[1:])
        out = np.empty(rows.shape + self.shape[1:], self.dtype)
        flat, dst = rows.reshape(-1), out.reshape(rows.size, row_bytes)
        starts = np.flatnonzero(np.diff(flat, prepend=-2) != 1).tolist()
        fd = os.open(self.path, os.O_RDONLY)
        try:
            self._check_size(os.fstat(fd).st_size)
            for a, b in zip(starts, starts[1:] + [flat.size]):
                data = os.pread(fd, (b - a) * row_bytes, self.offset + int(flat[a]) * row_bytes)
                if len(data) < (b - a) * row_bytes:
                    raise ValueError(f"{self.path}: truncated pixel data")
                dst[a:b] = np.frombuffer(data, np.uint8).reshape(b - a, row_bytes)
        finally:
            os.close(fd)
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError(f"{self.path}: a film strip holds no pixels to view without a copy")
        pixels = self[:]
        return pixels if dtype is None else pixels.astype(dtype)


def _open(path, magic: bytes, channels: tuple[int, ...]) -> FilmStrip:
    """Parse the header of ``path`` and check that its pixel data, and
    nothing else, follows it."""
    with open(path, "rb") as f:
        got = f.read(2)
        if got != magic:
            raise ValueError(f"{path}: expected {magic.decode()}, found {got!r}")
        fields = []
        while len(fields) < 3:
            line = f.readline()
            if not line:
                raise ValueError(f"{path}: truncated header")
            for tok in line.split(b"#", 1)[0].split():
                try:
                    fields.append(int(tok))
                except ValueError:
                    raise ValueError(f"{path}: header field {tok.decode(errors='replace')!r} "
                                     "is not an integer") from None
        width, height, maxval = fields[:3]
        if width <= 0 or height <= 0:
            raise ValueError(f"{path}: bad size {width}x{height}")
        if maxval != 255:
            raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
        strip = FilmStrip(str(path), f.tell(), (height, width, *channels))
        strip._check_size(os.fstat(f.fileno()).st_size)
    return strip


def open_pgm(path) -> FilmStrip:
    """Open a binary PGM as a (H, W) strip."""
    return _open(path, b"P5", ())


def open_ppm(path) -> FilmStrip:
    """Open a binary PPM as a (H, W, 3) strip."""
    return _open(path, b"P6", (3,))


def write_pgm(path, img: np.ndarray) -> None:
    """Write a (H, W) uint8 array, or floats in [0, 1], as binary PGM."""
    data = _quantize(img)
    if data.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """Write a (H, W, 3) uint8 array, or floats in [0, 1], as binary PPM."""
    data = _quantize(img)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"PPM needs a (H, W, 3) array, got shape {data.shape}")
    h, w, _ = data.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())
