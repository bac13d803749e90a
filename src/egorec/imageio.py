"""Binary PPM (P6) and PGM (P5) read/write, 8-bit, maxval 255.

Frames and masks are exchanged as uint8 arrays: readers return the file's
pixel bytes, and writers store uint8 arrays as they are. Writers also take
float arrays in [0, 1] and store their rounded 8-bit quantization (as the
visualizations do).
"""

from __future__ import annotations

import numpy as np


def _quantize(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype == np.uint8:
        return img
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


def _read_header(f, magic: bytes):
    got = f.read(2)
    if got != magic:
        raise ValueError(f"{f.name}: expected {magic.decode()}, found {got!r}")
    fields = []
    while len(fields) < 3:
        line = f.readline()
        if not line:
            raise ValueError(f"{f.name}: truncated header")
        for tok in line.split(b"#", 1)[0].split():
            try:
                fields.append(int(tok))
            except ValueError:
                raise ValueError(f"{f.name}: header field {tok.decode(errors='replace')!r} "
                                 "is not an integer") from None
    width, height, maxval = fields[:3]
    if width <= 0 or height <= 0:
        raise ValueError(f"{f.name}: bad size {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{f.name}: only maxval 255 supported, got {maxval}")
    return width, height


def _read_pixels(f, count: int) -> np.ndarray:
    """The ``count`` bytes after the header, which must end the file, as a
    read-only uint8 view of them."""
    data = f.read()
    if len(data) < count:
        raise ValueError(f"{f.name}: truncated pixel data")
    if len(data) > count:
        raise ValueError(f"{f.name}: {len(data) - count} trailing bytes after the pixel data")
    return np.frombuffer(data, dtype=np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Write a (H, W) uint8 array, or floats in [0, 1], as binary PGM."""
    data = _quantize(img)
    if data.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a read-only uint8 (H, W) array."""
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P5")
        data = _read_pixels(f, w * h)
    return data.reshape(h, w)


def write_ppm(path, img: np.ndarray) -> None:
    """Write a (H, W, 3) uint8 array, or floats in [0, 1], as binary PPM."""
    data = _quantize(img)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"PPM needs a (H, W, 3) array, got shape {data.shape}")
    h, w, _ = data.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a read-only uint8 (H, W, 3) array."""
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P6")
        data = _read_pixels(f, w * h * 3)
    return data.reshape(h, w, 3)
