import os

import numpy as np
import pytest

from egorec.imageio import open_pgm, open_ppm, write_pgm, write_ppm

FORMATS = [
    pytest.param(open_ppm, write_ppm, np.zeros((2, 4, 3)), id="ppm"),
    pytest.param(open_pgm, write_pgm, np.zeros((2, 4)), id="pgm"),
]


@pytest.mark.parametrize("open_, write, img", FORMATS)
@pytest.mark.parametrize("header, match", [
    pytest.param(b"4 2x\n", "header field '2x' is not an integer", id="not-int"),
    pytest.param(b"4 0\n", "bad size 4x0", id="zero-height"),
    pytest.param(b"-4 2\n", "bad size -4x2", id="negative-width"),
])
def test_bad_header_names_the_file(tmp_path, open_, write, img, header, match):
    path = tmp_path / "img"
    write(path, img)
    path.write_bytes(path.read_bytes().replace(b"4 2\n", header, 1))
    with pytest.raises(ValueError, match=match) as err:
        open_(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("open_, write, img", FORMATS)
@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda raw: raw + b"garbage-tail", "12 trailing bytes after the pixel data",
                 id="trailing"),
    pytest.param(lambda raw: raw + raw, r"\d+ trailing bytes after the pixel data",
                 id="concatenated"),
    pytest.param(lambda raw: raw[:-1], "truncated pixel data", id="truncated"),
])
def test_pixel_data_must_end_the_file(tmp_path, open_, write, img, edit, match):
    """On opening, and at each read of a strip opened before the edit."""
    path = tmp_path / "img"
    write(path, img)
    strip = open_(path)
    path.write_bytes(edit(path.read_bytes()))
    for read in (lambda: open_(path), lambda: strip[0], lambda: np.asarray(strip)):
        with pytest.raises(ValueError, match=match) as err:
            read()
        assert str(path) in str(err.value)


@pytest.mark.parametrize("open_, write, shape, magic", [
    pytest.param(open_ppm, write_ppm, (3, 5, 3), b"P6", id="ppm"),
    pytest.param(open_pgm, write_pgm, (9, 5), b"P5", id="pgm"),
])
def test_uint8_pixels_round_trip_as_they_are(tmp_path, open_, write, shape, magic):
    img = np.resize(np.arange(256, dtype=np.uint8), shape)
    path = tmp_path / "img"
    write(path, img)
    assert path.read_bytes() == magic + b"\n5 %d\n255\n" % shape[0] + img.tobytes()
    strip = open_(path)
    assert strip.dtype == np.uint8 and strip.shape == shape
    back = np.asarray(strip)
    assert back.dtype == np.uint8 and back.shape == shape
    assert back.tobytes() == img.tobytes()
    with pytest.raises(ValueError, match="without a copy"):
        np.asarray(strip, copy=False)
    # any rows, in any order and repeated, read as the array's
    for key in (1, slice(None, None, -1), np.array([2, 0, 0, 1]), np.array([], int)):
        rows = strip[key]
        assert rows.shape == img[key].shape and rows.tobytes() == img[key].tobytes()
    # floats in [0, 1] are stored as their rounded 8-bit quantization
    write(path, img / 255.0)
    assert np.asarray(open_(path)).tobytes() == img.tobytes()


def test_each_read_closes_the_file_it_opens(tmp_path, monkeypatch):
    path = tmp_path / "img"
    write_ppm(path, np.zeros((6, 5, 3), np.uint8))
    strip = open_ppm(path)
    assert not any(isinstance(v, np.ndarray) for v in vars(strip).values())
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def spy_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    def spy_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "close", spy_close)
    strip[np.array([0, 2, 3, 5])]
    assert len(opened) == 1 and closed == opened
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="truncated pixel data"):
        strip[0]
    assert len(opened) == 2 and closed == opened
