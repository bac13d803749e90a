import numpy as np
import pytest

from egorec.imageio import read_pgm, read_ppm, write_pgm, write_ppm

FORMATS = [
    pytest.param(read_ppm, write_ppm, np.zeros((2, 4, 3)), id="ppm"),
    pytest.param(read_pgm, write_pgm, np.zeros((2, 4)), id="pgm"),
]


@pytest.mark.parametrize("read, write, img", FORMATS)
@pytest.mark.parametrize("header, match", [
    pytest.param(b"4 2x\n", "header field '2x' is not an integer", id="not-int"),
    pytest.param(b"4 0\n", "bad size 4x0", id="zero-height"),
    pytest.param(b"-4 2\n", "bad size -4x2", id="negative-width"),
])
def test_bad_header_names_the_file(tmp_path, read, write, img, header, match):
    path = tmp_path / "img"
    write(path, img)
    path.write_bytes(path.read_bytes().replace(b"4 2\n", header, 1))
    with pytest.raises(ValueError, match=match) as err:
        read(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("read, write, img", FORMATS)
@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda raw: raw + b"garbage-tail", "12 trailing bytes after the pixel data",
                 id="trailing"),
    pytest.param(lambda raw: raw + raw, r"\d+ trailing bytes after the pixel data",
                 id="concatenated"),
    pytest.param(lambda raw: raw[:-1], "truncated pixel data", id="truncated"),
])
def test_pixel_data_must_end_the_file(tmp_path, read, write, img, edit, match):
    path = tmp_path / "img"
    write(path, img)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as err:
        read(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("read, write, shape, magic", [
    pytest.param(read_ppm, write_ppm, (3, 5, 3), b"P6", id="ppm"),
    pytest.param(read_pgm, write_pgm, (9, 5), b"P5", id="pgm"),
])
def test_uint8_pixels_round_trip_as_they_are(tmp_path, read, write, shape, magic):
    img = np.resize(np.arange(256, dtype=np.uint8), shape)
    path = tmp_path / "img"
    write(path, img)
    assert path.read_bytes() == magic + b"\n5 %d\n255\n" % shape[0] + img.tobytes()
    back = read(path)
    assert back.dtype == np.uint8 and back.shape == shape
    assert back.tobytes() == img.tobytes()
    # floats in [0, 1] are stored as their rounded 8-bit quantization
    write(path, img / 255.0)
    assert read(path).tobytes() == img.tobytes()
