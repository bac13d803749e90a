import numpy as np
import pytest

from egorec.imageio import read_pgm, read_ppm, write_pgm, write_ppm


@pytest.mark.parametrize("read, write, img", [
    pytest.param(read_ppm, write_ppm, np.zeros((2, 4, 3)), id="ppm"),
    pytest.param(read_pgm, write_pgm, np.zeros((2, 4)), id="pgm"),
])
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
