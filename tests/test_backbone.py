import numpy as np
import pytest

import egorec.diffcore as dc
from egorec.backbone import ConvBackbone
from egorec.diffcore import ShapeError, Tensor

from gradcheck import grad_check


def test_shape_contract_default():
    net = ConvBackbone(24, (32, 64), np.random.default_rng(0))
    out = net.extract(Tensor(np.zeros((2, 32, 64, 3), np.float32)))
    assert out.shape == (2, 4, 8, 24)


@pytest.mark.parametrize("hw", [(16, 32), (32, 64), (64, 128)])
@pytest.mark.parametrize("channels", [4, 8])
def test_shape_contract_matrix(hw, channels):
    h, w = hw
    net = ConvBackbone(channels, hw, np.random.default_rng(1))
    assert [conv.w.shape[-1] for conv in net.blocks] == [channels // 2, channels // 2, channels]
    out = net.extract(Tensor(np.zeros((1, h, w, 3), np.float32)))
    assert out.shape == (1, h // 8, w // 8, channels)


def test_determinism():
    net = ConvBackbone(24, (16, 32), np.random.default_rng(2))
    frame = np.random.default_rng(3).uniform(size=(1, 16, 32, 3)).astype(np.float32)
    a = net.extract(Tensor(frame)).numpy()
    b = net.extract(Tensor(frame)).numpy()
    assert a.tobytes() == b.tobytes()


def test_dimension_mismatch_raises():
    net = ConvBackbone(24, (16, 32), np.random.default_rng(4))
    with pytest.raises(ShapeError, match=r"expected \(N, 16, 32, 3\)"):
        net.extract(Tensor(np.zeros((1, 32, 32, 3), np.float32)))


def test_translation_by_stride_shifts_features():
    # a stride-aligned impulse moved one full stride moves interior feature
    # columns by exactly one
    net = ConvBackbone(8, (32, 64), np.random.default_rng(5))
    base = np.zeros((1, 32, 64, 3), np.float32)
    shifted = np.zeros_like(base)
    base[0, 16:18, 24:26, :] = 1.0
    shifted[0, 16:18, 32:34, :] = 1.0
    fa = net.extract(Tensor(base)).numpy()
    fb = net.extract(Tensor(shifted)).numpy()
    np.testing.assert_allclose(fb[0, 1:-1, 2:-1], fa[0, 1:-1, 1:-2], atol=1e-6)


def test_gradcheck_small_stub():
    net = ConvBackbone(4, (16, 16), np.random.default_rng(6))
    frame = Tensor(np.random.default_rng(7).uniform(0.1, 0.9, size=(1, 16, 16, 3)))

    def fn(*params):
        feats = net.extract(frame)
        return dc.sum_(feats * feats)

    rep = grad_check(fn, net.parameters(), tol=1e-5)
    assert rep.passed, str(rep)
