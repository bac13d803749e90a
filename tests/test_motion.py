import numpy as np
import pytest

import egorec.diffcore as dc
from egorec.diffcore import ShapeError, Tensor
from egorec.motion import (
    MotionEstimator,
    reconstruction_loss,
    smoothness_loss,
    warp_previous,
)

from gradcheck import grad_check


def translation(tx, ty, n=1, dtype=np.float64):
    t = np.broadcast_to(np.eye(2, 3, dtype=dtype), (n, 2, 3)).copy()
    t[:, 0, 2] = tx
    t[:, 1, 2] = ty
    return Tensor(t)


def identity_grid(h, w):
    """Pixel-center (x, y) coordinates spanning [-1, 1]^2, (h, w, 2)."""
    return np.stack(np.meshgrid(np.linspace(-1.0, 1.0, w), np.linspace(-1.0, 1.0, h)), axis=-1)


def warp(img, transform, field, mask):
    """The warp of each image row i by the i-th transform, field and mask."""
    return dc.grid_sample(img, np.arange(len(img)), transform, field, mask)


def warp_coords(transform, field, mask):
    """The coordinates the warp samples at, clamped to [-1, 1]: warping an
    image whose pixels hold their own coordinates reads them back, since
    bilinear sampling of a linear ramp is exact."""
    n, h, w, _ = field.shape
    ramp = np.broadcast_to(identity_grid(h, w), (n, h, w, 2))
    return warp(ramp, transform, field, mask).numpy()


class TestEstimator:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        est = MotionEstimator(feat_channels=6, frame_hw=(32, 64), rng=rng, max_displacement=2)
        return est

    def test_fresh_model_is_identity(self):
        est = self.make()
        rng = np.random.default_rng(1)
        f = Tensor(rng.normal(size=(3, 4, 8, 6)).astype(np.float32))
        g = Tensor(rng.normal(size=(3, 4, 8, 6)).astype(np.float32))
        m0 = Tensor(rng.uniform(size=(3, 4, 8)).astype(np.float32))
        out = est.estimate(f, g, m0)
        np.testing.assert_array_equal(out.transform.numpy(),
                                      np.broadcast_to(np.eye(2, 3, dtype=np.float32), (3, 2, 3)))
        assert not out.field.numpy().any()

    def test_output_shapes(self):
        est = self.make(2)
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(2, 4, 8, 6)).astype(np.float32))
        m0 = Tensor(rng.uniform(size=(2, 4, 8)).astype(np.float32))
        out = est.estimate(f, f, m0)
        assert out.field.shape == (2, 32, 64, 2)
        assert out.transform.shape == (2, 2, 3)
        assert out.f_gm.shape == (2, est.global_dim) and out.f_lm.shape == (2, 16)

    def test_mask_mismatch(self):
        est = self.make(4)
        f = Tensor(np.zeros((1, 4, 8, 6), np.float32))
        with pytest.raises(ShapeError):
            est.estimate(f, f, Tensor(np.zeros((1, 4, 4), np.float32)))


class TestTransformCoords:
    def test_identity(self):
        d = Tensor(np.zeros((1, 4, 6, 2)))
        m3 = Tensor(np.ones((1, 4, 6)))
        out = warp_coords(translation(0.0, 0.0), d, m3)
        np.testing.assert_allclose(out[0], identity_grid(4, 6), atol=1e-12)

    def test_zero_mask_kills_field(self):
        rng = np.random.default_rng(5)
        d = Tensor(rng.normal(size=(1, 4, 6, 2)))
        m3 = Tensor(np.zeros((1, 4, 6)))
        t = translation(0.3, -0.2)
        out = warp_coords(t, d, m3)
        a, shift = t.numpy()[0, :, :2], t.numpy()[0, :, 2]
        np.testing.assert_allclose(out[0], np.clip(identity_grid(4, 6) @ a.T + shift, -1, 1),
                                   atol=1e-12)

    def test_pure_translation_shifts_x(self):
        d = Tensor(np.zeros((1, 4, 6, 2)))
        m3 = Tensor(np.ones((1, 4, 6)))
        out = warp_coords(translation(0.1, 0.0), d, m3)
        base = identity_grid(4, 6)
        np.testing.assert_allclose(out[0, ..., 0], np.minimum(base[..., 0] + 0.1, 1.0),
                                   atol=1e-12)
        np.testing.assert_allclose(out[0, ..., 1], base[..., 1], atol=1e-12)
        assert out.shape == (1, 4, 6, 2)

    def test_masked_field_displaces_the_points(self):
        # p = X + m3 * D, then A p + t, for a non-trivial A
        d = np.zeros((1, 4, 6, 2))
        d[0, 1, 2] = (0.2, -0.1)
        m3 = np.full((1, 4, 6), 0.5)
        t = Tensor(np.array([[[0.9, 0.1, 0.05], [-0.1, 0.8, 0.0]]]))
        out = warp_coords(t, Tensor(d), Tensor(m3))
        pts = identity_grid(4, 6) + 0.5 * d[0]
        expect = np.clip(pts @ t.numpy()[0, :, :2].T + t.numpy()[0, :, 2], -1, 1)
        np.testing.assert_allclose(out[0], expect, atol=1e-12)


class TestWarp:
    def test_identity_warp_reproduces_image(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(size=(2, 8, 10, 3)).astype(np.float32)
        out = warp(img, translation(0.0, 0.0, n=2, dtype=np.float32),
                   Tensor(np.zeros((2, 8, 10, 2), np.float32)),
                   Tensor(np.ones((2, 8, 10), np.float32))).numpy()
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_integer_translation_interior(self):
        # previous frame shifted right by 1 px equals current; exact T warp
        # reproduces the current frame away from the border
        rng = np.random.default_rng(7)
        h, w, k = 16, 32, 2
        big = rng.uniform(size=(h, w + k, 3))
        cur = big[:, :w]
        prev = big[:, k:]
        # content moved left in prev; source coords = x + tx with tx = -2px
        tx = -2.0 * k / (w - 1)
        out = warp(prev[None], translation(tx, 0.0), Tensor(np.zeros((1, h, w, 2))),
                   Tensor(np.zeros((1, h, w)))).numpy()[0]
        err = np.abs(out - cur)[2:-2, 2:-2].mean()
        assert err < 1e-5

    def test_translation_composition_interior(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(size=(1, 16, 24, 3))
        t1, t2 = 2, 3  # pixels along x
        w = 24
        unit = 2.0 / (w - 1)

        def warp_tx(im, px):
            return warp(im, translation(px * unit, 0.0), Tensor(np.zeros((1, 16, 24, 2))),
                        Tensor(np.zeros((1, 16, 24)))).numpy()

        once = warp_tx(img, t1 + t2)
        twice = warp_tx(warp_tx(img, t1), t2)
        m = t1 + t2 + 1
        np.testing.assert_allclose(twice[:, :, m:-m], once[:, :, m:-m], atol=1e-5)


class TestLosses:
    def test_reconstruction_zero_and_positive(self):
        rng = np.random.default_rng(9)
        img = Tensor(rng.uniform(size=(1, 4, 6, 3)))
        assert reconstruction_loss(img, img).item() == 0.0
        other = Tensor(img.numpy() + 0.5)
        assert reconstruction_loss(img, other).item() > 0.0

    def test_reconstruction_hand_value(self):
        a = Tensor(np.full((1, 1, 1, 1), 3.0))
        b = Tensor(np.full((1, 1, 1, 1), 5.0))
        assert reconstruction_loss(a, b).item() == pytest.approx(2.0)

    def test_reconstruction_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(Tensor(np.zeros((1, 2, 2, 3))), Tensor(np.zeros((1, 2, 3, 3))))

    def test_smoothness_constant_field(self):
        d = Tensor(np.full((1, 5, 7, 2), 0.37))
        m3 = Tensor(np.full((1, 5, 7), 0.5))
        assert smoothness_loss(d, m3).item() == pytest.approx(0.0, abs=1e-12)

    def test_smoothness_unit_ramp(self):
        h, w = 6, 9
        d = np.zeros((1, h, w, 2))
        d[..., 0] = np.arange(w)[None, None, :]
        loss = smoothness_loss(Tensor(d), Tensor(np.ones((1, h, w))))
        assert loss.item() == pytest.approx(0.5, abs=1e-12)

    def test_smoothness_zero_mask(self):
        rng = np.random.default_rng(10)
        d = Tensor(rng.normal(size=(1, 5, 7, 2)))
        assert smoothness_loss(d, Tensor(np.zeros((1, 5, 7)))).item() == 0.0


def test_gradcheck_warp_chain():
    # d(loss)/d(affine params, field) through the warp + L1;
    # base translation keeps sample points off pixel-boundary kinks
    rng = np.random.default_rng(11)
    h, w = 8, 8
    prev = rng.uniform(size=(1, h, w, 3))
    cur = Tensor(rng.uniform(size=(1, h, w, 3)))
    m3 = Tensor(rng.uniform(0.2, 0.8, size=(1, h, w)))
    params = Tensor(np.array([0.011, 0.007, 0.153, -0.009, 0.012, 0.081]), requires_grad=True)
    field = Tensor(rng.uniform(-0.04, 0.04, size=(1, h, w, 2)) + 0.091, requires_grad=True)

    def fn(p, d):
        t = Tensor(np.eye(2, 3)[None]) + dc.reshape(p, (1, 2, 3))
        return reconstruction_loss(cur, warp(prev, t, d, m3))

    rep = grad_check(fn, [params, field], tol=1e-4)
    assert rep.passed, str(rep)


def test_warp_previous_identity_estimate():
    from egorec.motion import MotionEstimate
    rng = np.random.default_rng(12)
    frames = rng.uniform(size=(3, 16, 32, 3)).astype(np.float32)
    est = MotionEstimate(
        transform=Tensor(np.broadcast_to(np.eye(2, 3, dtype=np.float32), (2, 2, 3)).copy()),
        field=Tensor(np.zeros((2, 16, 32, 2), np.float32)),
        f_gm=Tensor(np.zeros((2, 4), np.float32)),
        f_lm=Tensor(np.zeros((2, 4), np.float32)),
    )
    out = warp_previous(frames, np.array([2, 0]), est,
                        Tensor(np.ones((2, 16, 32), np.float32))).numpy()
    np.testing.assert_allclose(out, frames[[2, 0]], atol=1e-6)
