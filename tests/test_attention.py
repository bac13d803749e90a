import numpy as np
import pytest

import egorec.diffcore as dc
from egorec.attention import (
    MASK_EPS,
    MaskDecoder,
    MultiScaleMasks,
    global_pool,
    mask_iou,
    resize_area,
    segmentation_loss,
    weighted_pool,
)
from egorec.diffcore import ShapeError, Tape, Tensor, backward

from gradcheck import grad_check


def const_masks(shapes, value):
    return MultiScaleMasks(*[Tensor(np.full(s, value, np.float64)) for s in shapes])


MASK_SHAPES = [(1, 4, 8), (1, 8, 16), (1, 16, 32), (1, 32, 64)]


def upsampled(masks):
    return (masks.m1, masks.m2, masks.m3)


class TestPredictMasks:
    def test_mask_shapes(self):
        dec = MaskDecoder(24, np.random.default_rng(0))
        feats = Tensor(np.random.default_rng(1).normal(size=(2, 4, 8, 24)).astype(np.float32))
        masks = dec.predict_masks(feats)
        assert masks.m0.shape == (2, 4, 8)
        assert masks.m1.shape == (2, 8, 16)
        assert masks.m2.shape == (2, 16, 32)
        assert masks.m3.shape == (2, 32, 64)

    def test_zero_logits_give_half(self):
        dec = MaskDecoder(6, np.random.default_rng(2))
        for _, p in dec.named_parameters():
            p.data = np.zeros_like(p.data)
        feats = Tensor(np.random.default_rng(3).normal(size=(1, 2, 4, 6)).astype(np.float32))
        masks = dec.predict_masks(feats)
        for m in (masks.m0,) + upsampled(masks):
            np.testing.assert_array_equal(m.numpy(), np.full(m.shape, 0.5, np.float32))

    def test_bad_feature_shape(self):
        dec = MaskDecoder(24, np.random.default_rng(4))
        with pytest.raises(ShapeError):
            dec.predict_masks(Tensor(np.zeros((1, 4, 8, 12), np.float32)))

    def test_parameters_are_the_upsampling_stages_and_heads(self):
        names = {n for n, _ in MaskDecoder(24, np.random.default_rng(0)).named_parameters()}
        assert names == {f"{m}.{i}.{p}" for m in ("up", "heads") for i in range(3) for p in "wb"}

    def test_m0_is_area_pooled_m3(self):
        dec = MaskDecoder(24, np.random.default_rng(5))
        feats = Tensor(np.random.default_rng(6).normal(size=(3, 4, 8, 24)).astype(np.float32))
        masks = dec.predict_masks(feats)
        assert masks.m0.numpy().tobytes() == resize_area(masks.m3.numpy(), 4, 8).tobytes()

    def test_without_need_seg_only_m0_and_m3_are_made(self, monkeypatch):
        """Without ``need_seg`` the m1 and m2 heads are not called, and m0
        and m3 are bitwise those of a call that runs every head."""
        dec = MaskDecoder(24, np.random.default_rng(9))
        feats = Tensor(np.random.default_rng(10).normal(size=(2, 4, 8, 24)).astype(np.float32))
        full = dec.predict_masks(feats)
        called = []
        spies = [lambda x, k=k: called.append(k) for k in (0, 1)]
        monkeypatch.setattr(dec, "heads", spies + dec.heads[2:])
        masks = dec.predict_masks(feats, need_seg=False)
        assert called == [] and masks.m1 is None and masks.m2 is None
        assert masks.m0.numpy().tobytes() == full.m0.numpy().tobytes()
        assert masks.m3.numpy().tobytes() == full.m3.numpy().tobytes()

    def test_m0_trains_the_finest_scale_only(self):
        """A loss on m0 alone reaches every upsampling stage and the m3 head,
        and leaves the m1 and m2 heads at an exact-zero gradient."""
        dec = MaskDecoder(24, np.random.default_rng(7))
        feats = Tensor(np.random.default_rng(8).normal(size=(2, 4, 8, 24)).astype(np.float32))
        with Tape() as tape:
            loss = dc.mean(dec.predict_masks(feats).m0)
        backward(tape, loss, dec.parameters())
        grads = {n: p.grad for n, p in dec.named_parameters()}
        for name in ("up.0.w", "up.1.w", "up.2.w", "heads.2.w"):
            assert np.abs(grads[name]).max() > 0, name
        for name in ("heads.0.w", "heads.0.b", "heads.1.w", "heads.1.b"):
            assert not grads[name].any(), name


class TestSegmentationLoss:
    def test_all_half_masks(self):
        ref = np.random.default_rng(5).uniform(size=(1, 32, 64))
        loss = segmentation_loss(const_masks(MASK_SHAPES, 0.5), ref)
        assert loss.item() == pytest.approx(3 * np.log(2), abs=1e-9)

    def test_perfect_prediction_block_aligned(self):
        ref = np.zeros((1, 32, 64))
        ref[:, :, :32] = 1.0  # binary and aligned to every 8x8 block
        masks = [Tensor(resize_area(ref, s[1], s[2])) for s in MASK_SHAPES]
        loss = segmentation_loss(MultiScaleMasks(*masks), ref)
        # the clamp at 1e-7 leaves a loss of order eps, not exactly 0
        assert 0.0 <= loss.item() < 1e-5

    def test_inverted_binary_mask(self):
        ref = np.zeros((1, 32, 64))
        ref[:, :, :32] = 1.0
        masks = [Tensor(1.0 - resize_area(ref, s[1], s[2])) for s in MASK_SHAPES]
        loss = segmentation_loss(MultiScaleMasks(*masks), ref)
        assert loss.item() == pytest.approx(3 * np.log(1e7), rel=1e-6)

    def test_pixel_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        ref = (rng.uniform(size=(1, 4, 8)) > 0.5).astype(np.float64)
        mvals = rng.uniform(0.1, 0.9, size=(1, 4, 8))
        perm = rng.permutation(32)

        def loss_on(m, r):
            # single supervised scale via identical shapes at k=1..3
            masks = MultiScaleMasks(Tensor(m), Tensor(m), Tensor(m), Tensor(m))
            return segmentation_loss(masks, r).item()

        base = loss_on(mvals, ref)
        mp = mvals.reshape(1, 32)[:, perm].reshape(1, 4, 8)
        rp = ref.reshape(1, 32)[:, perm].reshape(1, 4, 8)
        assert loss_on(mp, rp) == pytest.approx(base, rel=1e-12)

    @staticmethod
    def _chain_loss(masks, ref):
        """The loss as a chain of generic ops: the reference it is bitwise
        equal to."""
        total = None
        for m in upsampled(masks):
            target = Tensor(resize_area(ref, *m.shape[1:3]).astype(m.dtype))
            mc = dc.clip(m, MASK_EPS, 1.0 - MASK_EPS)
            # 1 - x as -1 * x + 1, bitwise the same
            term = dc.mean(target * dc.log(mc) + (target * -1.0 + 1.0) * dc.log(mc * -1.0 + 1.0),
                           axis=(1, 2))
            total = term if total is None else total + term
        return dc.mean(total * -1.0)

    def test_bitwise_equal_to_the_chain(self):
        """float32 masks with values inside, at and beyond the clamp bounds,
        against a reference with soft edges: the loss and every scale's
        gradient are bitwise the chain's."""
        rng = np.random.default_rng(12)
        ref = resize_area(np.repeat(np.repeat(rng.uniform(size=(3, 8, 16)) > 0.6, 4, 1), 4, 2)
                          .astype(np.float64), 32, 64)
        ref[:, 5:9, 7:20] = 0.37
        special = np.float32([0.0, 1.0, MASK_EPS, 1.0 - MASK_EPS, 1e-9])
        data = []
        for s in MASK_SHAPES:
            m = rng.uniform(size=(3, *s[1:])).astype(np.float32)
            m.reshape(-1)[rng.choice(m.size, m.size // 5)] = rng.choice(special, m.size // 5)
            data.append(m)

        def run(loss_fn):
            masks = MultiScaleMasks(*[Tensor(m, requires_grad=True) for m in data])
            with Tape() as tape:
                loss = loss_fn(masks, ref)
            backward(tape, loss)
            return [loss.data] + [m.grad for m in upsampled(masks)]

        for a, b in zip(run(segmentation_loss), run(self._chain_loss)):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes()

    def test_ref_shape_mismatch(self):
        with pytest.raises(ShapeError):
            segmentation_loss(const_masks(MASK_SHAPES, 0.5), np.zeros((1, 16, 32)))

    def test_gradcheck_through_decoder(self):
        # positive bias shift keeps relu paths active so no gradient
        # coordinate falls below what central differences can resolve
        dec = MaskDecoder(3, np.random.default_rng(904), widths=(3, 3, 2))
        for up in dec.up:
            up.b.data = up.b.data + 0.3
        feats = Tensor(np.random.default_rng(954).normal(size=(1, 2, 4, 3)))
        ref = (np.random.default_rng(9).uniform(size=(1, 16, 32)) > 0.6).astype(np.float64)

        def fn(*params):
            return segmentation_loss(dec.predict_masks(feats), ref)

        rep = grad_check(fn, dec.parameters(), tol=1e-5)
        assert rep.passed, str(rep)


class TestPooling:
    def test_uniform_mask_equals_global_pool(self):
        rng = np.random.default_rng(10)
        f = Tensor(rng.normal(size=(3, 4, 8, 5)))
        ones = Tensor(np.ones((3, 4, 8)))
        np.testing.assert_array_equal(weighted_pool(f, ones).numpy(),
                                      global_pool(f).numpy())

    def test_delta_mask_selects_cell(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(1, 4, 8, 5))
        m = np.zeros((1, 4, 8))
        m[0, 2, 3] = 1.0
        out = weighted_pool(Tensor(f), Tensor(m)).numpy()
        np.testing.assert_allclose(out[0], f[0, 2, 3], atol=1e-12)

    def test_two_cell_average(self):
        rng = np.random.default_rng(12)
        f = rng.normal(size=(1, 4, 8, 5))
        m = np.zeros((1, 4, 8))
        m[0, 1, 2] = 0.5
        m[0, 3, 6] = 0.5
        out = weighted_pool(Tensor(f), Tensor(m)).numpy()
        np.testing.assert_allclose(out[0], 0.5 * (f[0, 1, 2] + f[0, 3, 6]), atol=1e-12)

    def test_global_pool_constant_and_hand_mean(self):
        f = np.zeros((1, 2, 1, 2))
        f[0, :, 0, 0] = [1.0, 3.0]
        f[0, :, 0, 1] = 7.0
        out = global_pool(Tensor(f)).numpy()
        np.testing.assert_allclose(out[0], [2.0, 7.0], atol=1e-15)

    def test_convex_envelope(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=(2, 4, 8, 3))
        m = rng.uniform(0.01, 1.0, size=(2, 4, 8))
        out = weighted_pool(Tensor(f), Tensor(m)).numpy()
        lo = f.min(axis=(1, 2))
        hi = f.max(axis=(1, 2))
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_pool(Tensor(np.zeros((1, 4, 8, 3))), Tensor(np.zeros((1, 4, 4))))


def test_resize_area_box_means():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    out = resize_area(x, 2, 2)
    np.testing.assert_allclose(out[0], [[2.5, 4.5], [10.5, 12.5]])
    with pytest.raises(ShapeError):
        resize_area(x, 3, 2)


def test_resize_area_bits_ignore_memory_layout():
    """The same mask values laid out (L, H, W) in memory and, as
    ``crop_resize`` returns them, (H, W, L) resize to the same bits."""
    ref = np.random.default_rng(3).uniform(size=(20, 32, 64)).astype(np.float32)
    strided = np.ascontiguousarray(ref.transpose(1, 2, 0)).transpose(2, 0, 1)
    for h, w in [(4, 8), (8, 16), (16, 32)]:
        assert resize_area(strided, h, w).tobytes() == resize_area(ref, h, w).tobytes()


def test_mask_iou_basics():
    a = np.zeros((1, 4, 4))
    b = np.zeros((1, 4, 4))
    a[0, :2] = 1.0
    b[0, :2] = 1.0
    assert mask_iou(a, b) == 1.0
    b[0] = 0.0
    b[0, 2:] = 1.0
    assert mask_iou(a, b) == 0.0
