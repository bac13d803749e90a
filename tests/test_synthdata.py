import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egorec.diffcore as dc
import egorec.synthdata as synthdata
from egorec.diffcore import Tensor
from egorec.imageio import write_pgm, write_ppm
from egorec.synthdata import (
    VARIANT_CLASSES,
    GenConfig,
    VideoClip,
    augment,
    crop_resize,
    generate_clip,
    generate_dataset,
    hsv_jitter,
    load_clip,
    load_manifest,
    load_split,
    make_scene,
    sample_frames,
    write_clip,
)

SMALL = GenConfig(height=16, width=32, length=12, area_range=(0.08, 0.14))


def small_clip(seed=0, class_id=0, variant="standard"):
    return generate_clip(make_scene(class_id, variant, seed, SMALL))


def decoded(clip):
    """A stored clip with its frames and masks decoded as ``sample_frames``
    decodes them, and its ground truth untouched."""
    return replace(clip, frames=clip.frames.astype(np.float32) / 255.0,
                   ref_masks=clip.ref_masks.astype(np.float32) / 255.0)


class TestGeneration:
    def test_deterministic_regeneration(self):
        a = small_clip(seed=7)
        b = small_clip(seed=7)
        assert a.frames.tobytes() == b.frames.tobytes()
        assert a.ref_masks.tobytes() == b.ref_masks.tobytes()
        np.testing.assert_array_equal(a.gt_global, b.gt_global)

    def test_stored_as_8_bit(self):
        clip = small_clip(seed=8)
        assert clip.frames.dtype == np.uint8 and clip.ref_masks.dtype == np.uint8

    def test_frames_and_masks_are_contiguous_uint8(self):
        clip = generate_clip(make_scene(0, "relation-only", 11))
        for a in (clip.frames, clip.ref_masks):
            assert a.dtype == np.uint8 and a.flags.c_contiguous

    def test_transient_memory_of_a_default_clip(self):
        # the peak this render had while its weights and masks broadcast
        # against the colour axis; the channel-contiguous render stays under it
        bound = 1_708_291
        scene = make_scene(0, "relation-only", 11)
        generate_clip(scene)
        tracemalloc.start()
        try:
            generate_clip(scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_mask_matches_sprite_alpha(self):
        clip = small_clip(seed=8)
        # binary mask, nonzero exactly where the sprite was composited
        assert set(np.unique(clip.ref_masks)) <= {0, 255}
        area = clip.ref_masks.mean(axis=(1, 2)) / 255
        assert (area > 0.03).all() and (area < 0.3).all()

    def test_static_scene_constant_frames(self):
        scene = make_scene(0, "standard", 9, SMALL)
        scene.cam_path = np.repeat(scene.cam_path[:1], scene.length, axis=0)
        scene.sprite_path = np.repeat(scene.sprite_path[:1], scene.length, axis=0)
        clip = generate_clip(scene)
        for t in range(1, clip.length):
            np.testing.assert_array_equal(clip.frames[t], clip.frames[0])
        assert not clip.gt_global[:, [2, 5]].any()

    @pytest.mark.parametrize("rows", [
        lambda r: r + 0.5,
        lambda r: r + np.arange(len(r)) % 2,
        lambda r: r + 100.0,
    ], ids=["fractional", "varying", "outside"])
    def test_camera_pans_at_one_integer_row(self, rows):
        scene = make_scene(0, "standard", 9, SMALL)
        scene.cam_path[:, 0] = rows(scene.cam_path[:, 0])
        with pytest.raises(ValueError, match="one integer row offset"):
            generate_clip(scene)

    def test_sprite_kept_inside_frame(self):
        for seed in range(20):
            clip = small_clip(seed=100 + seed, class_id=seed % 4)
            border = np.concatenate([
                clip.ref_masks[:, :2].reshape(-1),
                clip.ref_masks[:, -2:].reshape(-1),
                clip.ref_masks[:, :, :2].reshape(-1),
                clip.ref_masks[:, :, -2:].reshape(-1),
            ])
            assert not border.any()

    def test_class_directions(self):
        # classes 0-2 pin the camera pan and the sprite's in-frame drift
        for class_id, (cam, spr) in enumerate([(1, 1), (1, -1), (-1, 1)]):
            clip = small_clip(seed=200 + class_id, class_id=class_id)
            drift = clip.gt_local[:, 0] - clip.gt_global[:, 2]
            assert np.sign(clip.gt_global[:, 2].sum()) == cam
            assert np.sign(drift.sum()) == spr

    def test_order_class_sprite_before_camera(self):
        clip = small_clip(seed=300, class_id=3)
        drift = clip.gt_local[:, 0] - clip.gt_global[:, 2]
        spr_active = np.nonzero(np.abs(drift) > 1e-9)[0]
        cam_active = np.nonzero(np.abs(clip.gt_global[:, 2]) > 1e-9)[0]
        assert spr_active.max() < cam_active.min()


def reference_render(scene):
    """Frames and masks of ``scene`` rendered one frame at a time, each a
    float background blend with the sprite written over it, then rounded:
    the reference whose bytes ``generate_clip`` must reproduce."""
    h, w = scene.height, scene.width
    ay, ax = scene.sprite_axes
    bw = scene.background.shape[1]
    row = int(scene.cam_path[0, 0])
    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    rows = scene.background[row:row + h]
    x = np.clip(scene.cam_path[:, 1:] + xs, 0, bw - 1)
    x0 = np.minimum(x.astype(np.int64), bw - 2)
    fx = (x - x0)[..., None]
    frames = np.empty((scene.length, h, w, 3), np.uint8)
    masks = np.empty((scene.length, h, w), np.uint8)
    for t in range(scene.length):
        oy, ox = scene.cam_path[t]
        out = rows[:, x0[t]] * (1 - fx[t]) + rows[:, x0[t] + 1] * fx[t]
        py = scene.sprite_path[t, 0] - oy
        px = scene.sprite_path[t, 1] - ox
        dy = (ys[:, None] - py) / ay
        dx = (xs[None, :] - px) / ax
        inside = (dy * dy + dx * dx) <= 1.0
        iy, ix = np.nonzero(inside)
        out[iy, ix] = synthdata.sample_bilinear_np(scene.sprite_tex, ys[iy] - py + ay + 1.0,
                                                   xs[ix] - px + ax + 1.0)
        frames[t] = np.round(out * 255.0)
        masks[t] = inside * np.uint8(255)
    return frames, masks


def _camera_x(scene, camera):
    """The camera x track that ``camera`` names, over ``scene``'s background."""
    bw, w = scene.background.shape[1], scene.width
    return {
        "scene": scene.cam_path[:, 1],
        # a fractional offset of its own on every frame
        "distinct": np.linspace(0.25, bw - w - 0.25, scene.length),
        # the last column lands on bw - 1, so x0 clamps to bw - 2
        "right-edge": np.full(scene.length, float(bw - w)),
        "static": np.full(scene.length, scene.cam_path[0, 1]),
    }[camera]


@settings(max_examples=40, deadline=None)
@given(height=st.integers(12, 24), width=st.integers(24, 48), length=st.integers(6, 16),
       variant=st.sampled_from(sorted(VARIANT_CLASSES)), seed=st.integers(0, 2**16),
       camera=st.sampled_from(["scene", "distinct", "right-edge", "static"]), data=st.data())
def test_generate_clip_matches_per_frame_reference_property(height, width, length, variant,
                                                            seed, camera, data):
    class_id = data.draw(st.integers(0, VARIANT_CLASSES[variant] - 1), label="class_id")
    scene = make_scene(class_id, variant, seed,
                       GenConfig(height, width, length, area_range=(0.08, 0.14)))
    scene.cam_path[:, 1] = _camera_x(scene, camera)
    if camera == "distinct":
        # a sprite position of its own on every frame, rows included
        scene.sprite_path[:, 0] += np.linspace(-1.0, 1.0, length)
    if camera == "static":
        scene.sprite_path[:] = scene.sprite_path[0]
    clip = generate_clip(scene)
    frames, masks = reference_render(scene)
    assert clip.frames.shape == frames.shape and clip.frames.dtype == np.uint8
    assert clip.ref_masks.shape == masks.shape and clip.ref_masks.dtype == np.uint8
    assert clip.frames.tobytes() == frames.tobytes()
    assert clip.ref_masks.tobytes() == masks.tobytes()


def _dilate(mask, r):
    out = mask.copy()
    for _ in range(r):
        grown = out.copy()
        grown[1:] |= out[:-1]
        grown[:-1] |= out[1:]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def test_gt_conventions_against_warp():
    # integer step motions: warping the previous frame by the ground truth
    # transform and field must reproduce the current frame away from
    # borders and disocclusions
    scene = make_scene(0, "standard", 11, GenConfig(16, 32, 8, area_range=(0.08, 0.12)))
    scene.cam_path = scene.cam_path.round()
    scene.sprite_path = scene.sprite_path.round()
    clip = decoded(generate_clip(scene))
    t = int(np.argmax(np.abs(clip.gt_global[:, 2]))) + 1  # a pair with camera motion
    prev, cur = clip.frames[t - 1], clip.frames[t]
    g = clip.gt_global[t - 1]
    T = g.reshape(1, 2, 3)
    mask_cur = clip.ref_masks[t]
    # local dense motion of the interactor is the negated sprite displacement
    field = np.zeros((1, 16, 32, 2))
    field[..., 0] = -clip.gt_local[t - 1, 0]
    field[..., 1] = -clip.gt_local[t - 1, 1]
    out = dc.grid_sample(prev[None].astype(np.float64), np.array([0]), Tensor(T), Tensor(field),
                         Tensor(mask_cur[None].astype(np.float64))).numpy()[0]

    moving = _dilate((clip.ref_masks[t - 1] + mask_cur) > 0, 3)
    valid = np.zeros((16, 32), bool)
    valid[3:-3, 3:-3] = True
    bg_err = np.abs(out - cur)[valid & ~moving]
    assert bg_err.size > 50 and bg_err.max() < 5e-3

    inside = np.zeros_like(valid)
    inside[3:-3, 3:-3] = ~_dilate(mask_cur < 0.5, 2)[3:-3, 3:-3]
    if inside.any():
        spr_err = np.abs(out - cur)[inside]
        assert spr_err.max() < 5e-3


def _sample_bilinear_reference(img, ys, xs):
    """Bilinear sampling as one formula per point, each weight broadcast
    against the image's trailing axis: the reference whose bits
    ``sample_bilinear_np`` must reproduce."""
    h, w = img.shape[:2]
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.minimum(ys.astype(np.int64), max(h - 2, 0))
    x0 = np.minimum(xs.astype(np.int64), max(w - 2, 0))
    fy = (ys - y0)[..., None] if img.ndim == 3 else (ys - y0)
    fx = (xs - x0)[..., None] if img.ndim == 3 else (xs - x0)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    return (img[y0, x0] * (1 - fy) * (1 - fx) + img[y0, x1] * (1 - fy) * fx
            + img[y1, x0] * fy * (1 - fx) + img[y1, x1] * fy * fx)


def _coords(size):
    """Sample coordinates along an axis of ``size`` pixels: inside, on the
    border, and outside it."""
    return st.one_of(st.floats(0.0, size - 1.0), st.sampled_from([0.0, size - 1.0]),
                     st.floats(-3.0, size + 2.0))


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), channels=st.sampled_from([None, 1, 3, 60]),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**16),
       data=st.data())
def test_sample_bilinear_matches_per_point_formula_property(h, w, channels, dtype, seed, data):
    shape = (h, w) if channels is None else (h, w, channels)
    img = np.random.default_rng(seed).random(shape).astype(dtype)
    n = data.draw(st.integers(1, 12), label="n")
    ys = np.array(data.draw(st.lists(_coords(h), min_size=n, max_size=n), label="ys"))
    xs = np.array(data.draw(st.lists(_coords(w), min_size=n, max_size=n), label="xs"))
    out = synthdata.sample_bilinear_np(img, ys, xs)
    ref = _sample_bilinear_reference(img, ys, xs)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    # a grid: rows and columns broadcast against each other
    grid = synthdata.sample_bilinear_np(img, ys[:, None], xs[None, :])
    ref = _sample_bilinear_reference(img, ys[:, None] + np.zeros(n), xs[None, :] + np.zeros((n, 1)))
    assert grid.shape == ref.shape
    assert grid.tobytes() == ref.tobytes()


def _rgb_to_hsv_reference(rgb):
    """RGB to HSV on the interleaved channels, one ``np.where`` per hue case."""
    rgb = rgb.astype(np.float64)
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    diff = mx - mn
    safe = np.where(diff > 0, diff, 1.0)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    h = np.zeros_like(mx)
    h = np.where(mx == r, ((g - b) / safe) % 6.0, h)
    h = np.where(mx == g, (b - r) / safe + 2.0, h)
    h = np.where(mx == b, (r - g) / safe + 4.0, h)
    h = np.where(diff > 0, h / 6.0, 0.0)
    s = np.where(mx > 0, diff / np.where(mx > 0, mx, 1.0), 0.0)
    return np.stack([h, s, mx], axis=-1)


def _hsv_to_rgb_reference(hsv):
    """HSV to RGB on the interleaved channels, one ``np.where`` per sextant
    and channel."""
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    out = np.zeros(hsv.shape)
    for k, (rr, gg, bb) in enumerate(((v, t, p), (q, v, p), (p, v, t),
                                      (p, q, v), (t, p, v), (v, p, q))):
        m = i == k
        out[..., 0] = np.where(m, rr, out[..., 0])
        out[..., 1] = np.where(m, gg, out[..., 1])
        out[..., 2] = np.where(m, bb, out[..., 2])
    return out


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(3,), (5, 3), (2, 4, 6, 3)]), levels=st.sampled_from([2, 4, 256]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_hsv_pair_matches_interleaved_formula_property(shape, levels, dtype, seed):
    rng = np.random.default_rng(seed)
    # few levels make ties between channels, which decide the hue case
    rgb = (rng.integers(0, levels, shape) / (levels - 1)).astype(dtype)
    hsv = synthdata.rgb_to_hsv(rgb)
    assert hsv.tobytes() == _rgb_to_hsv_reference(rgb).tobytes()
    assert synthdata.hsv_to_rgb(hsv).tobytes() == _hsv_to_rgb_reference(hsv).tobytes()
    # any hue in [0, 1], the sextant boundaries and 1.0 (sextant 6 wraps to 0) included
    hsv = rng.random(shape).astype(dtype)
    hue = hsv[..., 0]
    boundary = rng.random(hue.shape) < 0.5
    hue[boundary] = rng.integers(0, 7, int(boundary.sum())) / 6.0
    out = synthdata.hsv_to_rgb(hsv)
    assert out.dtype == np.float64
    assert out.tobytes() == _hsv_to_rgb_reference(hsv).tobytes()


class TestSampling:
    def make(self, length):
        # each frame's first byte is its index
        frames = np.zeros((length, 4, 8, 3), np.uint8)
        frames[:, 0, 0, 0] = np.arange(length)
        gt_g = np.zeros((length - 1, 6))
        gt_g[:, 0] = gt_g[:, 4] = 1.0
        gt_g[:, 2] = 0.01
        gt_l = np.full((length - 1, 2), 0.02)
        return VideoClip(frames=frames, ref_masks=np.zeros((length, 4, 8), np.uint8),
                         label=1, gt_global=gt_g, gt_local=gt_l)

    @staticmethod
    def picked(out):
        return np.rint(out.frames[:, 0, 0, 0] * 255).astype(int)

    def test_exact_coverage(self):
        out = sample_frames(self.make(20), 20)
        np.testing.assert_array_equal(self.picked(out), np.arange(20))

    def test_stride_two(self):
        out = sample_frames(self.make(40), 20)
        np.testing.assert_array_equal(self.picked(out), np.arange(0, 40, 2))

    def test_short_clip_repeats(self):
        out = sample_frames(self.make(10), 20)
        np.testing.assert_array_equal(self.picked(out), np.repeat(np.arange(10), 2))

    def test_jitter_stays_in_segments(self):
        rng = np.random.default_rng(0)
        clip = self.make(40)
        for _ in range(10):
            out = sample_frames(clip, 20, rng)
            seg = self.picked(out) // 2
            np.testing.assert_array_equal(seg, np.arange(20))

    def test_gt_translation_accumulates(self):
        out = sample_frames(self.make(40), 20)
        np.testing.assert_allclose(out.gt_global[:, 2], 0.02, atol=1e-12)
        np.testing.assert_allclose(out.gt_local, 0.04, atol=1e-12)

    def test_gt_transforms_compose_bitwise_as_a_loop(self):
        """Each sampled pair's transform is bitwise the product of its raw
        pairs' 3x3 matrices taken one at a time from the identity, on random
        affine rows and sorted indices with repeats (a repeat keeps the
        identity)."""
        def loop(gt, idx):
            out = np.zeros((len(idx) - 1, 6))
            for k in range(len(idx) - 1):
                m = np.eye(3)
                for t in range(idx[k], idx[k + 1]):
                    m = np.vstack([gt[t].reshape(2, 3), [0.0, 0.0, 1.0]]) @ m
                out[k] = m[:2].reshape(-1)
            return out

        rng = np.random.default_rng(8)
        cases = [(10, np.array([0, 0, 3, 3, 3, 7, 9, 9]))] + [
            (length, np.sort(rng.integers(0, length, n)))
            for length, n in [(40, 20), (10, 20), (33, 7), (5, 2), (60, 24)] * 4]
        for length, idx in cases:
            gt = rng.normal(size=(length - 1, 6)) * rng.choice([1e-3, 1.0, 10.0])
            want = loop(gt, idx)
            assert synthdata._resample_global(gt, idx).tobytes() == want.tobytes()

    def test_decodes_every_code_as_float32_clips_held_it(self):
        # k / 255 in float64, rounded once to float32: what generated and
        # loaded clips held before they were stored as 8 bits
        codes = np.arange(256)
        clip = self.make(3)
        clip.frames[:] = np.resize(codes.astype(np.uint8), clip.frames.shape)
        clip.ref_masks[:, :, :4] = 255
        out = sample_frames(clip, 3)
        assert out.frames.dtype == np.float32 and out.ref_masks.dtype == np.float32
        ref = (codes / 255.0).astype(np.float32)
        assert out.frames.tobytes() == ref[clip.frames].tobytes()
        assert out.ref_masks.tobytes() == (clip.ref_masks // 255).astype(np.float32).tobytes()

    def test_decoded_clip_is_rejected(self):
        with pytest.raises(ValueError, match="sample_frames: needs a stored clip"):
            sample_frames(decoded(self.make(4)), 2)


def _crop_resize_whole_clip(clip, scale, rng):
    """crop_resize's frames and masks as one resize of the whole clip, the
    frames riding on the trailing axis."""
    length, h, w = clip.frames.shape[:3]
    ch, cw = int(round(scale * h)), int(round(scale * w))
    y0 = int(rng.integers(0, h - ch + 1))
    x0 = int(rng.integers(0, w - cw + 1))
    sub = clip.frames[:, y0:y0 + ch, x0:x0 + cw].transpose(1, 2, 0, 3)
    frames = synthdata.resize_bilinear_np(sub.reshape(ch, cw, length * 3), h, w)
    frames = frames.astype(np.float32).reshape(h, w, length, 3).transpose(2, 0, 1, 3)
    msub = clip.ref_masks[:, y0:y0 + ch, x0:x0 + cw].transpose(1, 2, 0)
    masks = synthdata.resize_bilinear_np(msub, h, w).astype(np.float32).transpose(2, 0, 1)
    return frames, masks


def _hsv_jitter_whole_clip(clip, hue_shift, sat_factor):
    """hsv_jitter's frames and masks with one conversion of the whole clip."""
    hsv = synthdata.rgb_to_hsv(clip.frames)
    hsv[..., 0] = (hsv[..., 0] + hue_shift) % 1.0
    hsv[..., 1] = np.clip(hsv[..., 1] * sat_factor, 0.0, 1.0)
    return synthdata.hsv_to_rgb(hsv).astype(np.float32), clip.ref_masks


class TestAugment:
    def test_hsv_leaves_masks_bitwise(self):
        clip = decoded(small_clip(seed=14))
        out = hsv_jitter(clip, 0.04, 1.2)
        assert out.ref_masks.tobytes() == clip.ref_masks.tobytes()
        assert out.frames.tobytes() != clip.frames.tobytes()

    def test_crop_too_large_raises(self):
        clip = decoded(small_clip(seed=15))
        with pytest.raises(ValueError):
            crop_resize(clip, 1.2, np.random.default_rng(0))

    def test_crop_scales_gt(self):
        clip = decoded(small_clip(seed=16))
        out = crop_resize(clip, 0.75, np.random.default_rng(1))
        ch, cw = round(0.75 * 16), round(0.75 * 32)
        np.testing.assert_allclose(out.gt_global[:, 2],
                                   clip.gt_global[:, 2] * (32 - 1) / (cw - 1))
        np.testing.assert_allclose(out.gt_global[:, 5],
                                   clip.gt_global[:, 5] * (16 - 1) / (ch - 1))

    def test_augment_geometry_consistency(self, monkeypatch):
        monkeypatch.setattr(synthdata, "P_CROP", 1.0)
        monkeypatch.setattr(synthdata, "P_HSV", 1.0)
        rng = np.random.default_rng(17)
        clip = decoded(small_clip(seed=18))
        out = augment(clip, rng)
        assert out.frames.shape == clip.frames.shape
        assert out.ref_masks.shape == clip.ref_masks.shape
        # mask stays in [0, 1] after the shared geometric transform
        assert out.ref_masks.min() >= 0.0 and out.ref_masks.max() <= 1.0

    @pytest.mark.parametrize("transform, reference, args", [
        pytest.param(crop_resize, _crop_resize_whole_clip,
                     lambda: (0.75, np.random.default_rng(2)), id="crop_resize-0.75"),
        pytest.param(crop_resize, _crop_resize_whole_clip,
                     lambda: (0.9, np.random.default_rng(3)), id="crop_resize-0.9"),
        pytest.param(hsv_jitter, _hsv_jitter_whole_clip, lambda: (0.05, 1.3),
                     id="hsv_jitter-up"),
        pytest.param(hsv_jitter, _hsv_jitter_whole_clip, lambda: (-0.06, 0.7),
                     id="hsv_jitter-down"),
    ])
    def test_default_clip_runs_frame_by_frame(self, transform, reference, args):
        """On a default clip (20 sampled frames of 32x64), each transform's
        traced peak, its output included, is at most 2 MiB (the whole-clip
        forms took 3.7 and 6.9 MiB), and its frames and masks are bitwise
        those of the whole-clip form."""
        clip = sample_frames(generate_clip(make_scene(1, "standard", 8)), 20)
        assert clip.frames.shape == (20, 32, 64, 3)
        transform(clip, *args())    # a first call's one-off allocations
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = transform(clip, *args())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * 2**20, (peak - before) / 2**20
        frames, masks = reference(clip, *args())
        assert out.frames.tobytes() == frames.tobytes()
        assert out.ref_masks.tobytes() == masks.tobytes()

    def test_undecoded_clip_is_rejected(self):
        # crop_resize would otherwise resample into uint8 and truncate
        with pytest.raises(ValueError, match="augment: .* 8-bit"):
            augment(small_clip(seed=18), np.random.default_rng(17))


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        # the second clip's length differs from the config default, so the
        # reader must take it from the file, not from a GenConfig
        clips = [small_clip(seed=19),
                 generate_clip(make_scene(2, "standard", 20, GenConfig(16, 32, length=9)))]
        for i, clip in enumerate(clips):
            write_clip(tmp_path / f"c{i}", clip)
            back = load_clip(tmp_path / f"c{i}", clip.label)
            frames, masks = np.asarray(back.frames), np.asarray(back.ref_masks)
            assert frames.dtype == np.uint8 and masks.dtype == np.uint8
            assert back.length == clip.length
            assert frames.shape == clip.frames.shape and masks.shape == clip.ref_masks.shape
            assert frames.tobytes() == clip.frames.tobytes()
            assert masks.tobytes() == clip.ref_masks.tobytes()
            np.testing.assert_array_equal(back.gt_global, clip.gt_global)
            np.testing.assert_array_equal(back.gt_local, clip.gt_local)

    def test_generate_and_load_dataset(self, tmp_path):
        man = generate_dataset(tmp_path / "ds", clips_per_class=3, variant="standard",
                               seed=5, config=SMALL)
        assert man.num_classes == 4
        loaded = load_manifest(tmp_path / "ds")
        assert loaded.num_classes == 4 and loaded.variant == "standard"
        assert len(loaded.entries) == 12
        train = load_split(loaded, "train")
        test = load_split(loaded, "test")
        assert len(train) == 8 and len(test) == 4
        labels = sorted(e.label for e in loaded.split("train"))
        assert labels == [0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("kwargs, match", [
        pytest.param(dict(variant="bogus"), "unknown variant 'bogus'", id="variant"),
        pytest.param(dict(clips_per_class=0), "clips_per_class .* at least 1, got 0",
                     id="no-clips"),
        pytest.param(dict(clips_per_class=2.0), "clips_per_class .* got 2.0", id="float-clips"),
        pytest.param(dict(train_fraction=1.5), r"train_fraction must be in \[0, 1\], got 1.5",
                     id="fraction-above-1"),
        pytest.param(dict(train_fraction=float("nan")), "train_fraction must be in",
                     id="fraction-nan"),
        pytest.param(dict(train_fraction=0.1), "train_fraction 0.1 of 3 clips per class "
                     "leaves the train split empty", id="empty-train"),
        pytest.param(dict(seed=-1), "seed must be a non-negative integer, got -1",
                     id="negative-seed"),
    ])
    def test_bad_input_raises_before_writing(self, tmp_path, kwargs, match):
        args = dict(clips_per_class=3, variant="standard", seed=5, config=SMALL) | kwargs
        with pytest.raises(ValueError, match=f"generate_dataset: {match}"):
            generate_dataset(tmp_path / "ds", **args)
        assert not (tmp_path / "ds").exists()

    def test_missing_split_raises(self, tmp_path):
        man = generate_dataset(tmp_path / "ds2", clips_per_class=1, variant="relation-only",
                               seed=6, train_fraction=1.0, config=SMALL)
        with pytest.raises(ValueError):
            man.split("test")


class TestOnDemandReads:
    """A loaded clip holds file offsets, and ``sample_frames`` reads the
    rows it samples from the files."""

    def test_a_loaded_split_holds_no_pixels(self, tmp_path):
        man = generate_dataset(tmp_path, clips_per_class=2, variant="standard", seed=7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clips = load_split(man, "train") + load_split(man, "test")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cfg = GenConfig()
        strip_bytes = cfg.length * cfg.height * cfg.width * (3 + 1)
        assert len(clips) == 8 and clips[0].length == cfg.length
        assert retained < strip_bytes

    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("seed", [None, 4])
    def test_sampled_bitwise_equal_to_the_generated_clip(self, tmp_path, n, seed):
        # 16 of 12 frames repeats rows
        clip = small_clip(seed=22, class_id=3)
        write_clip(tmp_path, clip)
        loaded = load_clip(tmp_path, clip.label)
        rng = None if seed is None else np.random.default_rng(seed)
        got = sample_frames(loaded, n, rng)
        rng = None if seed is None else np.random.default_rng(seed)
        want = sample_frames(clip, n, rng)
        assert got.label == want.label
        for name in ("frames", "ref_masks", "gt_global", "gt_local"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: (d / "frames.ppm").write_bytes(
            (d / "frames.ppm").read_bytes()[:-100]), id="truncated"),
        pytest.param(lambda d: write_clip(
            d, generate_clip(make_scene(1, "standard", 23, replace(SMALL, length=9)))),
            id="rewritten"),
    ])
    @pytest.mark.parametrize("seed", [None, 4])
    def test_a_changed_file_names_itself(self, tmp_path, edit, seed):
        write_clip(tmp_path, small_clip(seed=21))
        clip = load_clip(tmp_path, 0)
        edit(tmp_path)
        rng = None if seed is None else np.random.default_rng(seed)
        with pytest.raises(ValueError, match="truncated pixel data") as err:
            sample_frames(clip, 6, rng)
        assert str(tmp_path / "frames.ppm") in str(err.value)


def test_relation_only_marginals_balanced():
    # camera direction is close to uniform within each class
    rng_range = 200
    for class_id in (0, 1):
        rights = 0
        for j in range(rng_range):
            scene = make_scene(class_id, "relation-only", 70_000 + j * 2 + class_id, SMALL)
            rights += np.diff(scene.cam_path[:, 1]).sum() > 0
        freq = rights / rng_range
        assert 0.4 <= freq <= 0.6, f"class {class_id}: camera-right freq {freq}"


MANIFEST = "K=2\nvariant=standard\nseed=1\nc0\t0\ttrain\nc1\t1\ttest\n"


class TestManifestErrors:
    def test_well_formed(self, tmp_path):
        (tmp_path / "manifest.txt").write_text(MANIFEST)
        man = load_manifest(tmp_path)
        assert (man.num_classes, man.variant, man.seed) == (2, "standard", 1)
        assert [(e.directory, e.label, e.split) for e in man.entries] == [
            ("c0", 0, "train"), ("c1", 1, "test")]

    @pytest.mark.parametrize("old, new, match", [
        pytest.param("c1\t1\ttest", "c1\t1", ":5: expected .* got 2 tab-separated fields",
                     id="two-fields"),
        pytest.param("c1\t1\ttest", "c1\t1\ttest\tx",
                     ":5: expected .* got 4 tab-separated fields", id="four-fields"),
        pytest.param("c1\t1\t", "c1\tone\t", ":5: label 'one' is not an integer",
                     id="label-not-int"),
        pytest.param("K=2\n", "", "missing header K", id="no-K"),
        pytest.param("variant=standard\n", "", "missing header variant", id="no-variant"),
        pytest.param("seed=1\n", "", "missing header seed", id="no-seed"),
        pytest.param("seed=1\n", "seed=1\ngarbage line\n",
                     ":4: expected key=value or a tab-separated entry, got 'garbage line'",
                     id="garbage-line"),
        pytest.param("seed=1\n", "seed=1\nseed=2\n", ":4: repeated header key 'seed'",
                     id="repeated-key"),
        pytest.param("seed=1\n", "seed=1\ncolor=red\n", ":4: unknown header key 'color'",
                     id="unknown-key"),
        pytest.param("variant=standard", "variant=bogus", ":2: unknown variant 'bogus'",
                     id="unknown-variant"),
    ])
    def test_malformed_names_the_file(self, tmp_path, old, new, match):
        (tmp_path / "manifest.txt").write_text(MANIFEST.replace(old, new))
        with pytest.raises(ValueError, match=match) as err:
            load_manifest(tmp_path)
        assert str(tmp_path / "manifest.txt") in str(err.value)


def _edit_gt(edit):
    def apply(clip_dir):
        path = clip_dir / "gt.txt"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return apply


def _replace_line(i, text):
    return _edit_gt(lambda lines: lines[:i] + [text(lines[i])] + lines[i + 1:])


class TestClipErrors:
    # SMALL clips: 12 frames of 16x32, so gt.txt holds a header and 11 rows
    @pytest.mark.parametrize("name, edit, match", [
        pytest.param("gt.txt", _replace_line(2, lambda line: " ".join(line.split()[:7])),
                     ":3: expected 8 numbers, got 7 fields", id="seven-fields"),
        pytest.param("gt.txt", _replace_line(1, lambda line: "x " + line.split(" ", 1)[1]),
                     ":2: could not convert string to float: 'x'", id="not-a-number"),
        pytest.param("gt.txt", _edit_gt(lambda lines: lines[1:]), ":1: missing header frames",
                     id="no-header"),
        pytest.param("gt.txt", _replace_line(0, lambda line: "frames=12.0"),
                     ":1: frames '12.0' is not an integer", id="header-not-int"),
        pytest.param("gt.txt", _replace_line(0, lambda line: "frames=0"),
                     ":1: frames=0 is not positive", id="header-zero"),
        pytest.param("gt.txt", _edit_gt(lambda lines: lines[:4]),
                     ": 3 rows for frames=12, expected 11", id="short"),
        pytest.param("frames.ppm",
                     lambda d: write_ppm(d / "frames.ppm", np.zeros((12 * 16 - 1, 32, 3))),
                     ": height 191 is not a multiple of frames=12", id="strip-height"),
        pytest.param("masks.pgm", lambda d: write_pgm(d / "masks.pgm", np.zeros((12 * 16, 31))),
                     ": size 31x192 does not match 12 frames of 32x16", id="mask-width"),
        pytest.param("masks.pgm", lambda d: write_pgm(d / "masks.pgm", np.zeros((11 * 16, 32))),
                     ": size 32x176 does not match 12 frames of 32x16", id="mask-frames"),
    ])
    def test_malformed_names_the_file(self, tmp_path, name, edit, match):
        write_clip(tmp_path, small_clip(seed=21))
        edit(tmp_path)
        with pytest.raises(ValueError, match=match) as err:
            load_clip(tmp_path, 0)
        assert str(tmp_path / name) in str(err.value)


def _digest(clips):
    """SHA-256 of the clips, with 8-bit frames and masks, in memory or read
    from a loaded clip's files, decoded to float32 k / 255 as
    ``sample_frames`` decodes them."""
    h = hashlib.sha256()
    for clip in clips:
        for a in (clip.frames, clip.ref_masks, clip.gt_global, clip.gt_local):
            a = np.asarray(a)
            if a.dtype == np.uint8:
                a = a.astype(np.float32) / 255.0
            h.update(a.tobytes())
        h.update(str(clip.label).encode())
    return h.hexdigest()


class TestBitwiseOutputs:
    """Generator, storage and augmentation outputs pinned to SHA-256 digests."""

    def test_dataset_from_disk(self, tmp_path):
        man = generate_dataset(tmp_path, clips_per_class=2, variant="standard", seed=5,
                               config=SMALL)
        clips = load_split(man, "train") + load_split(man, "test")
        assert _digest(clips) == (
            "aa5db86c9c221811135fb4a17e928a3dfc43274ab2f3cb0119be68e9232c6301")

    def test_sampled_dataset_from_disk(self, tmp_path):
        # the digest of float32 clips loaded and sampled before clips were
        # held as 8 bits: decoding in sample_frames changes no bit
        man = generate_dataset(tmp_path, clips_per_class=2, variant="standard", seed=5,
                               config=SMALL)
        rng = np.random.default_rng(3)
        clips = [sample_frames(c, 6, rng)
                 for c in load_split(man, "train") + load_split(man, "test")]
        assert all(c.frames.dtype == np.float32 for c in clips)
        assert _digest(clips) == (
            "41b1ff32e0bb9d0a4623c6d8f0b4d92208ec520efd7ee9de0504056ac5b09d47")

    def test_default_config_clips(self):
        clips = [generate_clip(make_scene(c, "relation-only", 11 + c)) for c in (0, 1)]
        assert _digest(clips) == (
            "16a76b628819e05aa2a57af1bbf06878b750ff7b60501580218020b06ecae5ae")
        clips = [generate_clip(make_scene(c, "standard", 21 + c)) for c in range(4)]
        assert _digest(clips) == (
            "2638d0f3cb22cbd3b7c374e990d89265fc6668965460f7c178e045268f4c7e8b")

    def test_stored_files(self, tmp_path):
        write_clip(tmp_path, small_clip(seed=21, class_id=1))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("frames.ppm", "masks.pgm", "gt.txt")}
        assert digests == {
            "frames.ppm": "91deb53824ec817fd358460a58c9867e8c0f51f31f3fdd493832c87335903302",
            "masks.pgm": "658cfe7fe4964413665cd22219f8631f487b89753a933546420e89f620bff4cb",
            "gt.txt": "bc83cb20d3b9d0a55cdde121f5371b3ea0eb5a6ed509a639ebc2e09a9be6e66a",
        }

    def test_cropped_clip_layout(self):
        # the outputs are resized frame by frame into C-contiguous clips
        clip = crop_resize(decoded(small_clip(seed=18)), 0.8, np.random.default_rng(17))
        assert clip.frames.flags.c_contiguous and clip.ref_masks.flags.c_contiguous
        assert clip.frames.dtype == clip.ref_masks.dtype == np.float32

    def test_augmented_clip(self, monkeypatch):
        monkeypatch.setattr(synthdata, "P_CROP", 1.0)
        monkeypatch.setattr(synthdata, "P_HSV", 1.0)
        out = augment(decoded(small_clip(seed=18)), np.random.default_rng(17))
        assert _digest([out]) == (
            "c819fe97b22a44a9ca4518ff764e973633715e7f45657a95990a22345e5a2239")
