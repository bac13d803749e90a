"""Synthetic two-actor clips with ground-truth masks and motion.

Each clip renders a moving crop of a smooth textured background (the camera
pan) with a textured ellipse sprite composited on top (the interactor).
Both actors move horizontally inside a motion window of the clip. Labels:

  standard (4 classes)
    0: camera right, sprite right (simultaneous)
    1: camera right, sprite left
    2: camera left, sprite right
    3: sprite moves first, camera moves afterwards (random directions)

  relation-only (2 classes)
    0: same direction, 1: opposite direction; the camera direction is
    sampled uniformly per clip, so neither stream's direction alone
    carries any class information.

Rendering contract: the camera pans horizontally at one integer row offset
into the background, so a frame's background is a two-column bilinear
blend of the same rows, rendered once per distinct camera x offset. The
sprite's mask is binary: its texture is sampled only under the mask, once
per distinct in-frame position, and replaces the background there. Both
are rounded to uint8 first: rounding is per element and each pixel is
background or sprite, so the bytes equal those of rounding each frame.

Layout: no elementwise step broadcasts a weight or mask against a colour
axis of 3, which would leave numpy 3-element inner loops. Resampling
(``sample_bilinear_np``) works on contiguous colour planes, and the
background blend and the sprite composite repeat each weight and mask
over the channels first. Each element still gets the same products in
the same order as the per-pixel formula, so the bytes do not change.

Ground truth per raw frame pair: the 6 affine parameters of the global
transform (normalized [-1, 1] coordinates, mapping current-frame points to
previous-frame points) and the sprite's world displacement.

Stored clips hold their frames and masks as uint8, the bytes of the files
(mask alpha 0/1 as 0/255). ``generate_clip`` returns them as arrays;
``load_clip`` returns ``FilmStrip``s, which hold the files' paths and
offsets and no pixels, so a loaded split's memory is its ground truth and
grows with the batch, not the dataset. A loaded clip reads its files each
time it is sampled, so a live split needs them until it is dropped: a file
that was removed, or whose size changed, raises ``OSError`` or a
``ValueError`` naming it at the next read. ``sample_frames`` is the one
decoder: it reads only the rows it samples, from either kind, and the clip
it returns holds float32 frames and masks in [0, 1], which ``augment`` and
the model take.

Sampling follows one policy, switched by an rng as in Temporal Segment
Networks: ``sample_frames`` takes one frame per equal segment, the first
without an rng (evaluation) and a uniform one with it (training), and
training clips then pass through ``augment``, which crops and jitters hue
and saturation with the fixed probabilities of the ``P_*`` constants.

On-disk format: ``manifest.txt`` with ``K=``, ``variant=``, ``seed=``
headers and ``clip_dir<TAB>label<TAB>split`` lines. Each clip directory
holds three files: ``frames.ppm``, the L frames stacked top to bottom into
one (L*H, W) film strip; ``masks.pgm``, the masks in the same strip
layout; and ``gt.txt``, a ``frames=<L>`` header followed by one line of
8 floats per pair (the 6 affine parameters, then the sprite displacement).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .imageio import FilmStrip, open_pgm, open_ppm, write_pgm, write_ppm

VARIANT_CLASSES = {"standard": 4, "relation-only": 2}


# ---------------------------------------------------------------------------
# plain-numpy resampling helpers (generation is not differentiated)


def resize_bilinear_np(img: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Align-corners bilinear resize of (H, W, ...) arrays."""
    h, w = img.shape[:2]
    ys = np.linspace(0, h - 1, oh) if oh > 1 else np.zeros(1)
    xs = np.linspace(0, w - 1, ow) if ow > 1 else np.zeros(1)
    return sample_bilinear_np(img, ys[:, None], xs[None, :])


def sample_bilinear_np(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Gather img at fractional (ys, xs), border-clamped; ``ys`` and ``xs``
    broadcast against each other and the image's trailing dims ride along.

    The image is read as channel planes, one contiguous (H*W,) row per
    trailing element, and each of the four taps is one ``np.take`` on them at
    flat index ``y * W + x``. A weight thus multiplies whole planes, the same
    for every channel, instead of broadcasting against a short channel axis.
    Every element still gets ``tap * (1 - fy) * (1 - fx)`` and the other three
    products in the same order, summed in the same order, so its bits are
    those of the per-point formula. The result is a (..., *trailing) view of
    the planes.
    """
    h, w = img.shape[:2]
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.minimum(ys.astype(np.int64), max(h - 2, 0))
    x0 = np.minimum(xs.astype(np.int64), max(w - 2, 0))
    fy, fx = ys - y0, xs - x0
    gy, gx = 1 - fy, 1 - fx
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    planes = np.ascontiguousarray(img.reshape(h * w, -1).T, dtype=np.result_type(img, fy))
    r0, r1 = y0 * w, y1 * w
    out = np.take(planes, r0 + x0, axis=1)
    out *= gy
    out *= gx
    for idx, wy, wx in ((r0 + x1, gy, fx), (r1 + x0, fy, gx), (r1 + x1, fy, fx)):
        tap = np.take(planes, idx, axis=1)
        tap *= wy
        tap *= wx
        out += tap
    return np.moveaxis(out, 0, -1).reshape(out.shape[1:] + img.shape[2:])


def _smooth_noise(rng, h, w, octave, lo, hi):
    """(3, h, w) colour planes: uniform noise on a grid ``octave`` times
    coarser, resized bilinearly."""
    base = rng.uniform(lo, hi, size=(max(2, h // octave), max(2, w // octave), 3))
    return np.moveaxis(resize_bilinear_np(base, h, w), -1, 0)


def _wave(rng, h, w, tilt, period):
    """An (h, w) sinusoid of ``period`` px along an angle drawn from
    [-tilt, tilt], at a random phase."""
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)
    theta = rng.uniform(-tilt, tilt)
    return np.sin(2 * np.pi * (xx * np.cos(theta) + yy * np.sin(theta)) / period
                  + rng.uniform(0, 2 * np.pi))


# ---------------------------------------------------------------------------
# scenes and clips


@dataclass
class SyntheticScene:
    height: int
    width: int
    length: int
    class_id: int
    variant: str
    seed: int
    background: np.ndarray      # (Hb, Wb, 3)
    sprite_tex: np.ndarray      # sprite texture patch
    sprite_axes: tuple[float, float]   # (ay, ax) ellipse semi-axes, px
    cam_path: np.ndarray        # (L, 2) crop origins (oy, ox), px, float
    sprite_path: np.ndarray     # (L, 2) sprite centers in background coords


@dataclass
class VideoClip:
    # stored, frames and masks are uint8 arrays when generated and
    # FilmStrips of the clip's files when loaded
    frames: np.ndarray | FilmStrip      # (L, H, W, 3): uint8 stored, float32 in [0, 1] sampled
    ref_masks: np.ndarray | FilmStrip   # (L, H, W): uint8 0/255 stored, float32 in [0, 1] sampled
    label: int
    gt_global: np.ndarray    # (L-1, 6) affine rows [a11 a12 tx a21 a22 ty]
    gt_local: np.ndarray     # (L-1, 2) sprite displacement (dx, dy), normalized

    @property
    def length(self) -> int:
        return self.frames.shape[0]


@dataclass
class ClipRef:
    directory: str
    label: int
    split: str


@dataclass
class DatasetManifest:
    root: Path
    num_classes: int
    variant: str
    seed: int
    entries: list[ClipRef] = field(default_factory=list)

    def split(self, name: str) -> list[ClipRef]:
        out = [e for e in self.entries if e.split == name]
        if not out:
            raise ValueError(f"split {name!r} absent from {self.root}")
        return out


@dataclass
class GenConfig:
    height: int = 32
    width: int = 64
    length: int = 40
    area_range: tuple[float, float] = (0.10, 0.25)   # sprite area / frame area
    cam_span: tuple[float, float] = (0.06, 0.10)     # camera pan / width
    rel_span: tuple[float, float] = (0.07, 0.13)     # in-frame sprite travel / width


def make_scene(class_id: int, variant: str, seed: int,
               config: GenConfig | None = None) -> SyntheticScene:
    """Build trajectories and textures; raises if a trajectory leaves bounds."""
    cfg = config or GenConfig()
    if variant not in VARIANT_CLASSES:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 <= class_id < VARIANT_CLASSES[variant]:
        raise ValueError(f"class {class_id} out of range for {variant}")
    rng = np.random.default_rng(seed)
    h, w, length = cfg.height, cfg.width, cfg.length

    margin = int(np.ceil(cfg.cam_span[1] * w)) + 2
    bh, bw = h + 2 * margin, w + 2 * margin
    # a smooth wave at three times the feature stride dominates the
    # background: feature-level correlations then pick up camera shifts
    # in quadrature instead of drowning in texture sampling noise
    wave = _wave(rng, bh, bw, 0.1, 24.0)
    bg = np.clip(
        0.5 + 0.22 * wave * np.array([1.0, 0.9, 0.8])[:, None, None]
        + _smooth_noise(rng, bh, bw, 8, -0.08, 0.08),
        0.02, 0.95,
    )

    area = rng.uniform(*cfg.area_range) * h * w
    aspect = rng.uniform(0.8, 1.4)
    ax = float(np.sqrt(area / (np.pi * aspect)))
    ay = float(aspect * ax)
    ay = min(ay, (h - 6) / 2.0)
    ax = min(ax, (w - 6) / 2.0)
    ty, tx = int(2 * np.ceil(ay)) + 3, int(2 * np.ceil(ax)) + 3
    tint = np.array([rng.uniform(0.75, 0.95), rng.uniform(0.45, 0.7), rng.uniform(0.15, 0.35)])
    # oriented stripes ride along with the sprite and make its motion
    # legible to feature-level correlation
    wave = _wave(rng, ty, tx, 0.4, 12.0)
    tex = np.clip(tint[:, None, None] + 0.16 * wave
                  + _smooth_noise(rng, ty, tx, 3, -0.08, 0.08), 0.05, 1.0)

    window = max(2, length // 4)
    cam_dir, spr_dir, cam_win, spr_win = _pick_motion(rng, class_id, variant, length, window)

    # class direction semantics live in the sprite's in-frame drift: its
    # magnitude is sampled independently of the class (so no stream can
    # read the label from motion energy) and the world velocity follows as
    # drift + camera pan
    cam_step = rng.uniform(*cfg.cam_span) * w / window
    cam_dx = _window_steps(length, cam_win, window, cam_dir * cam_step)
    rel_step = rng.uniform(*cfg.rel_span) * w / window
    spr_dx = _window_steps(length, spr_win, window, spr_dir * rel_step) + cam_dx

    cam_x = margin - cam_dx.sum() / 2.0 + np.concatenate([[0.0], np.cumsum(cam_dx)])
    cam_path = np.stack([np.full(length, float(margin)), cam_x], axis=1)
    if cam_x.min() < 0 or cam_x.max() > 2 * margin:
        raise ValueError("camera trajectory leaves the background")

    # sprite frame-x track before choosing the start position
    rel = np.concatenate([[0.0], np.cumsum(spr_dx - cam_dx)])
    lo = 2.0 + ax - rel.min()
    hi = w - 2.0 - ax - rel.max()
    if lo > hi:
        raise ValueError("no sprite start position keeps it inside the frame")
    px0 = rng.uniform(lo, hi)
    py = rng.uniform(2.0 + ay, h - 2.0 - ay)
    sprite_frame_x = px0 + rel
    sprite_path = np.stack([cam_path[:, 0] + py, cam_path[:, 1] + sprite_frame_x], axis=1)

    return SyntheticScene(height=h, width=w, length=length, class_id=class_id,
                          variant=variant, seed=seed,
                          background=np.ascontiguousarray(np.moveaxis(bg, 0, -1)),
                          sprite_tex=np.ascontiguousarray(np.moveaxis(tex, 0, -1)),
                          sprite_axes=(ay, ax), cam_path=cam_path, sprite_path=sprite_path)


def _pick_motion(rng, class_id, variant, length, window):
    """Directions and window starts for (camera, sprite)."""
    if length - window < length // 2 + 1:
        raise ValueError(f"clip length {length} too short for motion window {window}")
    if variant == "relation-only":
        cam = 1 if rng.random() < 0.5 else -1
        spr = cam if class_id == 0 else -cam
        start = int(rng.integers(0, length - window))
        return cam, spr, start, start
    if class_id == 3:
        # order class: the sprite window ends before the camera window starts
        spr_start = int(rng.integers(0, max(1, length // 2 - window + 1)))
        cam_start = int(rng.integers(length // 2, length - window))
        cam = 1 if rng.random() < 0.5 else -1
        spr = 1 if rng.random() < 0.5 else -1
        return cam, spr, cam_start, spr_start
    cam, spr = [(1, 1), (1, -1), (-1, 1)][class_id]
    start = int(rng.integers(0, length - window))
    return cam, spr, start, start


def _window_steps(length, start, window, step):
    dx = np.zeros(length - 1)
    dx[start:start + window] = step
    return dx


def generate_clip(scene: SyntheticScene) -> VideoClip:
    """Render frames, masks, and per-pair ground truth for a scene in one
    pass over the whole clip, as the module's rendering contract describes.

    The camera must pan at one integer row offset inside the background
    (``make_scene`` keeps it at its margin); otherwise ``ValueError``.
    """
    h, w, length = scene.height, scene.width, scene.length
    ay, ax = scene.sprite_axes
    bh = scene.background.shape[0]
    row = int(scene.cam_path[0, 0])
    if (scene.cam_path[:, 0] != row).any() or not 0 <= row <= bh - h:
        raise ValueError(f"generate_clip: the camera must pan at one integer row offset in "
                         f"[0, {bh - h}], got rows {scene.cam_path[:, 0].min():g} to "
                         f"{scene.cam_path[:, 0].max():g}")
    offsets, frame_offset = np.unique(scene.cam_path[:, 1], return_inverse=True)
    frames = _background(scene.background[row:row + h], offsets, w)[frame_offset]

    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    # each frame's in-frame sprite position as one complex number y + x*1j
    rel = np.ascontiguousarray(scene.sprite_path - scene.cam_path, dtype=np.float64)
    pos, frame_pos = np.unique(rel.view(np.complex128)[:, 0], return_inverse=True)
    py, px = pos.real, pos.imag
    dy = (ys[None, :, None] - py[:, None, None]) / ay
    dx = (xs[None, None, :] - px[:, None, None]) / ax
    inside = (dy * dy + dx * dx) <= 1.0                 # (P, h, w) per sprite position
    ip, iy, ix = np.nonzero(inside)
    sprite = np.zeros(inside.shape + (3,), np.uint8)
    sprite[ip, iy, ix] = np.rint(sample_bilinear_np(
        scene.sprite_tex, ys[iy] - py[ip] + ay + 1.0, xs[ix] - px[ip] + ax + 1.0) * 255.0)
    np.copyto(frames, sprite[frame_pos], where=np.repeat(inside[..., None], 3, axis=3)[frame_pos])
    masks = (inside * np.uint8(255))[frame_pos]

    d_cam = np.diff(scene.cam_path, axis=0)       # (L-1, 2) as (dy, dx)
    d_spr = np.diff(scene.sprite_path, axis=0)
    gt_global = np.zeros((length - 1, 6))
    gt_global[:, 0] = 1.0
    gt_global[:, 4] = 1.0
    gt_global[:, 2] = 2.0 * d_cam[:, 1] / (w - 1)
    gt_global[:, 5] = 2.0 * d_cam[:, 0] / (h - 1)
    gt_local = np.stack([2.0 * d_spr[:, 1] / (w - 1), 2.0 * d_spr[:, 0] / (h - 1)], axis=1)
    return VideoClip(frames=frames, ref_masks=masks, label=scene.class_id,
                     gt_global=gt_global, gt_local=gt_local)


def _background(rows: np.ndarray, offsets: np.ndarray, w: int) -> np.ndarray:
    """The (U, h, w, 3) uint8 backgrounds of ``rows`` (h, Wb, 3) at the U
    camera x ``offsets``: ``sample_bilinear_np``'s two column taps and weights
    (row weight 0), each weight repeated over the channels."""
    bw = rows.shape[1]
    x = np.clip(offsets[:, None] + np.arange(w, dtype=np.float64), 0, bw - 1)
    x0 = np.minimum(x.astype(np.int64), bw - 2)
    fx = np.repeat((x - x0)[..., None], 3, axis=2)                 # (U, w, 3)
    bg = np.take(rows, x0, axis=1)                                 # (h, U, w, 3)
    bg *= 1 - fx
    x0 += 1
    right = np.take(rows, x0, axis=1)
    right *= fx
    bg += right
    bg *= 255.0
    return np.ascontiguousarray(np.rint(bg, out=bg).astype(np.uint8).transpose(1, 0, 2, 3))


# ---------------------------------------------------------------------------
# frame sampling and augmentation


def sample_frames(clip: VideoClip, n: int,
                  rng: np.random.Generator | None = None) -> VideoClip:
    """Pick ``n`` frames, one per equal segment of a stored clip, decoded.

    Without an ``rng`` each segment contributes its first index; with one
    (training) a uniform index from the segment. Short clips repeat indices.
    Only the picked uint8 frames and masks are read (from a loaded clip's
    files), and they are decoded to float32 in [0, 1] (k / 255), each in
    place in its one float32 copy.
    """
    if n < 2:
        raise ValueError(f"need at least 2 sampled frames, got {n}")
    if clip.frames.dtype != np.uint8 or clip.ref_masks.dtype != np.uint8:
        raise ValueError(f"sample_frames: needs a stored clip with uint8 frames and masks, "
                         f"got {clip.frames.dtype} and {clip.ref_masks.dtype}")
    length = clip.length
    idx = (np.arange(n) * length) // n
    if rng is not None:
        ends = np.maximum(((np.arange(n) + 1) * length) // n, idx + 1)
        idx = np.array([rng.integers(s, e) for s, e in zip(idx, ends)])
    frames = clip.frames[idx].astype(np.float32)
    frames /= 255.0
    masks = clip.ref_masks[idx].astype(np.float32)
    masks /= 255.0
    return VideoClip(
        frames=frames,
        ref_masks=masks,
        label=clip.label,
        gt_global=_resample_global(clip.gt_global, idx),
        gt_local=_resample_local(clip.gt_local, idx),
    )


def _resample_global(gt: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(K, 6) affine rows of the sampled pairs: pair k composes the raw
    transforms ``idx[k]`` to ``idx[k + 1] - 1`` as 3x3 matrices, the later
    on the left, starting from the identity (which a repeated index keeps).
    Step t multiplies every segment longer than t at once, in one stacked
    matmul, so each pair gets the products of a loop over its raw pairs."""
    mats = np.zeros((len(gt), 3, 3))
    mats[:, :2] = gt.reshape(-1, 2, 3)
    mats[:, 2, 2] = 1.0
    start, lens = idx[:-1], np.diff(idx)
    m = np.tile(np.eye(3), (len(start), 1, 1))
    for t in range(lens.max(initial=0)):
        on = lens > t
        m[on] = mats[start[on] + t] @ m[on]
    return m[:, :2].reshape(-1, 6)


def _resample_local(gt: np.ndarray, idx: np.ndarray) -> np.ndarray:
    cum = np.concatenate([np.zeros((1, 2)), np.cumsum(gt, axis=0)])
    return cum[idx[1:]] - cum[idx[:-1]]


# the one training augmentation policy: each transform fires independently
P_CROP = 0.5
CROP_SCALE = (0.75, 1.0)
P_HSV = 0.5
HUE_DELTA = 0.06
SAT_RANGE = (0.7, 1.3)


def augment(clip: VideoClip, rng: np.random.Generator) -> VideoClip:
    """Apply crop-resize (probability ``P_CROP``) and HSV jitter (``P_HSV``)
    consistently to frames, masks, gt of a clip that ``sample_frames``
    decoded. There is no horizontal flip: it would invert the direction
    labels."""
    if clip.frames.dtype == np.uint8 or clip.ref_masks.dtype == np.uint8:
        raise ValueError("augment: needs a sampled clip with float frames and masks, "
                         "got 8-bit ones; decode them with sample_frames first")
    out = clip
    if rng.random() < P_CROP:
        out = crop_resize(out, rng.uniform(*CROP_SCALE), rng)
    if rng.random() < P_HSV:
        out = hsv_jitter(out, rng.uniform(-HUE_DELTA, HUE_DELTA), rng.uniform(*SAT_RANGE))
    return out


def crop_resize(clip: VideoClip, scale: float, rng: np.random.Generator) -> VideoClip:
    """Crop a random ``scale`` window, the same for every frame, and resize
    it back to the frame size (align-corners bilinear), frames and masks
    alike; the motion ground truth is rescaled to the smaller field of view.
    One frame at a time into one clip of the input's dtype, so only a
    frame's float64 resize is held at once; every pixel's bits are those of
    the whole-clip resize."""
    length, h, w = clip.frames.shape[:3]
    ch, cw = int(round(scale * h)), int(round(scale * w))
    if ch > h or cw > w or ch < 4 or cw < 8:
        raise ValueError(f"bad crop {ch}x{cw} for frame {h}x{w}")
    y0 = int(rng.integers(0, h - ch + 1))
    x0 = int(rng.integers(0, w - cw + 1))
    frames = np.empty(clip.frames.shape, clip.frames.dtype)
    masks = np.empty(clip.ref_masks.shape, clip.ref_masks.dtype)
    for t in range(length):
        # the frame's channels and its mask as one 4-channel image: one resize
        rgbm = np.concatenate([clip.frames[t, y0:y0 + ch, x0:x0 + cw],
                               clip.ref_masks[t, y0:y0 + ch, x0:x0 + cw, None]], axis=2)
        rgbm = resize_bilinear_np(rgbm, h, w)
        frames[t], masks[t] = rgbm[..., :3], rgbm[..., 3]
    # normalized translations grow when the field of view shrinks
    fx = (w - 1) / max(cw - 1, 1)
    fy = (h - 1) / max(ch - 1, 1)
    gt_g = clip.gt_global.copy()
    gt_g[:, 2] *= fx
    gt_g[:, 5] *= fy
    gt_l = clip.gt_local.copy()
    gt_l[:, 0] *= fx
    gt_l[:, 1] *= fy
    return VideoClip(frames=frames, ref_masks=masks, label=clip.label,
                     gt_global=gt_g, gt_local=gt_l)


def hsv_jitter(clip: VideoClip, hue_shift: float, sat_factor: float) -> VideoClip:
    """Shift every frame's hue by ``hue_shift`` (mod 1) and scale its
    saturation by ``sat_factor`` (clipped to [0, 1]), in float64 HSV. One
    frame at a time into one float32 clip, so only a frame's float64
    planes are held at once; every pixel's bits are those of the
    whole-clip conversion."""
    frames = np.empty(clip.frames.shape, np.float32)
    for t, frame in enumerate(clip.frames):
        hsv = rgb_to_hsv(frame)
        hsv[..., 0] = (hsv[..., 0] + hue_shift) % 1.0
        hsv[..., 1] = np.clip(hsv[..., 1] * sat_factor, 0.0, 1.0)
        frames[t] = hsv_to_rgb(hsv)
    return VideoClip(frames=frames, ref_masks=clip.ref_masks, label=clip.label,
                     gt_global=clip.gt_global, gt_local=clip.gt_local)


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """(..., 3) RGB to float64 HSV, each in [0, 1] for RGB in [0, 1].

    Works on contiguous float64 channel planes; every element gets the same
    operations as on the interleaved channels, so the bits do not depend on
    the layout."""
    r, g, b = np.ascontiguousarray(np.moveaxis(rgb, -1, 0), dtype=np.float64)
    mx = np.maximum(np.maximum(r, g), b)
    diff = mx - np.minimum(np.minimum(r, g), b)
    safe = np.where(diff > 0, diff, 1.0)
    h = np.zeros_like(mx)
    h = np.where(mx == r, ((g - b) / safe) % 6.0, h)
    h = np.where(mx == g, (b - r) / safe + 2.0, h)
    h = np.where(mx == b, (r - g) / safe + 4.0, h)
    h = np.where(diff > 0, h / 6.0, 0.0)
    s = np.where(mx > 0, diff / np.where(mx > 0, mx, 1.0), 0.0)
    return np.stack([h, s, mx], axis=-1)


# (r, g, b) of each hue sextant, as rows of hsv_to_rgb's (v, q, p, t) planes
_SEXTANT_RGB = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3], [2, 1, 0], [3, 2, 0], [0, 2, 1]])


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """(..., 3) HSV to float64 RGB, computed on contiguous channel planes;
    one gather picks every pixel's (r, g, b) from its sextant's planes."""
    h, s, v = np.ascontiguousarray(np.moveaxis(hsv, -1, 0))
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    planes = np.stack([v, q, p, t]).astype(np.float64, copy=False).reshape(4, -1)
    n = planes.shape[1]
    return np.take(planes, _SEXTANT_RGB[i.reshape(-1)] * n + np.arange(n)[:, None]).reshape(hsv.shape)


# ---------------------------------------------------------------------------
# dataset on disk


def generate_dataset(out_dir, clips_per_class: int, variant: str, seed: int,
                     train_fraction: float = 2 / 3,
                     config: GenConfig | None = None) -> DatasetManifest:
    """Write a labeled clip dataset under ``out_dir`` and return its manifest.

    ``clips_per_class`` counts all clips of one class; the first
    ``train_fraction`` of them land in the train split, the rest in test.
    A bad input raises ``ValueError`` naming its parameter before anything
    is written: an unknown ``variant``, a ``clips_per_class`` below 1, a
    ``train_fraction`` outside [0, 1] or one that leaves the train split
    empty, or a negative ``seed``.
    """
    if variant not in VARIANT_CLASSES:
        raise ValueError(f"generate_dataset: unknown variant {variant!r}, "
                         f"expected one of {', '.join(VARIANT_CLASSES)}")
    if not _is_int(clips_per_class) or clips_per_class < 1:
        raise ValueError(f"generate_dataset: clips_per_class must be an integer of at least 1, "
                         f"got {clips_per_class!r}")
    if not 0.0 <= train_fraction <= 1.0:
        raise ValueError(f"generate_dataset: train_fraction must be in [0, 1], "
                         f"got {train_fraction!r}")
    n_train = int(round(train_fraction * clips_per_class))
    if n_train < 1:
        raise ValueError(f"generate_dataset: train_fraction {train_fraction!r} of "
                         f"{clips_per_class} clips per class leaves the train split empty")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"generate_dataset: seed must be a non-negative integer, got {seed!r}")
    k = VARIANT_CLASSES[variant]
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = DatasetManifest(root=root, num_classes=k, variant=variant, seed=seed)
    for label in range(k):
        for j in range(clips_per_class):
            clip_seed = seed * 1_000_003 + label * 10_007 + j
            scene = make_scene(label, variant, clip_seed, config)
            clip = generate_clip(scene)
            split = "train" if j < n_train else "test"
            name = f"clip_{label}_{j:04d}"
            write_clip(root / name, clip)
            manifest.entries.append(ClipRef(directory=name, label=label, split=split))
    write_manifest(manifest)
    return manifest


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def write_clip(clip_dir, clip: VideoClip) -> None:
    """Write ``frames.ppm``, ``masks.pgm`` and ``gt.txt`` under ``clip_dir``."""
    d = Path(clip_dir)
    d.mkdir(parents=True, exist_ok=True)
    length, h, w = clip.ref_masks.shape
    write_ppm(d / "frames.ppm", clip.frames.reshape(length * h, w, 3))
    write_pgm(d / "masks.pgm", clip.ref_masks.reshape(length * h, w))
    table = np.concatenate([clip.gt_global, clip.gt_local], axis=1, dtype=np.float64)
    # each distinct value, told apart by its bits (so -0.0 keeps its sign),
    # is formatted once
    bits, index = np.unique(table.view(np.uint64), return_inverse=True)
    words = np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()], dtype=object)
    text = "".join(" ".join(r) + "\n" for r in words[index.reshape(table.shape)].tolist())
    (d / "gt.txt").write_text(f"frames={length}\n" + text, encoding="utf-8")


def load_clip(clip_dir, label: int) -> VideoClip:
    """Open a clip written by ``write_clip``: its ground truth is read, its
    frames and masks are ``FilmStrip``s of the files, read on demand.

    A malformed ``gt.txt``, or a frame or mask strip whose size does not
    match its ``frames=`` header, raises ``ValueError`` naming the file.
    """
    d = Path(clip_dir)
    length, gt = _read_gt(d / "gt.txt")
    frames = open_ppm(d / "frames.ppm")
    rows, w = frames.shape[:2]
    if rows % length:
        raise ValueError(f"{frames.path}: height {rows} is not a multiple of frames={length}")
    h = rows // length
    masks = open_pgm(d / "masks.pgm")
    if masks.shape != (rows, w):
        raise ValueError(f"{masks.path}: size {masks.shape[1]}x{masks.shape[0]} does not match "
                         f"{length} frames of {w}x{h}")
    return VideoClip(frames=replace(frames, shape=(length, h, w, 3)),
                     ref_masks=replace(masks, shape=(length, h, w)), label=label,
                     gt_global=gt[:, :6], gt_local=gt[:, 6:])


def _read_gt(path: Path) -> tuple[int, np.ndarray]:
    """Parse ``gt.txt`` into the clip length and its (L-1, 8) rows."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    header = lines[0] if lines else ""
    if not header.startswith("frames="):
        raise ValueError(f"{path}:1: missing header frames")
    length = _integer(header[len("frames="):], "frames", f"{path}:1")
    if length < 1:
        raise ValueError(f"{path}:1: frames={length} is not positive")
    values: list[float] = []
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 8:
            raise ValueError(f"{path}:{lineno}: expected 8 numbers, got {len(fields)} fields")
        try:
            values.extend(map(float, fields))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    if len(values) != 8 * (length - 1):
        raise ValueError(f"{path}: {len(values) // 8} rows for frames={length}, "
                         f"expected {length - 1}")
    return length, np.array(values, dtype=np.float64).reshape(-1, 8)


def _integer(text: str, what: str, where) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {what} {text!r} is not an integer") from None


def write_manifest(manifest: DatasetManifest) -> None:
    path = manifest.root / "manifest.txt"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"K={manifest.num_classes}\n")
        f.write(f"variant={manifest.variant}\n")
        f.write(f"seed={manifest.seed}\n")
        for e in manifest.entries:
            f.write(f"{e.directory}\t{e.label}\t{e.split}\n")


def load_manifest(root) -> DatasetManifest:
    """Read ``root/manifest.txt``; a malformed file raises ``ValueError`` naming it."""
    root = Path(root)
    path = root / "manifest.txt"
    keys = ("K", "variant", "seed")
    header: dict[str, str] = {}
    entries: list[ClipRef] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "\t" in line:
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError(f"{where}: expected directory, label and split, "
                                     f"got {len(fields)} tab-separated fields")
                directory, label, split = fields
                if split not in ("train", "test"):
                    raise ValueError(f"{where}: bad split {split!r}")
                entries.append(ClipRef(directory=directory,
                                       label=_integer(label, "label", where), split=split))
            else:
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"{where}: expected key=value or a tab-separated entry, "
                                     f"got {line!r}")
                if key not in keys or key in header:
                    raise ValueError(f"{where}: {'repeated' if key in header else 'unknown'} "
                                     f"header key {key!r}")
                if key == "variant" and value not in VARIANT_CLASSES:
                    raise ValueError(f"{where}: unknown variant {value!r}")
                header[key] = value
    missing = [key for key in keys if key not in header]
    if missing:
        raise ValueError(f"{path}: missing header {', '.join(missing)}")
    k = _integer(header["K"], "K", path)
    for e in entries:
        if not 0 <= e.label < k:
            raise ValueError(f"{path}: label {e.label} out of range for K={k}")
    return DatasetManifest(root=root, num_classes=k, variant=header["variant"],
                           seed=_integer(header["seed"], "seed", path), entries=entries)


def load_split(manifest: DatasetManifest, split: str) -> list[VideoClip]:
    return [load_clip(manifest.root / e.directory, e.label) for e in manifest.split(split)]
