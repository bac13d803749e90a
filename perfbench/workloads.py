"""Workload plans and the operations a benchmark run drives through egorec.

A run is a closed loop in one process: one call at a time, the next only
after the previous returned. It sets up once untimed (imports, allocator
and page cache warm up) and runs one untimed training step. It then repeats
a cycle until ``seconds`` have passed: a timed set-up, then the workload's
operations in order. Peak RSS is read at the end. The operations are

* ``train``: ``train(stage="all")``, then a checkpoint round trip;
* ``eval``: ``evaluate_clips`` on the test split, with the model the
  cycle's ``train`` returned;
* ``ablate``: ``ablate()`` over all six interaction variants.

Every cycle holds every operation, so every run reports every end-to-end
metric and each metric's samples spread over the whole run: this host's
speed changes by up to a third within seconds, and a metric sampled in
one stretch of a run would carry that stretch's speed whole. Each
end-to-end metric is the mean of its samples in the run (see ``means``).

Each operation checks its outputs; a training step, an eval clip or an
ablation row that raises or fails a check counts as failed.
"""

from __future__ import annotations

import hashlib
import math
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from egorec import harness, synthdata

PHASES = ("1a", "1b", "1c", "2")
VARIANTS = ("ego", "exo", "concat", "sym", "rel", "full")
# Epochs of each phase in every train(stage="all") call. An epoch is one
# step (8 train clips, batch 8); only epochs after a phase's first give a
# step time, since the first epoch's interval also holds the previous
# phase's checkpoint write, or train()'s split loading and model set-up.
TRAIN_EPOCHS = 2
EVAL_BATCH = 16           # evaluate_clips' default batch

E2E_UNITS = {
    "setup_s": "s",
    "step_s.1a": "s", "step_s.1b": "s", "step_s.1c": "s", "step_s.2": "s",
    "train_s": "s",
    "eval_clips_per_s": "1/s",
    "ablate_s": "s",
    "peak_rss_mb": "MiB",
}
# The end-to-end metrics a run's result carries, so that a later change is
# gated on them. The timings are printed and recorded but not gated: this
# host's speed drifts by up to a quarter over minutes, and in four sets of
# five to ten seeds their spread was 0.08-0.38 of the median (median per
# set 0.16-0.24), not reliably below the largest bound allowed (0.25).
GATED = ("setup_s", "peak_rss_mb")

# train() logs "phase 1a epoch 1/2 loss 0.12345 (smoothed ...)" once per epoch
_EPOCH_LOG = re.compile(r"phase (\S+) epoch (\d+)/\d+ loss (\S+)")


@dataclass(frozen=True)
class Plan:
    variant: str                # generator variant, which fixes the class count
    clips_per_class: int
    train_fraction: float
    cycle: tuple[str, ...]      # operations of one cycle, after its set-up
    ablate_head_epochs: int | None   # None keeps the config default (60)


# 8 train clips are one full batch of the default 8 per epoch, so each
# logged epoch is one training step. No ablate() trains front-end epochs:
# its cost is then head training. Why each workload: see README.md.
PLANS = {
    "train-standard": Plan("standard", 4, 1 / 2,
                           ("train", "eval", "eval", "eval", "ablate"), ablate_head_epochs=2),
    "ablate-relation": Plan("relation-only", 6, 2 / 3,
                            ("ablate", "train", "eval", "eval", "eval"), ablate_head_epochs=None),
}

# Smoke-test sizes: same code paths, a fraction of the work.
TINY = dict(clips_per_class=2, num_frames=4, batch_size=4, head_epochs=1)


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


@dataclass
class Data:
    manifest: object
    train_clips: list
    test_clips: list


def configs(plan: Plan, seed: int, tiny: bool):
    """(train config, ablate config) at the default model size."""
    base = harness.TrainConfig(num_classes=synthdata.VARIANT_CLASSES[plan.variant], seed=seed)
    head = plan.ablate_head_epochs
    if tiny:
        base = replace(base, num_frames=TINY["num_frames"], batch_size=TINY["batch_size"])
        head = TINY["head_epochs"]
    train_cfg = replace(base, epochs_attention=TRAIN_EPOCHS, epochs_motion=TRAIN_EPOCHS,
                        epochs_interaction=TRAIN_EPOCHS, epochs_joint=TRAIN_EPOCHS)
    ablate_cfg = replace(base, epochs_attention=0, epochs_motion=0)
    if head is not None:
        ablate_cfg = replace(ablate_cfg, epochs_interaction=head)
    return train_cfg, ablate_cfg


def setup(plan: Plan, seed: int, root: Path, tiny: bool) -> Data:
    """Generate the dataset from ``seed`` under ``root`` and load both splits."""
    cpc = TINY["clips_per_class"] if tiny else plan.clips_per_class
    manifest = synthdata.generate_dataset(root / "data", clips_per_class=cpc,
                                          variant=plan.variant, seed=seed,
                                          train_fraction=plan.train_fraction)
    return Data(manifest, synthdata.load_split(manifest, "train"),
                synthdata.load_split(manifest, "test"))


# ---------------------------------------------------------------------------
# operations


@dataclass
class TrainRun:
    seconds: float
    step_s: dict            # phase -> per-step seconds, one sample per epoch after the first
    final_loss: dict        # phase -> last logged epoch loss
    model: object           # trained model, or None when train() raised


def op_train(data: Data, config, ckpt: Path, tally: Tally) -> TrainRun:
    """One ``train(stage="all")`` call, timed by its per-epoch log callback.

    A step time is the time between two consecutive log calls of the same
    phase divided by the batches per epoch. A step fails when its epoch's
    loss is not finite or train() raised before logging it; a train() that
    raised fails at least one step.
    """
    per_epoch = math.ceil(len(data.train_clips) / config.batch_size)
    epochs = {"1a": config.epochs_attention, "1b": config.epochs_motion,
              "1c": config.epochs_interaction, "2": config.epochs_joint}
    stamps = []
    t0 = time.perf_counter()
    try:
        state = harness.train(data.manifest, config, "all", ckpt,
                              log=lambda msg: stamps.append((time.perf_counter(), msg)))
        model = state.model
    except Exception as exc:  # a failed call is counted, not fatal
        model = None
        tally.notes.append(f"train raised {exc!r}")
    t1 = time.perf_counter()
    step_s = {p: [] for p in PHASES}
    final_loss = {}
    ok_steps = 0
    prev = None
    for stamp, msg in stamps:
        match = _EPOCH_LOG.match(msg)
        if match is None:
            continue
        phase, epoch, loss = match.group(1), int(match.group(2)), float(match.group(3))
        if epoch > 1:
            step_s[phase].append((stamp - prev) / per_epoch)
        prev = stamp
        final_loss[phase] = loss
        if math.isfinite(loss):
            ok_steps += per_epoch
        else:
            tally.notes.append(f"phase {phase} loss {loss}")
    planned = per_epoch * sum(epochs.values())
    failed = planned - ok_steps
    if model is None:
        failed = max(failed, 1)
    tally.add(planned, failed)
    return TrainRun(t1 - t0, step_s, final_loss, model)


def eval_probs(model, clips, config) -> np.ndarray:
    """Class probabilities per clip, batched and sampled as evaluate_clips does."""
    out = []
    for start in range(0, len(clips), EVAL_BATCH):
        batch = clips[start:start + EVAL_BATCH]
        frames = np.stack([synthdata.sample_frames(c, config.num_frames).frames
                           for c in batch]).astype(np.float32)
        out.append(model.forward(frames, None, None, rng=None, need_cls=True).probs.numpy())
    return np.concatenate(out)


def check_roundtrip(model, ckpt: Path, clips, config, tally: Tally):
    """Compare ``model``'s eval probabilities with those of ``load_model(ckpt)``.

    Each clip whose probabilities differ in any bit, or are not finite,
    counts as a failed eval clip; with no model (train() raised) every clip
    fails. Returns the in-memory probabilities, or None.
    """
    if model is None:
        tally.add(len(clips), len(clips), "no trained model for the checkpoint round trip")
        return None
    try:
        mem = eval_probs(model, clips, config)
        loaded, _, _ = harness.load_model(ckpt)
        disk = eval_probs(loaded, clips, config)
    except Exception as exc:
        tally.add(len(clips), len(clips), f"checkpoint round trip raised {exc!r}")
        return None
    if disk.shape != mem.shape or disk.dtype != mem.dtype:
        bad = len(clips)
    else:
        same = np.all(mem.view(np.uint8) == disk.view(np.uint8), axis=1)
        bad = int(np.sum(~same | ~np.all(np.isfinite(mem), axis=1)))
    tally.add(len(clips), bad, f"{bad} clips differ after checkpoint round trip")
    return mem


def op_eval(model, clips, config, tally: Tally) -> float | None:
    """Clips per second of one ``evaluate_clips`` call; None when it raised."""
    n = len(clips)
    t0 = time.perf_counter()
    try:
        report = harness.evaluate_clips(model, clips, config)
    except Exception as exc:
        tally.add(n, n, f"evaluate_clips raised {exc!r}")
        return None
    dt = time.perf_counter() - t0
    bad = report.count != n or int(report.confusion.sum()) != n
    tally.add(n, n if bad else 0, f"confusion sums to {int(report.confusion.sum())}, not {n}")
    return n / dt


def op_ablate(data: Data, config, tally: Tally) -> float | None:
    """Seconds of one ``ablate()`` call over all six variants; None when it raised."""
    t0 = time.perf_counter()
    try:
        rows = harness.ablate(data.manifest, config, harness.parse_variants(",".join(VARIANTS)))
    except Exception as exc:
        tally.add(len(VARIANTS), len(VARIANTS), f"ablate raised {exc!r}")
        return None
    dt = time.perf_counter() - t0
    good = {r.variant for r in rows if r.variant in VARIANTS and 0.0 <= r.accuracy <= 1.0}
    attempted = max(len(rows), len(VARIANTS))
    tally.add(attempted, attempted - len(good),
              f"ablate returned {len(rows)} rows, {len(good)} distinct valid variants")
    return dt


# ---------------------------------------------------------------------------
# one run


def warm_up(data: Data, config) -> None:
    """One untimed phase-2 training step with a throwaway model.

    A process runs its first training step measurably slower (the heap
    grows to a step's working set); this takes that out of the first timed
    call. Peak RSS rises no higher than a timed step takes it.
    """
    rng = np.random.default_rng(config.seed)
    model = harness.InteractionModel(config, rng)
    harness.run_phase(model, "2", data.train_clips[:config.batch_size],
                      replace(config, epochs_joint=1), rng)


def run(workload: str, seed: int, seconds: float, workdir: Path, tiny: bool = False) -> dict:
    """One run: cycles of a timed set-up and the workload's operations,
    started until ``seconds`` have passed (at least one)."""
    plan = PLANS[workload]
    train_cfg, ablate_cfg = configs(plan, seed, tiny)
    data = setup(plan, seed, workdir / "data", tiny)
    samples = {name: [] for name in E2E_UNITS}
    tally = Tally()
    ckpt = workdir / "train.ddrm"
    trained = None
    fingerprints = []

    def do_train():
        nonlocal trained
        trained = op_train(data, train_cfg, ckpt, tally)
        for phase in PHASES:
            samples[f"step_s.{phase}"] += trained.step_s[phase]
        if trained.model is not None:
            samples["train_s"].append(trained.seconds)
        probs = check_roundtrip(trained.model, ckpt, data.test_clips, train_cfg, tally)
        digest = None if probs is None else hashlib.sha256(probs.tobytes()).hexdigest()
        fingerprints.append({"final_loss": trained.final_loss, "eval_probs_sha256": digest})

    def do_eval():
        if trained.model is None:
            tally.add(len(data.test_clips), len(data.test_clips), "no trained model to evaluate")
            return
        rate = op_eval(trained.model, data.test_clips, train_cfg, tally)
        if rate is not None:
            samples["eval_clips_per_s"].append(rate)

    def do_ablate():
        seconds_taken = op_ablate(data, ablate_cfg, tally)
        if seconds_taken is not None:
            samples["ablate_s"].append(seconds_taken)

    ops = {"train": do_train, "eval": do_eval, "ablate": do_ablate}
    warm_up(data, train_cfg)
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < seconds:
        root = workdir / f"setup{cycles}"
        t0 = time.perf_counter()
        setup(plan, seed, root, tiny)
        samples["setup_s"].append(time.perf_counter() - t0)
        shutil.rmtree(root)
        for op in plan.cycle:
            ops[op]()
        cycles += 1
    samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {"samples": samples, "cycles": cycles, "fingerprint": fingerprints[0],
            "fingerprint_same_every_call": all(f == fingerprints[0] for f in fingerprints),
            "attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes}


def means(samples: dict) -> dict[str, float | None]:
    """End-to-end metrics: the mean of each metric's samples.

    A run holds two or three samples of most metrics, and this host runs at
    one of two speeds that differ by about 1.4 times. The mean follows the
    share of a run spent at each speed; a median of so few samples jumps
    from one speed to the other (in three sets of five to ten seeds, the
    timings' median spread was 0.16, 0.24 and 0.18 for means against 0.20,
    0.24 and 0.23 for medians).
    """
    return {name: statistics.fmean(xs) if xs else None for name, xs in samples.items()}
