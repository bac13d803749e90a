"""Command-line entry point: gen / train / eval / ablate / viz."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..imageio import write_pgm, write_ppm
from ..synthdata import generate_dataset, load_clip, load_manifest, sample_frames
from .ablate import ablate, parse_variants, write_report
from .config import load_config
from .train import evaluate, load_model, train


def int_csv(text: str) -> list[int]:
    """argparse type of a CSV of nonnegative integers; blank items are skipped."""
    values = [int(s) for s in text.split(",") if s.strip()]
    if min(values, default=0) < 0:
        raise argparse.ArgumentTypeError(f"{min(values)} is not a nonnegative integer")
    return values


def positive_int(text: str) -> int:
    """argparse type of an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="egorec",
                                description="Synthetic egocentric interaction recognition")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic clip dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--clips-per-class", type=positive_int, required=True)
    g.add_argument("--variant", choices=["standard", "relation-only"], required=True)
    g.add_argument("--seed", type=int, required=True)

    t = sub.add_parser("train", help="run the staged training schedule")
    t.add_argument("--data", required=True)
    t.add_argument("--config", required=True)
    t.add_argument("--stage", choices=["1", "2", "all"], required=True)
    t.add_argument("--ckpt", required=True)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--split", choices=["train", "test"], required=True)

    a = sub.add_parser("ablate", help="run interaction-variant ablations")
    a.add_argument("--data", required=True)
    a.add_argument("--config", required=True)
    a.add_argument("--variants", required=True,
                   help="CSV of variant[:features], e.g. ego,concat,full or ego:motion")
    a.add_argument("--out", required=True)
    a.add_argument("--seeds", type=int_csv, default="",
                   help="optional CSV of seeds; defaults to the config seed")

    v = sub.add_parser("viz", help="dump masks, motion fields, reconstructions")
    v.add_argument("--ckpt", required=True)
    v.add_argument("--clip", required=True)
    v.add_argument("--out", required=True)
    return p


def cmd_gen(args) -> int:
    man = generate_dataset(args.out, clips_per_class=args.clips_per_class,
                           variant=args.variant, seed=args.seed)
    n_train = len(man.split("train"))
    print(f"wrote {len(man.entries)} clips ({n_train} train) to {man.root}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    manifest = load_manifest(args.data)
    state = train(manifest, config, args.stage, args.ckpt, log=print)
    print(f"finished stage {state.stage}; checkpoint at {args.ckpt}")
    return 0


def cmd_eval(args) -> int:
    manifest = load_manifest(args.data)
    report = evaluate(manifest, args.ckpt, args.split)
    print(f"accuracy {report.accuracy:.4f} on {report.count} clips "
          f"(mean loss {report.mean_loss:.4f})")
    print("confusion:")
    for row in report.confusion:
        print("  " + " ".join(f"{v:4d}" for v in row))
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    manifest = load_manifest(args.data)
    variants = parse_variants(args.variants)
    rows = ablate(manifest, config, variants, seeds=args.seeds or None, log=print)
    write_report(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def write_flow_pgm_pair(out_dir: Path, index: int, field: np.ndarray) -> None:
    """Per-channel 8-bit dumps of a motion field plus the rescaling sidecar."""
    for axis, name in ((0, "x"), (1, "y")):
        comp = field[..., axis]
        lo, hi = float(comp.min()), float(comp.max())
        span = (hi - lo) if hi > lo else 1.0
        write_pgm(out_dir / f"flow_{index:04d}_{name}.pgm", (comp - lo) / span)
        with open(out_dir / f"flow_{index:04d}_{name}.txt", "w", encoding="utf-8") as f:
            f.write(f"min={lo:.9g}\nmax={hi:.9g}\n")


def cmd_viz(args) -> int:
    model, config, _ = load_model(args.ckpt)
    clip = load_clip(args.clip, label=0)
    sampled = sample_frames(clip, config.num_frames)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    res = model.forward(sampled.frames[None], None, None, need_rec=True)
    n = sampled.frames.shape[0]
    m3 = res.masks_m3.numpy().reshape(1, n, *res.masks_m3.shape[1:])[0]
    recon = res.recon.numpy()
    field = res.motion_est.field.numpy()
    for i in range(n - 1):
        write_pgm(out_dir / f"mask_{i:04d}.pgm", m3[i + 1])
        write_ppm(out_dir / f"recon_{i:04d}.ppm", np.clip(recon[i], 0, 1))
        write_flow_pgm_pair(out_dir, i, field[i])
    print(f"wrote {n - 1} pair visualizations to {out_dir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
               "ablate": cmd_ablate, "viz": cmd_viz}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
