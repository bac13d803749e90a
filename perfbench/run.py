"""egorec benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload train-standard --seed 1 --seconds 30 --trace 0

Run from the repository root. Workloads: train-standard and
ablate-relation (see perfbench/README.md). With ``--trace 0`` the last
line of standard output is a JSON object whose ``metrics`` hold the gated
end-to-end metrics (``workloads.GATED``); with ``--trace 1`` the public functions of each egorec
module are wrapped and ``metrics`` hold every per-layer metric instead.
Earlier lines list each metric with its unit, and a ``record`` line carries
machine info, samples, the output fingerprint and, for a traced run, the
tracing overhead. Scratch files go under ``.perfbench_work/`` in the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Re-anchor baseline from ROADMAP.md (2-core CPU, numpy 2.4 + OpenBLAS, best
# of 3), printed next to the traced numbers for comparison only.
ROADMAP_BASELINE = {
    "step_s.1a": 0.78, "step_s.1b": 1.31, "step_s.1c": 1.03, "step_s.2": 1.6,
    "diffcore.tape_nodes.1a": 55, "diffcore.tape_nodes.1b": 89,
    "diffcore.tape_nodes.1c": 1295, "diffcore.tape_nodes.2": 1354,
    "diffcore.tape_mb.1a": 99, "diffcore.tape_mb.1b": 159,
    "diffcore.tape_mb.1c": 106, "diffcore.tape_mb.2": 180,
    "diffcore.bwd_ms.conv2d.2": 620, "diffcore.bwd_ms.conv_transpose2d.2": 270,
    "diffcore.bwd_ms.grid_sample.2": 160, "diffcore.bwd_ms.correlate.2": 130,
    "diffcore.fwd_ms.conv_transpose2d.2": 160,
}


def single_blas_thread() -> int:
    """Run BLAS on one thread and return the CPUs this process may use.

    The load is one call at a time. On a 2-CPU host a second OpenBLAS
    thread left a training step's wall time unchanged while it used 1.7
    times the CPU time spinning, and made step times jumpier.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree.

    Git is kept from looking for a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_commit": git_commit()}


def result_path(workload: str, seed: int, trace: int) -> Path:
    return WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (fewer clips, frames and epochs)")
    args = parser.parse_args(argv)

    if not (SRC / "egorec" / "__init__.py").is_file():
        print(f"error: egorec sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = single_blas_thread()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.PLANS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        if tracer:
            tracer.install()
        out = workloads.run(args.workload, args.seed, args.seconds, workdir, tiny=args.tiny)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    values = workloads.means(out["samples"])
    attempted, failed = out["attempted"], out["failed"]
    for name, unit in workloads.E2E_UNITS.items():
        print(f"{name} {values[name]} {unit}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine_info(nproc),
              "cycles": out["cycles"], "samples": out["samples"],
              "error_rate": failed / max(attempted, 1), "failures": out["notes"],
              "fingerprint": out["fingerprint"],
              "fingerprint_same_every_call": out["fingerprint_same_every_call"]}
    if tracer:
        per_layer = tracer.metrics()
        for name, (value, unit) in per_layer.items():
            print(f"{name} {value} {unit}")
        record["traced_end_to_end"] = values
        untraced = result_path(args.workload, args.seed, 0)
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            record["tracing_overhead"] = {k: v - base[k] for k, v in values.items()
                                          if v is not None and base.get(k) is not None}
        flat = {**values, **{k: v for k, (v, _) in per_layer.items()}}
        record["roadmap_baseline"] = {k: {"baseline": b, "traced": flat.get(k)}
                                      for k, b in ROADMAP_BASELINE.items()}
        metrics = per_layer
    else:
        record["end_to_end"] = values
        metrics = {name: (values[name], workloads.E2E_UNITS[name]) for name in workloads.GATED}
    path = result_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
