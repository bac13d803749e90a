"""Smoke test of the benchmark at tiny sizes.

Each workload runs in a fresh process from a copy of ``src/`` and
``perfbench/``, once untraced and once traced, and must emit exactly the
metric names and units that BENCHMARK.json lists. The checkpoint
round-trip check must fail on a checkpoint whose bytes were altered, and a
train() that raises must count as failed.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from egorec import harness, synthdata  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_workload_emits_its_metrics(checkout, workload, trace):
    proc = _run(checkout, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train-standard", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _first_payload_offset(raw: bytes) -> int:
    """Byte offset of the first tensor's payload in a DDRM checkpoint."""
    (name_len,) = struct.unpack_from("<H", raw, 12)
    offset = 14 + name_len
    (rank,) = struct.unpack_from("<B", raw, offset)
    return offset + 1 + 4 * rank


def test_roundtrip_check_catches_altered_checkpoint(tmp_path):
    config = harness.TrainConfig(num_frames=4)
    model = harness.InteractionModel(config, np.random.default_rng(0))
    clips = [synthdata.generate_clip(synthdata.make_scene(k, "standard", 7)) for k in range(2)]
    ckpt = tmp_path / "model.ddrm"
    harness.save_checkpoint(ckpt, {n: p.data for n, p in model.all_named()},
                            config.to_text(), "2")

    intact = workloads.Tally()
    workloads.check_roundtrip(model, ckpt, clips, config, intact)
    assert (intact.attempted, intact.failed) == (2, 0)

    raw = bytearray(ckpt.read_bytes())
    raw[_first_payload_offset(raw) + 3] ^= 0x40      # exponent bits of the first float
    ckpt.write_bytes(bytes(raw))
    altered = workloads.Tally()
    workloads.check_roundtrip(model, ckpt, clips, config, altered)
    assert altered.attempted == 2 and altered.failed > 0


def test_train_that_raises_counts_as_failed(tmp_path, monkeypatch):
    plan = workloads.PLANS["train-standard"]
    config, _ = workloads.configs(plan, 5, tiny=True)
    data = workloads.setup(plan, 5, tmp_path, tiny=True)
    train_module = importlib.import_module("egorec.harness.train")
    real_save = train_module.save_checkpoint
    saves = []

    def save_then_fail_last(path, tensors, config_text, stage):
        saves.append(stage)
        if stage == "2":                  # after the last logged epoch
            raise OSError("disk full")
        return real_save(path, tensors, config_text, stage)

    monkeypatch.setattr(train_module, "save_checkpoint", save_then_fail_last)
    tally = workloads.Tally()
    ckpt = tmp_path / "train.ddrm"
    done = workloads.op_train(data, config, ckpt, tally)
    assert saves == ["1a", "1b", "1c", "2"]
    assert done.model is None and tally.failed >= 1

    before = tally.failed
    workloads.check_roundtrip(done.model, ckpt, data.test_clips, config, tally)
    assert tally.failed - before == len(data.test_clips) > 0
