import contextlib
import copy
import importlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

import egorec.diffcore as dc
from egorec import synthdata
from egorec.attention import MaskDecoder
from egorec.diffcore import NonFiniteError, ShapeError, Tape, Tensor, backward
from egorec.diffcore.tensor import debug_nan_enabled
from egorec.harness import (
    Adam,
    InteractionModel,
    TrainConfig,
    ablate,
    evaluate,
    evaluate_clips,
    load_checkpoint,
    load_config,
    load_model,
    parse_config,
    parse_variants,
    run_phase,
    save_checkpoint,
    total_loss,
    train,
    write_report,
)
from egorec.harness.checkpoint import _read_table
from egorec.harness.cli import main as cli_main
from egorec.harness.model import FRONT_END_CLIPS, interaction_head
from egorec.harness.train import _batch_arrays, _fit, extract_features, train_head
from egorec.nn import Module
from egorec.synthdata import (
    GenConfig,
    augment,
    generate_dataset,
    load_manifest,
    load_split,
    sample_frames,
)

TINY_GEN = GenConfig(height=16, width=32, length=6, area_range=(0.08, 0.14))


def tiny_config(**kw) -> TrainConfig:
    base = dict(frame_height=16, frame_width=32, num_frames=4, num_classes=4,
                channels=8, motion_dim=6, proj_dim=8, hidden_dim=8,
                max_displacement=2, batch_size=2, lr=1e-3,
                epochs_attention=1, epochs_motion=1, epochs_interaction=1,
                epochs_joint=1, seed=3)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "tiny"
    generate_dataset(root, clips_per_class=3, variant="standard", seed=1, config=TINY_GEN)
    return root


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        back = parse_config(cfg.to_text())
        assert back == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nlr=0.01  # trailing\nseed=9\n")
        assert cfg.lr == 0.01 and cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        """A config file that sets an unknown or since-deleted key names the
        file and the key."""
        path = tmp_path / "c.txt"
        for line in ("learning_rate=0.1", "plateau_patience=5"):
            path.write_text(line + "\n")
            key = line.split("=")[0]
            with pytest.raises(ValueError, match=re.escape(str(path)) + f".*unknown key '{key}'"):
                load_config(path)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0)

    OUT_OF_RANGE = [
        ("batch_size", 0, "be at least 1"), ("epochs_attention", -1, "be at least 0"),
        ("epochs_motion", -1, "be at least 0"), ("epochs_interaction", -1, "be at least 0"),
        ("epochs_joint", -1, "be at least 0"), ("num_frames", 1, "be at least 2"),
        ("max_displacement", 0, "be at least 1"),
        ("lr", float("nan"), "be finite"), ("lr", float("inf"), "be finite"),
        ("alpha", float("nan"), "be finite"), ("beta", float("inf"), "be finite"),
        ("gamma", float("-inf"), "be finite"), ("lr", 0.0, "be positive"),
        ("weight_decay", -1e-4, "be nonnegative"),
        ("beta1", 1.0, "be in [0, 1)"), ("beta2", 1.0, "be in [0, 1)"),
        ("beta2", -0.1, "be in [0, 1)"), ("channels", 1, "be at least 2"),
        ("channels", 0, "be at least 2"), ("hidden_dim", 0, "be at least 1"),
        ("proj_dim", 0, "be at least 1"), ("motion_dim", 0, "be at least 1"),
        ("num_classes", 1, "be at least 2"), ("frame_height", 20, "be a multiple of 8"),
        ("frame_height", 8, "be at least 16"), ("frame_height", 0, "be at least 16"),
        ("frame_width", 36, "be a multiple of 8"), ("frame_width", 8, "be at least 16"),
        ("seed", -3, "be at least 0"),
    ]

    @pytest.mark.parametrize("field, value, rule", OUT_OF_RANGE,
                             ids=[f"{f}-{v}" for f, v, _ in OUT_OF_RANGE])
    def test_schedule_out_of_range_names_the_field(self, field, value, rule):
        with pytest.raises(ValueError, match=rf"^{field} must {re.escape(rule)}, got "):
            TrainConfig(**{field: value})

    def test_nan_in_a_config_file_names_the_field(self):
        # NaN passes every ordered comparison: lr <= 0 and alpha < 0 are false
        with pytest.raises(ValueError, match=r"^alpha must be finite, got nan"):
            parse_config("lr=nan\nalpha=nan\n")
        with pytest.raises(ValueError, match=r"^lr must be finite, got nan"):
            parse_config("lr=nan\n")

    def test_dropout_outside_unit_interval_names_the_field(self):
        # at dropout 1 the all-zero keep mask is divided by 0: NaN features
        for value in (1.0, -0.1):
            with pytest.raises(ValueError, match=r"^dropout must be in \[0, 1\)"):
                TrainConfig(dropout=value)
        assert TrainConfig(dropout=0.0).dropout == 0.0

    def test_unparsable_value_names_line_and_key(self):
        with pytest.raises(ValueError, match=r"^config line 2: batch_size='abc' is not an integer"):
            parse_config("lr=0.01\nbatch_size=abc\n")
        with pytest.raises(ValueError, match=r"^config line 1: lr='fast' is not a number"):
            parse_config("lr=fast\n")


class TestTotalLoss:
    def scalars(self, *vals):
        return [Tensor(np.array(v, dtype=np.float64)) for v in vals]

    def test_degenerate_weights(self):
        cfg = tiny_config(alpha=0.0, beta=0.0, gamma=0.0)
        total, bundle = total_loss(cfg, *self.scalars(1.7, 2.0, 3.0, 4.0))
        assert total.item() == pytest.approx(1.7)
        assert bundle.l_final == pytest.approx(1.7)

    def test_unit_weights_sum(self):
        cfg = tiny_config(alpha=1.0, beta=1.0, gamma=1.0)
        total, bundle = total_loss(cfg, *self.scalars(1.0, 2.0, 3.0, 4.0))
        assert total.item() == pytest.approx(10.0)
        assert bundle.l_final == pytest.approx(10.0)

    def test_default_weights(self):
        cfg = TrainConfig()  # alpha=1, beta=1, gamma=0.1
        total, bundle = total_loss(cfg, *self.scalars(1.0, 2.0, 3.0, 4.0))
        assert total.item() == pytest.approx(6.4)
        assert bundle.l_final == pytest.approx(6.4)

    def test_decomposition_identity_exact(self):
        cfg = tiny_config(alpha=0.35, beta=1.25, gamma=0.05)
        vals = (0.731, 1.217, 0.454, 0.129)
        total, bundle = total_loss(cfg, *self.scalars(*vals))
        assert bundle.l_final == total.item()
        assert bundle.l_final == pytest.approx(
            vals[0] + cfg.alpha * vals[1] + cfg.beta * vals[2] + cfg.gamma * vals[3])


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.w": rng.normal(size=(3, 4)).astype(np.float32),
            "b/b": rng.normal(size=(5,)).astype(np.float32),
            "opt/m/a.w": rng.normal(size=(3, 4)).astype(np.float32),
        }
        path = tmp_path / "ck.bin"
        save_checkpoint(path, tensors, "lr=0.001\nseed=4\n", "1c")
        table, cfg_text, stage = load_checkpoint(path)
        assert stage == "1c"
        assert parse_config(cfg_text).lr == 0.001
        for k, v in tensors.items():
            assert table[k].tobytes() == v.tobytes()

    def test_little_endian_layout(self, tmp_path):
        arr = np.array([1.5, -2.0], dtype=np.float32)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {"x": arr}, "", "2")
        raw = path.read_bytes()
        assert raw[:4] == b"DDRM"
        version, count = struct.unpack("<II", raw[4:12])
        assert version == 1 and count == 3  # x + meta/config + meta/stage
        (name_len,) = struct.unpack("<H", raw[12:14])
        assert raw[14:14 + name_len] == b"x"
        off = 14 + name_len
        (rank,) = struct.unpack("<B", raw[off:off + 1])
        assert rank == 1
        (dim,) = struct.unpack("<I", raw[off + 1:off + 5])
        assert dim == 2
        vals = struct.unpack("<2f", raw[off + 5:off + 13])
        assert vals == (1.5, -2.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


def _model_checkpoint(path, drop=None, reshape=None, extra=None, config_line="") -> None:
    """A real model's parameters as a checkpoint, optionally with one
    parameter left out, given the wrong shape, one entry added, or one
    line appended to its config text."""
    cfg = tiny_config()
    model = InteractionModel(cfg, np.random.default_rng(0))
    tensors = {n: p.data for n, p in model.named_parameters() if n != drop}
    if reshape:
        tensors[reshape] = tensors[reshape].reshape(-1)
    if extra:
        tensors[extra] = np.zeros(3, np.float32)
    save_checkpoint(path, tensors, cfg.to_text() + config_line, "2")


class TestCorruptCheckpoint:
    def offsets(self, raw):
        """Start of the first tensor's name, dims and payload."""
        (name_len,) = struct.unpack("<H", raw[12:14])
        rank = raw[14 + name_len]
        dims = 15 + name_len
        return 14, dims, dims + 4 * rank

    @pytest.mark.parametrize("where", ["header", "name_len", "name", "dims", "payload", "end"])
    def test_truncated_names_the_file(self, tmp_path, where):
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path)
        raw = path.read_bytes()
        name, dims, payload = self.offsets(raw)
        cut = {"header": 6, "name_len": 13, "name": name + 3, "dims": dims + 2,
               "payload": payload + 5, "end": len(raw) - 1}[where]
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_bad_utf8_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path)
        raw = bytearray(path.read_bytes())
        raw[14] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="utf-8") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_duplicate_entry_names_the_file_and_entry(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path)
        raw = path.read_bytes()
        assert raw.count(b"backbone.blocks.0.b") == 1
        path.write_bytes(raw.replace(b"backbone.blocks.0.b", b"backbone.blocks.0.w"))
        with pytest.raises(ValueError, match="duplicate entry 'backbone.blocks.0.w'") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["meta/config", "meta/stage"])
    def test_missing_meta(self, tmp_path, key):
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path)
        renamed = key.replace("meta/", "meta_")
        path.write_bytes(path.read_bytes().replace(key.encode(), renamed.encode()))
        with pytest.raises(ValueError, match=f"no {key} entry") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


class TestAdam:
    def test_descends_quadratic(self):
        x = Tensor(np.array([5.0, -3.0], dtype=np.float32), requires_grad=True)
        opt = Adam([x], 0.1, 0.0)
        for _ in range(300):
            with Tape() as tape:
                loss = dc.sum_(x * x)
            x.grad = None
            backward(tape, loss)
            opt.step()
        assert np.abs(x.data).max() < 1e-2

    def test_none_grad_params_untouched(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        y = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        before = y.data.tobytes()
        opt = Adam([x, y], 0.1, 0.1)
        x.grad = np.ones_like(x.data)
        opt.step()
        assert y.data.tobytes() == before
        assert x.data.tobytes() != np.array([1.0, 2.0], np.float32).tobytes()


class TestOptimizerPolicy:
    """Every phase and head trains one Adam over exactly its parameters, at
    ``config.lr`` and ``config.weight_decay``, and keeps that rate on every
    step of every epoch."""

    def test_one_adam_per_phase_at_a_fixed_rate(self, tiny_dataset, monkeypatch):
        epochs = 6  # more epochs than any rate schedule's patience used to be
        cfg = tiny_config(lr=2e-3, weight_decay=0.01, epochs_attention=epochs,
                          epochs_motion=epochs, epochs_interaction=epochs,
                          epochs_joint=epochs)
        clips = load_split(load_manifest(tiny_dataset), "train")[:cfg.batch_size]
        made, steps = [], []
        real_init, real_step = Adam.__init__, Adam.step

        def spy_init(opt, *args, **kwargs):
            real_init(opt, *args, **kwargs)
            made.append(opt)

        def spy_step(opt):
            steps.append((opt, opt.lr, opt.weight_decay))
            real_step(opt)
        monkeypatch.setattr(Adam, "__init__", spy_init)
        monkeypatch.setattr(Adam, "step", spy_step)

        def check(label, module):
            (opt,) = made
            assert [id(p) for p in opt.params] == [id(p) for p in module.parameters()], label
            # one batch an epoch
            assert steps == [(opt, cfg.lr, cfg.weight_decay)] * epochs, label
            made.clear()
            steps.clear()

        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        for phase, module in (("1a", model.attention), ("1b", model.motion),
                              ("2", model), ("1c", model.interact)):
            run_phase(model, phase, clips, cfg, rng)
            check(phase, module)
        head = interaction_head(cfg, np.random.default_rng(0), model.motion.global_dim, "rel")
        train_head(head, *extract_features(model, clips, cfg), cfg, rng)
        check("rel head", head)


class TestBatchArrays:
    """A training batch jitters and then augments each clip, draw after draw
    from the phase's generator."""

    def stacked(self, clips):
        return (np.stack([c.frames for c in clips]), np.stack([c.ref_masks for c in clips]),
                np.asarray([c.label for c in clips], dtype=np.int64))

    def assert_bitwise(self, ours, theirs):
        assert [a.dtype for a in ours] == [b.dtype for b in theirs]
        assert [a.tobytes() for a in ours] == [b.tobytes() for b in theirs]

    def test_rng_jitters_then_augments_each_clip(self, tiny_dataset):
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "train")
        rng = np.random.default_rng(11)
        ref_rng = copy.deepcopy(rng)
        ours = _batch_arrays(clips, cfg, rng)
        theirs = self.stacked([augment(sample_frames(c, cfg.num_frames, ref_rng), ref_rng)
                               for c in clips])
        self.assert_bitwise(ours, theirs)
        assert rng.random() == ref_rng.random()


# The recurrent head's checkpoint entries at tiny_config, in order: names,
# shapes and the order of the init draws (w, u, v of each cell in turn).
_CELL = {"w": (8, 32), "u": (8, 32), "v": (8, 32), "b": (32,), "vb": (32,)}
_PROJ = [("proj_ego.w", (40, 8)), ("proj_ego.b", (8,)), ("proj_exo.w", (14, 8)),
         ("proj_exo.b", (8,))]


def _cell(name, cross=False, w=(8, 32)):
    keys = ("w", "u", "v", "b", "vb") if cross else ("w", "u", "b")
    return [(f"{name}.{k}", w if k == "w" else _CELL[k]) for k in keys]


HEAD_LAYOUT = {
    "ego": _PROJ[:2] + _cell("block_ego") + [("classifier.w", (8, 4))],
    "exo": _PROJ[2:] + _cell("block_exo") + [("classifier.w", (8, 4))],
    "concat": _PROJ + _cell("block_concat", w=(16, 32)) + [("classifier.w", (8, 4))],
    "sym": _PROJ + _cell("block_ego", True) + _cell("block_exo", True)
    + [("classifier.w", (16, 4))],
    "rel": _PROJ + _cell("block_ego") + _cell("block_exo") + _cell("relation_cell")
    + [("classifier.w", (8, 4))],
    "full": _PROJ + _cell("block_ego", True) + _cell("block_exo", True)
    + _cell("relation_cell") + [("classifier.w", (8, 4))],
}


@pytest.mark.parametrize("variant", sorted(HEAD_LAYOUT))
def test_head_checkpoint_layout_is_pinned(variant):
    """Every head variant keeps its parameter names, shapes and order, so
    checkpoints written before the cell step became one op still load;
    ``InteractionModel`` holds the full head under ``interact.``."""
    cfg = tiny_config()
    model = InteractionModel(cfg, np.random.default_rng(0))
    head = interaction_head(cfg, np.random.default_rng(0), model.motion.global_dim, variant)
    want = HEAD_LAYOUT[variant] + [("classifier.b", (4,))]
    assert [(k, a.shape) for k, a in head.state_arrays().items()] == want
    if variant == "full":
        got = [(k, a.shape) for k, a in model.state_arrays().items() if k.startswith("interact.")]
        assert got == [(f"interact.{k}", s) for k, s in want]


class TestTraining:
    def test_stage1_then_2_and_determinism(self, tiny_dataset, tmp_path):
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config(epochs_joint=2)
        ck1 = tmp_path / "a.ckpt"
        ck2 = tmp_path / "b.ckpt"
        train(manifest, cfg, "all", ck1)
        train(manifest, cfg, "all", ck2)
        assert ck1.read_bytes() == ck2.read_bytes()

    def test_stage1_then_stage2_runs_only_phase_2(self, tiny_dataset, tmp_path):
        """``train(..., "2")`` on a finished stage 1 runs phase 2 alone,
        leaves marker 2, and two such runs write the same bytes."""
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config(epochs_joint=2)
        written = []
        for name in ("a.ckpt", "b.ckpt"):
            ck = tmp_path / name
            train(manifest, cfg, "1", ck)
            logged = []
            train(manifest, cfg, "2", ck, log=logged.append)
            assert [line.split(" loss ")[0] for line in logged] == [
                "phase 2 epoch 1/2", "phase 2 epoch 2/2"]
            assert load_checkpoint(ck)[2] == "2"
            written.append(ck.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("failing, marker", [("1b", "1a"), ("1c", "1b")])
    def test_stage2_refuses_an_unfinished_stage1(self, tiny_dataset, tmp_path, monkeypatch,
                                                 failing, marker):
        """A stage 1 that raised in ``failing`` leaves the previous phase's
        marker, and stage 2 names that file and marker instead of training
        from an untrained module."""
        train_mod = importlib.import_module("egorec.harness.train")
        real = train_mod.run_phase

        def run_phase_failing(model, phase, *args, **kw):
            if phase == failing:
                raise RuntimeError(f"phase {phase} stopped")
            return real(model, phase, *args, **kw)
        manifest = load_manifest(tiny_dataset)
        ck = tmp_path / "m.ckpt"
        monkeypatch.setattr(train_mod, "run_phase", run_phase_failing)
        with pytest.raises(RuntimeError):
            train(manifest, tiny_config(), "1", ck)
        monkeypatch.undo()
        assert load_checkpoint(ck)[2] == marker
        with pytest.raises(ValueError, match=re.escape(str(ck)) + f".*marker '{marker}'"):
            train(manifest, tiny_config(), "2", ck)

    @staticmethod
    def _changed_by(phase, tiny_dataset):
        """Names of the parameters one ``run_phase`` changed."""
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "train")
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        before = {n: p.data.tobytes() for n, p in model.named_parameters()}
        run_phase(model, phase, clips, cfg, rng)
        return {n for n, p in model.named_parameters() if p.data.tobytes() != before[n]}

    def test_freeze_contract_phase_a(self, tiny_dataset):
        changed = self._changed_by("1a", tiny_dataset)
        assert changed  # the decoder actually trained
        assert all(n.startswith("attention.") for n in changed)

    def test_freeze_contract_phase_b(self, tiny_dataset):
        changed = self._changed_by("1b", tiny_dataset)
        assert changed and all(n.startswith("motion.") for n in changed)

    def test_freeze_contract_phase_c(self, tiny_dataset):
        changed = self._changed_by("1c", tiny_dataset)
        assert changed and all(n.startswith("interact.") for n in changed)

    def test_phase_1c_is_the_ablation_head_trainer(self, tiny_dataset):
        """``run_phase(.., "1c", ..)`` trains ``model.interact`` exactly as
        ablate trains a head: cached features, then ``train_head``."""
        cfg = tiny_config(epochs_interaction=3)
        clips = load_split(load_manifest(tiny_dataset), "train")
        by_phase = InteractionModel(cfg, np.random.default_rng(5))
        by_head = InteractionModel(cfg, np.random.default_rng(5))
        before = by_phase.interact.state_arrays()
        run_phase(by_phase, "1c", clips, cfg, np.random.default_rng(6))
        feats, labels = extract_features(by_head, clips, cfg)
        train_head(by_head.interact, feats, labels, cfg, np.random.default_rng(6))
        got, want = by_phase.state_arrays(), by_head.state_arrays()
        assert got.keys() == want.keys()
        assert all(got[n].tobytes() == want[n].tobytes() for n in got)
        assert any(by_phase.interact.state_arrays()[n].tobytes() != before[n].tobytes()
                   for n in before)

    def test_train_logs_each_epoch_of_each_phase_in_order(self, tiny_dataset, tmp_path):
        cfg = tiny_config(epochs_attention=2, epochs_motion=1, epochs_interaction=3,
                          epochs_joint=2)
        lines = []
        train(load_manifest(tiny_dataset), cfg, "all", tmp_path / "log.ckpt", log=lines.append)
        seen = []
        for line in lines:
            match = re.match(r"phase (\S+) epoch (\d+)/(\d+) loss (\S+) ", line)
            assert match, line
            assert np.isfinite(float(match.group(4)))
            seen.append((match.group(1), int(match.group(2)), int(match.group(3))))
        assert seen == [("1a", 1, 2), ("1a", 2, 2), ("1b", 1, 1), ("1c", 1, 3),
                        ("1c", 2, 3), ("1c", 3, 3), ("2", 1, 2), ("2", 2, 2)]

    def test_stage2_requires_checkpoint(self, tiny_dataset, tmp_path):
        manifest = load_manifest(tiny_dataset)
        with pytest.raises(FileNotFoundError):
            train(manifest, tiny_config(), "2", tmp_path / "missing.ckpt")

    def test_eval_round_trip_bitwise(self, tiny_dataset, tmp_path):
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config()
        ck = tmp_path / "rt.ckpt"
        state = train(manifest, cfg, "1", ck)
        direct = evaluate_clips(state.model, load_split(manifest, "test"), cfg)
        reloaded = evaluate(manifest, ck, "test")
        assert direct.accuracy == reloaded.accuracy
        np.testing.assert_array_equal(direct.confusion, reloaded.confusion)
        assert direct.mean_loss == reloaded.mean_loss

    def test_evaluate_clips_matches_batched_forward(self, tiny_dataset, monkeypatch):
        """Scoring cached features gives what one ``forward`` over the whole
        split gives on each segment's first frame, unaugmented (the forward
        the benchmark's round-trip check hashes): bitwise-equal
        probabilities, the same confusion and accuracy."""
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "test")
        model = InteractionModel(cfg, np.random.default_rng(7))
        frames = np.stack([sample_frames(c, cfg.num_frames).frames for c in clips])
        labels = np.array([c.label for c in clips])
        res = model.forward(frames, None, labels, need_cls=True)
        want = res.probs.numpy()
        confusion = np.zeros((cfg.num_classes,) * 2, dtype=np.int64)
        np.add.at(confusion, (labels, want.argmax(axis=1)), 1)

        seen = []
        classify = model.interact.classify
        def spy(*args, **kwargs):
            out = classify(*args, **kwargs)
            seen.append(out[1].numpy())
            return out
        monkeypatch.setattr(model.interact, "classify", spy)
        rep = evaluate_clips(model, clips, cfg)
        (got,) = seen
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(rep.confusion, confusion)
        assert rep.accuracy == np.trace(confusion) / len(clips)
        assert rep.count == len(clips)
        assert rep.mean_loss == res.l_cls.item()

    def test_bogus_stage_marker_rejected_by_every_checkpoint_reader(self, tiny_dataset,
                                                                    tmp_path):
        """Stage 2 and ``load_model`` (so ``eval`` and ``viz``) refuse a
        checkpoint whose stage marker no phase writes."""
        path = tmp_path / "m.ckpt"
        cfg = tiny_config()
        model = InteractionModel(cfg, np.random.default_rng(0))
        save_checkpoint(path, model.state_arrays(), cfg.to_text(), "bogus")
        message = re.escape(f"unexpected stage marker 'bogus' in {path}")
        with pytest.raises(ValueError, match=message):
            train(load_manifest(tiny_dataset), cfg, "2", path)
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_load_model_rejects_missing_parameter(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path, drop="interact.block_ego.v")
        with pytest.raises(KeyError, match=re.escape(str(path)) + ".*interact.block_ego.v"):
            load_model(path)

    def test_load_model_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path, reshape="interact.relation_cell.u")
        with pytest.raises(ShapeError, match=re.escape(str(path)) + ".*interact.relation_cell.u"):
            load_model(path)

    def test_checkpoint_holds_only_parameters(self, tiny_dataset, tmp_path):
        path = tmp_path / "all.ckpt"
        state = train(load_manifest(tiny_dataset), tiny_config(), "all", path)
        names = set(_read_table(path.read_bytes()))
        assert names == {n for n, _ in state.model.named_parameters()} | {"meta/config", "meta/stage"}

    def test_load_model_rejects_optimizer_entry(self, tmp_path):
        """Checkpoints that still carry Adam moments under ``opt/`` are refused."""
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path, extra="opt/m/interact.classifier.w")
        with pytest.raises(KeyError, match=re.escape(str(path)) + ".*opt/m/interact.classifier.w"):
            load_model(path)

    @pytest.mark.parametrize("extra", ["interact.block_concat.w", "attention.head0.w"])
    def test_load_model_rejects_unexpected_entry(self, tmp_path, extra):
        """Entries of deleted parameters are refused, naming the file and entry."""
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path, extra=extra)
        with pytest.raises(KeyError, match=re.escape(str(path)) + ".*" + re.escape(extra)):
            load_model(path)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path):
        """A save that raises partway leaves the old file loadable and no
        temporary file beside it."""
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path)
        before = path.read_bytes()
        # the second entry cannot be cast to float32, after the first is written
        tensors = {"attention.up.0.w": np.zeros(3, np.float32), "bad": np.array(["x"])}
        with pytest.raises(ValueError):
            save_checkpoint(path, tensors, tiny_config().to_text(), "2")
        assert path.read_bytes() == before
        load_model(path)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_load_model_names_checkpoint_with_unknown_config_key(self, tmp_path):
        """A checkpoint whose config holds a since-deleted key names the file."""
        path = tmp_path / "m.ckpt"
        for key, value in (("patience", 1), ("augment", 1), ("plateau_patience", 5)):
            _model_checkpoint(path, config_line=f"{key}={value}\n")
            with pytest.raises(ValueError, match=re.escape(str(path)) + f".*unknown key '{key}'"):
                load_model(path)

    def test_parameter_without_grad_flag_is_still_saved_and_loaded(self, tmp_path):
        cfg = tiny_config()
        model = InteractionModel(cfg, np.random.default_rng(0))
        names = {n for n, _ in model.named_parameters()}
        model.motion.affine_head.w.requires_grad = False
        assert {n for n, _ in model.named_parameters()} == names
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.state_arrays(), cfg.to_text(), "2")
        assert set(_read_table(path.read_bytes())) == names | {"meta/config", "meta/stage"}
        loaded, _, _ = load_model(path)
        assert ({n: p.data.tobytes() for n, p in loaded.named_parameters()}
                == {n: p.data.tobytes() for n, p in model.named_parameters()})

    def test_stage2_names_the_checkpoint_it_cannot_load(self, tiny_dataset, tmp_path):
        path = tmp_path / "m.ckpt"
        _model_checkpoint(path, drop="motion.affine_head.w")
        with pytest.raises(KeyError, match=re.escape(str(path)) + ".*motion.affine_head.w"):
            train(load_manifest(tiny_dataset), tiny_config(), "2", path)

    def test_stage1_phases_leave_no_gradients(self, tiny_dataset):
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "train")
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        for phase in ("1a", "1b", "1c"):
            run_phase(model, phase, clips, cfg, rng)
            assert [n for n, p in model.named_parameters() if p.grad is not None] == [], phase

    @pytest.mark.parametrize("phase", ["1a", "1b"])
    def test_frozen_groups_are_off_the_tape(self, tiny_dataset, monkeypatch, phase):
        """Only the phase's group requires grad while it runs: no tape node
        reads a frozen parameter, and every frozen parameter reaches each
        Adam step, and the end of the phase, with ``grad is None``. The
        flags are back afterwards."""
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "train")
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        group = {"1a": "attention", "1b": "motion"}[phase]
        frozen = [p for n, p in model.named_parameters() if not n.startswith(group + ".")]
        frozen_ids = {id(p) for p in frozen}
        train_mod = importlib.import_module("egorec.harness.train")
        real_backward, real_step = train_mod.backward, Adam.step
        read, grads = [], []

        def spy_backward(tape, loss, params=None):
            read.extend(op for _, inputs, _, op in tape.nodes
                        if any(id(t) in frozen_ids for t in inputs))
            real_backward(tape, loss, params=params)

        def spy_step(opt):
            grads.extend(p.grad is not None for p in frozen)
            real_step(opt)
        monkeypatch.setattr(train_mod, "backward", spy_backward)
        monkeypatch.setattr(Adam, "step", spy_step)
        run_phase(model, phase, clips, cfg, rng)
        assert read == [] and grads and not any(grads)
        assert all(p.grad is None for p in frozen)
        assert all(p.requires_grad for p in model.parameters())

    def test_frozen_flags_are_restored_when_a_phase_raises(self, tiny_dataset, monkeypatch):
        train_mod = importlib.import_module("egorec.harness.train")
        seen = []

        def failing(clips, config, rng):
            seen.append([p.requires_grad for p in model.parameters()])
            raise RuntimeError("no batch")
        monkeypatch.setattr(train_mod, "_batch_arrays", failing)
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "train")
        model = InteractionModel(cfg, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="no batch"):
            run_phase(model, "1b", clips, cfg, np.random.default_rng(0))
        assert any(seen[0]) and not all(seen[0])
        assert all(p.requires_grad for p in model.parameters())

    def test_stage1_then_stage2_writes_the_bytes_of_stage_all(self, tiny_dataset, tmp_path):
        """Each phase draws from its own generator, so stage 2 on a stage-1
        checkpoint continues the run ``--stage all`` makes."""
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config(epochs_joint=2)
        staged, whole = tmp_path / "staged.ckpt", tmp_path / "all.ckpt"
        train(manifest, cfg, "1", staged)
        train(manifest, cfg, "2", staged)
        train(manifest, cfg, "all", whole)
        assert staged.read_bytes() == whole.read_bytes()

    def test_phase_streams_are_distinct(self):
        """No phase's generator repeats another's or the model's initial one."""
        train_mod = importlib.import_module("egorec.harness.train")
        draws = [train_mod.phase_rng(5, phase).random(4).tobytes()
                 for phase in ("1a", "1b", "1c", "2")]
        draws.append(np.random.default_rng(5).random(4).tobytes())
        assert len(set(draws)) == 5

    @pytest.mark.parametrize("phase, name, op", [("1a", "backbone.blocks.0.w", "conv2d"),
                                                 ("1c", "interact.proj_ego.w", "matmul")])
    def test_non_finite_loss_names_phase_epoch_and_op(self, tiny_dataset, phase, name, op):
        cfg = tiny_config(epochs_attention=2, epochs_interaction=2)
        clips = load_split(load_manifest(tiny_dataset), "train")
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        dict(model.named_parameters())[name].data[0] = np.nan
        with pytest.raises(NonFiniteError, match=rf"phase {phase} epoch 1/2: .*\b{op}: "):
            run_phase(model, phase, clips, cfg, rng)
        assert not debug_nan_enabled()

    def test_non_finite_features_name_phase_1c_and_op(self, tiny_dataset, monkeypatch):
        """A non-finite cached feature names the front-end op that made it,
        not the head's first op, in phase 1c, evaluation and ablation; only
        phase 1c names a phase."""
        cfg = tiny_config(epochs_attention=0, epochs_motion=0)
        manifest = load_manifest(tiny_dataset)
        clips = load_split(manifest, "train")

        def broken(config, rng):
            model = InteractionModel(config, rng)
            dict(model.named_parameters())["backbone.blocks.0.w"].data[0] = np.nan
            return model
        rng = np.random.default_rng(cfg.seed)
        with pytest.raises(NonFiniteError, match=r"^phase 1c: .*\bconv2d: "):
            run_phase(broken(cfg, rng), "1c", clips, cfg, rng)
        assert not debug_nan_enabled()

        features = r"^stream features are not finite; first non-finite op: .*\bconv2d: "
        with pytest.raises(NonFiniteError, match=features):
            evaluate_clips(broken(cfg, rng), load_split(manifest, "test"), cfg)
        assert not debug_nan_enabled()
        monkeypatch.setattr(importlib.import_module("egorec.harness.ablate"),
                            "InteractionModel", broken)
        with pytest.raises(NonFiniteError, match=features):
            ablate(manifest, cfg, parse_variants("ego"))
        assert not debug_nan_enabled()

    def test_stream_features_are_what_forward_classifies(self, tiny_dataset):
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config()
        model = InteractionModel(cfg, np.random.default_rng(4))
        clips = load_split(manifest, "test")
        frames = np.stack([sample_frames(c, cfg.num_frames).frames
                           for c in clips]).astype(np.float32)
        feats = model.stream_features(frames)
        _, probs = model.interact.classify(*(Tensor(f) for f in feats), rng=None)
        res = model.forward(frames, None, None, need_cls=True)
        assert probs.numpy().tobytes() == res.probs.numpy().tobytes()

    def test_untrained_accuracy_near_chance(self, tiny_dataset):
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config()
        model = InteractionModel(cfg, np.random.default_rng(0))
        rep = evaluate_clips(model, load_split(manifest, "test"), cfg)
        assert 0.0 <= rep.accuracy <= 1.0
        assert rep.confusion.sum() == rep.count == 4
        with pytest.raises(ValueError, match="no clips"):
            evaluate_clips(model, [], cfg)

    def test_wrong_class_count_rejected(self, tiny_dataset, tmp_path, monkeypatch):
        """train, evaluate and ablate refuse a 2-class config on the 4-class
        dataset, naming the dataset, before they load a clip."""
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config(num_classes=2)
        ck = tmp_path / "two.ckpt"
        save_checkpoint(ck, InteractionModel(cfg, np.random.default_rng(0)).state_arrays(),
                        cfg.to_text(), "2")

        def no_clips(*args):
            raise AssertionError("loaded clips before checking the class count")
        # ablate loads through train's load_clips
        monkeypatch.setattr(importlib.import_module("egorec.harness.train"), "load_split",
                            no_clips)
        dataset = re.escape(str(tiny_dataset)) + ": dataset has K=4, "
        with pytest.raises(ValueError, match=dataset + "config expects 2"):
            train(manifest, cfg, "1", tmp_path / "x.ckpt")
        with pytest.raises(ValueError, match=dataset + f"checkpoint {re.escape(str(ck))} expects 2"):
            evaluate(manifest, ck, "test")
        with pytest.raises(ValueError, match=dataset + "config expects 2"):
            ablate(manifest, cfg, parse_variants("ego"))

    def test_wrong_frame_size_rejected(self, tiny_dataset, tmp_path, monkeypatch):
        """train, evaluate and ablate refuse the 16x32 dataset under the
        default 32x64 config, naming the dataset and both sizes, before any
        phase or feature pass runs."""
        manifest = load_manifest(tiny_dataset)
        cfg = TrainConfig()
        ck = tmp_path / "default.ckpt"
        save_checkpoint(ck, InteractionModel(cfg, np.random.default_rng(0)).state_arrays(),
                        cfg.to_text(), "2")

        def no_pass(*args, **kwargs):
            raise AssertionError("ran a pass before checking the frame size")
        for name in ("egorec.harness.train", "egorec.harness.ablate"):
            for fn in ("run_phase", "extract_features"):
                monkeypatch.setattr(importlib.import_module(name), fn, no_pass)
        dataset = re.escape(str(tiny_dataset)) + ": dataset has 16x32 frames, "
        sizes = r" expects 32x64 \(height x width\)$"
        with pytest.raises(ValueError, match=dataset + "config" + sizes):
            train(manifest, cfg, "1", tmp_path / "x.ckpt")
        with pytest.raises(ValueError, match=dataset + f"checkpoint {re.escape(str(ck))}" + sizes):
            evaluate(manifest, ck, "test")
        with pytest.raises(ValueError, match=dataset + "config" + sizes):
            ablate(manifest, cfg, parse_variants("ego"))
        assert not (tmp_path / "x.ckpt").exists()

    def test_unknown_phase_rejected_before_any_work(self):
        cfg = tiny_config()
        rng = np.random.default_rng(0)
        model = InteractionModel(cfg, rng)
        before = {n: a.tobytes() for n, a in model.state_arrays().items()}
        rng_before = copy.deepcopy(rng)
        with pytest.raises(ValueError, match="unknown phase '1d'"):
            run_phase(model, "1d", [], cfg, rng)
        assert rng.random() == rng_before.random()
        assert {n: a.tobytes() for n, a in model.state_arrays().items()} == before

    def test_phase_1b_loss_is_linear_in_beta(self, tiny_dataset):
        """Phase 1b trains on beta·l_rec + gamma·l_smooth: one epoch of one
        batch logs a loss whose step per unit of beta is l_rec > 0."""
        clips = load_split(load_manifest(tiny_dataset), "train")[:2]
        losses = []
        for beta in (0.0, 1.0, 2.0):
            cfg = tiny_config(beta=beta, batch_size=2)
            rng = np.random.default_rng(cfg.seed)
            lines = []
            run_phase(InteractionModel(cfg, rng), "1b", clips, cfg, rng, log=lines.append)
            (line,) = lines
            losses.append(float(re.match(r"phase 1b epoch 1/1 loss (\S+) ", line).group(1)))
        assert losses[1] - losses[0] > 0
        assert losses[2] - losses[1] == pytest.approx(losses[1] - losses[0], abs=2e-5)


def _phase2_batch(cfg, dataset):
    """(frames, reference masks, labels) of the first ``cfg.batch_size``
    train clips, sampled without jitter."""
    batch = load_split(load_manifest(dataset), "train")[:cfg.batch_size]
    sampled = [sample_frames(c, cfg.num_frames) for c in batch]
    return (np.stack([s.frames for s in sampled]).astype(np.float32),
            np.stack([s.ref_masks for s in sampled]).astype(np.float32),
            np.array([s.label for s in sampled]))


class TestLossNodes:
    def test_per_pixel_losses_tape_no_per_pixel_output(self, tiny_dataset, monkeypatch):
        """In a phase-2 forward, no node that the mask, photometric or
        smoothness loss records has an output with more elements than the
        batch has frames: their per-pixel work is inside one op each."""
        cfg = tiny_config()
        frames, masks, labels = _phase2_batch(cfg, tiny_dataset)
        model_module = importlib.import_module("egorec.harness.model")
        spans = []

        def spy(fn):
            def call(*args):
                start = len(tape.nodes)
                out = fn(*args)
                spans.append((fn.__name__, start, len(tape.nodes)))
                return out
            return call

        for name in ("segmentation_loss", "reconstruction_loss", "smoothness_loss"):
            monkeypatch.setattr(model_module, name, spy(getattr(model_module, name)))
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        with Tape() as tape:
            model.forward(frames, masks, labels, rng=rng,
                          need_seg=True, need_rec=True, need_cls=True)
        assert sorted(name for name, _, _ in spans) == [
            "reconstruction_loss", "segmentation_loss", "smoothness_loss"]
        for name, start, end in spans:
            sizes = [tape.nodes[i][0].size for i in range(start, end)]
            assert sizes and max(sizes) <= frames.shape[0] * frames.shape[1], (name, sizes)

    def test_warp_tapes_no_coordinates_or_frame_copies(self, tiny_dataset):
        """In a phase-2 forward, the only (pairs, H, W, 2) array any node
        reads or writes is the motion field: the warp's points and
        coordinates are never on the tape. And every (pairs, H, W, 3) array
        is the reconstruction or a view of the frames, never a copy of the
        previous or the current frames."""
        cfg = tiny_config()
        frames, masks, labels = _phase2_batch(cfg, tiny_dataset)
        b, n, h, w, _ = frames.shape
        pairs = b * (n - 1)
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        with Tape() as tape:
            res = model.forward(frames, masks, labels, rng=rng,
                                need_seg=True, need_rec=True, need_cls=True)
        for out, inputs, _, name in tape.nodes:
            for x in (out,) + tuple(inputs):
                if x.size == pairs * h * w * 2 and x.shape[-1] == 2:
                    assert x is res.motion_est.field, (name, x.shape)
                if x.size == pairs * h * w * 3:
                    assert (np.shares_memory(x.data, frames)
                            or np.shares_memory(x.data, res.recon.data)), (name, x.shape)


class TestBackwardMemory:
    def test_phase2_backward_frees_the_tape(self, tiny_dataset):
        """The tape's buffers go as backward replays it. Over the heap
        before the step, backward peaks below the largest buffer one of its
        closures builds, the im2col columns of the last decoder stage's
        input gradient, plus 38 float32 maps of the frames' size: the
        forward pass keeps 33.8 of them at the end of the pass, and every
        gradient backward holds besides is paid for by tape it has already
        freed (2.0 maps more; 10.0 more when backward keeps each node's
        gradient while its closure runs). Afterwards only the parameters'
        gradients remain, the tape object included."""
        cfg = tiny_config()
        frames, masks, labels = _phase2_batch(cfg, tiny_dataset)
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        params = model.parameters()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            with Tape() as tape:
                res = model.forward(frames, masks, labels, rng=rng,
                                    need_seg=True, need_rec=True, need_cls=True)
                loss, _ = total_loss(cfg, res.l_cls, res.l_seg, res.l_rec, res.l_smooth)
            del res
            tape_bytes = sum(out.data.nbytes for out, _, _, _ in tape.nodes)
            tracemalloc.reset_peak()
            backward(tape, loss, params=params)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        b, n, h, w, _ = frames.shape
        kh, kw, _, c_out = model.attention.up[-1].w.shape
        columns = b * n * (h // 2) * (w // 2) * kh * kw * c_out * 4
        maps = b * n * h * w * 4
        assert peak - before < columns + 38 * maps, (peak - before, columns, maps)
        grad_bytes = sum(p.grad.nbytes for p in params)
        assert after - before - grad_bytes < 0.25 * tape_bytes

    def test_default_clip_backward_peak(self):
        """At the default size, the backward of a one-clip phase-2 pass (a
        training pass) peaks less than 2.25 MiB over the heap it starts
        from, which holds the pass's tape (3.8 MiB; 5.9 before the mask
        decoder was recomputed in backward). (Measured: 2.01 MiB; 2.54 MiB,
        in the warp's backward, before the warp's and the transposed convs'
        backwards took half the scratch budget.)"""
        cfg = TrainConfig()
        model = InteractionModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        shape = (1, cfg.num_frames, cfg.frame_height, cfg.frame_width)
        frames = rng.random(shape + (3,), dtype=np.float32)
        masks = (rng.random(shape) < 0.2).astype(np.float32)
        params = model.parameters()
        tracemalloc.start()
        try:
            with Tape() as tape:
                res = model.forward(frames, masks, np.array([1]), rng=rng,
                                    need_seg=True, need_rec=True, need_cls=True)
                loss, _ = total_loss(cfg, res.l_cls, res.l_seg, res.l_rec, res.l_smooth)
            del res
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(tape, loss, params=params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 2.25 * 2**20, (peak - before) / 2**20

    def test_default_clip_pass_peak(self):
        """A one-clip phase-2 pass at the default size, forward and backward,
        peaks below 6.25 MiB of traced memory over the heap before its
        forward, at the start of backward, where the warp's backward runs.
        (Measured: 5.82 MiB; 7.91 MiB while the pass taped the mask
        decoder's activations.)"""
        cfg = TrainConfig()
        model = InteractionModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        shape = (1, cfg.num_frames, cfg.frame_height, cfg.frame_width)
        frames = rng.random(shape + (3,), dtype=np.float32)
        masks = (rng.random(shape) < 0.2).astype(np.float32)
        params = model.parameters()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            with Tape() as tape:
                res = model.forward(frames, masks, np.array([1]), rng=rng,
                                    need_seg=True, need_rec=True, need_cls=True)
                loss, _ = total_loss(cfg, res.l_cls, res.l_seg, res.l_rec, res.l_smooth)
            del res
            backward(tape, loss, params=params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 6.25 * 2**20, (peak - before) / 2**20

    def test_default_phase2_step_peak(self, tmp_path, monkeypatch):
        """A phase-2 training step at the default config (one batch of 8
        stored clips, 20 sampled frames of 32x64, one clip per pass), with
        both augmentations on every clip, peaks below 9.5 MiB of traced
        memory over the heap it starts from. (Measured: 8.89 MiB; 10.93 MiB
        while each pass taped the mask decoder's activations, and 12.17 MiB
        while the augmentations ran on whole clips, pooled ReLU masks took a
        byte per value and the backwards of the warp and of the transposed
        convs took the whole scratch budget.)"""
        monkeypatch.setattr(synthdata, "P_CROP", 1.0)
        monkeypatch.setattr(synthdata, "P_HSV", 1.0)
        cfg = TrainConfig(epochs_joint=1)
        man = generate_dataset(tmp_path, clips_per_class=2, variant="standard", seed=0,
                               train_fraction=1.0)
        clips = load_split(man, "train")
        assert len(clips) == cfg.batch_size
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            run_phase(model, "2", clips, cfg, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 9.5 * 2**20, (peak - before) / 2**20


class TestRecomputedDecoder:
    """A taped pass that reads the masks past the segmentation loss (phase
    2) sends the mask decoder through ``recompute``; every other pass
    calls it plainly."""

    @staticmethod
    def _count_decodes(monkeypatch):
        calls = []
        real = MaskDecoder.predict_masks

        def spy(self, feats, need_seg=True):
            calls.append(feats.shape[0])
            return real(self, feats, need_seg)
        monkeypatch.setattr(MaskDecoder, "predict_masks", spy)
        return calls

    def test_default_pass_matches_the_decoder_op_by_op(self, monkeypatch):
        """On one fixed default clip, a taped phase-2 pass through the
        recompute node gives the loss bits and the motion and interaction
        gradients of the decoder recorded op by op. The backbone and
        decoder gradients, summed over the replay's three slices, stay within
        1e-5 relative L2 (measured: at most 8.5e-7, in ``attention.heads.2.w``)."""
        cfg = TrainConfig()
        rng = np.random.default_rng(1)
        shape = (1, cfg.num_frames, cfg.frame_height, cfg.frame_width)
        frames = rng.random(shape + (3,), dtype=np.float32)
        masks = (rng.random(shape) < 0.2).astype(np.float32)
        calls = self._count_decodes(monkeypatch)

        def pass_grads():
            model = InteractionModel(cfg, np.random.default_rng(0))
            with Tape() as tape:
                res = model.forward(frames, masks, np.array([1]), rng=np.random.default_rng(2),
                                    need_seg=True, need_rec=True, need_cls=True)
                loss, _ = total_loss(cfg, res.l_cls, res.l_seg, res.l_rec, res.l_smooth)
            backward(tape, loss, params=model.parameters())
            return loss.data.tobytes(), {n: p.grad for n, p in model.named_parameters()}
        got = pass_grads()
        assert calls == [cfg.num_frames, 6, 7, 7]   # the forward, then three replay slices
        monkeypatch.setattr(importlib.import_module("egorec.harness.model"), "recompute",
                            lambda fn, x, params: fn(x))
        want = pass_grads()
        assert got[0] == want[0]
        for name, g in got[1].items():
            r = want[1][name]
            if name.startswith(("motion.", "interact.")):
                assert g.tobytes() == r.tobytes(), name
            else:
                assert np.linalg.norm(g - r) <= 1e-5 * np.linalg.norm(r), name

    def test_only_phase_2_replays_the_decoder(self, tiny_dataset, monkeypatch):
        """The decoder runs once a pass in every tape-less forward and in
        phases 1a and 1b, and once more in each phase-2 backward (one replay
        slice at the tiny size); evaluation's probabilities are those of the
        plain call."""
        cfg = tiny_config(batch_size=3)
        clips = load_split(load_manifest(tiny_dataset), "train")[:3]
        frames, _, _ = _phase2_batch(cfg, tiny_dataset)
        calls = self._count_decodes(monkeypatch)
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        n = cfg.num_frames
        for phase, decodes in (("1a", 1), ("1b", 1), ("2", 2)):
            calls.clear()
            run_phase(model, phase, clips, cfg, rng)
            assert calls == [n] * (3 * decodes), phase
        calls.clear()
        feats, labels = extract_features(model, clips, cfg)
        model.forward(frames, None, None, need_cls=True)
        model.forward(frames, None, None, need_rec=True)
        assert calls == [n] * 9
        probs = model.interact.classify(*map(Tensor, feats), rng=None)[1].numpy()
        monkeypatch.setattr(importlib.import_module("egorec.harness.model"), "recompute",
                            lambda fn, x, params: fn(x))
        plain, _ = extract_features(model, clips, cfg)
        assert [f.tobytes() for f in feats] == [f.tobytes() for f in plain]
        assert probs.tobytes() == model.interact.classify(
            *map(Tensor, plain), rng=None)[1].numpy().tobytes()


class TestFrontEndPasses:
    """A front-end phase runs each optimizer batch as passes of at most
    ``FRONT_END_CLIPS`` clips, each on its own tape, and sums their
    clip-weighted gradients before one Adam step. The heads run one pass
    per batch."""

    @staticmethod
    def _step_and_one_pass(cfg, clips, monkeypatch):
        """Parameter gradients of one phase-2 ``run_phase`` step over
        ``clips`` (one batch), as Adam reads them, and those of one pass
        over the same clips, draws and parameters."""
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        ref_rng = np.random.default_rng(cfg.seed)
        ref = InteractionModel(cfg, ref_rng)
        stepped = []
        real_step = Adam.step

        def spy_step(opt):
            stepped.append([p.grad.copy() for p in model.parameters()])
            real_step(opt)
        monkeypatch.setattr(Adam, "step", spy_step)
        run_phase(model, "2", clips, cfg, rng)

        order = ref_rng.permutation(len(clips))
        frames, masks, labels = _batch_arrays([clips[i] for i in order], cfg, ref_rng)
        with Tape() as tape:
            res = ref.forward(frames, masks, labels, rng=ref_rng,
                              need_seg=True, need_rec=True, need_cls=True)
            loss, _ = total_loss(cfg, res.l_cls, res.l_seg, res.l_rec, res.l_smooth)
        backward(tape, loss, params=ref.parameters())
        (got,) = stepped
        return got, [p.grad for p in ref.parameters()]

    def test_passes_sum_to_the_batch_gradient(self, tiny_dataset, monkeypatch):
        """Five passes of one clip give every parameter the gradient of one
        pass over the 5 clips, within 1e-4 relative L2 (the sums round
        differently). Without dropout no pass draws from the generator, so
        both see the same augmented clips."""
        cfg = tiny_config(batch_size=5, dropout=0.0)
        clips = load_split(load_manifest(tiny_dataset), "train")[:5]
        got, want = self._step_and_one_pass(cfg, clips, monkeypatch)
        for g, r in zip(got, want):
            assert np.linalg.norm(g - r) <= 1e-4 * np.linalg.norm(r)
        assert any(np.any(g != r) for g, r in zip(got, want))    # five passes ran

    def test_a_batch_of_one_pass_is_bitwise_one_pass(self, tiny_dataset, monkeypatch):
        cfg = tiny_config(batch_size=FRONT_END_CLIPS)
        clips = load_split(load_manifest(tiny_dataset), "train")[:FRONT_END_CLIPS]
        got, want = self._step_and_one_pass(cfg, clips, monkeypatch)
        assert [g.tobytes() for g in got] == [r.tobytes() for r in want]

    def test_phase2_step_memory_does_not_grow_with_the_batch(self, tiny_dataset):
        """A phase-2 step over 4·FRONT_END_CLIPS clips peaks below 1.3 times
        a step over FRONT_END_CLIPS clips: each pass's tape is freed before
        the next pass runs. (Measured at one clip a pass: 1.11 to 1.14
        times; one pass over the whole batch peaked at 3.3 times.)"""
        clips = load_split(load_manifest(tiny_dataset), "train")

        def step_peak(k):
            cfg = tiny_config(batch_size=k)
            rng = np.random.default_rng(cfg.seed)
            model = InteractionModel(cfg, rng)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                run_phase(model, "2", clips[:k], cfg, rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - before
        small = step_peak(FRONT_END_CLIPS)
        large = step_peak(4 * FRONT_END_CLIPS)
        assert large < 1.3 * small, (large, small)

    def test_non_finite_second_pass_names_phase_epoch_and_op(self, tiny_dataset, monkeypatch):
        """NaN frames in only the second pass's clips stop phase 2 after the
        first pass's backward, and the replay repeats that pass's draws."""
        cfg = tiny_config(batch_size=2 * FRONT_END_CLIPS, epochs_joint=2)
        clips = load_split(load_manifest(tiny_dataset), "train")[:2 * FRONT_END_CLIPS]
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        order = copy.deepcopy(rng).permutation(len(clips))
        poisoned = {id(clips[i]) for i in order[FRONT_END_CLIPS:]}
        train_module = importlib.import_module("egorec.harness.train")
        real_arrays, real_backward = train_module._batch_arrays, train_module.backward
        passes, backwards = [], []

        def batch_arrays(batch, config, rng):
            frames, masks, labels = real_arrays(batch, config, rng)
            for j, clip in enumerate(batch):
                if id(clip) in poisoned:
                    frames[j] = np.nan
            passes.append(([id(c) for c in batch], frames.tobytes(), masks.tobytes()))
            return frames, masks, labels

        def spy_backward(tape, loss, params=None):
            backwards.append(loss.item())
            real_backward(tape, loss, params=params)
        monkeypatch.setattr(train_module, "_batch_arrays", batch_arrays)
        monkeypatch.setattr(train_module, "backward", spy_backward)
        with pytest.raises(NonFiniteError, match=r"^phase 2 epoch 1/2: .*\bconv2d: "):
            run_phase(model, "2", clips, cfg, rng)
        assert not debug_nan_enabled()
        first, second, replay = passes
        assert set(first[0]).isdisjoint(poisoned) and set(second[0]) == poisoned
        assert replay == second
        assert len(backwards) == 1 and np.isfinite(backwards[0])

    def test_logged_losses_are_clip_weighted_means_over_passes(self, monkeypatch):
        """A batch of 5 items runs as passes of 2, 2 and 1; each pass's loss
        components are means over its items. The logged loss and every
        logged component are the means over all 5 items, which an
        unweighted mean of the three pass means would miss; the gradient is
        the batch's."""
        class Offset(Module):
            def __init__(self):
                self.w = Tensor(np.zeros(1, np.float32), requires_grad=True)
        module = Offset()
        cfg = tiny_config(batch_size=5, alpha=1.0, beta=1.0, gamma=1.0)
        values = {"l_cls": [0, 0, 0, 0, 10], "l_seg": [5, 0, 0, 0, 0],
                  "l_rec": [0, 0, 2.5, 0, 0], "l_smooth": [1, 1, 1, 1, 1]}
        sizes, grads = [], []

        def batch_loss(idx, rng):
            sizes.append(len(idx))
            terms = {name: dc.mean(module.w + Tensor(np.float32(v)[idx]))
                     for name, v in values.items()}
            return total_loss(cfg, **terms)
        real_step = Adam.step

        def spy_step(opt):
            grads.append(module.w.grad.copy())
            real_step(opt)
        monkeypatch.setattr(Adam, "step", spy_step)
        lines = []
        _fit("1a", module.parameters(), batch_loss, 5, 2, 1,
             cfg, np.random.default_rng(0), log=lines.append)
        assert sizes == [2, 2, 1]
        (line,) = lines
        logged = dict(re.findall(r"(loss|l_\w+) (\S+)", line))
        want = {"l_cls": 2.0, "l_seg": 1.0, "l_rec": 0.5, "l_smooth": 1.0}
        assert {k: float(v) for k, v in logged.items()} == pytest.approx(
            {"loss": sum(want.values()), **want}, abs=1e-5)
        (grad,) = grads
        assert grad == pytest.approx([4.0], rel=1e-6)

    def test_one_backward_per_pass_in_front_end_phases_and_per_batch_in_heads(
            self, tiny_dataset, monkeypatch):
        """8 train clips in batches of 5 and 3: phases 1a, 1b and 2 run
        ceil(5/F) + ceil(3/F) passes an epoch, phase 1c and each ablation
        head one per batch; every phase and head steps Adam once a batch."""
        cfg = tiny_config(batch_size=5)
        manifest = load_manifest(tiny_dataset)
        clips = load_split(manifest, "train")
        assert len(clips) == 8
        train_module = importlib.import_module("egorec.harness.train")
        real_backward, real_step = train_module.backward, Adam.step
        backwards, steps = [], []

        def spy_backward(tape, loss, params=None):
            backwards.append(1)
            real_backward(tape, loss, params=params)

        def spy_step(opt):
            steps.append(1)
            real_step(opt)
        monkeypatch.setattr(train_module, "backward", spy_backward)
        monkeypatch.setattr(Adam, "step", spy_step)
        passes = math.ceil(5 / FRONT_END_CLIPS) + math.ceil(3 / FRONT_END_CLIPS)
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        for phase, want in (("1a", passes), ("1b", passes), ("1c", 2), ("2", passes)):
            backwards.clear()
            steps.clear()
            run_phase(model, phase, clips, cfg, rng)
            assert (len(backwards), len(steps)) == (want, 2), phase
        backwards.clear()
        steps.clear()
        ablate(manifest, tiny_config(batch_size=5, epochs_attention=0, epochs_motion=0),
               parse_variants("ego,full"))
        assert (len(backwards), len(steps)) == (4, 4)


class TestTapelessPasses:
    """Without a tape, ``forward`` and ``stream_features`` run the front end
    on passes of at most ``FRONT_END_CLIPS`` clips and concatenate them;
    under a tape the pass is the whole batch."""

    def test_passes_are_bitwise_one_taped_pass(self, tiny_dataset, monkeypatch):
        cfg = tiny_config(batch_size=3)
        frames, masks, labels = _phase2_batch(cfg, tiny_dataset)
        model = InteractionModel(cfg, np.random.default_rng(cfg.seed))
        extract = model.backbone.extract
        calls = []

        def spy(x):
            calls.append(x.shape[0])
            return extract(x)
        monkeypatch.setattr(model.backbone, "extract", spy)
        flags = dict(need_seg=True, need_rec=True, need_cls=True)
        free = model.forward(frames, masks, labels, **flags)
        assert len(calls) == math.ceil(3 / FRONT_END_CLIPS)
        calls.clear()
        with Tape() as tape:
            taped = model.forward(frames, masks, labels, **flags)
        assert calls == [3 * cfg.num_frames] and len(tape) > 0

        def outputs(res):
            return [res.probs, res.masks_m3, res.recon, res.motion_est.transform,
                    res.motion_est.field, res.l_cls, res.l_seg, res.l_rec, res.l_smooth]
        for a, b in zip(outputs(free), outputs(taped)):
            assert a.shape == b.shape and a.numpy().tobytes() == b.numpy().tobytes()

    def test_forward_memory_does_not_grow_with_the_batch(self, tiny_dataset):
        """A tape-less ``forward(need_cls=True)`` over 4 clips peaks below
        1.3 times one over one clip. (Measured: 1.22 times; one pass over
        the 4 clips peaked at 3.7 times.)"""
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "train")
        model = InteractionModel(cfg, np.random.default_rng(cfg.seed))

        def forward_peak(k):
            frames = np.stack([sample_frames(c, cfg.num_frames).frames for c in clips[:k]])
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                model.forward(frames, None, None, need_cls=True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - before
        small = forward_peak(1)
        large = forward_peak(4)
        assert large < 1.3 * small, (large, small)

    @pytest.mark.parametrize("taped", [False, True], ids=["tapeless", "taped"])
    @pytest.mark.parametrize("flag, asked", [
        ("need_rec", {"masks_m3", "motion_est", "recon", "l_rec", "l_smooth"}),
        ("need_cls", {"probs", "l_cls"}),
    ])
    def test_forward_keeps_only_what_its_flag_asks_for(self, tiny_dataset, monkeypatch, flag,
                                                       asked, taped):
        """A ``need_rec``-only or ``need_cls``-only forward calls neither the
        m1 nor the m2 head and leaves every field it was not asked for None;
        the fields it was asked for are bitwise those of a forward with
        every flag."""
        cfg = tiny_config(batch_size=3)
        frames, masks, labels = _phase2_batch(cfg, tiny_dataset)
        model = InteractionModel(cfg, np.random.default_rng(cfg.seed))
        every = model.forward(frames, masks, labels, need_seg=True, need_rec=True, need_cls=True)
        called = []
        spies = [lambda x, k=k: called.append(k) for k in (0, 1)]
        monkeypatch.setattr(model.attention, "heads", spies + model.attention.heads[2:])
        with Tape() if taped else contextlib.nullcontext():
            res = model.forward(frames, masks, labels, **{flag: True})
        assert called == []
        for name, value in vars(res).items():
            if name not in asked:
                assert value is None, name
                continue
            want = getattr(every, name)
            pairs = (zip(vars(value).values(), vars(want).values()) if name == "motion_est"
                     else [(value, want)])
            for a, b in pairs:
                assert a.numpy().tobytes() == b.numpy().tobytes(), name

    def test_field_heads_run_only_for_the_reconstruction(self, tiny_dataset, monkeypatch):
        """Neither dense-field head runs in a ``need_cls``-only forward or in
        ``stream_features``, which extraction, evaluation and the ablation
        heads read; the stream features are bitwise those of passes that
        also ran both heads for the reconstruction."""
        cfg = tiny_config(batch_size=3)
        frames, _, labels = _phase2_batch(cfg, tiny_dataset)
        model = InteractionModel(cfg, np.random.default_rng(cfg.seed))
        called = []
        for name in ("field_up1", "field_up2"):
            head = getattr(model.motion, name)
            monkeypatch.setattr(model.motion, name, lambda x, relu=False, head=head, name=name:
                                called.append(name) or head(x, relu=relu))
        _, _, with_field = model._passes(frames, False, True, True)
        assert called == ["field_up1", "field_up2"] * 3
        called.clear()
        streams = model.stream_features(frames)
        res = model.forward(frames, None, labels, need_cls=True)
        assert called == [] and res.probs is not None
        for a, b in zip(streams, with_field, strict=True):
            assert a.tobytes() == b.numpy().tobytes()

    def test_classifying_forward_holds_one_pass_at_the_default_size(self):
        """A tape-less ``forward(need_cls=True)`` over 8 clips at the default
        config peaks at most 1.1 times one over one clip: each pass keeps
        only its stream features. (Measured: 1.05 times; 1.70 times while
        every pass's masks and motion estimate were kept.) Its probabilities
        are bitwise ``stream_features`` classified, and it keeps no masks,
        motion estimate or reconstruction."""
        cfg = TrainConfig()
        model = InteractionModel(cfg, np.random.default_rng(0))
        frames = np.random.default_rng(1).random(
            (8, cfg.num_frames, cfg.frame_height, cfg.frame_width, 3), dtype=np.float32)

        def forward_peak(k):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                res = model.forward(frames[:k], None, None, need_cls=True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - before, res
        small, _ = forward_peak(1)
        large, res = forward_peak(8)
        assert large <= 1.1 * small, (large, small)
        assert res.masks_m3 is None and res.motion_est is None and res.recon is None
        _, probs = model.interact.classify(*map(Tensor, model.stream_features(frames)))
        assert res.probs.numpy().tobytes() == probs.numpy().tobytes()

    @pytest.mark.parametrize("shape", [(0, 4, 16, 32, 3), (4, 16, 32, 3), (2, 1, 16, 32, 3)],
                             ids=["empty-batch", "rank-4", "one-frame"])
    def test_malformed_frames_raise_shape_error(self, shape):
        model = InteractionModel(tiny_config(), np.random.default_rng(0))
        frames = np.zeros(shape, np.float32)
        named = rf"^model: frames must be \(B >= 1, N >= 2, H, W, 3\), got {re.escape(str(shape))}"
        with pytest.raises(ShapeError, match=named):
            model.forward(frames, None, None, need_cls=True)
        with pytest.raises(ShapeError, match=named):
            model.stream_features(frames)


class TestFloat32Training:
    """A training step stays in float32 from the loss back to the parameters
    and Adam's moments; numpy 2 (NEP 50) would otherwise carry Python-float
    operands as float64 through the graph."""

    @staticmethod
    def _spy(monkeypatch, module_name):
        """Record dtypes at ``module_name``'s ``backward`` calls and Adam steps."""
        module = importlib.import_module(module_name)
        seen = {"moments": set()}
        real_backward, real_step = module.backward, Adam.step

        def spy_backward(tape, loss, params=None):
            seen["loss"] = loss.dtype
            seen["off_nodes"] = [(name, str(out.dtype)) for out, _, _, name in tape.nodes
                                 if out.dtype != np.float32]
            real_backward(tape, loss, params=params)
            seen["grads"] = {p.grad.dtype for p in params}

        def spy_step(opt):
            real_step(opt)
            seen["moments"].update(a.dtype for a in (*opt.m.values(), *opt.v.values()))

        monkeypatch.setattr(module, "backward", spy_backward)
        monkeypatch.setattr(Adam, "step", spy_step)
        return seen

    @staticmethod
    def _assert_float32(seen):
        assert seen["loss"] == np.float32
        assert seen["off_nodes"] == []
        assert seen["grads"] == {np.dtype(np.float32)}
        assert seen["moments"] == {np.dtype(np.float32)}

    def test_phase2_step(self, tiny_dataset, monkeypatch):
        cfg = tiny_config()
        clips = load_split(load_manifest(tiny_dataset), "train")[:cfg.batch_size]
        rng = np.random.default_rng(cfg.seed)
        model = InteractionModel(cfg, rng)
        seen = self._spy(monkeypatch, "egorec.harness.train")
        run_phase(model, "2", clips, cfg, rng)
        self._assert_float32(seen)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}

    def test_train_head_step(self, tiny_dataset, monkeypatch):
        cfg = tiny_config()
        model = InteractionModel(cfg, np.random.default_rng(cfg.seed))
        clips = load_split(load_manifest(tiny_dataset), "train")
        feats, labels = extract_features(model, clips, cfg)
        rng = np.random.default_rng(cfg.seed + 1)
        head = interaction_head(cfg, rng, model.motion.global_dim, "full", "both")
        seen = self._spy(monkeypatch, "egorec.harness.train")
        train_head(head, feats, labels, cfg, rng)
        self._assert_float32(seen)


class TestAblate:
    def test_parse_variants(self):
        assert parse_variants("ego,full") == [("ego", "both"), ("full", "both")]
        assert parse_variants("exo:motion") == [("exo", "motion")]
        with pytest.raises(ValueError):
            parse_variants("bogus")
        with pytest.raises(ValueError):
            parse_variants("ego:bogus")

    def test_seeds_draw_distinct_head_and_front_end_streams(self, tiny_dataset, monkeypatch):
        """No seed's head generator repeats another seed's front-end one."""
        ablate_mod = importlib.import_module("egorec.harness.ablate")
        draws = {"front": [], "head": []}

        def spy(kind, real):
            def make(config, rng, *args):
                draws[kind].append(copy.deepcopy(rng).random(4).tobytes())
                return real(config, rng, *args)
            return make

        monkeypatch.setattr(ablate_mod, "InteractionModel",
                            spy("front", ablate_mod.InteractionModel))
        monkeypatch.setattr(ablate_mod, "interaction_head",
                            spy("head", ablate_mod.interaction_head))
        cfg = tiny_config(epochs_attention=0, epochs_motion=0, epochs_interaction=0)
        ablate(load_manifest(tiny_dataset), cfg, parse_variants("ego"), seeds=[0, 1, 2])
        assert len(draws["front"]) == len(draws["head"]) == 3
        assert len(set(draws["front"]) | set(draws["head"])) == 6

    def test_front_end_is_bitwise_the_one_train_trains(self, tiny_dataset, tmp_path,
                                                       monkeypatch):
        """With one front-end epoch each, ablate's backbone, mask decoder and
        motion module for seed s are bitwise those ``train(stage="1")``
        returns with ``config.seed = s``: both draw from ``phase_rng``."""
        ablate_mod = importlib.import_module("egorec.harness.ablate")
        models = []

        def spy(model, *args):
            models.append(model)
            return extract_features(model, *args)

        monkeypatch.setattr(ablate_mod, "extract_features", spy)
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config(epochs_interaction=0)
        ablate(manifest, cfg, parse_variants("ego"), seeds=[4])
        front = {n: p.data.tobytes() for n, p in models[0].named_parameters()
                 if not n.startswith("interact.")}
        trained = train(manifest, tiny_config(epochs_interaction=0, seed=4), "1",
                        tmp_path / "s4.ckpt").model
        assert front == {n: p.data.tobytes() for n, p in trained.named_parameters()
                         if not n.startswith("interact.")}
        assert {n.split(".")[0] for n in front} == {"backbone", "attention", "motion"}

    def test_negative_seed_fails_before_loading(self, tiny_dataset, monkeypatch):
        train_mod = importlib.import_module("egorec.harness.train")
        loaded = []
        monkeypatch.setattr(train_mod, "load_split", lambda *a: loaded.append(a))
        with pytest.raises(ValueError, match=r"^seeds must be nonnegative, got \[1, -1\]"):
            ablate(load_manifest(tiny_dataset), tiny_config(), parse_variants("ego"),
                   seeds=[1, -1])
        assert loaded == []

    def test_two_variants_two_rows(self, tiny_dataset, tmp_path):
        manifest = load_manifest(tiny_dataset)
        cfg = tiny_config()
        rows = ablate(manifest, cfg, parse_variants("ego,full"))
        assert len(rows) == 2
        assert {r.variant for r in rows} == {"ego", "full"}
        out = tmp_path / "report.tsv"
        write_report(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0] == "variant\tfeatures\taccuracy\tseed"
        assert len(lines) == 3


class TestCli:
    @pytest.mark.parametrize("seeds, error", [
        ("1,x", "invalid int_csv value: '1,x'"),
        ("1,-1", "-1 is not a nonnegative integer"),
    ], ids=["non-integer", "negative"])
    def test_malformed_seeds_is_a_usage_error(self, tmp_path, capsys, seeds, error):
        with pytest.raises(SystemExit) as exc:
            cli_main(["ablate", "--data", str(tmp_path), "--config", str(tmp_path / "c.txt"),
                      "--variants", "ego", "--out", str(tmp_path / "r.tsv"),
                      "--seeds", seeds])
        assert exc.value.code == 2
        assert f"argument --seeds: {error}" in capsys.readouterr().err

    def test_no_clips_per_class_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["gen", "--out", str(tmp_path / "data"), "--clips-per-class", "0",
                      "--variant", "standard", "--seed", "1"])
        assert exc.value.code == 2
        assert "argument --clips-per-class: 0 is not a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_full_cli_flow(self, tmp_path, capsys):
        data = tmp_path / "data"
        # CLI generates at the default desk frame size; keep it tiny in count
        rc = cli_main(["gen", "--out", str(data), "--clips-per-class", "2",
                       "--variant", "standard", "--seed", "11"])
        assert rc == 0
        cfg = tiny_config(frame_height=32, frame_width=64, num_frames=4,
                          channels=8, batch_size=2)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(cfg.to_text())
        ck = tmp_path / "m.ckpt"
        assert cli_main(["train", "--data", str(data), "--config", str(cfg_path),
                         "--stage", "1", "--ckpt", str(ck)]) == 0
        assert cli_main(["eval", "--data", str(data), "--ckpt", str(ck),
                         "--split", "test"]) == 0
        report = tmp_path / "rep.tsv"
        assert cli_main(["ablate", "--data", str(data), "--config", str(cfg_path),
                         "--variants", "ego", "--out", str(report)]) == 0
        assert report.exists()
        clip_dirs = sorted(p for p in data.iterdir() if p.is_dir())
        assert len(clip_dirs) == 8
        for d in clip_dirs:
            assert sorted(p.name for p in d.iterdir()) == ["frames.ppm", "gt.txt", "masks.pgm"]
        first_clip = clip_dirs[0]
        viz_dir = tmp_path / "viz"
        assert cli_main(["viz", "--ckpt", str(ck), "--clip", str(first_clip),
                         "--out", str(viz_dir)]) == 0
        assert (viz_dir / "mask_0000.pgm").exists()
        assert (viz_dir / "flow_0000_x.pgm").exists()
        assert (viz_dir / "flow_0000_x.txt").exists()
        assert (viz_dir / "recon_0000.ppm").exists()
        out = capsys.readouterr().out
        assert "accuracy" in out
