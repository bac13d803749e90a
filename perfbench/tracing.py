"""Per-layer tracing by wrapping egorec's public functions from outside.

``Tracer.install`` replaces public functions and methods of each egorec
module with timing wrappers; ``Tracer.uninstall`` puts the originals back.
Nothing under ``src/`` is edited. Counts and times are kept in memory and
turned into the benchmark's per-layer metrics by ``Tracer.metrics``.

Attribution rules:

* Work is recorded only under a label: ``1a``/``1b``/``1c``/``2`` while
  ``train()`` runs that phase, ``eval`` while ``evaluate_clips`` runs.
  ``ablate()`` calls ``run_phase`` through its own import, so its front-end
  training is not mixed into the per-phase numbers.
* Forward op time comes from wrapping the ``egorec.diffcore`` op functions,
  both as the package attribute the model modules call (``dc.conv2d``) and
  as the ``ops`` global the ``Tensor`` operator sugar calls. Only the
  outermost op of a nested call is timed.
* Backward time comes from wrapping each closure in ``Tape.nodes`` just
  before ``backward`` replays them. A node belongs to the module whose
  forward call appended it (by the range of tape indices).
* A returned gradient is useful when its input depends on a parameter the
  phase trains, found by a forward sweep over ``Tape.nodes``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

PHASES = ("1a", "1b", "1c", "2")
OPS = ("conv2d", "conv_transpose2d", "grid_sample", "correlate", "matmul", "other")
MODULES = ("backbone", "attention", "motion", "interact")
VARIANTS = ("ego", "exo", "concat", "sym", "rel", "full")

# Op work a phase never runs, so its metric would always read zero: 1a stops
# after the mask decoder, 1c and eval skip the warp, and in 1c no transposed
# conv (decoder scales m1..m3, motion field head) lies on the loss's path.
_NEVER_RUN = {("fwd", "1a"): ("grid_sample", "correlate", "matmul"),
              ("bwd", "1a"): ("grid_sample", "correlate", "matmul"),
              ("fwd", "1c"): ("grid_sample",),
              ("bwd", "1c"): ("grid_sample", "conv_transpose2d"),
              ("fwd", "eval"): ("grid_sample",)}
_MODULE_PHASES = {"backbone": PHASES, "attention": PHASES,
                  "motion": ("1b", "1c", "2"), "interact": ("1c", "2")}

MIB = float(1 << 20)


def _op_category(name: str) -> str:
    name = name.rstrip("_")
    return name if name in OPS else "other"


class Tracer:
    def __init__(self):
        self.label = None            # current phase or "eval"; None = not recorded
        self._in_op = False
        self._ranges: list[tuple[int, int, str]] = []   # tape index ranges of module calls
        self._patches: list[tuple[object, str, object]] = []
        self.steps = defaultdict(int)                   # label -> train steps
        self.eval_clips = 0
        self.fwd_s = defaultdict(float)                 # (op, label) -> seconds
        self.bwd_s = defaultdict(float)
        self.mod_fwd_s = defaultdict(float)             # (module, label) -> seconds
        self.mod_bwd_s = defaultdict(float)
        self.phase_s = defaultdict(float)               # label -> seconds in run_phase
        self.optim_s = defaultdict(float)               # label -> seconds
        self.batch_s = defaultdict(float)
        self.tape_nodes = defaultdict(list)             # label -> per-step values
        self.tape_bytes = defaultdict(list)
        self.grad_bytes = defaultdict(lambda: [0, 0])   # label -> [useful, all]
        self.save_s: list[float] = []
        self.load_s: list[float] = []
        self.gen = [0, 0.0]                             # [clips, seconds]
        self.load = [0, 0.0]
        self.extract = [0, 0.0]
        self.train_head_s = defaultdict(list)           # variant -> seconds per call
        self.eval_head_s: list[float] = []

    # ------------------------------------------------------------------
    # patching

    def _replace(self, original, wrapper, only=None) -> None:
        """Point every egorec module attribute bound to ``original`` at ``wrapper``.

        Model modules import some functions by name (``from ..motion import
        warp_previous``), so each binding is patched, not only the defining one.
        """
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("egorec") or (only and modname not in only):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, name: str, wrapper_factory) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper_factory(original))

    def install(self) -> None:
        # egorec.harness re-exports functions named like two of its modules
        # (train, ablate), so every module is looked up by its full name.
        def module(name):
            return importlib.import_module(f"egorec.{name}")

        diffcore, ops = module("diffcore"), module("diffcore.ops")
        attention, motion, interact = module("attention"), module("motion"), module("interact")
        synthdata, model = module("synthdata"), module("harness.model")
        harness_train, harness_ablate = module("harness.train"), module("harness.ablate")
        checkpoint = module("harness.checkpoint")
        ConvBackbone = module("backbone").ConvBackbone
        Adam = module("harness.optim").Adam

        for name in diffcore.__all__:
            fn = getattr(ops, name, None)
            if inspect.isfunction(fn) and fn.__module__ == ops.__name__:
                self._replace(fn, self._wrap_op(fn, _op_category(name)))

        self._replace_method(ConvBackbone, "extract", lambda f: self._wrap_module(f, "backbone"))
        self._replace_method(attention.MaskDecoder, "predict_masks",
                             lambda f: self._wrap_module(f, "attention"))
        self._replace_method(motion.MotionEstimator, "estimate",
                             lambda f: self._wrap_module(f, "motion"))
        self._replace_method(interact.InteractiveClassifier, "classify",
                             lambda f: self._wrap_module(f, "interact"))
        for fn, mod in ((attention.segmentation_loss, "attention"),
                        (motion.warp_previous, "motion"),
                        (motion.reconstruction_loss, "motion"),
                        (motion.smoothness_loss, "motion"),
                        (interact.classification_loss, "interact")):
            self._replace(fn, self._wrap_module(fn, mod), only={model.__name__})

        self._replace(diffcore.backward, self._wrap_backward(diffcore.backward))
        self._replace_method(Adam, "step", self._wrap_optim)
        for fn in (synthdata.sample_frames, synthdata.augment):
            self._replace(fn, self._wrap_batch(fn), only={harness_train.__name__})

        # run_phase is patched only where train() looks it up
        self._replace(harness_train.run_phase, self._wrap_phase(harness_train.run_phase),
                      only={harness_train.__name__})
        self._replace(harness_train.evaluate_clips, self._wrap_eval(harness_train.evaluate_clips))

        self._replace(checkpoint.save_checkpoint, self._timed(checkpoint.save_checkpoint,
                                                              self.save_s.append))
        self._replace(checkpoint.load_checkpoint, self._timed(checkpoint.load_checkpoint,
                                                              self.load_s.append))
        self._replace(synthdata.generate_dataset, self._counted(
            synthdata.generate_dataset, self.gen, lambda man: len(man.entries)))
        self._replace(synthdata.load_split, self._counted(synthdata.load_split, self.load, len))
        self._replace(harness_ablate.extract_features, self._counted(
            harness_ablate.extract_features, self.extract, lambda res: len(res[1])))
        self._replace(harness_ablate.train_head, self._wrap_train_head(harness_ablate.train_head))
        self._replace(harness_ablate.eval_head, self._timed(harness_ablate.eval_head,
                                                            self.eval_head_s.append))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # wrappers

    def _wrap_op(self, fn, category):
        def op(*args, **kwargs):
            label = self.label
            if label is None or self._in_op:
                return fn(*args, **kwargs)
            self._in_op = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fwd_s[(category, label)] += time.perf_counter() - t0
                self._in_op = False
        return op

    def _wrap_module(self, fn, module):
        from egorec.diffcore import active_tape

        def call(*args, **kwargs):
            label = self.label
            if label is None:
                return fn(*args, **kwargs)
            tape = active_tape()
            start = len(tape.nodes) if tape is not None else 0
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.mod_fwd_s[(module, label)] += time.perf_counter() - t0
            if tape is not None:
                self._ranges.append((start, len(tape.nodes), module))
            return out
        return call

    def _wrap_backward(self, fn):
        def backward(tape, loss, params=None):
            label = self.label
            if label is None:
                return fn(tape, loss, params=params)
            nodes = tape.nodes
            self.tape_nodes[label].append(len(nodes))
            self.tape_bytes[label].append(sum(out.data.nbytes for out, _, _, _ in nodes))
            needed = {id(p) for p in (params or ())}
            for out, inputs, _, _ in nodes:
                if any(id(t) in needed for t in inputs):
                    needed.add(id(out))
            owner = [None] * len(nodes)
            for start, end, module in self._ranges:
                owner[start:end] = [module] * (end - start)
            self._ranges = []
            for i, (out, inputs, bwd, name) in enumerate(nodes):
                nodes[i] = (out, inputs,
                            self._wrap_closure(bwd, _op_category(name), owner[i], inputs,
                                               needed, label), name)
            fn(tape, loss, params=params)
            self.steps[label] += 1
        return backward

    def _wrap_closure(self, bwd, category, module, inputs, needed, label):
        def closure(g):
            t0 = time.perf_counter()
            grads = tuple(bwd(g))
            dt = time.perf_counter() - t0
            self.bwd_s[(category, label)] += dt
            if module is not None:
                self.mod_bwd_s[(module, label)] += dt
            counts = self.grad_bytes[label]
            for inp, gi in zip(inputs, grads):
                if gi is not None:
                    counts[1] += gi.nbytes
                    if id(inp) in needed:
                        counts[0] += gi.nbytes
            return grads
        return closure

    def _wrap_optim(self, fn):
        def step(opt):
            label = self.label
            t0 = time.perf_counter()
            fn(opt)
            if label is not None:
                self.optim_s[label] += time.perf_counter() - t0
        return step

    def _wrap_batch(self, fn):
        def call(*args, **kwargs):
            label = self.label
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            if label is not None:
                self.batch_s[label] += time.perf_counter() - t0
            return out
        return call

    def _wrap_phase(self, fn):
        def run_phase(model, phase, *args, **kwargs):
            outer, self.label = self.label, phase
            self._ranges = []
            t0 = time.perf_counter()
            try:
                return fn(model, phase, *args, **kwargs)
            finally:
                self.phase_s[phase] += time.perf_counter() - t0
                self.label = outer
        return run_phase

    def _wrap_eval(self, fn):
        def evaluate_clips(model, clips, *args, **kwargs):
            if self.label is not None:
                return fn(model, clips, *args, **kwargs)
            self.label = "eval"
            try:
                out = fn(model, clips, *args, **kwargs)
            finally:
                self.label = None
            self.eval_clips += len(clips)
            return out
        return evaluate_clips

    @staticmethod
    def _timed(fn, record):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            record(time.perf_counter() - t0)
            return out
        return call

    @staticmethod
    def _counted(fn, acc, count):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            acc[1] += time.perf_counter() - t0
            acc[0] += count(out)
            return out
        return call

    def _wrap_train_head(self, fn):
        def train_head(head, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(head, *args, **kwargs)
            self.train_head_s[head.variant].append(time.perf_counter() - t0)
            return out
        return train_head

    # ------------------------------------------------------------------
    # report

    def metrics(self) -> dict[str, tuple[float | None, str]]:
        """Per-layer ``name -> (value, unit)``; a value never measured is None."""
        out: dict[str, tuple[float | None, str]] = {}

        def per_call_ms(total_s, calls):
            return total_s * 1000.0 / calls if calls else None

        def rate(acc):
            return acc[0] / acc[1] if acc[1] > 0 else None

        def count(label):
            return self.eval_clips if label == "eval" else self.steps.get(label, 0)

        for label in PHASES + ("eval",):
            for kind, table in (("fwd", self.fwd_s), ("bwd", self.bwd_s)):
                if kind == "bwd" and label == "eval":
                    continue
                for op in OPS:
                    if op not in _NEVER_RUN.get((kind, label), ()):
                        out[f"diffcore.{kind}_ms.{op}.{label}"] = (
                            per_call_ms(table.get((op, label), 0.0), count(label)), "ms")
        for label in PHASES:
            nbytes = _median(self.tape_bytes.get(label, []))
            useful, total = self.grad_bytes.get(label, (0, 0))
            out[f"diffcore.tape_nodes.{label}"] = (_median(self.tape_nodes.get(label, [])),
                                                   "count")
            out[f"diffcore.tape_mb.{label}"] = (None if nbytes is None else nbytes / MIB, "MiB")
            out[f"diffcore.grad_useful_frac.{label}"] = (useful / total if total else None,
                                                         "ratio")
        for mod in MODULES:
            for label in _MODULE_PHASES[mod]:
                for kind, table in (("fwd_ms", self.mod_fwd_s), ("bwd_ms", self.mod_bwd_s)):
                    out[f"{mod}.{kind}.{label}"] = (
                        per_call_ms(table.get((mod, label), 0.0), count(label)), "ms")
            out[f"{mod}.fwd_ms.eval"] = (
                per_call_ms(self.mod_fwd_s.get((mod, "eval"), 0.0), count("eval")), "ms")
        for label in PHASES:
            out[f"harness.train.step_ms.{label}"] = (
                per_call_ms(self.phase_s.get(label, 0.0), count(label)), "ms")
            out[f"harness.optim.step_ms.{label}"] = (
                per_call_ms(self.optim_s.get(label, 0.0), count(label)), "ms")
            out[f"synthdata.batch_ms.{label}"] = (
                per_call_ms(self.batch_s.get(label, 0.0), count(label)), "ms")
        out["harness.checkpoint.save_ms"] = (per_call_ms(sum(self.save_s), len(self.save_s)),
                                             "ms")
        out["harness.checkpoint.load_ms"] = (per_call_ms(sum(self.load_s), len(self.load_s)),
                                             "ms")
        out["synthdata.gen_clips_per_s"] = (rate(self.gen), "1/s")
        out["synthdata.load_clips_per_s"] = (rate(self.load), "1/s")
        out["harness.ablate.extract_clips_per_s"] = (rate(self.extract), "1/s")
        for variant in VARIANTS:
            out[f"harness.ablate.train_head_s.{variant}"] = (
                _median(self.train_head_s.get(variant, [])), "s")
        out["harness.ablate.eval_head_ms"] = (
            per_call_ms(sum(self.eval_head_s), len(self.eval_head_s)), "ms")
        return out


def _median(xs):
    xs = sorted(xs)
    if not xs:
        return None
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])
