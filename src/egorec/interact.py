"""Two-stream recurrent interaction modeling.

The camera-wearer stream (global appearance + global motion) and the
interactor stream (local appearance + local motion) are projected to a
shared width and fed to two LSTM cells that cross-gate each other: each
cell's gate pre-activation receives a relu-modulated signal computed from
the other cell's previous hidden state. A relation branch applies
tanh(F_ego + F_exo) per step and integrates it with a plain LSTM whose
final state feeds the classifier.

Every variant runs the same cells and the same loop; each ablation drops
one piece:

    variant   cell inputs    cross-gate   relation
    ego       ego            no           no
    exo       exo            no           no
    concat    [ego; exo]     no           no
    sym       ego, exo       yes          no
    rel       ego, exo       no           yes
    full      ego, exo       yes          yes

Without the relation branch the classifier reads the final hidden states
(concatenated when there are two). A single-stream variant (ego, exo)
builds and projects only the stream it reads.

Each cell carries its state packed as [h | c], and each cell step is one
``diffcore.lstm_cell`` op that adds the cross-gate signal inside it. A
cell's input term x·W is one matmul over the whole sequence, taken
before the loop; only the relation cell, whose input depends on the step,
multiplies by its W per step. The probabilities are bitwise those of the
same step written as a chain of generic ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .nn import Linear, Module, dropout, uniform_init

# variant -> (input of each cell, cross-gated, relation branch)
LAYOUT = {
    "ego": (("ego",), False, False),
    "exo": (("exo",), False, False),
    "concat": (("concat",), False, False),
    "sym": (("ego", "exo"), True, False),
    "rel": (("ego", "exo"), False, True),
    "full": (("ego", "exo"), True, True),
}
VARIANTS = tuple(LAYOUT)
FEATURE_SETS = ("appearance", "motion", "both")

PROB_EPS = 1e-7


@dataclass
class State:
    """Recurrent state after ``steps`` steps.

    ``hc`` holds one (B, 2*hidden) state per cell, in input order, packed
    as [h | c]; ``rel`` is the relation cell's and ``r`` the relation
    input of the last step. ``f``, ``c`` and ``relation`` read the hidden
    and cell halves.
    """

    hc: tuple[Tensor, ...]
    rel: Tensor | None = None
    r: Tensor | None = None
    steps: int = 0

    @property
    def f(self) -> tuple[Tensor, ...]:
        return tuple(_half(t, 0) for t in self.hc)

    @property
    def c(self) -> tuple[Tensor, ...]:
        return tuple(_half(t, 1) for t in self.hc)

    @property
    def relation(self) -> Tensor:
        return _half(self.rel, 0)


def _half(hc: Tensor, k: int) -> Tensor:
    """The hidden (``k`` = 0) or cell (``k`` = 1) half of a packed state."""
    h = hc.shape[1] // 2
    return hc[:, k * h:(k + 1) * h]


class LSTMCell(Module):
    """LSTM with the [i; o; g; a] gate layout; holds {W, U, b}.

    A cross-gated cell also holds {V, v}: its gates add the relu-modulated
    signal relu(h_other·V + v) of the other cell's previous hidden state.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator,
                 cross_gated: bool = False):
        self.w = Tensor(uniform_init(rng, (in_dim, 4 * hidden), in_dim), requires_grad=True)
        self.u = Tensor(uniform_init(rng, (hidden, 4 * hidden), hidden), requires_grad=True)
        # attribute order w, u, v, b, vb fixes the init draws and the checkpoint layout
        if cross_gated:
            self.v = Tensor(uniform_init(rng, (hidden, 4 * hidden), hidden), requires_grad=True)
        self.b = Tensor(np.zeros(4 * hidden, np.float32), requires_grad=True)
        if cross_gated:
            self.vb = Tensor(np.zeros(4 * hidden, np.float32), requires_grad=True)

    def step(self, xw: Tensor, hc: Tensor, hc_other: Tensor | None = None) -> Tensor:
        """The packed new state from the input term ``xw`` = x·W, the packed
        previous state ``hc`` and, to cross-gate, the other cell's."""
        if hc_other is None:
            return dc.lstm_cell(xw, hc, self.u, self.b)
        return dc.lstm_cell(xw, hc, self.u, self.b, hc_other, self.v, self.vb)


class InteractiveClassifier(Module):
    """Projection + recurrent variant + classifier head.

    ``variant`` selects the recurrent structure (see ``LAYOUT``),
    ``features`` which raw components feed each stream (appearance,
    motion, or both). The cell reading input ``s`` is ``block_<s>``; the
    projection of each stream the cells read is ``proj_<stream>``.
    """

    def __init__(self, appear_dim: int, motion_dim: int, num_classes: int,
                 rng: np.random.Generator, proj_dim: int = 32, hidden: int = 32,
                 variant: str = "full", features: str = "both",
                 dropout_ratio: float = 0.5, motion_dim_ego: int | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
        if features not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {features!r}; choose from {FEATURE_SETS}")
        self.variant = variant
        self.features = features
        self.inputs, self.cross_gated, self.has_relation = LAYOUT[variant]
        self.streams = ("ego", "exo") if self.inputs == ("concat",) else self.inputs
        self.num_classes = num_classes
        self.proj_dim = proj_dim
        self.hidden = hidden
        self.dropout_ratio = dropout_ratio

        m_ego = motion_dim_ego if motion_dim_ego is not None else motion_dim
        dims = {"appearance": (appear_dim, appear_dim), "motion": (m_ego, motion_dim),
                "both": (appear_dim + m_ego, appear_dim + motion_dim)}[features]
        for stream, dim in zip(("ego", "exo"), dims):
            if stream in self.streams:
                setattr(self, f"proj_{stream}", Linear(dim, proj_dim, rng))

        for name in self.inputs:
            in_dim = 2 * proj_dim if name == "concat" else proj_dim
            setattr(self, f"block_{name}", LSTMCell(in_dim, hidden, rng, self.cross_gated))
        if self.has_relation:
            self.relation_cell = LSTMCell(hidden, hidden, rng)
        cls_in = hidden if self.has_relation else hidden * len(self.inputs)
        self.classifier = Linear(cls_in, num_classes, rng)

    # ------------------------------------------------------------------
    # spec surface: one step, full sequence

    def initial_state(self, batch: int, dtype=np.float32) -> State:
        z = lambda: Tensor(np.zeros((batch, 2 * self.hidden), dtype=dtype))
        return State(hc=tuple(z() for _ in self.inputs),
                     rel=z() if self.has_relation else None)

    def _cells(self) -> list[LSTMCell]:
        return [getattr(self, f"block_{name}") for name in self.inputs]

    def step(self, state: State, xs: tuple[Tensor, ...]) -> State:
        """``advance`` on each cell's (B, in) input in ``xs``."""
        return self.advance(state, tuple(dc.matmul(x, cell.w)
                                         for cell, x in zip(self._cells(), xs)))

    def advance(self, state: State, xws: tuple[Tensor, ...]) -> State:
        """Advance every cell on its input term x·W in ``xws``, then the
        relation branch.

        Every cell updates from the step-(n-1) states, so the result does
        not depend on cell order. A cross-gated cell reads the other cell's
        previous hidden state from the second step on; at the first the
        signal is zero.
        """
        gated = self.cross_gated and state.steps > 0
        others = state.hc[::-1] if gated else (None,) * len(xws)
        new = State(hc=tuple(cell.step(*args) for cell, *args
                             in zip(self._cells(), xws, state.hc, others)),
                    steps=state.steps + 1)
        if self.has_relation:
            f = new.f
            new.r = dc.tanh_(f[0] + f[1])
            rel_cell = self.relation_cell
            new.rel = rel_cell.step(dc.matmul(new.r, rel_cell.w), state.rel)
        return new

    def run_sequence(self, ego_seq: Tensor | None, exo_seq: Tensor | None,
                     rng: np.random.Generator | None = None):
        """Classify a (B, S, P) pair of projected sequences; the sequence of
        a stream the variant does not read may be None.

        Each cell's input term x·W is one matmul over the whole sequence.
        Returns (final read-out state, class probabilities (B, K)).
        ``rng`` enables dropout (training); None disables it (evaluation).
        """
        seqs = [s for s in (ego_seq, exo_seq) if s is not None]
        if seqs[0].ndim != 3 or any(s.shape != seqs[0].shape for s in seqs):
            raise ShapeError(f"run_sequence: bad sequence shapes {[s.shape for s in seqs]}")
        batch, steps = seqs[0].shape[:2]
        if steps < 1:
            raise ShapeError("run_sequence: empty sequence")
        named = {"ego": ego_seq, "exo": exo_seq}
        xws = []
        for name, cell in zip(self.inputs, self._cells()):
            x = dc.concat(seqs, axis=2) if name == "concat" else named[name]
            flat = dc.matmul(dc.reshape(x, (batch * steps, x.shape[2])), cell.w)
            xws.append(dc.reshape(flat, (batch, steps, flat.shape[1])))
        state = self.initial_state(batch, seqs[0].dtype.type)
        for n in range(steps):
            state = self.advance(state, tuple(xw[:, n] for xw in xws))
        if self.has_relation:
            readout = state.relation
        else:
            f = state.f
            readout = f[0] if len(f) == 1 else dc.concat(list(f), axis=1)

        readout = dropout(readout, self.dropout_ratio, rng)
        logits = self.classifier(readout)
        return readout, dc.softmax(logits, axis=-1)

    # ------------------------------------------------------------------

    def project(self, appear: Tensor, motion: Tensor, stream: str,
                rng: np.random.Generator | None = None) -> Tensor:
        """Affine-project raw per-step features: (B, S, *) -> (B, S, P)."""
        if self.features == "appearance":
            raw = appear
        elif self.features == "motion":
            raw = motion
        else:
            raw = dc.concat([appear, motion], axis=2)
        b, s, d = raw.shape
        flat = getattr(self, f"proj_{stream}")(dc.reshape(raw, (b * s, d)))
        flat = dropout(flat, self.dropout_ratio, rng)
        return dc.reshape(flat, (b, s, self.proj_dim))

    def classify(self, f_ga: Tensor, f_gm: Tensor, f_la: Tensor, f_lm: Tensor,
                 rng: np.random.Generator | None = None):
        """Full path from raw stream features (each (B, S, *)) to probabilities."""
        ego = self.project(f_ga, f_gm, "ego", rng) if "ego" in self.streams else None
        exo = self.project(f_la, f_lm, "exo", rng) if "exo" in self.streams else None
        return self.run_sequence(ego, exo, rng)


def classification_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Cross entropy against integer labels; probabilities clamped at 1e-7."""
    labels = np.asarray(labels)
    k = probs.shape[-1]
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range for {k} classes: {labels}")
    onehot = np.zeros(probs.shape, dtype=probs.dtype.type)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    ll = dc.log(dc.clip(probs, PROB_EPS, 1.0))
    return dc.mean(dc.sum_(Tensor(onehot) * ll, axis=-1)) * -1.0
