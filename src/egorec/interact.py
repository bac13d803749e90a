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
    """Recurrent state after one step.

    ``f`` and ``c`` hold one (B, hidden) array per cell, in input order;
    ``j`` holds the (B, 4*hidden) signal each cross-gated cell adds to its
    next gates. ``r``, ``relation`` and ``c_rel`` belong to the relation
    branch.
    """

    f: tuple[Tensor, ...]
    c: tuple[Tensor, ...]
    j: tuple[Tensor, ...] | None = None
    r: Tensor | None = None
    relation: Tensor | None = None
    c_rel: Tensor | None = None


def _step_input(name: str, ego_seq: Tensor, exo_seq: Tensor, n: int) -> Tensor:
    if name == "ego":
        return ego_seq[:, n]
    if name == "exo":
        return exo_seq[:, n]
    return dc.concat([ego_seq[:, n], exo_seq[:, n]], axis=1)


class LSTMCell(Module):
    """LSTM with the [i; o; g; a] gate layout; holds {W, U, b}.

    A cross-gated cell also holds {V, v}, from which it computes the
    relu-modulated signal that enters its own gates next step.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator,
                 cross_gated: bool = False):
        self.hidden = hidden
        self.w = Tensor(uniform_init(rng, (in_dim, 4 * hidden), in_dim), requires_grad=True)
        self.u = Tensor(uniform_init(rng, (hidden, 4 * hidden), hidden), requires_grad=True)
        # attribute order w, u, v, b, vb fixes the init draws and the checkpoint layout
        if cross_gated:
            self.v = Tensor(uniform_init(rng, (hidden, 4 * hidden), hidden), requires_grad=True)
        self.b = Tensor(np.zeros(4 * hidden, np.float32), requires_grad=True)
        if cross_gated:
            self.vb = Tensor(np.zeros(4 * hidden, np.float32), requires_grad=True)

    def step(self, x: Tensor, f_prev: Tensor, c_prev: Tensor, j_prev: Tensor | None = None):
        pre = dc.matmul(x, self.w) + dc.matmul(f_prev, self.u)
        if j_prev is not None:
            pre = pre + j_prev
        pre = pre + self.b
        h = self.hidden
        i = dc.sigmoid(pre[:, :h])
        o = dc.sigmoid(pre[:, h:2 * h])
        g = dc.sigmoid(pre[:, 2 * h:3 * h])
        a = dc.tanh_(pre[:, 3 * h:])
        c = i * a + g * c_prev
        return o * dc.tanh_(c), c

    def modulate(self, dual_state: Tensor) -> Tensor:
        """Signal this cell injects into its own gates next step."""
        return dc.relu(dc.matmul(dual_state, self.v) + self.vb)


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
        z = lambda dim: Tensor(np.zeros((batch, dim), dtype=dtype))
        n, h = len(self.inputs), self.hidden
        return State(f=tuple(z(h) for _ in range(n)), c=tuple(z(h) for _ in range(n)),
                     j=tuple(z(4 * h) for _ in range(n)) if self.cross_gated else None,
                     relation=z(h), c_rel=z(h))

    def step(self, state: State, xs: tuple[Tensor, ...]) -> State:
        """Advance every cell on its input in ``xs``, then the relation branch.

        All cells update from the step-(n-1) state before any new modulated
        signal is computed, so the result does not depend on cell order.
        """
        cells = [getattr(self, f"block_{name}") for name in self.inputs]
        js = state.j if self.cross_gated else (None,) * len(cells)
        f, c = zip(*(cell.step(*args) for cell, *args in zip(cells, xs, state.f, state.c, js)))
        j = (cells[0].modulate(f[1]), cells[1].modulate(f[0])) if self.cross_gated else None
        if not self.has_relation:
            return State(f=f, c=c, j=j)
        r = dc.tanh_(f[0] + f[1])
        relation, c_rel = self.relation_cell.step(r, state.relation, state.c_rel)
        return State(f=f, c=c, j=j, r=r, relation=relation, c_rel=c_rel)

    def run_sequence(self, ego_seq: Tensor | None, exo_seq: Tensor | None,
                     rng: np.random.Generator | None = None):
        """Classify a (B, S, P) pair of projected sequences; the sequence of
        a stream the variant does not read may be None.

        Returns (final read-out state, class probabilities (B, K)).
        ``rng`` enables dropout (training); None disables it (evaluation).
        """
        seqs = [s for s in (ego_seq, exo_seq) if s is not None]
        if seqs[0].ndim != 3 or any(s.shape != seqs[0].shape for s in seqs):
            raise ShapeError(f"run_sequence: bad sequence shapes {[s.shape for s in seqs]}")
        batch, steps = seqs[0].shape[:2]
        if steps < 1:
            raise ShapeError("run_sequence: empty sequence")
        state = self.initial_state(batch, seqs[0].dtype.type)
        for n in range(steps):
            state = self.step(state, tuple(_step_input(name, ego_seq, exo_seq, n)
                                           for name in self.inputs))
        if self.has_relation:
            readout = state.relation
        else:
            readout = state.f[0] if len(state.f) == 1 else dc.concat(list(state.f), axis=1)

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
