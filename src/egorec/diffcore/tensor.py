"""Dense tensors with a recorded forward pass and reverse-mode gradients.

A ``Tape`` collects one op node per primitive call while it is active;
``backward`` pops the nodes off in reverse, so each node's output, closure
and gradient are freed once it is replayed, and accumulates gradients into
``Tensor.grad`` of the leaves only (tensors no node produced: parameters
and inputs). Without an active tape every op is a plain numpy forward pass,
which is what evaluation and finite-difference probing use. What a node
keeps is what its backward reads: conv ops fuse a following ReLU (one
array on the tape, not two), conv2d also a following average pool (the
pooled output and a boolean ReLU mask, not the full-resolution output),
each per-pixel loss (binary cross entropy, summed absolute difference,
total variation) is one node with a per-item or scalar output, the
reconstruction warp is one node that keeps its transform, field and mask
and reads the frames in place by row index, an LSTM step is one node that
keeps its gate activations and the tanh of its cell state, and ops whose
backward needs cheap derived buffers (clamp masks, signs, differences, the
warp's displaced points, coordinates and taps) recompute them from the
inputs.
``backward`` hands each node's gradient to its closure without keeping a
reference of its own, so a closure that drops the gradient once read frees
it there.

Training runs in float32 from the loss back to the parameters;
verification (gradient checking) runs in float64 by constructing the
inputs as float64 arrays. An op's output has the dtype numpy promotion
gives its tensor inputs, with one rule on top: a Python or numpy scalar
operand of add/mul/div takes the dtype of its tensor partner. Without
it, NEP 50 (numpy 2) treats the scalar as a float64 array that promotes a
float32 partner to float64. ``backward`` raises ``TapeError`` naming the op
when a gradient's dtype differs from its input's, so float64 cannot leak
into a float32 graph unnoticed.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class NonFiniteError(FloatingPointError):
    """Raised in debug mode when an op produces NaN or Inf."""


class TapeError(RuntimeError):
    """Raised on tape misuse (double backward, non-scalar loss, ...)."""


_FLOAT_KINDS = (np.float32, np.float64)

_debug_nan = False


def set_debug_nan(flag: bool) -> None:
    """Enable NaN/Inf detection on every op output (slow; for debugging)."""
    global _debug_nan
    _debug_nan = bool(flag)


def debug_nan_enabled() -> bool:
    return _debug_nan


class Tensor:
    """A dense float array, optionally tracked for gradients.

    ``data`` is always a float32 or float64 numpy array. ``grad`` is filled
    by ``backward`` on leaves only (tensors no op produced under the tape)
    and has the same shape and dtype as ``data``; it accumulates across
    backward calls until ``Module.zero_grad``. An op output's ``grad``
    stays None.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.type not in _FLOAT_KINDS:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def astype(self, dtype) -> None:
        """Convert in place; used to move a model into verification mode."""
        self.data = self.data.astype(dtype)
        if self.grad is not None:
            self.grad = self.grad.astype(dtype)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # Arithmetic sugar; implementations live in ops.py and are attached there
    # to avoid a circular import.


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of op nodes from one forward pass.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction and ``backward`` visits each node exactly once
    in reverse. ``backward`` pops the nodes off ``nodes`` as it replays
    them (the list object stays the same), so a consumed tape is empty;
    it can be consumed only once.
    """

    __slots__ = ("nodes", "consumed")

    def __init__(self):
        self.nodes: list[tuple] = []  # (out, inputs, backward_fn, op_name)
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self.nodes)


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def backward(tape: Tape, loss: Tensor, params=None) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every tracked leaf.

    ``loss`` must be a scalar recorded on ``tape``. Leaves are the tensors
    no node produced (parameters and inputs); op outputs get no ``.grad``.
    The tape is emptied in place as nodes are replayed, which frees each
    node's output, saved buffers and gradient once it is done. ``params``
    tensors that the loss does not depend on get an exact-zero gradient.
    """
    if tape.consumed:
        raise TapeError("backward called twice on a consumed record")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    hold = {id(loss): loss}

    nodes = tape.nodes
    while nodes:
        out, inputs, bwd, op_name = nodes.pop()
        key = id(out)
        hold.pop(key, None)
        if key not in grads:
            continue
        # hand the gradient over without keeping a reference, so a closure
        # that drops it once read frees it there
        for inp, gi in zip(inputs, bwd(grads.pop(key))):
            if gi is None or not inp.requires_grad:
                continue
            if gi.shape != inp.data.shape:
                raise ShapeError(
                    f"{op_name}: gradient shape {gi.shape} does not match "
                    f"input shape {inp.data.shape}"
                )
            if gi.dtype != inp.data.dtype:
                raise TapeError(
                    f"{op_name}: gradient dtype {gi.dtype} does not match "
                    f"input dtype {inp.data.dtype}"
                )
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
                hold[key] = inp
        gi = None  # nor does the loop keep the last gradient it routed

    # Whatever is left belongs to leaf tensors (parameters, inputs).
    for key, g in grads.items():
        _accumulate(hold[key], g)

    for p in params or ():
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy() if g.base is not None else g
    else:
        t.grad = t.grad + g


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    if arr.dtype.type not in _FLOAT_KINDS:
        arr = arr.astype(np.float32)
    return Tensor(arr)
