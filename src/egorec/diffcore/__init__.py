"""Minimal dense-tensor engine: recorded forward passes and reverse-mode
gradients. The finite-difference gradient check lives with the tests
(``tests/gradcheck.py``)."""

from .tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    active_tape,
    as_tensor,
    backward,
    set_debug_nan,
)
from .ops import (
    abs_diff_sum,
    add,
    binary_cross_entropy,
    clip,
    concat,
    conv2d,
    conv_transpose2d,
    correlate,
    div,
    grid_sample,
    log,
    lstm_cell,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    sigmoid,
    slice_,
    softmax,
    sum_,
    tanh_,
    total_variation,
)

__all__ = [
    "Tensor", "Tape", "backward", "active_tape", "as_tensor",
    "ShapeError", "NonFiniteError", "TapeError", "set_debug_nan",
    "add", "mul", "div", "matmul",
    "reshape", "concat", "slice_", "sum_", "mean",
    "sigmoid", "tanh_", "relu", "log", "clip", "softmax", "lstm_cell",
    "binary_cross_entropy", "abs_diff_sum", "total_variation",
    "conv2d", "conv_transpose2d", "grid_sample", "correlate",
]
