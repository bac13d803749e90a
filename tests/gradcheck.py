"""Finite-difference verification of recorded gradients.

Runs in float64: the inputs are converted in place before probing, so the
truncation error of the central difference stays far below the tolerance
and any remaining disagreement is a real gradient bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from egorec.diffcore import Tape, backward


@dataclass
class GradCheckReport:
    passed: bool
    eps: float
    tol: float
    max_rel_err: float
    per_input: dict = field(default_factory=dict)  # name -> max relative error
    checked: int = 0
    skipped: int = 0

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"grad_check {status}: max rel err {self.max_rel_err:.3e} "
            f"(tol {self.tol:.1e}, eps {self.eps:.1e}, "
            f"{self.checked} coords, {self.skipped} kink-skipped)"
        )


def grad_check(fn, inputs, eps: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """Compare recorded gradients of a scalar function against central differences.

    ``fn`` is called as ``fn(*inputs)`` and must return a scalar Tensor that
    depends only on ``inputs`` (plus constants). Inputs are converted to
    float64 in place. Coordinates with ``|x| < 10*eps`` are excluded: they sit
    too close to a relu/abs kink for a central difference to be meaningful.
    Failures are reported, never raised.
    """
    for t in inputs:
        t.astype(np.float64)
        t.requires_grad = True
        t.grad = None

    with Tape() as tape:
        loss = fn(*inputs)
    backward(tape, loss, params=inputs)
    analytic = [t.grad.copy() for t in inputs]

    worst = 0.0
    per_input: dict = {}
    checked = 0
    skipped = 0
    for idx, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        a_flat = analytic[idx].reshape(-1)
        inp_worst = 0.0
        for i in range(flat.size):
            if abs(flat[i]) < 10.0 * eps:
                skipped += 1
                continue
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn(*inputs).item()
            flat[i] = orig - eps
            f_minus = fn(*inputs).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            rel = abs(a_flat[i] - numeric) / denom
            inp_worst = max(inp_worst, rel)
            checked += 1
        per_input[f"input{idx}"] = inp_worst
        worst = max(worst, inp_worst)

    return GradCheckReport(
        passed=worst < tol,
        eps=eps,
        tol=tol,
        max_rel_err=worst,
        per_input=per_input,
        checked=checked,
        skipped=skipped,
    )
