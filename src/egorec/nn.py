"""Parameter containers and the small layer set the model is built from."""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype=np.float32,
                 gain: float = 1.0) -> np.ndarray:
    bound = gain / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# keeps activation variance roughly constant through relu conv stacks
RELU_GAIN = float(np.sqrt(6.0))


class Module:
    """Base for anything holding parameters.

    Parameters are discovered by walking attributes in definition order:
    a Tensor is a parameter (whether or not it currently requires grad), a
    Module recurses, and lists/tuples of Modules recurse with an index in
    the name. Names are stable across runs, which the checkpoint format
    relies on.
    """

    def named_parameters(self, prefix: str = ""):
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def astype(self, dtype) -> None:
        for _, p in self.named_parameters():
            p.astype(dtype)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the parameters of the same name. A missing or
        unexpected entry raises ``KeyError``, a wrong shape ``ShapeError``."""
        own = dict(self.named_parameters())
        missing = set(own) - set(arrays)
        if missing:
            raise KeyError(f"missing parameters in state: {sorted(missing)}")
        extra = set(arrays) - set(own)
        if extra:
            raise KeyError(f"unexpected entries in state: {sorted(extra)}")
        for name, p in own.items():
            arr = arrays[name]
            if arr.shape != p.data.shape:
                raise dc.ShapeError(
                    f"parameter {name}: stored shape {arr.shape} != model shape {p.data.shape}"
                )
            p.data = arr.astype(p.data.dtype)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, zero_init: bool = False):
        if zero_init:
            self.w = Tensor(np.zeros((d_in, d_out), np.float32), requires_grad=True)
            self.b = Tensor(np.zeros(d_out, np.float32), requires_grad=True)
        else:
            self.w = Tensor(uniform_init(rng, (d_in, d_out), d_in), requires_grad=True)
            self.b = Tensor(uniform_init(rng, (d_out,), d_in), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return dc.matmul(x, self.w) + self.b


class Conv2d(Module):
    def __init__(self, c_in: int, c_out: int, k: int, rng: np.random.Generator,
                 pad: int = 0, gain: float = RELU_GAIN):
        self.pad = pad
        fan_in = k * k * c_in
        self.w = Tensor(uniform_init(rng, (k, k, c_in, c_out), fan_in, gain=gain),
                        requires_grad=True)
        self.b = Tensor(uniform_init(rng, (c_out,), fan_in), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False, pool: int = 1) -> Tensor:
        return dc.conv2d(x, self.w, self.b, pad=self.pad, relu=relu, pool=pool)


class ConvTranspose2d(Module):
    def __init__(self, c_in: int, c_out: int, k: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0, zero_init: bool = False):
        self.stride = stride
        self.pad = pad
        # each output position receives ~(k/stride)^2 taps
        fan_in = max(1, (k // stride) ** 2 * c_in)
        if zero_init:
            self.w = Tensor(np.zeros((k, k, c_in, c_out), np.float32), requires_grad=True)
            self.b = Tensor(np.zeros(c_out, np.float32), requires_grad=True)
        else:
            self.w = Tensor(uniform_init(rng, (k, k, c_in, c_out), fan_in, gain=RELU_GAIN),
                            requires_grad=True)
            self.b = Tensor(uniform_init(rng, (c_out,), fan_in), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return dc.conv_transpose2d(x, self.w, self.b, stride=self.stride, pad=self.pad,
                                   relu=relu)


def dropout(x: Tensor, ratio: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when ``rng`` is None (evaluation) or ratio 0."""
    if rng is None or ratio <= 0.0:
        return x
    keep = (rng.random(x.shape) >= ratio).astype(x.data.dtype) / (1.0 - ratio)
    return dc.mul(x, Tensor(keep))
