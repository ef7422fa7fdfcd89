"""Parameterized layers on top of the autodiff tensor engine.

Modules track their parameters (trainable tensors) and buffers (persistent
numpy arrays such as batch-norm running moments) in insertion order, which
keeps checkpoint files and optimizer traversal deterministic.

In eval mode a convolution or transposed convolution followed by batch norm
runs as one convolution whose weight and bias absorb the normalization.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import UsageError
from .tensor import Tensor


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


class Module:
    """Base class with parameter/buffer/child registries."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant, depth first."""
        yield self
        for child in self._children.values():
            yield from child.modules()

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


@contextmanager
def float32_working_copies(model: Module):
    """Compute in float32 on every parameter's float32 cast; on exit, also
    after an error, every parameter gets back the data and the gradient it
    had on entry. A float32 parameter is its own cast, so what was written
    into it in the scope stays."""
    params = model.parameters()
    saved = [(p.data, p.grad) for p in params]
    try:
        for p in params:
            p.data = p.data.astype(np.float32, copy=False)
        with T.compute_dtype(np.float32):
            yield
    finally:
        for p, (data, grad) in zip(params, saved):
            p.data, p.grad = data, grad


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        self._children[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]


class Linear(Module):
    """Affine map ``x @ weight + bias`` with weight shape (in, out)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.weight = Tensor(
            xavier_uniform(rng, (in_features, out_features), in_features, out_features),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = T.matmul(x, self.weight)
        if self.bias is not None:
            out = T.add(out, self.bias)
        return out


class Conv2d(Module):
    """Stride-1 convolution with an odd k x k kernel; the map keeps its size.
    The input may be a list of maps, read as their channel concatenation."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        k = kernel_size
        self.weight = Tensor(
            he_normal(rng, (out_channels, in_channels, k, k), in_channels * k * k),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor | list[Tensor]) -> Tensor:
        return T.conv2d(x, self.weight, self.bias)


class Deconv2d(Module):
    """Bias-free transposed convolution that maps h x w to exactly
    stride * h x w; weight shape (in, out, 2 * stride, 2 * stride)."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        k = 2 * stride
        self.weight = Tensor(
            he_normal(rng, (in_channels, out_channels, k, k), in_channels * k * k),
            requires_grad=True,
        )

    def forward(self, x: Tensor) -> Tensor:
        return T.deconv2d(x, self.weight)


class BatchNorm2d(Module):
    """Batch normalization followed by a ReLU, one ``T.batch_norm`` record
    in training; in eval mode the normalization is ``fold``'s per-channel
    affine map, which the owning unit folds into its convolution."""

    eps = 1e-5

    def __init__(self, channels: int):
        super().__init__()
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x: Tensor) -> Tensor:
        if not self.training:
            raise UsageError("BatchNorm2d runs only in training; in eval mode "
                             "fold() its normalization into the convolution")
        return T.batch_norm(x, self.gain, self.bias, self.running_mean,
                            self.running_var, eps=self.eps)

    def fold(self) -> tuple[Tensor, Tensor]:
        """Eval-mode normalization as a per-channel ``scale * x + shift``,
        built from tensor ops, so gradients reach the gain and the bias."""
        scale = T.div(self.gain, np.sqrt(self.running_var + self.eps))
        return scale, T.sub(self.bias, T.mul(scale, self.running_mean))


class LayerNorm(Module):
    def __init__(self, features: int):
        super().__init__()
        self.gain = Tensor(np.ones(features), requires_grad=True)
        self.bias = Tensor(np.zeros(features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


def _bn_relu_after(op, scale_shape, layer: Module, bn: BatchNorm2d, x) -> Tensor:
    """``bn(layer(x))`` in training; in eval mode a ReLU of one ``op`` whose
    kernel is ``layer``'s times the fold's scale, shaped ``scale_shape`` to
    its output-channel axis, and whose bias is the fold's shift."""
    if bn.training:
        return bn(layer(x))
    scale, shift = bn.fold()
    w = T.mul(layer.weight, T.reshape(scale, scale_shape))
    return T.relu(op(x, w, shift))


class ConvBNReLU(Module):
    """Conv -> BatchNorm -> ReLU, the decoder's standard smoothing unit; in
    eval mode one convolution with the normalization folded into it."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, kernel_size, rng, bias=False)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor | list[Tensor]) -> Tensor:
        return _bn_relu_after(T.conv2d, (-1, 1, 1, 1), self.conv, self.bn, x)


class DeconvBNReLU(Module):
    """Transposed conv -> BatchNorm -> ReLU; in eval mode one transposed
    convolution with the normalization folded into it."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.deconv = Deconv2d(in_channels, out_channels, stride, rng)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return _bn_relu_after(T.deconv2d, (1, -1, 1, 1), self.deconv, self.bn, x)
