"""Dense floating-point tensors with reverse-mode automatic differentiation.

Values live in numpy arrays; differentiation is handled by a dynamic tape.
The engine computes in one floating dtype, float64 unless a
:func:`compute_dtype` scope selects another: tensors, constants, gradients
and every temporary follow it, so no op upcasts a float32 operand behind
the caller's back. Training runs in float32; inference, evaluation and the
gradient checks run in float64.
Every primitive appends one record (output, inputs, adjoint function) to the
active tape during the forward pass, and ``backward`` replays the records in
reverse to populate ``.grad`` on every tracked tensor. The graph is rebuilt
on each forward pass, so one :func:`fresh_tape` context per training
iteration keeps memory bounded.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf as _erf

from .errors import ConfigError, NumericError, ShapeError, UsageError

__all__ = [
    "Tensor", "Tape", "active_tape", "fresh_tape", "no_grad", "backward",
    "compute_dtype", "current_dtype",
    "add", "sub", "mul", "div", "matmul", "concat", "reshape", "transpose",
    "crop2d", "relu", "sigmoid", "gelu", "exp", "log", "sqrt", "clip",
    "softmax", "tensor_sum", "tensor_mean", "conv2d", "deconv2d",
    "layer_norm", "batch_norm", "bilinear_resize",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense array plus optional gradient buffer; the data is converted
    to the compute dtype in force when the tensor is made."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_state.dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; the free functions do the real work
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


class _Record:
    __slots__ = ("out", "inputs", "adjoint")

    def __init__(self, out, inputs, adjoint):
        self.out = out
        self.inputs = inputs
        self.adjoint = adjoint


class Tape:
    """Append-only record of primitive ops within one forward pass."""

    def __init__(self):
        self.records: list[_Record] = []

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()

    def backward(self, loss: Tensor) -> None:
        """Replay adjoints in reverse, accumulating into ``.grad`` buffers."""
        if loss.data.size != 1:
            raise UsageError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        flows: dict[int, list] = {}

        def _add(t: Tensor, g: np.ndarray) -> None:
            entry = flows.get(id(t))
            if entry is None:
                flows[id(t)] = [t, np.array(g, dtype=_state.dtype)]
            else:
                entry[1] = entry[1] + g

        _add(loss, np.ones_like(loss.data))
        for rec in reversed(self.records):
            entry = flows.pop(id(rec.out), None)
            if entry is None:
                continue
            t, g = entry
            t.grad = g if t.grad is None else t.grad + g
            for inp, gi in zip(rec.inputs, rec.adjoint(g)):
                if gi is not None and inp.requires_grad:
                    _add(inp, gi)
        for t, g in flows.values():  # leaves
            t.grad = g if t.grad is None else t.grad + g


class _State:
    __slots__ = ("tape", "enabled", "dtype")


_state = _State()
_state.tape = Tape()
_state.enabled = True
_state.dtype = np.dtype(np.float64)


def active_tape() -> Tape:
    return _state.tape


@contextmanager
def fresh_tape():
    """Run a forward/backward pass on its own tape (memory hygiene)."""
    prev = _state.tape
    _state.tape = Tape()
    try:
        yield _state.tape
    finally:
        _state.tape = prev


@contextmanager
def no_grad():
    prev = _state.enabled
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = prev


@contextmanager
def compute_dtype(dtype):
    """Compute in ``dtype`` (float32 or float64) inside the block; also
    usable as a function decorator."""
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ConfigError(f"compute dtype must be float32 or float64, got {dtype}")
    prev = _state.dtype
    _state.dtype = dtype
    try:
        yield
    finally:
        _state.dtype = prev


def current_dtype() -> np.dtype:
    """The dtype tensors, gradients and temporaries are made in."""
    return _state.dtype


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the active tape links to ``loss``."""
    _state.tape.backward(loss)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _apply(out_data, inputs, adjoint) -> Tensor:
    out = Tensor(out_data)
    if _state.enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _state.tape.records.append(_Record(out, tuple(inputs), adjoint))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an upstream gradient back down to a broadcast operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    return _apply(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    return _apply(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    return _apply(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                          _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data
    return _apply(out, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.data.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
    ))


def exp(x) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)
    return _apply(out, (x,), lambda g: (g * out,))


def log(x) -> Tensor:
    x = _as_tensor(x)
    return _apply(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    out = np.sqrt(x.data)
    return _apply(out, (x,), lambda g: (g * 0.5 / out,))


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)
    return _apply(out, (x,), lambda g: (g * (x.data > 0.0),))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    out = np.empty_like(x.data)
    pos = x.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _apply(out, (x,), lambda g: (g * out * (1.0 - out),))


def gelu(x) -> Tensor:
    """Exact Gaussian-error-function GELU."""
    x = _as_tensor(x)
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out = x.data * cdf

    def adjoint(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (cdf + x.data * pdf),)

    return _apply(out, (x,), adjoint)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the interior."""
    x = _as_tensor(x)
    out = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)
    return _apply(out, (x,), lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# reductions and shape ops


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def adjoint(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _apply(out, (x,), adjoint)


def tensor_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        n = x.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([x.data.shape[a] for a in axes]))
    return mul(tensor_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)
    return _apply(out, (x,), lambda g: (g.reshape(x.data.shape),))


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _apply(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def adjoint(g):
        return tuple(np.split(g, splits, axis=axis))

    return _apply(out, tuple(tensors), adjoint)


def crop2d(x, top: int, left: int, height: int, width: int) -> Tensor:
    """Slice an NCHW tensor spatially; the adjoint zero-pads back."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"crop2d expects NCHW input, got shape {x.data.shape}")
    out = x.data[:, :, top:top + height, left:left + width].copy()
    if out.shape[2] != height or out.shape[3] != width:
        raise ShapeError(
            f"crop ({top},{left})+({height},{width}) exceeds input {x.data.shape}"
        )

    def adjoint(g):
        gx = np.zeros_like(x.data)
        gx[:, :, top:top + height, left:left + width] = g
        return (gx,)

    return _apply(out, (x,), adjoint)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner extents do not match: {a.data.shape} x {b.data.shape}"
        )
    out = a.data @ b.data

    def adjoint(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return (_unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape))

    return _apply(out, (a, b), adjoint)


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    x = _as_tensor(x)
    if np.isnan(x.data).any():
        raise NumericError("softmax received NaN input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def adjoint(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _apply(out, (x,), adjoint)


# ---------------------------------------------------------------------------
# convolution family (NCHW, cross-correlation convention)


def _pair(v) -> tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int):
    b, c, hp, wp = xp.shape
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(b, c, ho, wo, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, c * kh * kw)
    return cols, ho, wo


def _deconv_raw(y: np.ndarray, w: np.ndarray, sh: int, sw: int,
                ph: int = 0, pw: int = 0) -> np.ndarray:
    """Adjoint of strided cross-correlation: scatter y through w, keeping
    the full map minus ph rows and pw columns on each side.

    The kernel is zero-padded to (qh*sh, qw*sw), so tap (a*sh + r, c*sw + t)
    of input pixel (n, m) lands at full-map row (n + a)*sh + r. Each tap
    block (a, c) is one matmul, laid out by one transposing copy as an
    (h*sh, w*sw) image and added in one go to the part of the kept map it
    covers; a block that reaches no kept pixel and the dropped border are
    never computed, and only one block's product is alive at a time. Every
    output pixel still sums its terms in (i, j) order and the padded taps add
    exact zeros, so the result equals the per-tap scatter, sliced, bit for
    bit.
    """
    b, co, h, wdt = y.shape
    _, ci, kh, kw = w.shape
    ho, wo = (h - 1) * sh + kh - 2 * ph, (wdt - 1) * sw + kw - 2 * pw
    qh, qw = -(-kh // sh), -(-kw // sw)
    if (qh * sh, qw * sw) != (kh, kw):
        w = np.pad(w, ((0, 0), (0, 0), (0, qh * sh - kh), (0, qw * sw - kw)))
    rows = y.transpose(0, 2, 3, 1).reshape(b * h * wdt, co)
    out = np.zeros((b, ci, ho, wo), dtype=_state.dtype)
    for a in range(qh):
        # full-map rows [r0, r1) of block a's image that the kept map holds
        r0, r1 = max(a * sh, ph), min((a + h) * sh, ph + ho)
        for c in range(qw):
            c0, c1 = max(c * sw, pw), min((c + wdt) * sw, pw + wo)
            if r0 < r1 and c0 < c1:
                tap = w[:, :, a * sh:(a + 1) * sh, c * sw:(c + 1) * sw]
                block = ((rows @ tap.reshape(co, -1))
                         .reshape(b, h, wdt, ci, sh, sw)
                         .transpose(0, 3, 1, 4, 2, 5)
                         .reshape(b, ci, h * sh, wdt * sw))
                out[:, :, r0 - ph:r1 - ph, c0 - pw:c1 - pw] += \
                    block[:, :, r0 - a * sh:r1 - a * sh, c0 - c * sw:c1 - c * sw]
    return out


# A stride-1 conv is k*k shifted matmuls of one NHWC copy of its padded
# input: row r + i*wp + j of that copy is tap (i, j) of output row r, so each
# tap is a contiguous slice. Its temporaries are that copy (N x c_in) and the
# accumulator (N x c_out), where im2col copies an N x c_in*k*k matrix. When
# c_in < c_out the k*k passes over the accumulator cost more than the im2col
# copy saves, so those convs, and strided ones, keep im2col.
def _per_tap(c_in: int, c_out: int, sh: int, sw: int) -> bool:
    return sh == 1 and sw == 1 and c_in >= c_out


def _tap_rows(xp: np.ndarray, kh: int, kw: int):
    """NHWC rows of a padded input, the rows every tap can shift over, and
    each tap's (i, j, row offset)."""
    b, c, hp, wp = xp.shape
    rows = xp.transpose(0, 2, 3, 1).reshape(b * hp * wp, c)
    m = rows.shape[0] - (kh - 1) * wp - (kw - 1)
    return rows, m, [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]


def _conv_forward(x: np.ndarray, w: np.ndarray, sh: int, sw: int,
                  ph: int, pw: int):
    b, c, h, wdt = x.shape
    co, ci, kh, kw = w.shape
    if ci != c:
        raise ShapeError(f"conv2d channels mismatch: input {c}, kernel {ci}")
    if h + 2 * ph < kh or wdt + 2 * pw < kw:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input "
            f"{h + 2 * ph}x{wdt + 2 * pw}"
        )
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    if not _per_tap(c, co, sh, sw):
        cols, ho, wo = _im2col(xp, kh, kw, sh, sw)
        out = cols @ w.reshape(co, -1).T
        return out.reshape(b, ho, wo, co).transpose(0, 3, 1, 2), xp.shape
    _, _, hp, wp = xp.shape
    rows, m, taps = _tap_rows(xp, kh, kw)
    wt = w.transpose(2, 3, 1, 0).copy()
    acc = np.zeros((rows.shape[0], co), dtype=_state.dtype)
    for i, j, o in taps:
        acc[:m] += rows[o:o + m] @ wt[i, j]
    out = acc.reshape(b, hp, wp, co)[:, :hp - kh + 1, :wp - kw + 1]
    return out.transpose(0, 3, 1, 2), xp.shape


def _conv_weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int,
                      sh: int, sw: int) -> np.ndarray:
    """Gradient of a conv's OIHW kernel, given its padded input and the
    gradient of its output."""
    b, c, hp, wp = xp.shape
    _, co, ho, wo = g.shape
    if not _per_tap(c, co, sh, sw):
        cols, _, _ = _im2col(xp, kh, kw, sh, sw)
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, co)
        return (cols.T @ gmat).T.reshape(co, c, kh, kw)
    rows, m, taps = _tap_rows(xp, kh, kw)
    gfull = np.zeros((b, hp, wp, co), dtype=_state.dtype)
    gfull[:, :ho, :wo] = g.transpose(0, 2, 3, 1)
    gm = gfull.reshape(-1, co)[:m]
    gw = np.empty((co, c, kh, kw), dtype=_state.dtype)
    for i, j, o in taps:
        gw[:, :, i, j] = gm.T @ rows[o:o + m]
    return gw


def _check_bias(op: str, bias, channels: int):
    if bias is None:
        return None
    b = _as_tensor(bias)
    if b.data.shape != (channels,):
        raise ShapeError(
            f"{op} bias shape {b.data.shape} does not match {channels} "
            f"output channels"
        )
    return b


def _check_4d(op: str, x: Tensor, w: Tensor) -> None:
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(
            f"{op} needs a 4-D input and kernel, got {x.data.shape} x "
            f"{w.data.shape}"
        )


def conv2d(x, w, bias=None, stride=1, padding=0) -> Tensor:
    """Strided 2D cross-correlation of an NCHW tensor with an OIHW kernel."""
    x, w = _as_tensor(x), _as_tensor(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if sh < 1 or sw < 1:
        raise ConfigError(f"conv2d stride must be positive, got {stride}")
    if ph < 0 or pw < 0:
        raise ConfigError(f"conv2d padding must be non-negative, got {padding}")
    _check_4d("conv2d", x, w)
    co, ci, kh, kw = w.data.shape
    b = _check_bias("conv2d", bias, co)
    out, padded_shape = _conv_forward(x.data, w.data, sh, sw, ph, pw)
    if b is not None:
        out = out + b.data[None, :, None, None]

    def adjoint(g):
        gw = None
        gx = None
        if w.requires_grad:
            xp = (np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
                  if (ph or pw) else x.data)
            gw = _conv_weight_grad(xp, g, kh, kw, sh, sw)
        if x.requires_grad:
            if sh == 1 and sw == 1:
                # full correlation with the flipped kernel hits BLAS directly
                wf = np.ascontiguousarray(
                    w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
                gp, _ = _conv_forward(g, wf, 1, 1, kh - 1, kw - 1)
            else:
                raw = _deconv_raw(g, w.data, sh, sw)
                gp = np.zeros(padded_shape, dtype=_state.dtype)
                gp[:, :, :raw.shape[2], :raw.shape[3]] = raw
            gx = gp[:, :, ph:ph + x.data.shape[2], pw:pw + x.data.shape[3]]
        if b is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)))

    inputs = (x, w) if b is None else (x, w, b)
    return _apply(out, inputs, adjoint)


def deconv2d(x, w, bias=None, stride=1, padding=0) -> Tensor:
    """Transposed convolution; exact adjoint of :func:`conv2d` with the same
    stride and padding.

    The kernel is indexed (C_in, C_out, kh, kw), so ``deconv2d(y, w)`` with a
    conv kernel ``w`` of shape (C_out, C_in, kh, kw) computes the gradient of
    ``conv2d(x, w)`` with respect to ``x``. ``padding`` drops rows and
    columns on each side: kernel 2s, stride s, padding s/2 give s*h x s*w.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if sh < 1 or sw < 1:
        raise ConfigError(f"deconv2d stride must be positive, got {stride}")
    if ph < 0 or pw < 0:
        raise ConfigError(f"deconv2d padding must be non-negative, got {padding}")
    _check_4d("deconv2d", x, w)
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(
            f"deconv2d shapes incompatible: {x.data.shape} x {w.data.shape}"
        )
    bsz, ci, h, wdt = x.data.shape
    _, co, kh, kw = w.data.shape
    if (h - 1) * sh + kh <= 2 * ph or (wdt - 1) * sw + kw <= 2 * pw:
        raise ShapeError(
            f"deconv2d padding {padding} leaves no output pixel of the "
            f"{(h - 1) * sh + kh}x{(wdt - 1) * sw + kw} map"
        )
    b = _check_bias("deconv2d", bias, co)
    out = _deconv_raw(x.data, w.data, sh, sw, ph, pw)
    if b is not None:
        out = out + b.data[None, :, None, None]

    def adjoint(g):
        # one im2col of g, zero-padded back to the full map, serves both the
        # x-adjoint (conv2d of g with this stride and padding) and w-adjoint
        gp = g
        if ph or pw:
            gp = np.zeros((bsz, co, g.shape[2] + 2 * ph, g.shape[3] + 2 * pw),
                          dtype=_state.dtype)
            gp[:, :, ph:ph + g.shape[2], pw:pw + g.shape[3]] = g
        cols, _, _ = _im2col(gp, kh, kw, sh, sw)
        gx = gw = None
        if x.requires_grad:
            gx = (cols @ w.data.reshape(ci, -1).T).reshape(bsz, h, wdt, ci)
            gx = gx.transpose(0, 3, 1, 2)
        if w.requires_grad:
            xm = x.data.transpose(1, 0, 2, 3).reshape(ci, -1)
            gw = (xm @ cols).reshape(ci, co, kh, kw)
        if b is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)))

    inputs = (x, w) if b is None else (x, w, b)
    return _apply(out, inputs, adjoint)


# ---------------------------------------------------------------------------
# normalization


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    c = x.data.shape[-1]
    if c < 2:
        raise ShapeError(f"layer_norm needs at least 2 features, got {c}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = y * gain.data + bias.data

    def adjoint(g):
        dy = g * gain.data
        dx = (dy - dy.mean(axis=-1, keepdims=True)
              - y * (dy * y).mean(axis=-1, keepdims=True)) * inv
        lead = tuple(range(x.data.ndim - 1))
        return (dx, (g * y).sum(axis=lead), g.sum(axis=lead))

    return _apply(out, (x, gain, bias), adjoint)


def batch_norm(x, gain, bias, running_mean, running_var, training: bool,
               momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over (B, H, W) of an NCHW tensor.

    In training mode normalizes by batch statistics and updates the running
    moment arrays in place; in eval mode uses the running moments.
    """
    x = _as_tensor(x)
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got {x.data.shape}")
    b, c, h, wdt = x.data.shape
    n = b * h * wdt

    if training:
        if n < 2:
            raise ShapeError("batch_norm training mode needs >= 2 values per channel")
        mu = x.data.mean(axis=(0, 2, 3))
        xc = x.data - mu[None, :, None, None]
        var = (xc * xc).mean(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var * (n / max(n - 1, 1))
        inv = 1.0 / np.sqrt(var + eps)
        y = xc * inv[None, :, None, None]
        out = y * gain.data[None, :, None, None] + bias.data[None, :, None, None]

        def adjoint(g):
            dy = g * gain.data[None, :, None, None]
            mean_dy = dy.mean(axis=(0, 2, 3))
            mean_dyy = (dy * y).mean(axis=(0, 2, 3))
            dx = (dy - mean_dy[None, :, None, None]
                  - y * mean_dyy[None, :, None, None]) * inv[None, :, None, None]
            return (dx, (g * y).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3)))

        return _apply(out, (x, gain, bias), adjoint)

    # the buffers stay float64; a float32 input gets float32 copies of them
    running_mean = running_mean.astype(x.data.dtype, copy=False)
    running_var = running_var.astype(x.data.dtype, copy=False)
    inv = 1.0 / np.sqrt(running_var + eps)
    scale = gain.data * inv
    y = (x.data - running_mean[None, :, None, None]) * inv[None, :, None, None]
    out = y * gain.data[None, :, None, None] + bias.data[None, :, None, None]

    def adjoint(g):
        return (g * scale[None, :, None, None],
                (g * y).sum(axis=(0, 2, 3)),
                g.sum(axis=(0, 2, 3)))

    return _apply(out, (x, gain, bias), adjoint)


# ---------------------------------------------------------------------------
# resampling


def bilinear_resize(x, out_hw: tuple[int, int]) -> Tensor:
    """Bilinear resize of an NCHW tensor (half-pixel centers)."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize expects NCHW input, got {x.data.shape}")
    b, c, h, w = x.data.shape
    ho, wo = out_hw
    ys = (np.arange(ho) + 0.5) * (h / ho) - 0.5
    xs = (np.arange(wo) + 0.5) * (w / wo) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)
    wx = np.clip(xs - x0, 0.0, 1.0)

    wy_ = wy[:, None]
    wx_ = wx[None, :]
    # float64 weights would upcast a float32 input, so they take its dtype
    w00, w01, w10, w11 = (w.astype(x.data.dtype, copy=False) for w in (
        (1 - wy_) * (1 - wx_), (1 - wy_) * wx_, wy_ * (1 - wx_), wy_ * wx_))

    d = x.data
    out = (d[:, :, y0[:, None], x0[None, :]] * w00
           + d[:, :, y0[:, None], x1[None, :]] * w01
           + d[:, :, y1[:, None], x0[None, :]] * w10
           + d[:, :, y1[:, None], x1[None, :]] * w11)

    def adjoint(g):
        gx = np.zeros_like(x.data)
        flat = gx.reshape(b * c, h * w)
        gflat = g.reshape(b * c, ho * wo)
        for yy, xx, ww in ((y0, x0, w00), (y0, x1, w01), (y1, x0, w10), (y1, x1, w11)):
            idx = (yy[:, None] * w + xx[None, :]).ravel()
            np.add.at(flat.T, idx, (gflat * ww.ravel()[None, :]).T)
        return (gx,)

    return _apply(out, (x,), adjoint)
