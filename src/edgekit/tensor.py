"""Dense floating-point tensors with reverse-mode automatic differentiation.

Values live in numpy arrays; differentiation is handled by a dynamic tape.
The engine computes in one floating dtype, float64 unless a
:func:`compute_dtype` scope selects another: tensors, constants, gradients
and every temporary follow it, so no op upcasts a float32 operand behind
the caller's back. Training and inference run in float32 (inference with
eval-mode batch norm folded into the convolution weights); evaluation and
the gradient checks run in float64.
:func:`batch_norm` is the training-mode op only, its adjoint a few
per-channel coefficients of the masked gradient and the centred input.
:func:`conv2d` is the stride-1, size-keeping convolution (odd kernels);
:func:`deconv2d` upsamples by exactly its stride, fixed by its kernel.
Maps are (B, C, H, W) in shape and channels-last in memory: these three
ops return, and their adjoints pass back, the NCHW view of (B, H, W, C)
rows, so every tap product and per-channel sum reads whole pixel rows.
:func:`bce_with_logits` is one head's loss in one record, weighted sigmoid
cross-entropy summed from logits.
Every primitive appends one record (output, inputs, adjoint function) to the
active tape during the forward pass, and ``backward`` replays the records in
reverse to populate ``.grad`` on the leaves: the tracked tensors that no
record of the tape produced (parameters, inputs, tensors from an earlier
tape). Backward consumes the tape: each record is dropped once its adjoint
has run, so the arrays it holds are freed as soon as no earlier record needs
them, and an intermediate's gradient lives only until its record's adjoint
has read it. The graph is rebuilt on each forward pass, so one
:func:`fresh_tape` context per training iteration keeps memory bounded.
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
    "bce_with_logits", "softmax", "tensor_sum", "tensor_mean", "conv2d",
    "deconv2d", "layer_norm", "batch_norm", "bilinear_resize",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
BN_MOMENTUM = 0.1  # weight of each batch's moments in batch_norm's running ones


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

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Record:
    __slots__ = ("out", "inputs", "adjoint")

    def __init__(self, out, inputs, adjoint):
        self.out = out
        self.inputs = inputs
        self.adjoint = adjoint


class Tape:
    """Append-only record of primitive ops within one forward pass; one
    backward consumes it."""

    def __init__(self):
        self.records: list[_Record] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self.records)

    def backward(self, loss: Tensor) -> None:
        """Replay adjoints in reverse and accumulate into ``.grad`` of the
        leaves ``loss`` depends on: tensors no record of this tape produced.

        Each record is popped before its adjoint runs and dropped after it,
        so the tape is empty when backward returns and a record's arrays are
        freed once no earlier record holds them. A second backward on the
        same tape raises ``UsageError``: its records are gone, so it would
        miss every gradient. A record's output gradient is dropped once its
        adjoint has run, so intermediates keep no ``.grad``. Adjoints only
        read the gradient they are given, so it flows on uncopied; a leaf's
        ``.grad`` is its own array, never a view shared with another
        tensor's.
        """
        if loss.data.size != 1:
            raise UsageError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        if self._consumed:
            raise UsageError("backward already ran on this tape; record each "
                             "forward pass on its own fresh_tape()")
        self._consumed = True
        flows: dict[int, list] = {}

        def _add(t: Tensor, g: np.ndarray) -> None:
            entry = flows.get(id(t))
            if entry is None:
                flows[id(t)] = [t, np.asarray(g, dtype=_state.dtype)]
            else:
                entry[1] = entry[1] + g

        def _replay(rec: _Record) -> None:
            # a function, so no local outlives the record it reads
            entry = flows.pop(id(rec.out), None)
            if entry is not None:
                for inp, gi in zip(rec.inputs, rec.adjoint(entry[1])):
                    if gi is not None and inp.requires_grad:
                        _add(inp, gi)

        _add(loss, np.ones_like(loss.data))
        while self.records:
            _replay(self.records.pop())
        for t, g in flows.values():  # leaves
            t.grad = np.array(g) if t.grad is None else t.grad + g


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
    """Populate the gradients of the leaves the active tape links to
    ``loss`` (see :meth:`Tape.backward`)."""
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


def _logistic(x: np.ndarray) -> np.ndarray:
    """σ(x): 1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, so no
    exponent is of a positive number."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    out = _logistic(x.data)
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


def bce_with_logits(z, w_pos, w_neg) -> Tensor:
    """Weighted sigmoid cross-entropy of the logits ``z``, summed to a
    scalar: Σ w_pos·softplus(−z) + w_neg·softplus(z), which is
    −w_pos·log σ(z) − w_neg·log(1 − σ(z)) without forming σ(z). The weights
    are constants of ``z``'s shape. The adjoint is g·(w_neg·σ(z) −
    w_pos·σ(−z)), so a saturated logit keeps its gradient.

    softplus(±z) is max(±z, 0) + log1p(e^-|z|), the formula of
    ``np.logaddexp(0, ±z)``, whose float32 loop is about 7 times slower."""
    z = _as_tensor(z)
    w_pos = np.asarray(w_pos, dtype=_state.dtype)
    w_neg = np.asarray(w_neg, dtype=_state.dtype)
    if w_pos.shape != z.data.shape or w_neg.shape != z.data.shape:
        raise ShapeError(f"weights {w_pos.shape} and {w_neg.shape} vs logits "
                         f"{z.data.shape}")
    tail = np.log1p(np.exp(-np.abs(z.data)))
    out = (w_pos * (np.maximum(-z.data, 0.0) + tail)
           + w_neg * (np.maximum(z.data, 0.0) + tail)).sum()

    def adjoint(g):
        return (g * (w_neg * _logistic(z.data) - w_pos * _logistic(-z.data)),)

    return _apply(out, (z,), adjoint)


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
    """Numerically stable softmax along ``axis`` (max-subtraction), computed
    in one buffer: the shift, the exponent and the division all write it."""
    x = _as_tensor(x)
    top = x.data.max(axis=axis, keepdims=True)
    if np.isnan(top).any():  # max propagates NaN, so this sees every row
        raise NumericError("softmax received NaN input")
    out = x.data - top
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def adjoint(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _apply(out, (x,), adjoint)


# ---------------------------------------------------------------------------
# convolution family (NCHW shapes, channels-last memory, cross-correlation)


def _subpixel_taps(w: np.ndarray, wdt: int):
    """Each tap (a, c) of a (C_in, C_out, 2s, 2s) transposed-convolution
    kernel, its rows [a*s, (a+1)*s) by columns [c*s, (c+1)*s), as a
    (C_in, s*s*C_out) matrix, columns ordered (py, px, c_out), after its
    row offset a*(wdt + 1) + c in the cells of a wdt-wide input."""
    s = w.shape[2] // 2
    for a in range(2):
        for c in range(2):
            tap = w[:, :, a * s:(a + 1) * s, c * s:(c + 1) * s]
            yield (a, c, a * (wdt + 1) + c,
                   tap.transpose(0, 2, 3, 1).reshape(w.shape[0], -1))


def _cell_runs(cells: np.ndarray, image: np.ndarray, s: int):
    """Matching views of the cropped map ``image`` (B, s*h, s*w, C) and of
    the sub-pixel ``cells`` (B, h + 1, w + 1, s*s*C) that hold its pixels,
    so that one assignment per pair copies the map into its cells or the
    cells into the map. Along each axis the s*n kept rows of n + 1 cells of
    s rows, cropped by s/2 at each end, are three runs of (map rows, cells,
    phases): the first cell's lower half, the whole middle cells (an empty
    run when n = 1) and the last cell's upper half."""
    b, h1, w1, _ = cells.shape
    t = s // 2
    runs = [[(slice(0, t), slice(0, 1), slice(t, s)),
             (slice(t, s * n - t), slice(1, n), slice(0, s)),
             (slice(s * n - t, s * n), slice(n, n + 1), slice(0, t))]
            for n in (h1 - 1, w1 - 1)]
    grid = cells.reshape(b, h1, w1, s, s, -1).transpose(0, 1, 3, 2, 4, 5)
    for oy, my, ry in runs[0]:
        for ox, mx, rx in runs[1]:
            part = grid[:, my, ry, mx, rx]
            yield np.reshape(image[:, oy, ox], part.shape, copy=False), part


def _deconv_raw(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Transposed convolution of y by a kernel of side 2s at stride s,
    cropped by s/2 on each side: the s*h x s*w map, as the NCHW view of
    new (B, H, W, C) rows.

    Sub-pixel layout (Shi et al., CVPR 2016): the uncropped (h + 1)*s x
    (w + 1)*s map is a grid of cells of s x s pixels, and cell (m, n) holds
    its pixels as one row of s*s*c_out values. Tap (a, c) carries input
    pixel (m - a, n - c) to cell (m, n). Each of the four taps is one
    matmul of the NHWC input rows by its ``_subpixel_taps`` matrix, added
    into the part of one (b, h + 1, w + 1, s*s*c_out) accumulator it
    reaches, and one depth-to-space copy writes the cropped map. Every
    output pixel sums the same per-tap products as the per-tap scatter, in
    (a, c) order from zero, so the result equals that scatter, cropped, bit
    for bit.
    """
    b, ci, h, wdt = y.shape
    co, s = w.shape[1], w.shape[2] // 2
    rows = y.transpose(0, 2, 3, 1).reshape(b * h * wdt, ci)
    acc = np.zeros((b, h + 1, wdt + 1, s * s * co), dtype=_state.dtype)
    for a, c, _, tap in _subpixel_taps(w, wdt):
        # all b*h*w rows, as the per-tap scatter multiplies them: a product
        # of fewer rows (one row goes to gemv) can round differently
        acc[:, a:a + h, c:c + wdt] += (rows @ tap).reshape(b, h, wdt, -1)
    out = np.empty((b, s * h, s * wdt, co), dtype=_state.dtype)
    for dst, src in _cell_runs(acc, out, s):
        dst[...] = src
    return out.transpose(0, 3, 1, 2)


# A conv is k*k shifted matmuls of one NHWC copy of its padded input: row
# r + i*wp + j of that copy is tap (i, j) of output row r, so each tap is a
# contiguous slice. Its temporaries are that copy (N x c_in) and the
# accumulator (N x c_out). When c_in < c_out the k*k passes over the
# accumulator cost more than one product of the k*k shifted windows of those
# rows side by side (H*W x c_in*k*k), so those convs make that one product.
# In the model only input gradients take that branch: no model conv widens
# the channels, so every weight gradient is per tap.
def _tap_rows(xs: list[np.ndarray], kh: int, kw: int):
    """NHWC rows of the channel concatenation of the NCHW maps ``xs``,
    zero-padded by half the odd kernel; the rows every tap can shift over;
    and each tap's (i, j, row offset).

    Each map is written once, straight into its channels of the padded
    rows, so neither the concatenation nor a padded NCHW copy is made. One
    unpadded map whose NHWC view is contiguous is used in place.
    """
    b, _, h, wdt = xs[0].shape
    ph, pw = kh // 2, kw // 2
    wp = wdt + 2 * pw
    if len(xs) == 1 and not (ph or pw):
        rows = xs[0].transpose(0, 2, 3, 1).reshape(b * h * wdt, -1)
    else:
        buf = np.zeros((b, h + 2 * ph, wp, sum(x.shape[1] for x in xs)),
                       dtype=np.result_type(*xs))
        c0 = 0
        for x in xs:
            c1 = c0 + x.shape[1]
            buf[:, ph:ph + h, pw:pw + wdt, c0:c1] = x.transpose(0, 2, 3, 1)
            c0 = c1
        rows = buf.reshape(-1, c0)
    m = rows.shape[0] - (kh - 1) * wp - (kw - 1)
    return rows, m, [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]


def _conv_forward(xs: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation of the channel concatenation of the NCHW
    maps xs, padded by half the odd kernel w, at the maps' size: the NCHW
    view of (B, H, W, C) rows."""
    b, _, h, wdt = xs[0].shape
    c = sum(x.shape[1] for x in xs)
    co, ci, kh, kw = w.shape
    if ci != c:
        raise ShapeError(f"conv2d channels mismatch: input {c}, kernel {ci}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d kernel sides must be odd, got {kh}x{kw}")
    if h < 1 or wdt < 1:
        raise ShapeError(
            f"conv2d input {h}x{wdt} is empty: kernel {kh}x{kw} larger than "
            f"padded input {h + kh - 1}x{wdt + kw - 1}"
        )
    rows, m, taps = _tap_rows(xs, kh, kw)
    wt = w.transpose(2, 3, 1, 0).copy()
    if c < co:  # one product of the taps side by side; see the note above
        padded = rows.reshape(b, h + kh - 1, wdt + kw - 1, c)
        cols = np.empty((b, h, wdt, kh * kw * c), dtype=_state.dtype)
        for t, (i, j, _) in enumerate(taps):
            cols[..., t * c:(t + 1) * c] = padded[:, i:i + h, j:j + wdt]
        del rows, padded  # not held through the product
        out = cols.reshape(-1, kh * kw * c) @ wt.reshape(-1, co)
        return out.reshape(b, h, wdt, co).transpose(0, 3, 1, 2)
    acc = np.zeros((rows.shape[0], co), dtype=_state.dtype)
    for i, j, o in taps:
        acc[:m] += rows[o:o + m] @ wt[i, j]
    return acc.reshape(b, h + kh - 1, wdt + kw - 1, co)[:, :h, :wdt].transpose(
        0, 3, 1, 2)


def _conv_weight_grad(xs: list[np.ndarray], g: np.ndarray, kh: int,
                      kw: int) -> np.ndarray:
    """Gradient of a conv's OIHW kernel, given its input maps and the
    gradient of its output."""
    b, co, ho, wo = g.shape
    rows, m, taps = _tap_rows(xs, kh, kw)
    gfull = np.zeros((b, ho + kh - 1, wo + kw - 1, co), dtype=_state.dtype)
    gfull[:, :ho, :wo] = g.transpose(0, 2, 3, 1)
    gm = gfull.reshape(-1, co)[:m]
    gw = np.empty((co, rows.shape[1], kh, kw), dtype=_state.dtype)
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


def conv2d(x, w, bias=None) -> Tensor:
    """Stride-1 2D cross-correlation of an NCHW tensor with an OIHW kernel
    of odd sides, zero-padded by half the kernel so the output keeps the
    input's size.

    ``x`` may also be a list of NCHW tensors of one batch size and H x W,
    read as their channel concatenation, which is never built: each is
    written straight into the conv's padded rows, and the input gradient is
    split among them along channels. The record's inputs are the tensors,
    then ``w``, then ``bias``.
    """
    xs = [_as_tensor(t) for t in (x if isinstance(x, (list, tuple)) else [x])]
    w = _as_tensor(w)
    if not xs:
        raise ShapeError("conv2d needs at least one input")
    for t in xs:
        _check_4d("conv2d", t, w)
    if len({(t.data.shape[0], *t.data.shape[2:]) for t in xs}) > 1:
        raise ShapeError(
            f"conv2d inputs differ in batch size or HxW: "
            f"{[t.data.shape for t in xs]}"
        )
    co, ci, kh, kw = w.data.shape
    b = _check_bias("conv2d", bias, co)
    out = _conv_forward([t.data for t in xs], w.data)
    if b is not None:
        out += _per_channel(b.data, out)
    splits = np.cumsum([t.data.shape[1] for t in xs])[:-1]

    def adjoint(g):
        gxs, gw = [None] * len(xs), None
        if w.requires_grad:
            gw = _conv_weight_grad([t.data for t in xs], g, kh, kw)
        if any(t.requires_grad for t in xs):
            # the adjoint of a same-size conv is the same-size conv with the
            # flipped, transposed kernel
            wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gxs = np.split(_conv_forward([g], wf), splits, axis=1)
        if b is None:
            return (*gxs, gw)
        return (*gxs, gw, _channel_sums(g))

    inputs = (*xs, w) if b is None else (*xs, w, b)
    return _apply(out, inputs, adjoint)


def deconv2d(x, w, bias=None) -> Tensor:
    """Transposed convolution that upsamples by exactly the kernel's half
    side: the exact adjoint of cross-correlation by the same kernel.

    The kernel is indexed (C_in, C_out, 2s, 2s), its side a multiple of 4;
    it fixes stride s and padding s/2, so an h x w input gives s*h x s*w.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    _check_4d("deconv2d", x, w)
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(
            f"deconv2d shapes incompatible: {x.data.shape} x {w.data.shape}"
        )
    bsz, ci, h, wdt = x.data.shape
    _, co, k, kw = w.data.shape
    if k != kw or k < 4 or k % 4:
        raise ShapeError(
            f"deconv2d kernel must be square with a side that is a positive "
            f"multiple of 4, got {k}x{kw}"
        )
    if h < 1 or wdt < 1:
        raise ShapeError(f"deconv2d input {h}x{wdt} is empty")
    s = k // 2
    b = _check_bias("deconv2d", bias, co)
    out = _deconv_raw(x.data, w.data)
    if b is not None:
        out += _per_channel(b.data, out)

    def adjoint(g):
        # g scattered into the forward's cells, zero where the crop cut
        # them; each tap's product, transposed, then reads them as rows:
        # row r + a*(w + 1) + c is tap (a, c)'s cell of input pixel row r
        cells = np.zeros((bsz, h + 1, wdt + 1, s * s * co), dtype=_state.dtype)
        for src, dst in _cell_runs(cells, g.transpose(0, 2, 3, 1), s):
            dst[...] = src
        rows = cells.reshape(-1, s * s * co)
        m = rows.shape[0] - wdt - 2
        gx = gw = None
        if x.requires_grad:
            acc = np.zeros((rows.shape[0], ci), dtype=_state.dtype)
            for _, _, o, tap in _subpixel_taps(w.data, wdt):
                acc[:m] += rows[o:o + m] @ tap.T
            gx = acc.reshape(bsz, h + 1, wdt + 1, ci)[:, :h, :wdt].transpose(
                0, 3, 1, 2)
        if w.requires_grad:
            # x's rows on the same (h + 1) x (w + 1) grid, zero in the last
            # row and column, so that no shift reads across an image edge
            xp = np.zeros((bsz, h + 1, wdt + 1, ci), dtype=_state.dtype)
            xp[:, :h, :wdt] = x.data.transpose(0, 2, 3, 1)
            xm = xp.reshape(-1, ci)[:m].T
            gw = np.empty(w.data.shape, dtype=_state.dtype)
            for a, c, o, _ in _subpixel_taps(w.data, wdt):
                gw[:, :, a * s:(a + 1) * s, c * s:(c + 1) * s] = (
                    xm @ rows[o:o + m]).reshape(ci, s, s, co).transpose(0, 3, 1, 2)
        if b is None:
            return (gx, gw)
        return (gx, gw, _channel_sums(g))

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


def _channel_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sums over B, H and W of a channels-last NCHW array ``a``
    (the NCHW view of (B, H, W, C) rows, or a slice of one), or of
    ``a * b``, as one BLAS product: ``ones @ rows`` over its (B*H*W, C)
    pixel rows or, when those rows are not evenly spaced (a slice of a
    padded buffer), over each image row's (W, C) rows; a product is formed
    first. ``sum(axis=(0, 2, 3))``, which reduces across the fast axis, is
    an order of magnitude slower. Any other layout gives the same sums,
    only slower.
    """
    bsz, c, h, w = a.shape
    rows = a.transpose(0, 2, 3, 1) if b is None else (a * b).transpose(0, 2, 3, 1)
    try:
        rows = np.reshape(rows, (bsz * h * w, c), copy=False)
    except ValueError:
        return (np.ones(w, dtype=a.dtype) @ rows).sum(axis=(0, 1))
    return np.ones(bsz * h * w, dtype=a.dtype) @ rows


def _per_channel(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The per-channel vector ``v`` laid out as one image row of the
    channels-last NCHW array ``a``, ``v`` repeated W times, so that a ufunc
    broadcasting it over ``a`` runs its inner loop over the W*C values of a
    row rather than the C of a pixel. It broadcasts over any layout."""
    w = a.shape[3]
    return np.tile(v, w).reshape(w, -1).T[None, :, None, :]


def batch_norm(x, gain, bias, running_mean, running_var,
               eps: float = 1e-5) -> Tensor:
    """Training-mode batch normalization of an NCHW tensor, per channel over
    (B, H, W), followed by a ReLU, as one record.

    Normalizes by the batch moments and updates the running moment arrays
    in place, with momentum ``BN_MOMENTUM``. Eval mode has no op: the model
    folds the running moments into the preceding convolution
    (``nn.BatchNorm2d.fold``). The output is ``scale * (x - mu) + bias``
    with ``scale = gain / sigma``, then the ReLU.

    The record holds ``x``, the output and per-channel vectors. Writing g_m
    for the output gradient masked where the output is positive (where the
    value before the ReLU is), the adjoint is
    ``dx = scale * g_m + b * (x - mu) + c`` with per-channel coefficients
    ``b = -scale * S2 / (n * sigma**2)`` and ``c = -scale * S1 / n`` from the
    two centred sums ``S1 = sum(g_m)`` and ``S2 = sum(g_m * (x - mu))``; the
    gain's gradient is ``S2 / sigma`` and the bias's ``S1``. Every
    per-channel sum is one ``_channel_sums`` BLAS product. ``x``, the
    output and ``g`` are channels-last in the model (``g`` may be a channel
    slice of a sibling's gradient); each pass is correct, only slower, in
    any other layout. The adjoint writes neither ``g`` nor ``x``.
    """
    x = _as_tensor(x)
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got {x.data.shape}")
    n = x.data.size // x.data.shape[1]
    if n < 2:
        raise ShapeError("batch_norm needs >= 2 values per channel")
    mu = _channel_sums(x.data) / n
    out = x.data - _per_channel(mu, x.data)  # a new array in x's memory order
    var = _channel_sums(out, out) / n
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var * (n / (n - 1))
    inv = 1.0 / np.sqrt(var + eps)
    scale = gain.data * inv
    out *= _per_channel(scale, out)
    out += _per_channel(bias.data, out)
    np.maximum(out, 0.0, out=out)

    def adjoint(g):
        gm = g * (out > 0.0)
        s1 = _channel_sums(gm)
        xc = x.data - _per_channel(mu, out)
        s2 = _channel_sums(gm, xc)
        xc *= _per_channel(scale * (inv * inv) * s2 / -n, out)
        xc += _per_channel(scale * s1 / -n, out)
        gm *= _per_channel(scale, out)
        gm += xc
        return (gm, inv * s2, s1)

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
