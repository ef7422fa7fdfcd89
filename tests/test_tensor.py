import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekit import tensor as T
from edgekit.errors import ConfigError, NumericError, ShapeError, UsageError
from edgekit.gradcheck import check_op
from edgekit.tensor import Tensor
from oracles import (batch_norm_storing, conv_im2col, conv_im2col_grads,
                     deconv_padded, probability_chain_bce)

rng = np.random.default_rng(1234)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    out = T.matmul(eye, eye)
    assert np.array_equal(out.data, np.eye(2))


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(T.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


def test_matmul_gradcheck_vs_finite_differences():
    r = check_op(lambda a, b: T.matmul(a, b),
                 [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], rng)
    assert r.max_rel_err < 1e-6


def test_softmax_uniform_row():
    out = T.softmax(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_softmax_large_values_no_overflow():
    out = T.softmax(Tensor([[1000.0, 0.0]]))
    assert np.isfinite(out.data).all()
    assert np.allclose(out.data, [[1.0, 0.0]])


def test_softmax_rows_sum_to_one():
    out = T.softmax(Tensor(rng.normal(size=(5, 5))))
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_nan_rejected():
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        T.softmax(Tensor(bad))


@pytest.mark.parametrize("axis", [-1, 0])
def test_softmax_nan_below_row_max_rejected(axis):
    bad = rng.normal(size=(3, 5))
    bad[1, 2] = 50.0          # the row and column maximum
    bad[1, 4] = np.nan        # elsewhere in that row and in another column
    bad[2, 2] = np.nan        # same column as the maximum, below it
    for x in (bad, bad[:, [0, 1, 3, 4, 2]]):
        with pytest.raises(NumericError):
            T.softmax(Tensor(x), axis=axis)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape, axis", [((4, 7), -1), ((2, 3, 5, 5), -1),
                                         ((6, 4), 0), ((2, 5, 3), 1)])
def test_softmax_equals_three_buffer_formula(shape, axis, dtype):
    """Output and adjoint equal the shift / exp / divide formula bit for bit."""
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    want = e / e.sum(axis=axis, keepdims=True)
    want_gx = (g - (g * want).sum(axis=axis, keepdims=True)) * want
    with T.compute_dtype(dtype):
        xt = Tensor(x, requires_grad=True)
        with T.fresh_tape():
            out = T.softmax(xt, axis=axis)
            T.backward(T.tensor_sum(T.mul(out, g)))
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, want)
    assert np.array_equal(xt.grad, want_gx)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance(row, shift):
    x = np.array([row])
    a = T.softmax(Tensor(x)).data
    b = T.softmax(Tensor(x + shift)).data
    assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-12
    assert np.abs(a - b).max() < 1e-12


def test_conv2d_identity_kernel():
    x = rng.normal(size=(1, 1, 5, 5))
    w = np.ones((1, 1, 1, 1))
    out = T.conv2d(Tensor(x), Tensor(w))
    assert np.array_equal(out.data, x)


def test_conv2d_one_hot_box():
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    w = np.ones((1, 1, 3, 3))
    out = T.conv2d(Tensor(x), Tensor(w)).data[0, 0]
    expect = np.zeros((5, 5))
    expect[1:4, 1:4] = 1.0
    assert np.array_equal(out, expect)


def test_conv2d_output_extent_formula():
    """Stride 1, padded by half the kernel: the output keeps the input's
    extent, also for kernels wider than the input."""
    for kh, kw in ((1, 1), (3, 3), (5, 3), (1, 9)):
        out = T.conv2d(Tensor(np.zeros((1, 2, 10, 7))),
                       Tensor(np.zeros((3, 2, kh, kw))))
        assert out.shape == (1, 3, 10, 7)


def test_conv2d_kernel_too_large():
    """Only an empty input leaves a padded input smaller than the kernel."""
    for hw in ((0, 4), (4, 0)):
        with pytest.raises(ShapeError, match="larger than padded input"):
            T.conv2d(Tensor(np.zeros((1, 1) + hw)), Tensor(np.zeros((1, 1, 5, 5))))


def test_conv2d_gradcheck():
    r = check_op(lambda x, w, b: T.conv2d(x, w, b),
                 [rng.normal(size=(1, 2, 6, 6)), rng.normal(size=(3, 2, 3, 3)),
                  rng.normal(size=3)], rng)
    assert r.max_rel_err < 1e-5


# the model's upsamplers: (kernel 2s, stride s), padding s/2
MODEL_DECONVS = [(4, 2), (8, 4), (16, 8)]
# a 1x1, a square and a non-square input grid
GRIDS = [(1, 1), (3, 3), (2, 5)]


def test_deconv2d_extent():
    out = T.deconv2d(Tensor(np.zeros((1, 2, 6, 4))), Tensor(np.zeros((2, 2, 8, 8))))
    assert out.shape == (1, 2, 4 * 6, 4 * 4)


def test_deconv2d_matches_conv_input_gradient():
    """deconv2d is the input gradient of the stride-s correlation padded by
    s/2 with the same kernel."""
    for k, s in MODEL_DECONVS:
        x = rng.normal(size=(1, 2, 3 * s, 2 * s))
        w = rng.normal(size=(3, 2, k, k))
        y = rng.normal(size=(1, 3, 3, 2))
        gx, _ = conv_im2col_grads(x, w, y, s, s, s // 2, s // 2)
        assert np.allclose(gx, T.deconv2d(Tensor(y), Tensor(w)).data, atol=1e-12)


def test_deconv2d_adjoint_inner_product():
    """The engine's adjoints are the transposes of the forward map:
    <deconv(y, w), g> = <y, dy> = <w, dw> for the gradients of that sum."""
    for (k, s), hw in itertools.product(MODEL_DECONVS, GRIDS):
        y = Tensor(rng.normal(size=(2, 3) + hw), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True)
        with T.fresh_tape():
            out = T.deconv2d(y, w)
            g = rng.normal(size=out.shape)
            T.backward(T.tensor_sum(T.mul(out, g)))
        lhs = (out.data * g).sum()
        for t in (y, w):
            assert abs(lhs - (t.data * t.grad).sum()) < 1e-9 * abs(lhs) + 1e-9


def test_deconv2d_bad_stride():
    """A kernel side that is not a positive multiple of 4 gives no even
    stride, so no whole s/2 padding."""
    for k in (0, 2, 6, 10):
        with pytest.raises(ShapeError):
            T.deconv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, k, k))))


def test_deconv2d_gradcheck():
    for (k, s), hw in itertools.product(MODEL_DECONVS, GRIDS):
        r = check_op(lambda x, w, b: T.deconv2d(x, w, b),
                     [rng.normal(size=(1, 2) + hw), rng.normal(size=(2, 3, k, k)),
                      rng.normal(size=3)], rng)
        assert r.max_rel_err < 1e-5, (k, hw)


def test_conv2d_gradcheck_channels_not_increasing():
    for k in (3, 1):
        r = check_op(lambda x, w, b: T.conv2d(x, w, b),
                     [rng.normal(size=(2, 4, 5, 7)), rng.normal(size=(3, 4, k, k)),
                      rng.normal(size=3)], rng)
        assert r.max_rel_err < 1e-5, (k, hw)


@pytest.mark.parametrize("hw", [(4, 4), (3, 5), (1, 1)])
@pytest.mark.parametrize("kernel, stride", [
    ((4, 4), (2, 2)), ((8, 8), (4, 4)), ((16, 16), (8, 8)), ((12, 12), (6, 6)),
    ((20, 20), (10, 10)), ((24, 24), (12, 12)), ((28, 28), (14, 14)),
    ((32, 32), (16, 16)),
])
def test_deconv2d_equals_tap_loop_reference(kernel, stride, hw):
    """Any kernel side that is a multiple of 4 upsamples by half of it: the
    per-tap scatter at that stride, cropped by half the stride."""
    y = rng.normal(size=(2, 3) + hw)
    w = rng.normal(size=(3, 2) + kernel)
    out = T.deconv2d(Tensor(y), Tensor(w)).data
    sh, sw = stride
    assert np.array_equal(out, deconv_padded(y, w, sh, sw, sh // 2, sw // 2))


@pytest.mark.parametrize("kernel, stride, padding, hw", [
    ((4, 4), (2, 2), (1, 1), (4, 4)), ((16, 16), (8, 8), (4, 4), (2, 2)),
    ((8, 8), (4, 4), (2, 2), (3, 3)), ((4, 4), (2, 2), (1, 1), (3, 5)),
    ((8, 8), (4, 4), (2, 2), (2, 5)), ((16, 16), (8, 8), (4, 4), (1, 3)),
    ((8, 8), (4, 4), (2, 2), (1, 1)),
])
def test_deconv2d_padded_equals_central_slice_of_reference(kernel, stride, padding, hw):
    y = Tensor(rng.normal(size=(2, 3) + hw), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2) + kernel), requires_grad=True)
    want = deconv_padded(y.data, w.data, *stride, *padding)
    g = rng.normal(size=want.shape)
    with T.fresh_tape():
        out = T.deconv2d(y, w)
        T.backward(T.tensor_sum(T.mul(out, g)))
    assert np.array_equal(out.data, want)
    # the adjoints are a padded conv of g and its kernel gradient against y
    ref_gy = conv_im2col(g, w.data, *stride, *padding)
    _, ref_gw = conv_im2col_grads(g, w.data, y.data, *stride, *padding)
    for got, ref in ((y.grad, ref_gy), (w.grad, ref_gw)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("hw", [(3, 5), (6, 2), (1, 4), (1, 1), (4, 4)])
@pytest.mark.parametrize("kernel, stride, padding", [
    (4, 2, 1), (16, 8, 4), (8, 4, 2),   # the decoders' and side heads' upsamplers
])
def test_deconv2d_model_triples_equal_tap_loop(kernel, stride, padding, hw):
    """The model's (kernel, stride, padding) upsamplers at batch 2 equal the
    per-tap scatter, sliced, bit for bit."""
    y = rng.normal(size=(2, 5) + hw)
    w = rng.normal(size=(5, 3, kernel, kernel))
    out = T.deconv2d(Tensor(y), Tensor(w)).data
    assert np.array_equal(out, deconv_padded(y, w, stride, stride, padding, padding))


@pytest.mark.parametrize("kernel, stride, padding", [(4, 2, 1), (16, 8, 4), (8, 4, 2)])
def test_deconv2d_output_owns_a_contiguous_map(kernel, stride, padding):
    """The output is the NCHW view of a new channels-last array of exactly
    its own size, not a view that keeps the cropped border of a larger
    buffer alive."""
    out = T.deconv2d(Tensor(rng.normal(size=(2, 3, 3, 4))),
                     Tensor(rng.normal(size=(3, 2, kernel, kernel)))).data
    assert out.shape == (2, 2, 3 * stride, 4 * stride)
    assert out.transpose(0, 2, 3, 1).flags.c_contiguous
    assert out.base is not None and out.base.nbytes == out.nbytes


@pytest.mark.parametrize("kernel, stride, padding, hw", [
    ((4, 4), (2, 2), (1, 1), (3, 5)), ((16, 16), (8, 8), (4, 4), (2, 3)),
    ((8, 8), (4, 4), (2, 2), (4, 2)), ((4, 4), (2, 2), (1, 1), (1, 1)),
    ((8, 8), (4, 4), (2, 2), (1, 1)), ((16, 16), (8, 8), (4, 4), (1, 1)),
    ((4, 4), (2, 2), (1, 1), (4, 4)), ((8, 8), (4, 4), (2, 2), (3, 3)),
    ((16, 16), (8, 8), (4, 4), (2, 2)),
])
def test_deconv2d_float32_equals_float32_tap_loop(kernel, stride, padding, hw):
    y = rng.normal(size=(2, 3) + hw).astype(np.float32)
    w = rng.normal(size=(3, 2) + kernel).astype(np.float32)
    with T.compute_dtype(np.float32):
        out = T.deconv2d(Tensor(y), Tensor(w)).data
    want = deconv_padded(y, w, *stride, *padding, dtype=np.float32)
    assert out.dtype == want.dtype == np.float32
    assert np.array_equal(out, want)


def test_deconv2d_padded_adjoint_inner_product():
    """<conv(x), y> = <x, deconv(y)> for the stride-s correlation padded by
    s/2 with the same kernel."""
    for k, s in MODEL_DECONVS:
        x = rng.normal(size=(1, 2, 2 * s, 3 * s))
        w = rng.normal(size=(3, 2, k, k))
        conv = conv_im2col(x, w, s, s, s // 2, s // 2)
        y = rng.normal(size=conv.shape)
        back = T.deconv2d(Tensor(y), Tensor(w)).data
        assert back.shape == x.shape
        assert abs((conv * y).sum() - (x * back).sum()) < 1e-9


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("c_in, c_out", [(6, 3), (4, 4), (2, 5)])
def test_conv2d_matches_im2col_reference(c_in, c_out, k, pad, stride, batch):
    """Any strided, padded correlation is a window of the same-size one: pad
    the input by what ``pad`` exceeds k // 2, run conv2d, and keep every
    stride-th pixel from where ``pad`` falls short of k // 2. The window and
    both adjoints equal the im2col reference; pad = k // 2 at stride 1 is
    conv2d itself."""
    x = rng.normal(size=(batch, c_in, 7, 6))
    w = Tensor(rng.normal(size=(c_out, c_in, k, k)), requires_grad=True)
    ref = conv_im2col(x, w.data, stride, stride, pad, pad)
    g = rng.normal(size=ref.shape)
    extra, skip = max(pad - k // 2, 0), max(k // 2 - pad, 0)
    xe = Tensor(np.pad(x, ((0, 0), (0, 0), (extra, extra), (extra, extra))),
                requires_grad=True)
    ho, wo = ref.shape[2:]
    window = (slice(None), slice(None),
              slice(skip, skip + (ho - 1) * stride + 1, stride),
              slice(skip, skip + (wo - 1) * stride + 1, stride))
    g_same = np.zeros((batch, c_out) + xe.shape[2:])
    g_same[window] = g
    with T.fresh_tape():
        out = T.conv2d(xe, w)
        T.backward(T.tensor_sum(T.mul(out, g_same)))
    gx = xe.grad[:, :, extra:extra + 7, extra:extra + 6]
    ref_gx, ref_gw = conv_im2col_grads(x, w.data, g, stride, stride, pad, pad)
    for got, want in ((out.data[window], ref), (gx, ref_gx), (w.grad, ref_gw)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kwargs, error", [
    (dict(w=np.zeros((2, 2, 2, 3))), ShapeError),   # even kernel sides
    (dict(w=np.zeros((2, 2, 3, 4))), ShapeError),
    (dict(x=np.zeros((1, 2, 0, 4))), ShapeError),   # empty inputs
    (dict(x=np.zeros((1, 2, 4, 0))), ShapeError),
    (dict(x=np.zeros((2, 4, 4))), ShapeError),
    (dict(w=np.zeros((2, 2, 3))), ShapeError),
    (dict(bias=np.zeros(1)), ShapeError),
    (dict(bias=np.zeros((2, 1))), ShapeError),
    (dict(x=[]), ShapeError),                       # list inputs
    (dict(x=[np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 4, 4))]), ShapeError),
    (dict(x=[np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 5))]), ShapeError),
    (dict(x=[np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 4))]), ShapeError),
    (dict(x=[np.zeros((1, 1, 4, 4)), np.zeros((1, 2, 4, 4))]), ShapeError),
    (dict(x=[np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4))]), ShapeError),
])
def test_conv2d_rejects_misuse(kwargs, error):
    args = dict(x=np.zeros((1, 2, 4, 4)), w=np.zeros((2, 2, 3, 3)),
                bias=None) | kwargs
    x = args["x"]
    x = [Tensor(a) for a in x] if isinstance(x, list) else Tensor(x)
    with pytest.raises(error):
        T.conv2d(x, Tensor(args["w"]), args["bias"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c_out", [5, 12])   # per-tap and im2col forwards
@pytest.mark.parametrize("with_bias", [False, True])
def test_conv2d_list_equals_conv2d_of_concat(dtype, k, c_out, with_bias):
    """A list input is its channel concatenation, bit for bit: the output,
    each input's gradient and the kernel and bias gradients all equal those
    of conv2d on T.concat of the list."""
    r = np.random.default_rng(17)
    parts = [r.normal(size=(2, c, 5, 6)) for c in (3, 1, 4)]
    w = r.normal(size=(c_out, 8, k, k))
    bias = r.normal(size=c_out) if with_bias else None
    g = r.normal(size=(2, c_out, 5, 6))

    def run(as_list):
        with T.compute_dtype(dtype):
            xs = [Tensor(p, requires_grad=True) for p in parts]
            wt = Tensor(w, requires_grad=True)
            bt = None if bias is None else Tensor(bias, requires_grad=True)
            with T.fresh_tape():
                out = T.conv2d(xs if as_list else T.concat(xs, axis=1), wt, bt)
                T.backward(T.tensor_sum(T.mul(out, g)))
        grads = [t.grad for t in xs] + [wt.grad] + ([] if bt is None else [bt.grad])
        return [out.data] + grads

    got, want = run(True), run(False)
    assert len(got) == len(want) == 5 + with_bias
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype
        assert a.shape == b.shape and np.array_equal(a, b)


def test_conv2d_list_input_without_grad_gets_none():
    """Inputs that do not require a gradient get none; the others get their
    channels of the concat's gradient, and the record lists the inputs, then
    the kernel, then the bias."""
    r = np.random.default_rng(19)
    a = Tensor(r.normal(size=(1, 2, 4, 4)), requires_grad=True)
    b = Tensor(r.normal(size=(1, 3, 4, 4)))
    c = Tensor(r.normal(size=(1, 1, 4, 4)), requires_grad=True)
    w = Tensor(r.normal(size=(2, 6, 3, 3)))
    bias = Tensor(np.zeros(2), requires_grad=True)
    with T.fresh_tape() as tape:
        out = T.conv2d([a, b, c], w, bias)
        assert tape.records[-1].inputs == (a, b, c, w, bias)
        T.backward(T.tensor_sum(out))
    assert b.grad is None and w.grad is None
    full = Tensor(np.concatenate([a.data, b.data, c.data], axis=1),
                  requires_grad=True)
    with T.fresh_tape():
        T.backward(T.tensor_sum(T.conv2d(full, w)))
    assert np.array_equal(a.grad, full.grad[:, :2])
    assert np.array_equal(c.grad, full.grad[:, 5:])
    assert np.array_equal(bias.grad, np.full(2, 16.0))


@pytest.mark.parametrize("kwargs", [
    dict(x=np.zeros((2, 4, 4))),
    dict(w=np.zeros((2, 2, 4))),
    dict(bias=np.zeros(1)),
    dict(bias=np.zeros(3)),
    dict(w=np.zeros((2, 2, 4, 8))),   # not square
    dict(w=np.zeros((3, 2, 4, 4))),   # input channels differ
    dict(x=np.zeros((1, 2, 0, 4))),   # empty input
])
def test_deconv2d_rejects_misuse(kwargs):
    args = dict(x=np.zeros((1, 2, 4, 4)), w=np.zeros((2, 2, 4, 4)),
                bias=None) | kwargs
    with pytest.raises(ShapeError):
        T.deconv2d(Tensor(args["x"]), Tensor(args["w"]), args["bias"])


def test_layer_norm_constant_row_maps_to_bias():
    x = np.full((2, 6), 3.7)
    bias = rng.normal(size=6)
    out = T.layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(bias))
    assert np.allclose(out.data, np.broadcast_to(bias, (2, 6)), atol=1e-9)


def test_layer_norm_two_point_row():
    out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_needs_two_features():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((3, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))


def test_layer_norm_gradcheck():
    r = check_op(lambda x, g, b: T.layer_norm(x, g, b),
                 [rng.normal(size=(4, 6)), rng.normal(size=6), rng.normal(size=6)],
                 rng)
    assert r.max_rel_err < 1e-5


def test_batch_norm_training_normalizes():
    # a bias of 10 keeps every output above the ReLU's kink
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 3, 8, 8))
    out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.full(3, 10.0)),
                       np.zeros(3), np.ones(3))
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.abs(mean - 10.0).max() < 1e-6
    assert np.abs(var - 1.0).max() < 1e-3


def test_batch_norm_updates_running_moments():
    x = rng.normal(loc=2.0, size=(2, 1, 4, 4))
    rm, rv = np.zeros(1), np.ones(1)
    T.batch_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv)
    assert abs(rm[0] - 0.1 * x.mean()) < 1e-12
    n = x.size
    assert abs(rv[0] - (0.9 + 0.1 * x.var() * n / (n - 1))) < 1e-12


def test_batch_norm_needs_two_samples():
    with pytest.raises(ShapeError):
        T.batch_norm(Tensor(np.zeros((1, 2, 1, 1))), Tensor(np.ones(2)),
                     Tensor(np.zeros(2)), np.zeros(2), np.ones(2))


def _batch_norm_case(x, gain, bias, g, moments):
    """The op's output, its three adjoints for ``g`` and the running
    moments it leaves, in the compute dtype of ``x``; then the float64
    storing formula's, with the gradient masked by the op's own ReLU mask."""
    ref_moments = [m.copy() for m in moments]
    with T.compute_dtype(x.dtype), T.fresh_tape() as tape:
        out = T.batch_norm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True),
                           Tensor(bias, requires_grad=True), *moments)
        got = (out.data, *tape.records[-1].adjoint(g), *moments)
    f64 = [np.asarray(a, dtype=np.float64) for a in (x, gain, bias, g)]
    pre, dx, dgain, dbias = batch_norm_storing(*f64[:3], *ref_moments,
                                               f64[3] * (out.data > 0.0))
    return got, (np.maximum(pre, 0.0), dx, dgain, dbias, *ref_moments)


def _largest_rel_diff(got, want) -> float:
    """The largest difference of each pair relative to the largest value of
    its reference (a reference of zeros, a channel masked whole, must be
    matched exactly)."""
    return max(float(np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny))
               for a, b in zip(got, want))


# The largest float32 difference from the float64 storing formula over seeds
# 0-199 of the draws below was 4.6e-6 (channels-last input; 2.4e-6 NCHW),
# taken over the output, dx, dgain, dbias and the running moments, each
# relative to its largest value; float64 stayed within 3.4e-15.
BN_FLOAT32_TOL = 2e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_batch_norm_training_matches_storing_formula(dtype, layout):
    """Within rounding of the float64 formula whose record stored the
    normalized map: 1e-13 relative in float64, ``BN_FLOAT32_TOL`` in
    float32, for the output, the three adjoints and the running moments.

    The coefficient adjoint sums in another order, so it is not bit-equal.
    The formula takes the op's own ReLU mask: in float32 the rounding of a
    value near the kink can put it on either side, and one pixel on the
    other side moves dx by a whole gradient value."""
    tol = 1e-13 if dtype == np.float64 else BN_FLOAT32_TOL
    for seed in range(10):
        r = np.random.default_rng(seed)
        shape = (2, 3, 6, 5) if layout == "nchw" else (2, 6, 5, 3)
        x = r.normal(loc=1.5, scale=2.0, size=shape).astype(dtype)
        if layout == "nhwc":  # the transposed view conv2d returns
            x = x.transpose(0, 3, 1, 2)
        gain, bias = r.normal(size=3).astype(dtype), r.normal(size=3).astype(dtype)
        g = r.normal(size=x.shape).astype(dtype)
        got, want = _batch_norm_case(x, gain, bias, g, [r.random(3), r.random(3) + 0.5])
        assert all(a.dtype == dtype for a in got[:4])
        assert all(m.dtype == np.float64 for m in got[4:])
        assert _largest_rel_diff(got, want) <= tol


def _in_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """An NCHW view of the values ``a``, in its dtype, in one of four
    layouts: a contiguous NCHW array, which no model op hands batch norm
    (conv and deconv outputs and gradients are channels-last); the
    transposed view of a channels-last array (a deconv or 1x1 conv output);
    the interior of a padded channels-last buffer (a padded conv output); or
    a channel slice of a wider channels-last array (one input's share of a
    conv-list gradient)."""
    b, c, h, w = a.shape
    if layout == "nchw":
        return a.copy()
    if layout == "channels_last":
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "padded_slice":
        buf = np.full((b, h + 2, w + 2, c), 7.0, dtype=a.dtype)
        buf[:, 1:-1, 1:-1] = a.transpose(0, 2, 3, 1)
        return buf[:, 1:-1, 1:-1].transpose(0, 3, 1, 2)
    wide = np.full((b, h, w, 3 * c), 7.0, dtype=a.dtype)
    wide[..., c:2 * c] = a.transpose(0, 2, 3, 1)
    return wide[..., c:2 * c].transpose(0, 3, 1, 2)


@pytest.mark.parametrize("x_layout", ["nchw", "channels_last", "padded_slice"])
@pytest.mark.parametrize("g_layout", ["nchw", "channels_last", "channel_slice"])
def test_batch_norm_adjoint_in_every_layout(x_layout, g_layout):
    """Each pairing of input and gradient layouts gives the float64 storing
    formula's output and adjoints to 1e-13, and the op writes neither the
    input nor the gradient, nor the rest of the buffers they are views of:
    the gradient of one upsampler's batch norm is a view into the gradient
    its siblings read next."""
    r = np.random.default_rng(11)
    x0, g0 = r.normal(loc=0.5, size=(2, 3, 5, 6)), r.normal(size=(2, 3, 5, 6))
    gain, bias = r.normal(size=3), r.normal(size=3)
    x, g = _in_layout(x0, x_layout), _in_layout(g0, g_layout)
    owners = [a if a.base is None else a.base for a in (x, g)]
    before = [o.copy() for o in owners]
    got, want = _batch_norm_case(x, gain, bias, g, [np.zeros(3), np.ones(3)])
    assert _largest_rel_diff(got, want) <= 1e-13
    assert all(np.array_equal(o, b) for o, b in zip(owners, before))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["channels_last", "padded_slice"])
@pytest.mark.parametrize("op, x_shape, w_shape", [
    (T.conv2d, (2, 3, 6, 5), (4, 3, 3, 3)),
    (T.deconv2d, (2, 3, 3, 4), (3, 4, 8, 8)),
], ids=["conv2d", "deconv2d"])
def test_bias_gradient_is_the_channel_sum_of_g(op, x_shape, w_shape, layout, dtype):
    """A bias's gradient is the float64 sum of the output gradient over B, H
    and W, to the rounding of a sum of n terms in the compute dtype:
    n * eps times the sum of their magnitudes."""
    r = np.random.default_rng(5)
    with T.compute_dtype(dtype):
        x, w = Tensor(r.normal(size=x_shape)), Tensor(r.normal(size=w_shape))
        bias = Tensor(r.normal(size=4), requires_grad=True)
        with T.fresh_tape() as tape:
            out = op(x, w, bias)
        g = _in_layout(r.normal(size=out.shape).astype(dtype), layout)
        got = tape.records[-1].adjoint(g)[-1]
    g64 = g.astype(np.float64)
    n = g.size // g.shape[1]
    assert got.dtype == dtype and got.shape == (4,)
    err = np.abs(got - g64.sum(axis=(0, 2, 3)))
    assert (err <= n * np.finfo(dtype).eps * np.abs(g64).sum(axis=(0, 2, 3))).all()


def test_batch_norm_training_record_keeps_no_full_size_array():
    """The adjoint holds no normalized map and no ReLU mask: the only
    full-size array it keeps is the record's own output."""
    x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
    with T.fresh_tape() as tape:
        out = T.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3),
                           np.ones(3))
    held = [c.cell_contents for c in tape.records[-1].adjoint.__closure__]
    big = [a for a in held if isinstance(a, np.ndarray) and a.size >= x.data.size]
    assert all(a is out.data for a in big)


def test_batch_norm_gradcheck_training():
    r = check_op(lambda x, g, b: T.batch_norm(x, g, b, np.zeros(3), np.ones(3)),
                 [rng.normal(size=(2, 3, 4, 4)), rng.normal(size=3),
                  rng.normal(size=3)], rng)
    assert r.max_rel_err < 1e-4


def test_backward_sum_gives_ones():
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with T.fresh_tape():
        T.backward(T.tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = Tensor(rng.normal(size=(5,)), requires_grad=True)
    with T.fresh_tape():
        T.backward(T.tensor_sum(T.mul(x, x)))
    assert np.allclose(x.grad, 2 * x.data, atol=1e-12)


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with T.fresh_tape():
        y = T.mul(x, 2.0)
        with pytest.raises(UsageError):
            T.backward(y)


def test_backward_accumulates_on_repeat():
    """Two forward passes, each on its own tape: the second backward adds
    to the leaf gradient the first one left."""
    x = Tensor(np.ones(3), requires_grad=True)
    for _ in range(2):
        with T.fresh_tape():
            T.backward(T.tensor_sum(x))
    assert np.array_equal(x.grad, 2 * np.ones(3))


def test_second_backward_on_a_tape_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        loss = T.tensor_sum(T.mul(x, 2.0))
        T.backward(loss)
        with pytest.raises(UsageError):
            T.backward(loss)
    assert np.array_equal(x.grad, 2 * np.ones(3))


def test_backward_consumes_the_tape():
    """Each record is dropped once its adjoint has run, so the tape is
    empty after backward and an intermediate activation is already freed."""
    r = np.random.default_rng(5)
    x = Tensor(r.normal(size=(2, 3, 6, 6)), requires_grad=True)
    w = Tensor(r.normal(size=(4, 3, 3, 3)), requires_grad=True)
    with T.fresh_tape() as tape:
        h = T.conv2d(x, w)
        act = weakref.ref(h.data if h.data.base is None else h.data.base)
        loss = T.tensor_sum(T.batch_norm(h, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                                         np.zeros(4), np.ones(4)))
        del h
        assert act() is not None
        T.backward(loss)
        assert len(tape) == 0
        assert act() is None
    assert w.grad is not None and x.grad is not None


def test_only_leaves_keep_gradients():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        early = T.mul(x, 2.0)
    with T.fresh_tape():
        mid = T.mul(x, 3.0)
        loss = T.tensor_sum(mid)
        T.backward(loss)
    assert mid.grad is None and loss.grad is None
    assert np.array_equal(x.grad, 3 * np.ones(3))
    # a tensor from an earlier tape is a leaf of this one: the gradient
    # stops there and does not reach x through the earlier record
    with T.fresh_tape():
        T.backward(T.tensor_sum(T.mul(early, 5.0)))
    assert np.array_equal(early.grad, 5 * np.ones(3))
    assert np.array_equal(x.grad, 3 * np.ones(3))


def test_leaves_get_distinct_gradient_arrays():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        T.backward(T.tensor_sum(T.add(a, b)))  # add passes one array to both
    assert not np.shares_memory(a.grad, b.grad)
    a.grad[0] = 7.0
    assert np.array_equal(b.grad, np.ones(3))


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape() as tape:
        with T.no_grad():
            y = T.mul(x, 2.0)
        assert len(tape) == 0
        assert not y.requires_grad


def test_determinism_bit_identical():
    def run():
        r = np.random.default_rng(99)
        a = Tensor(r.normal(size=(8, 8)))
        return T.softmax(T.matmul(a, a)).data.copy()

    assert np.array_equal(run(), run())


def test_clip_gradient_zero_outside():
    x = Tensor(np.array([-1.0, 0.0, 1.0]), requires_grad=True)
    with T.fresh_tape():
        T.backward(T.tensor_sum(T.clip(x, -0.5, 0.5)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_bce_with_logits_matches_the_probability_chain_in_float64():
    """Where |z| < 10 the clamp of the old chain never acts, so its loss and
    gradient equal the primitive's up to rounding."""
    z0 = rng.uniform(-10.0, 10.0, size=(2, 1, 6, 6))
    y = (rng.random(z0.shape) < 0.3).astype(np.float64)
    w_pos, w_neg = 0.7 * y, 0.3 * (1.0 - y)
    results = []
    for loss_fn in (T.bce_with_logits, probability_chain_bce):
        z = Tensor(z0, requires_grad=True)
        with T.fresh_tape():
            loss = loss_fn(z, w_pos, w_neg)
            T.backward(loss)
        results.append((loss.item(), z.grad))
    (new, g_new), (old, g_old) = results
    assert abs(new - old) <= 1e-12 * abs(old)
    assert np.abs(g_new - g_old).max() <= 1e-15


def test_bce_with_logits_rejects_weights_of_another_shape():
    with pytest.raises(ShapeError):
        T.bce_with_logits(Tensor(np.zeros((2, 3))), np.ones((2, 3)), np.ones(3))


def test_concat_and_crop_round_trip():
    a = rng.normal(size=(1, 2, 3, 3))
    b = rng.normal(size=(1, 2, 3, 3))
    cat = T.concat([Tensor(a), Tensor(b)], axis=1)
    assert cat.shape == (1, 4, 3, 3)
    crop = T.crop2d(Tensor(a), 1, 1, 2, 2)
    assert np.array_equal(crop.data, a[:, :, 1:3, 1:3])


def test_bilinear_resize_constant_preserved():
    x = np.full((1, 1, 4, 4), 2.5)
    out = T.bilinear_resize(Tensor(x), (9, 7))
    assert np.allclose(out.data, 2.5, atol=1e-12)


def test_bilinear_resize_same_size_is_identity():
    x = rng.normal(size=(2, 3, 5, 4))
    assert np.array_equal(T.bilinear_resize(Tensor(x), (5, 4)).data, x)


# -- compute dtype ---------------------------------------------------------------

# Engine plumbing in T.__all__; every other name there is a primitive op.
_NOT_PRIMITIVES = {"Tensor", "Tape", "active_tape", "fresh_tape", "no_grad",
                   "backward", "compute_dtype", "current_dtype"}


def _dtype_cases():
    r = np.random.default_rng(8).normal
    cases = {
        "add": (T.add, [r(size=(2, 3, 4)), r(size=(4,))]),
        "sub": (T.sub, [r(size=(3, 4)), r(size=(3, 1))]),
        "mul": (T.mul, [r(size=(2, 1, 4)), r(size=(2, 3, 1))]),
        "div": (T.div, [r(size=(3, 4)), np.abs(r(size=(3, 4))) + 1.0]),
        "matmul": (T.matmul, [r(size=(2, 3, 4)), r(size=(4, 5))]),
        "concat": (lambda a, b: T.concat([a, b], axis=1),
                   [r(size=(2, 3)), r(size=(2, 2))]),
        "reshape": (lambda x: T.reshape(x, (6, 4)), [r(size=(2, 3, 4))]),
        "transpose": (lambda x: T.transpose(x, (2, 0, 1)), [r(size=(2, 3, 4))]),
        "crop2d": (lambda x: T.crop2d(x, 1, 2, 3, 3), [r(size=(1, 2, 6, 6))]),
        "relu": (T.relu, [r(size=(4, 4))]),
        "sigmoid": (T.sigmoid, [3.0 * r(size=(4, 4))]),
        "gelu": (T.gelu, [r(size=(4, 4))]),
        "exp": (T.exp, [r(size=(3, 3))]),
        "log": (T.log, [np.abs(r(size=(3, 3))) + 0.5]),
        "sqrt": (T.sqrt, [np.abs(r(size=(3, 3))) + 0.5]),
        "clip": (lambda x: T.clip(x, -0.5, 0.5), [r(size=(4, 4))]),
        "softmax": (lambda x: T.softmax(x, axis=-1), [r(size=(5, 5))]),
        "tensor_sum": (lambda x: T.tensor_sum(x, axis=1), [r(size=(3, 4, 2))]),
        "tensor_mean": (lambda x: T.tensor_mean(x, axis=(0, 2)), [r(size=(3, 4, 2))]),
        # c_in >= c_out takes the per-tap path, c_in < c_out im2col
        "conv2d": (lambda x, w1, w2, w3, b: T.add(
            T.conv2d(T.conv2d(x, w1, b), w2), T.tensor_sum(T.conv2d(x, w3))),
            [r(size=(2, 4, 7, 7)), r(size=(3, 4, 3, 3)), r(size=(3, 3, 3, 3)),
             r(size=(5, 4, 1, 1)), r(size=3)]),
        # a list input: per-tap forward, im2col input gradient
        "conv2d_list": (lambda a, b, c, w, bias: T.conv2d([a, b, c], w, bias),
                        [r(size=(2, 2, 5, 6)), r(size=(2, 3, 5, 6)),
                         r(size=(2, 1, 5, 6)), r(size=(4, 6, 3, 3)), r(size=4)]),
        # strides 2 and 4: 10 x 10 and 20 x 20 maps
        "deconv2d": (lambda x, w1, w2, b: T.add(
            T.deconv2d(x, w1, b), T.crop2d(T.deconv2d(x, w2), 0, 0, 10, 10)),
            [r(size=(2, 3, 5, 5)), r(size=(3, 2, 4, 4)), r(size=(3, 2, 8, 8)),
             r(size=2)]),
        "layer_norm": (T.layer_norm, [r(size=(4, 6)), r(size=6), r(size=6)]),
        "batch_norm": (lambda x, g, b: T.batch_norm(x, g, b, np.zeros(3), np.ones(3)),
                       [r(size=(2, 3, 4, 4)), r(size=3), r(size=3)]),
        "bilinear_resize": (lambda x: T.bilinear_resize(x, (7, 5)),
                            [r(size=(1, 2, 4, 4))]),
    }
    # saturated logits, right and wrong, in the first row
    z = np.vstack([[-20.0, -18.0, 18.0, 20.0], 4.0 * r(size=(3, 4))])
    y = (r(size=z.shape) > 0.5).astype(np.float64)
    y[0] = (1.0, 0.0, 1.0, 0.0)
    scale = np.abs(r(size=z.shape)) + 0.5
    cases["bce_with_logits"] = (
        lambda t: T.bce_with_logits(t, scale * y, scale * (1.0 - y)), [z])
    return cases


def _run_case(fn, arrays, dtype):
    """Output and input gradients of ``fn`` under a ``dtype`` scope, with
    the dtype of every raw forward result and adjoint output recorded."""
    seen = []
    apply = T._apply

    def spy(out, inputs, adjoint):
        seen.append(np.asarray(out).dtype)

        def recorded(g):
            grads = adjoint(g)
            seen.extend(gi.dtype for gi in grads if gi is not None)
            return grads

        return apply(out, inputs, recorded)

    T._apply = spy
    try:
        with T.compute_dtype(dtype):
            ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            with T.fresh_tape():
                out = fn(*ts)
                w = np.random.default_rng(9).normal(size=out.shape)
                T.backward(T.tensor_sum(T.mul(out, w)))
    finally:
        T._apply = apply
    return out.data, [t.grad for t in ts], set(seen)


def test_dtype_cases_cover_every_primitive():
    """One case per primitive, named after it; a case for another form of a
    primitive is named after it plus an underscore and a suffix."""
    primitives = set(T.__all__) - _NOT_PRIMITIVES
    cases = set(_dtype_cases())
    assert primitives <= cases
    assert all(any(n.startswith(op + "_") for op in primitives)
               for n in cases - primitives)


def test_suite_checks_cover_every_primitive():
    """Every primitive has a central-difference check in the gradient suite,
    named after the op or starting with its name and an underscore."""
    from edgekit.suite import layer_checks

    names = [name for name, _ in layer_checks(np.random.default_rng(0))]
    missing = {op for op in set(T.__all__) - _NOT_PRIMITIVES
               if not any(n == op or n.startswith(op + "_") for n in names)}
    assert not missing


@pytest.mark.parametrize("name", sorted(_dtype_cases()))
def test_primitive_stays_float32_in_float32_scope(name):
    fn, arrays = _dtype_cases()[name]
    out32, grads32, seen = _run_case(fn, arrays, np.float32)
    assert seen == {np.dtype(np.float32)}, f"{name} upcasts: {seen}"
    assert out32.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads32)
    out64, grads64, seen64 = _run_case(fn, arrays, np.float64)
    assert seen64 == {np.dtype(np.float64)}
    for a, b in zip([out32] + grads32, [out64] + grads64):
        assert np.allclose(a, b, rtol=1e-4, atol=1e-5 * max(1.0, np.abs(b).max()))


def test_compute_dtype_scope_restores_and_rejects_other_dtypes():
    assert T.current_dtype() == np.float64
    with T.compute_dtype(np.float32):
        assert Tensor([1.0]).data.dtype == np.float32
        assert T.current_dtype() == np.float32
    assert Tensor([1.0]).data.dtype == np.float64
    with pytest.raises(ConfigError):
        with T.compute_dtype(np.float16):
            pass


def test_batch_norm_keeps_float64_buffers():
    """In a float32 scope the running moments stay float64 arrays, updated
    in place."""
    mean, var = np.full(3, 0.5), np.full(3, 2.0)
    with T.compute_dtype(np.float32):
        x = Tensor(rng.normal(loc=1.0, size=(2, 3, 4, 4)))
        out = T.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), mean, var)
    assert out.data.dtype == np.float32
    assert mean.dtype == var.dtype == np.float64
    assert not np.array_equal(mean, np.full(3, 0.5))


def test_gradcheck_runs_in_float64_inside_a_float32_scope():
    from edgekit.suite import layer_checks

    with T.compute_dtype(np.float32):
        conv = check_op(lambda x, w, b: T.conv2d(x, w, b),
                        [rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(2, 3, 3, 3)),
                         rng.normal(size=2)], rng)
        layers = layer_checks(np.random.default_rng(0))
        assert T.current_dtype() == np.float32
    assert conv.passed(1e-4)
    assert all(report.passed(1e-4) for _, report in layers)
