import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekit import tensor as T
from edgekit.errors import ConfigError, NumericError, ShapeError, UsageError
from edgekit.gradcheck import check_op
from edgekit.tensor import Tensor
from oracles import conv_im2col, conv_im2col_grads, deconv_loop, deconv_padded

rng = np.random.default_rng(1234)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    out = T.matmul(eye, eye)
    assert np.array_equal(out.data, np.eye(2))


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal((a @ b).data, [[3.0], [7.0]])


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
    out = T.conv2d(Tensor(x), Tensor(w), padding=1).data[0, 0]
    expect = np.zeros((5, 5))
    expect[1:4, 1:4] = 1.0
    assert np.array_equal(out, expect)


def test_conv2d_output_extent_formula():
    out = T.conv2d(Tensor(np.zeros((1, 1, 10, 7))), Tensor(np.zeros((1, 1, 3, 3))),
                   stride=2, padding=1)
    assert out.shape == (1, 1, (10 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeError, match="larger than padded input"):
        T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


def test_conv2d_gradcheck():
    r = check_op(lambda x, w, b: T.conv2d(x, w, b, stride=1, padding=1),
                 [rng.normal(size=(1, 2, 6, 6)), rng.normal(size=(3, 2, 3, 3)),
                  rng.normal(size=3)], rng)
    assert r.max_rel_err < 1e-5


def test_deconv2d_extent():
    out = T.deconv2d(Tensor(np.zeros((1, 2, 6, 4))), Tensor(np.zeros((2, 2, 4, 4))),
                     stride=2)
    assert out.shape == (1, 2, 2 * 6 + 2, 2 * 4 + 2)


def test_deconv2d_matches_conv_input_gradient():
    x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    y = rng.normal(size=(1, 3, 2, 2))
    with T.fresh_tape():
        out = T.conv2d(x, w, stride=2)
        T.backward(T.tensor_sum(T.mul(out, y)))
    via_deconv = T.deconv2d(Tensor(y), w, stride=2).data
    assert np.allclose(x.grad, via_deconv, atol=1e-12)


def test_deconv2d_adjoint_inner_product():
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    y = rng.normal(size=(1, 3, 2, 2))
    lhs = (T.conv2d(Tensor(x), Tensor(w), stride=2).data * y).sum()
    rhs = (x * T.deconv2d(Tensor(y), Tensor(w), stride=2).data).sum()
    assert abs(lhs - rhs) < 1e-9


def test_deconv2d_bad_stride():
    with pytest.raises(ConfigError):
        T.deconv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 2))),
                   stride=0)


def test_deconv2d_gradcheck():
    r = check_op(lambda x, w: T.deconv2d(x, w, stride=2),
                 [rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(2, 3, 4, 4))],
                 rng)
    assert r.max_rel_err < 1e-5


def test_conv2d_gradcheck_channels_not_increasing():
    for k, pad in ((3, 1), (1, 0)):
        r = check_op(lambda x, w, b: T.conv2d(x, w, b, stride=1, padding=pad),
                     [rng.normal(size=(2, 4, 5, 7)), rng.normal(size=(3, 4, k, k)),
                      rng.normal(size=3)], rng)
        assert r.max_rel_err < 1e-5, (k, pad)


def test_deconv2d_gradcheck_kernel_not_multiple_of_stride():
    r = check_op(lambda x, w, b: T.deconv2d(x, w, b, stride=2),
                 [rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 3, 3, 3)),
                  rng.normal(size=3)], rng)
    assert r.max_rel_err < 1e-5


@pytest.mark.parametrize("hw", [(4, 4), (3, 5)])
@pytest.mark.parametrize("kernel, stride", [
    ((4, 4), (2, 2)), ((8, 8), (4, 4)), ((16, 16), (8, 8)), ((2, 2), (2, 2)),
    ((1, 1), (2, 2)), ((3, 3), (2, 2)), ((5, 3), (3, 2)), ((3, 3), (1, 1)),
])
def test_deconv2d_equals_tap_loop_reference(kernel, stride, hw):
    y = rng.normal(size=(2, 3) + hw)
    w = rng.normal(size=(3, 2) + kernel)
    out = T.deconv2d(Tensor(y), Tensor(w), stride=stride).data
    assert np.array_equal(out, deconv_loop(y, w, *stride))


@pytest.mark.parametrize("kernel, stride, padding, hw", [
    ((4, 4), (2, 2), (1, 1), (4, 4)), ((16, 16), (8, 8), (4, 4), (2, 2)),
    ((8, 8), (4, 4), (2, 2), (3, 3)), ((4, 4), (2, 2), (1, 2), (3, 3)),
    ((8, 8), (4, 4), (2, 2), (2, 5)), ((5, 3), (3, 2), (2, 1), (3, 4)),
    ((7, 5), (1, 1), (3, 2), (1, 2)),   # some taps reach no kept pixel
])
def test_deconv2d_padded_equals_central_slice_of_reference(kernel, stride, padding, hw):
    y = Tensor(rng.normal(size=(2, 3) + hw), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2) + kernel), requires_grad=True)
    want = deconv_padded(y.data, w.data, *stride, *padding)
    g = rng.normal(size=want.shape)
    with T.fresh_tape():
        out = T.deconv2d(y, w, stride=stride, padding=padding)
        T.backward(T.tensor_sum(T.mul(out, g)))
    assert np.array_equal(out.data, want)
    # the adjoints are a padded conv of g and its kernel gradient against y
    ref_gy = conv_im2col(g, w.data, *stride, *padding)
    _, ref_gw = conv_im2col_grads(g, w.data, y.data, *stride, *padding)
    for got, ref in ((y.grad, ref_gy), (w.grad, ref_gw)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_deconv2d_padded_adjoint_inner_product():
    x = rng.normal(size=(1, 2, 4, 6))
    w = rng.normal(size=(3, 2, 4, 4))
    conv = T.conv2d(Tensor(x), Tensor(w), stride=2, padding=(1, 2)).data
    y = rng.normal(size=conv.shape)
    back = T.deconv2d(Tensor(y), Tensor(w), stride=2, padding=(1, 2)).data
    assert back.shape == x.shape
    assert abs((conv * y).sum() - (x * back).sum()) < 1e-9


def test_deconv2d_negative_padding_rejected():
    for padding in (-1, (0, -1)):
        with pytest.raises(ConfigError):
            T.deconv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 4, 4))),
                       stride=2, padding=padding)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("c_in, c_out", [(6, 3), (4, 4), (2, 5)])
def test_conv2d_matches_im2col_reference(c_in, c_out, k, pad, stride, batch):
    x = Tensor(rng.normal(size=(batch, c_in, 7, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(c_out, c_in, k, k)), requires_grad=True)
    ref = conv_im2col(x.data, w.data, stride, stride, pad, pad)
    g = rng.normal(size=ref.shape)
    with T.fresh_tape():
        out = T.conv2d(x, w, stride=stride, padding=pad)
        T.backward(T.tensor_sum(T.mul(out, g)))
    ref_gx, ref_gw = conv_im2col_grads(x.data, w.data, g, stride, stride, pad, pad)
    for got, want in ((out.data, ref), (x.grad, ref_gx), (w.grad, ref_gw)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kwargs, error", [
    (dict(stride=0), ConfigError),
    (dict(stride=(1, -1)), ConfigError),
    (dict(padding=-1), ConfigError),
    (dict(padding=(0, -2)), ConfigError),
    (dict(x=np.zeros((2, 4, 4))), ShapeError),
    (dict(w=np.zeros((2, 2, 3))), ShapeError),
    (dict(bias=np.zeros(1)), ShapeError),
    (dict(bias=np.zeros((2, 1))), ShapeError),
])
def test_conv2d_rejects_misuse(kwargs, error):
    args = dict(x=np.zeros((1, 2, 4, 4)), w=np.zeros((2, 2, 3, 3)), bias=None,
                stride=1, padding=0) | kwargs
    with pytest.raises(error):
        T.conv2d(Tensor(args.pop("x")), Tensor(args.pop("w")), **args)


@pytest.mark.parametrize("kwargs", [
    dict(x=np.zeros((2, 4, 4))),
    dict(w=np.zeros((2, 2, 3))),
    dict(bias=np.zeros(1)),
    dict(bias=np.zeros(3)),
    dict(padding=(5, 0)),   # 2 * 5 rows of the 9-row map leave none
    dict(padding=(1, 5)),
])
def test_deconv2d_rejects_misuse(kwargs):
    args = dict(x=np.zeros((1, 2, 4, 4)), w=np.zeros((2, 2, 3, 3)),
                bias=None, padding=0) | kwargs
    with pytest.raises(ShapeError):
        T.deconv2d(Tensor(args["x"]), Tensor(args["w"]), args["bias"], stride=2,
                   padding=args["padding"])


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


def test_batch_norm_eval_fresh_state_is_affine_identity():
    x = rng.normal(size=(2, 3, 4, 4))
    gain = rng.normal(size=3)
    bias = rng.normal(size=3)
    out = T.batch_norm(Tensor(x), Tensor(gain), Tensor(bias),
                       np.zeros(3), np.ones(3), training=False)
    expect = x * gain[None, :, None, None] / np.sqrt(1 + 1e-5) + bias[None, :, None, None]
    assert np.allclose(out.data, expect, atol=1e-12)


def test_batch_norm_training_normalizes():
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 3, 8, 8))
    out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       np.zeros(3), np.ones(3), training=True)
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.abs(mean).max() < 1e-6
    assert np.abs(var - 1.0).max() < 1e-3


def test_batch_norm_updates_running_moments():
    x = rng.normal(loc=2.0, size=(2, 1, 4, 4))
    rm, rv = np.zeros(1), np.ones(1)
    T.batch_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                 rm, rv, training=True)
    assert abs(rm[0] - 0.1 * x.mean()) < 1e-12
    n = x.size
    assert abs(rv[0] - (0.9 + 0.1 * x.var() * n / (n - 1))) < 1e-12


def test_batch_norm_needs_two_samples():
    with pytest.raises(ShapeError):
        T.batch_norm(Tensor(np.zeros((1, 2, 1, 1))), Tensor(np.ones(2)),
                     Tensor(np.zeros(2)), np.zeros(2), np.ones(2), training=True)


def test_batch_norm_gradcheck_training():
    r = check_op(lambda x, g, b: T.batch_norm(x, g, b, np.zeros(3), np.ones(3),
                                              training=True),
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
    x = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        loss = T.tensor_sum(x)
        T.backward(loss)
        T.backward(loss)
    assert np.array_equal(x.grad, 2 * np.ones(3))


def test_intermediate_tensors_receive_grads():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        mid = T.mul(x, 3.0)
        T.backward(T.tensor_sum(mid))
    assert np.array_equal(mid.grad, np.ones(3))
    assert np.array_equal(x.grad, 3 * np.ones(3))


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
    return {
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
        # stride 1 with c_in >= c_out takes the per-tap path, the others im2col
        "conv2d": (lambda x, w1, w2, w3, b: T.add(
            T.conv2d(T.conv2d(x, w1, b, 1, 1), w2, None, 2, 1),
            T.tensor_sum(T.conv2d(x, w3, None, 1, 0))),
            [r(size=(2, 4, 7, 7)), r(size=(3, 4, 3, 3)), r(size=(3, 3, 3, 3)),
             r(size=(5, 4, 1, 1)), r(size=3)]),
        "deconv2d": (lambda x, w1, w2, b: T.add(
            T.deconv2d(x, w1, b, 2, 1), T.crop2d(T.deconv2d(x, w2, None, 4), 0, 0, 10, 10)),
            [r(size=(2, 3, 5, 5)), r(size=(3, 2, 4, 4)), r(size=(3, 2, 8, 8)),
             r(size=2)]),
        "layer_norm": (T.layer_norm, [r(size=(4, 6)), r(size=6), r(size=6)]),
        "batch_norm": (lambda x, g, b: T.add(
            T.batch_norm(x, g, b, np.zeros(3), np.ones(3), training=True),
            T.batch_norm(x, g, b, np.full(3, 0.2), np.full(3, 1.7), training=False)),
            [r(size=(2, 3, 4, 4)), r(size=3), r(size=3)]),
        "bilinear_resize": (lambda x: T.bilinear_resize(x, (7, 5)),
                            [r(size=(1, 2, 4, 4))]),
    }


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
    assert set(_dtype_cases()) == set(T.__all__) - _NOT_PRIMITIVES


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


def test_batch_norm_eval_keeps_float64_buffers():
    mean, var = np.full(3, 0.5), np.full(3, 2.0)
    with T.compute_dtype(np.float32):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        out = T.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), mean, var,
                           training=False)
    assert out.data.dtype == np.float32
    assert mean.dtype == var.dtype == np.float64


def test_gradcheck_runs_in_float64_inside_a_float32_scope():
    from edgekit.suite import layer_checks

    with T.compute_dtype(np.float32):
        conv = check_op(lambda x, w, b: T.conv2d(x, w, b, 1, 1),
                        [rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(2, 3, 3, 3)),
                         rng.normal(size=2)], rng)
        layers = layer_checks(np.random.default_rng(0))
        assert T.current_dtype() == np.float32
    assert conv.passed(1e-4)
    assert all(report.passed(1e-4) for _, report in layers)
