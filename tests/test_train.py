import inspect
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edgekit import tensor as T
from edgekit.errors import (ConfigError, InputError, NumericError, ShapeError,
                            UsageError)
from edgekit.model import EdgeDetector, ModelConfig
from edgekit.synth import generate_scene
from edgekit.tensor import Tensor
from edgekit.train import (SGD, AnnotationStack, Scene, TrainConfig,
                           consensus_labels, ignore_band, stage_loss,
                           train_two_phase, weighted_bce)

from oracles import spy_stage1_at_phase_two, stage1_changes, stage1_state

rng = np.random.default_rng(17)


# -- consensus ----------------------------------------------------------------

def test_consensus_two_of_five_positive_at_default_threshold():
    maps = [np.array([[1]]), np.array([[1]]), np.array([[0]]),
            np.array([[0]]), np.array([[0]])]
    assert consensus_labels(maps, 0.3)[0, 0] == 1.0


def test_consensus_one_of_five_negative():
    maps = [np.array([[1]])] + [np.array([[0]])] * 4
    assert consensus_labels(maps, 0.3)[0, 0] == 0.0


def test_consensus_single_annotator_identity():
    m = (rng.random((6, 6)) < 0.4).astype(np.uint8)
    for eta in (0.1, 0.5, 1.0):
        assert np.array_equal(consensus_labels([m], eta), m.astype(float))


def test_consensus_empty_stack_rejected():
    with pytest.raises(InputError):
        consensus_labels([], 0.3)
    with pytest.raises(ConfigError):
        consensus_labels([np.zeros((2, 2))], 0.0)


def test_ignore_band_marks_subthreshold_votes():
    maps = [np.array([[1, 1, 0]]), np.array([[1, 0, 0]]),
            np.array([[1, 0, 0]]), np.array([[1, 0, 0]]), np.array([[1, 0, 0]])]
    band = ignore_band(maps, 0.3)
    assert band.tolist() == [[False, True, False]]


# -- loss ---------------------------------------------------------------------

def test_weighted_bce_hand_case_log2():
    loss = weighted_bce(Tensor([0.0, 0.0]), np.array([1.0, 0.0]))
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_weighted_bce_all_positive_degenerates_to_zero():
    loss = weighted_bce(Tensor(np.full((4, 4), 0.7)), np.ones((4, 4)))
    assert loss.item() == 0.0


def test_weighted_bce_perfect_prediction_negligible():
    """Logits of probability 1 - eps on every true class."""
    y = (rng.random((8, 8)) < 0.3).astype(np.float64)
    eps = 1e-7
    loss = weighted_bce(Tensor((2 * y - 1) * math.log((1 - eps) / eps)), y)
    assert loss.item() <= 2 * y.size * eps * abs(math.log(eps))


def test_weighted_bce_shape_mismatch():
    with pytest.raises(ShapeError):
        weighted_bce(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


def test_weighted_bce_gradient_matches_finite_differences():
    y = (rng.random((5, 5)) < 0.3).astype(np.float64)
    e = Tensor(rng.uniform(0.1, 0.9, size=(5, 5)), requires_grad=True)
    with T.fresh_tape():
        T.backward(weighted_bce(e, y))
    h = 1e-6
    for idx in [(0, 0), (2, 3), (4, 4)]:
        orig = e.data[idx]
        e.data[idx] = orig + h
        hi = weighted_bce(e, y).item()
        e.data[idx] = orig - h
        lo = weighted_bce(e, y).item()
        e.data[idx] = orig
        num = (hi - lo) / (2 * h)
        assert abs(num - e.grad[idx]) / max(1.0, abs(num)) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weighted_bce_saturated_wrong_logit_keeps_its_gradient(dtype):
    """Logit +20 on the negative pixel and -20 on the positive one: each
    class weighs 1/2, so dloss/dz = (σ(20)/2, -σ(20)/2), where a clamp on
    the probabilities gives 0."""
    z = Tensor(np.array([20.0, -20.0], dtype=dtype), requires_grad=True)
    with T.compute_dtype(dtype), T.fresh_tape():
        loss = weighted_bce(z, np.array([0.0, 1.0]))
        T.backward(loss)
    half = 0.5 / (1.0 + math.exp(-20.0))
    assert z.grad.dtype == dtype
    assert np.allclose(z.grad, [half, -half], rtol=1e-6, atol=0.0)
    assert abs(loss.item() - math.log1p(math.exp(20.0))) < 1e-5


def test_weighted_bce_ignore_band_excluded():
    y = np.array([[1.0, 0.0, 0.0]])
    ign = np.array([[False, True, False]])
    e = Tensor(np.array([[0.5, 0.01, 0.5]]))
    with_band = weighted_bce(e, y, ign).item()
    # ignored pixel contributes nothing: same as dropping it
    e2 = Tensor(np.array([[0.5, 0.5]]))
    assert abs(with_band - weighted_bce(e2, np.array([[1.0, 0.0]])).item()) < 1e-12


def test_stage_loss_lambda_zero_reduces_to_head_loss():
    y = (rng.random((6, 6)) < 0.2).astype(np.float64)
    e = Tensor(rng.uniform(0.2, 0.8, size=(6, 6)))
    sides = [Tensor(rng.uniform(0.2, 0.8, size=(6, 6))) for _ in range(8)]
    assert stage_loss(e, sides, y, 0.0).item() == weighted_bce(e, y).item()


def test_stage_loss_linearity_exact():
    y = (rng.random((6, 6)) < 0.2).astype(np.float64)
    e = Tensor(rng.uniform(0.2, 0.8, size=(6, 6)))
    sides = [Tensor(rng.uniform(0.2, 0.8, size=(6, 6))) for _ in range(8)]
    lam = 0.4
    total = stage_loss(e, sides, y, lam).item()
    ref = weighted_bce(e, y).item()
    for s in sides:
        ref = ref + lam * weighted_bce(s, y).item()
    assert total == ref


def test_stage_loss_equal_maps_closed_form():
    y = (rng.random((6, 6)) < 0.2).astype(np.float64)
    e = Tensor(rng.uniform(0.2, 0.8, size=(6, 6)))
    lam = 0.4
    total = stage_loss(e, [e] * 8, y, lam).item()
    single = weighted_bce(e, y).item()
    assert abs(total - (1 + 8 * lam) * single) < 1e-9


def test_stage_loss_two_pixel_hand_computation():
    y = np.array([1.0, 0.0])
    e = Tensor(np.array([math.log(0.6 / 0.4), math.log(0.3 / 0.7)]))
    s = Tensor(np.array([0.0, 0.0]))
    lam = 0.4
    alpha = 0.5
    head = -(alpha * math.log(0.6) + (1 - alpha) * math.log(0.7))
    side = math.log(2.0)
    expect = head + lam * 8 * side
    assert abs(stage_loss(e, [s] * 8, y, lam).item() - expect) < 1e-12


def test_stage_loss_lam_default_is_the_train_config_default():
    lam = inspect.signature(stage_loss).parameters["lam"].default
    assert lam == TrainConfig().lam


# -- optimizer ----------------------------------------------------------------

def test_sgd_zero_everything_keeps_params():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = SGD([("p", p)], TrainConfig(base_lr=0.1, momentum=0.0, weight_decay=0.0),
              max_iterations=10)
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_sgd_quadratic_hand_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = p.data.copy()  # gradient of p^2/2
    opt = SGD([("p", p)], TrainConfig(base_lr=0.1, momentum=0.0, weight_decay=0.0,
                                     lr_power=0.9), max_iterations=10)
    opt.step()
    assert np.allclose(p.data, [0.9])


def test_sgd_momentum_and_decay_formula():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = SGD([("p", p)], TrainConfig(base_lr=1.0, momentum=0.9, weight_decay=2e-4,
                                     lr_power=1.0), max_iterations=4)
    p.grad = np.array([0.5])
    opt.step()
    v1 = 0.5 + 2e-4 * 2.0
    x1 = 2.0 - v1
    assert np.allclose(p.data, [x1])
    p.grad = np.array([0.1])
    opt.step()
    v2 = 0.9 * v1 + 0.1 + 2e-4 * x1
    lr2 = 1.0 * (1 - 1 / 4)
    assert np.allclose(p.data, [x1 - lr2 * v2])


def test_sgd_float32_parameter_steps_a_float64_master():
    start = np.array([1.0, -2.0, 0.1 + 1e-9])
    p = Tensor(np.zeros(3), requires_grad=True)
    p.data = start.astype(np.float32)
    opt = SGD([("p", p)], TrainConfig(base_lr=1.0, momentum=0.9, weight_decay=2e-4,
                                     lr_power=1.0), max_iterations=4,
              masters={"p": start.copy()})
    p.grad = np.array([0.5, 0.25, 1e-3], dtype=np.float32)
    opt.step()
    master = opt.masters["p"]
    expect = start - (p.grad.astype(np.float64) + 2e-4 * start)
    assert master.dtype == opt.velocity["p"].dtype == np.float64
    assert np.array_equal(master, expect)
    assert p.data.dtype == np.float32
    assert np.array_equal(p.data, master.astype(np.float32))
    # without a given master, a float32 parameter gets a float64 copy
    own = SGD([("p", p)], TrainConfig(base_lr=0.1), max_iterations=4)
    assert own.masters["p"].dtype == np.float64
    assert own.masters["p"] is not p.data


def test_sgd_float64_parameter_is_its_own_master():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = SGD([("p", p)], TrainConfig(base_lr=0.1), max_iterations=10)
    assert opt.masters["p"] is p.data


def test_sgd_missing_grad_rejected():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([("p", p)], TrainConfig(base_lr=0.1), max_iterations=10)
    with pytest.raises(UsageError):
        opt.step()


def test_poly_lr_schedule_endpoints_and_monotone():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([("p", p)], TrainConfig(base_lr=0.5, lr_power=0.9), max_iterations=20)
    assert opt.lr(0) == 0.5
    assert opt.lr(20) == 0.0
    rates = [opt.lr(i) for i in range(21)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


# -- two-phase protocol -------------------------------------------------------

def _tiny_scenes(n=2, size=32, seed=8):
    g = np.random.default_rng(seed)
    scenes = []
    for _ in range(n):
        img, _, maps = generate_scene(g, size)
        scenes.append(Scene(img, AnnotationStack(maps, consensus_labels(maps, 0.3))))
    return scenes


def _tiny_model(seed=0):
    return EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=seed)


def _tiny_train(seed=0, iters=3, model=None):
    scenes = _tiny_scenes()
    model = _tiny_model(seed) if model is None else model
    tcfg = TrainConfig(iterations_stage1=iters, iterations_stage2=iters,
                       batch_size=1, crop=32, seed=seed, flip=True)
    result = train_two_phase(model, scenes, tcfg)
    return model, result


def test_two_phase_freezes_stage1_bit_exact(monkeypatch):
    """Every stage-one float64 master and running moment keeps, through
    phase two, the value phase one left it, bit for bit."""
    model = _tiny_model()
    phase_one = spy_stage1_at_phase_two(monkeypatch, model)
    _tiny_train(model=model)
    assert len(phase_one) == 1
    assert stage1_changes(model, phase_one[0]) == []
    assert all(not p.requires_grad for p in model.global_stage.parameters())
    # the spy saw phase one's result, not the initial state
    assert len(stage1_changes(_tiny_model(), phase_one[0])) > len(phase_one[0]) // 2


def test_two_phase_reproducible():
    m1, r1 = _tiny_train(seed=4)
    m2, r2 = _tiny_train(seed=4)
    assert abs(r1.history[-1][2] - r2.history[-1][2]) < 1e-9
    s1, s2 = m1.state_arrays(), m2.state_arrays()
    assert all(np.array_equal(s1[n], s2[n]) for n in s1)


def test_two_phase_history_stages():
    _, result = _tiny_train(iters=2)
    assert [s for _, s, _ in result.history] == [1, 1, 2, 2]
    assert all(np.isfinite(l) for _, _, l in result.history)


def test_two_phase_as_separate_one_phase_calls(monkeypatch):
    """Each phase in its own call, the other at zero iterations."""
    scenes = _tiny_scenes()
    model = _tiny_model()
    phase_one = spy_stage1_at_phase_two(monkeypatch, model)
    tcfg = TrainConfig(iterations_stage1=2, iterations_stage2=0, batch_size=1,
                       crop=32, seed=0)
    r1 = train_two_phase(model, scenes, tcfg)
    assert [(i, s) for i, s, _ in r1.history] == [(0, 1), (1, 1)]
    assert stage1_changes(model, phase_one[0]) == []
    model.global_stage.set_requires_grad(True)
    r2 = train_two_phase(model, scenes,
                         replace(tcfg, iterations_stage1=0, iterations_stage2=2))
    assert [(i, s) for i, s, _ in r2.history] == [(0, 2), (1, 2)]
    assert len(phase_one) == 2
    assert stage1_changes(model, phase_one[1]) == []
    assert stage1_changes(model, phase_one[0]) == []
    assert all(np.isfinite(l) for _, _, l in r1.history + r2.history)


def test_crop_larger_than_image_rejected():
    scenes = _tiny_scenes()
    cfg = ModelConfig.toy(input_hw=(64, 64))
    model = EdgeDetector(cfg, seed=0)
    tcfg = TrainConfig(iterations_stage1=1, iterations_stage2=1, crop=64,
                       batch_size=1, seed=0)
    with pytest.raises(ConfigError):
        train_two_phase(model, scenes, tcfg)


def test_ignore_band_missing_from_a_scene_rejected():
    """With the band on, every scene must carry one: the batch is never
    quietly trained without it."""
    scenes = _tiny_scenes()
    scenes[0].ignore = np.zeros((32, 32), dtype=bool)
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    before = stage1_state(model)
    tcfg = TrainConfig(iterations_stage1=1, iterations_stage2=1, crop=32,
                       batch_size=2, seed=0, use_ignore_band=True)
    with pytest.raises(InputError, match="scene 1"):
        train_two_phase(model, scenes, tcfg)
    assert stage1_changes(model, before) == []
    scenes[1].ignore = np.zeros((32, 32), dtype=bool)
    result = train_two_phase(model, scenes, tcfg)
    assert [s for _, s, _ in result.history] == [1, 2]


# Tape records of one toy 64x64 iteration at batch 2, per op; the op is the
# first part of its adjoint's __qualname__. Each of a stage's nine heads
# emits logits, and its loss is one bce_with_logits record; the stage loss
# adds eight lam-weighted side losses to the main head's.
STAGE1_RECORDS = {"add": 48, "batch_norm": 36, "bce_with_logits": 9,
                  "conv2d": 29, "deconv2d": 32, "gelu": 8, "layer_norm": 16,
                  "matmul": 65, "mul": 16, "reshape": 28, "softmax": 8,
                  "transpose": 20}
STAGE2_RECORDS = {"add": 33, "batch_norm": 38, "bce_with_logits": 9,
                  "conv2d": 33, "deconv2d": 32, "gelu": 4, "layer_norm": 8,
                  "matmul": 33, "mul": 13, "reshape": 24, "softmax": 4,
                  "transpose": 16}


def test_tape_records_per_iteration(monkeypatch):
    """One 64x64 training iteration of the toy model at batch 2 records 315
    tape entries in stage one and 247 in stage two, counted per op. A change
    to the op graph changes these figures and must update them on purpose."""
    counts = []
    backward = T.backward

    def counting(loss):
        counts.append(Counter(r.adjoint.__qualname__.split(".")[0]
                              for r in T.active_tape().records))
        backward(loss)

    monkeypatch.setattr(T, "backward", counting)
    model = EdgeDetector(ModelConfig.toy(), seed=0)
    train_two_phase(model, _tiny_scenes(size=64),
                    TrainConfig(iterations_stage1=1, iterations_stage2=1,
                                batch_size=2, crop=64, seed=0))
    assert counts == [STAGE1_RECORDS, STAGE2_RECORDS]
    assert [sum(c.values()) for c in counts] == [315, 247]


def test_one_layout_through_a_training_iteration(monkeypatch):
    """One 64x64 iteration of each stage of the toy model at batch 2: every
    conv2d, deconv2d and batch_norm output with more than one channel, and
    every gradient handed to a batch_norm adjoint, is channels-last, the
    NCHW view of (B, H, W, C) rows."""
    bad, seen = [], set()

    def check(what, a):
        seen.add(what)
        if a.shape[1] > 1 and a.strides[1] != a.itemsize:
            bad.append((what, a.shape, a.strides))

    def spy(name, op):
        def run(*args, **kwargs):
            out = op(*args, **kwargs)
            check(name, out.data)
            records = T.active_tape().records
            if name == "batch_norm" and records and records[-1].out is out:
                adjoint = records[-1].adjoint
                records[-1].adjoint = lambda g: (check("bn_grad", g), adjoint(g))[1]
            return out
        return run

    for name in ("conv2d", "deconv2d", "batch_norm"):
        monkeypatch.setattr(T, name, spy(name, getattr(T, name)))
    model = EdgeDetector(ModelConfig.toy(), seed=0)
    train_two_phase(model, _tiny_scenes(size=64),
                    TrainConfig(iterations_stage1=1, iterations_stage2=1,
                                batch_size=2, crop=64, seed=0))
    assert seen == {"conv2d", "deconv2d", "batch_norm", "bn_grad"}
    assert bad == []


def test_side_outputs_count_range_and_gradient_reach():
    cfg = ModelConfig.toy(input_hw=(32, 32))
    model = EdgeDetector(cfg, seed=2)
    model.train()
    img = rng.random((1, 3, 32, 32))
    y = (rng.random((1, 1, 32, 32)) < 0.1).astype(np.float64)
    with T.fresh_tape():
        _, _, paths = model.run_stage1(img)
        sides = model.side_outputs(paths, "global", (32, 32))
        assert len(sides) == 8
        for s in sides:
            assert s.shape == (1, 1, 32, 32)
            with T.no_grad():
                p = T.sigmoid(s).data
            assert 0.0 < p.min() and p.max() < 1.0
        loss = stage_loss(Tensor(np.zeros((1, 1, 32, 32))), sides, y)
        T.backward(loss)
    for hw in ((16, 16), (32, 48)):  # the heads give exactly 32 x 32
        with pytest.raises(ShapeError):
            model.side_outputs(paths, "global", hw)
    for conv in list(model.global_stage.decoder.td_conv) + \
            list(model.global_stage.decoder.bu_conv):
        assert conv.weight.grad is not None
        assert np.abs(conv.weight.grad).max() > 0


def _dtypes(model):
    return ({p.data.dtype for p in model.parameters()}
            | {b.dtype for _, b in model.named_buffers()})


def test_training_leaves_float64_masters():
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    before = {n: p.data for n, p in model.named_parameters()}
    train_two_phase(model, _tiny_scenes(),
                    TrainConfig(iterations_stage1=1, iterations_stage2=1,
                                batch_size=1, crop=32, seed=0))
    assert _dtypes(model) == {np.dtype(np.float64)}
    # the masters were stepped in place and handed back
    assert all(p.data is before[n] for n, p in model.named_parameters())
    assert T.current_dtype() == np.float64


def test_error_mid_training_still_leaves_float64_masters(monkeypatch):
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    before = {n: p.data for n, p in model.named_parameters()}

    def broken(*args):
        assert T.current_dtype() == np.float32
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        raise RuntimeError("stage two failed")

    monkeypatch.setattr(model, "run_stage2", broken)
    with pytest.raises(RuntimeError, match="stage two failed"):
        train_two_phase(model, _tiny_scenes(),
                        TrainConfig(iterations_stage1=1, iterations_stage2=1,
                                    batch_size=1, crop=32, seed=0))
    assert _dtypes(model) == {np.dtype(np.float64)}
    assert all(p.data is before[n] for n, p in model.named_parameters())
    assert all(p.grad is None for p in model.parameters())
    assert T.current_dtype() == np.float64


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverging_run_raises_numeric_error():
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    tcfg = TrainConfig(base_lr=1e8, iterations_stage1=6, iterations_stage2=0,
                       batch_size=2, crop=32, seed=0)
    with pytest.raises(NumericError, match=r"stage 1 iteration \d+: "):
        train_two_phase(model, _tiny_scenes(), tcfg)
    assert _dtypes(model) == {np.dtype(np.float64)}


def test_non_finite_running_statistic_named():
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    bn = model.local_stage.decoder.smooth.c2.bn
    bn.running_var[1] = np.inf
    tcfg = TrainConfig(iterations_stage1=1, iterations_stage2=1, batch_size=1,
                       crop=32, seed=0)
    with pytest.raises(NumericError, match=r"stage 1 iteration 0: .*"
                       r"local_stage\.decoder\.smooth\.c2\.bn\.running_var"):
        train_two_phase(model, _tiny_scenes(), tcfg)


def test_non_finite_gradient_named(monkeypatch):
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    backward = T.backward

    def poisoned(loss):
        backward(loss)
        model.global_stage.head.weight.grad[0, 0, 0, 0] = np.nan

    monkeypatch.setattr(T, "backward", poisoned)
    tcfg = TrainConfig(iterations_stage1=2, iterations_stage2=0, batch_size=1,
                       crop=32, seed=0)
    with pytest.raises(NumericError, match=r"stage 1 iteration 0: gradient norm "
                       r"is nan; .*global_stage\.head\.weight"):
        train_two_phase(model, _tiny_scenes(), tcfg)
