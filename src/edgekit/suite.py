"""The finite-difference gradient suite: per-layer checks plus a sweep over
every parameter of the full toy model, all in float64. Exposed through both
the CLI and the acceptance tests."""

from __future__ import annotations

import time

import numpy as np

from . import nn
from . import tensor as T
from .gradcheck import GradcheckReport, check_gradients, check_op, weighted_scalar
from .model import EdgeDetector, ModelConfig
from .tensor import Tensor
from .train import stage_loss, weighted_bce

LAYER_TOL = 1e-4
MODEL_TOL = 1e-4
# transformer widths of the block and encoder checks
_SMALL_BLOCKS = ModelConfig(embed_dim=8, heads=2, head_dim=4, mlp_ratio=2)


def _module_check(module: nn.Module, forward, rng,
                  probes: int = 4) -> GradcheckReport:
    with T.no_grad():
        out = forward()
    contract = weighted_scalar(out, rng)
    named = list(module.named_parameters())
    return check_gradients(lambda: contract(forward()), named, rng,
                           probes_per_tensor=probes)


@T.compute_dtype(np.float64)
def layer_checks(rng: np.random.Generator) -> list[tuple[str, GradcheckReport]]:
    r = rng.normal
    checks: list[tuple[str, GradcheckReport]] = [
        ("matmul", check_op(lambda a, b: T.matmul(a, b),
                            [r(size=(3, 4)), r(size=(4, 2))], rng)),
        ("matmul_batched", check_op(lambda a, b: T.matmul(a, b),
                                    [r(size=(2, 3, 4)), r(size=(4, 5))], rng)),
        ("softmax", check_op(lambda x: T.softmax(x, axis=-1),
                             [r(size=(5, 5))], rng)),
        ("add_broadcast", check_op(lambda a, b: T.add(a, b),
                                   [r(size=(2, 3, 4)), r(size=(4,))], rng)),
        ("mul_broadcast", check_op(lambda a, b: T.mul(a, b),
                                   [r(size=(2, 1, 4)), r(size=(2, 3, 1))], rng)),
        ("sub_broadcast", check_op(lambda a, b: T.sub(a, b),
                                   [r(size=(3, 4)), r(size=(3, 1))], rng)),
        ("div_broadcast", check_op(lambda a, b: T.div(a, b),
                                   [r(size=(3, 4)), np.abs(r(size=(4,))) + 0.5],
                                   rng)),
        ("conv2d", check_op(lambda x, w, b: T.conv2d(x, w, b),
                            [r(size=(2, 3, 6, 6)), r(size=(4, 3, 3, 3)),
                             r(size=4)], rng)),
        ("deconv2d", check_op(lambda x, w, b: T.deconv2d(x, w, b),
                              [r(size=(2, 2, 4, 4)), r(size=(2, 3, 4, 4)),
                               r(size=3)], rng)),
        ("layer_norm", check_op(lambda x, g, b: T.layer_norm(x, g, b),
                                [r(size=(4, 6)), r(size=6), r(size=6)], rng)),
        ("batch_norm_train",
         check_op(lambda x, g, b: T.batch_norm(x, g, b, np.zeros(3), np.ones(3)),
                  [r(size=(2, 3, 4, 4)), r(size=3), r(size=3)], rng)),
        ("relu", check_op(T.relu, [r(size=(4, 4)) + 0.05], rng)),
        ("sigmoid", check_op(T.sigmoid, [r(size=(4, 4))], rng)),
        ("gelu", check_op(T.gelu, [r(size=(4, 4))], rng)),
        ("exp", check_op(T.exp, [r(size=(3, 3))], rng)),
        ("log", check_op(T.log, [np.abs(r(size=(3, 3))) + 0.5], rng)),
        ("sqrt", check_op(T.sqrt, [np.abs(r(size=(3, 3))) + 0.5], rng)),
        ("clip", check_op(lambda x: T.clip(x, -0.5, 0.5),
                          [r(size=(4, 4)) * 2], rng)),
        ("tensor_sum_axis", check_op(lambda x: T.tensor_sum(x, axis=1),
                                     [r(size=(3, 4, 2))], rng)),
        ("tensor_mean", check_op(lambda x: T.tensor_mean(x, axis=(0, 2)),
                                 [r(size=(3, 4, 2))], rng)),
        ("reshape", check_op(lambda x: T.reshape(x, (6, 4)),
                             [r(size=(2, 3, 4))], rng)),
        ("transpose", check_op(lambda x: T.transpose(x, (2, 0, 1)),
                               [r(size=(2, 3, 4))], rng)),
        ("concat", check_op(lambda a, b: T.concat([a, b], axis=1),
                            [r(size=(2, 3)), r(size=(2, 2))], rng)),
        ("crop2d", check_op(lambda x: T.crop2d(x, 1, 2, 3, 3),
                            [r(size=(1, 2, 6, 6))], rng)),
        ("bilinear_resize", check_op(lambda x: T.bilinear_resize(x, (7, 5)),
                                     [r(size=(1, 2, 4, 4))], rng)),
    ]

    # the class-balanced loss with respect to the logits
    y = (rng.random((6, 6)) < 0.3).astype(np.float64)
    z = Tensor(rng.uniform(-4.0, 4.0, size=(6, 6)), requires_grad=True)
    checks.append(("weighted_bce", check_gradients(
        lambda: weighted_bce(z, y), [("logits", z)], rng, probes_per_tensor=8)))

    from .encoder import TransformerBlock

    block = TransformerBlock(_SMALL_BLOCKS, rng)
    zdata = rng.normal(size=(1, 5, 8))
    checks.append(("transformer_block",
                   _module_check(block, lambda: block(Tensor(zdata)), rng,
                                 probes=2)))

    from .model import FeatureFusion, SideHead

    ffm = FeatureFusion(4, rng)
    fg = rng.normal(size=(1, 4, 6, 6))
    fr = rng.normal(size=(1, 4, 6, 6))
    checks.append(("feature_fusion",
                   _module_check(ffm, lambda: ffm(Tensor(fg), Tensor(fr)), rng,
                                 probes=2)))

    side = SideHead(3, 2, 8, rng)
    pmap = rng.normal(size=(1, 3, 3, 3))
    checks.append(("side_head",
                   _module_check(side, lambda: side(Tensor(pmap)), rng, probes=2)))

    checks.append(("conv2d_list",
                   check_op(lambda a, b, c, w, bias: T.conv2d([a, b, c], w, bias),
                            [r(size=(2, 2, 5, 5)), r(size=(2, 3, 5, 5)),
                             r(size=(2, 1, 5, 5)), r(size=(4, 6, 3, 3)),
                             r(size=4)], rng)))

    # saturated logits (|z| > 17) in the first row, right and wrong
    logits = np.vstack([[-20.0, -18.0, 18.0, 20.0], 3.0 * r(size=(2, 4))])
    pos = (rng.random(logits.shape) < 0.5).astype(np.float64)
    pos[0] = (1.0, 0.0, 1.0, 0.0)
    scale = rng.uniform(0.2, 1.0, size=logits.shape)
    checks.append(("bce_with_logits", check_op(
        lambda z: T.bce_with_logits(z, scale * pos, scale * (1.0 - pos)),
        [logits], rng, probes_per_tensor=logits.size)))
    return checks


def _two_block_encoder_check(rng: np.random.Generator) -> tuple[str, GradcheckReport]:
    """Toy two-block encoder, every parameter probed."""
    from .encoder import Encoder

    enc = Encoder(_SMALL_BLOCKS, 8, (1, 2), (2, 2), rng)
    img = rng.random((1, 3, 16, 16))

    def loss_fn():
        taps, _ = enc(img)
        return T.add(T.tensor_sum(T.mul(taps[0], 0.7)), T.tensor_sum(taps[1]))

    return ("encoder_2block", check_gradients(
        loss_fn, list(enc.named_parameters()), rng, probes_per_tensor=2))


@T.compute_dtype(np.float64)
def full_model_check(seed: int = 0, probes_per_tensor: int = 1,
                     input_hw: tuple[int, int] = (64, 64)
                     ) -> GradcheckReport:
    """Probe every parameter of the toy detector through both stage losses.

    The scalar loss sums the stage-one and stage-two losses, so gradients
    reach all parameters in a single backward pass.
    """
    rng = np.random.default_rng(seed)
    cfg = ModelConfig.toy(input_hw=input_hw)
    model = EdgeDetector(cfg, seed=seed)
    model.train()
    img = rng.random((1, 3, *input_hw))
    labels = (rng.random((1, 1, *input_hw)) < 0.08).astype(np.float64)

    def loss_fn():
        f_g, e_g, gpaths = model.run_stage1(img)
        _, e_r, rpaths, _ = model.run_stage2(img, f_g)
        sides_g = model.side_outputs(gpaths, "global", input_hw)
        sides_r = model.side_outputs(rpaths, "local", input_hw)
        return T.add(stage_loss(e_g, sides_g, labels),
                     stage_loss(e_r, sides_r, labels))

    buffers = [(b, b.copy()) for _, b in model.named_buffers()]
    try:
        return check_gradients(loss_fn, list(model.named_parameters()), rng,
                               probes_per_tensor=probes_per_tensor)
    finally:
        for buf, saved in buffers:
            buf[...] = saved


@T.compute_dtype(np.float64)
def run_gradient_suite(seed: int = 0, full_model: bool = True,
                       verbose: bool = False) -> bool:
    """Run everything; returns True when all checks stay under tolerance."""
    rng = np.random.default_rng(seed)
    ok = True
    checks = layer_checks(rng)
    checks.append(_two_block_encoder_check(rng))
    for name, report in checks:
        passed = report.passed(LAYER_TOL)
        ok &= passed
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: "
                  f"max rel err {report.max_rel_err:.3e} "
                  f"({len(report.probes)} probes)")
    if full_model:
        t0 = time.time()
        report = full_model_check(seed=seed)
        passed = report.passed(MODEL_TOL)
        ok &= passed
        if verbose:
            worst = report.worst()
            print(f"[{'PASS' if passed else 'FAIL'}] full_model: "
                  f"max rel err {report.max_rel_err:.3e} over "
                  f"{len(report.probes)} probes in {time.time() - t0:.0f}s "
                  f"(worst: {worst.name if worst else 'n/a'})")
    return ok
