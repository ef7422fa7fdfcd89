"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line. Run with ``pytest -v -s tests/test_acceptance.py``.

The overfit experiment (criteria 5 and 6) trains the toy model once on a
session fixture and is the slowest part; the gradient sweep (criterion 1)
probes every parameter tensor of the full toy model.
"""

import math
import time

import numpy as np
import pytest

from edgekit import tensor as T
from edgekit.encoder import Encoder, flatten_patches
from edgekit.evalbench import evaluate_predictions, match_correspondence, nms_thin
from edgekit.model import GLOBAL_PATCH, LOCAL_PATCH, EdgeDetector, ModelConfig
from edgekit.suite import full_model_check, layer_checks
from edgekit.synth import generate_scene
from edgekit.tensor import Tensor
from edgekit.train import (AnnotationStack, Scene, TrainConfig, consensus_labels,
                           stage_loss, train_two_phase, weighted_bce)

from oracles import (brute_force_report, optimal_match_count, spy_stage1_at_phase_two,
                     stage1_changes, unflatten_patches)

EVAL_TOL = 0.0075


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: gradient suite ---------------------------------------------

@pytest.mark.slow
def test_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)
    checks = layer_checks(rng)
    layer_ok = all(r.passed(1e-4) for _, r in checks)
    model_report = full_model_check(seed=0, probes_per_tensor=1)
    elapsed = time.time() - t0
    ok = (layer_ok and model_report.passed(1e-4) and elapsed < 600.0)
    report("gradient suite",
           ok,
           f"{len(checks)} layer checks, {len(model_report.probes)} model "
           f"parameters, max rel err {model_report.max_rel_err:.2e}, "
           f"{elapsed:.0f}s (< 600s)")


# -- criterion 2: shapes and normalization -------------------------------------

def test_shape_and_normalization_suite():
    rng = np.random.default_rng(1)
    # attention rows sum to 1 for every block and head
    cfg = ModelConfig()
    enc = Encoder(cfg, GLOBAL_PATCH, cfg.global_taps, (4, 4), 1, rng)
    patches, _ = flatten_patches(rng.random((1, 3, 64, 64)), GLOBAL_PATCH, 1)
    z = T.add(enc.proj(Tensor(patches)), enc.pos)
    max_row_err = 0.0
    with T.no_grad():
        for block in enc.blocks:
            w = block.attn.weights(block.norm1(z))  # (B, heads, N, N)
            max_row_err = max(max_row_err,
                              float(np.abs(w.data.sum(axis=-1) - 1.0).max()))
            z = block(z)
    rows_ok = max_row_err < 1e-12

    # every decoder/head output is 1xHxW across legal sizes
    shapes_ok = True
    for h in (32, 64, 96, 160):
        for w in (32, 64, 96, 160):
            net = EdgeDetector(ModelConfig.toy(input_hw=(h, w)), seed=0)
            net.eval()
            img = rng.random((1, 3, h, w))
            with T.no_grad():
                f_g, e_g, gpaths = net.run_stage1(img)
                _, e_r, rpaths, _ = net.run_stage2(img, f_g)
                sides = (net.side_outputs(gpaths, "global", (h, w))
                         + net.side_outputs(rpaths, "local", (h, w)))
            for out in [e_g, e_r] + sides:
                shapes_ok &= out.shape == (1, 1, h, w)

    # bit-exact windowed patchify round trip
    img = rng.random((2, 3, 96, 64))
    patches, grid = flatten_patches(img, LOCAL_PATCH, 2)
    round_ok = np.array_equal(unflatten_patches(patches, grid, LOCAL_PATCH, 2), img)

    report("shape/normalization suite",
           rows_ok and shapes_ok and round_ok,
           f"attention row-sum err {max_row_err:.1e} (< 1e-12), all outputs "
           f"1xHxW for H,W in {{32,64,96,160}}, partition round trip exact")


# -- criterion 3: loss arithmetic ----------------------------------------------

def test_loss_arithmetic():
    hand = weighted_bce(Tensor([0.0, 0.0]), np.array([1.0, 0.0])).item()
    log2_ok = abs(hand - math.log(2.0)) < 1e-12

    rng = np.random.default_rng(2)
    y = (rng.random((6, 6)) < 0.25).astype(np.float64)
    e = Tensor(rng.uniform(0.2, 0.8, size=(6, 6)))
    sides = [Tensor(rng.uniform(0.2, 0.8, size=(6, 6))) for _ in range(8)]
    lam = 0.4
    ref = weighted_bce(e, y).item()
    for s in sides:
        ref = ref + lam * weighted_bce(s, y).item()
    linear_ok = stage_loss(e, sides, y, lam).item() == ref

    # at a constant logit 0 (probability 0.5) each class weighs the other's
    # share of the pixels, so the loss is log 2 * 2 * pos * neg / total
    balance_err = 0.0
    for pos in (0, 1, 7, 35):
        yy = np.zeros(36)
        yy[:pos] = 1.0
        got = weighted_bce(Tensor(np.zeros(36)), yy).item()
        want = math.log(2.0) * 2.0 * pos * (36 - pos) / 36
        balance_err = max(balance_err, abs(got - want))
    balance_ok = balance_err < 1e-12

    report("loss arithmetic",
           log2_ok and linear_ok and balance_ok,
           f"log2 case err {abs(hand - math.log(2.0)):.1e} (< 1e-12), "
           f"lambda-linearity exact, class-balance weights err "
           f"{balance_err:.1e} (< 1e-12)")


# -- criteria 4-6: two-phase training, overfit, ablation ------------------------

@pytest.fixture(scope="session")
def overfit_run():
    rng = np.random.default_rng(11)
    raw = [generate_scene(rng, 64) for _ in range(8)]
    scenes = [Scene(img, AnnotationStack(maps, consensus_labels(maps, 0.3)))
              for img, _, maps in raw]
    model = EdgeDetector(ModelConfig.toy(), seed=0)
    tcfg = TrainConfig(base_lr=5e-4, iterations_stage1=400,
                       iterations_stage2=400, batch_size=2, crop=64,
                       seed=0, flip=False)
    with pytest.MonkeyPatch.context() as mp:
        phase_one = spy_stage1_at_phase_two(mp, model)
        t0 = time.time()
        result = train_two_phase(model, scenes, tcfg)
        train_seconds = time.time() - t0

    gts = [s.annotations.annotator_maps for s in scenes]
    preds_two = [model.infer(s.image[None])[0, 0] for s in scenes]
    with T.no_grad():
        preds_one = []
        for s in scenes:
            _, e_g, _ = model.run_stage1(s.image[None])
            preds_one.append(T.sigmoid(e_g).data[0, 0])
    rep_two = evaluate_predictions(preds_two, gts, tol=EVAL_TOL)
    rep_one = evaluate_predictions(preds_one, gts, tol=EVAL_TOL)
    return dict(model=model, result=result, train_seconds=train_seconds,
                phase_one=phase_one, rep_two=rep_two, rep_one=rep_one)


@pytest.mark.slow
def test_two_phase_freezing(overfit_run):
    (before,) = overfit_run["phase_one"]
    changed = stage1_changes(overfit_run["model"], before)
    report("two-phase protocol", not changed,
           f"{len(before) - len(changed)} of {len(before)} stage-one float64 "
           "masters and buffers equal to phase one's after phase two"
           + (f"; changed: {', '.join(changed[:3])}" if changed else ""))


@pytest.mark.slow
def test_overfit_experiment(overfit_run):
    rep = overfit_run["rep_two"]
    seconds = overfit_run["train_seconds"]
    history = overfit_run["result"].history
    losses1 = [loss for _, stage, loss in history if stage == 1]
    losses2 = [loss for _, stage, loss in history if stage == 2]
    tenth = max(1, len(losses1) // 10)
    decreasing = (np.median(losses1[-tenth:]) < np.median(losses1[:tenth])
                  and np.median(losses2[-tenth:]) < np.median(losses2[:tenth]))
    ok = rep.ods >= 0.85 and seconds < 7200 and decreasing
    report("overfit experiment", ok,
           f"{rep.summary()} on 8 training scenes after 800 iterations "
           f"({seconds:.0f}s < 2h), loss curves decreasing")


@pytest.mark.slow
def test_ablation_direction(overfit_run):
    two = overfit_run["rep_two"].ods
    one = overfit_run["rep_one"].ods
    ok = two >= one - 0.02
    report("ablation direction", ok,
           f"two-stage ODS {two:.3f} vs stage-one-only ODS {one:.3f} "
           f"(gain {two - one:+.3f}; the reference gain of +0.007 at paper "
           f"scale is not directly comparable)")


# -- criterion 7: evaluation oracle ---------------------------------------------

def test_evaluation_oracle():
    g = np.random.default_rng(2024)
    exact = 0
    for _ in range(50):
        pred = np.zeros((8, 8), bool)
        gt = np.zeros((8, 8), bool)
        npix = int(g.integers(1, 17))
        ngt = int(g.integers(1, 17))
        pred[g.integers(0, 8, npix), g.integers(0, 8, npix)] = True
        gt[g.integers(0, 8, ngt), g.integers(0, 8, ngt)] = True
        mp, mg = match_correspondence(pred, gt, tol=0.2)
        best = optimal_match_count(np.argwhere(pred), np.argwhere(gt),
                                   0.2 * math.hypot(8, 8))
        exact += int(mp.sum()) == int(mg.sum()) == best

    # handcrafted 6x6 set with unambiguous matchings
    preds, stacks = [], []
    gt1 = np.zeros((6, 6), np.uint8)
    gt1[1, 1:5] = 1
    preds.append(gt1.astype(float))
    stacks.append([gt1])
    gt_a = np.zeros((6, 6), np.uint8)
    gt_a[3, 1] = gt_a[3, 3] = 1
    gt_b = np.zeros((6, 6), np.uint8)
    gt_b[3, 1] = gt_b[4, 3] = 1
    p2 = np.zeros((6, 6))
    p2[3, 1] = 0.8
    p2[3, 3] = 0.6
    p2[0, 5] = 0.4
    preds.append(p2)
    stacks.append([gt_a, gt_b])
    gt_c = np.zeros((6, 6), np.uint8)
    gt_c[5, 0] = gt_c[5, 5] = 1
    p3 = np.zeros((6, 6))
    p3[5, 0] = 0.95
    p3[2, 2] = 0.3
    preds.append(p3)
    stacks.append([gt_c])
    for p in preds:
        assert np.array_equal(nms_thin(p), p)
    rep = evaluate_predictions(preds, stacks, tol=0.15)
    ods, ois, ap = brute_force_report(preds, stacks, 0.15)
    diff = max(abs(rep.ods - ods), abs(rep.ois - ois), abs(rep.ap - ap))

    ok = exact == 50 and diff < 1e-9
    report("evaluation oracle", ok,
           f"match count equals the optimal assignment on {exact}/50 "
           f"instances; 3-image report agrees with brute force to "
           f"{diff:.1e} (< 1e-9)")


# -- criterion 8: determinism ----------------------------------------------------

def test_determinism(tmp_path):
    from edgekit.cli import main

    data = tmp_path / "data"
    assert main(["synth", "--n", "2", "--seed", "5", "--size", "32",
                 "--out", str(data)]) == 0
    cfg_text = ("input_size=32\niterations=3\nbatch_size=1\nseed=2\n"
                "data_dir={d}\nout_dir={o}\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(cfg_text.format(d=data, o=out))
        assert main(["train", "--config", str(cfg)]) == 0
        outs.append(out)
    train_ok = ((outs[0] / "model.ckpt").read_bytes()
                == (outs[1] / "model.ckpt").read_bytes()
                and (outs[0] / "loss.csv").read_bytes()
                == (outs[1] / "loss.csv").read_bytes())

    img = data / "images" / "000.ppm"
    maps = []
    for tag in ("x", "y"):
        target = tmp_path / f"{tag}.pgm"
        assert main(["infer", "--ckpt", str(outs[0] / "model.ckpt"),
                     "--in", str(img), "--out", str(target)]) == 0
        maps.append(target.read_bytes())
    infer_ok = maps[0] == maps[1]

    pred = tmp_path / "pred"
    pred.mkdir()
    from edgekit.rasters import load_gray, save_edge_map

    gt_map = load_gray(data / "gt" / "000" / "annotator_1.pgm")
    save_edge_map((gt_map > 0.5).astype(float), pred / "000.pgm")
    gt_dir = tmp_path / "gt" / "000"
    gt_dir.mkdir(parents=True)
    import shutil

    shutil.copy(data / "gt" / "000" / "annotator_1.pgm",
                gt_dir / "annotator_1.pgm")
    csvs = []
    for tag in ("p", "q"):
        csv = tmp_path / f"{tag}.csv"
        assert main(["eval", "--pred", str(pred), "--gt", str(tmp_path / "gt"),
                     "--csv", str(csv)]) == 0
        csvs.append(csv.read_bytes())
    eval_ok = csvs[0] == csvs[1]

    report("determinism", train_ok and infer_ok and eval_ok,
           "train, infer, and eval reruns are byte-identical")
