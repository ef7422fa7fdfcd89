"""The benchmark's three closed-loop workloads over edgekit's public API.

A workload builds its inputs from a seed (``setup``), then the harness calls
``round`` again and again: one caller, each call starting when the previous
one returned. A round is a fixed set of operations, so every run attempts
whole rounds. ``round`` returns the seconds of its timed calls by name;
``check`` compares what the rounds produced against computations made apart
from the code under test, and returns one message per failed check.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter as clock
from types import SimpleNamespace

import numpy as np
from scipy.ndimage import gaussian_filter

from edgekit import evalbench, checkpoint, model, rasters, synth, train
from edgekit import tensor as T

import oracles

SIZE_64 = 64
BATCH = 2
TRAIN_SCENES = 8
ETA = 0.3                     # consensus threshold, the TrainConfig default
INFER_IMAGES = 2
SCALES = (0.5, 1.0, 1.5)
EVAL_SIZE = 256
ANNOTATORS = 5                # the generate_scene default
EVAL_IMAGES = 2
TILE = 64                     # an eval-256 map is a 4x4 mosaic of 64x64 scenes
BLUR_SIGMA = 1.0
RIDGE = 0.4                   # map value on a straight boundary line
NOISE_SIGMA = 0.05
SAMPLED_THRESHOLDS = (9, 29, 49, 69)   # indices into evalbench.THRESHOLDS
GRAD_TOL = 1e-4
# A batch changes the row count of every BLAS product, and with it the
# kernel's summation order, so batched and per-image maps agree to rounding.
BATCH_TOL = 1e-12


class Train64:
    """Two-phase training at batch 2 on 64x64 synthetic scenes.

    A round is one ``train_two_phase`` call with one stage-one iteration,
    then one call with one stage-two iteration (stage one frozen). Stage one
    is unfrozen again before the next round.
    """

    name = "train-64"
    ops_per_round = 2

    def setup(self, seed: int, hooks, workdir: Path):
        rng = np.random.default_rng(seed)
        scenes = []
        for _ in range(TRAIN_SCENES):
            image, _, maps = synth.generate_scene(rng, SIZE_64)
            stack = train.AnnotationStack(maps, train.consensus_labels(maps, ETA))
            scenes.append(train.Scene(image, stack))
        detector = model.EdgeDetector(model.ModelConfig.toy(), seed=seed)
        hooks.model_built(detector)
        state = SimpleNamespace(seed=seed, scenes=scenes, detector=detector,
                                rounds=0, losses=[], frozen=[])
        self.round(state, hooks)  # warm-up
        return state

    def round(self, state, hooks) -> dict[str, list[float]]:
        d = state.detector
        d.global_stage.set_requires_grad(True)
        cfg1 = train.TrainConfig(iterations_stage1=1, iterations_stage2=0,
                                 batch_size=BATCH, crop=SIZE_64,
                                 seed=state.seed * 7919 + state.rounds)
        cfg2 = replace(cfg1, iterations_stage1=0, iterations_stage2=1)
        state.rounds += 1
        hooks.set_stage("stage1")
        t0 = clock()
        r1 = train.train_two_phase(d, state.scenes, cfg1)
        t1 = clock()
        before = _stage1_digest(d)
        hooks.set_stage("stage2")
        t2 = clock()
        r2 = train.train_two_phase(d, state.scenes, cfg2)
        t3 = clock()
        state.frozen.append(before == _stage1_digest(d))
        state.losses += [loss for _, _, loss in r1.history + r2.history]
        return {"stage1": [t1 - t0], "stage2": [t3 - t2]}

    def check(self, state) -> list[str]:
        fails = []
        if len(state.losses) != 2 * state.rounds:
            fails.append(f"{len(state.losses)} losses for {state.rounds} rounds")
        if not all(math.isfinite(v) for v in state.losses):
            fails.append("a training loss is not finite")
        if not all(state.frozen):
            fails.append("stage-one arrays changed during phase two")
        errors = _gradient_errors(state)
        if max(errors) >= GRAD_TOL:
            fails.append(f"gradient vs central differences: rel errors {errors}")
        return fails

    def figures(self, parts, state) -> dict[str, float]:
        return {"stage1_iter_s": median(parts["stage1"]),
                "stage2_iter_s": median(parts["stage2"])}


def _stage1_digest(d) -> str:
    return oracles.arrays_digest(
        [(n, p.data) for n, p in d.global_stage.named_parameters()]
        + list(d.global_stage.named_buffers()))


def _gradient_errors(state) -> list[float]:
    """Central differences on one batch for three sampled parameters: two of
    stage one under the stage-one loss, one of stage two under its loss."""
    d = state.detector
    d.train()
    d.global_stage.set_requires_grad(True)
    x = np.stack([s.image for s in state.scenes[:BATCH]])
    y = np.stack([s.labels for s in state.scenes[:BATCH]])[:, None]
    hw = (SIZE_64, SIZE_64)

    def stage1_loss():
        _, e_g, paths = d.run_stage1(x)
        return train.stage_loss(e_g, d.side_outputs(paths, "global", hw), y)

    def stage2_loss():
        f_g, _, _ = d.run_stage1(x)
        _, e_r, paths, _ = d.run_stage2(x, f_g)
        return train.stage_loss(e_r, d.side_outputs(paths, "local", hw), y)

    rng = np.random.default_rng(state.seed)

    def pick(params, k):
        params = sorted(params, key=lambda kv: kv[0])
        chosen = rng.choice(len(params), size=k, replace=False)
        return [(params[i][1], int(rng.integers(params[i][1].data.size)))
                for i in chosen]

    return (oracles.central_difference_errors(stage1_loss, pick(d.stage1_parameters(), 2))
            + oracles.central_difference_errors(stage2_loss, pick(d.stage2_parameters(), 1)))


class InferEval64:
    """Checkpoint loading, single- and multi-scale inference, map files and
    evaluation of 64x64 images.

    A round predicts every image with ``infer`` and ``infer_multiscale``,
    writes both maps as PGM, reads them back and scores all of them in one
    ``evaluate_predictions`` call. At 64x64 the match radius is below one
    pixel, so matching reduces to pixel coincidence.
    """

    name = "infer-eval-64"
    ops_per_round = INFER_IMAGES

    def setup(self, seed: int, hooks, workdir: Path):
        rng = np.random.default_rng(seed)
        scenes = [synth.generate_scene(rng, SIZE_64) for _ in range(INFER_IMAGES)]
        fresh = model.EdgeDetector(model.ModelConfig.toy(), seed=seed)
        ckpt = workdir / "model.ckpt"
        checkpoint.save_checkpoint(ckpt, fresh.state_arrays(), fresh.cfg.canonical_text())
        # load the way the `edgekit infer` command does
        arrays, config_text = checkpoint.load_checkpoint(ckpt)
        detector = model.EdgeDetector(model.ModelConfig.from_canonical_text(config_text))
        detector.load_state_arrays(arrays)
        hooks.model_built(detector)
        state = SimpleNamespace(
            detector=detector, workdir=workdir,
            images=[image for image, _, _ in scenes],
            stacks=[maps for _, _, maps in scenes],
            first=None, tape_growth=[])
        self.round(state, hooks)  # warm-up
        return state

    def round(self, state, hooks) -> dict[str, list[float]]:
        d = state.detector
        tape_before = len(T.active_tape())
        infer_t, ms_t, io_t = [], [], 0.0
        raw, back = [], []
        for i, image in enumerate(state.images):
            t0 = clock()
            single = d.infer(image)
            t1 = clock()
            multi = d.infer_multiscale(image, SCALES)
            t2 = clock()
            infer_t.append(t1 - t0)
            ms_t.append(t2 - t1)
            paths = (state.workdir / f"{i:03d}.pgm", state.workdir / f"{i:03d}_ms.pgm")
            t0 = clock()
            for edge, path in zip((single, multi), paths):
                rasters.save_edge_map(edge[0], path)
            back += [rasters.load_edge_map(p) for p in paths]
            io_t += clock() - t0
            raw += [single, multi]
        stacks = [s for s in state.stacks for _ in range(2)]
        t0 = clock()
        report = evalbench.evaluate_predictions(back, stacks)
        t1 = clock()
        state.tape_growth.append(len(T.active_tape()) - tape_before)
        if state.first is None:
            state.first = (raw, back, stacks, report)
        return {"infer": infer_t, "infer_ms": ms_t, "io": [io_t], "eval": [t1 - t0]}

    def check(self, state) -> list[str]:
        fails = []
        raw, back, stacks, report = state.first
        for edge in raw:
            if edge.shape != (1, SIZE_64, SIZE_64):
                fails.append(f"map shape {edge.shape}")
            elif not np.isfinite(edge).all() or edge.min() < 0.0 or edge.max() > 1.0:
                fails.append("map not finite or outside [0, 1]")
        for edge, read in zip(raw, back):
            if read.shape != edge.shape[1:] or np.abs(read - edge[0]).max() > 0.5 / 255 + 1e-9:
                fails.append("map read back differs by more than PGM rounding")
        d = state.detector
        image = state.images[0]
        if not np.array_equal(d.infer_multiscale(image, (1.0,)), d.infer(image)):
            fails.append("infer_multiscale at scale 1.0 differs from infer")
        batched = d.infer(np.stack(state.images))
        singles = np.stack([d.infer(img) for img in state.images])
        if np.abs(batched - singles).max() > BATCH_TOL:
            fails.append("batched infer differs from per-image calls: max diff "
                         f"{np.abs(batched - singles).max():.3g}")
        if any(state.tape_growth):
            fails.append(f"inference recorded tape entries: {state.tape_growth}")
        radius = evalbench.DEFAULT_TOLERANCE * math.hypot(SIZE_64, SIZE_64)
        if radius >= 1.0:
            fails.append(f"match radius {radius:.2f} px is not below one pixel")
        for i, (read, gts) in enumerate(zip(back, stacks)):
            expect = oracles.coincidence_counts(evalbench.nms_thin(read), gts,
                                                evalbench.THRESHOLDS)
            if not np.array_equal(report.per_image_counts[i], expect):
                fails.append(f"map {i}: match counts differ from pixel coincidences")
        fails += _score_range(report)
        return fails

    def figures(self, parts, state) -> dict[str, float]:
        return {"infer_s": median(parts["infer"]), "infer_ms_s": median(parts["infer_ms"]),
                "eval_s_per_image": median(parts["eval"]) / (2 * INFER_IMAGES)}


def mosaic_scene(rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    """True boundary and annotator maps of a mosaic of 64x64 scenes.

    The boundary length of one scene varies about 2:1 with the seed, and the
    matcher's work with it; a mosaic of 16 scenes varies by a few percent.
    """
    k = EVAL_SIZE // TILE
    boundary = np.zeros((EVAL_SIZE, EVAL_SIZE), dtype=np.uint8)
    maps = [np.zeros_like(boundary) for _ in range(ANNOTATORS)]
    for i in range(k):
        for j in range(k):
            _, b, annotators = synth.generate_scene(rng, TILE, ANNOTATORS)
            window = (slice(i * TILE, (i + 1) * TILE), slice(j * TILE, (j + 1) * TILE))
            boundary[window] = b
            for m, a in zip(maps, annotators):
                m[window] = a
    return boundary, maps


def boundary_map(boundary: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A probability map made from a true boundary: Gaussian blur scaled so a
    straight line peaks at RIDGE, plus seeded Gaussian noise, clipped to [0, 1]."""
    line_peak = 1.0 / (math.sqrt(2.0 * math.pi) * BLUR_SIGMA)
    p = gaussian_filter(boundary.astype(np.float64), BLUR_SIGMA) * (RIDGE / line_peak)
    p += rng.normal(0.0, NOISE_SIGMA, size=p.shape)
    return np.clip(p, 0.0, 1.0)


class Eval256:
    """The evaluation protocol on 256x256 maps against five annotators.

    The match radius is 2.7 px, so correspondence matching does almost all of
    the work. A round is one ``evaluate_predictions`` call over every image.
    """

    name = "eval-256"
    ops_per_round = EVAL_IMAGES

    def setup(self, seed: int, hooks, workdir: Path):
        rng = np.random.default_rng(seed)
        preds, stacks, bounds = [], [], []
        for _ in range(EVAL_IMAGES):
            boundary, maps = mosaic_scene(rng)
            preds.append(boundary_map(boundary, rng))
            stacks.append(maps)
            bounds.append(boundary)
        return SimpleNamespace(preds=preds, stacks=stacks, bounds=bounds, report=None)

    def round(self, state, hooks) -> dict[str, list[float]]:
        t0 = clock()
        report = evalbench.evaluate_predictions(state.preds, state.stacks)
        t1 = clock()
        if state.report is None:
            state.report = report
        return {"eval": [t1 - t0]}

    def check(self, state) -> list[str]:
        fails = _score_range(state.report)
        tol = evalbench.DEFAULT_TOLERANCE
        thinned = evalbench.nms_thin(state.preds[0])
        for k in SAMPLED_THRESHOLDS:
            pred = thinned >= evalbench.THRESHOLDS[k]
            matched_gt = 0
            for gt in state.stacks[0]:
                mp, mg = evalbench.match_correspondence(pred, gt, tol)
                found, best = int(mp.sum()), oracles.max_matching(pred, gt, tol)
                if found != int(mg.sum()) or not (best <= 2 * found and found <= best):
                    fails.append(f"threshold {k}: {found} matches against a "
                                 f"maximum of {best}")
                matched_gt += int(mg.sum())
            if matched_gt != state.report.per_image_counts[0][k][2]:
                fails.append(f"threshold {k}: sweep count differs from direct matching")
        # one scene's boundary on a 256x256 canvas, so the radius stays 2.7 px
        truth = np.zeros_like(state.bounds[0])
        truth[:TILE, :TILE] = state.bounds[0][:TILE, :TILE]
        own = evalbench.evaluate_predictions([truth.astype(np.float64)], [[truth]],
                                             apply_nms=False)
        if any(p != 1.0 or r != 1.0 for _, p, r, _ in own.pr_table()):
            fails.append("a boundary scored against itself is not P = R = 1")
        return fails

    def figures(self, parts, state) -> dict[str, float]:
        return {"eval_s_per_image": median(parts["eval"]) / EVAL_IMAGES,
                "ods": state.report.ods}


def _score_range(report) -> list[str]:
    scores = (report.ods, report.ois, report.ap)
    if all(0.0 <= s <= 1.0 for s in scores):
        return []
    return [f"ODS/OIS/AP {scores} outside [0, 1]"]


WORKLOADS = {w.name: w for w in (Train64(), InferEval64(), Eval256())}
