"""Per-layer metrics derived from a traced run.

Times and counts named ``*_s``, ``*.calls`` and ``evalbench.matches`` are per
operation of the timed loop (an operation is one training iteration or one
image, as the workload defines it); ``_s`` times are inclusive of nested
spans. ``checkpoint.*`` and ``synth.scenes_s`` are per set-up, because those
layers only run while setting up. ``trace.share.<layer>`` is the layer's self
time as a share of the traced wall time (set-up plus loop), and
``trace.coverage`` their sum. A metric of a layer a workload does not run
reads 0.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS, REPORTED_OPS, layer_of
from oracles import max_matching

FIGURES = (("stage1_iter_s", "s", "lower"), ("stage2_iter_s", "s", "lower"),
           ("infer_s", "s", "lower"), ("infer_ms_s", "s", "lower"),
           ("eval_s_per_image", "s", "lower"), ("ods", "score", "higher"))


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [("tensor.backward_s", "s", "lower"),
             ("tensor.tape_records.stage1", "count", "lower"),
             ("tensor.tape_records.stage2", "count", "lower"),
             ("tensor.tape_mb", "MB", "lower")]
    for op in REPORTED_OPS:
        specs += [(f"tensor.{op}.fwd_s", "s", "lower"),
                  (f"tensor.{op}.bwd_s", "s", "lower"),
                  (f"tensor.{op}.calls", "count", "lower")]
    specs += [("encoder.global_s", "s", "lower"), ("encoder.local_s", "s", "lower")]
    for role in ("global", "local"):
        specs += [(f"decoder.{role}.{part}_s", "s", "lower")
                  for part in ("paths", "upsample", "smooth")]
    specs += [("model.side_heads_s", "s", "lower"), ("model.fusion_s", "s", "lower"),
              ("model.stage1_s", "s", "lower"), ("model.stage2_s", "s", "lower"),
              ("train.loss_s", "s", "lower"), ("train.sgd_step_s", "s", "lower"),
              ("evalbench.nms_s", "s", "lower"), ("evalbench.sweep_s", "s", "lower"),
              ("evalbench.match_s", "s", "lower"), ("evalbench.match.calls", "count", "lower"),
              ("evalbench.matches", "count", "higher"),
              ("evalbench.match_vs_max", "ratio", "higher"),
              ("evalbench.aggregate_s", "s", "lower"),
              ("checkpoint.save_s", "s", "lower"), ("checkpoint.load_s", "s", "lower"),
              ("rasters.io_s", "s", "lower"), ("synth.scenes_s", "s", "lower")]
    specs += [(f"trace.share.{layer}", "%", "lower") for layer in LAYERS]
    specs += [("trace.coverage", "%", "higher"), ("trace.overhead", "%", "lower"),
              ("trace.wall_s", "s", "lower")]
    specs += list(FIGURES)
    return specs


# per-operation inclusive times: metric name -> span name
SPAN_TIMES = {
    "tensor.backward_s": "tensor.backward",
    "encoder.global_s": "encoder.global", "encoder.local_s": "encoder.local",
    "model.side_heads_s": "model.side_heads", "model.fusion_s": "model.fusion",
    "model.stage1_s": "model.stage1", "model.stage2_s": "model.stage2",
    "train.loss_s": "train.loss", "train.sgd_step_s": "train.sgd_step",
    "evalbench.nms_s": "evalbench.nms", "evalbench.sweep_s": "evalbench.sweep",
    "evalbench.match_s": "evalbench.match", "evalbench.aggregate_s": "evalbench.aggregate",
}
for _role in ("global", "local"):
    for _part in ("paths", "upsample", "smooth"):
        SPAN_TIMES[f"decoder.{_role}.{_part}_s"] = f"decoder.{_role}.{_part}"
for _op in REPORTED_OPS:
    SPAN_TIMES[f"tensor.{_op}.fwd_s"] = f"tensor.{_op}"
    SPAN_TIMES[f"tensor.{_op}.bwd_s"] = f"tensor.{_op}.bwd"

# per-set-up inclusive times
SETUP_TIMES = {"checkpoint.save_s": "checkpoint.save",
               "checkpoint.load_s": "checkpoint.load",
               "synth.scenes_s": "synth.generate_scene"}


def per_layer_metrics(tracer, wall: float, plain: dict, traced: dict,
                      figures: dict) -> dict[str, tuple[float, str]]:
    names, op, dur, self_t, parent = tracer.table()
    in_loop = op >= 0
    n_ops = max(traced["attempted"], 1)
    by_name: dict[str, np.ndarray] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)
    by_name = {k: np.array(v) for k, v in by_name.items()}

    def total(span, mask):
        idx = by_name.get(span)
        return float(dur[idx][mask[idx]].sum()) if idx is not None else 0.0

    def count(span):
        idx = by_name.get(span)
        return int(in_loop[idx].sum()) if idx is not None else 0

    values: dict[str, float] = {}
    for metric, span in SPAN_TIMES.items():
        values[metric] = total(span, in_loop) / n_ops
    for metric, span in SETUP_TIMES.items():
        values[metric] = total(span, ~in_loop)
    for op_name in REPORTED_OPS:
        values[f"tensor.{op_name}.calls"] = count(f"tensor.{op_name}") / n_ops
    for stage in ("stage1", "stage2"):
        recs = tracer.tape_records.get(stage, [])
        values[f"tensor.tape_records.{stage}"] = float(np.mean(recs)) if recs else 0.0
    values["tensor.tape_mb"] = max(tracer.tape_bytes, default=0) / 1e6
    values["evalbench.match.calls"] = count("evalbench.match") / n_ops
    values["evalbench.matches"] = tracer.matches / n_ops
    found = sum(c for _, _, _, c in tracer.match_samples)
    best = sum(max_matching(p, g, tol) for p, g, tol, _ in tracer.match_samples)
    values["evalbench.match_vs_max"] = found / best if best else 0.0

    layers = np.array([layer_of(n) for n in names], dtype=object)
    parent_layer = np.where(parent >= 0, layers[np.maximum(parent, 0)], "")
    top_io = (layers == "rasters") & (parent_layer != "rasters") & in_loop
    values["rasters.io_s"] = float(dur[top_io].sum()) / n_ops
    shares = {layer: 100.0 * float(self_t[layers == layer].sum()) / wall
              for layer in LAYERS}
    for layer, share in shares.items():
        values[f"trace.share.{layer}"] = share
    values["trace.coverage"] = sum(shares.values())
    values["trace.overhead"] = 100.0 * (np.median(traced["op_s"]) / np.median(plain["op_s"]) - 1.0)
    values["trace.wall_s"] = wall
    for name, _, _ in FIGURES:
        values[name] = float(figures.get(name, 0.0))
    return {name: (float(values[name]), unit) for name, unit, _ in metric_specs()}
