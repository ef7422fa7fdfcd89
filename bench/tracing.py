"""Span tracing around the calls into edgekit's layers, from outside the package.

The tracer replaces public functions and methods of the edgekit modules with
wrappers that record one span per call: name, start, end, parent span and the
benchmark operation it belongs to. Spans stay in memory and are written out
when the run ends. Tensor primitives additionally get their tape record's
adjoint wrapped, so backward time is attributed per op. Counts that the
per-layer metrics need (tape records per iteration, tape bytes, matches per
call) are taken at the same call boundaries.

Nothing here changes what the wrapped code computes: every wrapper calls the
original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict

import numpy as np

from edgekit import checkpoint, evalbench, model, rasters, synth, train
from edgekit import tensor as T

# Tensor primitives traced with their adjoints; the per-layer table reports
# the first nine by name and folds the rest into the tensor layer's share.
REPORTED_OPS = ("conv2d", "deconv2d", "batch_norm", "matmul", "softmax",
                "layer_norm", "gelu", "crop2d", "bilinear_resize")
OTHER_OPS = ("add", "sub", "mul", "div", "exp", "log", "sqrt", "relu",
             "sigmoid", "clip", "tensor_sum", "tensor_mean", "reshape",
             "transpose", "concat")
LAYERS = ("tensor", "encoder", "decoder", "model", "train", "evalbench",
          "checkpoint", "rasters", "synth")
MATCH_SAMPLE_EVERY = 25


def _module_targets():
    """(owner, attribute, span name) for module functions and class methods."""
    targets = [(T, op, f"tensor.{op}") for op in REPORTED_OPS + OTHER_OPS]
    targets += [
        (model.EdgeDetector, "__init__", "model.build"),
        (model.EdgeDetector, "run_stage1", "model.stage1"),
        (model.EdgeDetector, "run_stage2", "model.stage2"),
        (model.EdgeDetector, "side_outputs", "model.side_heads"),
        (model.EdgeDetector, "infer", "model.infer"),
        (model.EdgeDetector, "infer_multiscale", "model.infer_multiscale"),
        (model.EdgeDetector, "load_state_arrays", "model.load_state"),
        (train, "train_two_phase", "train.train_two_phase"),
        (train, "stage_loss", "train.loss"),
        (train.SGD, "step", "train.sgd_step"),
        (train, "consensus_labels", "train.consensus_labels"),
        (evalbench, "evaluate_predictions", "evalbench.evaluate"),
        (evalbench, "nms_thin", "evalbench.nms"),
        (evalbench, "pr_sweep", "evalbench.sweep"),
        (evalbench, "aggregate_ods_ois_ap", "evalbench.aggregate"),
        (checkpoint, "save_checkpoint", "checkpoint.save"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
        (rasters, "save_edge_map", "rasters.save_edge_map"),
        (rasters, "load_edge_map", "rasters.load_edge_map"),
        (rasters, "save_gray", "rasters.save_gray"),
        (rasters, "load_gray", "rasters.load_gray"),
        (synth, "generate_scene", "synth.generate_scene"),
    ]
    return targets


class Tracer:
    """In-memory spans plus the counts taken at traced call boundaries."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op)
        self._stack: list[int] = []
        self.op = -1                   # -1 while setting up
        self.stage = ""                # training phase label, set by the workload
        self.tape_records: dict[str, list[int]] = defaultdict(list)
        self.tape_bytes: list[int] = []
        self.match_calls = 0
        self.matches = 0
        self.match_samples: list = []  # (pred, gt, tol, program's count)
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent, self.op)
                stack.pop()

        traced._bench_traced = True
        return traced

    def _wrap_op(self, name, fn):
        """A tensor primitive: span the forward call and its tape adjoint."""
        fwd = self.wrap(name, fn)
        bwd_name = name + ".bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            records = T.active_tape().records
            n0 = len(records)
            out = fwd(*args, **kwargs)
            if len(records) > n0:
                rec = records[-1]
                if rec.out is out and not getattr(rec.adjoint, "_bench_traced", False):
                    rec.adjoint = self.wrap(bwd_name, rec.adjoint)
            return out

        return traced

    def _wrap_backward(self, fn):
        span = self.wrap("tensor.backward", fn)

        @functools.wraps(fn)
        def traced(loss):
            records = T.active_tape().records
            self.tape_records[self.stage].append(len(records))
            self.tape_bytes.append(_tape_bytes(records))
            return span(loss)

        return traced

    def _wrap_match(self, fn):
        span = self.wrap("evalbench.match", fn)

        @functools.wraps(fn)
        def traced(pred, gt, tol=evalbench.DEFAULT_TOLERANCE):
            mp, mg = span(pred, gt, tol)
            if self.op < 0:
                return mp, mg
            count = int(mp.sum())
            if self.match_calls % MATCH_SAMPLE_EVERY == 0:
                self.match_samples.append((np.array(pred, dtype=bool),
                                           np.array(gt, dtype=bool), tol, count))
            self.match_calls += 1
            self.matches += count
            return mp, mg

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap module functions and class methods of every traced layer."""
        for owner, attr, name in _module_targets():
            fn = owner.__dict__[attr]
            if owner is T:
                self._patch(owner, attr, self._wrap_op(name, fn))
            else:
                self._patch(owner, attr, self.wrap(name, fn))
        self._patch(T, "backward", self._wrap_backward(T.__dict__["backward"]))
        self._patch(evalbench, "match_correspondence",
                    self._wrap_match(evalbench.__dict__["match_correspondence"]))

    def model_built(self, detector) -> None:
        """Workload hook: wrap the new model's per-instance methods, whose span
        names depend on the stage they belong to."""
        for role, stage in (("global", detector.global_stage),
                            ("local", detector.local_stage)):
            self._patch_instance(stage.encoder, "forward", f"encoder.{role}")
            dec = stage.decoder
            self._patch_instance(dec, "forward", f"decoder.{role}")
            self._patch_instance(dec, "paths", f"decoder.{role}.paths")
            self._patch_instance(dec, "upsample", f"decoder.{role}.upsample")
            self._patch_instance(dec.smooth, "forward", f"decoder.{role}.smooth")
        self._patch_instance(detector.local_stage.fusion, "forward", "model.fusion")

    def _patch_instance(self, obj, attr, name):
        object.__setattr__(obj, attr, self.wrap(name, getattr(obj, attr)))
        self._undo.append((obj, attr, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                del owner.__dict__[attr]
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def set_stage(self, stage: str) -> None:
        """Workload hook: label the training phase the next tape belongs to."""
        self.stage = stage

    # -- results -------------------------------------------------------------

    def table(self):
        """Per-span arrays: names, op ids, durations, self times, parents."""
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("tracer still has open spans")
        names = np.array([s[0] for s in spans], dtype=object)
        start = np.array([s[1] for s in spans])
        end = np.array([s[2] for s in spans])
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        op = np.array([s[4] for s in spans], dtype=np.int64)
        dur = end - start
        child = np.zeros(len(spans))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return names, op, dur, dur - child, parent

    def write(self, path) -> None:
        """Write the spans as tab-separated text: name, op, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\top\tstart\tend\tparent\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{op}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def _tape_bytes(records) -> int:
    """Bytes of the distinct arrays the tape's records hold (outputs and inputs)."""
    seen = set()
    total = 0
    for rec in records:
        for t in (rec.out, *rec.inputs):
            a = t.data
            base = a if a.base is None else a.base
            if id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
