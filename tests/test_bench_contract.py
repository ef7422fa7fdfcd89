"""The names and records the benchmark uses must exist in the package.

``bench/tracing.py`` replaces tensor primitives and decoder methods by name,
and reads and rewraps the tape records of the ops it wraps, so renaming or
deleting one breaks ``bench/run.py --trace 1``. ``bench/workloads.py``
builds its training settings by ``TrainConfig`` field name, so renaming a
field breaks ``train-64``. Both files are read here with ``ast``, without
importing the benchmark.
"""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from edgekit import tensor as T
from edgekit.model import EdgeDetector, ModelConfig
from edgekit.train import TrainConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def _tuple_constant(name: str) -> tuple[str, ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


@pytest.mark.parametrize("name", ["REPORTED_OPS", "OTHER_OPS"])
def test_traced_ops_are_tensor_functions(name):
    ops = _tuple_constant(name)
    assert ops
    for op in ops:
        assert callable(T.__dict__.get(op)), op


def test_traced_decoder_methods_exist():
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    for dec in (model.global_stage.decoder, model.local_stage.decoder):
        for attr in ("forward", "paths", "upsample"):
            assert callable(getattr(dec, attr)), (type(dec).__name__, attr)
        assert callable(dec.smooth.forward)


def test_tape_records_expose_what_the_tracer_reads():
    """The tracer finds an op's record as the last one whose ``out`` is the
    returned tensor, sizes the tape from ``out`` and ``inputs``, and replaces
    ``adjoint`` with a timed wrapper."""
    x = T.Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
    bn = lambda t: T.batch_norm(t, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
                                np.zeros(3), np.ones(3), training=True)
    with T.fresh_tape():
        for op in (T.relu, bn):
            out = op(x)
            rec = T.active_tape().records[-1]
            assert rec.out is out
            assert rec.inputs[0] is x
            assert all(isinstance(t.data, np.ndarray) for t in rec.inputs)
            adjoint = rec.adjoint
            rec.adjoint = lambda g, adjoint=adjoint: adjoint(g)
            assert rec.adjoint(np.ones_like(out.data))[0].shape == x.shape


def test_workload_train_settings_are_train_config_fields():
    """Every keyword ``bench/workloads.py`` passes to ``TrainConfig(...)``
    or ``replace(...)`` (its only dataclass copy) names a field."""
    passed = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("TrainConfig", "replace"):
                passed |= {kw.arg for kw in node.keywords}
    assert {"crop", "iterations_stage1", "iterations_stage2"} <= passed
    assert passed <= {f.name for f in fields(TrainConfig)}
