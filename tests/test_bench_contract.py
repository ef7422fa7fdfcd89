"""The names and records the benchmark uses must exist in the package.

``bench/tracing.py`` replaces tensor primitives and model methods by name,
and reads and rewraps the tape records of the ops it wraps, so renaming or
deleting one breaks ``bench/run.py --trace 1``. ``bench/workloads.py``
builds its training settings by ``TrainConfig`` field name, so renaming a
field breaks ``train-64``. Every ``bench/*.py`` file is read here with
``ast``, without importing the benchmark, so that a name the benchmark
reads cannot be renamed or deleted without failing here.
"""

import ast
import importlib
import inspect
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


def _model_built_patches() -> set[tuple[str, str]]:
    """(owner expression, attribute) of each per-instance method that
    ``Tracer.model_built`` wraps."""
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "model_built":
            return {(ast.unparse(call.args[0]), call.args[1].value)
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "attr", "") == "_patch_instance"}
    raise AssertionError(f"Tracer.model_built not found in {TRACING}")


def test_traced_decoder_methods_exist():
    """Every method ``Tracer.model_built`` wraps exists on a built model:
    each stage's encoder and decoder methods and stage two's fusion. Its
    owners are the detector, a stage or a stage's decoder, which are not
    module aliases, so ``_bench_reads`` does not see them."""
    patches = _model_built_patches()
    assert patches >= {("stage.encoder", "forward"), ("dec", "forward"),
                       ("dec", "paths"), ("dec", "upsample"),
                       ("dec.smooth", "forward"),
                       ("detector.local_stage.fusion", "forward")}
    model = EdgeDetector(ModelConfig.toy(input_hw=(32, 32)), seed=0)
    for stage in (model.global_stage, model.local_stage):
        names = {"detector": model, "stage": stage, "dec": stage.decoder}
        for owner, attr in sorted(patches):
            first, *rest = owner.split(".")
            obj = names[first]
            for part in rest:
                obj = getattr(obj, part)
            assert callable(getattr(obj, attr)), (owner, attr)


def test_tape_records_expose_what_the_tracer_reads():
    """The tracer finds an op's record as the last one whose ``out`` is the
    returned tensor, sizes the tape from ``out`` and ``inputs``, and replaces
    ``adjoint`` with a timed wrapper."""
    x = T.Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
    bn = lambda t: T.batch_norm(t, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
                                np.zeros(3), np.ones(3))
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


def _bench_reads() -> set[tuple[str, str]]:
    """(file, dotted name) for each name a ``bench/*.py`` file reads from
    edgekit: the names it imports from an edgekit module, the attribute
    chains on the modules it imports, and the ``(owner, "attr", ...)``
    pairs by which it patches. A module's name stands for its alias."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "edgekit":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("edgekit.")):
                reads |= {(path.name, f"{node.module[8:]}.{a.name}") for a in node.names}

        def dotted(node):
            if isinstance(node, ast.Name):
                return modules.get(node.id)
            if isinstance(node, ast.Attribute) and (base := dotted(node.value)):
                return f"{base}.{node.attr}"
            return None

        for node in ast.walk(tree):
            if name := dotted(node):
                reads.add((path.name, name))
            pair = (node.elts if isinstance(node, ast.Tuple)
                    else node.args if isinstance(node, ast.Call) else [])
            if (len(pair) > 1 and (owner := dotted(pair[0]))
                    and isinstance(pair[1], ast.Constant) and isinstance(pair[1].value, str)):
                reads.add((path.name, f"{owner}.{pair[1].value}"))
    return reads


def _exists(dotted: str) -> bool:
    """Whether each step of ``dotted`` below ``edgekit`` names an attribute,
    as far as the steps go through modules and classes."""
    first, *rest = dotted.split(".")
    obj = importlib.import_module(f"edgekit.{first}")
    for part in rest:
        if not (inspect.ismodule(obj) or inspect.isclass(obj)):
            break
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_name_the_benchmark_reads_exists():
    reads = _bench_reads()
    assert {name.split(".")[0] for _, name in reads} >= {
        "model", "train", "evalbench", "checkpoint", "rasters", "synth", "tensor"}
    assert sorted(f"{file}: {name}" for file, name in reads if not _exists(name)) == []
