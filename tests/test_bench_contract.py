"""The names the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` replaces tensor primitives and decoder methods by name,
so renaming or deleting one breaks ``bench/run.py --trace 1``. Its op lists
are read here with ``ast``, without importing the benchmark.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from edgekit import tensor as T
from edgekit.decoder import build_decoder
from edgekit.model import EdgeDetector, ModelConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
    decoders = [model.global_stage.decoder, model.local_stage.decoder]
    mla = ModelConfig(embed_dim=4, path_channels=4, smooth_channels=4,
                      decoder_arch="mla")
    decoders.append(build_decoder(mla, 16, 3, np.random.default_rng(0)))
    for dec in decoders:
        for attr in ("forward", "paths", "upsample"):
            assert callable(getattr(dec, attr)), (type(dec).__name__, attr)
        assert callable(dec.smooth.forward)
