"""Central finite-difference verification of tape gradients.

Every check runs the same recipe: compute a scalar loss once under the tape,
then probe coordinates of the checked tensors with central differences
(step 1e-5 by default) and compare against the recorded gradients. The
probing forward passes run with the tape disabled so they cost no memory.
Every check computes in float64, whatever compute dtype its caller set: a
float32 difference quotient at these steps is mostly rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class ProbeResult:
    name: str
    index: tuple[int, ...]
    analytic: float
    numeric: float

    @property
    def rel_err(self) -> float:
        scale = max(1.0, abs(self.analytic), abs(self.numeric))
        return abs(self.analytic - self.numeric) / scale


@dataclass
class GradcheckReport:
    probes: list[ProbeResult] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((p.rel_err for p in self.probes), default=0.0)

    def worst(self) -> ProbeResult | None:
        return max(self.probes, key=lambda p: p.rel_err, default=None)

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_rel_err < tol


@T.compute_dtype(np.float64)
def check_gradients(
    loss_fn: Callable[[], Tensor],
    checked: Sequence[tuple[str, Tensor]],
    rng: np.random.Generator,
    probes_per_tensor: int = 3,
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
) -> GradcheckReport:
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must be a pure function of the checked tensors' current data
    (it is re-evaluated many times). Probed coordinates are sampled per
    tensor; small tensors are probed exhaustively.

    A probe whose default-step difference disagrees is retried at smaller
    steps: crossing a ReLU-style kink contaminates the quotient at one step
    but converges to the true derivative as the step shrinks, whereas a
    wrong adjoint stays wrong at every step. The best probe is recorded.
    """
    for _, p in checked:
        p.grad = None
    with T.fresh_tape():
        loss = loss_fn()
        T.backward(loss)
    grads = {name: (p, None if p.grad is None else p.grad.copy())
             for name, p in checked}

    report = GradcheckReport()
    with T.no_grad():
        for name, (p, grad) in grads.items():
            if grad is None:
                raise AssertionError(f"no gradient reached parameter {name!r}")
            n = p.data.size
            if n <= probes_per_tensor:
                flat_idx = np.arange(n)
            else:
                flat_idx = rng.choice(n, size=probes_per_tensor, replace=False)
            flat = p.data.reshape(-1)
            for fi in sorted(int(i) for i in flat_idx):
                idx = np.unravel_index(fi, p.data.shape)
                analytic = float(grad[idx])
                orig = flat[fi]
                best: ProbeResult | None = None
                for h in (step, step / 10.0, step / 100.0):
                    flat[fi] = orig + h
                    hi = loss_fn().item()
                    flat[fi] = orig - h
                    lo = loss_fn().item()
                    flat[fi] = orig
                    probe = ProbeResult(name, tuple(int(i) for i in idx),
                                        analytic, (hi - lo) / (2.0 * h))
                    if best is None or probe.rel_err < best.rel_err:
                        best = probe
                    if best.rel_err < 0.5 * tol:
                        break
                report.probes.append(best)
    return report


def weighted_scalar(out: Tensor, rng: np.random.Generator) -> Callable:
    """Fixed random projection turning an op output into a scalar loss.

    Returns a helper that contracts any output of ``out``'s shape with the
    same random weights, so the projection is reused across finite-difference
    probes.
    """
    w = rng.normal(size=out.data.shape)

    def contract(t: Tensor) -> Tensor:
        return T.tensor_sum(T.mul(t, w))

    return contract


@T.compute_dtype(np.float64)
def check_op(
    op: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    rng: np.random.Generator,
    probes_per_tensor: int = 6,
    step: float = DEFAULT_STEP,
) -> GradcheckReport:
    """Gradcheck a single primitive: loss = <op(inputs), random weights>."""
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in inputs]
    with T.no_grad():
        probe_out = op(*tensors)
    contract = weighted_scalar(probe_out, rng)

    def loss_fn() -> Tensor:
        return contract(op(*tensors))

    named = [(f"arg{i}", t) for i, t in enumerate(tensors)]
    return check_gradients(loss_fn, named, rng,
                           probes_per_tensor=probes_per_tensor, step=step)
