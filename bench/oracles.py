"""Reference computations the benchmark checks edgekit's outputs against.

Each one is computed apart from the code it checks: maximum bipartite
matching through scipy, pixel coincidences with plain numpy, gradients by
central differences, and a hash of the stage-one arrays.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from edgekit import tensor as T


def max_matching(pred: np.ndarray, gt: np.ndarray, tol: float) -> int:
    """Size of the maximum one-to-one matching of edge pixels within the
    tolerance radius (``tol`` times the image diagonal)."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    h, w = pred.shape
    radius = tol * math.hypot(h, w)
    ppts = np.argwhere(pred)
    gindex = np.full((h, w), -1, dtype=np.int64)
    gpts = np.argwhere(gt)
    gindex[gpts[:, 0], gpts[:, 1]] = np.arange(len(gpts))
    if not len(ppts) or not len(gpts):
        return 0
    rows, cols = [], []
    reach = int(math.floor(radius))
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            if dy * dy + dx * dx > radius * radius:
                continue
            y = ppts[:, 0] + dy
            x = ppts[:, 1] + dx
            inside = np.flatnonzero((y >= 0) & (y < h) & (x >= 0) & (x < w))
            g = gindex[y[inside], x[inside]]
            hit = g >= 0
            rows.append(inside[hit])
            cols.append(g[hit])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(len(ppts), len(gpts)))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int((match >= 0).sum())


def coincidence_counts(thinned: np.ndarray, gts: list[np.ndarray],
                       thresholds: np.ndarray) -> np.ndarray:
    """Per-threshold (matched_pred, total_pred, matched_gt, total_gt) when only
    coincident pixels can match, as at a tolerance radius below one pixel."""
    gts = [np.asarray(g, dtype=bool) for g in gts]
    any_gt = np.logical_or.reduce(gts)
    total_gt = sum(int(g.sum()) for g in gts)
    rows = []
    for t in thresholds:
        p = thinned >= t
        rows.append((int((p & any_gt).sum()), int(p.sum()),
                     sum(int((p & g).sum()) for g in gts), total_gt))
    return np.array(rows, dtype=np.int64)


def arrays_digest(named_arrays) -> str:
    """SHA-256 over (name, bytes) pairs in name order."""
    h = hashlib.sha256()
    for name, a in sorted(named_arrays, key=lambda kv: kv[0]):
        h.update(name.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def central_difference_errors(loss_fn, probes, steps=(1e-5, 1e-6, 1e-7)):
    """Relative errors between tape gradients and central differences.

    ``probes`` lists (tensor, flat index). The error of a probe is
    |analytic - numeric| / max(1, |analytic|, |numeric|), the smallest over
    ``steps``: a step that straddles a ReLU kink is off, a smaller one is not,
    while a wrong adjoint is off at every step.
    """
    tensors = {id(p): p for p, _ in probes}
    for p in tensors.values():
        p.grad = None
    with T.fresh_tape():
        T.backward(loss_fn())
    errors = []
    with T.no_grad():
        for p, i in probes:
            analytic = float(p.grad.reshape(-1)[i])
            flat = p.data.reshape(-1)
            orig = flat[i]
            best = math.inf
            for h in steps:
                flat[i] = orig + h
                hi = loss_fn().item()
                flat[i] = orig - h
                lo = loss_fn().item()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * h)
                err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
                best = min(best, err)
                if best < 5e-5:
                    break
            errors.append(best)
    return errors
