"""Boundary-detection evaluation: thinning, matching, and score aggregation.

The protocol: thin each probability map by non-maximum suppression along the
gradient normal, binarize at 99 thresholds, match predicted pixels against
every annotator map by an exact maximum one-to-one matching within a
tolerance radius (a fraction of the image diagonal), then aggregate
dataset-level ODS, per-image OIS, and the area under the precision-recall
curve.

The matching is maximum per annotator, with predicted pixels taken strongest
first, so the matched pixels are nested across thresholds: one incremental
matching per annotator and image serves all 99 thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, NumericError, ShapeError

THRESHOLDS = np.arange(1, 100) / 100.0
DEFAULT_TOLERANCE = 0.0075
# pixel-offset pairs a candidate-graph lookup gathers at once: about 13 bytes
# each (offset index, candidate, hit flag), so about 3.4 MB whatever the radius
GATHER_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# non-maximum suppression


def _gaussian_smooth5(x: np.ndarray) -> np.ndarray:
    """Separable 5x5 Gaussian (sigma 1), reflect-padded."""
    d = np.arange(-2, 3, dtype=np.float64)
    k = np.exp(-0.5 * d * d)
    k /= k.sum()
    p = np.pad(x, ((0, 0), (2, 2)), mode="reflect")
    cols = sum(k[i] * p[:, i:i + x.shape[1]] for i in range(5))
    p = np.pad(cols, ((2, 2), (0, 0)), mode="reflect")
    return sum(k[i] * p[i:i + x.shape[0], :] for i in range(5))


def _central_gradients(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences inside, one-sided at the borders, and zero along
    an axis of length one, which has no neighbour to difference."""
    gy, gx = (np.gradient(s, axis=a) if s.shape[a] > 1 else np.zeros_like(s)
              for a in (0, 1))
    return gy, gx


def _bilinear_sample(img: np.ndarray, ys: np.ndarray,
                     xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample at float coordinates; points outside the grid are invalid."""
    h, w = img.shape
    valid = (ys >= 0) & (ys <= h - 1) & (xs >= 0) & (xs <= w - 1)
    yc = np.clip(ys, 0, h - 1)
    xc = np.clip(xs, 0, w - 1)
    y0 = np.floor(yc).astype(np.intp)
    x0 = np.floor(xc).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = yc - y0
    wx = xc - x0
    val = (img[y0, x0] * (1 - wy) * (1 - wx) + img[y0, x1] * (1 - wy) * wx
           + img[y1, x0] * wy * (1 - wx) + img[y1, x1] * wy * wx)
    return val, valid


def nms_thin(edge: np.ndarray) -> np.ndarray:
    """Suppress pixels that are not local maxima along the gradient normal.

    Orientation comes from Gaussian-smoothed central-difference gradients of
    the probability map; a pixel survives iff its value is >= both bilinear
    samples one pixel away along +/- the gradient direction. Samples falling
    outside the image are skipped, zero-gradient plateaus are kept, and
    survivors keep their original probability. The smoothing and gradients
    cover the whole map; the test runs at the nonzero pixels only.
    """
    edge = _finite_map(edge, "prediction")
    gy, gx = _central_gradients(_gaussian_smooth5(edge))
    # a zero pixel stays zero whether it is kept or not
    at = np.flatnonzero(edge)
    ys, xs = np.divmod(at, edge.shape[1])
    gy, gx, value = gy.ravel()[at], gx.ravel()[at], edge.ravel()[at]
    mag = np.hypot(gy, gx)
    # a zero-gradient pixel samples itself twice, so the test keeps it
    safe = np.where(mag == 0, 1.0, mag)
    uy = gy / safe
    ux = gx / safe
    yy, xx = ys.astype(np.float64), xs.astype(np.float64)
    keep = np.ones(len(ys), dtype=bool)
    for sign in (1.0, -1.0):
        val, valid = _bilinear_sample(edge, yy + sign * uy, xx + sign * ux)
        keep &= (value >= val) | ~valid
    mask = np.zeros(edge.size, dtype=bool)
    mask[at] = keep
    return edge * mask.reshape(edge.shape)


# ---------------------------------------------------------------------------
# correspondence matching


class _Graph(NamedTuple):
    """Candidate pairs of ranked predicted pixels (rows, strongest first) and
    ground-truth pixels (columns, in raster order) within the tolerance
    radius, as CSR arrays with each row's candidates nearest first.
    ``own_matching`` holds each row's column (or -1) when no pixel on either
    side has two candidates: the graph is then its own maximum matching, and
    the strongest-first one, since no two rows compete for a column."""

    indptr: np.ndarray
    indices: np.ndarray
    gt_pts: np.ndarray
    own_matching: np.ndarray | None


def _finite_map(m, what: str) -> np.ndarray:
    """``m`` as a float64 2-D map of probabilities with at least one pixel:
    finite and in [0, 1], with the 1e-9 slack that ``rasters.save_gray``
    allows."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or not m.size:
        raise ShapeError(f"{what} must be a 2-D map with pixels, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericError(f"{what} has non-finite values")
    if m.min() < -1e-9 or m.max() > 1.0 + 1e-9:
        raise NumericError(
            f"{what} values outside [0, 1]: range [{m.min()}, {m.max()}]"
        )
    return m


def _annotator_maps(gts, shape: tuple[int, int]) -> list[np.ndarray]:
    """The annotator maps as boolean maps of ``shape``; a NaN would cast to
    an edge pixel, so non-finite values are an error."""
    maps = []
    for g in gts:
        g = np.asarray(g)
        if g.shape != shape:
            raise ShapeError(f"annotator map of shape {g.shape} against a "
                             f"prediction of shape {shape}")
        if g.dtype.kind in "fc" and not np.isfinite(g).all():
            raise NumericError("annotator map has non-finite values")
        maps.append(g.astype(bool))
    return maps


def _radius(shape: tuple[int, int], tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tol}")
    return tol * math.hypot(*shape)


def _ranked_pixels(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and values of the nonzero pixels, strongest first (raster
    order among equal values)."""
    pts = np.argwhere(m != 0)
    values = m[pts[:, 0], pts[:, 1]]
    order = np.argsort(-values, kind="stable")
    return pts[order], values[order]


def _disk(radius: float, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets (dy, dx) within ``radius``, nearest first, none longer
    along an axis than the map is wide."""
    h, w = shape
    ry = min(int(radius), h - 1)
    rx = min(int(radius), w - 1)
    dy, dx = np.mgrid[-ry:ry + 1, -rx:rx + 1].reshape(2, -1)
    d2 = dy * dy + dx * dx
    inside = d2 <= radius * radius
    dy, dx, d2 = dy[inside], dx[inside], d2[inside]
    nearest = np.lexsort((dx, dy, d2))
    return dy[nearest], dx[nearest]


def _within_reach(pts: np.ndarray, gts: list[np.ndarray],
                  disk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Whether each row of ``pts`` has a pixel of some annotator map at an
    offset of ``disk``: the union of the maps dilated by the disk, read at
    the rows."""
    union = np.logical_or.reduce(gts)
    h, w = union.shape
    dy, dx = disk
    ry, rx = dy.max(), dx.max()
    padded = np.zeros((h + 2 * ry, w + 2 * rx), dtype=bool)
    padded[ry:ry + h, rx:rx + w] = union
    reach = np.zeros_like(union)
    for y, x in zip((dy + ry).tolist(), (dx + rx).tolist()):
        reach |= padded[y:y + h, x:x + w]
    return reach[pts[:, 0], pts[:, 1]]


def _candidate_graph(pts: np.ndarray, gt: np.ndarray,
                     disk: tuple[np.ndarray, np.ndarray]) -> _Graph:
    """Pairs each row of ``pts`` with the ground-truth pixels at the offsets
    of ``disk``, nearest first: every pixel looks up the offsets in a flat
    index grid of the ground truth, padded by the radius, with no loop over
    pixels. The rows are looked up in blocks of at most ``GATHER_ENTRIES``
    pixel-offset pairs, so memory stays bounded however large the radius."""
    h, w = gt.shape
    dy, dx = disk
    ry, rx = dy.max(), dx.max()
    gt_pts = np.argwhere(gt)
    wp = w + 2 * rx
    index = np.full((h + 2 * ry) * wp, -1, dtype=np.int32)
    index[(gt_pts[:, 0] + ry) * wp + gt_pts[:, 1] + rx] = np.arange(len(gt_pts))
    at = (pts[:, 0] + ry) * wp + pts[:, 1] + rx
    offsets = dy * wp + dx
    step = max(1, GATHER_ENTRIES // len(offsets))
    degree, parts = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int32)]
    for start in range(0, len(pts), step):
        cand = index[at[start:start + step, None] + offsets]
        hit = cand >= 0
        degree.append(np.count_nonzero(hit, axis=1))
        parts.append(cand[hit])
    indptr = np.zeros(len(pts) + 1, dtype=np.int32)
    np.cumsum(np.concatenate(degree), out=indptr[1:])
    indices = np.concatenate(parts)

    own = None
    row_deg = np.diff(indptr)
    if not len(indices) or (row_deg.max() <= 1
                            and np.bincount(indices).max() <= 1):
        own = np.full(len(pts), -1, dtype=np.int32)
        own[row_deg > 0] = indices
    return _Graph(indptr, indices, gt_pts, own)


def _maximum_matching(graph: _Graph) -> np.ndarray:
    """Column matched to each row (-1 if none), rows taken strongest first.

    A row is matched iff the matching of the rows before it has an augmenting
    path from it, so for every n the matched rows among the first n form a
    maximum matching of those n rows: the greedy basis of the transversal
    matroid, nested across prefixes and independent of which path is taken.
    A row takes its nearest free candidate if it has one; otherwise a
    breadth-first search over alternating paths looks for a free column and
    flips the path to it, which never unmatches a row. The columns a failed
    search reaches are matched to rows whose candidates all lie among them,
    so no later path can leave them, and they are closed for good.
    """
    if graph.own_matching is not None:
        return graph.own_matching
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    col_of = [-1] * (len(indptr) - 1)
    row_of = [-1] * len(graph.gt_pts)
    closed: set[int] = set()
    for r in np.flatnonzero(np.diff(graph.indptr)).tolist():
        for c in indices[indptr[r]:indptr[r + 1]]:
            if row_of[c] < 0:
                row_of[c] = r
                col_of[r] = c
                break
        else:
            via: dict[int, int] = {}  # reached column -> row it was reached from
            queue = [r]
            free = -1
            for u in queue:
                for c in indices[indptr[u]:indptr[u + 1]]:
                    if c in via or c in closed:
                        continue
                    via[c] = u
                    if row_of[c] < 0:
                        free = c
                        break
                    queue.append(row_of[c])
                if free >= 0:
                    break
            if free < 0:
                closed.update(via)
                continue
            c = free
            while c >= 0:
                u = via[c]
                c_next = col_of[u]
                row_of[c] = u
                col_of[u] = c
                c = c_next
    return np.array(col_of, dtype=np.int32)


def match_correspondence(pred: np.ndarray, gt: np.ndarray,
                         tol: float = DEFAULT_TOLERANCE
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Maximum one-to-one matching of edge pixels within the tolerance radius.

    The radius is ``tol`` times the image diagonal. The nonzero pixels of
    ``pred`` are the predicted edges, taken strongest first (raster order
    among equals): a pixel is matched iff the matching of the stronger ones
    can grow to include it. The matched predicted pixels are therefore nested
    across thresholds, and a probability map zeroed below a threshold is
    matched exactly as ``pr_sweep`` matches it at that threshold. Returns
    boolean masks of matched predicted and matched ground-truth pixels.
    """
    pred = _finite_map(pred, "prediction")
    (gt,) = _annotator_maps([gt], pred.shape)
    pts, _ = _ranked_pixels(pred)
    graph = _candidate_graph(pts, gt, _disk(_radius(pred.shape, tol), pred.shape))
    cols = _maximum_matching(graph)
    matched_pred = np.zeros(pred.shape, dtype=bool)
    matched_gt = np.zeros(pred.shape, dtype=bool)
    hit = cols >= 0
    matched_pred[pts[hit, 0], pts[hit, 1]] = True
    g = graph.gt_pts[cols[hit]]
    matched_gt[g[:, 0], g[:, 1]] = True
    return matched_pred, matched_gt


# ---------------------------------------------------------------------------
# precision-recall sweep and aggregation


def pr_sweep(thinned: np.ndarray, gts: list[np.ndarray],
             tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Per-threshold counts against a multi-annotator ground truth.

    For each threshold the binarized prediction is matched against every
    annotator map; a predicted pixel counts as true positive if it matches
    in any map, while recall pools matched and total ground-truth pixels
    over all annotators. Returns an array of rows
    (matched_pred, total_pred, matched_gt, total_gt), one per threshold.

    Each annotator is matched once, over the pixels of the lowest threshold
    taken strongest first; the pixels matched at a higher threshold are the
    ones of its prefix, so every row is read from cumulative sums.
    """
    if not gts:
        raise InputError("need at least one ground-truth map")
    thinned = _finite_map(thinned, "prediction")
    gts = _annotator_maps(gts, thinned.shape)
    disk = _disk(_radius(thinned.shape, tol), thinned.shape)
    pts, values = _ranked_pixels(thinned)
    # pixels at or above each threshold: a prefix of the ranked rows
    prefix = np.searchsorted(-values, -THRESHOLDS, side="right")
    pts = pts[:prefix[0]]
    # a row with no annotator pixel in reach is never matched and never lies
    # on an augmenting path, so each annotator matches the rows in reach only
    reach = np.flatnonzero(_within_reach(pts, gts, disk))
    near = pts[reach]
    hits = np.zeros((len(gts), len(pts)), dtype=bool)
    total_gt = 0
    for hit, gt in zip(hits, gts):
        graph = _candidate_graph(near, gt, disk)
        hit[reach] = _maximum_matching(graph) >= 0
        total_gt += len(graph.gt_pts)
    any_so_far = np.concatenate(([0], np.cumsum(hits.any(axis=0))))
    gt_so_far = np.concatenate(([0], np.cumsum(hits.sum(axis=0))))
    return np.stack([any_so_far[prefix], prefix, gt_so_far[prefix],
                     np.full(len(prefix), total_gt)], axis=1).astype(np.int64)


def _prf(mp: float, tp: float, mg: float, tg: float) -> tuple[float, float, float]:
    p = 1.0 if tp == 0 else mp / tp
    r = 1.0 if tg == 0 else mg / tg
    f = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
    return p, r, f


@dataclass
class EvalReport:
    thresholds: np.ndarray
    per_image_counts: list[np.ndarray]
    totals: np.ndarray
    ods: float
    ois: float
    ap: float
    ods_threshold: float

    def pr_table(self) -> list[tuple[float, float, float, float]]:
        rows = []
        for t, (mp, tp, mg, tg) in zip(self.thresholds, self.totals):
            p, r, f = _prf(mp, tp, mg, tg)
            rows.append((float(t), p, r, f))
        return rows

    def summary(self) -> str:
        return f"ODS={self.ods:.3f} OIS={self.ois:.3f} AP={self.ap:.3f}"


def aggregate_ods_ois_ap(per_image_counts: list[np.ndarray]) -> EvalReport:
    """Reduce per-image threshold counts to the ODS/OIS/AP triple.

    ODS maximizes F over thresholds on dataset-summed counts; OIS sums each
    image's counts at its own best threshold; AP integrates the dataset
    precision-recall curve (trapezoids over recall, after enforcing a
    monotone precision envelope, anchored at the empty-prediction point
    recall 0 / precision 1).
    """
    if not per_image_counts:
        raise InputError("need counts for at least one image")
    totals = np.sum(per_image_counts, axis=0)

    f_per_t = [_prf(*totals[k])[2] for k in range(len(THRESHOLDS))]
    best_k = int(np.argmax(f_per_t))
    ods = f_per_t[best_k]

    ois_counts = np.zeros(4, dtype=np.float64)
    for counts in per_image_counts:
        fs = [_prf(*counts[k])[2] for k in range(len(THRESHOLDS))]
        ois_counts += counts[int(np.argmax(fs))]
    ois = _prf(*ois_counts)[2]

    pts = [(0.0, 1.0)]
    for k in range(len(THRESHOLDS)):
        p, r, _ = _prf(*totals[k])
        pts.append((r, p))
    pts.sort()
    rs = np.array([r for r, _ in pts])
    ps = np.array([p for _, p in pts])
    env = ps.copy()
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    ap = float(np.sum((rs[1:] - rs[:-1]) * (env[1:] + env[:-1]) * 0.5))

    return EvalReport(
        thresholds=THRESHOLDS.copy(),
        per_image_counts=[np.asarray(c) for c in per_image_counts],
        totals=totals,
        ods=float(ods),
        ois=float(ois),
        ap=ap,
        ods_threshold=float(THRESHOLDS[best_k]),
    )


def evaluate_predictions(preds: list[np.ndarray],
                         gt_stacks: list[list[np.ndarray]],
                         tol: float = DEFAULT_TOLERANCE,
                         apply_nms: bool = True) -> EvalReport:
    """Full protocol over a dataset of probability maps and annotator sets."""
    if len(preds) != len(gt_stacks):
        raise InputError(
            f"{len(preds)} predictions vs {len(gt_stacks)} ground-truth sets"
        )
    per_image = []
    for pred, gts in zip(preds, gt_stacks):
        thinned = nms_thin(pred) if apply_nms else np.asarray(pred, dtype=np.float64)
        per_image.append(pr_sweep(thinned, gts, tol))
    return aggregate_ods_ois_ap(per_image)


def write_pr_csv(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("threshold,precision,recall,f\n")
        for t, p, r, f in report.pr_table():
            fh.write(f"{t:.2f},{p:.9g},{r:.9g},{f:.9g}\n")
