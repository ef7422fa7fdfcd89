"""Independent brute-force oracles used only by the test suite.

These deliberately re-implement matching and score aggregation with plain
loops and exact maximum-cardinality assignment (Kuhn's augmenting paths), so
the production bench can be checked against them. Its rule is the same: the
matching is maximum per annotator, with predicted pixels taken strongest
first, so the matched pixels are nested across thresholds. The bench finds it
with one incremental breadth-first matching per annotator on vectorized
candidate graphs; Kuhn's method, taking the rows in the order given, finds it
by depth-first search. The evaluation's earlier non-maximum suppression,
which tests every pixel of the map, is here to check the one that tests the
nonzero pixels only.

The convolution and batch-norm references are the engine's earlier
kernels: a transposed convolution scattered one kernel tap at a time (its
padded form slices the full map), a conv2d that multiplies one im2col matrix
(every receptive field as a row) by the flattened kernel, a training batch
norm that keeps its normalized map for the adjoint, and the eval-mode batch
norm + ReLU that normalized by the running moments before the model folded
it into its convolutions. The class-balanced loss as the engine computed
it from probabilities, through a sigmoid, a clamp and two logs, checks the
weighted sigmoid cross-entropy of logits that replaced it. The inverse of
the encoder's windowed patch layout is here too, because only tests need
it, and so is the model's earlier inference path: float64 throughout,
with that eval-mode batch norm run after each convolution instead of
folded in. The copies of stage one
that check the two-phase freeze are taken here, through a spy on phase
two's optimizer, so that training itself keeps none.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from edgekit import evalbench, nn, train
from edgekit import tensor as T
from edgekit.tensor import Tensor

THRESHOLDS = [k / 100.0 for k in range(1, 100)]


def ordered_matched_rows(pred_pts, gt_pts, radius: float) -> list[int]:
    """Indices of the predicted points matched by Kuhn's augmenting paths
    within ``radius``, taking the points in the order given: a point is
    matched iff the matching of the points before it can grow to include it."""
    pred_pts = [tuple(int(v) for v in p) for p in pred_pts]
    gt_pts = [tuple(int(v) for v in g) for g in gt_pts]
    r2 = radius * radius
    adj: list[list[int]] = []
    for py, px in pred_pts:
        row = [gi for gi, (gy, gx) in enumerate(gt_pts)
               if (py - gy) ** 2 + (px - gx) ** 2 <= r2]
        adj.append(row)

    match_of_gt: dict[int, int] = {}

    def augment(pi: int, seen: set[int]) -> bool:
        for gi in adj[pi]:
            if gi in seen:
                continue
            seen.add(gi)
            if gi not in match_of_gt or augment(match_of_gt[gi], seen):
                match_of_gt[gi] = pi
                return True
        return False

    return [pi for pi in range(len(pred_pts)) if augment(pi, set())]


def optimal_match_count(pred_pts, gt_pts, radius: float) -> int:
    """Maximum one-to-one matching within ``radius`` (Kuhn's augmenting paths)."""
    return len(ordered_matched_rows(pred_pts, gt_pts, radius))


def ranked_points(prob: np.ndarray) -> np.ndarray:
    """Nonzero pixels of ``prob``, strongest first, raster order among equals."""
    pts = np.argwhere(prob != 0)
    order = sorted(range(len(pts)), key=lambda i: -prob[tuple(pts[i])])
    return pts[order]


def nms_thin_dense(edge: np.ndarray) -> np.ndarray:
    """``evalbench.nms_thin`` as it was when every pixel, zero or not, took
    the two bilinear samples along its gradient normal."""
    edge = evalbench._finite_map(edge, "prediction")
    gy, gx = evalbench._central_gradients(evalbench._gaussian_smooth5(edge))
    mag = np.hypot(gy, gx)
    flat = mag == 0
    safe = np.where(flat, 1.0, mag)
    uy = gy / safe
    ux = gx / safe
    h, w = edge.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    keep = np.ones_like(edge, dtype=bool)
    for sign in (1.0, -1.0):
        val, valid = evalbench._bilinear_sample(edge, yy + sign * uy, xx + sign * ux)
        keep &= (edge >= val) | ~valid
    keep |= flat
    return edge * keep


def optimal_match_mask(pred: np.ndarray, gt: np.ndarray,
                       tol: float) -> tuple[int, int]:
    """Matched pred / gt counts under optimal assignment (equal by symmetry)."""
    h, w = pred.shape
    radius = tol * math.hypot(h, w)
    pred_pts = np.argwhere(pred)
    gt_pts = np.argwhere(gt)
    c = optimal_match_count(pred_pts, gt_pts, radius)
    return c, c


def brute_force_report(preds, gt_stacks, tol: float):
    """Re-derive the ODS/OIS/AP triple with loops and optimal matching.

    Semantics mirror the bench: 99 thresholds, per-annotator one-to-one
    maximum matching with predicted pixels taken strongest first (true
    positive if matched in any map), pooled ground-truth
    recall, dataset-summed ODS, per-image-best OIS, and the envelope
    trapezoid AP anchored at recall 0 / precision 1.
    """
    per_image = []
    for pred, gts in zip(preds, gt_stacks):
        h, w = pred.shape
        radius = tol * math.hypot(h, w)
        rows = []
        total_gt = sum(int(np.sum(g)) for g in gts)
        for t in THRESHOLDS:
            pred_pts = [tuple(p) for p in ranked_points(np.where(pred >= t, pred, 0.0))]
            matched_pred_pixels = set()
            matched_gt = 0
            for g in gts:
                gt_pts = [tuple(q) for q in np.argwhere(np.asarray(g, bool))]
                # independent exact matching: per-annotator assignment,
                # predicted pixels taken strongest first
                hit = ordered_matched_rows(pred_pts, gt_pts, radius)
                matched_gt += len(hit)
                matched_pred_pixels.update(pred_pts[i] for i in hit)
            rows.append((len(matched_pred_pixels), len(pred_pts),
                         matched_gt, total_gt))
        per_image.append(rows)

    def prf(mp, tp, mg, tg):
        p = 1.0 if tp == 0 else mp / tp
        r = 1.0 if tg == 0 else mg / tg
        f = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
        return p, r, f

    totals = [tuple(sum(img[k][i] for img in per_image) for i in range(4))
              for k in range(len(THRESHOLDS))]
    fs = [prf(*totals[k])[2] for k in range(len(THRESHOLDS))]
    ods = max(fs)

    ois_counts = [0.0, 0.0, 0.0, 0.0]
    for rows in per_image:
        best = max(range(len(THRESHOLDS)), key=lambda k: prf(*rows[k])[2])
        for i in range(4):
            ois_counts[i] += rows[best][i]
    ois = prf(*ois_counts)[2]

    pts = [(0.0, 1.0)]
    for k in range(len(THRESHOLDS)):
        p, r, _ = prf(*totals[k])
        pts.append((r, p))
    pts.sort()
    rs = [r for r, _ in pts]
    ps = [p for _, p in pts]
    env = ps[:]
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    ap = sum((rs[i + 1] - rs[i]) * (env[i + 1] + env[i]) * 0.5
             for i in range(len(rs) - 1))
    return ods, ois, ap


def deconv_loop(y: np.ndarray, w: np.ndarray, sh: int, sw: int,
                dtype=np.float64) -> np.ndarray:
    """Transposed convolution of NCHW ``y`` with a (C_in, C_out, kh, kw)
    kernel, scattering each of the kh*kw taps with one strided add, in
    ``dtype``."""
    b, co, h, wdt = y.shape
    _, ci, kh, kw = w.shape
    y, w = y.astype(dtype, copy=False), w.astype(dtype, copy=False)
    out = np.zeros((b, ci, (h - 1) * sh + kh, (wdt - 1) * sw + kw), dtype=dtype)
    spread = y.transpose(0, 2, 3, 1).reshape(b * h * wdt, co) @ w.reshape(co, -1)
    spread = spread.reshape(b, h, wdt, ci, kh, kw)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + (h - 1) * sh + 1:sh, j:j + (wdt - 1) * sw + 1:sw] += \
                spread[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return out


def deconv_padded(y: np.ndarray, w: np.ndarray, sh: int, sw: int,
                  ph: int, pw: int, dtype=np.float64) -> np.ndarray:
    """:func:`deconv_loop` with ph rows and pw columns sliced off each side."""
    out = deconv_loop(y, w, sh, sw, dtype)
    return out[:, :, ph:out.shape[2] - ph, pw:out.shape[3] - pw]


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int):
    b, c, hp, wp = xp.shape
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    cols = np.empty((b, ho, wo, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i:i + (ho - 1) * sh + 1:sh, j:j + (wo - 1) * sw + 1:sw]
            cols[..., i, j] = patch.transpose(0, 2, 3, 1)
    return cols.reshape(b * ho * wo, c * kh * kw), ho, wo


def conv_im2col(x: np.ndarray, w: np.ndarray, sh: int, sw: int,
                ph: int, pw: int) -> np.ndarray:
    """Cross-correlation of NCHW ``x`` with an OIHW kernel through im2col."""
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols, ho, wo = _im2col(xp, kh, kw, sh, sw)
    out = cols @ w.reshape(co, -1).T
    return out.reshape(x.shape[0], ho, wo, co).transpose(0, 3, 1, 2)


def conv_im2col_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray, sh: int,
                      sw: int, ph: int, pw: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sum(conv_im2col(x, w, ...) * g)`` with respect to x and
    w: the kernel's from the im2col matrix, the input's by scattering g back
    through the kernel and cropping the padding."""
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols, _, _ = _im2col(xp, kh, kw, sh, sw)
    gw = (cols.T @ g.transpose(0, 2, 3, 1).reshape(-1, co)).T.reshape(w.shape)
    gp = np.zeros(xp.shape)
    raw = deconv_loop(g, w, sh, sw)
    gp[:, :, :raw.shape[2], :raw.shape[3]] = raw
    gx = gp[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]]
    return gx, gw


def batch_norm_storing(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       running_mean: np.ndarray, running_var: np.ndarray,
                       g: np.ndarray, momentum: float = 0.1, eps: float = 1e-5):
    """Training-mode batch norm as the engine computed it when its record
    stored the normalized map ``y``: the output, then the adjoints of x, gain
    and bias for the output gradient ``g``. Updates the running moments in
    place."""
    b, c, h, w = x.shape
    n = b * h * w
    mu = x.mean(axis=(0, 2, 3))
    xc = x - mu[None, :, None, None]
    var = (xc * xc).mean(axis=(0, 2, 3))
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var * (n / (n - 1))
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv[None, :, None, None]
    out = y * gain[None, :, None, None] + bias[None, :, None, None]
    dy = g * gain[None, :, None, None]
    mean_dy = dy.mean(axis=(0, 2, 3))
    mean_dyy = (dy * y).mean(axis=(0, 2, 3))
    dx = (dy - mean_dy[None, :, None, None]
          - y * mean_dyy[None, :, None, None]) * inv[None, :, None, None]
    return out, dx, (g * y).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def probability_chain_bce(z: Tensor, w_pos: np.ndarray, w_neg: np.ndarray,
                          eps: float = 1e-7) -> Tensor:
    """Σ −w_pos·log e − w_neg·log(1 − e) for e = σ(z) clamped to [eps,
    1 − eps]: the heads' sigmoid and the loss's nine ops before
    ``tensor.bce_with_logits``. The clamp cuts the gradient of a logit
    beyond about ±16."""
    e = T.clip(T.sigmoid(z), eps, 1.0 - eps)
    ll = T.add(T.mul(T.log(e), w_pos), T.mul(T.log(T.sub(1.0, e)), w_neg))
    return T.mul(T.tensor_sum(ll), -1.0)


def batch_norm_relu_eval(x: Tensor, bn: nn.BatchNorm2d) -> Tensor:
    """Eval-mode batch norm of an NCHW tensor by ``bn``'s running moments,
    followed by a ReLU, as a constant tensor: the engine's op before the
    model folded eval mode into its convolutions. The float64 moments are
    cast to the input's dtype first, as that op did."""
    mean = bn.running_mean.astype(x.data.dtype, copy=False)
    inv = 1.0 / np.sqrt(bn.running_var.astype(x.data.dtype, copy=False) + bn.eps)
    y = (x.data - mean[:, None, None]) * inv[:, None, None]
    return Tensor(np.maximum(y * bn.gain.data[:, None, None]
                             + bn.bias.data[:, None, None], 0.0))


def unflatten_patches(patches: np.ndarray, grid: tuple[int, int], patch: int,
                      windows: int) -> np.ndarray:
    """Inverse of ``encoder.flatten_patches``, pixel by pixel: each row of
    (B * windows**2, gh * gw, patch * patch * 3) back into its window's
    patch of a (B, 3, H, W) image."""
    (gh, gw), p, d = grid, patch, windows
    b = patches.shape[0] // (d * d)
    image = np.empty((b, 3, d * gh * p, d * gw * p))
    for n in range(patches.shape[0]):
        bi, wi = divmod(n, d * d)
        wy, wx = divmod(wi, d)
        for t in range(gh * gw):
            ty, tx = divmod(t, gw)
            for k in range(p * p * 3):
                (py, px), ch = divmod(k // 3, p), k % 3
                image[bi, ch, (wy * gh + ty) * p + py,
                      (wx * gw + tx) * p + px] = patches[n, t, k]
    return image


def unfold_batch_norm_in_float64(monkeypatch) -> None:
    """Make ``infer`` and ``infer_multiscale`` compute in float64 on the
    float64 parameters, with every eval-mode batch norm a
    ``batch_norm_relu_eval`` call after its convolution, for the rest of the
    test."""
    monkeypatch.setattr(nn, "float32_working_copies", lambda model: nullcontext())
    monkeypatch.setattr(nn.ConvBNReLU, "forward",
                        lambda self, x: batch_norm_relu_eval(self.conv(x), self.bn))
    monkeypatch.setattr(nn.DeconvBNReLU, "forward",
                        lambda self, x: batch_norm_relu_eval(self.deconv(x), self.bn))


def stage1_state(model) -> dict[str, np.ndarray]:
    """Copies of every stage-one parameter and buffer of ``model`` by model
    name."""
    state = {n: p.data.copy() for n, p in model.stage1_parameters()}
    state.update(("global_stage." + n, b.copy())
                 for n, b in model.global_stage.named_buffers())
    return state


def spy_stage1_at_phase_two(monkeypatch, model) -> list[dict[str, np.ndarray]]:
    """A list that gets the ``stage1_state`` of ``model`` whenever
    ``train_two_phase`` builds phase two's optimizer, for the rest of the
    test: the state phase one left, which phase two keeps. The optimizer is
    built outside the working copies, so on a float64 model the state holds
    the float64 masters."""
    states = []
    sgd = train.SGD
    stage2 = [n for n, _ in model.stage2_parameters()]

    def spy(params, cfg, max_iterations):
        if [n for n, _ in params] == stage2:
            states.append(stage1_state(model))
        return sgd(params, cfg, max_iterations)

    monkeypatch.setattr(train, "SGD", spy)
    return states


def stage1_changes(model, before: dict[str, np.ndarray]) -> list[str]:
    """Names of the stage-one arrays of ``model`` that are missing, not
    float64, or not equal value for value to their copies in ``before``."""
    after = stage1_state(model)
    return sorted(n for n in after.keys() | before.keys()
                  if n not in after or n not in before
                  or not before[n].dtype == after[n].dtype == np.float64
                  or not np.array_equal(before[n], after[n]))
