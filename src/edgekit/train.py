"""Label consensus, class-balanced edge loss, SGD, and two-phase training.

Phase one optimizes the coarse context stage against the consensus labels
(main head plus weighted side outputs). Phase two freezes every stage-one
parameter, including batch-norm running statistics, and optimizes the
windowed refinement stage the same way. The heads emit logits; each head's
loss is one class-balanced sigmoid cross-entropy record taken from them.

Training computes in float32 while the optimizer steps float64 master
copies of the parameters; every parameter is its float64 master again when
training returns or fails. A loss, gradient or batch-norm statistic that
turns NaN or Inf stops training with a :class:`NumericError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .errors import ConfigError, InputError, NumericError, ShapeError, UsageError
from .model import EdgeDetector
from .tensor import Tensor


@dataclass
class AnnotationStack:
    """Binary maps from several annotators plus the derived consensus."""

    annotator_maps: list[np.ndarray]
    consensus: np.ndarray


def consensus_labels(annotator_maps: list[np.ndarray], eta: float) -> np.ndarray:
    """Positive where the mean annotator vote reaches ``eta``, else negative."""
    if not annotator_maps:
        raise InputError("need at least one annotator map")
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"consensus threshold must lie in (0, 1], got {eta}")
    prob = np.mean([m.astype(np.float64) for m in annotator_maps], axis=0)
    return (prob >= eta).astype(np.float64)


def ignore_band(annotator_maps: list[np.ndarray], eta: float) -> np.ndarray:
    """Pixels with some but sub-threshold votes (optional loss exclusion)."""
    prob = np.mean([m.astype(np.float64) for m in annotator_maps], axis=0)
    return (prob > 0.0) & (prob < eta)


def weighted_bce(logits: Tensor, labels: np.ndarray,
                 ignore: np.ndarray | None = None) -> Tensor:
    """Class-balanced binary cross entropy of edge logits, summed over
    pixels: one :func:`tensor.bce_with_logits` record.

    Positives are weighted by the negative-pixel fraction and vice versa, so
    the two classes contribute comparably despite edge sparsity. Inputs with
    a leading batch axis are averaged over the batch; the balance weight is
    computed per item. ``ignore`` marks pixels excluded from both the loss
    and the balance weight.
    """
    y = np.asarray(labels, dtype=T.current_dtype())
    if tuple(logits.shape) != y.shape:
        raise ShapeError(f"prediction {tuple(logits.shape)} vs labels {y.shape}")

    batched = y.ndim > 2
    items = y.shape[0] if batched else 1
    valid = np.ones_like(y) if ignore is None else (~np.asarray(ignore, bool)).astype(y.dtype)

    axes = tuple(range(1, y.ndim)) if batched else tuple(range(y.ndim))
    pos = (y * valid).sum(axis=axes, keepdims=True)
    neg = ((1.0 - y) * valid).sum(axis=axes, keepdims=True)
    total = pos + neg
    alpha = np.divide(neg, total, out=np.zeros_like(neg), where=total > 0)

    w_pos = alpha / items * y * valid
    w_neg = (1.0 - alpha) / items * (1.0 - y) * valid
    return T.bce_with_logits(logits, w_pos, w_neg)


@dataclass
class TrainConfig:
    eta: float = 0.3
    lam: float = 0.4
    base_lr: float = 5e-4
    iterations_stage1: int = 600
    iterations_stage2: int = 600
    batch_size: int = 2
    crop: int = 64
    seed: int = 0
    flip: bool = True
    use_ignore_band: bool = False
    momentum: float = 0.9
    weight_decay: float = 2e-4
    lr_power: float = 0.9

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if min(self.iterations_stage1, self.iterations_stage2) < 0:
            raise ConfigError("iteration counts must be >= 0, got "
                              f"{self.iterations_stage1}, {self.iterations_stage2}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, v in (("base_lr", self.base_lr), ("lr_power", self.lr_power)):
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {v}")
        for name, v in (("weight_decay", self.weight_decay), ("lam", self.lam)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


def stage_loss(logits: Tensor, sides: list[Tensor], labels: np.ndarray,
               lam: float = TrainConfig.lam,
               ignore: np.ndarray | None = None) -> Tensor:
    """Main-head loss plus ``lam`` times the summed side-output losses, all
    from logits."""
    loss = weighted_bce(logits, labels, ignore)
    for s in sides:
        loss = T.add(loss, T.mul(weighted_bce(s, labels, ignore), lam))
    return loss


class SGD:
    """Momentum SGD with decoupled-from-nothing weight decay folded into the
    velocity, under a polynomial learning-rate schedule.

    Each parameter has a float64 master that the step updates, and a
    float64 velocity. ``masters`` maps parameter names to their masters; a
    parameter without one is its own master when it is float64 and gets a
    float64 copy otherwise. A parameter whose data is not its master
    receives the master's cast after every step. The rate, momentum, decay
    and power are ``cfg``'s; the rate reaches zero at ``max_iterations``.
    """

    def __init__(self, params: list[tuple[str, Tensor]], cfg: TrainConfig,
                 max_iterations: int, masters: dict[str, np.ndarray] | None = None):
        self.params = list(params)
        self.cfg = cfg
        self.max_iterations = max_iterations
        self.iteration = 0
        masters = masters or {}
        self.masters = {name: masters[name] if name in masters
                        else p.data.astype(np.float64, copy=False)
                        for name, p in self.params}
        self.velocity = {name: np.zeros_like(m) for name, m in self.masters.items()}

    def lr(self, iteration: int | None = None) -> float:
        it = self.iteration if iteration is None else iteration
        frac = 1.0 - it / self.max_iterations
        return self.cfg.base_lr * max(frac, 0.0) ** self.cfg.lr_power

    def step(self) -> None:
        rate = self.lr()
        for name, p in self.params:
            if p.grad is None:
                raise UsageError(f"parameter {name} has no gradient; "
                                 "run backward before stepping")
            master, v = self.masters[name], self.velocity[name]
            v *= self.cfg.momentum
            v += p.grad + self.cfg.weight_decay * master
            master -= rate * v
            if master is not p.data:
                p.data[...] = master
        self.iteration += 1

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


@dataclass
class Scene:
    """One training example: image, annotator stack, consensus labels."""

    image: np.ndarray                 # (3, H, W) in [0, 1]
    annotations: AnnotationStack
    ignore: np.ndarray | None = None  # optional sub-threshold exclusion band

    @property
    def labels(self) -> np.ndarray:
        return self.annotations.consensus


@dataclass
class TrainResult:
    history: list[tuple[int, int, float]] = field(default_factory=list)


def _sample_batch(scenes: list[Scene], cfg: TrainConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    images, labels, ignores = [], [], []
    for _ in range(cfg.batch_size):
        scene = scenes[int(rng.integers(len(scenes)))]
        h, w = scene.image.shape[1:]
        top = int(rng.integers(h - cfg.crop + 1))
        left = int(rng.integers(w - cfg.crop + 1))
        img = scene.image[:, top:top + cfg.crop, left:left + cfg.crop]
        lab = scene.labels[top:top + cfg.crop, left:left + cfg.crop]
        ign = None
        if cfg.use_ignore_band:
            ign = scene.ignore[top:top + cfg.crop, left:left + cfg.crop]
        if cfg.flip and rng.random() < 0.5:
            img = img[:, :, ::-1]
            lab = lab[:, ::-1]
            ign = None if ign is None else ign[:, ::-1]
        images.append(img)
        labels.append(lab)
        ignores.append(ign)
    x = np.ascontiguousarray(np.stack(images), dtype=T.current_dtype())
    y = np.stack(labels)[:, None].astype(T.current_dtype())
    if cfg.use_ignore_band:
        return x, y, np.stack(ignores)[:, None]
    return x, y, None


def check_training_set(scenes: list[Scene], cfg: TrainConfig,
                       input_hw: tuple[int, int]) -> None:
    """Raise unless ``cfg`` can train a model of input ``input_hw`` on
    ``scenes``; it needs no model, so a caller can check before building one."""
    if not scenes:
        raise InputError("training set is empty")
    for i, s in enumerate(scenes):
        if cfg.crop > s.image.shape[1] or cfg.crop > s.image.shape[2]:
            raise ConfigError(
                f"crop {cfg.crop} exceeds image {s.image.shape[1:]}"
            )
        if cfg.use_ignore_band and s.ignore is None:
            raise InputError(f"use_ignore_band is set but scene {i} has no "
                             f"ignore band")
    if (cfg.crop, cfg.crop) != input_hw:
        raise ConfigError(f"crop {cfg.crop} must match model input {input_hw}")


def train_two_phase(model: EdgeDetector, scenes: list[Scene],
                    cfg: TrainConfig) -> TrainResult:
    """Optimize stage one, freeze it bit-exactly (the tests compare each of
    its masters and buffers), then optimize stage two."""
    check_training_set(scenes, cfg, model.cfg.input_hw)
    rng = np.random.default_rng(cfg.seed)
    result = TrainResult()
    model.train()
    with nn.float32_working_copies(model) as masters:
        _train_phase(model, scenes, cfg, rng, 1, result, masters)
        model.freeze_stage1()
        _train_phase(model, scenes, cfg, rng, 2, result, masters)
    return result


def _train_phase(model: EdgeDetector, scenes: list[Scene], cfg: TrainConfig,
                 rng: np.random.Generator, stage: int, result: TrainResult,
                 masters: dict[str, np.ndarray]) -> None:
    """Optimize one stage; stage two runs on top of the frozen stage one."""
    if stage == 1:
        iterations, params = cfg.iterations_stage1, model.stage1_parameters()
    else:
        iterations, params = cfg.iterations_stage2, model.stage2_parameters()
    opt = SGD(params, cfg, iterations, masters=masters)
    out_hw = (cfg.crop, cfg.crop)
    for it in range(iterations):
        x, y, ign = _sample_batch(scenes, cfg, rng)
        try:
            with T.fresh_tape():
                f_g, logits, paths = model.run_stage1(x)
                if stage == 2:
                    _, logits, paths, _ = model.run_stage2(x, f_g)
                sides = model.side_outputs(paths, "global" if stage == 1 else "local", out_hw)
                loss = stage_loss(logits, sides, y, cfg.lam, ign)
                T.backward(loss)
            value = loss.item()
            _check_finite(model, params, value)
        except NumericError as exc:
            raise NumericError(f"stage {stage} iteration {it}: {exc}") from exc
        opt.step()
        opt.zero_grad()
        result.history.append((it, stage, value))


def _check_finite(model: EdgeDetector, params: list[tuple[str, Tensor]],
                  loss: float) -> None:
    """Raise NumericError naming the first NaN or Inf among the loss, the
    global gradient norm and the batch-norm running statistics."""
    if not math.isfinite(loss):
        raise NumericError(f"loss is {loss}")
    norm = math.sqrt(sum(float(np.square(p.grad, dtype=np.float64).sum())
                         for _, p in params if p.grad is not None))
    if not math.isfinite(norm):
        name = next(n for n, p in params
                    if p.grad is not None and not np.isfinite(p.grad).all())
        raise NumericError(f"gradient norm is {norm}; first non-finite "
                           f"gradient: {name}")
    for name, b in model.named_buffers():
        if not np.isfinite(b).all():
            raise NumericError(f"batch-norm statistic {name} is not finite")


def write_loss_csv(result: TrainResult, path) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,stage,loss\n")
        for it, stage, loss in result.history:
            fh.write(f"{it},{stage},{loss:.9g}\n")
