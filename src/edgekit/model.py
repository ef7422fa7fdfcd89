"""Two-stage edge detector: coarse context stage, windowed fine stage, fusion.

Stage one encodes the whole image on coarse patches and decodes pixel-level
context features plus an edge head. Stage two encodes non-overlapping
windows of the image on fine patches, each window alone with shared
weights, decodes the whole-image tap maps its encoder returns, fuses with
the stage-one features, and predicts the final edge map. The two stages run
one token path and differ only in their constants (patch side, taps,
window count, decoder kernel) and in stage two's fusion. Every head, the
side heads included, emits logits, which the loss takes as they are;
:meth:`EdgeDetector.infer` turns stage two's into probabilities.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from . import tensor as T
from .decoder import BiMLADecoder, UpsampleBlock
from .encoder import Encoder
from .errors import ConfigError, NumericError, ShapeError, UsageError
from .rasters import unshapeable
from .tensor import Tensor

DEFAULT_SCALES = (0.5, 1.0, 1.5)  # multi-scale inference factors
GLOBAL_PATCH = 16  # coarse-stage patch side, as in the paper
LOCAL_PATCH = 8    # fine-stage patch side


@dataclass(frozen=True)
class ModelConfig:
    """Every model setting, one field per model key of the run file.

    Both stages share the transformer and decoder widths; the patch sizes
    and the decoder kernels are fixed by the stage, not configured. Each
    stage's encoder depth is its deepest tap.
    """

    input_hw: tuple[int, int] = (64, 64)
    embed_dim: int = 64
    heads: int = 8
    head_dim: int = 8
    mlp_ratio: int = 4
    path_channels: int = 16
    smooth_channels: int = 16
    global_taps: tuple[int, ...] = (2, 4, 6, 8)
    local_taps: tuple[int, ...] = (1, 2, 3, 4)
    side_channels: int = 4
    window_divisor: int = 2

    def __post_init__(self):
        hw = self.input_hw
        if not (_int_tuple(hw) and len(hw) == 2 and min(hw) >= 1):
            raise ConfigError(f"input_hw must be a tuple of two integer sides "
                              f">= 1, got {hw!r}")
        if not _is_int(self.embed_dim) or self.embed_dim < 2:
            raise ConfigError(f"embed_dim must be an integer >= 2, got {self.embed_dim!r}")
        for name in ("heads", "head_dim", "mlp_ratio", "path_channels",
                     "smooth_channels", "side_channels", "window_divisor"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("global_taps", "local_taps"):
            taps = getattr(self, name)
            if not (_int_tuple(taps) and len(taps) == 4 and taps[0] >= 1
                    and list(taps) == sorted(set(taps))):
                raise ConfigError(f"{name} must be a tuple of 4 strictly "
                                  f"increasing integers >= 1, got {taps!r}")
        c, pc, side = self.embed_dim, self.path_channels, self.side_channels
        hidden = self.mlp_ratio * c
        largest_weights = {  # by the widths and depths that size them; a
            # stage's MLP weights, stacked over its blocks, bound its depth
            "embed_dim, heads, head_dim": (self.heads, c, self.head_dim),
            "global_taps, embed_dim, mlp_ratio": (self.global_taps[-1], c, hidden),
            "local_taps, embed_dim, mlp_ratio": (self.local_taps[-1], c, hidden),
            "path_channels": (pc, pc, GLOBAL_PATCH, GLOBAL_PATCH),
            "path_channels, smooth_channels": (self.smooth_channels, 8 * pc, 3, 3),
            "side_channels": (side, side, GLOBAL_PATCH, GLOBAL_PATCH),
        }
        for names, shape in largest_weights.items():
            if why := unshapeable(shape):
                raise ConfigError(f"{names} give a weight that cannot be made: {why}")
        (h, w), d = self.input_hw, self.window_divisor
        if h % GLOBAL_PATCH or w % GLOBAL_PATCH:
            raise ConfigError(
                f"input {h}x{w} not divisible by coarse patch {GLOBAL_PATCH}")
        cell = d * LOCAL_PATCH
        if h % cell or w % cell:
            raise ConfigError(
                f"input {h}x{w} not divisible by window_divisor*fine patch {cell}")
        for side in (GLOBAL_PATCH, cell):
            gh, gw = _native_grid(self, side)
            if why := unshapeable((gh * gw, self.embed_dim)):
                raise ConfigError(f"input {h}x{w} gives a {gh}x{gw} token grid "
                                  f"whose position embedding cannot be made: {why}")

    @staticmethod
    def toy(**overrides) -> "ModelConfig":
        return ModelConfig(**overrides)

    @staticmethod
    def paper() -> "ModelConfig":
        """The paper's encoder scale: 1024 wide, 16 heads of 64, MLP ratio 4,
        24 coarse blocks tapped at (6, 12, 18, 24) and 12 fine blocks tapped
        at (3, 6, 9, 12)."""
        return ModelConfig(embed_dim=1024, heads=16, head_dim=64, mlp_ratio=4,
                           global_taps=(6, 12, 18, 24), local_taps=(3, 6, 9, 12))

    def canonical_text(self) -> str:
        """Stable rendering used for checkpoint digests: one sorted
        ``field=value`` line per field."""
        return "".join(f"{k}={_render(v)}\n" for k, v in sorted(asdict(self).items()))

    @staticmethod
    def from_canonical_text(text: str) -> "ModelConfig":
        """Inverse of :meth:`canonical_text`; every key must appear once.

        Each value is parsed by the type of the matching default field.
        """
        defaults = asdict(ModelConfig())
        values = {}
        for line in text.splitlines():
            key, sep, raw = line.partition("=")
            if not sep or key not in defaults or key in values:
                raise ConfigError(f"bad model config line {line!r}")
            try:
                values[key] = _parse(raw, defaults[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        missing = sorted(set(defaults) - set(values))
        if missing:
            raise ConfigError(f"model config misses keys {missing}")
        return ModelConfig(**values)


def _is_int(value) -> bool:
    """A Python int; ``bool`` is not one here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_tuple(value) -> bool:
    return isinstance(value, tuple) and all(_is_int(v) for v in value)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _parse(raw: str, default):
    """Parse by the type of ``default``; bad text raises ValueError. A tuple
    is a comma list, a bool one of ``_BOOLS`` in any case."""
    if isinstance(default, tuple):
        return tuple(_parse(v, default[0]) for v in raw.split(","))
    if isinstance(default, bool):
        if raw.strip().lower() not in _BOOLS:
            raise ValueError(f"not a boolean: {raw!r}")
        return _BOOLS[raw.strip().lower()]
    return type(default)(raw)


class SideHead(UpsampleBlock):
    """Upsamples one path feature to auxiliary full-resolution edge logits."""

    def __init__(self, path_channels: int, side_channels: int, patch: int,
                 rng: np.random.Generator):
        super().__init__(path_channels, side_channels, patch, rng)
        self.out = nn.Conv2d(side_channels, 1, 1, rng)

    def forward(self, path: Tensor) -> Tensor:
        return self.out(super().forward(path))


def _side_heads(cfg: ModelConfig, patch: int,
                rng: np.random.Generator) -> nn.ModuleList:
    """One side head per decoder path: 4 top-down, then 4 bottom-up."""
    return nn.ModuleList(SideHead(cfg.path_channels, cfg.side_channels, patch, rng)
                         for _ in range(8))


def _native_grid(cfg: ModelConfig, cell: int) -> tuple[int, int]:
    """Token grid of the native input when one token covers ``cell`` x
    ``cell`` pixels."""
    return cfg.input_hw[0] // cell, cfg.input_hw[1] // cell


class FeatureFusion(nn.Module):
    """Spatial feature transform: scale/shift the fine features by maps
    generated from the coarse features, then smooth with two 3x3 convs."""

    def __init__(self, channels: int, rng: np.random.Generator):
        super().__init__()
        self.scale_gen = nn.Conv2d(channels, channels, 1, rng)
        self.shift_gen = nn.Conv2d(channels, channels, 1, rng)
        # start near the identity modulation: scale about 1, shift about 0
        self.scale_gen.weight.data *= 0.1
        self.scale_gen.bias.data[:] = 1.0
        self.shift_gen.weight.data *= 0.1
        self.smooth1 = nn.ConvBNReLU(channels, channels, 3, rng)
        self.smooth2 = nn.ConvBNReLU(channels, channels, 3, rng)

    def modulate(self, f_g: Tensor, f_r: Tensor) -> Tensor:
        if f_g.shape[2:] != f_r.shape[2:]:
            raise ShapeError(
                f"fusion inputs disagree spatially: {f_g.shape} vs {f_r.shape}"
            )
        return T.add(T.mul(self.scale_gen(f_g), f_r), self.shift_gen(f_g))

    def forward(self, f_g: Tensor, f_r: Tensor) -> Tensor:
        return self.smooth2(self.smooth1(self.modulate(f_g, f_r)))


class GlobalStage(nn.Module):
    """Coarse context stage: 16 px patches, 3x3 decoder convolutions."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        grid = _native_grid(cfg, GLOBAL_PATCH)
        self.encoder = Encoder(cfg, GLOBAL_PATCH, cfg.global_taps, grid, 1, rng)
        self.decoder = BiMLADecoder(cfg, GLOBAL_PATCH, 3, rng)
        self.head = nn.Conv2d(cfg.smooth_channels, 1, 1, rng)
        self.sides = _side_heads(cfg, GLOBAL_PATCH, rng)

    def forward(self, image: np.ndarray):
        f_g, paths = self.decoder(self.encoder(image))
        return f_g, self.head(f_g), paths


class LocalStage(nn.Module):
    """Windowed fine stage: 8 px patches, 1x1 decoder convolutions."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        # a window is 1/divisor of the image, so a token covers divisor*patch
        d = cfg.window_divisor
        grid = _native_grid(cfg, d * LOCAL_PATCH)
        self.encoder = Encoder(cfg, LOCAL_PATCH, cfg.local_taps, grid, d, rng)
        self.decoder = BiMLADecoder(cfg, LOCAL_PATCH, 1, rng)
        ch = cfg.smooth_channels
        self.fusion = FeatureFusion(ch, rng)
        self.head = nn.Conv2d(ch, 1, 1, rng)
        self.sides = _side_heads(cfg, LOCAL_PATCH, rng)

    def forward(self, image: np.ndarray, f_g: Tensor | None):
        if f_g is None:
            raise UsageError("stage two requires the stage-one feature map")
        f_r, paths = self.decoder(self.encoder(image))
        fused = self.fusion(f_g, f_r)
        return f_r, self.head(fused), paths, fused


class EdgeDetector(nn.Module):
    """Full pipeline with stage-one context and stage-two refinement."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.global_stage = GlobalStage(cfg, rng)
        self.local_stage = LocalStage(cfg, rng)

    # -- stage drivers -----------------------------------------------------

    def run_stage1(self, image: np.ndarray):
        if image.ndim != 4:
            raise ShapeError(f"expected (B, 3, H, W) input, got {image.shape}")
        return self.global_stage(image)

    def run_stage2(self, image: np.ndarray, f_g: Tensor | None):
        return self.local_stage(image, f_g)

    def side_outputs(self, paths: list[Tensor], stage: str,
                     out_hw: tuple[int, int]) -> list[Tensor]:
        """One map of edge logits per path feature, each exactly ``out_hw``."""
        heads = self.global_stage.sides if stage == "global" else self.local_stage.sides
        if len(paths) != len(heads):
            raise ShapeError(f"expected {len(heads)} path features, got {len(paths)}")
        sides = [heads[i](p) for i, p in enumerate(paths)]
        if any(s.shape[2:] != tuple(out_hw) for s in sides):
            raise ShapeError(f"{stage} side heads give {sides[0].shape[2:]} maps, "
                             f"expected {tuple(out_hw)}")
        return sides

    # -- parameter groups ---------------------------------------------------

    def stage1_parameters(self) -> list[tuple[str, Tensor]]:
        return [("global_stage." + n, p)
                for n, p in self.global_stage.named_parameters()]

    def stage2_parameters(self) -> list[tuple[str, Tensor]]:
        return [("local_stage." + n, p)
                for n, p in self.local_stage.named_parameters()]

    def freeze_stage1(self) -> None:
        """Stop gradients and batch-norm statistics updates for stage one."""
        self.global_stage.set_requires_grad(False)
        self.global_stage.eval()

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {n: p.data for n, p in self.named_parameters()}
        state.update({n: b for n, b in self.named_buffers()})
        return state

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt ``arrays`` as the model's state; the model takes ownership.

        Each parameter's data becomes its array itself, not a copy, so a
        checkpoint's float32 arrays stay float32 and a float64 state stays
        float64. A parameter's array must be a writable float32 or float64
        array. The float64 batch-norm running statistics are filled from
        their arrays.
        """
        own = self.state_arrays()
        missing = sorted(set(own) - set(arrays))
        extra = sorted(set(arrays) - set(own))
        if missing or extra:
            raise UsageError(
                f"state mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
            )
        params = dict(self.named_parameters())
        for name, a in own.items():
            new = arrays[name]
            if new.shape != a.shape:
                raise ShapeError(f"tensor {name} has shape {new.shape}, "
                                 f"expected {a.shape}")
            if name in params and not (new.dtype in (np.float32, np.float64)
                                       and new.flags.writeable):
                raise UsageError(f"parameter {name} must be a writable float32 "
                                 f"or float64 array, got {new.dtype}")
        for name, p in params.items():
            p.data = arrays[name]
        for name, b in self.named_buffers():
            b[...] = arrays[name]

    # -- inference -----------------------------------------------------------

    def infer(self, image: np.ndarray) -> np.ndarray:
        """Float64 stage-two edge probabilities (B, 1, H, W) in eval mode,
        gradient-free, computed in float32 with batch norm folded into the
        convolutions. A float32 parameter, as a loaded checkpoint holds,
        computes as it is; a float64 one on a float32 copy for this call.

        Any H x W runs: the image is edge-padded up to the next multiple of
        both the coarse patch and the fine window cell, and the map is
        cropped back. Every submodule's train/eval flag and every parameter
        is restored afterwards.
        """
        image, squeeze = _as_batch(image)
        with self._inference():
            out = self._edge_map(image)
        return out[0] if squeeze else out

    def infer_multiscale(self, image: np.ndarray,
                         scales: tuple[float, ...] = DEFAULT_SCALES) -> np.ndarray:
        """Mean of the edge maps of the image resized to round(s * H) x
        round(s * W) for every scale s, each map resized back to H x W;
        float64, computed in float32 like :meth:`infer`."""
        scales = tuple(scales)
        if not scales or not all(math.isfinite(s) and s > 0 for s in scales):
            raise ConfigError(f"scales must be finite and positive, got {scales}")
        image, squeeze = _as_batch(image)
        h, w = image.shape[-2:]
        acc = np.zeros((image.shape[0], 1, h, w))
        with self._inference():
            for s in scales:
                size = (max(1, round(s * h)), max(1, round(s * w)))
                if size == (h, w):
                    acc += self._edge_map(image)
                else:
                    e = self._edge_map(T.bilinear_resize(Tensor(image), size).data)
                    acc += T.bilinear_resize(Tensor(e), (h, w)).data
        acc /= len(scales)
        return acc[0] if squeeze else acc

    @contextmanager
    def _inference(self):
        """Eval mode, no tape and float32 parameters for one public call;
        every submodule's train/eval flag is restored afterwards."""
        modes = [(m, m.training) for m in self.modules()]
        self.eval()
        try:
            with T.no_grad(), nn.float32_working_copies(self):
                yield
        finally:
            for m, training in modes:
                m.training = training

    def _edge_map(self, image: np.ndarray) -> np.ndarray:
        """Float64 edge probabilities of a (B, 3, H, W) batch: edge-pad to
        the patch and window multiple, run both stages, take the sigmoid of
        stage two's logits and crop back to H x W."""
        h, w = image.shape[-2:]
        mult = math.lcm(GLOBAL_PATCH, self.cfg.window_divisor * LOCAL_PATCH)
        image = np.pad(image, ((0, 0), (0, 0), (0, -h % mult), (0, -w % mult)),
                       mode="edge")
        f_g, _, _ = self.run_stage1(image)
        out = T.sigmoid(self.run_stage2(image, f_g)[1]).data
        return out[..., :h, :w].astype(np.float64)


def _as_batch(image: np.ndarray) -> tuple[np.ndarray, bool]:
    """A (3, H, W) or (B, 3, H, W) image as a batch, and whether it was one
    image; H and W must be at least one pixel and every value finite."""
    squeeze = image.ndim == 3
    if squeeze:
        image = image[None]
    if image.ndim != 4 or 0 in image.shape[-2:]:
        raise ShapeError(f"expected a (B, 3, H, W) input with H, W >= 1, "
                         f"got {image.shape}")
    if image.shape[1] != 3:
        raise ShapeError(f"the image has {image.shape[1]} channels; the "
                         f"detector needs 3 (RGB), got shape {image.shape}")
    if not np.isfinite(image).all():
        raise NumericError("the input image holds NaN or Inf")
    return image, squeeze
