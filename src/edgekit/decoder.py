"""The BiMLA decoder: lifts four tapped token sets to full-resolution features.

The decoder runs a top-down and a bottom-up aggregation path over the
four tapped levels, upsamples all eight path outputs with learned strided
transposed convolutions, and smooths them together: the first smoothing
convolution reads the eight maps as one 8 x ``path_channels`` input, so their
concatenation is never stored. Both stages build it
from the shared widths of ``ModelConfig`` (input width ``embed_dim``); the
stage fixes the rest. Its patch side p sets the upsampling, stride 2 then
p/2, each by a kernel of twice its stride: exactly p times the token grid.
The coarse stage (p = 16) uses 3x3 path/smoothing convolutions, the fine
stage (p = 8) 1x1 ones (no padding artifacts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import nn
from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import ModelConfig


def reshape_tokens(tokens: Tensor, grid: tuple[int, int]) -> Tensor:
    """(B, N, C) token rows to a (B, C, h, w) map, row-major like patchify."""
    h, w = grid
    b, n, c = tokens.shape
    if n != h * w:
        raise ShapeError(f"{n} tokens cannot fill a {h}x{w} grid")
    return T.transpose(T.reshape(tokens, (b, h, w, c)), (0, 3, 1, 2))


def top_down_path(maps: list[Tensor], proj: nn.ModuleList,
                  conv: nn.ModuleList) -> list[Tensor]:
    """1x1-project each level, accumulate from the deepest tap down, smooth."""
    a = [proj[i](m) for i, m in enumerate(maps)]
    acc = [None] * len(a)
    acc[-1] = a[-1]
    for i in range(len(a) - 2, -1, -1):
        acc[i] = T.add(a[i], acc[i + 1])
    return [conv[i](s) for i, s in enumerate(acc)]


def bottom_up_path(maps: list[Tensor], proj: nn.ModuleList,
                   conv: nn.ModuleList) -> list[Tensor]:
    """Mirror of the top-down path, accumulating from the shallowest tap up."""
    p = [proj[i](m) for i, m in enumerate(maps)]
    out: list[Tensor] = [conv[0](p[0])]
    for i in range(1, len(p)):
        out.append(conv[i](T.add(p[i], out[i - 1])))
    return out


class UpsampleBlock(nn.Module):
    """Two transposed convolutions, stride 2 then p / 2 (kernels 4 and p),
    each with BN + ReLU: exactly p times the input size."""

    def __init__(self, in_channels: int, out_channels: int, patch: int,
                 rng: np.random.Generator):
        super().__init__()
        self.up1 = nn.DeconvBNReLU(in_channels, out_channels, 2, rng)
        self.up2 = nn.DeconvBNReLU(out_channels, out_channels, patch // 2, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.up2(self.up1(x))


class SmoothStack(nn.Module):
    """Three kxk convolutions and one 1x1, each with BN + ReLU; the input
    may be a list of maps, read as their channel concatenation."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator):
        super().__init__()
        self.c1 = nn.ConvBNReLU(in_channels, out_channels, kernel, rng)
        self.c2 = nn.ConvBNReLU(out_channels, out_channels, kernel, rng)
        self.c3 = nn.ConvBNReLU(out_channels, out_channels, kernel, rng)
        self.c4 = nn.ConvBNReLU(out_channels, out_channels, 1, rng)

    def forward(self, x: Tensor | list[Tensor]) -> Tensor:
        return self.c4(self.c3(self.c2(self.c1(x))))


def _path_convs(cfg: ModelConfig, kernel: int, rng: np.random.Generator
                ) -> tuple[nn.ModuleList, nn.ModuleList]:
    """The 1x1 level projections and the kxk smoothing convs of one path."""
    c, pc = cfg.embed_dim, cfg.path_channels
    proj = nn.ModuleList(nn.Conv2d(c, pc, 1, rng) for _ in range(4))
    conv = nn.ModuleList(nn.Conv2d(pc, pc, kernel, rng) for _ in range(4))
    return proj, conv


class BiMLADecoder(nn.Module):
    """Bidirectional multi-level aggregation with learned upsampling;
    ``patch`` is the stage's patch side and ``kernel`` its path/smoothing
    kernel."""

    def __init__(self, cfg: ModelConfig, patch: int, kernel: int,
                 rng: np.random.Generator):
        super().__init__()
        pc = cfg.path_channels
        self.td_proj, self.td_conv = _path_convs(cfg, kernel, rng)
        self.bu_proj, self.bu_conv = _path_convs(cfg, kernel, rng)
        self.upsamplers = nn.ModuleList(UpsampleBlock(pc, pc, patch, rng)
                                        for _ in range(8))
        self.smooth = SmoothStack(8 * pc, cfg.smooth_channels, kernel, rng)

    def forward(self, taps: list[Tensor], grid: tuple[int, int]
                ) -> tuple[Tensor, list[Tensor]]:
        paths = self.paths(taps, grid)
        ups = self.upsample(paths)
        return self.smooth(ups), paths

    def paths(self, taps: list[Tensor], grid: tuple[int, int]) -> list[Tensor]:
        """The eight token-resolution path features (top-down then bottom-up)."""
        maps = [reshape_tokens(t, grid) for t in taps]
        td = top_down_path(maps, self.td_proj, self.td_conv)
        bu = bottom_up_path(maps, self.bu_proj, self.bu_conv)
        return td + bu

    def upsample(self, paths: list[Tensor]) -> list[Tensor]:
        return [self.upsamplers[i](p) for i, p in enumerate(paths)]
