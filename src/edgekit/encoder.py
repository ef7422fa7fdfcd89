"""Windowed patch embedding and pre-norm transformer encoder with
whole-image tap maps.

One Encoder class serves both stages of the detector: the coarse-patch
context encoder, which sees the whole image as one window, and the
fine-patch window encoder, which splits the image into ``windows`` x
``windows`` windows and encodes each as its own token sequence with shared
weights. Both read their width, heads, head width and MLP ratio from
``ModelConfig``; the stage passes its patch side, its four tap indices and
its window count, and the deepest tap sets the number of blocks. Each
encoder trains one position embedding for its native per-window token grid
and bilinearly resizes it to any other grid, as ViT and SETR do, so the
same weights serve every input size. Every tap leaves the encoder as one
(B, C, H / patch, W / patch) map of the whole image, the windows' token
grids set side by side, which is what the decoder reads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from . import tensor as T
from .errors import PartitionError
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import ModelConfig


def flatten_patches(image: np.ndarray, patch: int, windows: int
                    ) -> tuple[np.ndarray, tuple[int, int]]:
    """Split (B, 3, H, W) into ``windows`` x ``windows`` row-major windows
    of row-major patches, each patch channel-last: (B * windows**2, N,
    patch*patch*3) and the per-window token grid (gh, gw), N = gh * gw."""
    b, c, h, w = image.shape
    cell = windows * patch
    if h % cell or w % cell:
        raise PartitionError(f"image {h}x{w} not divisible into {windows}x{windows} "
                             f"windows of patch size {patch}")
    gh, gw = h // cell, w // cell
    x = image.reshape(b, c, windows, gh, patch, windows, gw, patch)
    x = x.transpose(0, 2, 5, 3, 6, 4, 7, 1)  # B, wy, wx, gh, gw, py, px, ch
    return x.reshape(b * windows * windows, gh * gw, patch * patch * c), (gh, gw)


class MultiHeadSelfAttention(nn.Module):
    """Scaled dot-product attention, all heads in batched products; ``w_q``,
    ``w_k`` and ``w_v`` stack the per-head projections as (heads, C, head_dim)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        c, u, m = cfg.embed_dim, cfg.head_dim, cfg.heads
        self.scale = 1.0 / math.sqrt(u)
        self.w_q = Tensor(nn.xavier_uniform(rng, (m, c, u), c, u), requires_grad=True)
        self.w_k = Tensor(nn.xavier_uniform(rng, (m, c, u), c, u), requires_grad=True)
        self.w_v = Tensor(nn.xavier_uniform(rng, (m, c, u), c, u), requires_grad=True)
        self.w_o = nn.Linear(m * u, c, rng, bias=False)

    def weights(self, z: Tensor) -> Tensor:
        """Attention matrices (B, heads, N, N) of every head (rows sum to 1)."""
        b, n, c = z.shape
        zh = T.reshape(z, (b, 1, n, c))  # broadcasts against (heads, C, d)
        q = T.matmul(zh, self.w_q)
        k = T.matmul(zh, self.w_k)
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), self.scale)
        return T.softmax(scores, axis=-1)

    def forward(self, z: Tensor) -> Tensor:
        b, n, c = z.shape
        attn = self.weights(z)
        heads = T.matmul(attn, T.matmul(T.reshape(z, (b, 1, n, c)), self.w_v))
        # (B, heads, N, d) -> (B, N, heads * d), heads in order
        merged = T.reshape(T.transpose(heads, (0, 2, 1, 3)), (b, n, -1))
        return self.w_o(merged)


class TransformerBlock(nn.Module):
    """Pre-norm block: z + MSA(LN(z)) followed by z + MLP(LN(z))."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        c = cfg.embed_dim
        hidden = cfg.mlp_ratio * c
        self.norm1 = nn.LayerNorm(c)
        self.attn = MultiHeadSelfAttention(cfg, rng)
        self.norm2 = nn.LayerNorm(c)
        self.fc1 = nn.Linear(c, hidden, rng)
        self.fc2 = nn.Linear(hidden, c, rng)

    def forward(self, z: Tensor) -> Tensor:
        z = T.add(z, self.attn(self.norm1(z)))
        return T.add(z, self.fc2(T.gelu(self.fc1(self.norm2(z)))))


class Encoder(nn.Module):
    """Patch projection, position embeddings, and tapped transformer stack.

    ``taps`` are the 1-based block indices whose outputs the decoder reads;
    the deepest tap is the depth, so the stack holds ``taps[-1]`` blocks.
    ``windows`` is the number of windows per image side, each encoded alone.
    ``grid`` is the native per-window token grid: its position embedding
    ``pos`` is trained and added as is, while any other grid adds ``pos``
    bilinearly resized to that grid.
    """

    def __init__(self, cfg: ModelConfig, patch: int, taps: tuple[int, ...],
                 grid: tuple[int, int], windows: int, rng: np.random.Generator):
        super().__init__()
        self.patch = patch
        self.taps = taps
        self.grid = grid
        self.windows = windows
        c = cfg.embed_dim
        self.proj = nn.Linear(patch * patch * 3, c, rng)
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(grid[0] * grid[1], c)),
                          requires_grad=True)
        self.blocks = nn.ModuleList(TransformerBlock(cfg, rng)
                                    for _ in range(self.taps[-1]))

    def position(self, grid: tuple[int, int]) -> Tensor:
        """Position embeddings (gh * gw, C) for a token grid, row-major."""
        if grid == self.grid:
            return self.pos
        (h, w), c = self.grid, self.pos.shape[1]
        pos = T.transpose(T.reshape(self.pos, (1, h, w, c)), (0, 3, 1, 2))
        pos = T.transpose(T.bilinear_resize(pos, grid), (0, 2, 3, 1))
        return T.reshape(pos, (grid[0] * grid[1], c))

    def forward(self, image: np.ndarray) -> list[Tensor]:
        """The tapped block outputs of (B, 3, H, W), each a (B, C, H / patch,
        W / patch) map with every window's tokens in place."""
        patches, (gh, gw) = flatten_patches(image, self.patch, self.windows)
        z = T.add(self.proj(Tensor(patches)), self.position((gh, gw)))
        taps = []
        for i, block in enumerate(self.blocks, start=1):
            z = block(z)
            if i in self.taps:
                taps.append(z)
        # the maps are built after the last block: a tap's gradient sums its
        # map's and the next block's contributions in the tape's order
        b, d, c = image.shape[0], self.windows, z.shape[-1]
        return [T.reshape(T.transpose(T.reshape(t, (b, d, d, gh, gw, c)),
                                      (0, 5, 1, 3, 2, 4)), (b, c, d * gh, d * gw))
                for t in taps]
