"""Synthetic multi-annotator edge datasets for desk-scale runs.

Each scene is a textured background with a few filled shapes; the ground
truth is the union of the visible shapes' inner contours, and each simulated
annotator is that boundary with a small fraction of pixels displaced by one
pixel. Disk layout: ``images/NNN.ppm`` and ``gt/NNN/annotator_K.pgm``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputError
from .rasters import load_gray, load_image, save_gray, save_image
from .train import AnnotationStack, Scene, consensus_labels, ignore_band

BOUNDARY_FRACTION = (0.01, 0.15)
ANNOTATORS = 5  # simulated annotators per scene
JITTER = 0.08   # fraction of each annotator's boundary pixels displaced


def _erode4(mask: np.ndarray) -> np.ndarray:
    """4-neighborhood erosion with the outside treated as background."""
    out = mask.copy()
    out[1:, :] &= mask[:-1, :]
    out[:-1, :] &= mask[1:, :]
    out[:, 1:] &= mask[:, :-1]
    out[:, :-1] &= mask[:, 1:]
    return out


def _ellipse_mask(size: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy, cx = rng.uniform(0.25 * size, 0.75 * size, size=2)
    a = rng.uniform(0.12 * size, 0.3 * size)
    b = rng.uniform(0.12 * size, 0.3 * size)
    theta = rng.uniform(0, np.pi)
    ct, st = np.cos(theta), np.sin(theta)
    u = (xx - cx) * ct + (yy - cy) * st
    v = -(xx - cx) * st + (yy - cy) * ct
    return (u * u) / (a * a) + (v * v) / (b * b) <= 1.0


def _polygon_mask(size: int, rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(3, 7))
    cy, cx = rng.uniform(0.3 * size, 0.7 * size, size=2)
    base = rng.uniform(0.15 * size, 0.3 * size)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    radii = base * rng.uniform(0.7, 1.3, size=n)
    vx = cx + radii * np.cos(angles)
    vy = cy + radii * np.sin(angles)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    inside = np.zeros((size, size), dtype=bool)
    # even-odd crossing test against a horizontal ray
    for i in range(n):
        x1, y1 = vx[i], vy[i]
        x2, y2 = vx[(i + 1) % n], vy[(i + 1) % n]
        crosses = (y1 > yy) != (y2 > yy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x2 - x1) * (yy - y1) / (y2 - y1) + x1
        inside ^= crosses & (xx < xi)
    return inside


def _coarse_texture(size: int, rng: np.random.Generator, amplitude: float) -> np.ndarray:
    coarse = rng.normal(0.0, 1.0, size=(9, 9))
    ys = np.linspace(0, 8, size)
    xs = np.linspace(0, 8, size)
    y0 = np.minimum(ys.astype(int), 7)
    x0 = np.minimum(xs.astype(int), 7)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    tex = (coarse[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
           + coarse[np.ix_(y0, x0 + 1)] * (1 - wy) * wx
           + coarse[np.ix_(y0 + 1, x0)] * wy * (1 - wx)
           + coarse[np.ix_(y0 + 1, x0 + 1)] * wy * wx)
    return amplitude * tex


def _pick_color(rng: np.random.Generator, taken: list[np.ndarray]) -> np.ndarray:
    for _ in range(64):
        c = rng.uniform(0.1, 0.9, size=3)
        if all(np.abs(c - t).sum() >= 0.6 for t in taken):
            return c
    return c  # pragma: no cover - practically unreachable


def generate_scene(rng: np.random.Generator, size: int,
                   annotators: int = ANNOTATORS, jitter: float = JITTER
                   ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """One scene: image (3, S, S), true boundary, jittered annotator maps."""
    lo, hi = BOUNDARY_FRACTION
    for _ in range(64):
        n_shapes = int(rng.integers(2, 5))
        ids = np.zeros((size, size), dtype=np.int32)
        for i in range(n_shapes):
            mask = (_ellipse_mask(size, rng) if rng.random() < 0.5
                    else _polygon_mask(size, rng))
            ids[mask] = i + 1
        boundary = np.zeros((size, size), dtype=bool)
        for i in range(n_shapes):
            visible = ids == i + 1
            if visible.any():
                boundary |= visible & ~_erode4(visible)
        frac = boundary.mean()
        if lo <= frac <= hi:
            break
    else:
        raise InputError("could not generate a scene within the boundary budget")

    colors = [_pick_color(rng, [])]
    for _ in range(n_shapes):
        colors.append(_pick_color(rng, colors))
    image = np.empty((3, size, size))
    for ch in range(3):
        image[ch] = colors[0][ch]
        for i in range(n_shapes):
            image[ch][ids == i + 1] = colors[i + 1][ch]
    image += _coarse_texture(size, rng, 0.05)[None]
    image += rng.normal(0.0, 0.01, size=image.shape)
    image = np.clip(image, 0.0, 1.0)

    pts = np.argwhere(boundary)
    offsets = np.array([(-1, 0), (1, 0), (0, -1), (0, 1)])
    maps = []
    for _ in range(annotators):
        moved = pts.copy()
        move = rng.random(len(pts)) < jitter
        dirs = rng.integers(0, 4, size=len(pts))
        moved[move] += offsets[dirs[move]]
        moved = np.clip(moved, 0, size - 1)
        m = np.zeros((size, size), dtype=np.uint8)
        m[moved[:, 0], moved[:, 1]] = 1
        maps.append(m)
    return image, boundary.astype(np.uint8), maps


def write_dataset(out_dir, n: int, seed: int, size: int,
                  annotators: int = ANNOTATORS, jitter: float = JITTER) -> None:
    """Write ``n`` scenes; fully determined by the seed."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(n):
        image, _, maps = generate_scene(rng, size, annotators, jitter)
        save_image(image, out / "images" / f"{i:03d}.ppm")
        gt_dir = out / "gt" / f"{i:03d}"
        gt_dir.mkdir(parents=True, exist_ok=True)
        for k, m in enumerate(maps, start=1):
            save_gray(m.astype(np.float64), gt_dir / f"annotator_{k}.pgm")


def load_annotators(gt_dir) -> list[np.ndarray]:
    paths = sorted(Path(gt_dir).glob("annotator_*.pgm"))
    if not paths:
        raise InputError(f"no annotator maps under {gt_dir}")
    return [(load_gray(p) > 0.5).astype(np.uint8) for p in paths]


def load_dataset(data_dir, eta: float, use_ignore_band: bool) -> list[Scene]:
    """Read scenes from the on-disk layout, deriving consensus labels; every
    annotator map must have its image's height and width."""
    root = Path(data_dir)
    image_paths = sorted((root / "images").glob("*.ppm"))
    if not image_paths:
        raise InputError(f"no images under {root / 'images'}")
    scenes = []
    for p in image_paths:
        image = load_image(p)
        maps = load_annotators(root / "gt" / p.stem)
        for k, m in enumerate(maps, start=1):
            if m.shape != image.shape[1:]:
                raise InputError(f"scene {p.stem}: annotator map {k} (in name order) "
                                 f"has shape {m.shape}, its image {image.shape[1:]}")
        stack = AnnotationStack(maps, consensus_labels(maps, eta))
        ign = ignore_band(maps, eta) if use_ignore_band else None
        scenes.append(Scene(image, stack, ign))
    return scenes
