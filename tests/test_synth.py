import numpy as np

from edgekit.synth import generate_scene, load_dataset, write_dataset
from edgekit.train import consensus_labels


def test_same_seed_byte_identical_dataset(tmp_path):
    write_dataset(tmp_path / "a", 2, seed=9, size=32)
    write_dataset(tmp_path / "b", 2, seed=9, size=32)
    for rel in ("images/000.ppm", "images/001.ppm", "gt/000/annotator_1.pgm",
                "gt/001/annotator_5.pgm"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_boundary_fraction_bounds_over_seeds():
    rng = np.random.default_rng(123)
    for _ in range(100):
        _, boundary, _ = generate_scene(rng, 64)
        frac = boundary.mean()
        assert 0.01 <= frac <= 0.15


def test_boundary_pixels_form_closed_curves():
    # every boundary pixel belongs to a shape's inner contour: it must have a
    # boundary neighbor (8-neighborhood), so no isolated endpoints exist
    rng = np.random.default_rng(3)
    _, boundary, _ = generate_scene(rng, 64)
    b = boundary.astype(bool)
    padded = np.pad(b, 1)
    neighbors = np.zeros_like(b, dtype=int)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            neighbors += padded[1 + dy:1 + dy + 64, 1 + dx:1 + dx + 64]
    assert neighbors[b].min() >= 2


def test_annotator_jitter_within_one_pixel():
    rng = np.random.default_rng(17)
    _, boundary, maps = generate_scene(rng, 64)
    bpts = np.argwhere(boundary)
    for m in maps:
        for y, x in np.argwhere(m):
            d = np.abs(bpts - [y, x]).sum(axis=1).min()
            assert d <= 1  # displacement bounded by one 4-neighborhood step


def test_dataset_loader_derives_consensus(tmp_path):
    write_dataset(tmp_path, 2, seed=4, size=32)
    scenes = load_dataset(tmp_path, eta=0.3, use_ignore_band=False)
    assert len(scenes) == 2
    for s in scenes:
        assert s.image.shape == (3, 32, 32)
        assert len(s.annotations.annotator_maps) == 5
        expect = consensus_labels(s.annotations.annotator_maps, 0.3)
        assert np.array_equal(s.labels, expect)


def test_loader_with_ignore_band(tmp_path):
    write_dataset(tmp_path, 1, seed=4, size=32)
    scenes = load_dataset(tmp_path, eta=0.3, use_ignore_band=True)
    assert scenes[0].ignore is not None
    assert scenes[0].ignore.dtype == bool
    # ignored pixels are never labeled positive
    assert not np.any(scenes[0].ignore & (scenes[0].labels > 0))
