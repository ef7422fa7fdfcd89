"""Property tests over the file loaders, with fixed seeds: a valid file
whose end is cut off, replaced or extended raises an ``EdgekitError`` when
its length changed, and otherwise loads to arrays of the same shapes (the
same arrays when no byte changed), never anything else."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekit import rasters
from edgekit.checkpoint import load_checkpoint, save_checkpoint
from edgekit.errors import EdgekitError

ARRAYS = {"a.weight": np.arange(6.0).reshape(2, 3), "b.bias": np.array([0.5, -1.0])}


def _valid_files(root):
    """Each loader, as a map of names to arrays, with the bytes of a valid
    file and the arrays it holds."""
    ckpt, epfm = root / "m.ckpt", root / "e.epfm"
    save_checkpoint(ckpt, ARRAYS, "k=v\n")
    rasters.save_float_raster(ARRAYS["a.weight"], epfm)
    return [(lambda path: load_checkpoint(path)[0], ckpt.read_bytes(), ARRAYS),
            (lambda path: {"map": rasters.load_float_raster(path)}, epfm.read_bytes(),
             {"map": ARRAYS["a.weight"]})]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cut=st.integers(0, 120), tail=st.binary(max_size=40))
def test_a_file_of_another_length_raises(tmp_path_factory, cut, tail):
    root = tmp_path_factory.mktemp("loaders")
    for load, good, want in _valid_files(root):
        data = good[:max(len(good) - cut, 0)] + tail
        path = root / "f"
        path.write_bytes(data)
        try:
            got = load(path)
        except EdgekitError:
            assert data != good
            continue
        assert len(data) == len(good)
        assert {n: a.shape for n, a in got.items()} == {n: a.shape for n, a in want.items()}
        if data == good:
            assert all(np.array_equal(got[n], want[n]) for n in want)
