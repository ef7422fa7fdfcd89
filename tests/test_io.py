import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from edgekit import rasters
from edgekit.checkpoint import load_checkpoint, save_checkpoint
from edgekit.errors import (CheckpointError, ConfigError, DigestMismatch,
                            MagicMismatch, NumericError, ParseError, ShapeError,
                            TruncatedFile, VersionMismatch)
from edgekit.model import ModelConfig
from edgekit.runconfig import SCHEMA, RunConfig, default_config_text
from edgekit.train import TrainConfig

rng = np.random.default_rng(41)


# -- netpbm -------------------------------------------------------------------

def test_white_ppm_loads_as_ones(tmp_path):
    p = tmp_path / "w.ppm"
    rasters.save_image(np.ones((3, 2, 2)), p)
    img = rasters.load_image(p)
    assert img.shape == (3, 2, 2)
    assert np.array_equal(img, np.ones((3, 2, 2)))


def test_pgm_replicates_channels(tmp_path):
    p = tmp_path / "g.pgm"
    rasters.save_gray(rng.random((4, 5)), p)
    img = rasters.load_image(p)
    assert img.shape == (3, 4, 5)
    assert np.array_equal(img[0], img[1])
    assert np.array_equal(img[1], img[2])


def test_image_round_trip_quantization_bound(tmp_path):
    img = rng.random((3, 8, 8))
    p = tmp_path / "x.ppm"
    rasters.save_image(img, p)
    back = rasters.load_image(p)
    assert np.abs(back - img).max() <= 1.0 / 255.0


def test_edge_map_endpoints(tmp_path):
    p = tmp_path / "e.pgm"
    rasters.save_edge_map(np.array([[1.0, 0.0]]), p)
    data = p.read_bytes()
    assert data.endswith(bytes([255, 0]))


def test_edge_map_pgm_round_trip_bound(tmp_path):
    e = rng.random((16, 16))
    p = tmp_path / "e.pgm"
    rasters.save_edge_map(e, p)
    back = rasters.load_edge_map(p)
    assert np.abs(back - e).max() <= 1.0 / 510.0 + 1e-12


def test_float_raster_round_trip_bit_exact(tmp_path):
    e = rng.random((7, 9)).astype(np.float32).astype(np.float64)
    p = tmp_path / "e.epfm"
    rasters.save_edge_map(e, p)
    assert np.array_equal(rasters.load_edge_map(p), e)


def test_float_raster_huge_header_is_a_parse_error(tmp_path):
    # 65536**4 elements wrap to 0 in int64, which once sized the payload
    p = tmp_path / "e.epfm"
    p.write_bytes(rasters.FLOAT_MAGIC + struct.pack("<5I", 4, *[65536] * 4))
    with pytest.raises(ParseError, match="truncated payload"):
        rasters.load_float_raster(p)


# headers that describe no array numpy can make: rank above its 64 dims,
# and an empty shape whose nonzero dims overflow the address space
UNSHAPEABLE_FLOAT_HEADERS = {
    "rank65": struct.pack("<66I", 65, *[1] * 65) + bytes(4),
    "empty_huge": struct.pack("<4I", 3, 0, 2**31, 2**31),
}


@pytest.mark.parametrize("name", sorted(UNSHAPEABLE_FLOAT_HEADERS))
def test_float_raster_unshapeable_header_is_a_parse_error(tmp_path, name):
    p = tmp_path / "e.epfm"
    p.write_bytes(rasters.FLOAT_MAGIC + UNSHAPEABLE_FLOAT_HEADERS[name])
    with pytest.raises(ParseError):
        rasters.load_float_raster(p)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 4)])
def test_save_gray_rejects_an_empty_map(tmp_path, shape):
    for save in (rasters.save_gray, rasters.save_edge_map):
        with pytest.raises(ShapeError):
            save(np.zeros(shape), tmp_path / "e.pgm")
        assert not (tmp_path / "e.pgm").exists()


@pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**32 - 1,) * 4])
def test_checkpoint_huge_header_is_truncated(tmp_path, dims):
    # in int64 these element counts wrap to 0 and to a negative number
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.zeros((1,) * len(dims))}, "k=v\n")
    p.write_bytes(p.read_bytes()[:-4 * len(dims) - 4]
                  + struct.pack(f"<{len(dims)}I", *dims))
    with pytest.raises(TruncatedFile):
        load_checkpoint(p)


@pytest.mark.parametrize("dims", [(1,) * 65, (0, 2**31, 2**31)],
                         ids=["rank65", "empty_huge"])
def test_checkpoint_unshapeable_header_is_a_checkpoint_error(tmp_path, dims):
    # the float-raster headers above, as the last tensor of a checkpoint
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.zeros(1)}, "k=v\n")
    p.write_bytes(p.read_bytes()[:-12]
                  + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
                  + bytes(4 * math.prod(dims)))
    with pytest.raises(CheckpointError, match="tensor w"):
        load_checkpoint(p)


def test_gray_range_validation(tmp_path):
    with pytest.raises(NumericError):
        rasters.save_gray(np.array([[1.5]]), tmp_path / "bad.pgm")


def test_non_finite_maps_rejected(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        m = np.full((4, 4), 0.5)
        m[1, 2] = bad
        for name in ("e.pgm", "e.epfm"):
            with pytest.raises(NumericError):
                rasters.save_edge_map(m, tmp_path / name)
            assert not (tmp_path / name).exists()
        with pytest.raises(NumericError):
            rasters.save_gray(m, tmp_path / "g.pgm")


def test_parse_error_reports_offset(tmp_path):
    p = tmp_path / "trunc.pgm"
    rasters.save_gray(np.zeros((4, 4)), p)
    data = p.read_bytes()
    p.write_bytes(data[:-3])
    with pytest.raises(ParseError, match="byte offset"):
        rasters.load_gray(p)


def test_parse_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ParseError):
        rasters.load_gray(p)


def test_parse_rejects_bad_maxval(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + b"\0" * 8)
    with pytest.raises(ParseError, match="maxval"):
        rasters.load_gray(p)


def test_pnm_comments_supported(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x10\x20")
    img = rasters.load_gray(p)
    assert np.allclose(img, [[16 / 255, 32 / 255]])


# -- checkpoints --------------------------------------------------------------

def _arrays():
    """The same two tensors on every call, whatever ran before."""
    r = np.random.default_rng(42)
    return {"b.bias": r.normal(size=3), "a.weight": r.normal(size=(2, 3))}


def test_checkpoint_round_trip_ulp(tmp_path):
    arrays = _arrays()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, arrays, "k=v\n")
    loaded, cfg = load_checkpoint(p)
    assert cfg == "k=v\n"
    for name, arr in arrays.items():
        f32 = arr.astype(np.float32)
        assert np.array_equal(loaded[name], f32.astype(np.float64))
        err = np.abs(loaded[name] - arr)
        assert np.all(err <= np.abs(np.spacing(f32)))  # spacing is < 0 below zero


def test_checkpoint_byte_identical_writes(tmp_path):
    arrays = _arrays()
    save_checkpoint(tmp_path / "a.ckpt", arrays, "k=v\n")
    save_checkpoint(tmp_path / "b.ckpt", arrays, "k=v\n")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_tampered_magic_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, _arrays(), "k=v\n")
    data = bytearray(p.read_bytes())
    data[0] = ord("X")
    p.write_bytes(bytes(data))
    with pytest.raises(MagicMismatch):
        load_checkpoint(p)


def test_checkpoint_version_mismatch(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, _arrays(), "k=v\n")
    data = bytearray(p.read_bytes())
    for version in (6, 7, 9):  # 7 still held decoder_arch, 6 concat_fuse
        data[4] = version
        p.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_checkpoint(p)


def test_checkpoint_digest_mismatch(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, _arrays(), "k=v\n")
    data = bytearray(p.read_bytes())
    start = 4 + 4 + 32 + 4   # magic, version, digest, config length
    assert data[start:start + 4] == b"k=v\n"
    data[start + 2] = ord("w")
    p.write_bytes(bytes(data))
    with pytest.raises(DigestMismatch):
        load_checkpoint(p)


def test_checkpoint_non_utf8_bytes_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, _arrays(), "k=v\n")
    good = p.read_bytes()
    start = 4 + 4 + 32 + 4   # magic, version, digest, config length
    name = start + 4 + 4 + 4  # config, tensor count, first name length
    assert good[name:name + 8] == b"a.weight"
    for pos, error in ((start + 1, DigestMismatch), (name + 1, CheckpointError)):
        data = bytearray(good)
        data[pos] = 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(error):
            load_checkpoint(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e39])  # -1e39 is -Inf in float32
def test_checkpoint_refuses_non_finite_values(tmp_path, bad):
    arrays = _arrays()
    arrays["b.bias"][1] = bad
    p = tmp_path / "m.ckpt"
    with np.errstate(all="raise"), pytest.raises(NumericError, match="b.bias"):
        save_checkpoint(p, arrays, "k=v\n")
    assert not p.exists()
    arrays["b.bias"][1] = 0.5
    save_checkpoint(p, arrays, "k=v\n")
    data = bytearray(p.read_bytes())
    with np.errstate(over="ignore"):
        data[-4:] = np.float32(bad).tobytes()   # the last value of "b.bias"
    p.write_bytes(bytes(data))
    with pytest.raises(NumericError, match="b.bias"):
        load_checkpoint(p)


def test_checkpoint_truncation(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, _arrays(), "k=v\n")
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(TruncatedFile):
        load_checkpoint(p)


# -- run config ---------------------------------------------------------------

def test_runconfig_defaults_parse():
    run = RunConfig.parse(default_config_text())
    assert run.values == RunConfig.defaults().values
    assert run.model_config() == ModelConfig()
    assert run.train_config() == TrainConfig()


# run-file lines -> the ModelConfig fields they set
MODEL_KEY_OVERRIDES = [
    ("input_size=32", {"input_hw": (32, 32)}),
    ("embed_dim=32", {"embed_dim": 32}),
    ("heads=2", {"heads": 2}),
    ("head_dim=4", {"head_dim": 4}),
    ("mlp_ratio=2", {"mlp_ratio": 2}),
    ("global_taps=1,3,5,9", {"global_taps": (1, 3, 5, 9)}),
    ("local_taps=1,2,3,5", {"local_taps": (1, 2, 3, 5)}),
    ("path_channels=8", {"path_channels": 8}),
    ("smooth_channels=12", {"smooth_channels": 12}),
    ("side_channels=2", {"side_channels": 2}),
    ("window_divisor=4", {"window_divisor": 4}),
]
NON_MODEL_KEYS = ("eta=0.5", "lambda=0.1", "lr=0.01", "lr_power=1.0",
                  "momentum=0.5", "weight_decay=0", "iterations=3",
                  "batch_size=1", "seed=7", "flip=false", "ignore_band=true",
                  "data_dir=d", "out_dir=o")


def test_runconfig_each_model_key_sets_exactly_its_fields():
    for text, changed in MODEL_KEY_OVERRIDES:
        got = RunConfig.parse(text).model_config()
        assert got == replace(ModelConfig(), **changed), text
    for text in NON_MODEL_KEYS:
        assert RunConfig.parse(text).model_config() == ModelConfig(), text
    covered = {line.split("=")[0] for text, _ in MODEL_KEY_OVERRIDES
               for line in text.splitlines()}
    covered |= {text.split("=")[0] for text in NON_MODEL_KEYS}
    assert covered == set(SCHEMA)
    reached = {name for _, changed in MODEL_KEY_OVERRIDES for name in changed}
    assert reached == {f.name for f in fields(ModelConfig)}


# run-file lines -> the TrainConfig fields they set
TRAIN_KEY_OVERRIDES = [
    ("input_size=32", {"crop": 32}),
    ("eta=0.5", {"eta": 0.5}),
    ("lambda=0.1", {"lam": 0.1}),
    ("lr=0.01", {"base_lr": 0.01}),
    ("lr_power=1.0", {"lr_power": 1.0}),
    ("momentum=0.5", {"momentum": 0.5}),
    ("weight_decay=0", {"weight_decay": 0.0}),
    ("iterations=3", {"iterations_stage1": 3, "iterations_stage2": 3}),
    ("batch_size=1", {"batch_size": 1}),
    ("seed=7", {"seed": 7}),
    ("flip=false", {"flip": False}),
    ("ignore_band=true", {"use_ignore_band": True}),
]


def test_runconfig_each_train_key_sets_exactly_its_fields():
    for text, changed in TRAIN_KEY_OVERRIDES:
        got = RunConfig.parse(text).train_config()
        assert got == replace(TrainConfig(), **changed), text
    for text, _ in MODEL_KEY_OVERRIDES[1:]:
        assert RunConfig.parse(text).train_config() == TrainConfig(), text
    for text in ("data_dir=d", "out_dir=o"):
        assert RunConfig.parse(text).train_config() == TrainConfig(), text
    reached = {name for _, changed in TRAIN_KEY_OVERRIDES for name in changed}
    assert reached == {f.name for f in fields(TrainConfig)}


def test_runconfig_key_defaults_are_field_defaults():
    """Each key's default, and its type, is that of every field it sets."""
    defaults = RunConfig.defaults()
    for base, table in ((ModelConfig(), MODEL_KEY_OVERRIDES),
                        (TrainConfig(), TRAIN_KEY_OVERRIDES)):
        for text, changed in table:
            key = text.split("=")[0]
            for name in changed:
                got = defaults[key]
                got = (got, got) if name == "input_hw" else got
                want = getattr(base, name)
                assert got == want and type(got) is type(want), (key, name)
    assert (defaults["data_dir"], defaults["out_dir"]) == ("data", "runs")


@pytest.mark.parametrize("spelling,value", [
    ("1", True), ("true", True), ("YES", True), ("On", True),
    ("0", False), ("False", False), ("no", False), ("OFF", False)])
def test_runconfig_boolean_spellings(spelling, value):
    run = RunConfig.parse(f"flip={spelling}\nignore_band = {spelling} \n")
    assert run["flip"] is value and run["ignore_band"] is value


def test_runconfig_bad_boolean_rejected():
    with pytest.raises(ConfigError,
                       match="line 2: bad value for flip: not a boolean: 'maybe'"):
        RunConfig.parse("seed=1\nflip=maybe\n")


@pytest.mark.parametrize("text,field", [
    ("input_size=0", "input_hw"), ("input_size=-16", "input_hw"),
    ("path_channels=0", "path_channels"), ("side_channels=-1", "side_channels"),
    ("mlp_ratio=0", "mlp_ratio"), ("batch_size=0", "batch_size"),
    ("iterations=-1", "iteration"), ("seed=-1", "seed"),
    ("lr=0", "base_lr"), ("lr=nan", "base_lr"), ("lr=inf", "base_lr"),
    ("momentum=-0.5", "momentum"), ("momentum=1", "momentum"),
    ("momentum=nan", "momentum"), ("weight_decay=-1e-4", "weight_decay"),
    ("weight_decay=inf", "weight_decay"), ("lambda=-1", "lam"),
    ("lambda=nan", "lam"), ("lr_power=0", "lr_power"),
    ("lr_power=inf", "lr_power")])
def test_runconfig_rejects_sizes_below_their_minimum(text, field):
    run = RunConfig.parse(text)
    with pytest.raises(ConfigError, match=field):
        run.model_config()
        run.train_config()


def test_runconfig_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.parse("no_such_key=1\n")


def test_runconfig_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        RunConfig.parse("iterations=abc\n")


def test_runconfig_comments_and_overrides():
    run = RunConfig.parse("# comment\niterations=12  # trailing\nflip=false\n")
    assert run["iterations"] == 12
    assert run["flip"] is False


def test_runconfig_crop_follows_input_size():
    run = RunConfig.parse("input_size=32\n")
    assert run.train_config().crop == 32
    assert run.model_config().input_hw == (32, 32)
    for key in ("crop", "scales", "eval_tolerance"):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.parse(f"{key}=32\n")
