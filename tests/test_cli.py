import hashlib
import math
import shutil
import struct

import numpy as np
import pytest

from edgekit import cli
from edgekit.checkpoint import load_checkpoint, save_checkpoint
from edgekit.cli import build_parser, main
from edgekit.errors import ShapeError, VersionMismatch
from edgekit.evalbench import DEFAULT_TOLERANCE
from edgekit.model import EdgeDetector, ModelConfig
from edgekit.rasters import (FLOAT_MAGIC, load_edge_map, load_gray, save_edge_map,
                             save_gray, save_image)
from edgekit.synth import write_dataset

SMALL_CONFIG = """
input_size=32
iterations=3
batch_size=1
seed=1
data_dir={data}
out_dir={out}
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    out = root / "run"
    assert main(["synth", "--n", "2", "--seed", "3", "--size", "32",
                 "--out", str(data)]) == 0
    cfg = root / "run.cfg"
    cfg.write_text(SMALL_CONFIG.format(data=data, out=out))
    assert main(["train", "--config", str(cfg)]) == 0
    return root, data, out, cfg


def test_train_outputs_exist(trained):
    _, _, out, _ = trained
    assert (out / "model.ckpt").exists()
    loss = (out / "loss.csv").read_text().splitlines()
    assert loss[0] == "iteration,stage,loss"
    assert len(loss) == 1 + 3 + 3


def test_train_rerun_byte_identical(trained, tmp_path):
    root, data, out, cfg = trained
    out2 = tmp_path / "run2"
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text(SMALL_CONFIG.format(data=data, out=out2))
    assert main(["train", "--config", str(cfg2)]) == 0
    assert (out / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
    assert (out / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()


def test_infer_and_multiscale_single_scale_equal(trained, tmp_path):
    root, data, out, _ = trained
    img = data / "images" / "000.ppm"
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    c = tmp_path / "c.pgm"
    assert main(["infer", "--ckpt", str(out / "model.ckpt"), "--in", str(img),
                 "--out", str(a)]) == 0
    assert main(["infer", "--ckpt", str(out / "model.ckpt"), "--in", str(img),
                 "--out", str(b), "--ms", "--scales", "1.0"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["infer", "--ckpt", str(out / "model.ckpt"), "--in", str(img),
                 "--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()


def test_eval_on_identical_pred_gt(trained, tmp_path, capsys):
    _, data, _, _ = trained
    pred = tmp_path / "pred"
    pred.mkdir()
    from edgekit.rasters import load_gray

    for stem in ("000", "001"):
        gt = load_gray(data / "gt" / stem / "annotator_1.pgm")
        save_edge_map((gt > 0.5).astype(float), pred / f"{stem}.pgm")
        gtdir = tmp_path / "gt" / stem
        gtdir.mkdir(parents=True)
        shutil.copy(data / "gt" / stem / "annotator_1.pgm",
                    gtdir / "annotator_1.pgm")
    assert main(["eval", "--pred", str(pred), "--gt", str(tmp_path / "gt"),
                 "--tol", "0.0075", "--csv", str(tmp_path / "pr.csv")]) == 0
    out = capsys.readouterr().out
    assert "ODS=1.000 OIS=1.000 AP=1.000" in out
    header = (tmp_path / "pr.csv").read_text().splitlines()[0]
    assert header == "threshold,precision,recall,f"


def test_eval_rerun_byte_identical(trained, tmp_path):
    _, data, _, _ = trained
    pred = tmp_path / "pred"
    pred.mkdir()
    from edgekit.rasters import load_gray

    gt = load_gray(data / "gt" / "000" / "annotator_1.pgm")
    save_edge_map((gt > 0.5).astype(float), pred / "000.pgm")
    gtdir = tmp_path / "gt" / "000"
    gtdir.mkdir(parents=True)
    shutil.copy(data / "gt" / "000" / "annotator_1.pgm", gtdir / "annotator_1.pgm")
    for name in ("x.csv", "y.csv"):
        assert main(["eval", "--pred", str(pred), "--gt", str(tmp_path / "gt"),
                     "--csv", str(tmp_path / name)]) == 0
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


def test_gradcheck_quick(capsys):
    assert main(["gradcheck", "--quick", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_missing_file_exit_codes(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 5
    assert main(["infer", "--ckpt", str(tmp_path / "nope.ckpt"),
                 "--in", "x.ppm", "--out", "y.pgm"]) == 5


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for line in ("unknown_key=1", "ffm=false", "stage_mode=stage1_only",
                 "decoder_arch=bimla", "decoder_arch=mla"):
        cfg.write_text(line + "\n")
        assert main(["train", "--config", str(cfg)]) == 3
        assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "input_size=0", "input_size=-16", "path_channels=0", "side_channels=-1",
    "mlp_ratio=0", "batch_size=0", "iterations=-1", "seed=-1", "lr=nan",
    "momentum=-0.5", "lambda=-1"])
def test_train_size_below_minimum_exit_code(trained, tmp_path, line):
    """Each of these once trained silently, failed with a traceback, or
    stopped on NaN weights without naming the setting."""
    _, data, _, _ = trained
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CONFIG.format(data=data, out=tmp_path / "run")
                   .replace("iterations=3", "iterations=1") + line + "\n")
    assert main(["train", "--config", str(cfg)]) == 3
    assert not (tmp_path / "run" / "model.ckpt").exists()


@pytest.mark.parametrize("size, error", [
    (160000000000000000000, "gives a 10000000000000000000x10000000000000000000 "
                            "token grid"),
    (64, "crop 64 exceeds image (32, 32)"),
], ids=["160000000000000000000", "64"])
def test_train_crop_beyond_the_scenes_exit_code(trained, tmp_path, monkeypatch,
                                                capsys, size, error):
    """Each size is refused before the model is built. ``ModelConfig``
    refuses the first, whose token grid no array can hold; it once failed
    in the encoder's allocation with a traceback. The crop check against
    the 32 x 32 scenes refuses the second; any size too large once built
    the whole model first."""
    _, data, _, _ = trained
    built = []
    monkeypatch.setattr(cli, "EdgeDetector", lambda *a, **kw: built.append(a))
    cfg = tmp_path / "big.cfg"
    cfg.write_text(SMALL_CONFIG.format(data=data, out=tmp_path / "run")
                   .replace("input_size=32", f"input_size={size}"))
    assert main(["train", "--config", str(cfg)]) == 3
    assert error in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "run").exists()


def test_train_width_no_weight_can_hold_exit_code(trained, tmp_path,
                                                  monkeypatch, capsys):
    """A side-head width of 10**20 once built the detector and died in
    numpy's allocation with a traceback; the config now refuses it."""
    _, data, _, _ = trained
    built = []
    monkeypatch.setattr(cli, "EdgeDetector", lambda *a, **kw: built.append(a))
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(SMALL_CONFIG.format(data=data, out=tmp_path / "run")
                   + f"side_channels={10**20}\n")
    assert main(["train", "--config", str(cfg)]) == 3
    assert "side_channels give a weight that cannot be made" in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--n", "1", "--seed", "-3"],
    ["synth", "--n", "-2"],
    ["synth", "--n", "0"],
    ["synth", "--n", "1", "--annotators", "0"],
    ["synth", "--n", "1", "--size", "-5"],
    ["synth", "--n", "1", "--size", "0"],
    ["synth", "--n", "1", "--size", "2"],
    ["synth", "--n", "1", "--jitter", "nan"],
    ["synth", "--n", "1", "--jitter=-1"],
    ["synth", "--n", "1", "--jitter", "5"],
    ["synth", "--n", "1", "--jitter", "inf"],
    ["gradcheck", "--quick", "--seed", "-1"],
])
def test_negative_seed_or_count_is_a_usage_error(tmp_path, argv):
    """Each of these once ended in a numpy traceback, or wrote a dataset
    that training refuses."""
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(out)] if argv[0] == "synth" else []))
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverging_train_exit_code(trained, tmp_path, capsys):
    _, data, _, _ = trained
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(SMALL_CONFIG.format(data=data, out=tmp_path / "run")
                   .replace("iterations=3", "iterations=6")
                   .replace("batch_size=1", "batch_size=2") + "lr=1e8\n")
    assert main(["train", "--config", str(cfg)]) == 4
    assert "numeric failure: stage 1 iteration" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_checkpoint_one_sided_input_hw_exit_code(trained, tmp_path):
    _, data, out, _ = trained
    arrays, text = load_checkpoint(out / "model.ckpt")
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, arrays, text.replace("input_hw=32,32", "input_hw=32"))
    assert main(["infer", "--ckpt", str(bad), "--in",
                 str(data / "images" / "000.ppm"),
                 "--out", str(tmp_path / "e.pgm")]) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonexistent-command"])
    assert exc.value.code == 2


def test_config_template_parses(capsys):
    assert main(["config"]) == 0
    text = capsys.readouterr().out
    from edgekit.runconfig import RunConfig

    RunConfig.parse(text)


def test_config_template_bytes_are_pinned(capsys):
    # the run-file format: every key, default, spelling and description
    assert main(["config"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "5a0f855664dc5a873c132a9380550f2bd25ed1bb9eeba712a745b8046be2532c"


@pytest.mark.parametrize("scene, sizes", [
    ("001", {"annotator_3.pgm": 16}),  # ragged within one scene
    ("000", {f"annotator_{k}.pgm": 64 for k in range(1, 6)}),  # all too large
])
def test_train_mis_sized_annotator_maps_exit_code(tmp_path, capsys, scene, sizes):
    data = tmp_path / "data"
    write_dataset(data, 2, seed=3, size=32)
    for name, side in sizes.items():
        save_gray(np.zeros((side, side)), data / "gt" / scene / name)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG.format(data=data, out=tmp_path / "run"))
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    first = min(int(name[10:-4]) for name in sizes)
    assert f"scene {scene}: annotator map {first} " in err and "(32, 32)" in err
    assert not (tmp_path / "run").exists()


def test_infer_epfm_output(trained, tmp_path):
    _, data, out, _ = trained
    img = data / "images" / "000.ppm"
    target = tmp_path / "e.epfm"
    assert main(["infer", "--ckpt", str(out / "model.ckpt"), "--in", str(img),
                 "--out", str(target)]) == 0
    e = load_edge_map(target)
    assert e.shape == (32, 32)
    assert 0.0 <= e.min() and e.max() <= 1.0


def test_version1_checkpoint_exit_code(trained, tmp_path):
    _, data, out, _ = trained
    for version in (1, 2, 3, 4, 5):
        old = tmp_path / f"v{version}.ckpt"
        blob = bytearray((out / "model.ckpt").read_bytes())
        blob[4:8] = struct.pack("<I", version)
        old.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_checkpoint(old)
        assert main(["infer", "--ckpt", str(old), "--in",
                     str(data / "images" / "000.ppm"),
                     "--out", str(tmp_path / "e.pgm")]) == 3


def test_non_utf8_checkpoint_exit_code(trained, tmp_path):
    _, data, out, _ = trained
    good = (out / "model.ckpt").read_bytes()
    (cfg_len,) = struct.unpack("<I", good[40:44])
    assert 50 < 44 + cfg_len
    for pos in (50, 44 + cfg_len + 8):   # inside the config, the first name
        blob = bytearray(good)
        blob[pos] = 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["infer", "--ckpt", str(bad), "--in",
                     str(data / "images" / "000.ppm"),
                     "--out", str(tmp_path / "e.pgm")]) == 3
    assert not (tmp_path / "e.pgm").exists()


def test_non_finite_checkpoint_exit_code(trained, tmp_path):
    _, data, out, _ = trained
    blob = bytearray((out / "model.ckpt").read_bytes())
    blob[-4:] = struct.pack("<f", float("nan"))   # last value of the last tensor
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(bytes(blob))
    assert main(["infer", "--ckpt", str(bad), "--in",
                 str(data / "images" / "000.ppm"),
                 "--out", str(tmp_path / "e.pgm")]) == 4
    assert not (tmp_path / "e.pgm").exists()


@pytest.mark.parametrize("ms", [[], ["--ms"]])
def test_infer_any_size_round_trip(trained, tmp_path, ms):
    _, _, out, _ = trained
    img = tmp_path / "odd.ppm"
    save_image(np.random.default_rng(7).random((3, 37, 50)), img)
    target = tmp_path / "odd.pgm"
    assert main(["infer", "--ckpt", str(out / "model.ckpt"), "--in", str(img),
                 "--out", str(target)] + ms) == 0
    e = load_gray(target)
    assert e.shape == (37, 50)
    assert 0.0 <= e.min() and e.max() <= 1.0


@pytest.mark.parametrize("extra, code", [
    (["--ms", "--scales", "0.5,abc"], 2),   # not numbers: argparse
    (["--ms", "--scales", ""], 2),
    (["--scales", "0.5"], 2),               # --scales without --ms
    (["--ms", "--scales", "nan"], 3),       # numbers out of range: ConfigError
    (["--ms", "--scales", "0.5,inf"], 3),
    (["--ms", "--scales", "0"], 3),
    (["--ms", "--scales", "1.0,-1"], 3),
])
def test_infer_scales_misuse_exit_codes(trained, tmp_path, extra, code):
    _, data, out, _ = trained
    args = ["infer", "--ckpt", str(out / "model.ckpt"),
            "--in", str(data / "images" / "000.ppm"), "--out", str(tmp_path / "e.pgm")]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(args + extra)
        assert exc.value.code == 2
    else:
        assert main(args + extra) == code
    assert not (tmp_path / "e.pgm").exists()


def test_eval_rerun_byte_identical_with_matching(tmp_path, capsys):
    # at 128x128 the default tolerance is a 1.36 px radius, so the matcher
    # chooses among candidates instead of counting coincident pixels
    assert DEFAULT_TOLERANCE * np.hypot(128, 128) > 1.0
    assert build_parser().parse_args(["eval", "--pred", "p", "--gt", "g"]).tol \
        == DEFAULT_TOLERANCE
    data = tmp_path / "data"
    assert main(["synth", "--n", "2", "--seed", "4", "--size", "128",
                 "--out", str(data)]) == 0
    pred = tmp_path / "pred"
    pred.mkdir()
    rng = np.random.default_rng(4)
    for stem in ("000", "001"):
        gt = load_gray(data / "gt" / stem / "annotator_1.pgm")
        shifted = np.roll(gt, 1, axis=1)  # one pixel off: no coincidences
        noisy = 0.8 * shifted + 0.3 * rng.random(gt.shape)
        save_edge_map(np.clip(noisy, 0.0, 1.0), pred / f"{stem}.epfm")
    csvs = []
    for name in ("x.csv", "y.csv"):
        assert main(["eval", "--pred", str(pred), "--gt", str(data / "gt"),
                     "--csv", str(tmp_path / name)]) == 0
        csvs.append((tmp_path / name).read_bytes())
    assert csvs[0] == csvs[1]
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    ods = float(summary.split()[0].removeprefix("ODS="))
    assert ods > 0.5


def _eval_dir(root, pred_map, gt_map, suffix=".pgm"):
    pred = root / "pred"
    pred.mkdir()
    gt_dir = root / "gt" / "000"
    gt_dir.mkdir(parents=True)
    if suffix == ".epfm":
        v = np.asarray(pred_map, dtype="<f4")  # written by hand: may hold NaN
        (pred / "000.epfm").write_bytes(
            FLOAT_MAGIC + struct.pack("<3I", 2, *v.shape) + v.tobytes())
    else:
        save_edge_map(pred_map, pred / f"000{suffix}")
    save_edge_map(gt_map, gt_dir / "annotator_1.pgm")
    return ["eval", "--pred", str(pred), "--gt", str(root / "gt")]


def test_eval_rejects_a_stem_given_twice(tmp_path, capsys):
    # a stray 000.epfm beside 000.pgm would be scored as a second image
    # against the same annotators
    gt = np.zeros((8, 8))
    gt[4, :] = 1.0
    args = _eval_dir(tmp_path, gt, gt)
    save_edge_map(gt, tmp_path / "pred" / "000.epfm")
    assert main(args) == 3
    assert "000" in capsys.readouterr().err


def test_eval_shape_mismatch_exit_code(tmp_path):
    gt = np.zeros((8, 8))
    gt[4, :] = 1.0
    args = _eval_dir(tmp_path, np.full((16, 16), 0.5), gt)
    assert main(args) == 3


@pytest.mark.parametrize("width, height", [(0, 0), (0, 3), (3, 0)])
def test_eval_map_without_pixels_exit_code(tmp_path, capsys, width, height):
    empty = b"P5\n%d %d\n255\n" % (width, height)
    args = _eval_dir(tmp_path, np.zeros((1, 1)), np.zeros((1, 1)))
    (tmp_path / "pred" / "000.pgm").write_bytes(empty)
    (tmp_path / "gt" / "000" / "annotator_1.pgm").write_bytes(empty)
    assert main(args) == 3
    assert main(args + ["--no-nms"]) == 3
    assert "pixels" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.01"])
def test_eval_bad_tolerance_exit_code(tmp_path, tol):
    gt = np.zeros((8, 8))
    gt[4, :] = 1.0
    args = _eval_dir(tmp_path, gt, gt)
    assert main(args + [f"--tol={tol}"]) == 3


def test_eval_non_finite_prediction_exit_code(tmp_path):
    gt = np.zeros((8, 8))
    gt[4, :] = 1.0
    pred = gt.copy()
    pred[2, 3] = np.nan
    args = _eval_dir(tmp_path, pred, gt, suffix=".epfm")
    assert main(args) == 4
    assert main(args + ["--no-nms"]) == 4


@pytest.mark.parametrize("value", [-3.0, 7.0])
def test_eval_out_of_range_prediction_exit_code(tmp_path, value):
    gt = np.zeros((8, 8))
    gt[4, :] = 1.0
    args = _eval_dir(tmp_path, np.full((8, 8), value), gt, suffix=".epfm")
    assert main(args) == 4
    assert main(args + ["--no-nms"]) == 4


def test_eval_huge_float_raster_header_exit_code(tmp_path):
    gt = np.zeros((8, 8))
    gt[4, :] = 1.0
    args = _eval_dir(tmp_path, gt, gt, suffix=".epfm")
    (tmp_path / "pred" / "000.epfm").write_bytes(
        FLOAT_MAGIC + struct.pack("<5I", 4, *[65536] * 4))
    assert main(args) == 3


@pytest.mark.parametrize("header", [
    struct.pack("<66I", 65, *[1] * 65) + bytes(4),  # rank above numpy's 64
    struct.pack("<4I", 3, 0, 2**31, 2**31),  # empty, but no array that shape
], ids=["rank65", "empty_huge"])
def test_eval_unshapeable_float_raster_header_exit_code(tmp_path, header):
    gt = np.zeros((8, 8))
    gt[4, :] = 1.0
    args = _eval_dir(tmp_path, gt, gt, suffix=".epfm")
    (tmp_path / "pred" / "000.epfm").write_bytes(FLOAT_MAGIC + header)
    assert main(args) == 3
    assert main(args + ["--no-nms"]) == 3


@pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**32 - 1,) * 4])
def test_infer_huge_checkpoint_header_exit_code(tmp_path, dims):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, {"w": np.zeros((1,) * len(dims))}, "k=v\n")
    ckpt.write_bytes(ckpt.read_bytes()[:-4 * len(dims) - 4]
                     + struct.pack(f"<{len(dims)}I", *dims))
    assert main(["infer", "--ckpt", str(ckpt), "--in", str(tmp_path / "x.ppm"),
                 "--out", str(tmp_path / "e.pgm")]) == 3


@pytest.mark.parametrize("dims", [(1,) * 65, (0, 2**31, 2**31)],
                         ids=["rank65", "empty_huge"])
def test_infer_unshapeable_checkpoint_header_exit_code(tmp_path, dims):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, {"w": np.zeros(1)}, "k=v\n")
    ckpt.write_bytes(ckpt.read_bytes()[:-12]
                     + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
                     + bytes(4 * math.prod(dims)))
    assert main(["infer", "--ckpt", str(ckpt), "--in", str(tmp_path / "x.ppm"),
                 "--out", str(tmp_path / "e.pgm")]) == 3


def test_infer_checkpoint_config_with_an_unshapeable_token_grid_exit_code(tmp_path):
    """The config digest matches, but no array can hold the position
    embedding of its token grid: exit 3 before a model is built."""
    side = 160000000000000000000  # a multiple of 16 and 32
    text = ModelConfig().canonical_text().replace("input_hw=64,64",
                                                  f"input_hw={side},{side}")
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, {"w": np.zeros(1)}, text)
    assert main(["infer", "--ckpt", str(ckpt), "--in", str(tmp_path / "x.ppm"),
                 "--out", str(tmp_path / "e.pgm")]) == 3


@pytest.mark.parametrize("shape", [(3,), (1,)])
def test_checkpoint_buffer_shape_exit_code(trained, tmp_path, shape):
    _, data, out, _ = trained
    arrays, config_text = load_checkpoint(out / "model.ckpt")
    name = next(n for n in sorted(arrays) if n.endswith("running_mean"))
    assert arrays[name].shape != shape
    arrays[name] = np.zeros(shape)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, arrays, config_text)
    model = EdgeDetector(ModelConfig.from_canonical_text(config_text))
    with pytest.raises(ShapeError):
        model.load_state_arrays(arrays)
    assert main(["infer", "--ckpt", str(bad), "--in",
                 str(data / "images" / "000.ppm"),
                 "--out", str(tmp_path / "e.pgm")]) == 3
