import warnings
from dataclasses import fields

import numpy as np
import pytest

from edgekit import tensor as T
from edgekit.errors import (ConfigError, NumericError, PartitionError, ShapeError,
                            UsageError)
from edgekit.model import EdgeDetector, ModelConfig, partition_windows
from edgekit.tensor import Tensor
from edgekit.train import stage_loss
import oracles
from oracles import reassemble_windows, unfold_batch_norm_in_float64

rng = np.random.default_rng(5)


def tiny_cfg(**over):
    base = dict(input_hw=(32, 32))
    base.update(over)
    return ModelConfig.toy(**base)


@pytest.fixture(scope="module")
def net():
    return EdgeDetector(tiny_cfg(), seed=3)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(0).random((1, 3, 32, 32))


def test_partition_four_windows_row_major():
    img = np.arange(3 * 320 * 320, dtype=np.float64).reshape(1, 3, 320, 320)
    wins = partition_windows(img, 2)
    assert len(wins) == 4
    assert all(w.shape == (1, 3, 160, 160) for w in wins)
    # pixel (0, W-1) lands in the top-right window at (0, W/2-1)
    assert wins[1][0, 0, 0, 159] == img[0, 0, 0, 319]
    assert np.array_equal(wins[0], img[:, :, :160, :160])
    assert np.array_equal(wins[2], img[:, :, 160:, :160])


def test_partition_round_trip_bit_exact():
    img = rng.random((2, 3, 64, 64))
    assert np.array_equal(reassemble_windows(partition_windows(img, 2)), img)


def test_partition_odd_extent_rejected():
    with pytest.raises(PartitionError):
        partition_windows(np.zeros((1, 3, 33, 64)), 2)


def test_stage1_shapes_and_range(net, image):
    with T.no_grad():
        f_g, e_g, paths = net.run_stage1(image)
        p = T.sigmoid(e_g).data  # the head emits logits
    assert e_g.shape == (1, 1, 32, 32)
    assert 0.0 < p.min() and p.max() < 1.0
    assert f_g.shape[2:] == (32, 32)
    assert len(paths) == 8
    # the coarse stage fixes 16 px patches and 3x3 decoder convolutions
    assert paths[0].shape[2:] == (2, 2)
    assert net.global_stage.decoder.td_conv[0].weight.shape[2:] == (3, 3)


def test_stage2_shapes_and_fusion_requirement(net, image):
    with T.no_grad():
        f_g, _, _ = net.run_stage1(image)
        f_r, e_r, paths, fused = net.run_stage2(image, f_g)
    assert e_r.shape == (1, 1, 32, 32)
    assert fused.shape[2:] == (32, 32)
    assert len(paths) == 8
    # the fine stage fixes 8 px patches and 1x1 decoder convolutions
    assert paths[0].shape[2:] == (4, 4)
    assert net.local_stage.decoder.td_conv[0].weight.shape[2:] == (1, 1)
    with pytest.raises(UsageError):
        net.run_stage2(image, None)


def test_stage1_deterministic_replay(net, image):
    with T.no_grad():
        _, a, _ = net.run_stage1(image)
        _, b, _ = net.run_stage1(image)
    assert np.array_equal(a.data, b.data)


def test_window_taps_match_per_window_encoding(net, image):
    """Batched window encoding equals encoding each window separately,
    regardless of processing order."""
    with T.no_grad():
        merged, grid = net.local_stage.window_taps(image)
        windows = partition_windows(image, 2)
        per_window = []
        for w in (windows[2], windows[0], windows[3], windows[1]):  # any order
            taps, g = net.local_stage.encoder(np.ascontiguousarray(w))
            per_window.append((w, taps, g))
    order = {id(windows[i]): i for i in range(4)}
    gh, gw = 2, 2
    for level in range(4):
        whole = merged[level].data.reshape(1, grid[0], grid[1], -1)
        for w, taps, g in per_window:
            wi = order[id(w)]
            iy, ix = divmod(wi, 2)
            block = taps[level].data.reshape(1, gh, gw, -1)
            sub = whole[:, iy * gh:(iy + 1) * gh, ix * gw:(ix + 1) * gw]
            assert np.abs(sub - block).max() < 1e-12


def test_window_locality_of_taps(net, image):
    """Zeroing one window's content changes only that window's tap rows."""
    with T.no_grad():
        base, grid = net.local_stage.window_taps(image)
        modified = image.copy()
        modified[:, :, :16, :16] = 0.0  # window 0 (top-left)
        changed, _ = net.local_stage.window_taps(modified)
    gh = gw = 2
    for level in range(4):
        a = base[level].data.reshape(grid[0], grid[1], -1)
        b = changed[level].data.reshape(grid[0], grid[1], -1)
        diff = np.abs(a - b).sum(axis=-1)
        assert diff[:gh, :gw].max() > 0
        outside = diff.copy()
        outside[:gh, :gw] = 0
        assert outside.max() == 0.0


def _both_stage_losses(net2, image):
    """Both stages' losses summed, recorded on the active tape."""
    labels = (rng.random((1, 1, 32, 32)) < 0.1).astype(np.float64)
    f_g, e_g, gpaths = net2.run_stage1(image)
    _, e_r, rpaths, _ = net2.run_stage2(image, f_g)
    return T.add(
        stage_loss(e_g, net2.side_outputs(gpaths, "global", (32, 32)), labels),
        stage_loss(e_r, net2.side_outputs(rpaths, "local", (32, 32)), labels))


def test_no_parameter_sits_idle(image):
    """The stage groups name every parameter once, and one backward through
    both stage losses gives each of them a gradient, and no intermediate
    one."""
    net2 = EdgeDetector(tiny_cfg(), seed=7)
    net2.train()
    grouped = [n for n, _ in net2.stage1_parameters() + net2.stage2_parameters()]
    assert grouped == [n for n, _ in net2.named_parameters()]
    with T.fresh_tape() as tape:
        loss = _both_stage_losses(net2, image)
        outputs = [rec.out for rec in tape.records]  # backward empties the tape
        T.backward(loss)
    assert [n for n, p in net2.named_parameters() if p.grad is None] == []
    assert outputs and all(t.grad is None for t in outputs)


def _held_arrays(obj, seen):
    """The arrays ``obj`` holds: itself, a tensor's data, the items of a
    list or tuple, and what a function's closure cells hold (each function
    once, by ``seen``)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Tensor):
        yield obj.data
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item, seen)
    elif callable(obj) and obj not in seen:
        seen.append(obj)
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                contents = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            yield from _held_arrays(contents, seen)


def test_training_tape_holds_no_decoder_concat():
    """The decoders' first smoothing conv reads the eight upsampled paths as
    one input without building their concatenation: after a training
    forward of the 64x64 toy model, no record holds a batch-sized array of
    8 * path_channels channels, as output, input or in its adjoint."""
    cfg = ModelConfig.toy()
    net2 = EdgeDetector(cfg, seed=7)
    net2.train()
    img = np.random.default_rng(8).random((2, 3, *cfg.input_hw))
    with T.fresh_tape() as tape:
        f_g, _, _ = net2.run_stage1(img)
        net2.run_stage2(img, f_g)
        assert len(tape) > 0
        seen = []
        held = [a for rec in tape.records
                for a in _held_arrays((rec.out, rec.inputs, rec.adjoint), seen)]
    assert held
    wide = [a.shape for a in held
            if a.ndim == 4 and a.shape[:2] == (2, 8 * cfg.path_channels)]
    assert wide == []


def test_no_adjoint_writes_into_its_upstream_gradient(image):
    """Backward hands each adjoint its gradient uncopied, so every adjoint
    must leave it as it is: here a write into it raises."""
    def read_only(adjoint):
        def spy(g):
            g.flags.writeable = False
            return adjoint(g)
        return spy

    net2 = EdgeDetector(tiny_cfg(), seed=7)
    net2.train()
    with T.fresh_tape() as tape:
        loss = _both_stage_losses(net2, image)
        for rec in tape.records:
            rec.adjoint = read_only(rec.adjoint)
        T.backward(loss)
    assert all(p.grad is not None for p in net2.parameters())


def test_ffm_identity_and_prior_only_modulation(image):
    net2 = EdgeDetector(tiny_cfg(), seed=9)
    fusion = net2.local_stage.fusion
    f_g = Tensor(rng.normal(size=(1, 16, 8, 8)))
    f_r = Tensor(rng.normal(size=(1, 16, 8, 8)))
    fusion.scale_gen.weight.data[:] = 0.0
    fusion.scale_gen.bias.data[:] = 1.0
    fusion.shift_gen.weight.data[:] = 0.0
    fusion.shift_gen.bias.data[:] = 0.0
    assert np.allclose(fusion.modulate(f_g, f_r).data, f_r.data)
    fusion.scale_gen.bias.data[:] = 0.0
    fusion.shift_gen.weight.data[:] = 0.3
    shift = fusion.shift_gen(f_g).data
    assert np.allclose(fusion.modulate(f_g, f_r).data, shift)


def test_ffm_gradients_reach_both_branches():
    net2 = EdgeDetector(tiny_cfg(), seed=1)
    net2.train()
    f_g = Tensor(rng.normal(size=(1, 16, 8, 8)), requires_grad=True)
    f_r = Tensor(rng.normal(size=(1, 16, 8, 8)), requires_grad=True)
    with T.fresh_tape():
        out = net2.local_stage.fusion(f_g, f_r)
        T.backward(T.tensor_sum(out))
    assert f_g.grad is not None and np.abs(f_g.grad).max() > 0
    assert f_r.grad is not None and np.abs(f_r.grad).max() > 0


def test_ffm_extent_mismatch(net):
    with pytest.raises(ShapeError):
        net.local_stage.fusion(Tensor(np.zeros((1, 16, 8, 8))),
                               Tensor(np.zeros((1, 16, 4, 4))))


def test_infer_accepts_single_image(net):
    single = rng.random((3, 32, 32))
    out = net.infer(single)
    assert out.shape == (1, 32, 32)


def test_infer_repeat_bit_identical(net, image):
    assert np.array_equal(net.infer(image), net.infer(image))


def test_multiscale_single_scale_equals_infer():
    net2 = EdgeDetector(tiny_cfg(), seed=2)
    # scale 1.0 keeps the image's own size, native or not
    for hw in ((32, 32), (64, 64), (80, 48)):
        img = rng.random((1, 3, *hw))
        single, multi = net2.infer(img), net2.infer_multiscale(img, (1.0,))
        assert single.dtype == multi.dtype == np.float64
        assert np.array_equal(multi, single)


def test_multiscale_range_and_commutativity():
    net2 = EdgeDetector(tiny_cfg(), seed=2)
    img = rng.random((1, 3, 32, 32))
    a = net2.infer_multiscale(img, (0.5, 1.0, 1.5))
    b = net2.infer_multiscale(img, (1.5, 0.5, 1.0))
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert np.abs(a - b).max() < 1e-12


def test_multiscale_empty_scales_rejected(net, image):
    for scales in ((), (1.0, float("nan")), (float("inf"),), (0.0,), (-1.0,),
                   (0.5, -0.01)):
        with pytest.raises(ConfigError):
            net.infer_multiscale(image, scales)


def test_output_shape_for_legal_sizes():
    for h in (32, 64, 96):
        for w in (32, 64):
            cfg = ModelConfig.toy(input_hw=(h, w))
            m = EdgeDetector(cfg, seed=0)
            out = m.infer(np.random.default_rng(1).random((1, 3, h, w)))
            assert out.shape == (1, 1, h, w)


def test_infer_any_size():
    """Sizes that are not a multiple of the 16 px cell are edge-padded and
    cropped back; a native-size image pads nothing."""
    m = EdgeDetector(tiny_cfg(), seed=0)
    for h, w in ((80, 80), (128, 96), (70, 50), (1, 17)):
        img = np.random.default_rng(1).random((2, 3, h, w))
        out = m.infer(img)
        assert out.shape == (2, 1, h, w)
        assert np.isfinite(out).all() and 0.0 <= out.min() and out.max() <= 1.0
        assert m.infer_multiscale(img[0]).shape == (1, h, w)
    img = np.random.default_rng(2).random((1, 3, 70, 50))
    padded = np.pad(img, ((0, 0), (0, 0), (0, 10), (0, 14)), mode="edge")
    assert np.array_equal(m.infer(img), m.infer(padded)[..., :70, :50])
    with pytest.raises(ShapeError):
        m.infer(np.zeros((1, 3, 0, 16)))


@pytest.mark.parametrize("shape", [(4, 32, 32), (1, 32, 32), (2, 1, 32, 32)])
def test_infer_names_a_wrong_channel_count(net, shape):
    img = np.zeros(shape)
    for run in (net.infer, net.infer_multiscale):
        with pytest.raises(ShapeError, match=rf"{shape[-3]} channels.*needs 3"):
            run(img)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_infer_rejects_non_finite_image_before_running(net, value):
    full = np.full((3, 32, 32), value)
    one = np.random.default_rng(3).random((1, 3, 32, 32))
    one[0, 1, 5, 7] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the model must not run into it
        for img in (full, one):
            for run in (net.infer, net.infer_multiscale):
                with pytest.raises(NumericError, match="input image"):
                    run(img)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig.toy(input_hw=(40, 64))  # not divisible by 16


@pytest.mark.parametrize("field,value", [
    ("input_hw", (0, 64)), ("input_hw", (-16, -16)), ("input_hw", (64,)),
    ("input_hw", (64, 64, 64)), ("embed_dim", 1), ("heads", 0),
    ("head_dim", 0), ("mlp_ratio", 0), ("path_channels", 0),
    ("smooth_channels", -1), ("side_channels", -1), ("window_divisor", 0)])
def test_config_rejects_sizes_below_their_minimum(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


# a multiple of 16 and 32 whose token grids no array can hold
HUGE_SIDE = 160000000000000000000


@pytest.mark.parametrize("fields", [
    dict(input_hw=(HUGE_SIDE, HUGE_SIDE)),
    dict(input_hw=(64, 2**64)),
    # 2**26 x 2**26 coarse tokens fit; the 2**27 x 2**27 fine ones do not
    dict(input_hw=(2**30, 2**30), window_divisor=1),
], ids=["huge", "wide", "fine_only"])
def test_config_rejects_a_token_grid_no_array_can_hold(fields):
    """A native token grid whose (cells, embed_dim) position embedding numpy
    cannot shape is a ConfigError, from the constructor and from a
    checkpoint's config text, before any model is built."""
    with pytest.raises(ConfigError, match="token grid"):
        ModelConfig(**fields)
    (h, w), d = fields["input_hw"], fields.get("window_divisor", 2)
    text = (ModelConfig().canonical_text()
            .replace("input_hw=64,64", f"input_hw={h},{w}")
            .replace("window_divisor=2", f"window_divisor={d}"))
    with pytest.raises(ConfigError, match="token grid"):
        ModelConfig.from_canonical_text(text)


@pytest.mark.parametrize("field", ["heads", "head_dim", "mlp_ratio",
                                   "path_channels", "smooth_channels",
                                   "side_channels"])
def test_config_rejects_a_width_no_weight_can_hold(field):
    """A width of 10**20 once passed the config and died in numpy's
    allocation when the detector was built; its weights' shapes are now
    refused, naming the width, before any model is built."""
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: 10**20})
    text = ModelConfig().canonical_text().replace(
        f"{field}={getattr(ModelConfig(), field)}\n", f"{field}={10**20}\n")
    with pytest.raises(ConfigError, match=field):
        ModelConfig.from_canonical_text(text)


@pytest.mark.parametrize("field,value", [
    ("input_hw", 64), ("input_hw", [64, 64]), ("input_hw", (64.0, 64)),
    ("input_hw", (True, 64)), ("embed_dim", 8.0), ("heads", 1.5),
    ("heads", True), ("head_dim", "8"), ("window_divisor", True),
    ("global_taps", (1, 2, 3, 4.5)), ("local_taps", [1, 2, 3, 4]),
    ("local_taps", (False, 1, 2, 3))])
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


def test_each_stage_encoder_depth_is_its_last_tap():
    m = EdgeDetector(tiny_cfg(global_taps=(1, 2, 3, 5), local_taps=(2, 4, 5, 6)),
                     seed=0)
    assert len(m.global_stage.encoder.blocks) == 5
    assert len(m.local_stage.encoder.blocks) == 6
    assert m.global_stage.encoder.taps == (1, 2, 3, 5)
    assert m.local_stage.encoder.taps == (2, 4, 5, 6)


# one valid value per ModelConfig field other than tiny_cfg's
OTHER_FIELD_VALUES = {
    "input_hw": (32, 48), "embed_dim": 32, "heads": 2, "head_dim": 4,
    "mlp_ratio": 2, "path_channels": 8, "smooth_channels": 8,
    "global_taps": (1, 2, 3, 5), "local_taps": (1, 2, 3, 5),
    "side_channels": 2, "window_divisor": 4}


def test_every_model_field_shapes_the_model():
    """A field that changes no parameter or buffer name or shape is one the
    model ignores."""
    def layout(cfg):
        return {n: a.shape for n, a in EdgeDetector(cfg).state_arrays().items()}

    base = layout(tiny_cfg())
    assert set(OTHER_FIELD_VALUES) == {f.name for f in fields(ModelConfig)}
    for name, value in OTHER_FIELD_VALUES.items():
        assert value != getattr(tiny_cfg(), name)
        assert layout(tiny_cfg(**{name: value})) != base, name


def test_state_round_trip(net):
    state = net.state_arrays()
    other = EdgeDetector(tiny_cfg(), seed=99)
    other.load_state_arrays({k: v.copy() for k, v in state.items()})
    for (n1, p1), (n2, p2) in zip(net.named_parameters(), other.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)
    bad = dict(state)
    bad.pop(sorted(bad)[0])
    with pytest.raises(UsageError):
        other.load_state_arrays(bad)


def test_canonical_text_round_trip():
    cfgs = [ModelConfig.toy(input_hw=(64, 64)),
            ModelConfig.toy(input_hw=(32, 96), embed_dim=32, heads=2,
                            head_dim=16, mlp_ratio=2, local_taps=(2, 3, 4, 5), path_channels=8,
                            smooth_channels=12, side_channels=2)]
    for cfg in cfgs:
        assert ModelConfig.from_canonical_text(cfg.canonical_text()) == cfg
    text = cfgs[0].canonical_text()
    assert "heads=8\n" in text and "global_taps=2,4,6,8\n" in text
    assert len(text.splitlines()) == 11
    assert text.splitlines() == sorted(text.splitlines())


def test_canonical_text_rejects_missing_unknown_and_malformed_keys():
    text = ModelConfig.toy().canonical_text()
    lines = text.splitlines(keepends=True)
    bad = [
        "".join(lines[1:]),                                 # missing key
        text + "colour=red\n",                              # unknown key
        text.replace("heads=8", "global_encoder.heads=8"),  # version-4 key
        text + "global_depth=8\n",                          # version-5 key
        text + "ffm_enabled=True\n",                        # version-6 key
        text + "stage_mode=two_stage\n",                    # version-6 key
        text + "decoder_arch=bimla\n",                      # version-7 key
        text + "window_divisor\n",                          # no "="
        text + lines[0],                                    # repeated key
        text.replace("heads=8", "heads=eight"),
        text.replace("embed_dim=64", "embed_dim=64.0"),
        text.replace("input_hw=64,64", "input_hw=64,,64"),
        text.replace("input_hw=64,64", "input_hw=64"),
        text.replace("input_hw=64,64", "input_hw=0,64"),
        text.replace("heads=8", "heads=0"),
        text.replace("local_taps=1,2,3,4", "local_taps=2,3,4"),
    ]
    for case in bad:
        assert case != text
        with pytest.raises(ConfigError):
            ModelConfig.from_canonical_text(case)


def test_infer_restores_every_module_mode(image):
    net2 = EdgeDetector(tiny_cfg(), seed=4)
    net2.train()
    net2.freeze_stage1()
    net2.infer(image)
    assert net2.training
    assert not any(m.training for m in net2.global_stage.modules())
    assert all(m.training for m in net2.local_stage.modules())


def _conv_calls(monkeypatch, run) -> dict[str, int]:
    """How often ``run()`` calls each convolution primitive and a batch
    norm: the training primitive or the eval-mode oracle."""
    counts = dict.fromkeys(("conv2d", "deconv2d", "batch_norm"), 0)
    for owner, op, key in ((T, "conv2d", "conv2d"), (T, "deconv2d", "deconv2d"),
                           (T, "batch_norm", "batch_norm"),
                           (oracles, "batch_norm_relu_eval", "batch_norm")):
        def counted(*args, _key=key, _f=getattr(owner, op), **kwargs):
            counts[_key] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, op, counted)
    run()
    monkeypatch.undo()
    return counts


def test_infer_folds_every_batch_norm(monkeypatch, image):
    """Folded inference runs no batch norm and the same convolutions as the
    float64 unfolded path."""
    net2 = EdgeDetector(tiny_cfg(), seed=6)
    for run in (lambda: net2.infer(image),
                lambda: net2.infer_multiscale(image, (0.5, 1.0))):
        folded = _conv_calls(monkeypatch, run)
        unfold_batch_norm_in_float64(monkeypatch)
        unfolded = _conv_calls(monkeypatch, run)
        assert folded["batch_norm"] == 0 and unfolded["batch_norm"] > 0
        assert folded["conv2d"] == unfolded["conv2d"]
        assert folded["deconv2d"] == unfolded["deconv2d"]


def test_float32_infer_batched_equals_per_image():
    """What the benchmark's batch check needs: a batch and its images one
    at a time give the same map, bit for bit."""
    for seed in range(5):
        net2 = EdgeDetector(ModelConfig.toy(), seed=seed)
        imgs = np.random.default_rng(100 + seed).random((2, 3, 64, 64))
        singles = np.stack([net2.infer(img) for img in imgs])
        assert np.array_equal(net2.infer(imgs), singles)


@pytest.mark.parametrize("run", ["infer", "infer_multiscale"])
def test_infer_hands_back_float64_parameters(image, run):
    net2 = EdgeDetector(tiny_cfg(), seed=8)
    before = {n: p.data for n, p in net2.named_parameters()}
    head = net2.global_stage.head.weight
    head.grad = grad = np.ones_like(head.data)  # a caller's pending gradient
    out = getattr(net2, run)(image)
    assert out.dtype == np.float64
    assert all(p.data is before[n] for n, p in net2.named_parameters())
    assert head.grad is grad
    assert T.current_dtype() == np.float64
    net2.local_stage.encoder.blocks[0].attn.w_q.data[0, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError):
            getattr(net2, run)(image)
    assert all(p.data is before[n] for n, p in net2.named_parameters())
    assert {p.data.dtype for p in net2.parameters()} == {np.dtype(np.float64)}
    assert T.current_dtype() == np.float64


def test_float32_infer_close_to_float64_unfolded(monkeypatch):
    """At 161 x 241 (edge-padded to 176 x 256) the float32 folded map stays
    within 2e-6 of the float64 map with batch norm unfolded."""
    net2 = EdgeDetector(ModelConfig.toy(), seed=1)
    r = np.random.default_rng(4)
    for name, b in net2.named_buffers():  # statistics that make folding matter
        b[...] = (r.normal(0.0, 0.3, b.shape) if name.endswith("mean")
                  else r.uniform(0.5, 2.0, b.shape))
    img = r.random((1, 3, 161, 241))
    fast = net2.infer(img)
    unfold_batch_norm_in_float64(monkeypatch)
    ref = net2.infer(img)
    assert np.abs(fast - ref).max() < 2e-6
    assert 0 < np.abs(fast - ref).max()
