import numpy as np
import pytest

from edgekit import tensor as T
from edgekit.errors import ConfigError, PartitionError, ShapeError, UsageError
from edgekit.model import (EdgeDetector, ModelConfig, partition_windows,
                           reassemble_windows)
from edgekit.tensor import Tensor

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
    wins = partition_windows(img)
    assert len(wins) == 4
    assert all(w.shape == (1, 3, 160, 160) for w in wins)
    # pixel (0, W-1) lands in the top-right window at (0, W/2-1)
    assert wins[1][0, 0, 0, 159] == img[0, 0, 0, 319]
    assert np.array_equal(wins[0], img[:, :, :160, :160])
    assert np.array_equal(wins[2], img[:, :, 160:, :160])


def test_partition_round_trip_bit_exact():
    img = rng.random((2, 3, 64, 64))
    assert np.array_equal(reassemble_windows(partition_windows(img)), img)


def test_partition_odd_extent_rejected():
    with pytest.raises(PartitionError):
        partition_windows(np.zeros((1, 3, 33, 64)))


def test_stage1_shapes_and_range(net, image):
    with T.no_grad():
        f_g, e_g, paths = net.run_stage1(image)
    assert e_g.shape == (1, 1, 32, 32)
    assert 0.0 < e_g.data.min() and e_g.data.max() < 1.0
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
        windows = partition_windows(image)
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


def test_ffm_switch_is_live(image):
    """Two models of one seed that differ only in ``ffm_enabled`` hold the
    same weights and give different maps."""
    on = EdgeDetector(tiny_cfg(ffm_enabled=True), seed=3)
    off = EdgeDetector(tiny_cfg(ffm_enabled=False), seed=3)
    a, b = on.state_arrays(), off.state_arrays()
    assert list(a) == list(b)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    with T.no_grad():
        f_g, _, _ = on.run_stage1(image)
        _, e_on, _, _ = on.run_stage2(image, f_g)
        _, e_off, _, _ = off.run_stage2(image, f_g)
    assert e_on.shape == e_off.shape == (1, 1, 32, 32)
    assert not np.allclose(e_on.data, e_off.data)
    for e in (e_on, e_off):
        assert 0.0 < e.data.min() and e.data.max() < 1.0


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


def test_infer_stage_modes(image):
    two = EdgeDetector(tiny_cfg(), seed=12)
    one = EdgeDetector(tiny_cfg(stage_mode="stage1_only"), seed=12)
    out_two = two.infer(image)
    out_one = one.infer(image)
    one.eval()  # infer restores the training mode the model was built in
    with T.no_grad():
        _, e_g, _ = one.run_stage1(image)
    assert np.array_equal(out_one, e_g.data)
    assert not np.array_equal(out_one, out_two)


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
        assert np.array_equal(net2.infer_multiscale(img, (1.0,)), net2.infer(img))


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


@pytest.mark.parametrize("mode", ["two_stage", "stage1_only"])
def test_infer_any_size(mode):
    """Sizes that are not a multiple of the 16 px cell are edge-padded and
    cropped back; a native-size image pads nothing."""
    m = EdgeDetector(tiny_cfg(stage_mode=mode), seed=0)
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


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig.toy(input_hw=(40, 64))  # not divisible by 16
    with pytest.raises(ConfigError):
        ModelConfig.toy(stage_mode="three_stage")


@pytest.mark.parametrize("field,value", [
    ("input_hw", (0, 64)), ("input_hw", (-16, -16)), ("input_hw", (64,)),
    ("input_hw", (64, 64, 64)), ("embed_dim", 1), ("heads", 0),
    ("head_dim", 0), ("mlp_ratio", 0), ("path_channels", 0),
    ("smooth_channels", -1), ("side_channels", -1), ("window_divisor", 0)])
def test_config_rejects_sizes_below_their_minimum(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


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
                            smooth_channels=12, decoder_arch="mla",
                            ffm_enabled=False, stage_mode="stage1_only",
                            side_channels=2)]
    for cfg in cfgs:
        assert ModelConfig.from_canonical_text(cfg.canonical_text()) == cfg
    text = cfgs[0].canonical_text()
    assert "heads=8\n" in text and "global_taps=2,4,6,8\n" in text
    assert len(text.splitlines()) == 14
    assert text.splitlines() == sorted(text.splitlines())


def test_canonical_text_rejects_missing_unknown_and_malformed_keys():
    text = ModelConfig.toy().canonical_text()
    lines = text.splitlines(keepends=True)
    bad = [
        "".join(lines[1:]),                                 # missing key
        text + "colour=red\n",                              # unknown key
        text.replace("heads=8", "global_encoder.heads=8"),  # version-4 key
        text + "global_depth=8\n",                          # version-5 key
        text + "window_divisor\n",                          # no "="
        text + lines[0],                                    # repeated key
        text.replace("heads=8", "heads=eight"),
        text.replace("ffm_enabled=True", "ffm_enabled=1"),
        text.replace("input_hw=64,64", "input_hw=64,,64"),
        text.replace("input_hw=64,64", "input_hw=64"),
        text.replace("input_hw=64,64", "input_hw=0,64"),
        text.replace("heads=8", "heads=0"),
        text.replace("local_taps=1,2,3,4", "local_taps=2,3,4"),
        text.replace("decoder_arch=bimla", "decoder_arch=other"),
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
