import numpy as np
import pytest

from edgekit import nn
from edgekit import tensor as T
from edgekit.decoder import BiMLADecoder, UpsampleBlock, reshape_tokens
from edgekit.errors import ShapeError, UsageError
from edgekit.gradcheck import check_gradients
from edgekit.model import ModelConfig
from edgekit.tensor import Tensor
from oracles import batch_norm_relu_eval, flatten_map

rng = np.random.default_rng(21)
# (patch, path/smoothing kernel) each stage fixes
STAGE = {"global": (16, 3), "local": (8, 1)}


def small_decoder(stage="global", pc=4, seed=0):
    cfg = ModelConfig(embed_dim=4, path_channels=pc, smooth_channels=4)
    return BiMLADecoder(cfg, *STAGE[stage], np.random.default_rng(seed))


def test_reshape_tokens_round_trip():
    tokens = Tensor(rng.normal(size=(1, 4, 5)))
    m = reshape_tokens(tokens, (2, 2))
    assert m.shape == (1, 5, 2, 2)
    back = flatten_map(m)
    assert np.array_equal(back.data, tokens.data)


def test_reshape_tokens_one_hot_position():
    tokens = np.zeros((1, 4, 1))
    tokens[0, 2, 0] = 1.0  # third token of a (2,2) grid -> row 1, col 0
    m = reshape_tokens(Tensor(tokens), (2, 2))
    assert m.data[0, 0, 1, 0] == 1.0
    assert m.data.sum() == 1.0


def test_reshape_tokens_grid_mismatch():
    with pytest.raises(ShapeError):
        reshape_tokens(Tensor(np.zeros((1, 4, 2))), (1, 3))


def _identity_paths(dec: BiMLADecoder):
    """Set every path conv to the identity map (requires pc == C)."""
    c = dec.td_proj[0].weight.shape[1]
    k = dec.td_conv[0].weight.shape[-1]
    eye1 = np.eye(c).reshape(c, c, 1, 1)
    eyek = np.zeros((c, c, k, k))
    eyek[np.arange(c), np.arange(c), k // 2, k // 2] = 1.0
    for mod in list(dec.td_proj) + list(dec.bu_proj):
        mod.weight.data = eye1.copy()
        mod.bias.data[:] = 0.0
    for mod in list(dec.td_conv) + list(dec.bu_conv):
        mod.weight.data = eyek.copy()
        mod.bias.data[:] = 0.0


def test_top_down_identity_closed_form():
    dec = small_decoder()
    _identity_paths(dec)
    taps = [Tensor(rng.normal(size=(1, 4, 4))) for _ in range(4)]
    paths = dec.paths(taps, (2, 2))
    maps = [reshape_tokens(t, (2, 2)).data for t in taps]
    for level in range(4):
        expect = np.sum(maps[level:], axis=0)
        assert np.allclose(paths[level].data, expect, atol=1e-12)


def test_bottom_up_identity_closed_form():
    dec = small_decoder()
    _identity_paths(dec)
    taps = [Tensor(rng.normal(size=(1, 4, 4))) for _ in range(4)]
    paths = dec.paths(taps, (2, 2))
    maps = [reshape_tokens(t, (2, 2)).data for t in taps]
    assert np.allclose(paths[7].data, np.sum(maps, axis=0), atol=1e-12)
    assert np.allclose(paths[4].data, maps[0], atol=1e-12)


def test_path_symmetry_identity_weights():
    dec = small_decoder()
    _identity_paths(dec)
    taps = [Tensor(rng.normal(size=(1, 4, 4))) for _ in range(4)]
    paths = dec.paths(taps, (2, 2))
    assert np.allclose(paths[0].data, paths[7].data, atol=1e-12)


def test_single_top_level_reaches_every_top_down_output():
    dec = small_decoder()
    _identity_paths(dec)
    taps = [Tensor(np.zeros((1, 4, 4))) for _ in range(3)]
    taps.append(Tensor(rng.normal(size=(1, 4, 4))))
    paths = dec.paths(taps, (2, 2))
    top_map = reshape_tokens(taps[3], (2, 2)).data
    for level in range(4):
        assert np.allclose(paths[level].data, top_map, atol=1e-12)


def test_zero_taps_zero_paths():
    dec = small_decoder()
    for mods in (dec.td_proj, dec.td_conv, dec.bu_proj, dec.bu_conv):
        for m in mods:
            m.bias.data[:] = 0.0
    taps = [Tensor(np.zeros((1, 4, 4))) for _ in range(4)]
    for p in dec.paths(taps, (2, 2)):
        assert np.allclose(p.data, 0.0)


def test_upsample_extents():
    up = UpsampleBlock(3, 2, 16, np.random.default_rng(0))
    up.eval()
    out = up(Tensor(rng.normal(size=(1, 3, 4, 4))))
    assert out.shape == (1, 2, 64, 64)
    out = up(Tensor(rng.normal(size=(1, 3, 20, 12))))
    assert out.shape == (1, 2, 320, 192)


def test_decode_output_extent_and_paths():
    for stage, (patch, _) in STAGE.items():
        dec = small_decoder(stage)
        dec.eval()
        grid = (2, 3)
        out_hw = (grid[0] * patch, grid[1] * patch)
        taps = [Tensor(rng.normal(size=(1, 6, 4))) for _ in range(4)]
        feats, paths = dec(taps, grid)
        assert feats.shape == (1, 4, *out_hw)
        assert len(paths) == 8


def test_zero_taps_constant_output():
    dec = small_decoder()
    dec.eval()
    taps = [Tensor(np.zeros((1, 4, 4))) for _ in range(4)]
    feats, _ = dec(taps, (2, 2))
    for ch in range(feats.shape[1]):
        assert np.ptp(feats.data[0, ch]) < 1e-12


def test_local_variant_receptive_field_confined():
    dec = small_decoder("local", seed=3)
    dec.eval()
    base = [rng.normal(size=(1, 9, 4)) for _ in range(4)]
    feats0, _ = dec([Tensor(t) for t in base], (3, 3))
    bumped = [t.copy() for t in base]
    ti, tj = 1, 1  # middle token of the (3,3) grid
    bumped[2][0, ti * 3 + tj] += 1.0
    feats1, _ = dec([Tensor(t) for t in bumped], (3, 3))
    diff = np.abs(feats1.data - feats0.data).sum(axis=(0, 1))
    # fine-variant upsampling footprint: token i reaches rows [2 i - 1, 2 i + 3)
    # after the stride-2 deconv (kernel 4, padding 1) and, through the
    # stride-4 one (kernel 8, padding 2), rows [4 r - 2, 4 r + 6) of each of
    # those: [8 i - 6, 8 i + 14)
    lo, hi = 8 * ti - 6, 8 * ti + 14
    mask = np.zeros((24, 24), dtype=bool)
    mask[max(lo, 0):hi, max(lo, 0):hi] = True
    assert diff[~mask].max() < 1e-12
    assert diff[mask].max() > 0


def test_decoder_gradcheck_small():
    dec = small_decoder("local", pc=2, seed=1)
    dec.train()
    taps_data = [rng.normal(size=(1, 4, 4)) for _ in range(4)]
    weights = rng.normal(size=(1, 4, 16, 16))

    def loss_fn():
        feats, _ = dec([Tensor(t) for t in taps_data], (2, 2))
        return T.tensor_sum(T.mul(feats, weights))

    report = check_gradients(loss_fn, list(dec.named_parameters()),
                             np.random.default_rng(0), probes_per_tensor=2)
    assert report.max_rel_err < 1e-4


# Folding reorders the float64 rounding of conv -> batch norm; measured
# worst case over 50 seeds of both units: 2.5 eps of the output's largest value.
FOLD_TOL = 8 * np.finfo(np.float64).eps


def _bn_unit_in_eval(kind: str, seed: int):
    """A conv or deconv BN-ReLU unit in eval mode with non-trivial running
    moments, gain and bias; its pre-normalization layer; and an input."""
    r = np.random.default_rng(seed)
    if kind == "conv":
        unit = nn.ConvBNReLU(3, 5, 3, r)
        pre, x = unit.conv, Tensor(r.normal(size=(2, 3, 6, 7)))
    else:
        unit = nn.DeconvBNReLU(3, 5, 2, r)
        pre, x = unit.deconv, Tensor(r.normal(size=(2, 3, 5, 4)))
    unit.bn.running_mean[...] = r.normal(0.0, 0.5, 5)
    unit.bn.running_var[...] = r.uniform(0.3, 2.0, 5)
    unit.bn.gain.data[...] = r.uniform(0.5, 1.5, 5)
    unit.bn.bias.data[...] = r.normal(0.0, 0.3, 5)
    unit.eval()
    return unit, pre, x


@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_eval_fold_matches_batch_norm(kind, monkeypatch):
    for seed in range(5):
        unit, pre, x = _bn_unit_in_eval(kind, seed)
        ref = batch_norm_relu_eval(pre(x), unit.bn).data
        calls = []
        monkeypatch.setattr(T, "batch_norm", lambda *a, **k: calls.append(a))
        out = unit(x).data
        monkeypatch.undo()
        assert not calls
        assert np.abs(out - ref).max() <= FOLD_TOL * np.abs(ref).max()


def test_batch_norm_runs_only_in_training():
    """In eval mode a batch norm is folded into its convolution, so calling
    it alone is a misuse that names the fold."""
    bn = nn.BatchNorm2d(3)
    bn.eval()
    with pytest.raises(UsageError, match=r"fold\(\)"):
        bn(Tensor(np.ones((2, 3, 4, 4))))


@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_eval_fold_gradcheck(kind):
    unit, pre, x = _bn_unit_in_eval(kind, 7)
    weights = rng.normal(size=unit(x).shape)

    def loss_fn():
        return T.tensor_sum(T.mul(unit(x), weights))

    checked = [("weight", pre.weight), ("gain", unit.bn.gain), ("bias", unit.bn.bias)]
    report = check_gradients(loss_fn, checked, np.random.default_rng(0),
                             probes_per_tensor=5)
    assert report.max_rel_err < 1e-4
