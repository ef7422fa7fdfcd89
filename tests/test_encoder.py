import numpy as np
import pytest

from edgekit import nn
from edgekit import tensor as T
from edgekit.encoder import (Encoder, MultiHeadSelfAttention, TransformerBlock,
                             flatten_patches)
from edgekit.errors import ConfigError, PartitionError
from edgekit.gradcheck import check_gradients
from edgekit.model import ModelConfig
from edgekit.tensor import Tensor

rng = np.random.default_rng(7)

TOY = ModelConfig(embed_dim=8, heads=2, head_dim=4, mlp_ratio=2)


def toy_encoder(grid, seed, taps=(1, 2), windows=1):
    """An 8-wide encoder on 8 px patches; the default taps build two blocks
    and tap both, and the default window count encodes the whole image."""
    return Encoder(TOY, 8, taps, grid, windows, np.random.default_rng(seed))


def test_flatten_patches_grid():
    img = rng.random((1, 3, 32, 32))
    patches, grid = flatten_patches(img, 16, 1)
    assert grid == (2, 2)
    assert patches.shape == (1, 4, 16 * 16 * 3)


def test_flatten_patches_paper_token_count():
    patches, grid = flatten_patches(np.zeros((1, 3, 320, 320)), 16, 1)
    assert patches.shape[1] == 400  # HW / 256
    assert grid == (20, 20)


def test_flatten_patches_channel_last_order():
    img = np.zeros((1, 3, 2, 2))
    img[0, :, 0, 1] = [1.0, 2.0, 3.0]  # pixel (0,1), all channels
    patches, _ = flatten_patches(img, 2, 1)
    # row-major within patch, channels fastest: pixel (0,1) -> entries 3..5
    assert np.array_equal(patches[0, 0, 3:6], [1.0, 2.0, 3.0])


def test_flatten_patches_indivisible():
    with pytest.raises(PartitionError, match="33x32.*16"):
        flatten_patches(np.zeros((1, 3, 33, 32)), 16, 1)


@pytest.mark.parametrize("windows", [1, 2, 3])
@pytest.mark.parametrize("cells", [(2, 2), (2, 3), (3, 1)])
def test_windowed_patches_are_each_windows_own_patches(windows, cells):
    """Image b's windows come as rows b * d**2 ... (b + 1) * d**2 - 1 in
    row-major window order, and each holds the patches the window, cut out
    alone, flattens to."""
    p, d = 4, windows
    wh, ww = cells[0] * p, cells[1] * p
    img = rng.random((2, 3, d * wh, d * ww))
    patches, grid = flatten_patches(img, p, d)
    assert grid == cells
    assert patches.shape == (2 * d * d, cells[0] * cells[1], p * p * 3)
    for b in range(2):
        for iy in range(d):
            for ix in range(d):
                window = img[b:b + 1, :, iy * wh:(iy + 1) * wh, ix * ww:(ix + 1) * ww]
                own, own_grid = flatten_patches(window, p, 1)
                assert own_grid == cells
                assert np.array_equal(patches[(b * d + iy) * d + ix], own[0])


def test_windowed_patches_need_whole_windows_of_patches():
    """A side that holds whole patches but not whole windows of them is
    refused."""
    flatten_patches(np.zeros((1, 3, 24, 32)), 8, 1)
    with pytest.raises(PartitionError, match="24x32.*2x2.*8"):
        flatten_patches(np.zeros((1, 3, 24, 32)), 8, 2)
    with pytest.raises(PartitionError):
        flatten_patches(np.zeros((1, 3, 32, 24)), 8, 2)


def test_zero_image_zero_bias_gives_zero_tokens():
    enc = toy_encoder((2, 2), 0)
    enc.proj.bias.data[:] = 0.0
    patches, grid = flatten_patches(np.zeros((1, 3, 16, 16)), 8, 1)
    tokens = enc.proj(Tensor(patches))
    assert np.array_equal(tokens.data, np.zeros_like(tokens.data))


def test_position_embedding_receives_gradient():
    enc = toy_encoder((2, 2), 0)
    img = rng.random((1, 3, 16, 16))
    with T.fresh_tape():
        taps = enc(img)
        T.backward(T.tensor_sum(taps[-1]))
    assert enc.pos.grad is not None
    assert np.abs(enc.pos.grad).max() > 0


def test_single_token_attention_weight_is_one():
    attn = MultiHeadSelfAttention(TOY, np.random.default_rng(0))
    z = Tensor(rng.normal(size=(1, 1, 8)))
    w = attn.weights(z)
    assert np.allclose(w.data, np.ones((1, TOY.heads, 1, 1)))
    # each head's output equals its value row
    for m in range(TOY.heads):
        v = z.data @ attn.w_v.data[m]
        assert np.allclose(w.data[:, m] @ v, v)


def test_zero_weights_block_is_identity():
    block = TransformerBlock(TOY, np.random.default_rng(0))
    for _, p in block.named_parameters():
        p.data[:] = 0.0
    block.norm1.gain.data[:] = 1.0  # layer norms keep unit gain
    block.norm2.gain.data[:] = 1.0
    z = rng.normal(size=(1, 5, 8))
    out = block(Tensor(z))
    assert np.allclose(out.data, z, atol=1e-12)


def test_single_head_equals_direct_computation():
    # two heads, so the per-head weight slices and the concat order are checked
    cfg = ModelConfig(embed_dim=4, heads=2, head_dim=2, mlp_ratio=2)
    attn = MultiHeadSelfAttention(cfg, np.random.default_rng(3))
    attn.w_o.weight.data = np.eye(4)
    z = Tensor(rng.normal(size=(2, 6, 4)))
    out = attn(z).data
    heads = []
    for m in range(2):
        q = z.data @ attn.w_q.data[m]
        k = z.data @ attn.w_k.data[m]
        v = z.data @ attn.w_v.data[m]
        s = q @ k.transpose(0, 2, 1) / np.sqrt(2.0)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        heads.append(e / e.sum(axis=-1, keepdims=True) @ v)
    assert np.allclose(out, np.concatenate(heads, axis=-1), atol=1e-12)


def test_attention_rows_sum_to_one_every_head():
    enc = toy_encoder((2, 2), 1)
    z = Tensor(rng.normal(size=(2, 4, 8)))
    for block in enc.blocks:
        w = block.attn.weights(block.norm1(z))
        assert w.shape == (2, TOY.heads, 4, 4)
        assert np.abs(w.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_stacked_head_weights_keep_per_head_draw_order():
    attn = MultiHeadSelfAttention(TOY, np.random.default_rng(0))
    replay = np.random.default_rng(0)
    for w in (attn.w_q, attn.w_k, attn.w_v):
        for m in range(TOY.heads):
            expect = nn.xavier_uniform(replay, (8, 4), 8, 4)
            assert np.array_equal(w.data[m], expect)


def test_attention_tape_records_independent_of_heads():
    counts = []
    for heads in (1, 2, 8):
        cfg = ModelConfig(embed_dim=8, heads=heads, head_dim=4, mlp_ratio=2)
        attn = MultiHeadSelfAttention(cfg, np.random.default_rng(0))
        with T.fresh_tape() as tape:
            attn(Tensor(rng.normal(size=(2, 5, 8))))
            counts.append(len(tape))
    assert counts[0] == counts[1] == counts[2]


def test_encode_all_taps_when_every_block_tapped():
    enc = toy_encoder((2, 2), 0, taps=(1, 2, 3, 4))
    taps = enc(rng.random((1, 3, 16, 16)))
    assert len(taps) == 4


def test_depth_is_the_last_tap():
    """The stack holds taps[-1] blocks and returns the tapped outputs only."""
    enc = toy_encoder((2, 2), 0, taps=(2, 5))
    assert len(enc.blocks) == 5
    img = rng.random((1, 3, 16, 16))
    taps = enc(img)
    patches, _ = flatten_patches(img, 8, 1)
    z, outs = T.add(enc.proj(Tensor(patches)), enc.pos), []
    for block in enc.blocks:
        z = block(z)
        outs.append(z.data.reshape(1, 2, 2, 8).transpose(0, 3, 1, 2))
    assert len(taps) == 2
    assert np.array_equal(taps[0].data, outs[1])
    assert np.array_equal(taps[1].data, outs[4])


def test_paper_scale_tap_defaults():
    cfg = ModelConfig.paper()
    assert cfg.global_taps == (6, 12, 18, 24) and cfg.local_taps == (3, 6, 9, 12)
    assert (cfg.embed_dim, cfg.heads, cfg.head_dim, cfg.mlp_ratio) == (1024, 16, 64, 4)


def test_tap_validation():
    for taps in ((2, 1, 3, 4), (1, 2, 3), (1, 2, 3, 4, 5), (0, 1, 2, 3),
                 (1, 2, 2, 3)):
        for key in ("global_taps", "local_taps"):
            with pytest.raises(ConfigError):
                ModelConfig(**{key: taps})


def test_encoder_deterministic_replay():
    img = rng.random((1, 3, 16, 16))

    def run():
        enc = toy_encoder((2, 2), 5)
        return [t.data.copy() for t in enc(img)]

    a, b = run(), run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_permutation_equivariance_without_positions():
    enc = toy_encoder((2, 2), 2)
    tokens = rng.normal(size=(1, 4, 8))
    perm = np.array([2, 0, 3, 1])
    base, permuted = Tensor(tokens), Tensor(tokens[:, perm])
    for block in enc.blocks:
        base, permuted = block(base), block(permuted)
        assert np.abs(base.data[:, perm] - permuted.data).max() < 1e-12


def test_tapped_output_shape():
    """Every tap is a whole-image (B, C, H / patch, W / patch) map, the
    windows' token grids side by side."""
    enc = toy_encoder((3, 2), 2)
    for t in enc(rng.random((2, 3, 24, 16))):
        assert t.shape == (2, 8, 3, 2)
    enc = toy_encoder((3, 2), 2, windows=2)
    for t in enc(rng.random((2, 3, 48, 32))):
        assert t.shape == (2, 8, 6, 4)


def test_other_grids_resize_the_trained_embedding():
    """The native grid adds ``pos`` itself; any other grid adds its bilinear
    resize, and the gradient reaches ``pos`` through the resize."""
    enc = toy_encoder((2, 2), 2)
    assert enc.position((2, 2)) is enc.pos
    native = np.transpose(enc.pos.data.reshape(1, 2, 2, 8), (0, 3, 1, 2))
    for grid in ((3, 2), (4, 4)):
        for p in enc.parameters():
            p.grad = None
        with T.fresh_tape():
            taps = enc(rng.random((1, 3, 8 * grid[0], 8 * grid[1])))
            T.backward(T.tensor_sum(taps[-1]))
        assert taps[-1].shape == (1, 8, *grid)
        assert np.abs(enc.pos.grad).max() > 0
        want = T.bilinear_resize(Tensor(native), grid).data[0].reshape(8, -1).T
        assert np.array_equal(enc.position(grid).data, want)


def test_two_block_encoder_gradcheck():
    enc = toy_encoder((2, 2), 4)
    img = rng.random((1, 3, 16, 16))

    def loss_fn():
        taps = enc(img)
        return T.add(T.tensor_sum(T.mul(taps[0], 0.5)), T.tensor_sum(taps[1]))

    report = check_gradients(loss_fn, list(enc.named_parameters()),
                             np.random.default_rng(0), probes_per_tensor=2)
    assert report.max_rel_err < 1e-4
