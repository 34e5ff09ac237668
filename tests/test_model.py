import numpy as np
import pytest

from skiplab.init import InitSpec, init_network
from skiplab.model import (BlockParams, DivergenceError, ModelConfig,
                           NetworkParams, block_forward, mlp_forward,
                           network_forward, row_softmax, self_attention)


def small_config(**kw):
    base = dict(L=2, n=4, d=8, h=2, attention_scale=1.0, activation="gelu",
                use_skip=True, use_mlp=True, mlp_hidden=6)
    base.update(kw)
    return ModelConfig(**base)


def random_params(config, seed=0, std=0.4):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(config.L):
        blocks.append(BlockParams(
            W_Q=std * rng.standard_normal((config.d, config.d)),
            W_K=std * rng.standard_normal((config.d, config.d)),
            W_V=std * rng.standard_normal((config.d, config.d)),
            W_O=std * rng.standard_normal((config.d, config.d)),
            mlp_W1=std * rng.standard_normal((config.d, config.mlp_hidden)),
            mlp_b1=0.1 * rng.standard_normal(config.mlp_hidden),
            mlp_W2=std * rng.standard_normal((config.mlp_hidden, config.d)),
            mlp_b2=0.1 * rng.standard_normal(config.d)))
    return NetworkParams(blocks)


def test_config_validates_head_divisibility():
    with pytest.raises(ValueError):
        ModelConfig(L=1, n=2, d=7, h=2)


def test_row_softmax_uniform_on_zero_logits():
    a = row_softmax(np.zeros((5, 5)), 1.0)
    assert np.allclose(a, 1.0 / 5.0, atol=1e-15)


def test_row_softmax_known_row():
    a = row_softmax(np.array([[0.0, np.log(2.0)]]), 1.0)
    assert np.allclose(a, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-14)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    a = row_softmax(100.0 * rng.standard_normal((6, 6)), 1.0)
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(a >= 0.0)


def test_row_softmax_diagonal_margin_gives_identity():
    # Exact margin gamma = 20: diagonal 20, largest off-diagonal 0 per row.
    rng = np.random.default_rng(1)
    n = 6
    m = rng.uniform(-3.0, -0.5, size=(n, n))
    for i in range(n):
        m[i, (i + 1) % n] = 0.0
        m[i, i] = 20.0
    a = row_softmax(m, 1.0)
    assert np.max(np.abs(a - np.eye(n))) < 1e-8


def test_row_softmax_temperature_moves_toward_uniform():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5))
    peaks = [row_softmax(m, t).max() for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_row_softmax_rejects_bad_temperature():
    with pytest.raises(ValueError):
        row_softmax(np.zeros((2, 2)), 0.0)


def test_attention_logits_matches_triple_product():
    """Head i's attention is the row-softmax of X W_Q,i W_K,i^T X^T / s."""
    cfg = small_config(h=2, attention_scale=1.7)
    params = random_params(cfg, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((cfg.n, cfg.d))
    bp = params.blocks[0]
    attention = self_attention(x, bp, cfg).attention
    for head in range(2):
        cols = slice(head * cfg.d_h, (head + 1) * cfg.d_h)
        logits = x @ bp.W_Q[:, cols] @ bp.W_K[:, cols].T @ x.T / 1.7
        assert np.allclose(attention[head], row_softmax(logits), atol=1e-12)


def test_self_attention_identity_attention_limit():
    cfg = small_config(h=1)
    params = random_params(cfg, seed=8)
    bp = params.blocks[0]
    bp.W_Q = 40.0 * np.eye(cfg.d)
    bp.W_K = np.eye(cfg.d)
    x = np.linalg.qr(np.random.default_rng(9).standard_normal((cfg.d, cfg.n)))[0].T
    sa = self_attention(x, bp, cfg)
    out, attns = sa.out, sa.attention
    # Orthonormal rows make the diagonal logit dominate, saturating A to I.
    assert np.max(np.abs(attns[0] - np.eye(cfg.n))) < 1e-6
    assert np.max(np.abs(out - x @ bp.W_V @ bp.W_O)) < 1e-6


def test_self_attention_matches_concat_form():
    """The output equals the per-head concatenate-then-project coding and the
    head-summed form sum_i A_i X W_V,i W_O,i the Jacobians are written in."""
    cfg = small_config(h=2)
    params = random_params(cfg, seed=10)
    bp = params.blocks[0]
    rng = np.random.default_rng(11)
    x = rng.standard_normal((cfg.n, cfg.d))
    out = self_attention(x, bp, cfg).out
    pieces = []
    summed = np.zeros_like(x)
    for i in range(cfg.h):
        cols = slice(i * cfg.d_h, (i + 1) * cfg.d_h)
        a = row_softmax(x @ bp.W_Q[:, cols] @ bp.W_K[:, cols].T @ x.T
                        / cfg.attention_scale, 1.0)
        pieces.append(a @ (x @ bp.W_V[:, cols]))
        summed += pieces[-1] @ bp.W_O[cols, :]
    concat = np.hstack(pieces)
    assert np.max(np.abs(out - concat @ bp.W_O)) < 1e-13
    assert np.max(np.abs(out - summed)) < 1e-13


def test_self_attention_single_token():
    cfg = small_config(n=1, h=1)
    params = random_params(cfg, seed=12)
    x = np.random.default_rng(13).standard_normal((1, cfg.d))
    sa = self_attention(x, params.blocks[0], cfg)
    out, attns = sa.out, sa.attention
    assert np.array_equal(attns[0], [[1.0]])
    assert np.allclose(out, x @ params.blocks[0].W_V @ params.blocks[0].W_O,
                       atol=1e-14)


def test_block_forward_zero_weights_with_skip_is_identity():
    cfg = small_config()
    d, m = cfg.d, cfg.mlp_hidden
    bp = BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                     W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                     mlp_W1=np.zeros((d, m)), mlp_b1=np.zeros(m),
                     mlp_W2=np.zeros((m, d)), mlp_b2=np.zeros(d))
    x = np.random.default_rng(14).standard_normal((cfg.n, d))
    assert np.array_equal(block_forward(x, bp, cfg).output, x)


def test_block_forward_zero_weights_without_skip():
    cfg = small_config(use_skip=False)
    d, m = cfg.d, cfg.mlp_hidden
    bias = np.random.default_rng(15).standard_normal(d)
    bp = BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                     W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                     mlp_W1=np.zeros((d, m)), mlp_b1=np.zeros(m),
                     mlp_W2=np.zeros((m, d)), mlp_b2=bias)
    x = np.random.default_rng(16).standard_normal((cfg.n, d))
    out = block_forward(x, bp, cfg).output
    assert np.allclose(out, np.tile(bias, (cfg.n, 1)), atol=1e-15)


def test_block_forward_composes_attention_and_mlp():
    cfg = small_config(use_skip=False)
    params = random_params(cfg, seed=17)
    x = np.random.default_rng(18).standard_normal((cfg.n, cfg.d))
    bt = block_forward(x, params.blocks[0], cfg)
    sa = self_attention(x, params.blocks[0], cfg).out
    mlp = mlp_forward(sa, params.blocks[0], cfg).out
    assert np.allclose(bt.output, mlp, atol=1e-13)


def test_block_forward_mlp_bypass():
    cfg = small_config(use_mlp=False)
    params = random_params(small_config(), seed=19)
    x = np.random.default_rng(20).standard_normal((cfg.n, cfg.d))
    bt = block_forward(x, params.blocks[0], cfg)
    assert np.array_equal(bt.output, bt.post_attention)
    assert bt.mlp is None


def test_network_forward_zero_layers():
    cfg = small_config(L=0)
    trace = network_forward(np.ones((cfg.n, cfg.d)), NetworkParams([]), cfg)
    assert np.array_equal(trace.output, np.ones((cfg.n, cfg.d)))


def test_network_forward_composes_blocks():
    cfg = small_config(L=2)
    params = random_params(cfg, seed=21)
    x = np.random.default_rng(22).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    step1 = block_forward(x, params.blocks[0], cfg).output
    step2 = block_forward(step1, params.blocks[1], cfg).output
    assert np.allclose(trace.output, step2, atol=1e-14)


def test_network_forward_attention_rows_stochastic():
    cfg = small_config(L=2, h=2)
    params = random_params(cfg, seed=23)
    x = np.random.default_rng(24).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    for bt in trace.blocks:
        for a in bt.sa.attention:
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(a >= 0.0)


def test_network_forward_zero_weights_identity_any_depth():
    cfg = small_config(L=4)
    d, m = cfg.d, cfg.mlp_hidden
    blocks = [BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                          W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                          mlp_W1=np.zeros((d, m)), mlp_b1=np.zeros(m),
                          mlp_W2=np.zeros((m, d)), mlp_b2=np.zeros(d))
              for _ in range(4)]
    x = np.random.default_rng(25).standard_normal((cfg.n, d))
    assert np.array_equal(network_forward(x, NetworkParams(blocks), cfg).output, x)


def test_network_forward_skipless_deep_default_finite_or_named_divergence():
    """Deep skipless stacks either stay finite or fail loudly with a layer."""
    cfg = ModelConfig(L=12, n=6, d=32, h=1, attention_scale=1.0,
                      use_skip=False, use_mlp=True, mlp_hidden=32)
    params = init_network(cfg, InitSpec(scheme="default", seed=0))
    x = np.random.default_rng(26).standard_normal((cfg.n, cfg.d))
    try:
        trace = network_forward(x, params, cfg)
    except DivergenceError as exc:
        assert 0 <= exc.layer < cfg.L
    else:
        assert np.all(np.isfinite(trace.output))


def test_network_forward_divergence_names_layer():
    cfg = small_config(L=3, use_skip=False, activation="identity")
    d, m = cfg.d, cfg.mlp_hidden
    blocks = []
    for _ in range(3):
        blocks.append(BlockParams(
            W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
            W_V=np.full((d, d), 1e200), W_O=np.full((d, d), 1e200),
            mlp_W1=np.eye(d, m), mlp_b1=np.zeros(m),
            mlp_W2=np.eye(m, d), mlp_b2=np.zeros(d)))
    for shape in ((cfg.n, d), (3, cfg.n, d)):
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            network_forward(np.ones(shape), NetworkParams(blocks), cfg)
        assert info.value.layer == 0


def test_network_forward_checks_token_axes():
    """Leading axes are a batch; the last two must be (n, d)."""
    cfg = small_config()
    params = random_params(cfg, seed=29)
    x = np.random.default_rng(30).standard_normal((2, cfg.n, cfg.d))
    assert network_forward(x, params, cfg).output.shape == x.shape
    with pytest.raises(ValueError, match="does not end in"):
        network_forward(np.zeros((2, cfg.n + 1, cfg.d)), params, cfg)


def test_multihead_invariant_under_head_permutation():
    cfg = small_config(L=1, h=2)
    params = random_params(cfg, seed=27)
    bp = params.blocks[0]
    x = np.random.default_rng(28).standard_normal((cfg.n, cfg.d))
    out1 = self_attention(x, bp, cfg).out
    d_h = cfg.d_h
    perm = np.r_[d_h:2 * d_h, 0:d_h]
    swapped = BlockParams(W_Q=bp.W_Q[:, perm], W_K=bp.W_K[:, perm],
                          W_V=bp.W_V[:, perm], W_O=bp.W_O[perm, :])
    out2 = self_attention(x, swapped, cfg).out
    assert np.max(np.abs(out1 - out2)) < 1e-12
