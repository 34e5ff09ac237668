import numpy as np
import pytest

from skiplab.init import (InitSpec, PRESETS, init_network, mimetic_qk,
                          mlp_orthogonal, orthonormal_vo, truncated_normal)
from skiplab.linalg import condition_number, singular_values
from skiplab.model import ModelConfig, split_heads


def test_truncated_normal_bound():
    w = truncated_normal(200, 200, std=0.02, bound=2.0, seed=0)
    assert np.max(np.abs(w)) <= 0.04


def test_truncated_normal_mean_near_zero():
    w = truncated_normal(1000, 1000, std=1.0, bound=2.0, seed=1)
    # Truncation at 2 sigma keeps ~95.4% of the mass; variance shrinks to
    # ~0.774, so the standard error of the mean over 1e6 draws is ~8.8e-4.
    assert abs(w.mean()) < 3.0 * 8.8e-4


def test_truncated_normal_deterministic():
    a = truncated_normal(50, 50, 0.02, 2.0, seed=7)
    b = truncated_normal(50, 50, 0.02, 2.0, seed=7)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("h", [1, 2, 4])
def test_orthonormal_vo_singular_values_all_c_squared(h):
    """The head-summed product sum_i W_V,i W_O,i is scaled-orthonormal
    whatever the head count."""
    c = 3.0
    w_v, w_o = orthonormal_vo(32, c, seed=2)
    summed = (split_heads(w_v, h) @ split_heads(w_o.T, h).swapaxes(-1, -2)).sum(axis=0)
    sv = singular_values(summed)
    assert np.max(np.abs(sv - c * c)) < 1e-9
    assert condition_number(summed) == pytest.approx(1.0, abs=1e-10)


def test_orthonormal_vo_d1():
    w_v, w_o = orthonormal_vo(1, 2.0, seed=3)
    assert abs(abs((w_v @ w_o)[0, 0]) - 4.0) < 1e-12


def test_orthonormal_vo_per_head_blocks_are_scaled_partial_isometries():
    d, h, c = 16, 4, 3.0
    w_v, w_o = orthonormal_vo(d, c, seed=4)
    d_h = d // h
    for i in range(h):
        blk = slice(i * d_h, (i + 1) * d_h)
        sv = singular_values(w_v[:, blk] @ w_o[blk, :])
        assert np.max(np.abs(sv[:d_h] - c * c)) < 1e-9
        assert np.max(np.abs(sv[d_h:])) < 1e-9


def test_orthonormal_vo_gram_identity():
    d, c = 24, 3.0
    w_v, w_o = orthonormal_vo(d, c, seed=5)
    g = w_v @ w_o
    err = np.linalg.norm(g @ g.T - c**4 * np.eye(d))
    assert err <= 1e-8 * c**4 * np.sqrt(d)


def test_mimetic_identity_target():
    d = 16
    w_q, w_k = mimetic_qk(d, d, alpha=0.0, beta=0.7, seed=6)
    assert np.max(np.abs(w_q @ w_k.T - 0.7 * np.eye(d))) < 1e-10


def test_mimetic_d1():
    w_q, w_k = mimetic_qk(1, 1, alpha=2.0, beta=0.6, seed=7)
    rng = np.random.default_rng(7)
    target = 2.0 * rng.standard_normal((1, 1)) + 0.6
    assert abs((w_q @ w_k.T)[0, 0] - target[0, 0]) < 1e-12


def test_mimetic_full_rank_reconstruction():
    d = 64
    w_q, w_k = mimetic_qk(d, d, alpha=2.0, beta=0.6, seed=8)
    rng = np.random.default_rng(8)
    target = 2.0 * rng.standard_normal((d, d)) / np.sqrt(d) + 0.6 * np.eye(d)
    rel = np.linalg.norm(w_q @ w_k.T - target) / np.linalg.norm(target)
    assert rel <= 1e-10


def test_mimetic_truncated_rank_is_best_approximation():
    d, d_h = 12, 4
    w_q, w_k = mimetic_qk(d, d_h, alpha=1.5, beta=0.5, seed=9)
    rng = np.random.default_rng(9)
    target = 1.5 * rng.standard_normal((d, d)) / np.sqrt(d) + 0.5 * np.eye(d)
    u, s, vt = np.linalg.svd(target)
    best = (u[:, :d_h] * s[:d_h]) @ vt[:d_h, :]
    assert np.max(np.abs(w_q @ w_k.T - best)) < 1e-10
    assert w_q.shape == (d, d_h) and w_k.shape == (d, d_h)


def test_mimetic_moment_invariants():
    d = 64
    diag_means, off_vars = [], []
    for seed in range(30):
        w_q, w_k = mimetic_qk(d, d, alpha=2.0, beta=0.6, seed=100 + seed)
        p = w_q @ w_k.T
        diag_means.append(np.diagonal(p).mean())
        off_vars.append(p[~np.eye(d, dtype=bool)].var())
    assert abs(np.mean(diag_means) - 0.6) < 5.0 * 2.0 / np.sqrt(d)
    assert abs(np.mean(off_vars) - 4.0 / d) < 0.1 * 4.0 / d


def test_mlp_orthogonal_square_kappa_one():
    w = mlp_orthogonal(16, 16, seed=10)
    assert condition_number(w) == pytest.approx(1.0, abs=1e-10)


def test_mlp_orthogonal_wide_rows_orthonormal():
    w = mlp_orthogonal(4, 8, seed=11)
    assert np.max(np.abs(w @ w.T - np.eye(4))) < 1e-10


def test_mlp_orthogonal_tall_columns_orthonormal():
    w = mlp_orthogonal(8, 4, seed=12)
    assert np.max(np.abs(w.T @ w - np.eye(4))) < 1e-10


def test_init_spec_validation():
    with pytest.raises(ValueError):
        InitSpec(scheme="bogus")
    with pytest.raises(ValueError):
        InitSpec(scheme="proposed", c=0.0)


def test_init_spec_preset():
    spec = InitSpec().with_preset("selfsup")
    assert (spec.alpha, spec.beta, spec.c) == PRESETS["selfsup"]


def test_init_network_proposed_vo_kappa_one_every_layer():
    cfg = ModelConfig(L=3, n=4, d=16, h=4, use_mlp=True, mlp_hidden=8)
    net = init_network(cfg, InitSpec(scheme="proposed", seed=14))
    for bp in net.blocks:
        assert condition_number(bp.W_V @ bp.W_O) == pytest.approx(1.0, abs=1e-10)


def test_init_network_layers_differ():
    cfg = ModelConfig(L=2, n=4, d=8, h=1, use_mlp=True, mlp_hidden=8)
    for scheme in ("default", "proposed"):
        net = init_network(cfg, InitSpec(scheme=scheme, seed=15))
        assert not np.allclose(net.blocks[0].W_Q, net.blocks[1].W_Q)
        assert not np.allclose(net.blocks[0].mlp_W1, net.blocks[1].mlp_W1)


@pytest.mark.parametrize("scheme", ["default", "proposed"])
@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("mlp_hidden", [4, 16])
def test_init_tensor_memory_order(scheme, h, mlp_hidden):
    """An operand's memory order picks the BLAS kernel, so it moves report
    bytes.  Every attention weight is C-order; the proposed mlp_W1 is F-order
    when mlp_hidden > d and its mlp_W2 when mlp_hidden < d (mlp_orthogonal
    transposes a QR factor); every other tensor is C-order."""
    d = 8
    cfg = ModelConfig(L=2, n=4, d=d, h=h, mlp_hidden=mlp_hidden)
    for bp in init_network(cfg, InitSpec(scheme=scheme, seed=1)).blocks:
        for name, w in vars(bp).items():
            fortran = scheme == "proposed" and (
                name == "mlp_W1" and mlp_hidden > d or name == "mlp_W2" and mlp_hidden < d)
            assert (w.flags.c_contiguous, w.flags.f_contiguous) == (
                (not fortran, fortran) if w.ndim == 2 else (True, True)), name


def test_init_network_deterministic():
    cfg = ModelConfig(L=2, n=4, d=8, h=2, use_mlp=True, mlp_hidden=8)
    a = init_network(cfg, InitSpec(scheme="proposed", seed=16))
    b = init_network(cfg, InitSpec(scheme="proposed", seed=16))
    for ba, bb in zip(a.blocks, b.blocks):
        for name in ("W_Q", "W_K", "W_V", "W_O", "mlp_W1", "mlp_b1", "mlp_W2", "mlp_b2"):
            assert np.array_equal(getattr(ba, name), getattr(bb, name))


def test_init_network_default_logits_diffuse():
    """Token-embedding-scale inputs under the default scheme produce logit
    rows whose range is far below 1 (the diffuse regime)."""
    d = 768
    cfg = ModelConfig(L=1, n=16, d=d, h=12, use_mlp=False, attention_scale=1.0)
    net = init_network(cfg, InitSpec(scheme="default", seed=17))
    rng = np.random.default_rng(18)
    x = truncated_normal(16, d, 0.02, 2.0, rng)
    bp = net.blocks[0]
    deltas = []
    for i in range(cfg.h):
        cols = slice(i * cfg.d_h, (i + 1) * cfg.d_h)
        logits = x @ bp.W_Q[:, cols] @ bp.W_K[:, cols].T @ x.T
        deltas.append(np.max(logits.max(axis=1) - logits.min(axis=1)))
    assert max(deltas) < 1e-2


def test_init_network_proposed_margin_positive_median():
    """At (2, 0.6, 3) and Gaussian tokens the diagonal-minus-max-off-diagonal
    logit margin has positive median (sign check only)."""
    d, n = 64, 16
    margins = []
    for seed in range(20):
        cfg = ModelConfig(L=1, n=n, d=d, h=1, use_mlp=False)
        net = init_network(cfg, InitSpec(scheme="proposed", alpha=2.0,
                                         beta=0.6, c=3.0, seed=seed))
        bp = net.blocks[0]
        x = np.random.default_rng(1000 + seed).standard_normal((n, d))
        logits = x @ bp.W_Q @ bp.W_K.T @ x.T
        off = logits + np.diag(np.full(n, -np.inf))
        margins.extend(np.diagonal(logits) - off.max(axis=1))
    assert np.median(margins) > 0.0


@pytest.mark.parametrize("use_mlp", [True, False])
def test_init_network_budgets_the_whole_stack(monkeypatch, use_mlp):
    """L x (4d^2 + 2d*mlp_hidden + d + mlp_hidden) weights (4d^2 a block
    without an MLP) fit a budget of exactly that many elements; one element
    less raises BudgetError before any stream is drawn."""
    import skiplab.linalg
    cfg = ModelConfig(L=5, n=2, d=4, use_mlp=use_mlp, mlp_hidden=6)
    total = 5 * (4 * 16 + (2 * 4 * 6 + 4 + 6 if use_mlp else 0))
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", total)
    init_network(cfg, InitSpec())
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", total - 1)

    def no_draw(*args, **kwargs):
        raise AssertionError("stream drawn before the budget check")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(skiplab.linalg.BudgetError):
        init_network(cfg, InitSpec())
