import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skiplab.jacobian
import skiplab.linalg
from skiplab.analysis import perturbation_split
from skiplab.harness import _stacked_outer
from skiplab.init import InitSpec, init_network
from skiplab.jacobian import (ATTENTION_WEIGHTS, FD_CHUNK, FD_STEP, MAX_ND,
                              _attention_rows, _gauge_frames, attention_input_jacobian,
                              batch_param_jacobian, block_chain_jacobian,
                              fd_check_instance, finite_difference_jacobian,
                              flatten_attention_params, gauge_free_width,
                              logits_input_jacobian,
                              mlp_input_jacobian, mlp_token_blocks,
                              relative_frobenius, sa_input_jacobian,
                              sa_param_jacobian, softmax_jacobian,
                              with_attention_params)
from skiplab.linalg import (BudgetError, commutation_permutation,
                            condition_from_singular_values, condition_number, kron,
                            kron_eye_apply, singular_values, spectral_norm, unvec, vec)
from skiplab.model import (ACTIVATIONS, BlockParams, ModelConfig, NetworkParams,
                           activation_derivative, attention_backward, network_backward,
                           network_forward, row_softmax, split_heads)
from conftest import traced_peak
from test_model import random_params, small_config


# --- finite-difference oracle self-checks -----------------------------------

def test_fd_recovers_linear_map():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 6))
    got = finite_difference_jacobian(lambda x: x @ m.T, np.zeros(6))
    assert np.max(np.abs(got - m)) < 1e-9


def test_fd_recovers_linear_map_across_chunks():
    """A map of 150 coordinates spans three chunks; f sees at most
    2 * FD_CHUNK points per call."""
    p = 150
    assert math.ceil(p / FD_CHUNK) == 3
    m = np.random.default_rng(1).standard_normal((7, p))
    seen = []

    def f(x):
        seen.append(len(x))
        return x @ m.T

    got = finite_difference_jacobian(f, np.random.default_rng(2).standard_normal(p))
    assert np.max(np.abs(got - m)) < 1e-9
    assert len(seen) == 3 and max(seen) <= 2 * FD_CHUNK


def test_fd_chunks_equal_per_point_differences():
    """Chunking changes no arithmetic: every column equals the per-point
    central difference to the last bit, across three chunks."""
    x0 = 3.0 * np.random.default_rng(3).standard_normal(150)

    def f(x):
        return x * x * x[..., ::-1]

    got = finite_difference_jacobian(f, x0)
    assert got.flags.c_contiguous
    for j in range(x0.size):
        h = FD_STEP * max(1.0, abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        assert np.array_equal(got[:, j], (f(xp) - f(xm)) / (2.0 * h)), j


def test_fd_scalar_square():
    got = finite_difference_jacobian(lambda x: x * x, np.array([3.0]))
    assert abs(got[0, 0] - 6.0) < 1e-7


def test_fd_reports_offending_coordinate():
    """The coordinate whose -h point goes non-finite is named, in the first
    chunk and in the second."""
    for bad in (1, FD_CHUNK + 5):
        def f(x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(x[:, bad:bad + 1])  # NaN when coordinate `bad` goes negative
        with pytest.raises(FloatingPointError, match=rf"coordinate {bad}$"):
            finite_difference_jacobian(f, np.zeros(2 * FD_CHUNK))


# --- softmax Jacobian --------------------------------------------------------

def test_softmax_jacobian_uniform_2x2_block():
    a = np.full((2, 2), 0.5)
    j = softmax_jacobian(a)
    block = np.array([[0.25, -0.25], [-0.25, 0.25]])
    # Row 0 occupies vec-positions {0, 2} under column-major ordering.
    assert np.allclose(j[np.ix_([0, 2], [0, 2])], block, atol=1e-15)
    assert np.allclose(j[np.ix_([1, 3], [1, 3])], block, atol=1e-15)


def test_softmax_jacobian_vanishes_at_identity():
    j = softmax_jacobian(np.eye(5))
    assert np.max(np.abs(j)) < 1e-12


def test_softmax_jacobian_matches_fd():
    rng = np.random.default_rng(1)
    for seed in range(5):
        m = np.random.default_rng(seed).standard_normal((5, 5))
        a = row_softmax(m, 1.0)
        fd = finite_difference_jacobian(
            lambda v: vec(row_softmax(unvec(v, 5, 5), 1.0)), vec(m))
        assert relative_frobenius(softmax_jacobian(a), fd) < 1e-7


def test_softmax_jacobian_block_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    a = row_softmax(rng.standard_normal((6, 6)), 1.0)
    j = softmax_jacobian(a)
    # dA_ij/dM summed over the logit column index k of the same row is 0.
    for i in range(6):
        for jj in range(6):
            row = j[jj * 6 + i, :]
            same_row_positions = [k * 6 + i for k in range(6)]
            assert abs(row[same_row_positions].sum()) < 1e-12


def test_softmax_jacobian_rejects_non_stochastic():
    with pytest.raises(ValueError):
        softmax_jacobian(np.array([[0.5, 0.9], [0.1, 0.9]]))


# --- logits Jacobian ---------------------------------------------------------

def test_logits_jacobian_zero_input():
    j = logits_input_jacobian(np.zeros((3, 4)), np.ones((4, 4)), 1.0)
    assert np.max(np.abs(j)) == 0.0


def test_logits_jacobian_scalar_case():
    # d(p x^2)/dx = 2 p x
    p = np.array([[1.7]])
    j = logits_input_jacobian(np.array([[3.0]]), p, 1.0)
    assert abs(j[0, 0] - 2.0 * 1.7 * 3.0) < 1e-12


def test_logits_jacobian_matches_fd():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 7))
    p = rng.standard_normal((7, 7))
    for scale in (1.0, 2.5):
        fd = finite_difference_jacobian(
            lambda v: vec(unvec(v, 5, 7) @ p @ unvec(v, 5, 7).swapaxes(-1, -2) / scale),
            vec(x))
        assert relative_frobenius(logits_input_jacobian(x, p, scale), fd) < 1e-7


# --- attention derivative ----------------------------------------------------

def _saturated_identity_params(cfg, seed, beta=60.0):
    """Parameters whose attention saturates to the identity at orthonormal-row
    inputs: W_Q W_K^T = beta*I with beta large."""
    params = random_params(cfg, seed=seed)
    bp = params.blocks[0]
    bp.W_Q = beta * np.eye(cfg.d)
    bp.W_K = np.eye(cfg.d)
    return params


def test_attention_derivative_saturated_limit():
    cfg = small_config(L=1, h=1, n=4, d=8)
    params = _saturated_identity_params(cfg, seed=4)
    x = np.linalg.qr(np.random.default_rng(5).standard_normal((cfg.d, cfg.n)))[0].T
    trace = network_forward(x, params, cfg)
    bp = params.blocks[0]
    a_prime = attention_input_jacobian(trace.blocks[0].sa.attention[0], x,
                                       bp.W_Q @ bp.W_K.T, cfg.attention_scale)
    assert spectral_norm(a_prime) < 1e-8


def test_attention_derivative_matches_fd():
    cfg = ModelConfig(L=1, n=2, d=2, h=1, attention_scale=1.0, use_mlp=False)
    rng = np.random.default_rng(6)
    p = rng.standard_normal((2, 2))
    bp = BlockParams(W_Q=p, W_K=np.eye(2), W_V=np.eye(2), W_O=np.eye(2))
    x = rng.standard_normal((2, 2))
    trace = network_forward(x, NetworkParams([bp]), cfg)
    fd = finite_difference_jacobian(
        lambda v: vec(row_softmax(unvec(v, 2, 2) @ p @ unvec(v, 2, 2).swapaxes(-1, -2),
                                  1.0)),
        vec(x))
    got = attention_input_jacobian(trace.blocks[0].sa.attention[0], x, p, 1.0)
    assert relative_frobenius(got, fd) < 1e-6


def test_attention_derivative_norm_decreases_in_beta():
    """Median spectral norm of dvec(A)/dvec(X) falls strictly as the identity
    weight beta of the query/key product grows (the alpha*e^-beta decay)."""
    from skiplab.analysis import softmax_derivative_beta_sweep
    betas = [0.0, 1.0, 2.0, 4.0, 8.0]
    norms = np.array([softmax_derivative_beta_sweep(10, 32, 2.0, betas, seed)
                      for seed in range(20)])
    med = np.median(norms, axis=0)
    assert all(med[i + 1] < med[i] for i in range(len(betas) - 1))


# --- attention input Jacobian ------------------------------------------------

def test_sa_input_jacobian_saturated_reduces_to_kron_term():
    cfg = small_config(L=1, h=1, n=4, d=8)
    params = _saturated_identity_params(cfg, seed=7)
    bp = params.blocks[0]
    x = np.linalg.qr(np.random.default_rng(8).standard_normal((cfg.d, cfg.n)))[0].T
    trace = network_forward(x, params, cfg)
    k = sa_input_jacobian(trace, 0)
    expected = kron((bp.W_V @ bp.W_O).T, trace.blocks[0].sa.attention[0])
    assert np.max(np.abs(k - expected)) < 1e-8


@pytest.mark.parametrize("h", [1, 2])
def test_sa_input_jacobian_matches_fd(h):
    from skiplab.model import self_attention
    cfg = ModelConfig(L=1, n=6, d=8, h=h, attention_scale=1.0, use_mlp=False)
    params = random_params(small_config(L=1, n=6, d=8, h=h), seed=20 + h)
    bp = params.blocks[0]
    x = np.random.default_rng(9).standard_normal((6, 8))
    trace = network_forward(x, NetworkParams([bp]), cfg)

    def f(v):
        return vec(self_attention(unvec(v, 6, 8), bp, cfg).out)

    fd = finite_difference_jacobian(f, vec(x))
    assert relative_frobenius(sa_input_jacobian(trace, 0), fd) < 1e-6


def test_sa_input_jacobian_budget():
    cfg = ModelConfig(L=1, n=64, d=64, h=1, use_mlp=False)
    params = random_params(small_config(L=1, n=64, d=64, h=1, mlp_hidden=4), seed=10, std=0.05)
    x = np.random.default_rng(11).standard_normal((64, 64))
    trace = network_forward(x, params, cfg)
    assert cfg.n * cfg.d > MAX_ND
    with pytest.raises(BudgetError):
        sa_input_jacobian(trace, 0)


def test_softmax_jacobian_checks_budget_before_allocating(monkeypatch):
    """The n^4 softmax Jacobian is checked against linalg.MAX_ELEMENTS before
    it is built, so K fails on it even where the logits Jacobian and every
    kron fit (n > d: n^4 = 256 against n^2 * nd = 128 at n=4, d=2)."""
    cfg = ModelConfig(L=1, n=4, d=2, h=1, use_skip=False, use_mlp=False)
    params = random_params(small_config(L=1, n=4, d=2, h=1), seed=3)
    trace = network_forward(np.random.default_rng(4).standard_normal((4, 2)), params, cfg)
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", 4 ** 4)
    sa_input_jacobian(trace, 0)
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", 4 ** 4 - 1)
    with pytest.raises(BudgetError):
        sa_input_jacobian(trace, 0)


def _composed_k_factors(trace, layer):
    """(B, M, A') composed densely, as K was built before it was built in place:
    B summed into a zero-filled nd x nd array one full kron per head, and A'
    stacked from each head's softmax Jacobian times (left + right) / s."""
    cfg = trace.config
    n, d = cfg.n, cfg.d
    bt, bp = trace.blocks[layer], trace.params.blocks[layer]
    g = split_heads(bp.W_V, cfg.h) @ split_heads(bp.W_O.T, cfg.h).swapaxes(-1, -2)
    b = np.zeros((n * d, n * d))
    for g_i, a_i in zip(g, bt.sa.attention):
        b += kron(g_i.T, a_i)
    a_prime = []
    for i in range(cfg.h):
        p = split_heads(bp.W_Q, cfg.h)[i] @ split_heads(bp.W_K, cfg.h)[i].T
        left = kron(bt.x_in @ p.T, np.eye(n))
        right = kron(np.eye(n), bt.x_in @ p)[:, commutation_permutation(d, n)]
        a_prime.append(softmax_jacobian(bt.sa.attention[i])
                       @ ((left + right) / cfg.attention_scale))
    return b, np.hstack((bt.x_in @ g).swapaxes(-1, -2)), np.vstack(a_prime)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("use_skip", [True, False])
@pytest.mark.parametrize("h", [1, 2, 3])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), d_h=st.integers(1, 3), std=st.sampled_from([0.4, 3.0]),
       seed=st.integers(0, 2**16))
@example(n=4, d_h=2, std=3.0, seed=0)  # layer 1 saturates: exact zeros in A and A'
def test_property_k_builds_bit_identical_to_composed_oracle(h, use_skip, n, d_h, std, seed):
    """K built in place has the bits of B + (M kron I_n) A' composed densely,
    signs of zero included, and perturbation_split's metrics are the composed
    formula's, at every layer of skip and skipless traces."""
    cfg = small_config(L=2, n=n, d=h * d_h, h=h, use_skip=use_skip, attention_scale=1.3)
    params = random_params(cfg, seed=seed, std=std)
    x = np.random.default_rng(seed + 1).standard_normal((n, cfg.d))
    trace = network_forward(x, params, cfg)
    for layer in range(cfg.L):
        b, m, a_prime = _composed_k_factors(trace, layer)
        k = sa_input_jacobian(trace, layer)
        assert k.shape == b.shape
        assert _bits(k) == _bits(b + kron_eye_apply(m, a_prime)), layer
        s_b = singular_values(b)
        e_norm = spectral_norm(kron_eye_apply(np.linalg.qr(m, mode="r"), a_prime))
        assert perturbation_split(trace, layer) == {
            "e_norm": e_norm, "b_sigma_min": float(s_b[-1]), "b_sigma_max": float(s_b[0]),
            "kappa_B": condition_from_singular_values(s_b),
            "kappa_K": condition_number(b + kron_eye_apply(m, a_prime)),
            "dominance_ratio": e_norm / max(float(s_b[-1]), 1e-300)}, layer


@pytest.mark.parametrize("h", [1, 2])
def test_k_builds_hold_no_second_nd_square(h):
    """At nd = 512, K and its perturbation split hold no nd x nd temporary
    beside K (and, for the split, B's SVD input): the traced peak, which
    includes K and A' (h n^2 x nd), stays below 1.5 nd^2 floats."""
    cfg = ModelConfig(L=1, n=8, d=64, h=h, attention_scale=8.0, use_skip=False,
                      use_mlp=False)
    params = random_params(small_config(L=1, n=8, d=64, h=h), seed=5, std=0.1)
    trace = network_forward(np.random.default_rng(6).standard_normal((8, 64)), params, cfg)
    k_bytes = (cfg.n * cfg.d) ** 2 * 8
    assert traced_peak(lambda: sa_input_jacobian(trace, 0)) < 1.5 * k_bytes
    assert traced_peak(lambda: perturbation_split(trace, 0)) < 1.5 * k_bytes


def test_param_jacobian_stack_checks_budget_before_any_backward(monkeypatch):
    """The m*n*d x gauge_free_width kappa(J) stack is checked against
    linalg.MAX_ELEMENTS before the first backward runs."""
    cfg = small_config(L=1, n=2, d=4, h=2)
    params = random_params(cfg, seed=6)
    trace = network_forward(np.random.default_rng(7).standard_normal((2, 2, 4)), params, cfg)
    size = 2 * 2 * 4 * gauge_free_width(cfg)
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", size)
    assert next(batch_param_jacobian(trace))[1].size == size
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", size - 1)
    monkeypatch.setattr(skiplab.jacobian, "network_backward", None)
    with pytest.raises(BudgetError):
        next(batch_param_jacobian(trace))


# --- MLP input Jacobian ------------------------------------------------------

def test_mlp_input_jacobian_identity_case():
    cfg = small_config(L=1, activation="identity", mlp_hidden=8, d=8)
    d = cfg.d
    bp = BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                     W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                     mlp_W1=np.eye(d), mlp_b1=np.zeros(d),
                     mlp_W2=np.eye(d), mlp_b2=np.zeros(d))
    x = np.random.default_rng(12).standard_normal((cfg.n, d))
    trace = network_forward(x, NetworkParams([bp]), cfg)
    assert np.allclose(mlp_input_jacobian(trace, 0), np.eye(cfg.n * d),
                       atol=1e-14)


def test_mlp_input_jacobian_relu_dead_region():
    cfg = small_config(L=1, activation="relu", use_skip=False)
    params = random_params(cfg, seed=13)
    bp = params.blocks[0]
    bp.mlp_b1 = np.full(cfg.mlp_hidden, -1e6)  # all pre-activations negative
    x = np.random.default_rng(14).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    assert np.max(np.abs(mlp_input_jacobian(trace, 0))) == 0.0


def test_mlp_input_jacobian_gelu_matches_fd():
    from skiplab.model import mlp_forward
    cfg = small_config(L=1, activation="gelu")
    params = random_params(cfg, seed=15)
    bp = params.blocks[0]
    x = np.random.default_rng(16).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)

    def f(v):
        return vec(mlp_forward(unvec(v, cfg.n, cfg.d), bp, cfg).out)

    fd = finite_difference_jacobian(f, vec(trace.blocks[0].post_attention))
    assert relative_frobenius(mlp_input_jacobian(trace, 0), fd) < 1e-6


def test_mlp_input_jacobian_identity_when_mlp_disabled():
    cfg = small_config(L=1, use_mlp=False)
    params = random_params(small_config(L=1), seed=17)
    x = np.random.default_rng(18).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    assert np.array_equal(mlp_input_jacobian(trace, 0),
                          np.eye(cfg.n * cfg.d))


def _kron_mlp_input_jacobian(trace, layer):
    """Dense K-hat as Kronecker factors, (W2^T kron I_n) diag(act') (W1^T kron
    I_n): the oracle for the scattered token blocks."""
    cfg = trace.config
    if not cfg.use_mlp:
        return np.eye(cfg.n * cfg.d)
    bp = trace.params.blocks[layer]
    eye_n = np.eye(cfg.n)
    act = activation_derivative(cfg.activation, trace.blocks[layer].mlp.pre)
    return (kron(bp.mlp_W2.T, eye_n) * vec(act)) @ kron(bp.mlp_W1.T, eye_n)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(activation=st.sampled_from(["gelu", "relu"]), use_mlp=st.booleans(),
       n=st.integers(1, 5), d=st.integers(1, 6), hidden=st.integers(1, 8),
       dead=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_property_mlp_token_blocks_match_kron_form(activation, use_mlp, n, d,
                                                   hidden, dead, seed):
    """Scattered token blocks equal the Kronecker-factor K-hat, and their
    condition number equals the dense one; ``dead`` hidden units get a large
    negative bias, so their act' is 0 for every token."""
    cfg = ModelConfig(L=1, n=n, d=d, h=1, attention_scale=1.0,
                      activation=activation, use_skip=False, use_mlp=use_mlp,
                      mlp_hidden=hidden)
    params = random_params(cfg, seed=seed)
    params.blocks[0].mlp_b1[:dead] = -1e6
    x = np.random.default_rng(seed + 1).standard_normal((n, d))
    trace = network_forward(x, params, cfg)
    oracle = _kron_mlp_input_jacobian(trace, 0)
    blocks = mlp_token_blocks(trace, 0)
    assert blocks.shape == (n, d, d)
    assert np.allclose(mlp_input_jacobian(trace, 0), oracle, rtol=0,
                       atol=1e-14 * max(1.0, np.max(np.abs(oracle))))
    got, want = condition_number(blocks), condition_number(oracle)
    if math.isinf(want) or math.isinf(got):
        assert math.isinf(got) and math.isinf(want)
    else:
        assert got == pytest.approx(want, rel=1e-9)


# --- parameter Jacobian ------------------------------------------------------

def _kron_sa_param_jacobian(trace, layer):
    """Dense oracle for sa_param_jacobian: the nd x 4d^2 P from Kronecker
    factors.  Per head i (with T_i = ((X W_V,i W_O,i)^T kron I_n) J_i):
      d/dW_Q,i = T_i (X W_K,i kron X) / s
      d/dW_K,i = T_i (X kron X W_Q,i) K_{d,d_h} / s
      d/dW_V,i = W_O,i^T kron A_i X
    and d/dW_O = I_d kron Concat_i(A_i X W_V,i)."""
    cfg = trace.config
    n, d, d_h = cfg.n, cfg.d, cfg.d_h
    bt = trace.blocks[layer]
    bp = trace.params.blocks[layer]
    x = bt.x_in
    dq, dk, dv = (np.zeros((n * d, d * d)) for _ in range(3))
    concat = np.zeros((n, d))
    k_ddh = commutation_permutation(d_h, d)
    for i in range(cfg.h):
        blk = slice(i * d_h, (i + 1) * d_h)
        w_q, w_k = bp.W_Q[:, blk], bp.W_K[:, blk]
        w_v, w_o = bp.W_V[:, blk], bp.W_O[blk, :]
        a = bt.sa.attention[i]
        concat[:, blk] = a @ x @ w_v
        t = kron_eye_apply((x @ w_v @ w_o).T, softmax_jacobian(a))
        cols = slice(i * d_h * d, (i + 1) * d_h * d)
        dq[:, cols] = t @ kron(x @ w_k, x) / cfg.attention_scale
        dk[:, cols] = t @ kron(x, x @ w_q)[:, k_ddh] / cfg.attention_scale
        dv[:, cols] = kron(w_o.T, a @ x)
    return np.hstack([dq, dk, dv, kron(np.eye(d), concat)])


@pytest.mark.parametrize("left_shape", [None, "square", "short", "tall"])
@pytest.mark.parametrize("use_skip", [True, False])
@pytest.mark.parametrize("h", [1, 2, 3])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_property_sa_param_jacobian_matches_kron_oracle(h, use_skip, left_shape, n, seed):
    """P through the vec identity equals the dense Kronecker P; for an
    nd x nd left and m x nd lefts with m != nd, the attention backward on the
    stack of left's rows as n x d cotangents gives left @ P."""
    cfg = small_config(L=2, n=n, d=6, h=h, use_skip=use_skip, attention_scale=1.7)
    params = random_params(cfg, seed=seed, std=0.6)
    rng = np.random.default_rng(seed + 1)
    trace = network_forward(rng.standard_normal((n, cfg.d)), params, cfg)
    nd = n * cfg.d
    rows = {None: None, "square": nd, "short": nd - 3, "tall": nd + 5}[left_shape]
    left = None if rows is None else rng.standard_normal((rows, nd))
    for layer in range(cfg.L):
        oracle = _kron_sa_param_jacobian(trace, layer)
        if left is None:
            want, got = oracle, sa_param_jacobian(trace, layer)
        else:
            want = left @ oracle
            got = _attention_rows(attention_backward(
                trace.blocks[layer], params.blocks[layer], cfg, unvec(left, n, cfg.d)))
        assert got.shape == want.shape
        assert relative_frobenius(got, want) < 1e-12, layer


def test_sa_param_jacobian_wo_block_is_linear_term():
    cfg = small_config(L=1, h=1)
    params = random_params(cfg, seed=19)
    bp = params.blocks[0]
    x = np.random.default_rng(20).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    j = sa_param_jacobian(trace, 0)
    d = cfg.d
    wo_block = j[:, 3 * d * d:]
    a = trace.blocks[0].sa.attention[0]
    expected = kron(np.eye(d), a @ x @ bp.W_V)
    assert np.max(np.abs(wo_block - expected)) < 1e-12


def test_sa_param_jacobian_zero_input():
    cfg = small_config(L=1, h=2)
    params = random_params(cfg, seed=21)
    trace = network_forward(np.zeros((cfg.n, cfg.d)), params, cfg)
    assert np.max(np.abs(sa_param_jacobian(trace, 0))) == 0.0


@pytest.mark.parametrize("h", [1, 2])
def test_sa_param_jacobian_matches_fd_per_tensor(h):
    from skiplab.model import self_attention
    cfg = ModelConfig(L=1, n=4, d=8, h=h, attention_scale=1.3, use_mlp=False)
    params = random_params(small_config(L=1, n=4, d=8, h=h), seed=22, std=0.5)
    bp = params.blocks[0]
    x = np.random.default_rng(23).standard_normal((4, 8))
    trace = network_forward(x, NetworkParams([bp]), cfg)
    theta0 = flatten_attention_params(bp)

    def f(theta):
        return vec(self_attention(x, with_attention_params(bp, theta), cfg).out)

    fd = finite_difference_jacobian(f, theta0)
    got = sa_param_jacobian(trace, 0)
    d2 = 64
    for t, name in enumerate(("W_Q", "W_K", "W_V", "W_O")):
        cols = slice(t * d2, (t + 1) * d2)
        assert relative_frobenius(got[:, cols], fd[:, cols]) < 1e-6, name


def test_with_attention_params_stack_shares_mlp():
    """A (k, 4d^2) theta stack gives (k, d, d) attention weights in
    flatten_attention_params order; the copy shares the block's MLP arrays,
    and the block keeps its own arrays."""
    cfg = small_config(L=1, h=2)
    bp = random_params(cfg, seed=48).blocks[0]
    before = {f.name: getattr(bp, f.name) for f in dataclasses.fields(bp)}
    theta = np.random.default_rng(49).standard_normal((3, 4 * cfg.d * cfg.d))
    out = with_attention_params(bp, theta)
    for name in ("W_Q", "W_K", "W_V", "W_O"):
        assert getattr(out, name).shape == (3, cfg.d, cfg.d)
    assert np.array_equal(flatten_attention_params(out), theta)
    for name in ("mlp_W1", "mlp_b1", "mlp_W2", "mlp_b2"):
        assert getattr(out, name) is before[name]
    assert all(getattr(bp, name) is arr for name, arr in before.items())


# --- chain Jacobian ----------------------------------------------------------

def _fd_chain(trace, params, cfg, x0, layer):
    bp = params.blocks[layer]
    theta0 = flatten_attention_params(bp)

    def f(theta):
        blocks = list(params.blocks)
        blocks[layer] = with_attention_params(bp, theta)
        return vec(network_forward(x0, NetworkParams(blocks), cfg).output)

    return finite_difference_jacobian(f, theta0)


def test_chain_last_layer_reduces_to_local_term():
    cfg = small_config(L=2, use_skip=True)
    params = random_params(cfg, seed=24)
    x0 = np.random.default_rng(25).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    got = block_chain_jacobian(trace, 1)
    local = sa_param_jacobian(trace, 1)
    k_hat = mlp_input_jacobian(trace, 1)
    expected = (k_hat + np.eye(cfg.n * cfg.d)) @ local
    assert np.max(np.abs(got - expected)) < 1e-12
    fd = _fd_chain(trace, params, cfg, x0, 1)
    assert relative_frobenius(got, fd) < 1e-6


def test_chain_skipless_identity_mlp():
    cfg = small_config(L=1, use_skip=False, activation="identity")
    params = random_params(cfg, seed=26)
    bp = params.blocks[0]
    bp.mlp_W1 = np.eye(cfg.d, cfg.mlp_hidden)
    bp.mlp_W2 = np.eye(cfg.mlp_hidden, cfg.d)
    bp.mlp_b1 = np.zeros(cfg.mlp_hidden)
    bp.mlp_b2 = np.zeros(cfg.d)
    x0 = np.random.default_rng(27).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    got = block_chain_jacobian(trace, 0)
    expected = mlp_input_jacobian(trace, 0) @ sa_param_jacobian(trace, 0)
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("use_skip", [True, False])
def test_chain_three_layers_matches_fd(use_skip):
    """Every layer's chain Jacobian, the middle one included."""
    cfg = ModelConfig(L=3, n=4, d=8, h=1, attention_scale=1.0,
                      activation="gelu", use_skip=use_skip, use_mlp=True,
                      mlp_hidden=8)
    params = random_params(cfg, seed=28, std=0.35)
    x0 = np.random.default_rng(29).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    for layer in range(cfg.L):
        got = block_chain_jacobian(trace, layer)
        fd = _fd_chain(trace, params, cfg, x0, layer)
        assert relative_frobenius(got, fd) < 1e-5, layer


def _j_stack(traces):
    """Per layer, the stack J of the per-sample chain Jacobians in
    :func:`flatten_attention_params` coordinates: each trace's backward on
    the unit cotangents, its attention pairs contracted by _attention_rows."""
    cfg = traces[0].config
    eye = unvec(np.eye(cfg.n * cfg.d), cfg.n, cfg.d)
    return {steps[0][0]: np.vstack([_attention_rows(pairs) for _, pairs in steps])
            for steps in zip(*(network_backward(t, eye) for t in traces))}


def _forward_product_chain(trace, layer):
    """Dense oracle: layer ``layer``'s chain Jacobian as the forward product
    of every downstream stage factor, built from the input Jacobians; an MLP
    stage is the identity without an MLP."""
    cfg = trace.config
    eye = np.eye(cfg.n * cfg.d)
    skip = eye if cfg.use_skip else 0.0

    def mlp_factor(i):
        return mlp_input_jacobian(trace, i) + skip if cfg.use_mlp else eye

    j = mlp_factor(layer) @ sa_param_jacobian(trace, layer)
    for i in range(layer + 1, cfg.L):
        j = (sa_input_jacobian(trace, i) + skip) @ j
        j = mlp_factor(i) @ j
    return j


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("use_skip", [True, False])
def test_chain_sweep_matches_forward_product(h, use_skip):
    """The backward sweep reassociates the forward product; they agree to
    rounding at every layer."""
    cfg = small_config(L=4, h=h, use_skip=use_skip)
    params = random_params(cfg, seed=44 + h)
    x0 = np.random.default_rng(45).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    for layer in range(cfg.L):
        got = block_chain_jacobian(trace, layer)
        assert relative_frobenius(got, _forward_product_chain(trace, layer)) < 1e-12


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("use_mlp", [True, False])
@pytest.mark.parametrize("use_skip", [True, False])
@pytest.mark.parametrize("h", [1, 2, 3])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(layers=st.integers(1, 3), n=st.integers(2, 4), d_h=st.integers(1, 3),
       hidden=st.integers(1, 5), scale=st.floats(0.8, 3.0), seed=st.integers(0, 2**16))
def test_property_one_backward(h, use_skip, use_mlp, activation, layers, n, d_h,
                               hidden, scale, seed):
    """The backward on unit cotangents gives every layer's chain Jacobian of
    each sample (against the dense forward product), and on any cotangent
    stack its per-cotangent attention gradients sum to the trainer's
    contraction of the same pairs."""
    cfg = ModelConfig(L=layers, n=n, d=h * d_h, h=h, attention_scale=scale,
                      activation=activation, use_skip=use_skip, use_mlp=use_mlp,
                      mlp_hidden=hidden)
    params = random_params(cfg, seed=seed, std=1.0 / np.sqrt(cfg.d))
    rng = np.random.default_rng(seed + 1)
    traces = [network_forward(rng.standard_normal((n, cfg.d)), params, cfg)
              for _ in range(2)]
    nd = n * cfg.d
    for layer, j in _j_stack(traces).items():
        for i, trace in enumerate(traces):
            want = _forward_product_chain(trace, layer)
            assert relative_frobenius(j[i * nd:(i + 1) * nd], want) < 1e-12, (layer, i)

    cotangents = rng.standard_normal((5, n, cfg.d))
    for _, pairs in network_backward(traces[0], cotangents):
        summed = _attention_rows(pairs).sum(axis=0)
        want = []
        for name in ATTENTION_WEIGHTS:
            x, dy = pairs[name]
            out = np.empty((cfg.d, cfg.d))
            _stacked_outer(np.broadcast_to(x, dy.shape), dy, out)
            want.append(vec(out))
        assert relative_frobenius(summed, np.concatenate(want)) < 1e-12


def test_chain_skip_identity_at_zero_weights():
    """With all weights zero and skips on, every chain factor is exactly I."""
    cfg = small_config(L=3, use_skip=True)
    d, m = cfg.d, cfg.mlp_hidden
    blocks = [BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                          W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                          mlp_W1=np.zeros((d, m)), mlp_b1=np.zeros(m),
                          mlp_W2=np.zeros((m, d)), mlp_b2=np.zeros(d))
              for _ in range(3)]
    params = NetworkParams(blocks)
    x0 = np.random.default_rng(30).standard_normal((cfg.n, d))
    trace = network_forward(x0, params, cfg)
    got = block_chain_jacobian(trace, 0)
    assert np.array_equal(got, sa_param_jacobian(trace, 0))


def test_chain_calls_no_input_jacobian_or_kron(monkeypatch):
    """The chain path is the backward on unit cotangents: it builds no K, no
    K-hat and no Kronecker product, for one layer or the whole batch."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("sa_input_jacobian", "mlp_input_jacobian", "kron"):
        counted(skiplab.jacobian, name)
    counted(skiplab.linalg, "kron")
    cfg = small_config(L=3)
    params = random_params(cfg, seed=46)
    batch = np.random.default_rng(47).standard_normal((2, cfg.n, cfg.d))
    block_chain_jacobian(network_forward(batch[0], params, cfg), 0)
    assert [layer for layer, _ in batch_param_jacobian(
        network_forward(batch, params, cfg))] == [2, 1, 0]
    assert calls == []


def test_cotangent_stack_is_unvec_identity():
    """The unit cotangents are unvec(I_nd) bit for bit, in C order."""
    cfg = small_config(L=1, n=5, d=3, h=1)
    trace = network_forward(np.zeros((5, 3)), random_params(cfg), cfg)
    got = skiplab.jacobian._cotangent_stack(trace)
    assert got.flags.c_contiguous
    assert _bits(got) == _bits(unvec(np.eye(15), 5, 3))


def test_chain_layer_out_of_range():
    cfg = small_config(L=2)
    params = random_params(cfg, seed=31)
    trace = network_forward(np.zeros((cfg.n, cfg.d)), params, cfg)
    with pytest.raises(IndexError):
        block_chain_jacobian(trace, 5)


# --- batch stacking ----------------------------------------------------------

def _batch_by_layer(batch, params, cfg):
    return dict(batch_param_jacobian(network_forward(batch, params, cfg)))


def test_batch_single_sample_equals_chain():
    cfg = small_config(L=2, use_skip=False)
    params = random_params(cfg, seed=32)
    x0 = np.random.default_rng(33).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    assert [layer for layer, _ in batch_param_jacobian(
        network_forward(x0[None], params, cfg))] == [1, 0]
    batched = _j_stack([trace])[0]
    assert np.array_equal(batched, block_chain_jacobian(trace, 0))


def test_batch_duplicated_sample_scales_singular_values():
    from skiplab.linalg import singular_values
    cfg = small_config(L=1, use_skip=True)
    params = random_params(cfg, seed=34)
    x0 = np.random.default_rng(35).standard_normal((cfg.n, cfg.d))
    j1 = _batch_by_layer(x0[None], params, cfg)[0]
    j2 = _batch_by_layer(np.stack([x0, x0]), params, cfg)[0]
    s1 = singular_values(j1)
    s2 = singular_values(j2)
    k = min(len(s1), len(s2))
    assert np.allclose(s2[:k], np.sqrt(2.0) * s1[:k], atol=1e-9)


def test_batch_rows_are_per_sample_jacobians():
    cfg = small_config(L=2, use_skip=True)
    params = random_params(cfg, seed=36)
    batch = np.random.default_rng(37).standard_normal((4, cfg.n, cfg.d))
    traces = [network_forward(x0, params, cfg) for x0 in batch]
    j = _j_stack(traces)[1]
    nd = cfg.n * cfg.d
    for i, trace in enumerate(traces):
        expected = block_chain_jacobian(trace, 1)
        assert np.array_equal(j[i * nd:(i + 1) * nd, :], expected)
    # The gauge-free stack keeps the sample order: its Gram equals J's,
    # cross-sample blocks included.
    c = _batch_by_layer(batch, params, cfg)[1]
    assert relative_frobenius(c @ c.T, j @ j.T) < 1e-12


@pytest.mark.parametrize("h", [1, 2, 4])
def test_j_maps_gauge_directions_to_zero(h):
    """(W_Q,i S, -W_K,i S^T) and (W_V,i S, -S W_O,i) leave every head's
    W_Q W_K^T and W_V W_O unchanged to first order: J maps them to zero."""
    cfg = small_config(L=2, d=8, h=h, use_skip=False)
    params = random_params(cfg, seed=38)
    rng = np.random.default_rng(39)
    trace = network_forward(rng.standard_normal((cfg.n, cfg.d)), params, cfg)
    j = block_chain_jacobian(trace, 0)
    bp = params.blocks[0]
    zero = np.zeros((cfg.d, cfg.d))
    for i in range(h):
        blk = slice(i * cfg.d_h, (i + 1) * cfg.d_h)
        s = rng.standard_normal((cfg.d_h, cfg.d_h))
        dq, dk, dv, do = (zero.copy() for _ in range(4))
        dq[:, blk], dk[:, blk] = bp.W_Q[:, blk] @ s, -bp.W_K[:, blk] @ s.T
        dv[:, blk], do[blk] = bp.W_V[:, blk] @ s, -s @ bp.W_O[blk]
        for theta in (np.concatenate([vec(dq), vec(dk), vec(zero), vec(zero)]),
                      np.concatenate([vec(zero), vec(zero), vec(dv), vec(do)])):
            assert np.linalg.norm(j @ theta) < 1e-12 * np.linalg.norm(j) * np.linalg.norm(theta)


def _with_defect(params, defect):
    """A zero column 0 in every layer's W_K and W_Q (with d_h = 1, head 0's
    W_Q,0 and W_K,0 vanish, so both singular values are exactly 0 and the
    Givens hypot is 0), or a zero row 0 in W_O (head 0's W_O block is rank
    deficient)."""
    for bp in params.blocks:
        if defect == "qk_column":
            bp.W_K[:, 0] = 0.0
            bp.W_Q[:, 0] = 0.0
        elif defect == "wo_rank":
            bp.W_O[0] = 0.0
    return params


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("use_mlp", [True, False])
@pytest.mark.parametrize("use_skip", [True, False])
@pytest.mark.parametrize("h", [1, 2, 3])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(layers=st.integers(1, 3), n=st.integers(2, 4), d_h=st.integers(1, 3),
       samples=st.integers(1, 3), seed=st.integers(0, 2**16),
       defect=st.sampled_from([None, "qk_column", "wo_rank"]))
@example(layers=2, n=3, d_h=1, samples=2, seed=11, defect="qk_column")
@example(layers=2, n=3, d_h=2, samples=2, seed=12, defect="wo_rank")
def test_property_gauge_free_stack(h, use_skip, use_mlp, activation, layers, n, d_h,
                                   samples, seed, defect):
    """The gauge-free stack C has gauge_free_width columns, and C C^T and
    the singular values match the stack of dense forward-product chain
    Jacobians; the extra singular values of a taller J are zero."""
    cfg = ModelConfig(L=layers, n=n, d=h * d_h, h=h, attention_scale=1.5,
                      activation=activation, use_skip=use_skip, use_mlp=use_mlp,
                      mlp_hidden=3)
    params = _with_defect(random_params(cfg, seed=seed, std=1.0 / np.sqrt(cfg.d)), defect)
    if defect == "qk_column" and d_h == 1:
        (c_q, c_k), _ = _gauge_frames(params.blocks[0], h)[1]
        assert c_q[0].max() == c_k[0].max() == 0.0
    batch = np.random.default_rng(seed + 1).standard_normal((samples, n, cfg.d))
    traces = [network_forward(x0, params, cfg) for x0 in batch]
    for layer, c in batch_param_jacobian(network_forward(batch, params, cfg)):
        j = np.vstack([_forward_product_chain(t, layer) for t in traces])
        assert c.shape == (len(j), gauge_free_width(cfg))
        assert relative_frobenius(c @ c.T, j @ j.T) < 1e-12, layer
        s_c, s_j = singular_values(c), singular_values(j)
        k = len(s_c)
        tol = 1e-12 * s_j[0]
        assert np.all(np.abs(s_c - s_j[:k]) <= tol), layer
        assert np.all(s_j[k:] <= tol), layer


def test_batch_requires_samples():
    """An empty batch, or a trace of one unbatched (n, d) sample, has no
    sample axis to stack."""
    cfg = small_config(L=1)
    params = random_params(cfg, seed=48)
    for x0 in (np.empty((0, cfg.n, cfg.d)), np.zeros((cfg.n, cfg.d))):
        with pytest.raises(ValueError):
            next(batch_param_jacobian(network_forward(x0, params, cfg)))


def _per_sample_stack(traces):
    """The oracle for the batched stack: one backward per sample trace,
    walked in lockstep by ``zip``, each sample's gauge-free rows stacked per
    layer by ``np.vstack`` in sample order."""
    cfg = traces[0].config
    eye = skiplab.jacobian._cotangent_stack(traces[0])
    for steps in zip(*(network_backward(t, eye) for t in traces)):
        layer = steps[0][0]
        frames = _gauge_frames(traces[0].params.blocks[layer], cfg.h)
        yield layer, np.vstack([
            skiplab.jacobian._gauge_free_rows(
                {w: (x[None], dy[:, None]) for w, (x, dy) in pairs.items()
                 if w in ATTENTION_WEIGHTS}, frames, cfg.h)
            for _, pairs in steps])


@pytest.mark.parametrize("samples", [1, 2, 3])
@pytest.mark.parametrize("use_mlp", [True, False])
@pytest.mark.parametrize("use_skip", [True, False])
@pytest.mark.parametrize("h", [1, 2, 4])
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(layers=st.integers(1, 3), n=st.integers(2, 4), d_h=st.integers(1, 2),
       seed=st.integers(0, 2**16))
def test_property_batch_backward_matches_per_sample_stack(h, use_skip, use_mlp, samples,
                                                          layers, n, d_h, seed):
    """One backward over the (m, n, d) batch trace gives the per-sample
    stack bit for bit, layer by layer, sample s in rows s*nd to (s+1)*nd - 1."""
    cfg = ModelConfig(L=layers, n=n, d=h * d_h, h=h, attention_scale=1.5,
                      use_skip=use_skip, use_mlp=use_mlp, mlp_hidden=3)
    params = random_params(cfg, seed=seed, std=1.0 / np.sqrt(cfg.d))
    batch = np.random.default_rng(seed + 1).standard_normal((samples, n, cfg.d))
    want = list(_per_sample_stack([network_forward(x0, params, cfg) for x0 in batch]))
    got = list(batch_param_jacobian(network_forward(batch, params, cfg)))
    assert [layer for layer, _ in got] == [layer for layer, _ in want]
    for (layer, c), (_, oracle) in zip(got, want):
        assert c.shape == oracle.shape == (samples * n * cfg.d, gauge_free_width(cfg))
        assert _bits(c) == _bits(oracle), layer


# --- randomized whole-suite agreement ---------------------------------------

def test_fd_suite_randomized_instances():
    """Every analytic Jacobian agrees with central differences within 1e-5
    relative Frobenius across randomized small instances."""
    worst = {}
    for seed in range(6):
        n = 3 + seed % 3
        d = 4 + 2 * (seed % 2)
        h = 1 + seed % 2
        errs = fd_check_instance(n=n, d=d, h=h, layers=2, seed=seed, scale=1.0)
        for key, val in errs.items():
            worst[key] = max(worst.get(key, 0.0), val)
    assert all(v < 1e-5 for v in worst.values()), worst


# --- property suite: random shapes against FD and the dense oracles ---------

@st.composite
def _chain_instances(draw):
    h = draw(st.sampled_from([1, 2]))
    d = h * draw(st.integers(1, 3))
    cfg = ModelConfig(L=draw(st.integers(1, 3)), n=draw(st.integers(2, 4)), d=d,
                      h=h, attention_scale=draw(st.floats(0.8, 3.0)),
                      activation="gelu", use_skip=draw(st.booleans()),
                      use_mlp=True, mlp_hidden=draw(st.integers(1, 4)))
    return cfg, draw(st.integers(0, 2**16))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(_chain_instances())
def test_property_chain_and_permutations(instance):
    from skiplab.linalg import commutation_matrix, commutation_permutation
    cfg, seed = instance
    n, d = cfg.n, cfg.d
    # Unit gain per stage keeps the chain above the FD oracle's rounding
    # floor; at std 0.35 and d=1 three skipless layers shrink it to 1e-9.
    params = random_params(cfg, seed=seed, std=1.0 / np.sqrt(d))
    rng = np.random.default_rng(seed + 1)
    x0 = rng.standard_normal((n, d))
    trace = network_forward(x0, params, cfg)
    for layer in range(cfg.L):
        got = block_chain_jacobian(trace, layer)
        fd = _fd_chain(trace, params, cfg, x0, layer)
        assert relative_frobenius(got, fd) < 1e-5, layer

    # Each permuted Jacobian equals its dense commutation-matrix form.
    a = trace.blocks[0].sa.attention[0]
    blocks = np.zeros((n * n, n * n))
    for i in range(n):
        blocks[i * n:(i + 1) * n, i * n:(i + 1) * n] = np.diag(a[i]) - np.outer(a[i], a[i])
    k_nn = commutation_matrix(n, n)
    assert np.array_equal(softmax_jacobian(a), k_nn @ blocks @ k_nn.T)
    p = rng.standard_normal((d, d))
    scale = cfg.attention_scale
    dense = (kron(x0 @ p.T, np.eye(n))
             + kron(np.eye(n), x0 @ p) @ commutation_matrix(n, d)) / scale
    assert np.array_equal(logits_input_jacobian(x0, p, scale), dense)
    m = rng.standard_normal((3, d * cfg.d_h))
    assert np.array_equal(m @ commutation_matrix(d, cfg.d_h),
                          m[:, commutation_permutation(cfg.d_h, d)])
