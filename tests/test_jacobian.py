import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skiplab.init import InitSpec, init_network
from skiplab.jacobian import (MAX_ND, attention_input_jacobian,
                              batch_param_jacobian, block_chain_jacobian,
                              fd_check_instance, finite_difference_jacobian,
                              flatten_attention_params, logits_input_jacobian,
                              mlp_input_jacobian, mlp_token_blocks,
                              relative_frobenius, sa_input_jacobian,
                              sa_param_jacobian, softmax_jacobian)
from skiplab.linalg import (BudgetError, condition_number, kron, spectral_norm,
                            unvec, vec)
from skiplab.model import (BlockParams, ModelConfig, NetworkParams,
                           activation_derivative, network_forward, row_softmax)
from test_model import random_params, small_config


# --- finite-difference oracle self-checks -----------------------------------

def test_fd_recovers_linear_map():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 6))
    got = finite_difference_jacobian(lambda x: m @ x, np.zeros(6))
    assert np.max(np.abs(got - m)) < 1e-9


def test_fd_scalar_square():
    got = finite_difference_jacobian(lambda x: x * x, np.array([3.0]))
    assert abs(got[0, 0] - 6.0) < 1e-7


def test_fd_reports_offending_coordinate():
    def f(x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(x[1:2])  # NaN when coordinate 1 goes negative
    with pytest.raises(FloatingPointError, match="coordinate 1"):
        finite_difference_jacobian(f, np.zeros(3))


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
            lambda v: vec(unvec(v, 5, 7) @ p @ unvec(v, 5, 7).T / scale), vec(x))
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
    a_prime = attention_input_jacobian(trace, 0, 0)
    assert spectral_norm(a_prime) < 1e-8


def test_attention_derivative_matches_fd():
    cfg = ModelConfig(L=1, n=2, d=2, h=1, attention_scale=1.0, use_mlp=False)
    rng = np.random.default_rng(6)
    p = rng.standard_normal((2, 2))
    bp = BlockParams(W_Q=p, W_K=np.eye(2), W_V=np.eye(2), W_O=np.eye(2))
    x = rng.standard_normal((2, 2))
    trace = network_forward(x, NetworkParams([bp]), cfg)
    fd = finite_difference_jacobian(
        lambda v: vec(row_softmax(unvec(v, 2, 2) @ p @ unvec(v, 2, 2).T, 1.0)),
        vec(x))
    got = attention_input_jacobian(trace, 0, 0)
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
    if want.is_infinite or got.is_infinite:
        assert got.is_infinite and want.is_infinite
    else:
        assert got.value == pytest.approx(want.value, rel=1e-9)


# --- parameter Jacobian ------------------------------------------------------

def test_sa_param_jacobian_wo_block_is_linear_term():
    cfg = small_config(L=1, h=1)
    params = random_params(cfg, seed=19)
    bp = params.blocks[0]
    x = np.random.default_rng(20).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    j = sa_param_jacobian(trace, 0).matrix
    d = cfg.d
    wo_block = j[:, 3 * d * d:]
    a = trace.blocks[0].sa.attention[0]
    expected = kron(np.eye(d), a @ x @ bp.W_V)
    assert np.max(np.abs(wo_block - expected)) < 1e-12


def test_sa_param_jacobian_zero_input():
    cfg = small_config(L=1, h=2)
    params = random_params(cfg, seed=21)
    trace = network_forward(np.zeros((cfg.n, cfg.d)), params, cfg)
    assert np.max(np.abs(sa_param_jacobian(trace, 0).matrix)) == 0.0


@pytest.mark.parametrize("h", [1, 2])
def test_sa_param_jacobian_matches_fd_per_tensor(h):
    from skiplab.jacobian import assign_attention_params
    from skiplab.model import self_attention
    cfg = ModelConfig(L=1, n=4, d=8, h=h, attention_scale=1.3, use_mlp=False)
    params = random_params(small_config(L=1, n=4, d=8, h=h), seed=22, std=0.5)
    bp = params.blocks[0]
    x = np.random.default_rng(23).standard_normal((4, 8))
    trace = network_forward(x, NetworkParams([bp]), cfg)
    theta0 = flatten_attention_params(bp)

    def f(theta):
        saved = (bp.W_Q, bp.W_K, bp.W_V, bp.W_O)
        assign_attention_params(bp, theta, 8)
        try:
            out = self_attention(x, bp, cfg).out
        finally:
            bp.W_Q, bp.W_K, bp.W_V, bp.W_O = saved
        return vec(out)

    fd = finite_difference_jacobian(f, theta0)
    got = sa_param_jacobian(trace, 0).matrix
    d2 = 64
    for t, name in enumerate(("W_Q", "W_K", "W_V", "W_O")):
        cols = slice(t * d2, (t + 1) * d2)
        assert relative_frobenius(got[:, cols], fd[:, cols]) < 1e-6, name


# --- chain Jacobian ----------------------------------------------------------

def _fd_chain(trace, params, cfg, x0, layer):
    from skiplab.jacobian import assign_attention_params
    bp = params.blocks[layer]
    theta0 = flatten_attention_params(bp)

    def f(theta):
        saved = (bp.W_Q, bp.W_K, bp.W_V, bp.W_O)
        assign_attention_params(bp, theta, cfg.d)
        try:
            out = network_forward(x0, params, cfg).output
        finally:
            bp.W_Q, bp.W_K, bp.W_V, bp.W_O = saved
        return vec(out)

    return finite_difference_jacobian(f, theta0)


def test_chain_last_layer_reduces_to_local_term():
    cfg = small_config(L=2, use_skip=True)
    params = random_params(cfg, seed=24)
    x0 = np.random.default_rng(25).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    got = block_chain_jacobian(trace, 1).matrix
    local = sa_param_jacobian(trace, 1).matrix
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
    got = block_chain_jacobian(trace, 0).matrix
    expected = mlp_input_jacobian(trace, 0) @ sa_param_jacobian(trace, 0).matrix
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
        got = block_chain_jacobian(trace, layer).matrix
        fd = _fd_chain(trace, params, cfg, x0, layer)
        assert relative_frobenius(got, fd) < 1e-5, layer


def _forward_product_chain(trace, layer):
    """Dense oracle: layer ``layer``'s chain Jacobian as the forward product
    of every downstream stage factor, built from the input Jacobians."""
    cfg = trace.config
    eye = np.eye(cfg.n * cfg.d)
    skip = eye if cfg.use_skip else 0.0
    j = (mlp_input_jacobian(trace, layer) + skip) @ \
        sa_param_jacobian(trace, layer).matrix
    for i in range(layer + 1, cfg.L):
        j = (sa_input_jacobian(trace, i) + skip) @ j
        j = (mlp_input_jacobian(trace, i) + skip) @ j
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
        got = block_chain_jacobian(trace, layer).matrix
        assert relative_frobenius(got, _forward_product_chain(trace, layer)) < 1e-12


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
    got = block_chain_jacobian(trace, 0).matrix
    assert np.array_equal(got, sa_param_jacobian(trace, 0).matrix)


def test_chain_layer_out_of_range():
    cfg = small_config(L=2)
    params = random_params(cfg, seed=31)
    trace = network_forward(np.zeros((cfg.n, cfg.d)), params, cfg)
    with pytest.raises(IndexError):
        block_chain_jacobian(trace, 5)


# --- batch stacking ----------------------------------------------------------

def _batch_by_layer(traces):
    return {j.layer: j.matrix for j in batch_param_jacobian(traces)}


def test_batch_single_sample_equals_chain():
    cfg = small_config(L=2, use_skip=False)
    params = random_params(cfg, seed=32)
    x0 = np.random.default_rng(33).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    assert [j.layer for j in batch_param_jacobian([trace])] == [1, 0]
    batched = _batch_by_layer([trace])[0]
    assert np.array_equal(batched, block_chain_jacobian(trace, 0).matrix)


def test_batch_duplicated_sample_scales_singular_values():
    from skiplab.linalg import singular_values
    cfg = small_config(L=1, use_skip=True)
    params = random_params(cfg, seed=34)
    x0 = np.random.default_rng(35).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x0, params, cfg)
    j1 = _batch_by_layer([trace])[0]
    j2 = _batch_by_layer([trace, trace])[0]
    s1 = singular_values(j1)
    s2 = singular_values(j2)
    k = min(len(s1), len(s2))
    assert np.allclose(s2[:k], np.sqrt(2.0) * s1[:k], atol=1e-9)


def test_batch_rows_are_per_sample_jacobians():
    cfg = small_config(L=2, use_skip=True)
    params = random_params(cfg, seed=36)
    rng = np.random.default_rng(37)
    batch = [rng.standard_normal((cfg.n, cfg.d)) for _ in range(4)]
    traces = [network_forward(x0, params, cfg) for x0 in batch]
    j = _batch_by_layer(traces)[1]
    nd = cfg.n * cfg.d
    for i, trace in enumerate(traces):
        expected = block_chain_jacobian(trace, 1).matrix
        assert np.array_equal(j[i * nd:(i + 1) * nd, :], expected)


def test_batch_requires_samples():
    with pytest.raises(ValueError):
        next(batch_param_jacobian([]))


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
        got = block_chain_jacobian(trace, layer).matrix
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
