from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skiplab.analysis import (concat_bound, condition_profile_for_params,
                              gram_moments, layer_condition_profile,
                              perturbation_split, prop1_trial,
                              sample_low_coherence_pair,
                              softmax_derivative_beta_sweep)
from skiplab.init import InitSpec, init_network
from skiplab.jacobian import block_chain_jacobian, gauge_free_width
from skiplab.linalg import condition_number, kron, spectral_norm
from skiplab.model import ModelConfig, NetworkParams, network_forward, row_softmax
from conftest import traced_peak


# --- Prop. 1 softmax conditioning --------------------------------------------

def softmax_of_scaled_identity_kappa(n: int, beta: float, temperature: float = 1.0) -> float:
    """Closed-form kappa of row_softmax(beta*I, temperature).

    The output is (p - q) I + q 11^T with p = e^(beta/tau) / (e^(beta/tau)+n-1)
    and q = 1 / (e^(beta/tau)+n-1); its singular values are 1 (the row-sum
    direction) and p - q, so kappa = 1 / (p - q)."""
    e = float(np.exp(beta / temperature))
    p_minus_q = (e - 1.0) / (e + n - 1.0)
    return np.inf if p_minus_q == 0.0 else 1.0 / p_minus_q


def test_prop1_diagonal_dominant_anchor():
    kappas = [prop1_trial(10, 0.1, 5.0, 1.0, seed)["kappa"] for seed in range(100)]
    assert 1.0 <= np.median(kappas) <= 2.0


def test_prop1_diffuse_anchor():
    kappas = [prop1_trial(10, 0.1, 0.0, 1.0, seed)["kappa"] for seed in range(100)]
    assert np.median(kappas) >= 100.0


def test_prop1_closed_form_identity_logits():
    # alpha = 0: softmax of beta*I has an exact kappa.
    n, beta = 10, 3.0
    a = row_softmax(beta * np.eye(n), 1.0)
    expected = softmax_of_scaled_identity_kappa(n, beta)
    assert condition_number(a) == pytest.approx(expected, rel=1e-10)


def test_prop1_kappa_nonincreasing_in_beta():
    betas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    medians = []
    for beta in betas:
        medians.append(np.median([prop1_trial(10, 0.1, beta, 1.0, s)["kappa"]
                                  for s in range(100)]))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(medians, medians[1:]))


def test_prop1_trial_fields():
    t = prop1_trial(6, 0.5, 1.0, 2.0, seed=3)
    assert t["kappa"] >= 1.0
    assert t["delta"] >= 0.0
    rng = np.random.default_rng(3)
    m = 0.5 * rng.standard_normal((6, 6)) + np.eye(6)
    assert t["delta"] == pytest.approx(np.max(m.max(axis=1) - m.min(axis=1)))


def test_prop1_temperature_worsens_peaked_case():
    # Larger temperature flattens diagonally dominant logits toward uniform.
    k_cold = np.median([prop1_trial(10, 0.1, 5.0, 1.0, s)["kappa"] for s in range(50)])
    k_hot = np.median([prop1_trial(10, 0.1, 5.0, 25.0, s)["kappa"] for s in range(50)])
    assert k_hot > k_cold


# --- A.2.2 moments ------------------------------------------------------------

def test_gram_moments_closed_forms_small():
    e = gram_moments(n=4, d=16, alpha=2.0, beta=0.6, trials=20000, seed=0)
    d = 16
    assert e["mean_a_ii"] == pytest.approx(d, rel=0.02)
    assert e["var_a_ii"] == pytest.approx(2 * d, rel=0.08)
    assert e["var_a_ij"] == pytest.approx(d, rel=0.08)
    assert e["var_b_ii"] == pytest.approx(d + 2, rel=0.10)
    assert e["mean_c_ii"] == pytest.approx(0.6 * d, rel=0.03)
    assert e["mean_gamma"] == pytest.approx(0.6 * d, rel=0.03)


def test_gram_moments_scaled_a_when_alpha_zero():
    rep = gram_moments(n=4, d=16, alpha=0.0, beta=0.5, trials=20000, seed=1)
    assert rep["var_c_ij"] == pytest.approx(0.25 * 16, rel=0.08)


def test_gram_moments_b_offdiag_variance_is_d_not_one():
    """The exact off-diagonal variance of X Z X^T is d; the published ~1 is
    recorded alongside for comparison."""
    rep = gram_moments(n=4, d=64, alpha=2.0, beta=0.6, trials=20000, seed=2)
    assert rep["var_b_ij"] == pytest.approx(64.0, rel=0.10)
    assert rep["closed_var_b_ij"] == 1.0
    assert rep["closed_var_b_ij_exact"] == 64.0


def test_gram_moments_gamma_variance_matches_exact_form():
    d = 32
    rep = gram_moments(n=4, d=d, alpha=2.0, beta=0.6, trials=50000, seed=3)
    exact = rep["closed_var_gamma_exact"]
    assert rep["var_gamma"] == pytest.approx(exact, rel=0.10)


def test_gram_moments_validation():
    with pytest.raises(ValueError):
        gram_moments(1, 8, 1.0, 1.0, 100, 0)
    with pytest.raises(ValueError):
        gram_moments(4, 8, 1.0, 1.0, 0, 0)


# --- Prop. 2 split ------------------------------------------------------------

def _single_head_trace(n, d, scheme, seed, scale):
    cfg = ModelConfig(L=1, n=n, d=d, h=1, attention_scale=scale,
                      use_skip=False, use_mlp=False)
    params = init_network(cfg, InitSpec(scheme=scheme, seed=seed))
    x = np.random.default_rng(10_000 + seed).standard_normal((n, d))
    return network_forward(x, params, cfg), params, cfg


def test_perturbation_split_is_exact_decomposition():
    from skiplab.jacobian import sa_input_jacobian
    from skiplab.linalg import kron
    from skiplab.jacobian import attention_input_jacobian
    trace, params, cfg = _single_head_trace(8, 16, "proposed", 0, 4.0)
    bp = params.blocks[0]
    g = bp.W_V @ bp.W_O
    b = kron(g.T, trace.blocks[0].sa.attention[0])
    e = kron((trace.blocks[0].x_in @ g).T, np.eye(8)) @ \
        attention_input_jacobian(trace, 0, 0)
    k = sa_input_jacobian(trace, 0)
    assert np.linalg.norm(b + e - k) <= 1e-10 * np.linalg.norm(k)


def test_perturbation_split_saturated_attention():
    from skiplab.model import BlockParams
    cfg = ModelConfig(L=1, n=4, d=8, h=1, attention_scale=1.0,
                      use_skip=False, use_mlp=False)
    rng = np.random.default_rng(4)
    bp = BlockParams(W_Q=60.0 * np.eye(8), W_K=np.eye(8),
                     W_V=rng.standard_normal((8, 8)),
                     W_O=rng.standard_normal((8, 8)))
    x = np.linalg.qr(rng.standard_normal((8, 4)))[0].T
    trace = network_forward(x, NetworkParams([bp]), cfg)
    r = perturbation_split(trace, 0)
    assert r["e_norm"] < 1e-8
    assert r["kappa_K"] == pytest.approx(r["kappa_B"], rel=1e-6)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(h=st.sampled_from([1, 2]), n=st.integers(2, 6), d_h=st.integers(1, 4),
       seed=st.integers(0, 2**16))
@example(h=2, n=5, d_h=2, seed=0)  # hn = 10 > d = 4: R is d x hn
@example(h=1, n=3, d_h=6, seed=1)  # hn = 3 < d = 6: R is hn x hn
def test_property_qr_reduced_e_norm_matches_dense(h, n, d_h, seed):
    """||E||_2 from the QR-reduced (R kron I_n) A' equals the spectral norm
    of the dense E = sum_i ((X G_i)^T kron I_n) A'_i."""
    from skiplab.jacobian import attention_input_jacobian
    d = h * d_h
    cfg = ModelConfig(L=1, n=n, d=d, h=h, attention_scale=float(np.sqrt(d)),
                      use_skip=False, use_mlp=False)
    params = init_network(cfg, InitSpec(scheme="default", seed=seed))
    bp = params.blocks[0]
    x = np.random.default_rng(seed + 1).standard_normal((n, d))
    trace = network_forward(x, params, cfg)
    e = np.zeros((n * d, n * d))
    for i in range(h):
        blk = slice(i * d_h, (i + 1) * d_h)
        g = bp.W_V[:, blk] @ bp.W_O[blk, :]
        e += kron((x @ g).T, np.eye(n)) @ attention_input_jacobian(trace, 0, i)
    assert perturbation_split(trace, 0)["e_norm"] == pytest.approx(
        spectral_norm(e), rel=1e-10)


def test_perturbation_dominance_at_wide_width():
    """Prop. 2's mechanism: at (2, 0.6, 3) the perturbation drops below the
    dominant term's smallest singular value once the width carries the
    beta*d margin past the alpha*sqrt(d) noise (large-d regime)."""
    ratios = []
    for seed in range(3):
        trace, _, _ = _single_head_trace(4, 384, "proposed", seed, np.sqrt(384))
        ratios.append(perturbation_split(trace, 0)["dominance_ratio"])
    assert all(r < 1.0 for r in ratios), ratios


def test_perturbation_proposed_beats_default_paired():
    for seed in range(10):
        tp, _, _ = _single_head_trace(16, 32, "proposed", seed, np.sqrt(32))
        td, _, _ = _single_head_trace(16, 32, "default", seed, np.sqrt(32))
        kp = perturbation_split(tp, 0)["kappa_K"]
        kd = perturbation_split(td, 0)["kappa_K"]
        assert kp < kd


def test_perturbation_multihead_sums_to_full_jacobian():
    from skiplab.jacobian import sa_input_jacobian
    cfg = ModelConfig(L=1, n=6, d=16, h=2, attention_scale=2.0,
                      use_skip=False, use_mlp=False)
    params = init_network(cfg, InitSpec(scheme="proposed", seed=5))
    x = np.random.default_rng(6).standard_normal((6, 16))
    trace = network_forward(x, params, cfg)
    r = perturbation_split(trace, 0)  # head=None sums heads
    k = sa_input_jacobian(trace, 0)
    assert r["kappa_K"] == pytest.approx(condition_number(k), rel=1e-9)


# --- A.2.5 concatenation bound -------------------------------------------------

def test_concat_bound_orthonormal_orthogonal_blocks():
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((16, 8)))
    r = concat_bound(q[:, :4], q[:, 4:])
    assert r["rho"] < 1e-12
    assert r["hypothesis"]
    assert r["tau_bal"] == pytest.approx(1.0)
    assert r["bound"] == pytest.approx(1.0, abs=1e-9)
    assert r["actual"] == pytest.approx(1.0, abs=1e-9)


def test_concat_bound_degenerate_equal_blocks():
    a = np.random.default_rng(8).standard_normal((12, 4))
    r = concat_bound(a, a)
    assert not r["hypothesis"]
    assert np.isinf(r["bound"])
    assert np.isinf(r["actual"])  # duplicated columns are exactly dependent


def test_concat_bound_row_mismatch():
    with pytest.raises(ValueError):
        concat_bound(np.ones((3, 2)), np.ones((4, 2)))


def test_concat_bound_randomized_never_violated():
    rng = np.random.default_rng(9)
    for _ in range(300):
        a, b = sample_low_coherence_pair(32, 8, rng)
        r = concat_bound(a, b)
        assert r["hypothesis"]
        assert r["bound"] >= r["actual"]


def test_sample_low_coherence_pair_shape_guard():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        sample_low_coherence_pair(8, 8, rng)


# --- derivative-norm sweep -----------------------------------------------------

def test_beta_sweep_fixed_draw_and_length():
    norms = softmax_derivative_beta_sweep(6, 16, 2.0, [0.0, 2.0, 4.0], seed=11)
    assert len(norms) == 3
    assert norms[0] > norms[-1]


# --- layer profile --------------------------------------------------------------

def test_profile_emits_all_regimes_and_layers():
    cfg = ModelConfig(L=2, n=4, d=8, h=1, attention_scale=2.0, use_skip=False,
                      use_mlp=True, mlp_hidden=8)
    profiles = layer_condition_profile(cfg, InitSpec(seed=12), batch_size=1,
                                       seed=13, include_param_jacobian=False)
    assert list(profiles) == ["skip_default", "skipless_default", "skipless_proposed"]
    for profile in profiles.values():
        assert len(profile) == 2
        for metrics in profile:
            assert list(metrics) == ["kappa_K", "kappa_K_plus_I", "kappa_Khat"]


def test_profile_same_seed_is_deterministic():
    cfg = ModelConfig(L=1, n=4, d=8, h=1, use_mlp=True, mlp_hidden=8)
    a = layer_condition_profile(cfg, InitSpec(seed=14), 1, 15,
                                include_param_jacobian=False)
    b = layer_condition_profile(cfg, InitSpec(seed=14), 1, 15,
                                include_param_jacobian=False)
    assert a == b


def test_profile_sa_block_is_the_bottleneck_skipless_default():
    """Under default init without skips, the attention input Jacobian is far
    worse conditioned than the MLP one."""
    cfg = ModelConfig(L=1, n=8, d=16, h=1, attention_scale=4.0, use_skip=False,
                      use_mlp=True, mlp_hidden=32)
    ratios = []
    for seed in range(5):
        recs = layer_condition_profile(cfg, InitSpec(seed=seed), 1, 100 + seed,
                                       include_param_jacobian=False)
        for metrics in recs["skipless_default"]:
            ratios.append(metrics["kappa_K"] / metrics["kappa_Khat"])
    assert np.median(ratios) > 100.0


def test_profile_param_jacobian_proposed_below_default():
    """Where kappa(J) is informative (m*n*d <= 4d^2 - 2d^2/h; here 256 <= 512)
    the proposed init conditions the stacked parameter Jacobian strictly
    better than the default, per seed."""
    cfg = ModelConfig(L=1, n=8, d=16, h=1, attention_scale=4.0, use_skip=False,
                      use_mlp=True, mlp_hidden=32)
    for seed in range(10):
        recs = layer_condition_profile(cfg, InitSpec(seed=seed), 2, 200 + seed)
        by_regime = {regime: profile[0]["kappa_J"] for regime, profile in recs.items()}
        assert np.isfinite(by_regime["skipless_proposed"])
        assert by_regime["skipless_proposed"] < by_regime["skipless_default"]


def test_condition_profile_for_params_pure():
    cfg = ModelConfig(L=1, n=4, d=8, h=1, use_mlp=True, mlp_hidden=8)
    params = init_network(cfg, InitSpec(seed=16))
    snapshot = [b.W_Q.copy() for b in params.blocks]
    batch = np.random.default_rng(17).standard_normal((1, 4, 8))
    condition_profile_for_params(params, cfg, batch, include_param_jacobian=False)
    for before, block in zip(snapshot, params.blocks):
        assert np.array_equal(before, block.W_Q)


def test_profile_param_jacobian_builds_no_kron(monkeypatch):
    """kappa(J) applies each layer's parameter Jacobian through the vec
    identity: a profile with kappa(J) makes as many linalg.kron calls as one
    without it, all of them for K's own Kronecker terms."""
    import skiplab.jacobian
    import skiplab.linalg
    calls = []
    kron = skiplab.linalg.kron

    def counted_kron(a, b):
        calls.append(a.shape)
        return kron(a, b)

    monkeypatch.setattr(skiplab.linalg, "kron", counted_kron)
    monkeypatch.setattr(skiplab.jacobian, "kron", counted_kron)
    cfg = ModelConfig(L=2, n=3, d=4, h=2, attention_scale=1.0, use_skip=False,
                      mlp_hidden=4)
    params = init_network(cfg, InitSpec(scheme="proposed", seed=0))
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((2, 3, 4))
    assert len(batch) * cfg.n * cfg.d <= gauge_free_width(cfg)  # kappa(J) is computed
    counts = []
    for include in (True, False):
        calls.clear()
        profile = condition_profile_for_params(params, cfg, batch,
                                               include_param_jacobian=include)
        assert all(("kappa_J" in metrics) == include for metrics in profile)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_profile_param_jacobian_past_gauge_free_width_is_infinite(monkeypatch):
    """At n=8, d=8, h=1 and batch 3 the stack has 192 rows, fewer than the
    4d^2 = 256 parameters but more than the 2d^2 = 128 gauge-free columns:
    rank(J) <= 128, so every kappa_J is INFINITE, as the full J's SVD says,
    and none is computed by an SVD (3 singular_values calls per record, for
    K, K+I and K-hat)."""
    import skiplab.linalg
    shapes = []
    original = skiplab.linalg.singular_values

    def counted(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return original(m, *args, **kwargs)

    cfg = ModelConfig(L=2, n=8, d=8, h=1, attention_scale=4.0, mlp_hidden=16)
    spec = InitSpec(seed=5)
    monkeypatch.setattr(skiplab.linalg, "singular_values", counted)
    profiles = layer_condition_profile(cfg, spec, 3, 5)
    monkeypatch.undo()
    records = [metrics for profile in profiles.values() for metrics in profile]
    assert len(records) == 6
    assert all(metrics["kappa_J"] == np.inf for metrics in records)
    assert len(shapes) == 3 * len(records)
    assert all(cols <= cfg.n * cfg.d for _, cols in shapes)
    # The full J of each regime, from layer_condition_profile's batch and weights.
    rng = np.random.default_rng(5)
    batch = [rng.standard_normal((cfg.n, cfg.d)) for _ in range(3)]
    for use_skip, scheme in ((True, "default"), (False, "default"), (False, "proposed")):
        c = replace(cfg, use_skip=use_skip)
        params = init_network(c, replace(spec, scheme=scheme))
        traces = [network_forward(x, params, c) for x in batch]
        for layer in range(cfg.L):
            j = np.vstack([block_chain_jacobian(t, layer) for t in traces])
            assert j.shape == (192, 256)
            assert condition_number(j) == np.inf, (use_skip, scheme, layer)


@pytest.mark.parametrize("include_param_jacobian", [False, True])
def test_profile_draws_only_traced_samples(include_param_jacobian):
    """With kappa(J) off, or INFINITE by structure (batch * nd past the
    gauge-free width), only the first sample is traced.  Only it is drawn
    with kappa(J) off, and with it only gauge-free width // nd + 1 = 5
    samples: a 20000-sample batch, 20 MB of draws, keeps the traced peak
    under a tenth of that, and the metrics are those of a 5-sample batch."""
    cfg = ModelConfig(L=1, n=8, d=16, h=1, attention_scale=4.0, use_skip=False,
                      mlp_hidden=16)
    spec, big = InitSpec(seed=3), 20_000
    assert 5 * cfg.n * cfg.d > gauge_free_width(cfg)

    def profile(batch_size):
        return layer_condition_profile(cfg, spec, batch_size, 4, include_param_jacobian)

    assert traced_peak(lambda: profile(big)) < big * cfg.n * cfg.d * 8 / 10
    assert profile(big) == profile(5)


@pytest.mark.parametrize("use_skip", [True, False])
@pytest.mark.parametrize("n, d, h, batch_size", [(4, 4, 1, 2), (3, 4, 2, 4), (2, 4, 4, 7)])
def test_profile_kappa_j_matches_full_j_at_gauge_free_width(n, d, h, batch_size, use_skip):
    """With exactly 4d^2 - 2d^2/h rows, kappa_J from the square gauge-free
    stack has the full J's verdict, and its value up to rounding: sigma_min
    moves by O(eps sigma_max), so kappa by O(eps kappa) relative."""
    from test_model import random_params
    cfg = ModelConfig(L=2, n=n, d=d, h=h, attention_scale=1.0, mlp_hidden=2 * d,
                      use_skip=use_skip)
    params = random_params(cfg, seed=8, std=0.5)
    rng = np.random.default_rng(9)
    batch = rng.standard_normal((batch_size, n, d))
    traces = [network_forward(x, params, cfg) for x in batch]
    for layer, metrics in enumerate(condition_profile_for_params(params, cfg, batch)):
        j = np.vstack([block_chain_jacobian(t, layer) for t in traces])
        assert j.shape[0] == 4 * d * d - 2 * d * d // h
        want, got = condition_number(j), metrics["kappa_J"]
        assert np.isinf(got) == np.isinf(want)
        if np.isfinite(want):
            assert abs(got - want) <= 1e-13 * want * want
