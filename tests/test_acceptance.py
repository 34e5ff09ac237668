"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 5 and 7 are split
into sub-tests because one part of each is not measured the way the rest of
the criterion is: the off-diagonal variance of X Z X^T is checked against its
exact value d rather than the published ~1, and the Prop-2 dominance ratio is
measured at width 384 rather than at the width-32 fixture of C7a/C7c.  The
docstrings of test_c5_moment_suite_b_offdiagonal and test_c7b_dominance_ratio
derive both.
"""

import time

import numpy as np
import pytest

from skiplab.analysis import (concat_bound, gram_moments, perturbation_split,
                              prop1_trial, sample_low_coherence_pair,
                              softmax_derivative_beta_sweep)
from skiplab.harness import TrainConfig, synth_task, train
from skiplab.init import InitSpec, init_network, mimetic_qk, orthonormal_vo
from skiplab.jacobian import fd_check_instance, sa_input_jacobian
from skiplab.linalg import condition_number, kron, singular_values
from skiplab.model import ModelConfig, NetworkParams, network_forward


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --- Criterion 1: softmax conditioning anchors --------------------------------

def test_c1_prop1_replication():
    start = time.monotonic()
    peaked = np.median([prop1_trial(10, 0.1, 5.0, 1.0, s)["kappa"]
                        for s in range(100)])
    diffuse = np.median([prop1_trial(10, 0.1, 0.0, 1.0, s)["kappa"]
                         for s in range(100)])
    elapsed = time.monotonic() - start
    ok = 1.0 <= peaked <= 2.0 and diffuse >= 100.0 and elapsed < 1.0
    assert _report("C1 prop1", ok,
                   f"median kappa beta=5: {peaked:.3f} (want [1,2]), "
                   f"beta=0: {diffuse:.1f} (want >=100), {elapsed:.2f}s")


# --- Criterion 2: Jacobian oracle suite ----------------------------------------

def test_c2_jacobian_fd_suite():
    start = time.monotonic()
    shapes = [(4, 8, 1), (6, 8, 2), (8, 16, 2), (5, 12, 1), (4, 16, 2)]
    worst: dict[str, float] = {}
    instances = 0
    for k in range(20):
        n, d, h = shapes[k % len(shapes)]
        errs = fd_check_instance(n=n, d=d, h=h, layers=3, seed=1000 + k, scale=1.0)
        instances += 1
        for key, val in errs.items():
            worst[key] = max(worst.get(key, 0.0), val)
    elapsed = time.monotonic() - start
    ok = instances >= 20 and all(v < 1e-5 for v in worst.values()) and elapsed < 120
    detail = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    assert _report("C2 jacobian-FD", ok, f"{instances} instances, worst: {detail}, "
                                         f"{elapsed:.0f}s")


# --- Criterion 3: initialization exactness --------------------------------------

def test_c3_initialization_exactness():
    start = time.monotonic()
    d, c = 64, 3.0
    kappa_errs, sv_errs, recon_errs = [], [], []
    for seed in range(10):
        w_v, w_o = orthonormal_vo(d, c, seed)
        kappa_errs.append(abs(condition_number(w_v @ w_o) - 1.0))
        sv_errs.append(np.max(np.abs(singular_values(w_v @ w_o) - c * c)))
        w_q, w_k = mimetic_qk(d, d, 2.0, 0.6, seed)
        rng = np.random.default_rng(seed)
        target = 2.0 * rng.standard_normal((d, d)) / np.sqrt(d) + 0.6 * np.eye(d)
        recon_errs.append(np.linalg.norm(w_q @ w_k.T - target)
                          / np.linalg.norm(target))
    elapsed = time.monotonic() - start
    ok = (max(kappa_errs) <= 1e-10 and max(sv_errs) <= 1e-9
          and max(recon_errs) <= 1e-10 and elapsed < 5.0)
    assert _report("C3 init exactness", ok,
                   f"kappa err {max(kappa_errs):.1e} (<=1e-10), sv err "
                   f"{max(sv_errs):.1e} (<=1e-9), recon {max(recon_errs):.1e} "
                   f"(<=1e-10), {elapsed:.1f}s")


# --- Criterion 4: Kronecker spectral law ----------------------------------------

def test_c4_kronecker_condition_law():
    start = time.monotonic()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal((8, 8))
        a = rng.standard_normal((6, 6))
        expected = condition_number(p) * condition_number(a)
        got = condition_number(kron(p.T, a))
        worst = max(worst, abs(got - expected) / expected)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    assert _report("C4 kron law", ok,
                   f"worst relative deviation {worst:.1e} (<1e-8) over 50 pairs, "
                   f"{elapsed:.1f}s")


# --- Criterion 5: moment suite ---------------------------------------------------

@pytest.fixture(scope="module")
def moment_report():
    start = time.monotonic()
    rep = gram_moments(n=4, d=64, alpha=2.0, beta=0.6, trials=100_000, seed=0)
    rep["elapsed"] = time.monotonic() - start
    return rep


def test_c5_moment_suite_gram_and_gamma(moment_report):
    e = moment_report
    d = 64.0
    se_gamma = e["se_mean_gamma"]
    checks = {
        "E[A_ii]=64+-1%": abs(e["mean_a_ii"] - d) <= 0.01 * d,
        "Var(A_ii)=128+-5%": abs(e["var_a_ii"] - 2 * d) <= 0.05 * 2 * d,
        "Var(A_ij)=64+-5%": abs(e["var_a_ij"] - d) <= 0.05 * d,
        "Var(B_ii)=66+-10%": abs(e["var_b_ii"] - (d + 2)) <= 0.10 * (d + 2),
        "E[gamma]=38.4+-3se": abs(e["mean_gamma"] - 0.6 * d) <= 3 * se_gamma,
        "runtime<30s": e["elapsed"] < 30.0,
    }
    ok = all(checks.values())
    assert _report("C5 moments (A, B_ii, gamma)", ok,
                   "; ".join(f"{k}: {'ok' if v else 'FAIL'}"
                             for k, v in checks.items()))


def test_c5_moment_suite_b_offdiagonal(moment_report):
    """Var(B_ij) within 10% of its exact value d, i.e. Var(B_ij)/d = 1 +- 0.1.

    For i != j, x_i, x_j and Z are independent with zero mean, so
    Var(x_i^T Z x_j) = sum_kl E[Z_kl^2] E[x_ik^2] E[x_jl^2] = d^2 * (1/d) = d.
    The same sum gives Var(B_ii) = d + 2, asserted in the sibling test.  The
    published ~1 is recorded as closed_var_b_ij and printed only."""
    e = moment_report
    exact = e["closed_var_b_ij_exact"]
    ok = abs(e["var_b_ij"] - exact) <= 0.10 * exact
    _report("C5 moments (B_ij)", ok,
            f"measured Var(B_ij) = {e['var_b_ij']:.2f}, exact d = {exact:.0f} "
            f"(+-10%), published {e['closed_var_b_ij']:.0f}")
    assert ok


# --- Criterion 6: concatenation bound --------------------------------------------

def test_c6_concat_bound_never_violated():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    satisfied = violations = 0
    while satisfied < 1000:
        a, b = sample_low_coherence_pair(32, 8, rng)
        r = concat_bound(a, b)
        if r["hypothesis"]:
            satisfied += 1
            if r["bound"] < r["actual"]:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 30.0
    assert _report("C6 concat bound", ok,
                   f"{violations} violations in {satisfied} hypothesis-"
                   f"satisfying pairs, {elapsed:.1f}s")


# --- Criterion 7: conditioning improvement at n=16, d=32; dominance at d=384 -----

N7, D7, L7 = 16, 32, 3
TAU7 = float(np.sqrt(32.0))  # single head: d_h = d


@pytest.fixture(scope="module")
def paired_kappas():
    """kappa(K_l) and kappa(K_l + I) per (seed, scheme, layer), each layer
    evaluated at its own Gaussian input (unit-scale tokens, the regime the
    initialization analysis assumes), standard sqrt(d_h) temperature."""
    start = time.monotonic()
    out = {}
    cfg1 = ModelConfig(L=1, n=N7, d=D7, h=1, attention_scale=TAU7,
                       use_skip=False, use_mlp=False)
    cfgL = ModelConfig(L=L7, n=N7, d=D7, h=1, attention_scale=TAU7,
                       use_skip=False, use_mlp=False)
    eye = np.eye(N7 * D7)
    for seed in range(10):
        rng = np.random.default_rng(5000 + seed)
        inputs = [rng.standard_normal((N7, D7)) for _ in range(L7)]
        for scheme in ("default", "proposed"):
            net = init_network(cfgL, InitSpec(scheme=scheme, seed=seed))
            for layer in range(L7):
                trace = network_forward(inputs[layer],
                                        NetworkParams([net.blocks[layer]]), cfg1)
                k = sa_input_jacobian(trace, 0)
                out[(seed, scheme, layer)] = (
                    condition_number(k),
                    condition_number(k + eye),
                    trace,
                )
    out["elapsed"] = time.monotonic() - start
    return out


def test_c7a_proposed_strictly_better_conditioned(paired_kappas):
    ok = True
    ratios = []
    for seed in range(10):
        for layer in range(L7):
            kp = paired_kappas[(seed, "proposed", layer)][0]
            kd = paired_kappas[(seed, "default", layer)][0]
            ratios.append(kd / kp)
            ok &= kp < kd
    ok &= paired_kappas["elapsed"] < 300.0
    assert _report("C7a proposed < default", ok,
                   f"all {10 * L7} layer/seed pairs strict, median improvement "
                   f"x{np.median(ratios):.0f}, {paired_kappas['elapsed']:.0f}s")


N7B, D7B = 4, 384


def test_c7b_dominance_ratio(paired_kappas):
    """||E||_2 / sigma_min(B) < 1 under the proposed init in at least 9/10
    seeds, measured at n = 4, d = 384 (the ViT-S width) with tau = sqrt(d).

    The split needs diagonal-dominant attention, so that A is near I.  The
    logit margin gamma = C_ii - C_ij has mean beta*d and standard deviation
    sqrt(alpha^2 (2d + 2) + 3 beta^2 d) (closed_var_gamma_exact).  At
    d = 32 that is 19.2 against 17.3: about 13% of pairs invert, and with 15
    competitors per row 6-11 of the 16 rows take their argmax off the
    diagonal in every seed.  A is then far from I, sigma_min(B) =
    c^2 sigma_min(A) is small, and no seed falls below 1 at any tau in
    {0.5, 1, 2, sqrt(32), 20}.
    At d = 384 the margin is 230 against 59, 3.9 standard deviations.  The
    width-32 median ratio from the C7 fixture is printed for reference only.
    """
    # Seeded as the C7 fixture seeds layer 0.  An L=1 network has the same
    # layer-0 block as the fixture's L=3 one: SeedSequence children do not
    # depend on how many are spawned.
    cfg = ModelConfig(L=1, n=N7B, d=D7B, h=1, attention_scale=float(np.sqrt(D7B)),
                      use_skip=False, use_mlp=False)
    ratios, narrow = [], []
    for seed in range(10):
        x = np.random.default_rng(5000 + seed).standard_normal((N7B, D7B))
        net = init_network(cfg, InitSpec(scheme="proposed", seed=seed))
        wide = perturbation_split(network_forward(x, net, cfg), 0)
        ratios.append(wide["dominance_ratio"])
        trace32 = paired_kappas[(seed, "proposed", 0)][2]
        narrow.append(perturbation_split(trace32, 0)["dominance_ratio"])
    below = sum(r < 1.0 for r in ratios)
    ok = below >= 9
    _report("C7b dominance ratio", ok,
            f"{below}/10 seeds below 1 at d={D7B} (want >=9), median ratio "
            f"{np.median(ratios):.2f}; d={D7} median {np.median(narrow):.0f} "
            f"(reference)")
    assert ok


def test_c7c_skip_shift_improves_conditioning(paired_kappas):
    ok = True
    for seed in range(10):
        for layer in range(L7):
            kappa_k, kappa_k_plus_i, _ = paired_kappas[(seed, "default", layer)]
            ok &= kappa_k_plus_i < kappa_k
    assert _report("C7c kappa(K+I) < kappa(K)", ok,
                   f"holds on all {10 * L7} default-init layer/seed pairs")


# --- Criterion 8: derivative-norm decay in beta -----------------------------------

def test_c8_attention_derivative_beta_trend():
    start = time.monotonic()
    betas = [0.0, 1.0, 2.0, 4.0, 8.0]
    norms = np.array([softmax_derivative_beta_sweep(10, 32, 2.0, betas, seed)
                      for seed in range(20)])
    med = np.median(norms, axis=0)
    elapsed = time.monotonic() - start
    ok = all(med[i + 1] < med[i] for i in range(len(betas) - 1)) and elapsed < 30
    assert _report("C8 beta decay", ok,
                   "medians " + " > ".join(f"{v:.2e}" for v in med)
                   + f", {elapsed:.1f}s")


# --- Criterion 9: trainability ------------------------------------------------------

def test_c9_skipless_trainability():
    start = time.monotonic()

    def run(seed, use_skip, scheme):
        mc = ModelConfig(L=6, n=8, d=64, h=1, attention_scale=8.0,
                         use_skip=use_skip, use_mlp=True, mlp_hidden=128,
                         activation="gelu")
        ds = synth_task(8, 64, 10, 256, 0.1, seed=9000 + seed)
        cfg = TrainConfig(model=mc, init=InitSpec(scheme=scheme, seed=seed),
                          optimizer="adam_decoupled", lr=1e-3, steps=2000,
                          batch_size=8, seed=seed)
        return train(ds, cfg)

    def tail(log, k=50):
        return float(np.mean(log.losses[-k:]))

    wins = 0
    proposed_nonfinite = 0
    skip_divergences = 0
    for seed in range(10):
        log_p = run(seed, False, "proposed")
        log_d = run(seed, False, "default")
        log_s = run(seed, True, "default")
        wins += tail(log_p) < tail(log_d)
        proposed_nonfinite += int(log_p.diverged
                                  or not np.all(np.isfinite(log_p.losses)))
        skip_divergences += int(log_s.diverged)
    elapsed = time.monotonic() - start
    ok = (wins >= 9 and proposed_nonfinite == 0 and skip_divergences == 0
          and elapsed < 900.0)
    assert _report("C9 trainability", ok,
                   f"proposed beats default on {wins}/10 paired seeds, "
                   f"{proposed_nonfinite} non-finite proposed runs, "
                   f"{skip_divergences} skip divergences, {elapsed:.0f}s")


# --- Criterion 10: CLI determinism ----------------------------------------------------

def test_c10_cli_byte_identical_reruns(tmp_path):
    from skiplab.cli import main
    start = time.monotonic()
    invocations = {
        "prop1": ["--n", "8", "--trials", "10"],
        "moments": ["--n", "2", "--d", "16", "--trials", "1000"],
        "jacobian-check": ["--n", "4", "--d", "6", "--heads", "2",
                           "--layers", "2", "--seeds", "2"],
        "ksplit": ["--n", "8", "--d", "16", "--trials", "2"],
        "concat-bound": ["--trials", "20"],
        "beta-sweep": ["--n", "6", "--d", "16", "--trials", "3",
                       "--betas", "0,2,8"],
        "profile": ["--n", "6", "--d", "8", "--layers", "1",
                    "--mlp-hidden", "16", "--batch-size", "2"],
        "train": ["--n", "4", "--d", "16", "--layers", "2", "--mlp-hidden",
                  "16", "--samples", "32", "--steps", "25",
                  "--batch-size", "8", "--kappa-probe-every", "10"],
        "init-report": ["--d", "32", "--trials", "3"],
    }
    identical = 0
    for fmt in ("csv", "records"):
        for command, extra in invocations.items():
            a = tmp_path / f"{command}-{fmt}-a.out"
            b = tmp_path / f"{command}-{fmt}-b.out"
            base = [command, *extra, "--seed", "11", "--format", fmt]
            assert main(base + ["--out", str(a)]) == 0, command
            assert main(base + ["--out", str(b)]) == 0, command
            identical += a.read_bytes() == b.read_bytes()
    elapsed = time.monotonic() - start
    ok = identical == 2 * len(invocations)
    assert _report("C10 determinism", ok,
                   f"{identical}/{2 * len(invocations)} command reruns "
                   f"byte-identical, {elapsed:.0f}s")
