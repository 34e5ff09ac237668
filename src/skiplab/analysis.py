"""Proposition checks and simulation experiments.

Covers the four analytical claims the initialization rests on:

* softmax conditioning — diffuse logits give a near-uniform, ill-conditioned
  attention matrix; diagonally dominant logits give a near-identity,
  well-conditioned one (``prop1_trial``);
* entry moments of the Gram matrix X X^T, the mixed form X Z X^T and their
  combination C = alpha*XZX^T + beta*XX^T, against the closed forms
  (``gram_moments``);
* the dominant/perturbation split K = B + E of the attention input Jacobian,
  with B = (W_V W_O)^T kron A (``perturbation_split``);
* the concatenation bound kappa([A B]) <= tau * sqrt(...) * kappa_max under
  the mutual-coherence hypothesis rho < s_min^2 (``concat_bound``);

plus per-layer conditioning profiles across the skip/skipless/init regimes.

Results are measurements only: each check returns a dict of metrics keyed by
the report's own column names, in report order, and a profile returns one
such dict per layer.  ``cli`` adds the input echo and builds the report rows.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .init import InitSpec, init_network
from .jacobian import (add_dominant_term, attention_input_jacobian, batch_param_jacobian,
                       gauge_free_width, mlp_token_blocks, sa_input_jacobian, sa_split)
from . import linalg
from .linalg import (check_budget, check_square, condition_from_singular_values,
                     condition_number, kron_eye_apply, singular_values, spectral_norm)
from .model import ModelConfig, network_forward, row_softmax

MOMENT_CHUNK = 2000  # most gram_moments trials drawn per vectorized batch
COHERENCE_TRIES = 64  # sample_low_coherence_pair draws before giving up


def prop1_trial(n: int, alpha: float, beta: float, temperature: float,
                seed: int) -> dict[str, float]:
    """Condition a softmax of M = alpha*G + beta*I (G standard Gaussian).

    Measures ``kappa`` = kappa(row_softmax(M, temperature)), ``delta``, the
    largest row range of M, and ``gamma``, the smallest
    diagonal-minus-max-off-diagonal margin of M.
    """
    if n < 2:
        raise ValueError("prop1_trial needs n >= 2")
    check_budget(n, n)
    rng = np.random.default_rng(seed)
    m = alpha * rng.standard_normal((n, n)) + beta * np.eye(n)
    a = row_softmax(m, temperature)
    off = m + np.diag(np.full(n, -np.inf))
    return {"kappa": condition_number(a),
            "delta": float(np.max(m.max(axis=1) - m.min(axis=1))),
            "gamma": float(np.min(np.diagonal(m) - off.max(axis=1)))}


def gram_moments(n: int, d: int, alpha: float, beta: float, trials: int,
                 seed: int) -> dict[str, float]:
    """Monte-Carlo entry moments of A = XX^T, B = XZX^T, C = alpha*B + beta*A.

    X has i.i.d. standard-normal rows; Z_ij ~ N(0, 1/d).  The margin gamma is
    C_ii - C_ij pooled over all ordered pairs i != j.  The empirical moments
    come first, then the closed forms from the moment analysis under
    ``closed_*`` keys; where the published form differs from the exact one,
    the exact value is recorded too, under ``*_exact``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise ValueError("need n >= 2 for off-diagonal moments")
    # The margin variance sums trials*n*(n-1) squares of about
    # alpha^2 (2d + 2) + beta^2 3d, its closed form.
    for key, value, weight in (("alpha", alpha, 2 * d + 2), ("beta", beta, 3 * d)):
        check_square(key, value, trials * n * (n - 1) * weight)
    width = max(n, d)
    check_budget(trials, n * n)  # every trial's pooled entries
    check_budget(width, width)  # one trial's draws
    chunk = min(MOMENT_CHUNK, linalg.MAX_ELEMENTS // width**2)
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=bool)
    chunks = []
    for start in range(0, trials, chunk):
        t = min(chunk, trials - start)
        x = rng.standard_normal((t, n, d))
        z = rng.standard_normal((t, d, d)) / np.sqrt(d)
        xt = x.transpose(0, 2, 1)
        a = x @ xt
        b = x @ z @ xt
        c = alpha * b + beta * a
        # (t, k) entries per kind: diagonal, off-diagonal, margin C_ii - C_ij.
        entries = {f"{name}_{kind}": m[:, mask] for name, m in zip("abc", (a, b, c))
                   for kind, mask in (("ii", eye), ("ij", ~eye))}
        entries["gamma"] = (entries["c_ii"][:, :, None] - c)[:, ~eye]
        chunks.append(entries)

    empirical = {}
    for key in chunks[0]:
        v = np.concatenate([e[key].ravel() for e in chunks])
        empirical[f"mean_{key}"] = float(v.mean())
        empirical[f"var_{key}"] = float(v.var())
    empirical["count_diag"] = trials * n
    empirical["count_off"] = trials * n * (n - 1)
    # Entries within one trial are correlated, so the standard error of the
    # margin mean comes from the independent per-trial means.
    per_trial = np.concatenate([e["gamma"].mean(axis=1) for e in chunks])
    empirical["se_mean_gamma"] = float(per_trial.std(ddof=1) / np.sqrt(trials))

    closed = {
        "mean_a_ii": float(d),
        "var_a_ii": 2.0 * d,
        "mean_a_ij": 0.0,
        "var_a_ij": float(d),
        "mean_b_ii": 0.0,
        "var_b_ii": d + 2.0,
        # As published the off-diagonal variance of XZX^T is ~1; the exact
        # value for Z_ij ~ N(0, 1/d) is d.  Both are recorded.
        "var_b_ij": 1.0,
        "var_b_ij_exact": float(d),
        "mean_c_ii": beta * d,
        "var_c_ii": alpha**2 * (d + 2.0) + beta**2 * 2.0 * d,
        "var_c_ij": alpha**2 + beta**2 * d,
        "var_c_ij_exact": alpha**2 * d + beta**2 * d,
        "mean_gamma": beta * d,
        # Published gamma variance vs the sum of the exact entry variances.
        "var_gamma": alpha**2 * (d + 3.0) + beta**2 * 3.0 * d,
        "var_gamma_exact": alpha**2 * (2.0 * d + 2.0) + beta**2 * 3.0 * d,
    }
    return empirical | {f"closed_{k}": v for k, v in closed.items()}


def perturbation_split(trace, layer: int) -> dict[str, float]:
    """Split the attention input Jacobian K into dominant + perturbation terms.

    B = (W_V W_O)^T kron A (well-conditioned whenever both factors are) and
    E = ((X W_V W_O)^T kron I_n) A'; B + E reproduces K exactly.  Multi-head
    traces sum the per-head terms, E = (M kron I_n) A' (see ``sa_split``).
    With the reduced QR M = QR, Q kron I_n has orthonormal columns, so
    ||E||_2 = ||(R kron I_n) A'||_2 needs only a (min(d, hn) n) x nd SVD.
    sigma(B) comes first; B is then added into E in place, not held beside it.
    """
    g, m, a_prime = sa_split(trace, layer)
    attention = trace.blocks[layer].sa.attention
    s_b = singular_values(add_dominant_term(np.zeros((a_prime.shape[1],) * 2), g, attention))
    b_max, b_min = float(s_b[0]), float(s_b[-1])
    e_norm = spectral_norm(kron_eye_apply(np.linalg.qr(m, mode="r"), a_prime))
    return {"e_norm": e_norm, "b_sigma_min": b_min, "b_sigma_max": b_max,
            "kappa_B": condition_from_singular_values(s_b),
            "kappa_K": condition_number(add_dominant_term(kron_eye_apply(m, a_prime), g, attention)),
            "dominance_ratio": e_norm / max(b_min, 1e-300)}


def concat_bound(a: np.ndarray, b: np.ndarray) -> dict[str, float]:
    """Evaluate the column-concatenation conditioning bound for [A B].

    rho = ||A^T B||_2 measures block alignment; tau_bal the spectral-norm
    balance.  The bound tau_bal * sqrt((1 + rho/s_max^2)/(1 - rho/s_min^2))
    * kappa_max is only claimed when rho < s_min^2 (``hypothesis``); outside
    that hypothesis it is reported as inf and nothing is asserted.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError("blocks must share a row count")
    sa = singular_values(a)
    sb = singular_values(b)
    s_max = float(max(sa[0], sb[0]))
    s_min = float(min(sa[-1], sb[-1]))
    rho = spectral_norm(a.T @ b)
    tau_bal = float(max(sa[0], sb[0]) / min(sa[0], sb[0]))
    kappa_max = max(condition_from_singular_values(sa), condition_from_singular_values(sb))
    satisfied = bool(rho < s_min**2)
    if satisfied and np.isfinite(kappa_max):
        bound = tau_bal * np.sqrt((1.0 + rho / s_max**2) / (1.0 - rho / s_min**2)) * kappa_max
    else:
        bound = float("inf")
    return {"rho": rho, "tau_bal": tau_bal, "s_max": s_max, "s_min": s_min,
            "kappa_max": kappa_max, "bound": float(bound),
            "actual": condition_number(np.hstack([a, b])), "hypothesis": satisfied}


def sample_low_coherence_pair(rows: int, cols: int,
                              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random pair of blocks satisfying the bound's hypothesis rho < s_min^2.

    Independent Gaussian blocks essentially never satisfy it (their mutual
    coherence is of order sqrt(rows) * cols), so the pair is built from
    Gaussian material on nearly orthogonal column spaces: disjoint slices of
    one orthonormal basis, each mixed by a well-conditioned Gaussian
    perturbation of the identity, plus a small random cross-space coupling.
    Draws that still violate the hypothesis are rejected.
    """
    if rows < 2 * cols:
        raise ValueError("need rows >= 2*cols for a full-rank concatenation")
    for _ in range(COHERENCE_TRIES):
        q, _ = np.linalg.qr(rng.standard_normal((rows, 2 * cols)))
        mix_a, mix_b = (np.eye(cols) + 0.3 * rng.standard_normal((cols, cols)) / np.sqrt(cols)
                        for _ in "ab")
        scale_a, scale_b = rng.uniform(0.6, 1.5, 2)
        a = scale_a * (q[:, :cols] @ mix_a)
        coupling = rng.uniform(0.0, 0.05) * rng.standard_normal((cols, cols)) / np.sqrt(cols)
        b = scale_b * (q[:, cols:] @ mix_b + q[:, :cols] @ coupling)
        s_min = min(singular_values(a)[-1], singular_values(b)[-1])
        if spectral_norm(a.T @ b) < s_min**2:
            return a, b
    raise RuntimeError("failed to sample a hypothesis-satisfying pair")


def softmax_derivative_beta_sweep(n: int, d: int, alpha: float,
                                  betas: list[float], seed: int,
                                  temperature: float = 1.0) -> list[float]:
    """||d vec(A)/d vec(X)||_2 across beta, at fixed X and Z.

    Builds P = alpha*Z + beta*I directly (the mimetic product, not its
    factors) and measures the spectral norm of the attention derivative;
    the claimed decay is O(alpha * e^(-beta))."""
    check_budget(max(n, d), d)  # X and Z
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    z = rng.standard_normal((d, d)) / np.sqrt(d)
    norms = []
    for beta in betas:
        p = alpha * z + beta * np.eye(d)
        a = row_softmax(x @ p @ x.T, temperature)
        norms.append(spectral_norm(attention_input_jacobian(a, x, p, temperature)))
    return norms


# regime -> (use_skip, init scheme)
REGIMES = {"skip_default": (True, "default"), "skipless_default": (False, "default"),
           "skipless_proposed": (False, "proposed")}


def condition_profile_for_params(params, config: ModelConfig, batch: np.ndarray,
                                 include_param_jacobian: bool = True) -> list[dict]:
    """Per-layer kappa(K), kappa(K+I), kappa(K-hat) of the first sample's trace
    and optionally kappa(J) of the whole (m, n, d) batch, for one fixed
    parameter set: one metrics dict per layer.  kappa(J) of every layer comes
    from one forward and one backward sweep over the batch, which builds no K,
    so each K is built once, for the dense nd x nd SVDs of kappa(K) and
    kappa(K+I).  kappa(K-hat) comes from its n per-token d x d blocks.

    Pure measurement: neither params nor batch are modified.  Note kappa(J)
    is informative only while m*n*d <= 4d^2 - 2d^2/h: the query/key and
    value/output products are gauge-invariant, so J has 2d^2/h exact null
    directions, and a stack with more rows than the remaining columns is
    rank deficient by structure.  It is reported INFINITE without a
    backward or an SVD; an SVD of the tall gauge-free stack would return a
    finite kappa.
    """
    kappa_j = dict.fromkeys(range(config.L), float("inf"))
    if include_param_jacobian and len(batch) * config.n * config.d <= gauge_free_width(config):
        kappa_j = {layer: condition_number(c) for layer, c in
                   batch_param_jacobian(network_forward(batch, params, config))}
    trace = network_forward(batch[0], params, config)
    profile = []
    for layer in range(config.L):
        k = sa_input_jacobian(trace, layer)
        metrics = {"kappa_K": condition_number(k)}
        k[np.diag_indices_from(k)] += 1.0
        metrics["kappa_K_plus_I"] = condition_number(k)
        metrics["kappa_Khat"] = condition_number(mlp_token_blocks(trace, layer))
        if include_param_jacobian:
            metrics["kappa_J"] = kappa_j[layer]
        profile.append(metrics)
    return profile


def layer_condition_profile(config: ModelConfig, spec: InitSpec,
                            batch_size: int, seed: int,
                            include_param_jacobian: bool = True,
                            ) -> dict[str, list[dict]]:
    """Per-layer conditioning under skip+default / skipless+default /
    skipless+proposed: each regime's ``condition_profile_for_params``.

    All regimes see the same Gaussian input batch and master init seed; the
    default regimes share one weight set, as the init ignores skips.  kappa(J_l)
    routes through the regime's own chain factors: with skips each factor
    carries the +I of the identity path.

    Only the first rows of one (batch_size, n, d) standard-normal draw from
    ``seed`` are drawn: one without kappa(J), and with it at most
    gauge_free_width // nd + 1, enough to make kappa(J) INFINITE by structure.
    That batch and a sample's (h*n, n) attention are checked against the
    element budget before the weights are built and the batch is drawn.
    """
    draws = (min(batch_size, gauge_free_width(config) // (config.n * config.d) + 1)
             if include_param_jacobian else 1)
    check_budget(draws * config.n, config.d)
    check_budget(config.h * config.n, config.n)
    weights = {s: init_network(config, replace(spec, scheme=s)) for s in ("default", "proposed")}
    batch = np.random.default_rng(seed).standard_normal((draws, config.n, config.d))
    return {regime: condition_profile_for_params(
                weights[scheme], replace(config, use_skip=use_skip), batch, include_param_jacobian)
            for regime, (use_skip, scheme) in REGIMES.items()}
