"""Analytic Jacobians of the attention and MLP sub-blocks, plus the
finite-difference oracle everything is checked against.

Derivative conventions: all Jacobians are taken between column-major
vectorized coordinates (see :mod:`skiplab.linalg`).  For one head with
P = W_Q W_K^T and product G = W_V W_O, the input Jacobian of the attention
map X -> softmax(X P X^T / s) X G decomposes as

    K = ((X G)^T kron I_n) @ A' + G^T kron A

where A' is the derivative of vec(attention) w.r.t. vec(X).  The softmax
Jacobian is naturally block-diagonal over rows; under column-major vec those
blocks are written straight to the positions the commutation permutation of
K_{n,n} gives, so no dense K_{n,n} is built; left factors (M kron I_n) are
applied by reshape (``linalg.kron_eye_apply``).  Multi-head attention sums
the per-head terms, which is the unique extension consistent with the
head-summed forward pass; the finite-difference oracle arbitrates.  The MLP
acts on each token separately, so its input Jacobian K-hat is block-diagonal
by token, with blocks W2^T diag(act'(pre_a)) W1^T (:func:`mlp_token_blocks`).

Note the left factor of K: (X G kron I_n)^T and ((X G)^T kron I_n) are the
same matrix, so the two typographic variants of the formula agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .linalg import BudgetError, commutation_permutation, kron, kron_eye_apply
from .model import (BlockParams, ForwardTrace, NetworkParams,
                    activation_derivative, network_forward)

# Dense nd x nd materialization cap.
MAX_ND = 2048

# Central differences with h ~ eps^(1/3) balance truncation and rounding.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class ParamJacobian:
    """(m*n*d) x 4d^2 derivative of stacked network outputs w.r.t. one
    layer's attention parameters.  Columns follow (W_Q, W_K, W_V, W_O), each
    column-major, heads in order within each tensor."""

    matrix: np.ndarray
    layer: int


def _check_nd(nd: int) -> None:
    if nd > MAX_ND:
        raise BudgetError(f"nd = {nd} exceeds the dense Jacobian cap {MAX_ND}")


def softmax_jacobian(a: np.ndarray) -> np.ndarray:
    """d vec(softmax(M)) / d vec(M) at A = softmax(M), temperature 1.

    Row i of the softmax contributes the block J_i with
    (J_i)_{jk} = A_ij (delta_jk - A_ik).  A_ij sits at i + j*n in vec(A), so
    J_i fills entries (i + j*n, i + k*n): written as an (n, n, n, n) array
    indexed (j, i, k, i).  Each block's rows sum to zero (shift invariance of
    softmax).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"attention matrix must be square, got {a.shape}")
    rows = a.sum(axis=1)
    if np.any(a < -1e-12) or np.max(np.abs(rows - 1.0)) > 1e-9:
        raise ValueError("input is not row-stochastic")
    # blocks[i] = diag(a_i) - outer(a_i, a_i), entry by entry.
    blocks = a[:, :, None] * np.eye(n) - a[:, :, None] * a[:, None, :]
    out = np.zeros((n, n, n, n))
    rows = np.arange(n)
    out[:, rows, :, rows] = blocks
    return out.reshape(n * n, n * n)


def logits_input_jacobian(x: np.ndarray, p: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """d vec(X P X^T / scale) / d vec(X), shape n^2 x nd.

    The bilinear map splits into (X P^T kron I_n) for the left X and
    (I_n kron X P) K_{n,d} for the transposed right X; the commutation
    factor is a column permutation.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    eye_n = np.eye(n)
    left = kron((x @ p.T), eye_n)
    right = kron(eye_n, (x @ p))[:, commutation_permutation(d, n)]
    return (left + right) / scale


def _head_blocks(params: BlockParams, head: int, d_h: int):
    blk = params.head_slice(head, d_h)
    w_v = params.W_V[:, blk]
    w_o = params.W_O[blk, :]
    p = params.W_Q[:, blk] @ params.W_K[:, blk].T
    return w_v, w_o, p


def attention_input_jacobian(trace: ForwardTrace, layer: int, head: int) -> np.ndarray:
    """A' for one head, n^2 x nd: softmax Jacobian chained with the logits Jacobian."""
    cfg = trace.config
    bt = trace.blocks[layer]
    _, _, p = _head_blocks(trace.params.blocks[layer], head, cfg.d_h)
    ja = softmax_jacobian(bt.sa.attention[head])
    jm = logits_input_jacobian(bt.x_in, p, cfg.attention_scale)
    return ja @ jm


def sa_split(trace: ForwardTrace, layer: int,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K = B + (M kron I_n) A' for one layer, as (B, M, A'): with
    G_i = W_V,i W_O,i, B = sum_i G_i^T kron A_i, M = [(X G_1)^T ... (X G_h)^T]
    is d x hn and A' stacks the per-head A'_i (h n^2 x nd)."""
    cfg = trace.config
    _check_nd(cfg.n * cfg.d)
    bt = trace.blocks[layer]
    b = np.zeros((cfg.n * cfg.d, cfg.n * cfg.d))
    m, a_prime = [], []
    for i in range(cfg.h):
        w_v, w_o, _ = _head_blocks(trace.params.blocks[layer], i, cfg.d_h)
        g = w_v @ w_o
        b += kron(g.T, bt.sa.attention[i])
        m.append((bt.x_in @ g).T)
        a_prime.append(attention_input_jacobian(trace, layer, i))
    return b, np.hstack(m), np.vstack(a_prime)


def sa_input_jacobian(trace: ForwardTrace, layer: int) -> np.ndarray:
    """K for one layer: per-head ((X G_i)^T kron I_n) A'_i + G_i^T kron A_i, summed."""
    b, m, a_prime = sa_split(trace, layer)
    b += kron_eye_apply(m, a_prime)
    return b


def mlp_token_blocks(trace: ForwardTrace, layer: int) -> np.ndarray:
    """K-hat for one layer as its (n, d, d) stack of per-token blocks
    W2^T diag(act'(pre_a)) W1^T; the identity stack without an MLP."""
    cfg = trace.config
    if not cfg.use_mlp:
        return np.tile(np.eye(cfg.d), (cfg.n, 1, 1))
    bp = trace.params.blocks[layer]
    mlp = trace.blocks[layer].mlp
    act = activation_derivative(cfg.activation, mlp.pre, mlp.cdf)
    return (bp.mlp_W2.T * act[:, None, :]) @ bp.mlp_W1.T


def mlp_input_jacobian(trace: ForwardTrace, layer: int) -> np.ndarray:
    """Dense K-hat: entry (c, c') of token a's block sits at (a + c*n, a + c'*n),
    written as a (d, n, d, n) array indexed (c, a, c', a)."""
    cfg = trace.config
    n, d = cfg.n, cfg.d
    _check_nd(n * d)
    out = np.zeros((d, n, d, n))
    tokens = np.arange(n)
    out[:, tokens, :, tokens] = mlp_token_blocks(trace, layer)
    return out.reshape(n * d, n * d)


def sa_param_jacobian(trace: ForwardTrace, layer: int) -> ParamJacobian:
    """Derivative of vec(attention-stage output) w.r.t. the layer's flattened
    (W_Q, W_K, W_V, W_O).

    Per head i (with V_i = X W_V,i, T_i = ((X W_V,i W_O,i)^T kron I_n) J_i):
      d/dW_Q,i = T_i (X W_K,i kron X) / s
      d/dW_K,i = T_i (X kron X W_Q,i) K_{d,d_h} / s
      d/dW_V,i = W_O,i^T kron A_i X
    and d/dW_O = I_d kron Concat_i(A_i V_i).  Right-multiplying by
    K_{d,d_h} permutes columns.
    """
    cfg = trace.config
    n, d, d_h = cfg.n, cfg.d, cfg.d_h
    _check_nd(n * d)
    bt = trace.blocks[layer]
    bp = trace.params.blocks[layer]
    x = bt.x_in
    scale = cfg.attention_scale

    dq = np.zeros((n * d, d * d))
    dk = np.zeros((n * d, d * d))
    dv = np.zeros((n * d, d * d))
    concat = np.zeros((n, d))
    k_ddh = commutation_permutation(d_h, d)
    for i in range(cfg.h):
        blk = bp.head_slice(i, d_h)
        w_q, w_k = bp.W_Q[:, blk], bp.W_K[:, blk]
        w_v, w_o = bp.W_V[:, blk], bp.W_O[blk, :]
        a = bt.sa.attention[i]
        v = x @ w_v
        concat[:, blk] = a @ v
        t = kron_eye_apply((x @ w_v @ w_o).T, softmax_jacobian(a))
        cols = slice(i * d_h * d, (i + 1) * d_h * d)
        dq[:, cols] = t @ kron(x @ w_k, x) / scale
        dk[:, cols] = t @ kron(x, x @ w_q)[:, k_ddh] / scale
        dv[:, cols] = kron(w_o.T, a @ x)
    do = kron(np.eye(d), concat)
    return ParamJacobian(matrix=np.hstack([dq, dk, dv, do]), layer=layer)


def _chain(trace: ForwardTrace) -> Iterator[ParamJacobian]:
    """Every layer's chain Jacobian from one backward sweep, last layer first.

    D accumulates the derivative of the network output w.r.t. the current
    stage's output, D <- D M_l at each MLP stage and D <- D A_l at each
    attention stage, where M_l is K-hat_l (+ I with skips; I without an MLP)
    and A_l is K_l (+ I with skips).  Layer l's chain Jacobian is
    D sa_param_jacobian(l), taken between the two.  Each K and K-hat is built
    once, and layer 0's K is never needed.
    """
    cfg = trace.config
    eye = np.eye(cfg.n * cfg.d)
    d = eye
    for layer in reversed(range(cfg.L)):
        if cfg.use_mlp:
            m = mlp_input_jacobian(trace, layer)
            d = d @ (m + eye if cfg.use_skip else m)
        yield ParamJacobian(d @ sa_param_jacobian(trace, layer).matrix, layer)
        if layer > 0:
            k = sa_input_jacobian(trace, layer)
            d = d @ (k + eye if cfg.use_skip else k)


def block_chain_jacobian(trace: ForwardTrace, layer: int) -> ParamJacobian:
    """Derivative of the final network output w.r.t. layer ``layer``'s
    attention parameters: the sweep of :func:`_chain`, stopped at ``layer``.

    The chain factors follow the trace's own wiring, the only one for which
    the product is the true derivative.
    """
    if not 0 <= layer < trace.config.L:
        raise IndexError(f"layer {layer} out of range for L={trace.config.L}")
    for j in _chain(trace):
        if j.layer == layer:
            return j


def batch_param_jacobian(traces: list[ForwardTrace]) -> Iterator[ParamJacobian]:
    """Per layer, the per-sample chain Jacobians stacked vertically in sample
    order; one sweep per trace, layers yielded last first."""
    if not traces:
        raise ValueError("batch must contain at least one sample")
    for pieces in zip(*map(_chain, traces)):
        stacked = ParamJacobian(np.vstack([p.matrix for p in pieces]), pieces[0].layer)
        # Drop the per-sample pieces before the caller holds the stack.
        del pieces
        yield stacked


def finite_difference_jacobian(f: Callable[[np.ndarray], np.ndarray],
                               x0: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued f at x0.

    Per-coordinate step h_j = step * max(1, |x0_j|) with the cube-root-of-eps
    default.  Non-finite evaluations raise, naming the offending coordinate.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    h0 = FD_STEP if step is None else step
    f0 = np.asarray(f(x0), dtype=float).ravel()
    out = np.empty((f0.size, x0.size))
    for j in range(x0.size):
        h = h0 * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.asarray(f(xp), dtype=float).ravel()
        fm = np.asarray(f(xm), dtype=float).ravel()
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise FloatingPointError(f"non-finite evaluation at coordinate {j}")
        out[:, j] = (fp - fm) / (2.0 * h)
    return out


def relative_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / max(||b||_F, tiny); the agreement metric used everywhere."""
    denom = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


# ---------------------------------------------------------------------------
# Finite-difference verification suite
# ---------------------------------------------------------------------------


def flatten_attention_params(bp: BlockParams) -> np.ndarray:
    """(W_Q, W_K, W_V, W_O) flattened column-major, in that order."""
    from .linalg import vec
    return np.concatenate([vec(bp.W_Q), vec(bp.W_K), vec(bp.W_V), vec(bp.W_O)])


def assign_attention_params(bp: BlockParams, theta: np.ndarray, d: int) -> None:
    """Inverse of :func:`flatten_attention_params` (in place)."""
    from .linalg import unvec
    d2 = d * d
    bp.W_Q = unvec(theta[:d2], d, d)
    bp.W_K = unvec(theta[d2:2 * d2], d, d)
    bp.W_V = unvec(theta[2 * d2:3 * d2], d, d)
    bp.W_O = unvec(theta[3 * d2:], d, d)


def fd_check_instance(n: int, d: int, h: int, layers: int, seed: int,
                      scale: float = 1.0, weight_std: float = 0.3,
                      mlp_hidden: int | None = None) -> dict[str, float]:
    """Relative-Frobenius FD errors of every analytic Jacobian on one random
    instance; used by the gate command and the acceptance suite.

    Gaussian weights of moderate size keep the maps in generic position (tiny
    default-init weights would make relative errors meaningless)."""
    from .linalg import unvec, vec
    from .model import ModelConfig, row_softmax, self_attention

    rng = np.random.default_rng(seed)
    m_hidden = mlp_hidden if mlp_hidden is not None else d
    results: dict[str, float] = {}

    # Softmax Jacobian at generic logits.
    logits = rng.standard_normal((n, n))
    a = row_softmax(logits, 1.0)
    fd = finite_difference_jacobian(
        lambda v: vec(row_softmax(unvec(v, n, n), 1.0)), vec(logits))
    results["softmax_jacobian"] = relative_frobenius(softmax_jacobian(a), fd)

    # Logits Jacobian.
    x = rng.standard_normal((n, d))
    p = rng.standard_normal((d, d))
    fd = finite_difference_jacobian(
        lambda v: vec(unvec(v, n, d) @ p @ unvec(v, n, d).T / scale), vec(x))
    results["logits_input_jacobian"] = relative_frobenius(
        logits_input_jacobian(x, p, scale), fd)

    def random_network(use_skip: bool):
        cfg = ModelConfig(L=layers, n=n, d=d, h=h, attention_scale=scale,
                          activation="gelu", use_skip=use_skip, use_mlp=True,
                          mlp_hidden=m_hidden)
        blocks = []
        for _ in range(layers):
            blocks.append(BlockParams(
                W_Q=weight_std * rng.standard_normal((d, d)),
                W_K=weight_std * rng.standard_normal((d, d)),
                W_V=weight_std * rng.standard_normal((d, d)),
                W_O=weight_std * rng.standard_normal((d, d)),
                mlp_W1=weight_std * rng.standard_normal((d, m_hidden)),
                mlp_b1=0.1 * rng.standard_normal(m_hidden),
                mlp_W2=weight_std * rng.standard_normal((m_hidden, d)),
                mlp_b2=0.1 * rng.standard_normal(d)))
        return cfg, NetworkParams(blocks)

    cfg, params = random_network(use_skip=False)
    x0 = rng.standard_normal((n, d))
    trace = network_forward(x0, params, cfg)

    # Attention-matrix derivative of head 0, layer 0.
    bp = params.blocks[0]
    p0 = bp.W_Q[:, :cfg.d_h] @ bp.W_K[:, :cfg.d_h].T

    def head_attention(v):
        xm = unvec(v, n, d)
        return vec(row_softmax(xm @ p0 @ xm.T / scale, 1.0))

    fd = finite_difference_jacobian(head_attention, vec(x0))
    results["attention_input_jacobian"] = relative_frobenius(
        attention_input_jacobian(trace, 0, 0), fd)

    # Input Jacobians of both sub-blocks.
    def sa_map(v):
        return vec(self_attention(unvec(v, n, d), bp, cfg).out)

    fd = finite_difference_jacobian(sa_map, vec(x0))
    results["sa_input_jacobian"] = relative_frobenius(
        sa_input_jacobian(trace, 0), fd)

    from .model import mlp_forward

    def mlp_map(v):
        return vec(mlp_forward(unvec(v, n, d), bp, cfg).out)

    fd = finite_difference_jacobian(mlp_map, vec(trace.blocks[0].post_attention))
    results["mlp_input_jacobian"] = relative_frobenius(
        mlp_input_jacobian(trace, 0), fd)

    # Parameter Jacobian of the attention stage.
    theta0 = flatten_attention_params(bp)

    def sa_of_theta(theta):
        saved = (bp.W_Q, bp.W_K, bp.W_V, bp.W_O)
        assign_attention_params(bp, theta, d)
        try:
            out = self_attention(x0, bp, cfg).out
        finally:
            bp.W_Q, bp.W_K, bp.W_V, bp.W_O = saved
        return vec(out)

    fd = finite_difference_jacobian(sa_of_theta, theta0)
    results["sa_param_jacobian"] = relative_frobenius(
        sa_param_jacobian(trace, 0).matrix, fd)

    # Whole-network chain Jacobian w.r.t. layer-0 attention parameters.
    for use_skip, tag in ((False, "block_chain_jacobian_skipless"),
                          (True, "block_chain_jacobian_skip")):
        cfg_c, params_c = random_network(use_skip=use_skip)
        trace_c = network_forward(x0, params_c, cfg_c)
        bp_c = params_c.blocks[0]
        theta0 = flatten_attention_params(bp_c)

        def net_of_theta(theta):
            saved = (bp_c.W_Q, bp_c.W_K, bp_c.W_V, bp_c.W_O)
            assign_attention_params(bp_c, theta, d)
            try:
                out = network_forward(x0, params_c, cfg_c).output
            finally:
                bp_c.W_Q, bp_c.W_K, bp_c.W_V, bp_c.W_O = saved
            return vec(out)

        fd = finite_difference_jacobian(net_of_theta, theta0)
        results[tag] = relative_frobenius(
            block_chain_jacobian(trace_c, 0).matrix, fd)
    return results
