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
head-summed forward pass; the finite-difference oracle arbitrates.  Head i's
factors are read through ``model.split_heads``, which fixes the head layout.
The MLP acts on each token separately, so its input Jacobian K-hat is
block-diagonal by token, with blocks W2^T diag(act'(pre_a)) W1^T
(:func:`mlp_token_blocks`).
The chain parameter Jacobian J of a layer is the trainer's backward
(``model.network_backward``) on the nd unit cotangents unvec(I_nd), the
layer's attention pairs contracted per cotangent: no nd x nd downstream
factor, K or K-hat is formed.  Dense products are test oracles only.

The output depends on head i's factors only through P_i = W_Q,i W_K,i^T and
G_i = W_V,i W_O,i, so (W_Q,i S, -W_K,i S^T) and (W_V,i S, -S W_O,i) are
null directions of J for every d_h x d_h S: rank(J) <= 4d^2 - 2d^2/h, and a
stack of m samples is informative only while m*n*d <= 4d^2 - 2d^2/h.  For
kappa(J) the stack is built without those columns
(:func:`batch_param_jacobian`), in coordinates where C C^T = J J^T.

K is built in place (:func:`sa_input_jacobian`): A' into one (h n^2) x nd buffer, then
E = (M kron I_n) A' as K's own, then B = sum_i G_i^T kron A_i added n rows at a time.  No
nd x nd temporary lives beside K, and K has the bits of B summed alone plus E.

The finite-difference oracle's ``f`` maps a (k, p) stack of points to a
(k, q) stack of values, and is called once per chunk of ``FD_CHUNK``
coordinates: a map built on the forward (whose weights may carry stack axes)
runs one stacked forward per chunk, not one per point.  The maps
:func:`fd_check_instance` checks against are the model's own stages
(``row_softmax``, ``self_attention``, ``mlp_forward``, ``network_forward``),
apart from the bare logits X P X^T / s, so no formula is restated for them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

import numpy as np

from .linalg import (BudgetError, check_budget, commutation_permutation, kron,
                     kron_eye_apply, unvec, vec)
from .model import (BlockParams, ForwardTrace, ModelConfig, NetworkParams,
                    activation_derivative, attention_backward, check_stack_budget,
                    mlp_forward, network_backward, network_forward, row_softmax,
                    self_attention, split_heads)

# Dense nd x nd materialization cap.  Like linalg.MAX_ELEMENTS it counts the
# one matrix: an SVD of it takes about as much again for LAPACK's copy.
MAX_ND = 2048

# Central differences with h ~ eps^(1/3) balance truncation and rounding.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Coordinates perturbed per call of the oracle's f (2 * FD_CHUNK points).
FD_CHUNK = 64

# Entry scale of the Gaussian weights in fd_check_instance.
FD_WEIGHT_STD = 0.3

# The attention tensors, in flatten_attention_params order.
ATTENTION_WEIGHTS = ("W_Q", "W_K", "W_V", "W_O")


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
    check_budget(n * n, n * n)
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
    # The right term first, so that its unpermuted kron is freed before the
    # left's; take() keeps C order, which fixes how BLAS rounds A'.
    out = kron(np.eye(n), (x @ p)).take(commutation_permutation(d, n), axis=1)
    out += kron((x @ p.T), np.eye(n))
    return np.divide(out, scale, out=out)


def attention_input_jacobian(a: np.ndarray, x: np.ndarray, p: np.ndarray, scale: float = 1.0,
                             out=None) -> np.ndarray:
    """A' = d vec(A) / d vec(X) for one head's attention A = softmax(X P X^T / scale),
    n^2 x nd, into ``out`` if given: softmax Jacobian at A times logits Jacobian."""
    return np.matmul(softmax_jacobian(a), logits_input_jacobian(x, p, scale), out=out)


def sa_split(trace: ForwardTrace, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, M, A') of K = B + (M kron I_n) A' at one layer: G stacks the G_i = W_V,i W_O,i of
    B = sum_i G_i^T kron A_i, M = [(X G_1)^T ... (X G_h)^T] is d x hn, and A' (h n^2 x nd)
    is written head by head into one buffer, beside which one head's n^2 x n^2 softmax
    Jacobian and two n^2 x nd logits pieces are live."""
    cfg = trace.config
    _check_nd(cfg.n * cfg.d)
    bt, bp = trace.blocks[layer], trace.params.blocks[layer]
    g = split_heads(bp.W_V, cfg.h) @ split_heads(bp.W_O.T, cfg.h).swapaxes(-1, -2)
    check_budget(cfg.h * cfg.n * cfg.n, cfg.n * cfg.d)
    a_prime = np.empty((cfg.h * cfg.n * cfg.n, cfg.n * cfg.d))
    w_q, w_k = (split_heads(w, cfg.h) for w in (bp.W_Q, bp.W_K))
    for i, rows in enumerate(np.split(a_prime, cfg.h)):
        attention_input_jacobian(bt.sa.attention[i], bt.x_in, w_q[i] @ w_k[i].T,
                                 cfg.attention_scale, out=rows)
    return g, np.hstack((bt.x_in @ g).swapaxes(-1, -2)), a_prime


def add_dominant_term(k: np.ndarray, g: np.ndarray, attention: np.ndarray) -> np.ndarray:
    """k += B = sum_i G_i^T kron A_i in place, n rows (from row j of each G_i^T)
    at a time, as np.kron's products summed ((0.0 + k_1) + ... + k_h): the +0.0
    turns -0.0 into +0.0 as a zero-filled accumulator of B would."""
    h, n = attention.shape[:2]
    g_rows, a = g.swapaxes(-1, -2)[:, :, None, :, None], attention[:, :, None, :]
    for j in range(g.shape[-1]):  # (i, t, c, s): G_i^T[j, c] A_i[t, s] at (j*n + t, c*n + s)
        k[j * n:(j + 1) * n] += sum((g_rows[:, j] * a).reshape(h, n, -1), 0.0)
    return k


def sa_input_jacobian(trace: ForwardTrace, layer: int) -> np.ndarray:
    """K = sum_i ((X G_i)^T kron I_n) A'_i + G_i^T kron A_i at one layer: A', then
    E = (M kron I_n) A' as the result, then (A' dropped) B added by block rows.  Beside K
    only A' or one n x nd block row is live."""
    g, m, a_prime = sa_split(trace, layer)
    k = kron_eye_apply(m, a_prime)
    del a_prime
    return add_dominant_term(k, g, trace.blocks[layer].sa.attention)


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


def _attention_rows(pairs: dict) -> np.ndarray:
    """Row r: the four attention gradients for cotangent r, each vec'd, in
    :func:`flatten_attention_params` order (formed transposed, so that each
    one's C-order rows are its vec)."""
    return np.concatenate([(dy.swapaxes(-1, -2) @ x).reshape(len(dy), -1)
                           for x, dy in (pairs[w] for w in ATTENTION_WEIGHTS)], axis=1)


def _cotangent_stack(trace: ForwardTrace) -> np.ndarray:
    """The nd unit cotangents unvec(I_nd), an (nd, n, d) stack: E_{i + jn} = e_i e_j^T is
    entry (j, i, i', j') = [i = i'][j = j'] of the product of I_d and I_n, one nd^2 array."""
    n, d = trace.config.n, trace.config.d
    _check_nd(n * d)
    return (np.eye(d)[:, None, None, :] * np.eye(n)[:, :, None]).reshape(n * d, n, d)


def sa_param_jacobian(trace: ForwardTrace, layer: int) -> np.ndarray:
    """P = d vec(attention-stage output) / d theta, the nd x 4d^2 Jacobian
    w.r.t. the layer's flattened (W_Q, W_K, W_V, W_O).  Columns follow
    :func:`flatten_attention_params`: each tensor column-major, heads in order
    within each tensor.

    Row r of P is vec of the gradient of <E_r, output> for the unit
    cotangent E_r = unvec(e_r), from ``model.attention_backward`` run on the
    stack of every E_r.
    """
    pairs = attention_backward(trace.blocks[layer], trace.params.blocks[layer],
                               trace.config, _cotangent_stack(trace))
    return _attention_rows(pairs)


def block_chain_jacobian(trace: ForwardTrace, layer: int) -> np.ndarray:
    """Derivative of the final network output w.r.t. layer ``layer``'s
    attention parameters: the network's backward on the unit cotangents,
    stopped at ``layer``.  It follows the trace's own wiring, skips included.
    """
    if not 0 <= layer < trace.config.L:
        raise IndexError(f"layer {layer} out of range for L={trace.config.L}")
    for j, pairs in network_backward(trace, _cotangent_stack(trace)):
        if j == layer:
            return _attention_rows(pairs)


def gauge_free_width(config: ModelConfig) -> int:
    """Columns of the gauge-free chain Jacobian, 4d^2 - 2d^2/h: the attention
    parameters less the d_h^2 gauge directions of each head's W_Q W_K^T and
    of its W_V W_O.  It bounds the rank of J."""
    return 4 * config.d * config.d - 2 * config.d * config.d_h


def _givens(s_a: np.ndarray, s_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s_a, s_b) / hypot(s_a, s_b), 0 where the hypot is 0: c_a a + c_b b is
    the coordinate of the pair (a, b) orthogonal to the gauge direction
    (s_b, -s_a); the partner along it is zero."""
    hyp = np.hypot(s_a, s_b)
    scale = np.divide(1.0, hyp, out=np.zeros_like(hyp), where=hyp > 0.0)
    return s_a * scale, s_b * scale


def _gauge_frames(bp: BlockParams, h: int) -> tuple:
    """Per head, stacked over heads on axis -3: the (input, cotangent)
    rotations of each weight's factor pair and the Givens weights of the two
    merges, from the full SVDs W_Q,i = U_Q S_Q R_Q^T, W_K,i = U_K S_K R_K^T and
    W_V,i = U_V S_V R_V^T (d x d_h), and W_O,i = P_O S_O U_O^T (d_h x d)."""
    heads = [split_heads(w, h) for w in (bp.W_Q, bp.W_K, bp.W_V)]
    heads.append(split_heads(bp.W_O.T, h).swapaxes(-1, -2))
    (u_q, s_q, rt_q), (u_k, s_k, rt_k), (u_v, s_v, rt_v), (p_o, s_o, ut_o) = (
        np.linalg.svd(w) for w in heads)
    # Contiguous factors keep the broadcast matmuls on BLAS.
    r_q, r_k, r_v, u_o = (np.ascontiguousarray(m.swapaxes(-1, -2))
                          for m in (rt_q, rt_k, rt_v, ut_o))
    rotations = (u_q, r_k), (u_k, r_q), (u_v, p_o), (r_v, u_o)
    # sigma[a] down the rows, sigma[b] across the columns of a pair block.
    merges = (_givens(s_k[:, None, :], s_q[:, :, None]),
              _givens(s_o[:, None, :], s_v[:, :, None]))
    return rotations, merges


def _gauge_free_rows(pairs: dict, frames: tuple, h: int) -> np.ndarray:
    """Row s*nd + r: sample s's attention gradients for cotangent r, from a
    backward's (nd, m, n, d) pairs, in :func:`gauge_free_width` gauge-free columns.

    With the frames of :func:`_gauge_frames`, head i's gradients rotate to
    Q~ = U_Q^T dW_Q R_K, K~ = U_K^T dW_K R_Q, V~ = U_V^T dW_V P_O and
    O~ = R_V^T dW_O U_O, each rotation applied to the backward's factor pair
    before the per-cotangent contraction.  Invariance of P_i and G_i makes
    sigma_Q,a Q~_ab = sigma_K,b K~_ba and sigma_V,a V~_ab = sigma_O,b O~_ab
    for a, b < d_h: each such pair keeps its one Givens-merged coordinate,
    and the entries outside the pair blocks are kept as they are.
    """
    ((u_q, r_k), (u_k, r_q), (u_v, p_o), (r_v, u_o)), ((c_q, c_k), (c_v, c_o)) = frames
    (x, dq), (_, dk), (_, dv), (o, dout) = (pairs[w] for w in ATTENTION_WEIGHTS)
    x = x[..., None, :, :]  # a head axis, to broadcast against the frames'

    def rotated(inp, right, cot, left):
        # (inp @ right)^T (cot @ left), per cotangent, sample and head.
        return (inp @ right).swapaxes(-1, -2) @ (cot @ left)

    q = rotated(x, u_q, split_heads(dq, h), r_k)
    # K~ transposed, so that each pair block is laid out like its partner's.
    k_t = (split_heads(dk, h) @ r_q).swapaxes(-1, -2) @ (x @ u_k)
    v = rotated(x, u_v, split_heads(dv, h), p_o)
    # Every head's W_O gradient reads the whole cotangent.
    o = rotated(split_heads(o, h), r_v, dout[..., None, :, :], u_o)
    d_h = c_q.shape[-1]
    pieces = (c_q * q[..., :d_h, :] + c_k * k_t[..., :d_h],
              q[..., d_h:, :], k_t[..., d_h:],
              c_v * v[..., :d_h, :] + c_o * o[..., :d_h],
              v[..., d_h:, :], o[..., d_h:])
    rows, m = dq.shape[:2]
    # Sample-major rows, written in place: no second copy of the stack.
    out = np.empty((m, rows, sum(t[0, 0].size for t in pieces)))
    np.concatenate([t.reshape(rows, m, -1) for t in pieces], axis=-1, out=out.swapaxes(0, 1))
    return out.reshape(m * rows, -1)


def batch_param_jacobian(trace: ForwardTrace) -> Iterator[tuple[int, np.ndarray]]:
    """Per layer, (layer, C) with C the (m*n*d) x gauge_free_width stack of
    the chain Jacobians of the m samples of an (m, n, d) batch trace, in
    gauge-free coordinates, sample s in rows s*nd to (s+1)*nd - 1: C C^T = J J^T
    for the stack J of the chain Jacobians, so C has J's singular values (see
    the module docstring).  One backward on the nd unit cotangents, shaped
    (nd, 1, n, d) to broadcast against the samples; layers yielded last
    first.  A stack over the ``linalg`` element budget raises before the
    backward."""
    cfg, x0 = trace.config, trace.x0
    if x0.ndim != 3 or not len(x0):
        raise ValueError("batch must be an (m, n, d) stack of at least one sample")
    check_budget(len(x0) * cfg.n * cfg.d, gauge_free_width(cfg))
    for layer, pairs in network_backward(trace, _cotangent_stack(trace)[:, None]):
        yield layer, _gauge_free_rows(pairs, _gauge_frames(trace.params.blocks[layer], cfg.h),
                                      cfg.h)


def finite_difference_jacobian(f: Callable[[np.ndarray], np.ndarray],
                               x0: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian at x0 of an f that maps a (k, p) stack of
    points to a (k, q) stack of values.

    Per-coordinate step h_j = FD_STEP * max(1, |x0_j|).  Coordinates go in
    chunks of ``FD_CHUNK``, one call of f per chunk on its +h_j points then
    its -h_j points.  Non-finite evaluations raise, naming the first
    offending coordinate.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    h = FD_STEP * np.maximum(1.0, np.abs(x0))
    columns = []
    for start in range(0, x0.size, FD_CHUNK):
        cols = np.arange(start, min(start + FD_CHUNK, x0.size))
        k = cols.size
        points = np.tile(x0, (2 * k, 1))
        points[np.arange(k), cols] += h[cols]
        points[np.arange(k, 2 * k), cols] -= h[cols]
        values = np.asarray(f(points), dtype=float).reshape(2 * k, -1)
        finite = np.all(np.isfinite(values), axis=1)
        bad = ~(finite[:k] & finite[k:])
        if bad.any():
            j = cols[np.argmax(bad)]
            raise FloatingPointError(f"non-finite evaluation at coordinate {j}")
        columns.append((values[:k] - values[k:]) / (2.0 * h[cols, None]))
    # C order: callers' norms sum in memory order, so it fixes their rounding.
    return np.ascontiguousarray(np.vstack(columns).T)


def relative_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / max(||b||_F, tiny); the agreement metric used everywhere."""
    denom = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


# ---------------------------------------------------------------------------
# Finite-difference verification suite
# ---------------------------------------------------------------------------


def flatten_attention_params(bp: BlockParams) -> np.ndarray:
    """(W_Q, W_K, W_V, W_O) flattened column-major, in that order; stacked
    weights give a (..., 4d^2) stack."""
    return np.concatenate([vec(getattr(bp, w)) for w in ATTENTION_WEIGHTS], axis=-1)


def with_attention_params(bp: BlockParams, theta: np.ndarray) -> BlockParams:
    """Inverse of :func:`flatten_attention_params`: a copy of ``bp`` with its
    attention weights read from theta, sharing bp's MLP arrays; a (..., 4d^2)
    stack of thetas gives (..., d, d) stacked weights."""
    d = bp.W_Q.shape[-1]
    return replace(bp, **{w: unvec(t, d, d) for w, t in
                          zip(ATTENTION_WEIGHTS, np.split(theta, 4, axis=-1))})


def fd_check_instance(n: int, d: int, h: int, layers: int, seed: int,
                      scale: float = 1.0) -> dict[str, float]:
    """Relative-Frobenius FD errors of every analytic Jacobian on one random
    instance with a width-d MLP; used by the gate command and the acceptance
    suite.

    Gaussian weights of moderate size (``FD_WEIGHT_STD``) keep the maps in
    generic position (tiny default-init weights would make relative errors
    meaningless).  Each map handed to the oracle evaluates a stack of points
    as one stacked forward.  The three networks share one shape, which is
    checked against the element budget before anything is drawn."""
    skipless = ModelConfig(L=layers, n=n, d=d, h=h, attention_scale=scale,
                           activation="gelu", use_skip=False, use_mlp=True, mlp_hidden=d)
    check_stack_budget(skipless)
    rng = np.random.default_rng(seed)
    # (std, shape) of W_Q, W_K, W_V, W_O, W1, b1, W2, b2: BlockParams' order.
    weight, bias = (FD_WEIGHT_STD, (d, d)), (0.1, (d,))
    draws = (weight,) * 5 + (bias, weight, bias)

    def random_network(use_skip: bool) -> tuple[ModelConfig, NetworkParams]:
        return replace(skipless, use_skip=use_skip), NetworkParams([
            BlockParams(*(std * rng.standard_normal(shape) for std, shape in draws))
            for _ in range(layers)])

    logits, x, p = (rng.standard_normal(shape) for shape in ((n, n), (n, d), (d, d)))
    cfg, params = random_network(use_skip=False)
    x0 = rng.standard_normal((n, d))
    chains = {"block_chain_jacobian_skipless": random_network(use_skip=False),
              "block_chain_jacobian_skip": random_network(use_skip=True)}
    trace = network_forward(x0, params, cfg)
    bp = params.blocks[0]
    p_0 = split_heads(bp.W_Q, h)[0] @ split_heads(bp.W_K, h)[0].T

    def error(analytic: np.ndarray, f: Callable, at: np.ndarray) -> float:
        return relative_frobenius(analytic, finite_difference_jacobian(f, at))

    def of_tokens(stage: Callable) -> Callable:
        return lambda v: vec(stage(unvec(v, n, d)))

    results = {
        "softmax_jacobian": error(softmax_jacobian(row_softmax(logits)),
                                  lambda v: vec(row_softmax(unvec(v, n, n))), vec(logits)),
        "logits_input_jacobian": error(
            logits_input_jacobian(x, p, scale),
            of_tokens(lambda t: t @ p @ t.swapaxes(-1, -2) / scale), vec(x)),
        "attention_input_jacobian": error(  # layer 0, head 0
            attention_input_jacobian(trace.blocks[0].sa.attention[0], x0, p_0, scale),
            of_tokens(lambda t: self_attention(t, bp, cfg).attention[..., 0, :, :]),
            vec(x0)),
        "sa_input_jacobian": error(sa_input_jacobian(trace, 0),
                                   of_tokens(lambda t: self_attention(t, bp, cfg).out),
                                   vec(x0)),
        "mlp_input_jacobian": error(mlp_input_jacobian(trace, 0),
                                    of_tokens(lambda t: mlp_forward(t, bp, cfg).out),
                                    vec(trace.blocks[0].post_attention)),
        "sa_param_jacobian": error(
            sa_param_jacobian(trace, 0),
            lambda theta: vec(self_attention(x0, with_attention_params(bp, theta), cfg).out),
            flatten_attention_params(bp)),
    }
    # Whole-network chain Jacobian w.r.t. layer-0 attention parameters.
    for tag, (cfg_c, params_c) in chains.items():
        bp_c, rest = params_c.blocks[0], params_c.blocks[1:]
        results[tag] = error(
            block_chain_jacobian(network_forward(x0, params_c, cfg_c), 0),
            lambda theta: vec(network_forward(
                x0, NetworkParams([with_attention_params(bp_c, theta), *rest]),
                cfg_c).output),
            flatten_attention_params(bp_c))
    return results
