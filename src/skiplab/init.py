"""Weight initialization schemes.

Two families:

* ``default`` — truncated normal everywhere (the usual transformer baseline).
* ``proposed`` — the conditioning-aware construction: the value/output product
  W_V W_O is made scaled-orthonormal (every singular value equals c^2, so its
  condition number is exactly 1), the per-head query/key product is driven to
  the diagonally dominant target alpha*Z + beta*I with Z_ij ~ N(0, 1/d), and
  MLP weights are scaled (semi-)orthogonal.

All constructors are pure functions of their seed; the network constructor
derives independent per-(layer, tensor) streams from one master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import BlockParams, ModelConfig, NetworkParams, check_stack_budget, split_heads

# (alpha, beta, c) presets: "supervised" is the headline setting, "selfsup"
# the alternative used for the smaller self-supervised backbone.
PRESETS = {
    "supervised": (2.0, 0.6, 3.0),
    "selfsup": (1.8, 1.0, 3.0),
}

# Truncated normal of the default scheme and the training head (bound in stds).
TRUNC_STD = 0.02
TRUNC_BOUND = 2.0


@dataclass(frozen=True)
class InitSpec:
    scheme: str = "proposed"
    alpha: float = PRESETS["supervised"][0]
    beta: float = PRESETS["supervised"][1]
    c: float = PRESETS["supervised"][2]
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("default", "proposed"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "proposed":
            if self.alpha < 0 or self.beta < 0 or self.c <= 0:
                raise ValueError("proposed scheme needs alpha, beta >= 0 and c > 0")

    def with_preset(self, name: str) -> "InitSpec":
        alpha, beta, c = PRESETS[name]
        return replace(self, alpha=alpha, beta=beta, c=c)


def truncated_normal(rows: int, cols: int, std: float, bound: float, seed) -> np.ndarray:
    """I.i.d. N(0, std^2) entries, resampled until inside +/- bound*std."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((rows, cols))
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > bound
    return std * out


def orthonormal_vo(d: int, c: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Scaled-orthonormal value/output pair.

    One Gaussian d x d matrix is decomposed as Q = U S V^T and the factors are
    reused: W_V = c*U, W_O = c*V^T.  The head-summed product
    sum_i W_V,i W_O,i is W_V W_O = c^2 * U V^T whatever the head count: every
    singular value is c^2 and its condition number is 1.
    """
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((d, d))
    u, _, vt = np.linalg.svd(q)
    # Paired sign pinning keeps U V^T unchanged while making the pair unique.
    signs = _lead_signs(u)
    u = u * signs
    vt = vt * signs[:, None]
    return c * u, c * vt


def mimetic_qk(d: int, d_h: int, alpha: float, beta: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Factor the diagonally dominant target P = alpha*Z + beta*I into (W_Q, W_K).

    Z_ij ~ N(0, 1/d).  P is decomposed as U S V^T and split symmetrically:
    W_Q = U_r sqrt(S_r), W_K = V_r sqrt(S_r) with r = d_h, so W_Q W_K^T is the
    best rank-d_h approximation of P (and P itself when d_h = d).
    """
    if not 1 <= d_h <= d:
        raise ValueError(f"need 1 <= d_h <= d, got d_h={d_h}, d={d}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) / np.sqrt(d)
    target = alpha * z + beta * np.eye(d)
    u, s, vt = np.linalg.svd(target)
    root = np.sqrt(s[:d_h])
    # Paired sign pinning leaves W_Q W_K^T unchanged and makes the pair unique.
    u_r = u[:, :d_h]
    signs = _lead_signs(u_r)
    w_q = (u_r * signs) * root
    w_k = (vt[:d_h, :].T * signs) * root
    return w_q, w_k


def mlp_orthogonal(fan_in: int, fan_out: int, seed) -> np.ndarray:
    """Semi-orthogonal fan_in x fan_out matrix.

    The smaller dimension's Gram matrix is the identity: columns are
    orthonormal when fan_in >= fan_out, rows otherwise.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan_in and fan_out must be >= 1")
    rng = np.random.default_rng(seed)
    tall = fan_in >= fan_out
    g = rng.standard_normal((fan_in, fan_out) if tall else (fan_out, fan_in))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))
    q = q * _lead_signs(q)
    return q if tall else q.T


def init_network(config: ModelConfig, spec: InitSpec) -> NetworkParams:
    """Build all L blocks under the requested scheme.

    The master seed spawns 8 streams per layer, so the whole network is
    reproducible from ``spec`` alone.  Under ``default`` streams 0-5 feed W_Q,
    W_K, W_V, W_O, mlp_W1 and mlp_W2.  Under ``proposed`` stream 0 spawns one
    stream per head for that head's (W_Q, W_K) pair, stream 1 feeds the
    (W_V, W_O) pair, and streams 4 and 5 feed mlp_W1 and mlp_W2.  The whole
    stack is checked against the element budget before any stream is drawn.
    """
    check_stack_budget(config)
    master = np.random.SeedSequence(spec.seed)
    return NetworkParams(blocks=[_block(config, spec, seq.spawn(8))
                                 for seq in master.spawn(config.L)])


def _lead_signs(m: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1 or -1) that makes its largest-|entry| positive."""
    return np.where(m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])] < 0, -1.0, 1.0)


def _block(config: ModelConfig, spec: InitSpec, streams) -> BlockParams:
    """One block's tensors, each drawn as the scheme says (see init_network)."""
    d, h, m = config.d, config.h, config.mlp_hidden
    shapes = [(d, d)] * 4 + ([(d, m), (m, d)] if config.use_mlp else [])
    if spec.scheme == "default":
        w = [truncated_normal(*shape, TRUNC_STD, TRUNC_BOUND, s)
             for shape, s in zip(shapes, streams)]
    else:
        # W_Q and W_K are written through views into C-order buffers:
        # mimetic_qk's W_K is column-major, and an operand's memory order
        # picks the BLAS kernel, so the reports' bytes depend on it.
        w = [np.empty(shape) for shape in shapes[:2]]
        for i, s in enumerate(streams[0].spawn(h)):
            split_heads(w[0], h)[i], split_heads(w[1], h)[i] = mimetic_qk(
                d, config.d_h, spec.alpha, spec.beta, s)
        w += orthonormal_vo(d, spec.c, streams[1])
        w += [mlp_orthogonal(*shape, s) for shape, s in zip(shapes[4:], streams[4:])]
    return BlockParams(*w[:4], *((w[4], np.zeros(m), w[5], np.zeros(d)) if config.use_mlp else ()))
