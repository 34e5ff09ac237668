"""Forward computation of transformer blocks, with and without skip connections.

The block is the bare analyzed form: no normalization layers, no dropout, no
masking.  A block maps X -> X_attn -> X_out where

    X_attn = [X +] sum_i A_i X W_V,i W_O,i        (attention stage)
    X_out  = [X_attn +] MLP(X_attn)               (MLP stage)

with the bracketed identity paths present only when skips are enabled.  The
attention matrix of head i is the row-softmax of X W_Q,i W_K,i^T X^T divided
by ``attention_scale``.

:func:`network_forward` is the only walk over the layers, for one (n, d)
sample or a (..., n, d) batch: the Jacobians read its per-sample trace and the
trainer's backward pass reads its batched trace.  :func:`self_attention` and
:func:`mlp_forward` are the block's only implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import erf

ACTIVATIONS = ("gelu", "relu", "identity")


class DivergenceError(FloatingPointError):
    """A forward intermediate went non-finite; carries the offending layer."""

    def __init__(self, layer: int, stage: str):
        self.layer = layer
        self.stage = stage
        super().__init__(f"non-finite values at layer {layer} ({stage})")


@dataclass(frozen=True)
class ModelConfig:
    """Shape and wiring of the block stack.

    d must equal h * d_h exactly; ``attention_scale`` is the softmax
    temperature applied to the logits (1.0 reproduces the unscaled analysis
    setting, sqrt(d_h) the usual training convention).
    """

    L: int
    n: int
    d: int
    h: int = 1
    attention_scale: float = 1.0
    activation: str = "gelu"
    use_skip: bool = True
    use_mlp: bool = True
    mlp_hidden: int = 0

    def __post_init__(self):
        if self.d % self.h != 0:
            raise ValueError(f"d={self.d} not divisible by h={self.h}")
        if self.attention_scale <= 0.0:
            raise ValueError("attention_scale must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.use_mlp and self.mlp_hidden < 1:
            object.__setattr__(self, "mlp_hidden", 4 * self.d)

    @property
    def d_h(self) -> int:
        return self.d // self.h


@dataclass
class BlockParams:
    """Weights of one block: W_Q/W_K/W_V are d x d with h column-blocks of
    width d_h; W_O is d x d with h row-blocks of height d_h."""

    W_Q: np.ndarray
    W_K: np.ndarray
    W_V: np.ndarray
    W_O: np.ndarray
    mlp_W1: np.ndarray | None = None
    mlp_b1: np.ndarray | None = None
    mlp_W2: np.ndarray | None = None
    mlp_b2: np.ndarray | None = None

    def head_slice(self, head: int, d_h: int) -> slice:
        return slice(head * d_h, (head + 1) * d_h)


@dataclass
class NetworkParams:
    blocks: list[BlockParams]


@dataclass
class BlockTrace:
    """Cached intermediates of one block on (..., n, d) tokens: its input, the
    attention stage's results and output (skip included), the MLP stage's
    results (None without an MLP) and the block output."""

    x_in: np.ndarray
    sa: Attention
    post_attention: np.ndarray
    mlp: MLP | None
    output: np.ndarray


@dataclass
class ForwardTrace:
    x0: np.ndarray
    blocks: list[BlockTrace]
    config: ModelConfig
    params: NetworkParams = field(repr=False, default=None)

    @property
    def output(self) -> np.ndarray:
        return self.blocks[-1].output if self.blocks else self.x0


class Attention(NamedTuple):
    """Output, (..., n, d) projections and one (..., n, n) attention per head."""

    out: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    attention: list[np.ndarray]


class MLP(NamedTuple):
    """MLP output, pre-activation, activation and (gelu only) the GELU cdf."""

    out: np.ndarray
    pre: np.ndarray
    act: np.ndarray
    cdf: np.ndarray | None


def gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Standard-normal cdf Phi(x); GELU(x) = x * Phi(x)."""
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def activation(name: str, x: np.ndarray) -> np.ndarray:
    if name == "gelu":
        return x * gelu_cdf(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "identity":
        return x
    raise ValueError(f"unknown activation {name!r}")


def activation_derivative(name: str, x: np.ndarray,
                          cdf: np.ndarray | None = None) -> np.ndarray:
    """Elementwise derivative; for gelu, ``cdf`` = gelu_cdf(x) is reused when given."""
    if name == "gelu":
        cdf = gelu_cdf(x) if cdf is None else cdf
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return cdf + x * pdf
    if name == "relu":
        return (x > 0.0).astype(float)
    if name == "identity":
        return np.ones_like(x)
    raise ValueError(f"unknown activation {name!r}")


def row_softmax(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m / temperature, stabilized by row-max subtraction."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    z = np.asarray(m, dtype=float) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def self_attention(x: np.ndarray, params: BlockParams, config: ModelConfig) -> Attention:
    """Multi-head self-attention Concat_i(A_i X W_V,i) W_O on (..., n, d) tokens.

    q, k and v are projected once for all heads; head i reads column-block i
    of each.  The concatenation times W_O equals sum_i A_i X W_V,i W_O,i, the
    head-summed form the Jacobians are written in (up to rounding for h > 1).
    """
    q = x @ params.W_Q
    k = x @ params.W_K
    v = x @ params.W_V
    o = np.empty_like(v)
    attns = []
    for i in range(config.h):
        blk = params.head_slice(i, config.d_h)
        a = row_softmax((q[..., blk] @ k[..., blk].swapaxes(-1, -2))
                        / config.attention_scale)
        o[..., blk] = a @ v[..., blk]
        attns.append(a)
    return Attention(o @ params.W_O, q, k, v, o, attns)


def mlp_forward(x: np.ndarray, params: BlockParams, config: ModelConfig) -> MLP:
    """Two-layer MLP with biases on (..., n, d) tokens."""
    pre = x @ params.mlp_W1 + params.mlp_b1
    cdf = gelu_cdf(pre) if config.activation == "gelu" else None
    act = pre * cdf if cdf is not None else activation(config.activation, pre)
    return MLP(act @ params.mlp_W2 + params.mlp_b2, pre, act, cdf)


def block_forward(x: np.ndarray, params: BlockParams, config: ModelConfig) -> BlockTrace:
    """One block: attention stage then MLP stage, each with an optional skip."""
    sa = self_attention(x, params, config)
    x_attn = x + sa.out if config.use_skip else sa.out
    mlp, x_out = None, x_attn
    if config.use_mlp:
        mlp = mlp_forward(x_attn, params, config)
        x_out = x_attn + mlp.out if config.use_skip else mlp.out
    return BlockTrace(x_in=x, sa=sa, post_attention=x_attn, mlp=mlp, output=x_out)


def network_forward(x0: np.ndarray, params: NetworkParams, config: ModelConfig) -> ForwardTrace:
    """Apply all L blocks to (..., n, d) tokens, caching every intermediate.

    Leading axes are a batch: every array in the trace keeps them.  Raises
    :class:`DivergenceError` naming the first layer whose output goes
    non-finite (deep skipless stacks can overflow); never returns NaNs.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-2:] != (config.n, config.d):
        raise ValueError(f"input shape {x0.shape} does not end in (n, d) = "
                         f"{(config.n, config.d)}")
    if len(params.blocks) != config.L:
        raise ValueError(f"{len(params.blocks)} blocks for L={config.L}")
    traces = []
    x = x0
    for layer, bp in enumerate(params.blocks):
        bt = block_forward(x, bp, config)
        if not np.all(np.isfinite(bt.post_attention)):
            raise DivergenceError(layer, "attention stage")
        if not np.all(np.isfinite(bt.output)):
            raise DivergenceError(layer, "mlp stage")
        traces.append(bt)
        x = bt.output
    return ForwardTrace(x0=x0, blocks=traces, config=config, params=params)
