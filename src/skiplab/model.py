"""Forward computation of transformer blocks, with and without skip connections.

The block is the bare analyzed form: no normalization layers, no dropout, no
masking.  A block maps X -> X_attn -> X_out where

    X_attn = [X +] sum_i A_i X W_V,i W_O,i        (attention stage)
    X_out  = [X_attn +] MLP(X_attn)               (MLP stage)

with the bracketed identity paths present only when skips are enabled.  The
attention matrix of head i is the row-softmax of X W_Q,i W_K,i^T X^T divided
by ``attention_scale``.  Heads are one tensor axis, laid out by
:func:`split_heads` and nowhere else.

:func:`network_forward` is the only walk over the layers, for one (n, d)
sample or a (..., n, d) batch, and :func:`network_backward` its reverse twin:
the trainer runs it on its batched trace and the loss cotangent, the parameter
Jacobians on a sample's or a batch's trace and unit cotangents.
:func:`self_attention`, :func:`mlp_forward` and :func:`attention_backward` are
the block's only implementation.

A block's weights may carry leading stack axes too, (..., d, d) for W_Q, W_K,
W_V and W_O, which broadcast with the token batch: the finite-difference
oracle runs one forward for a whole stack of perturbed weight sets.  Any subset
of a block's weights may be stacked; a stacked bias is (..., 1, width).  The
backward takes stacked weights too.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import check_budget

ACTIVATIONS = ("gelu", "relu", "identity")

# The smallest normal float64; network_backward flushes cotangents below it.
_TINY = np.finfo(float).tiny


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


def check_stack_budget(config: ModelConfig) -> None:
    """BudgetError before a stack of L blocks is built past the element
    budget: L x (4d^2 + 2d*mlp_hidden + d + mlp_hidden) weights in all, which
    also bounds each weight and the trainer's flat parameter vector."""
    d, m = config.d, config.mlp_hidden if config.use_mlp else 0
    check_budget(config.L, 4 * d * d + (2 * d * m + d + m if m else 0))


@dataclass
class BlockParams:
    """Weights of one block, W_Q, W_K, W_V and W_O each d x d, split into
    heads by :func:`split_heads`."""

    W_Q: np.ndarray
    W_K: np.ndarray
    W_V: np.ndarray
    W_O: np.ndarray
    mlp_W1: np.ndarray | None = None
    mlp_b1: np.ndarray | None = None
    mlp_W2: np.ndarray | None = None
    mlp_b2: np.ndarray | None = None


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
    """Output, the (..., h, n, d_h) projections q, k and v, the (..., n, d)
    head concatenation o and the (..., h, n, n) attention."""

    out: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    attention: np.ndarray


class MLP(NamedTuple):
    """MLP output, pre-activation, activation and (gelu only) the GELU cdf."""

    out: np.ndarray
    pre: np.ndarray
    act: np.ndarray
    cdf: np.ndarray | None


@functools.cache
def _scipy_erf():
    """scipy.special.erf, the same ufunc object, read once per process from
    the extension module that defines it: scipy.special's package init (about
    290 modules and 24 MB) never runs.  The extension leaves sys.modules
    again, or a later ``import scipy.special`` would not bind it.  With
    scipy.special loaded already, or erf kept elsewhere, it is imported."""
    import importlib.machinery
    import importlib.util
    name = "scipy.special._special_ufuncs"
    scipy_spec = None if "scipy.special" in sys.modules else importlib.util.find_spec("scipy")
    spec = scipy_spec and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, "special") for p in scipy_spec.submodule_search_locations])
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.modules.pop(name, None)
        if hasattr(module, "erf"):
            return module.erf
    from scipy.special import erf
    return erf


def activation(name: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(act, cdf): the activation of x, gelu being x * Phi(x), and for gelu the
    standard-normal cdf Phi(x) that its derivative reuses (None otherwise)."""
    if name == "gelu":
        cdf = 0.5 * (1.0 + _scipy_erf()(x / np.sqrt(2.0)))
        return x * cdf, cdf
    if name == "relu":
        return np.maximum(x, 0.0), None
    if name == "identity":
        return x, None
    raise ValueError(f"unknown activation {name!r}")


def activation_derivative(name: str, x: np.ndarray,
                          cdf: np.ndarray | None = None) -> np.ndarray:
    """Elementwise derivative; for gelu, ``cdf`` = Phi(x) is reused when given."""
    if name == "gelu":
        cdf = activation(name, x)[1] if cdf is None else cdf
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return cdf + x * pdf
    if name == "relu":
        return (x > 0.0).astype(float)
    if name == "identity":
        return np.ones_like(x)
    raise ValueError(f"unknown activation {name!r}")


def split_heads(t: np.ndarray, h: int) -> np.ndarray:
    """The head layout: a view (..., r, d) -> (..., h, r, d_h) whose head i
    is column block i, t[..., i*d_h:(i+1)*d_h].  Head i of W_Q, W_K and W_V
    is split_heads(W, h)[..., i, :, :], and of W_O it is the transpose of
    split_heads(W_O^T, h)[..., i, :, :] (row block i)."""
    return t.reshape(*t.shape[:-1], h, -1).swapaxes(-2, -3)


def merge_heads(t: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: (..., h, r, d_h) -> (..., r, h*d_h)."""
    t = t.swapaxes(-2, -3)
    return t.reshape(*t.shape[:-2], -1)


def row_softmax(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m / temperature, stabilized by row-max subtraction.

    numpy reduces along a short last axis one row at a time, about 65 ns a
    row, and a stacked forward of the finite-difference oracle holds
    thousands of short rows.  So the row max is one elementwise reduction
    over the rows of a contiguous z^T: a max is exact, so the bits are those
    of the row-wise max.  The row sum stays row-wise, because its pairwise
    order fixes the bits.  The division by the temperature makes z a private
    copy, so the shift, exp and normalization run in place on it.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    z = np.asarray(m, dtype=float) / temperature
    n = z.shape[-1]
    z -= np.ascontiguousarray(z.reshape(-1, n).T).max(axis=0).reshape(*z.shape[:-1], 1)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def self_attention(x: np.ndarray, params: BlockParams, config: ModelConfig) -> Attention:
    """Multi-head self-attention Concat_i(A_i X W_V,i) W_O on (..., n, d) tokens.

    q, k and v are projected once and split by head; every head's attention
    is one batched matmul.  The concatenation times W_O equals
    sum_i A_i X W_V,i W_O,i, the head-summed form the Jacobians are written
    in (up to rounding for h > 1).  Stacked weights broadcast with the token
    batch, so ``o`` takes the broadcast shape of q, k and v.
    """
    q, k, v = (split_heads(x @ w, config.h) for w in (params.W_Q, params.W_K, params.W_V))
    a = row_softmax(q @ k.swapaxes(-1, -2), config.attention_scale)
    o = merge_heads(a @ v)
    return Attention(o @ params.W_O, q, k, v, o, a)


def mlp_forward(x: np.ndarray, params: BlockParams, config: ModelConfig) -> MLP:
    """Two-layer MLP with biases on (..., n, d) tokens; stacked weights
    broadcast with the token batch."""
    pre = x @ params.mlp_W1 + params.mlp_b1
    act, cdf = activation(config.activation, pre)
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

    Leading axes are a batch: every array in the trace keeps them, broadcast
    with any stack axes of the weights (see the module docstring).  Raises
    :class:`DivergenceError` naming the first layer whose output goes
    non-finite (deep skipless stacks can overflow); never returns NaNs.  An
    attention past the ``linalg`` element budget raises BudgetError first.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-2:] != (config.n, config.d):
        raise ValueError(f"input shape {x0.shape} does not end in (n, d) = "
                         f"{(config.n, config.d)}")
    if len(params.blocks) != config.L:
        raise ValueError(f"{len(params.blocks)} blocks for L={config.L}")
    check_budget(x0.size // config.d * config.h, config.n)
    traces = []
    x = x0
    for layer, bp in enumerate(params.blocks):
        bt = block_forward(x, bp, config)
        for stage, out in (("attention stage", bt.post_attention), ("mlp stage", bt.output)):
            if not np.all(np.isfinite(out)):
                raise DivergenceError(layer, stage)
        traces.append(bt)
        x = bt.output
    return ForwardTrace(x0=x0, blocks=traces, config=config, params=params)


def attention_backward(bt: BlockTrace, bp: BlockParams, config: ModelConfig,
                       dout: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(input, cotangent) factor pairs of W_Q, W_K, W_V and W_O for a
    cotangent ``dout`` on the attention output (skip excluded), which may carry
    leading axes beyond the trace's; a weight's gradient is input^T cotangent,
    summed over tokens and whichever leading axes the caller contracts."""
    sa, a = bt.sa, bt.sa.attention
    do = split_heads(dout @ bp.W_O.swapaxes(-1, -2), config.h)
    da = do @ sa.v.swapaxes(-1, -2)
    dv = a.swapaxes(-1, -2) @ do
    dm = a * (da - (da * a).sum(axis=-1, keepdims=True)) / config.attention_scale
    dq = dm @ sa.k
    dk = dm.swapaxes(-1, -2) @ sa.q
    return {"W_Q": (bt.x_in, merge_heads(dq)), "W_K": (bt.x_in, merge_heads(dk)),
            "W_V": (bt.x_in, merge_heads(dv)), "W_O": (sa.o, dout)}


def network_backward(trace: ForwardTrace, cotangent: np.ndarray) -> Iterator[tuple[int, dict]]:
    """The reverse walk of :func:`network_forward`: per layer, last first,
    (layer, pairs) for a ``cotangent`` on the output, which may carry leading
    axes beyond the trace's.  ``pairs`` maps each :class:`BlockParams` field to
    its (input, cotangent) factor pair, input None for a bias; the caller
    contracts them.  Skips included; layer 0's input cotangent is not formed."""
    cfg = trace.config
    dx = cotangent
    for layer in reversed(range(cfg.L)):
        bt, bp = trace.blocks[layer], trace.params.blocks[layer]
        pairs, dx_attn = {}, dx
        if cfg.use_mlp:
            dpre = (dx @ bp.mlp_W2.swapaxes(-1, -2)) * activation_derivative(
                cfg.activation, bt.mlp.pre, bt.mlp.cdf)
            # Far-negative pre-activations give subnormal gelu' and cotangents,
            # which slow the matmuls that read dpre by up to 30x.
            dpre[np.abs(dpre) < _TINY] = 0.0
            pairs = {"mlp_W1": (bt.post_attention, dpre), "mlp_b1": (None, dpre),
                     "mlp_W2": (bt.mlp.act, dx), "mlp_b2": (None, dx)}
            dx_attn = dpre @ bp.mlp_W1.swapaxes(-1, -2)
            if cfg.use_skip:
                dx_attn += dx
        pairs.update(attention_backward(bt, bp, cfg, dx_attn))
        yield layer, pairs
        if layer:
            dx = (pairs["W_Q"][1] @ bp.W_Q.swapaxes(-1, -2)
                  + pairs["W_K"][1] @ bp.W_K.swapaxes(-1, -2)
                  + pairs["W_V"][1] @ bp.W_V.swapaxes(-1, -2))
            if cfg.use_skip:
                dx += dx_attn
