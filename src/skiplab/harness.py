"""Desk-scale training harness.

Synthetic token-classification task, a binary tensor-file loader, a manual
batched backward pass (verified against finite differences in the tests), two
optimizers with decoupled weight decay, and conditioning probes along the loss
trajectory.  The network head is the simplest thing that exercises the blocks:
mean-pool the final tokens, apply a linear classifier, cross-entropy.

The training forward calls :func:`skiplab.model.self_attention` and
:func:`skiplab.model.mlp_forward` on the whole batch and adds only an optional
pre-LayerNorm (off by default; all conditioning claims are stated for the
un-normalized blocks).  Parameters, gradients and optimizer moments are flat
float64 vectors (:class:`FlatParams`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import ExperimentRecord, condition_profile_for_params
from .init import InitSpec, init_network, truncated_normal
from .model import (BlockParams, ModelConfig, NetworkParams,
                    activation_derivative, mlp_forward, self_attention)

OPTIMIZERS = ("sgd_momentum", "adam_decoupled")

# Tensor file layout (little-endian): magic, u32 version, u32 sample_count,
# u32 n, u32 d, u32 class_count, sample_count*n*d float64 tokens (sample-major,
# column-major per matrix), sample_count u32 labels.
MAGIC = b"SKLS"
VERSION = 1
_LN_EPS = 1e-6


class TensorFileError(ValueError):
    """Malformed tensor file; the message names the offending field."""


@dataclass
class Dataset:
    tokens: np.ndarray  # (samples, n, d)
    labels: np.ndarray  # (samples,) int
    class_count: int

    def __post_init__(self):
        if self.tokens.ndim != 3:
            raise ValueError("tokens must be (samples, n, d)")
        if self.labels.shape != (self.tokens.shape[0],):
            raise ValueError("labels must match sample count")
        if self.labels.size and int(self.labels.max()) >= self.class_count:
            raise ValueError("label out of range for class_count")

    @property
    def n(self) -> int:
        return self.tokens.shape[1]

    @property
    def d_in(self) -> int:
        return self.tokens.shape[2]

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def samples(self):
        return [(self.tokens[i], int(self.labels[i])) for i in range(len(self))]


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    init: InitSpec
    optimizer: str = "adam_decoupled"
    lr: float = 1e-3
    weight_decay: float = 0.0
    momentum: float = 0.9
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    steps: int = 100
    batch_size: int = 16
    kappa_probe_every: int = 0  # 0 = never
    use_layernorm: bool = False
    head_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainLog:
    losses: list[float] = field(default_factory=list)
    probes: list[tuple[int, list[ExperimentRecord]]] = field(default_factory=list)
    diverged: bool = False
    diverged_step: int | None = None
    final_digest: str = ""


def synth_task(n: int, d: int, class_count: int, samples: int, noise: float,
               seed: int) -> Dataset:
    """Classification dataset: one random orthonormal-row token template per
    class, samples are template plus Gaussian noise.

    At noise=0 a nearest-template classifier is exact, so the task is
    separable by construction; labels are drawn uniformly."""
    if class_count < 2:
        raise ValueError("class_count must be >= 2")
    if n > d:
        raise ValueError("orthonormal row templates need n <= d")
    rng = np.random.default_rng(seed)
    templates = np.empty((class_count, n, d))
    for c in range(class_count):
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        templates[c] = q.T
    labels = rng.integers(0, class_count, size=samples)
    tokens = templates[labels] + noise * rng.standard_normal((samples, n, d))
    return Dataset(tokens=tokens, labels=labels.astype(np.uint32), class_count=class_count)


def save_tensor_file(path, dataset: Dataset) -> None:
    """Write the binary tensor format (see module docstring)."""
    s, n, d = dataset.tokens.shape
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<5I", VERSION, s, n, d, dataset.class_count))
        payload = dataset.tokens.transpose(0, 2, 1).reshape(s, n * d)
        f.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes())


def load_tensor_file(path) -> Dataset:
    """Read the binary tensor format, rejecting any structural deviation."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise TensorFileError("bad magic: not a tensor file")
    if len(raw) < 24:
        raise TensorFileError("truncated header: version/sample_count/n/d/class_count missing")
    version, s, n, d, class_count = struct.unpack("<5I", raw[4:24])
    if version != VERSION:
        raise TensorFileError(f"unsupported version {version}")
    if n < 1 or d < 1:
        raise TensorFileError(f"invalid shape fields n={n}, d={d}")
    token_bytes = s * n * d * 8
    label_bytes = s * 4
    body = len(raw) - 24
    if body != token_bytes + label_bytes:
        raise TensorFileError(
            f"payload has {body} bytes but header (sample_count={s}, n={n}, "
            f"d={d}) requires {token_bytes} token bytes + {label_bytes} label bytes")
    flat = np.frombuffer(raw, dtype="<f8", count=s * n * d, offset=24)
    if not np.all(np.isfinite(flat)):
        raise TensorFileError("non-finite entries in token payload")
    # Column-major per matrix: stored as d-major rows of X^T.
    tokens = flat.reshape(s, d, n).transpose(0, 2, 1).copy()
    labels = np.frombuffer(raw, dtype="<u4", count=s, offset=24 + token_bytes).copy()
    if labels.size and int(labels.max()) >= class_count:
        raise TensorFileError(
            f"labels exceed class_count={class_count} (max label {int(labels.max())})")
    return Dataset(tokens=tokens, labels=labels, class_count=class_count)


# ---------------------------------------------------------------------------
# Flat parameter buffer
# ---------------------------------------------------------------------------


class FlatParams:
    """Training tensors as C-order views into one float64 ``vector``: each
    block's in :class:`BlockParams` field order (W_Q, W_K, W_V, W_O, W1, b1,
    W2, b2), then the head's W and b.  ``tensors``, ``network``, ``head_w`` and
    ``head_b`` are views, so an in-place update of the vector moves them all."""

    def __init__(self, network: NetworkParams, head_w: np.ndarray, head_b: np.ndarray):
        blocks = [[t for t in (getattr(bp, f.name) for f in fields(bp)) if t is not None]
                  for bp in network.blocks]
        tensors = [t for block in blocks for t in block] + [head_w, head_b]
        self.vector = np.concatenate([np.ravel(t) for t in tensors], dtype=float)
        ends = np.cumsum([t.size for t in tensors])
        self.tensors = [self.vector[e - t.size:e].reshape(t.shape) for t, e in zip(tensors, ends)]
        views = iter(self.tensors)
        self.network = NetworkParams([BlockParams(*(next(views) for _ in b)) for b in blocks])
        self.head_w, self.head_b = self.tensors[-2:]

    def zeros_like(self) -> FlatParams:
        out = FlatParams(self.network, self.head_w, self.head_b)
        out.vector[:] = 0.0
        return out


def params_digest(vector: np.ndarray) -> str:
    """SHA-256 over the raw little-endian float64 bytes, in layout order."""
    return hashlib.sha256(np.ascontiguousarray(vector, dtype="<f8").tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Batched forward / backward
# ---------------------------------------------------------------------------


def _stacked_outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = sum over (batch, token) of a[b, n, :]^T b[b, n, :], as one matmul."""
    np.matmul(a.reshape(-1, a.shape[-1]).T, b.reshape(-1, b.shape[-1]), out=out)


def _layernorm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    return xc * inv, inv


def _layernorm_backward(dy: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    mean_dy = dy.mean(axis=-1, keepdims=True)
    mean_dyy = (dy * y).mean(axis=-1, keepdims=True)
    return (dy - mean_dy - y * mean_dyy) * inv


def _forward_batch(x: np.ndarray, params: NetworkParams, config: ModelConfig,
                   use_layernorm: bool) -> tuple[np.ndarray, list[tuple]]:
    """The block stack on (batch, n, d) tokens, with an optional LayerNorm in
    front of each stage; caches (z, inv, attention, z2, inv2, mlp) per layer."""
    caches = []
    for bp in params.blocks:
        z, inv = _layernorm(x) if use_layernorm else (x, None)
        sa = self_attention(z, bp, config)
        x_attn = x + sa.out if config.use_skip else sa.out
        z2 = inv2 = mlp = None
        x = x_attn
        if config.use_mlp:
            z2, inv2 = _layernorm(x_attn) if use_layernorm else (x_attn, None)
            mlp = mlp_forward(z2, bp, config)
            x = x_attn + mlp.out if config.use_skip else mlp.out
        caches.append((z, inv, sa, z2, inv2, mlp))
    return x, caches


def loss_and_gradients(params: FlatParams, grads: FlatParams, x: np.ndarray,
                       y: np.ndarray, config: ModelConfig,
                       use_layernorm: bool = False) -> float:
    """Cross-entropy of mean-pooled final tokens; writes its exact gradient
    into ``grads`` (same layout as ``params``)."""
    out, caches = _forward_batch(x, params.network, config, use_layernorm)
    batch = x.shape[0]

    pooled = out.mean(axis=1)
    logits = pooled @ params.head_w + params.head_b
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(batch), y]))

    dlogits = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    dlogits[np.arange(batch), y] -= 1.0
    dlogits /= batch
    np.matmul(pooled.T, dlogits, out=grads.head_w)
    np.sum(dlogits, axis=0, out=grads.head_b)
    dx = np.repeat((dlogits @ params.head_w.T)[:, None, :] / config.n, config.n, axis=1)

    for bp, g, (z, inv, sa, z2, inv2, mlp) in zip(
            reversed(params.network.blocks), reversed(grads.network.blocks), reversed(caches)):
        if config.use_mlp:
            _stacked_outer(mlp.act, dx, g.mlp_W2)
            np.sum(dx, axis=(0, 1), out=g.mlp_b2)
            dpre = (dx @ bp.mlp_W2.T) * activation_derivative(
                config.activation, mlp.pre, mlp.cdf)
            _stacked_outer(z2, dpre, g.mlp_W1)
            np.sum(dpre, axis=(0, 1), out=g.mlp_b1)
            dz2 = dpre @ bp.mlp_W1.T
            if use_layernorm:
                dz2 = _layernorm_backward(dz2, z2, inv2)
            dx_attn = dz2 + (dx if config.use_skip else 0.0)
        else:
            dx_attn = dx

        _stacked_outer(sa.o, dx_attn, g.W_O)
        do = dx_attn @ bp.W_O.T
        dq = np.empty_like(sa.q)
        dk = np.empty_like(sa.k)
        dv = np.empty_like(sa.v)
        for i, a in enumerate(sa.attention):
            blk = bp.head_slice(i, config.d_h)
            da = do[..., blk] @ sa.v[..., blk].transpose(0, 2, 1)
            dv[..., blk] = a.transpose(0, 2, 1) @ do[..., blk]
            dm = a * (da - (da * a).sum(axis=-1, keepdims=True)) / config.attention_scale
            dq[..., blk] = dm @ sa.k[..., blk]
            dk[..., blk] = dm.transpose(0, 2, 1) @ sa.q[..., blk]
        _stacked_outer(z, dq, g.W_Q)
        _stacked_outer(z, dk, g.W_K)
        _stacked_outer(z, dv, g.W_V)
        dz = dq @ bp.W_Q.T + dk @ bp.W_K.T + dv @ bp.W_V.T
        if use_layernorm:
            dz = _layernorm_backward(dz, z, inv)
        dx = dz + (dx_attn if config.use_skip else 0.0)
    return loss


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def init_optimizer_state(params: FlatParams, config: TrainConfig) -> dict:
    """Zeroed moment vectors, two scratch vectors, and the per-element decay
    factor: 1 - lr*weight_decay on matrices (ndim >= 2), 1.0 on biases."""
    factor = 1.0 - config.lr * config.weight_decay
    decay = np.concatenate([np.full(t.size, factor if t.ndim >= 2 else 1.0)
                            for t in params.tensors])
    state = {"step": 0, "decay": decay,
             "scratch": (np.empty_like(decay), np.empty_like(decay))}
    if config.optimizer == "sgd_momentum":
        state["velocity"] = np.zeros_like(decay)
    else:
        state["m"], state["v"] = np.zeros_like(decay), np.zeros_like(decay)
    return state


def optimizer_step(params: FlatParams, grads: FlatParams, state: dict,
                   config: TrainConfig) -> None:
    """One update of ``params.vector`` and ``state``, in place.

    sgd_momentum: v <- momentum*v + g; p <- p - lr*v.
    adam_decoupled: m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g*g;
    p <- p - lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), in that order.
    Decoupled weight decay multiplies p by the state's decay factor before
    the gradient step.
    """
    t = state["step"] = state["step"] + 1
    p, g, lr = params.vector, grads.vector, config.lr
    buf, buf2 = state["scratch"]
    if config.weight_decay:
        p *= state["decay"]
    if config.optimizer == "sgd_momentum":
        vel = state["velocity"]
        vel *= config.momentum
        vel += g
        p -= np.multiply(vel, lr, out=buf)
        return
    b1, b2 = config.betas
    m, v = state["m"], state["v"]
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=buf)
    v *= b2
    np.multiply(g, 1.0 - b2, out=buf)
    v += np.multiply(buf, g, out=buf)
    np.sqrt(np.divide(v, 1.0 - b2**t, out=buf), out=buf)
    buf += config.eps
    np.divide(m, 1.0 - b1**t, out=buf2)
    buf2 *= lr
    p -= np.divide(buf2, buf, out=buf2)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train(dataset: Dataset, config: TrainConfig) -> TrainLog:
    """Deterministic single-threaded minibatch training.

    Stops early with the divergence flag on the first non-finite loss; the
    partial loss log is preserved.  Conditioning probes run the analysis
    profile on the current weights (pure measurement, parameters untouched).
    """
    mc = config.model
    if dataset.n != mc.n or dataset.d_in != mc.d:
        raise ValueError(
            f"dataset shape (n={dataset.n}, d={dataset.d_in}) does not match "
            f"model (n={mc.n}, d={mc.d})")
    rng = np.random.default_rng(config.seed)
    init = init_network(mc, config.init)
    params = FlatParams(init, truncated_normal(mc.d, dataset.class_count, config.head_std,
                                               2.0, np.random.default_rng(config.seed + 1)),
                        np.zeros(dataset.class_count))
    # Step 0 runs on the init arrays: mlp_orthogonal's W1 is column-major, and
    # BLAS rounds products with it differently than with its row-major copy.
    # This keeps runs bit-identical to the recorded reference runs.
    views, params.network = params.network, init
    grads = params.zeros_like()
    state = init_optimizer_state(params, config)

    log = TrainLog()
    size = len(dataset)
    batch_size = min(config.batch_size, size)
    for step in range(config.steps):
        if config.kappa_probe_every and step % config.kappa_probe_every == 0:
            probe_input = np.random.default_rng(config.seed).standard_normal((mc.n, mc.d))
            log.probes.append((step, condition_profile_for_params(
                params.network, mc, [probe_input], config.seed, include_param_jacobian=False)))
        idx = rng.choice(size, size=batch_size, replace=False)
        loss = loss_and_gradients(params, grads, dataset.tokens[idx],
                                  dataset.labels[idx].astype(int), mc, config.use_layernorm)
        if not np.isfinite(loss):
            log.diverged = True
            log.diverged_step = step
            break
        log.losses.append(loss)
        optimizer_step(params, grads, state, config)
        params.network = views
    log.final_digest = params_digest(params.vector)
    return log

