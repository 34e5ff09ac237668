"""Desk-scale training harness.

Synthetic token-classification task, a binary tensor-file loader, the loss
and its exact gradient (verified against finite differences in the tests), two
optimizers with decoupled weight decay, and conditioning probes along the loss
trajectory.  The network head is the simplest thing that exercises the blocks:
mean-pool the final tokens, apply a linear classifier, cross-entropy.

The training forward is :func:`skiplab.model.network_forward` on the batch and
the backward is :func:`skiplab.model.network_backward` on its trace, the walks
that feed the Jacobians too.  Parameters, gradients and moments are
flat float64 vectors (:class:`FlatParams`), stepped in cache-sized blocks.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import condition_profile_for_params
from .init import TRUNC_BOUND, TRUNC_STD, InitSpec, init_network, truncated_normal
from .linalg import check_budget
from .model import (BlockParams, DivergenceError, ForwardTrace, ModelConfig,
                    NetworkParams, network_backward, network_forward)

OPTIMIZERS = ("sgd_momentum", "adam_decoupled")

# sgd_momentum's velocity decay; Adam's moment decay rates (b1, b2) and denominator offset.
SGD_MOMENTUM = 0.9
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# Optimizer block length: its six 128 KiB slices (p, g, m, v, scratch) fit a 2 MiB L2.
OPTIMIZER_BLOCK = 16384

# Tensor file layout (little-endian): magic, u32 version, u32 sample_count,
# u32 n, u32 d, u32 class_count, sample_count*n*d float64 tokens (sample-major,
# column-major per matrix), sample_count u32 labels.
MAGIC = b"SKLS"
VERSION = 1


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


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    init: InitSpec
    optimizer: str = "adam_decoupled"
    lr: float = 1e-3
    weight_decay: float = 0.0
    steps: int = 100
    batch_size: int = 16
    kappa_probe_every: int = 0  # 0 = never
    seed: int = 0

    def __post_init__(self):
        for key in ("lr", "weight_decay"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.kappa_probe_every < 0:
            raise ValueError("kappa_probe_every must be >= 0 (0 = never)")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainLog:
    losses: list[float] = field(default_factory=list)
    probes: list[tuple[int, list[dict]]] = field(default_factory=list)  # (step, metrics per layer)
    diverged: bool = False
    diverged_step: int | None = None
    # Where the forward went non-finite; None when the loss itself did.
    diverged_layer: int | None = None
    diverged_stage: str | None = None
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
    # The class templates and the tokens are each one array under the budget.
    check_budget(max(class_count, samples), n * d)
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


def _forward_batch(x: np.ndarray, params: NetworkParams,
                   config: ModelConfig) -> ForwardTrace:
    """The training forward: :func:`network_forward` on (batch, n, d) tokens.

    A named step of its own only so that the benchmark's tracer, which times
    ``harness._forward_batch`` by name, and ``tests/test_bench_tracer.py``,
    which counts its calls, keep measuring the training forward."""
    return network_forward(x, params, config)


def loss_and_gradients(params: FlatParams, grads: FlatParams, x: np.ndarray,
                       y: np.ndarray, config: ModelConfig) -> float:
    """Cross-entropy of mean-pooled final tokens; writes its exact gradient
    into ``grads`` (same layout as ``params``), contracting each weight pair
    of the backward over batch and tokens.  Raises
    :class:`~skiplab.model.DivergenceError` if the forward goes non-finite."""
    trace = _forward_batch(x, params.network, config)
    batch = x.shape[0]

    pooled = trace.output.mean(axis=1)
    logits = pooled @ params.head_w + params.head_b
    shifted = logits - logits.max(axis=1, keepdims=True)
    dlogits = np.exp(shifted)
    z = dlogits.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(batch), y]))

    dlogits /= z
    dlogits[np.arange(batch), y] -= 1.0
    dlogits /= batch
    np.matmul(pooled.T, dlogits, out=grads.head_w)
    np.sum(dlogits, axis=0, out=grads.head_b)
    dx = np.repeat((dlogits @ params.head_w.T)[:, None, :] / config.n, config.n, axis=1)

    for g, (_, pairs) in zip(reversed(grads.network.blocks), network_backward(trace, dx)):
        for name, (a, b) in pairs.items():
            if a is None:
                np.sum(b, axis=(0, 1), out=getattr(g, name))
            else:
                _stacked_outer(a, b, getattr(g, name))
    return loss


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def init_optimizer_state(params: FlatParams, config: TrainConfig) -> dict:
    """Zeroed moment vectors, two scratch vectors of one optimizer block each, and
    the per-element decay factor: 1 - lr*weight_decay on matrices, 1.0 on biases."""
    factor = 1.0 - config.lr * config.weight_decay
    decay = np.concatenate([np.full(t.size, factor if t.ndim >= 2 else 1.0)
                            for t in params.tensors])
    block = min(OPTIMIZER_BLOCK, decay.size)
    state = {"step": 0, "decay": decay, "scratch": (np.empty(block), np.empty(block))}
    if config.optimizer == "sgd_momentum":
        state["velocity"] = np.zeros_like(decay)
    else:
        state["m"], state["v"] = np.zeros_like(decay), np.zeros_like(decay)
    return state


def optimizer_step(params: FlatParams, grads: FlatParams, state: dict,
                   config: TrainConfig) -> None:
    """One update of ``params.vector`` and ``state``, in place.

    sgd_momentum: v <- SGD_MOMENTUM*v + g; p <- p - lr*v.
    adam_decoupled: m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g*g;
    p <- p - lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), in that order.
    Decoupled weight decay multiplies p by the state's decay factor before
    the gradient step.

    It runs block by block, in slices as long as the scratch vectors, so each
    block stays in cache for the whole sequence.  Every operation is elementwise
    with the same scalars, so the result is bit-identical to whole-vector passes.
    """
    t = state["step"] = state["step"] + 1
    (b1, b2), lr, block = ADAM_BETAS, config.lr, state["scratch"][0].size
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for lo in range(0, params.vector.size, block):
        at = slice(lo, lo + block)
        p, g = params.vector[at], grads.vector[at]
        buf, buf2 = (s[:p.size] for s in state["scratch"])
        if config.weight_decay:
            p *= state["decay"][at]
        if config.optimizer == "sgd_momentum":
            vel = state["velocity"][at]
            vel *= SGD_MOMENTUM
            vel += g
            p -= np.multiply(vel, lr, out=buf)
            continue
        m, v = state["m"][at], state["v"][at]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=buf)
        v *= b2
        np.multiply(g, 1.0 - b2, out=buf)
        v += np.multiply(buf, g, out=buf)
        np.sqrt(np.divide(v, c2, out=buf), out=buf)
        buf += ADAM_EPS
        np.divide(m, c1, out=buf2)
        buf2 *= lr
        p -= np.divide(buf2, buf, out=buf2)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train(dataset: Dataset, config: TrainConfig) -> TrainLog:
    """Deterministic single-threaded minibatch training on a non-empty dataset.

    Stops early with the divergence flag on the first non-finite forward or
    loss; the partial loss log is preserved, and so are a non-finite
    forward's layer and stage.  Conditioning probes run the analysis profile
    on the current weights (pure measurement, parameters untouched).
    """
    mc = config.model
    if dataset.n != mc.n or dataset.d_in != mc.d:
        raise ValueError(
            f"dataset shape (n={dataset.n}, d={dataset.d_in}) does not match "
            f"model (n={mc.n}, d={mc.d})")
    if len(dataset) == 0:
        raise ValueError("samples: the dataset holds no samples")
    rng = np.random.default_rng(config.seed)
    init = init_network(mc, config.init)
    params = FlatParams(init, truncated_normal(mc.d, dataset.class_count, TRUNC_STD,
                                               TRUNC_BOUND, np.random.default_rng(config.seed + 1)),
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
    probe_input = np.random.default_rng(config.seed).standard_normal((1, mc.n, mc.d))
    for step in range(config.steps):
        idx = rng.choice(size, size=batch_size, replace=False)
        try:
            if config.kappa_probe_every and step % config.kappa_probe_every == 0:
                log.probes.append((step, condition_profile_for_params(
                    params.network, mc, probe_input, include_param_jacobian=False)))
            loss = loss_and_gradients(params, grads, dataset.tokens[idx],
                                      dataset.labels[idx].astype(int), mc)
        except DivergenceError as exc:
            log.diverged_layer, log.diverged_stage = exc.layer, exc.stage
            loss = np.nan
        if not np.isfinite(loss):
            log.diverged = True
            log.diverged_step = step
            break
        log.losses.append(loss)
        optimizer_step(params, grads, state, config)
        params.network = views
    log.final_digest = params_digest(params.vector)
    return log

