import hashlib
import itertools

import numpy as np
import pytest

from skiplab import harness
from skiplab.harness import (Dataset, FlatParams, TensorFileError, TrainConfig,
                             TrainLog, _forward_batch, init_optimizer_state,
                             load_tensor_file, loss_and_gradients, optimizer_step,
                             params_digest, save_tensor_file, synth_task, train)
from skiplab.init import InitSpec, init_network
from skiplab.jacobian import finite_difference_jacobian
from skiplab.model import BlockParams, ModelConfig, NetworkParams, network_forward
from conftest import traced_peak


def toy_model(**kw):
    base = dict(L=2, n=4, d=8, h=1, attention_scale=2.0, activation="gelu",
                use_skip=True, use_mlp=True, mlp_hidden=8)
    base.update(kw)
    return ModelConfig(**base)


def toy_train_config(**kw):
    base = dict(model=toy_model(), init=InitSpec(scheme="proposed", seed=0),
                optimizer="adam_decoupled", lr=1e-3, steps=5, batch_size=4,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


# --- synthetic task -----------------------------------------------------------

def test_synth_task_noiseless_nearest_template_is_exact():
    ds = synth_task(n=4, d=16, class_count=5, samples=200, noise=0.0, seed=0)
    rng = np.random.default_rng(0)
    templates = np.empty((5, 4, 16))
    for c in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((16, 4)))
        templates[c] = q.T
    for x, label in zip(ds.tokens, ds.labels):
        dists = [np.linalg.norm(x - t) for t in templates]
        assert int(np.argmin(dists)) == label


def test_synth_task_deterministic():
    a = synth_task(4, 8, 3, 50, 0.2, seed=1)
    b = synth_task(4, 8, 3, 50, 0.2, seed=1)
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.labels, b.labels)


def test_synth_task_class_priors_uniform():
    ds = synth_task(2, 4, 5, 10_000, 0.1, seed=2)
    counts = np.bincount(ds.labels.astype(int), minlength=5)
    # Multinomial: sd of each count is sqrt(N p (1-p)) = 40.
    assert np.max(np.abs(counts - 2000)) < 3 * 40


def test_synth_task_validation():
    with pytest.raises(ValueError):
        synth_task(4, 8, 1, 10, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_task(16, 8, 2, 10, 0.0, seed=0)


# --- tensor file format ---------------------------------------------------------

def test_tensor_file_roundtrip_bit_exact(tmp_path):
    ds = synth_task(3, 5, 4, 17, 0.3, seed=3)
    path = tmp_path / "data.skls"
    save_tensor_file(path, ds)
    back = load_tensor_file(path)
    assert np.array_equal(back.tokens, ds.tokens)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_count == ds.class_count


def test_tensor_file_bad_magic(tmp_path):
    path = tmp_path / "bad.skls"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(TensorFileError, match="magic"):
        load_tensor_file(path)


def test_tensor_file_truncated_payload(tmp_path):
    ds = synth_task(3, 5, 4, 8, 0.0, seed=4)
    path = tmp_path / "trunc.skls"
    save_tensor_file(path, ds)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(TensorFileError, match="requires"):
        load_tensor_file(path)


def test_tensor_file_header_shape_mismatch_names_n(tmp_path):
    import struct
    ds = synth_task(3, 5, 4, 8, 0.0, seed=5)
    path = tmp_path / "warp.skls"
    save_tensor_file(path, ds)
    raw = bytearray(path.read_bytes())
    raw[12:16] = struct.pack("<I", 7)  # corrupt the n field
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="n=7"):
        load_tensor_file(path)


def test_tensor_file_nonfinite_rejected(tmp_path):
    ds = synth_task(2, 3, 2, 4, 0.0, seed=6)
    ds.tokens[1, 0, 0] = np.nan
    path = tmp_path / "nan.skls"
    save_tensor_file(path, ds)
    with pytest.raises(TensorFileError, match="non-finite"):
        load_tensor_file(path)


def test_tensor_file_label_range(tmp_path):
    ds = synth_task(2, 3, 4, 4, 0.0, seed=7)
    path = tmp_path / "lab.skls"
    save_tensor_file(path, ds)
    raw = bytearray(path.read_bytes())
    raw[-4:] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="class_count"):
        load_tensor_file(path)


def test_tensor_file_missing(tmp_path):
    with pytest.raises(OSError):
        load_tensor_file(tmp_path / "absent.skls")


# --- optimizers ------------------------------------------------------------------

def head_only(head_w, head_b):
    """A flat buffer holding only a head: one matrix and one bias."""
    return FlatParams(NetworkParams([]), np.asarray(head_w, dtype=float),
                      np.asarray(head_b, dtype=float))


def test_adam_zero_gradient_no_motion():
    cfg = toy_train_config(lr=0.1, weight_decay=0.0)
    params = head_only(np.ones((3, 3)), np.full(3, 2.0))
    state = init_optimizer_state(params, cfg)
    optimizer_step(params, params.zeros_like(), state, cfg)
    assert np.array_equal(params.head_w, np.ones((3, 3)))
    assert np.array_equal(params.head_b, np.full(3, 2.0))


@pytest.mark.parametrize("opt", ["adam_decoupled", "sgd_momentum"])
def test_weight_decay_only_shrinks_matrices(opt):
    cfg = toy_train_config(optimizer=opt, lr=0.1, weight_decay=0.5)
    params = head_only(np.ones((2, 2)), np.ones(2))  # matrix decays, bias does not
    state = init_optimizer_state(params, cfg)
    optimizer_step(params, params.zeros_like(), state, cfg)
    assert np.allclose(params.head_w, (1.0 - 0.1 * 0.5) * np.ones((2, 2)), atol=1e-15)
    assert np.array_equal(params.head_b, np.ones(2))


def _quadratic_trace(cfg, steps):
    """Iterates of every coordinate of f(x) = x^2 from x0 = 1 (one 1x1 matrix
    and one bias; no decay, so both follow the same trace)."""
    params = head_only([[1.0]], [1.0])
    grads = params.zeros_like()
    state = init_optimizer_state(params, cfg)
    seen = []
    for _ in range(steps):
        np.multiply(params.vector, 2.0, out=grads.vector)
        optimizer_step(params, grads, state, cfg)
        assert params.vector[0] == params.vector[1]
        seen.append(params.head_w[0, 0])
    return seen


def test_adam_three_step_trace_on_quadratic():
    """Frozen hand-rolled trace of Adam on f(x) = x^2 from x0 = 1, lr = 0.1,
    betas (0.9, 0.999), eps 1e-8."""
    cfg = toy_train_config(optimizer="adam_decoupled", lr=0.1,
                           weight_decay=0.0)
    expected = [0.9000000005, 0.8004122286917928, 0.7015862729460303]
    assert np.allclose(_quadratic_trace(cfg, 3), expected, rtol=0, atol=1e-15)


def test_sgd_momentum_two_steps():
    cfg = toy_train_config(optimizer="sgd_momentum", lr=0.1, weight_decay=0.0)
    assert harness.SGD_MOMENTUM == 0.9
    x1, x2 = _quadratic_trace(cfg, 2)
    # v1 = 2, x1 = 1 - 0.2 = 0.8
    assert x1 == pytest.approx(0.8, abs=1e-15)
    # v2 = 0.9*2 + 1.6 = 3.4, x2 = 0.8 - 0.34 = 0.46
    assert x2 == pytest.approx(0.46, abs=1e-15)


def whole_vector_step(p, g, state, config):
    """The unblocked update: each ufunc in one pass over the whole vector."""
    t = state["step"] = state["step"] + 1
    lr = config.lr
    buf, buf2 = np.empty_like(p), np.empty_like(p)
    if config.weight_decay:
        p *= state["decay"]
    if config.optimizer == "sgd_momentum":
        vel = state["velocity"]
        vel *= harness.SGD_MOMENTUM
        vel += g
        p -= np.multiply(vel, lr, out=buf)
        return
    b1, b2 = harness.ADAM_BETAS
    m, v = state["m"], state["v"]
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=buf)
    v *= b2
    np.multiply(g, 1.0 - b2, out=buf)
    v += np.multiply(buf, g, out=buf)
    np.sqrt(np.divide(v, 1.0 - b2**t, out=buf), out=buf)
    buf += harness.ADAM_EPS
    np.divide(m, 1.0 - b1**t, out=buf2)
    buf2 *= lr
    p -= np.divide(buf2, buf, out=buf2)


@pytest.mark.parametrize("size", [1, 3, 4, 5, 17])  # 1, B-1, B, B+1, 3B+5 at B = 4
@pytest.mark.parametrize("opt", ["adam_decoupled", "sgd_momentum"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_blocked_step_equals_whole_vector_step(monkeypatch, size, opt, weight_decay):
    """Five blocked steps leave parameters and moments bit-identical to the
    whole-vector update, for vectors shorter than, equal to and spanning
    several uneven blocks; the vector holds a matrix (decayed) and a bias."""
    monkeypatch.setattr(harness, "OPTIMIZER_BLOCK", 4)
    rng = np.random.default_rng(size)
    cfg = toy_train_config(optimizer=opt, lr=0.1, weight_decay=weight_decay)
    params = head_only(rng.standard_normal((size // 2, 1)), rng.standard_normal(size - size // 2))
    grads = params.zeros_like()
    state = init_optimizer_state(params, cfg)
    assert [b.size for b in state["scratch"]] == [min(4, size)] * 2
    p = params.vector.copy()
    oracle = {k: v.copy() for k, v in state.items() if k not in ("step", "scratch")}
    oracle["step"] = 0
    moments = ["velocity"] if opt == "sgd_momentum" else ["m", "v"]
    for _ in range(5):
        grads.vector[:] = rng.standard_normal(size)
        optimizer_step(params, grads, state, cfg)
        whole_vector_step(p, grads.vector, oracle, cfg)
        assert np.array_equal(params.vector, p)
        for key in moments:
            assert np.array_equal(state[key], oracle[key])


@pytest.mark.parametrize("opt", ["adam_decoupled", "sgd_momentum"])
def test_optimizer_state_is_block_sized_at_c9_shape(opt):
    """At the C9 shape the scratch vectors hold one block, and a step
    allocates less than one block's bytes: no full-length temporaries."""
    mc = ModelConfig(L=6, n=8, d=64, h=1, attention_scale=8.0, activation="gelu",
                     use_skip=False, use_mlp=True, mlp_hidden=128)
    params = FlatParams(init_network(mc, InitSpec(scheme="proposed", seed=0)),
                        np.ones((64, 10)), np.zeros(10))
    assert params.vector.size == 198410
    cfg = TrainConfig(model=mc, init=InitSpec(scheme="proposed", seed=0),
                      optimizer=opt, weight_decay=0.1)
    state = init_optimizer_state(params, cfg)
    block = min(harness.OPTIMIZER_BLOCK, params.vector.size)
    assert [b.shape for b in state["scratch"]] == [(block,)] * 2
    grads = params.zeros_like()
    grads.vector[:] = 1e-3
    optimizer_step(params, grads, state, cfg)  # warm up any one-time allocations
    peak = traced_peak(lambda: optimizer_step(params, grads, state, cfg))
    assert peak < block * 8


# --- flat parameter buffer -------------------------------------------------------

def test_flat_params_layout_and_digest():
    """Tensors sit in block field order, then the head, each C order; the
    digest of the vector is the digest of the tensors' bytes in that order."""
    mc = toy_model()
    net = init_network(mc, InitSpec(scheme="proposed", seed=0))
    head_w, head_b = np.arange(24.0).reshape(8, 3), np.ones(3)
    params = FlatParams(net, head_w, head_b)
    order = [t for bp in net.blocks for t in (bp.W_Q, bp.W_K, bp.W_V, bp.W_O, bp.mlp_W1,
                                              bp.mlp_b1, bp.mlp_W2, bp.mlp_b2)]
    order += [head_w, head_b]
    assert np.array_equal(params.vector, np.concatenate([t.ravel() for t in order]))
    sha = hashlib.sha256(b"".join(np.ascontiguousarray(t).tobytes() for t in order))
    assert params_digest(params.vector) == sha.hexdigest()
    params.vector += 1.0  # every view moves with the vector
    assert np.array_equal(params.network.blocks[1].mlp_b2, net.blocks[1].mlp_b2 + 1.0)
    assert np.array_equal(params.head_w, head_w + 1.0)


# --- one forward -----------------------------------------------------------------

@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("use_skip", [True, False])
def test_training_forward_is_network_forward(h, use_skip):
    """The training forward's batched trace and the per-sample traced forward
    agree to the last bit on every sample."""
    mc = toy_model(h=h, use_skip=use_skip)
    params = init_network(mc, InitSpec(scheme="proposed", seed=2))
    x = np.random.default_rng(3).standard_normal((5, mc.n, mc.d))
    out = _forward_batch(x, params, mc).output
    for b in range(len(x)):
        assert np.array_equal(out[b], network_forward(x[b], params, mc).output)


# --- gradients against finite differences ----------------------------------------

def _fd_gradient_error(mc, params, x, y):
    grads = params.zeros_like()
    loss_and_gradients(params, grads, x, y, mc)

    def loss_at(points):
        # One stacked forward: every tensor is a (k, 1, ...) view of the
        # (k, P) point stack, which broadcasts with the (batch, n, d) tokens.
        k, ends = len(points), np.cumsum([t.size for t in params.tensors])
        views = iter([points[:, e - t.size:e].reshape(k, 1, *(1,) * (2 - t.ndim), *t.shape)
                      for t, e in zip(params.tensors, ends)])
        net = NetworkParams([BlockParams(*itertools.islice(views, 8)) for _ in range(mc.L)])
        head_w, head_b = views
        pooled = network_forward(x, net, mc).output.mean(axis=-2, keepdims=True)
        logits = (pooled @ head_w + head_b)[..., 0, :]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        nll = np.log(np.exp(shifted).sum(axis=-1)) - shifted[:, np.arange(len(y)), y]
        return nll.mean(axis=1, keepdims=True)

    fd = finite_difference_jacobian(loss_at, params.vector.copy()).ravel()
    return np.linalg.norm(grads.vector - fd) / np.linalg.norm(fd)


@pytest.mark.parametrize("use_skip", [True, False])
def test_backward_matches_fd(use_skip):
    mc = toy_model(use_skip=use_skip)
    net = init_network(mc, InitSpec(scheme="proposed", seed=1))
    rng = np.random.default_rng(2)
    params = FlatParams(net, 0.1 * rng.standard_normal((mc.d, 3)), np.zeros(3))
    x = rng.standard_normal((3, mc.n, mc.d))
    y = np.array([0, 2, 1])
    assert _fd_gradient_error(mc, params, x, y) < 1e-5


# --- training loop ----------------------------------------------------------------

def test_train_zero_lr_constant_loss():
    ds = synth_task(4, 8, 3, 32, 0.1, seed=8)
    log = train(ds, toy_train_config(lr=0.0, steps=6, batch_size=32))
    assert len(log.losses) == 6
    assert np.ptp(log.losses) < 1e-12


def test_train_deterministic_per_seed():
    ds = synth_task(4, 8, 3, 32, 0.1, seed=9)
    cfg = toy_train_config(steps=8, seed=5)
    a = train(ds, cfg)
    b = train(ds, cfg)
    assert a.losses == b.losses
    assert a.final_digest == b.final_digest


# Digest and per-step losses (float.hex) of 5 skipless steps with weight decay,
# recorded from the list-of-tensors trainer; the flat buffer must reproduce
# them bit for bit.
PINNED_RUNS = {
    ("adam_decoupled", 1): (
        "f6a3d14fd9a08681cb71467f34d6de35716fa978238b737e7147b717bc07ef5c",
        ["0x1.00dbc42c67514p+0", "0x1.f012271b1bec0p-2", "0x1.2e737d5bdc04ap-1",
         "0x1.f0a13b8323491p-3", "0x1.c52945ce1558cp-5"]),
    ("adam_decoupled", 2): (
        "e893cc72e21c0ee78c3b84cf0af8d39b549c7e4068dcb69a52f08ca7f4f30cf7",
        ["0x1.25d07c4cd1284p+0", "0x1.39c541ef2935ep-1", "0x1.52ce86d44733ep-1",
         "0x1.51bbb4fbff278p-2", "0x1.19b11a2ae47d2p-4"]),
    ("sgd_momentum", 1): (
        "1e0a35b51626ccd7745d83f71d7e30430ab7a5a7b37a296e4e95a426446c79e4",
        ["0x1.00dbc42c67514p+0", "0x1.a608a4657ae5ap-3", "0x1.058a9cb68cd1cp+0",
         "0x1.53834f99500fcp-3", "0x1.cf312d0b708e4p-7"]),
    ("sgd_momentum", 2): (
        "b56f9cf8420804fd1f43280bb1c254604b680598ac1828c1ed465f5a9686d390",
        ["0x1.25d07c4cd1284p+0", "0x1.6e6e219d6eae8p-2", "0x1.04dffd74fef8bp+0",
         "0x1.c35d046f70252p-3", "0x1.d55fa855807bep-7"]),
}


@pytest.mark.parametrize("opt,h,block", [
    pytest.param(opt, h, block, id=f"{opt}-{h}" + (f"-block{block}" if block else ""))
    for opt, h in sorted(PINNED_RUNS) for block in (None, 7)])
def test_train_bits_pinned(monkeypatch, opt, h, block):
    """The blocked optimizer reproduces the pinned runs at the default block
    and at a block of 7, which splits the vector into many uneven blocks."""
    if block is not None:
        monkeypatch.setattr(harness, "OPTIMIZER_BLOCK", block)
    mc = toy_model(h=h, use_skip=False, mlp_hidden=8)
    ds = synth_task(4, 8, 3, 16, 0.1, seed=21)
    cfg = TrainConfig(model=mc, init=InitSpec(scheme="proposed", seed=3),
                      optimizer=opt, lr=1e-2, weight_decay=0.1, steps=5,
                      batch_size=8, seed=4)
    log = train(ds, cfg)
    digest, losses = PINNED_RUNS[opt, h]
    assert [float(v).hex() for v in log.losses] == losses
    assert log.final_digest == digest


def test_train_skip_default_loss_decreases_first_200_steps(monkeypatch):
    """Full-batch gradient descent (sgd_momentum with the momentum set to 0)
    on the skip model with default init: the median loss curve over 5 seeds
    falls strictly for 200 steps."""
    monkeypatch.setattr(harness, "SGD_MOMENTUM", 0.0)
    mc = ModelConfig(L=6, n=4, d=64, h=1, attention_scale=8.0, use_skip=True,
                     use_mlp=True, mlp_hidden=128, activation="gelu")
    curves = []
    for seed in range(5):
        ds = synth_task(4, 64, 10, 32, 0.1, seed=100 + seed)
        cfg = TrainConfig(model=mc, init=InitSpec(scheme="default", seed=seed),
                          optimizer="sgd_momentum", lr=0.1,
                          steps=200, batch_size=32, seed=seed)
        log = train(ds, cfg)
        assert not log.diverged
        assert np.all(np.isfinite(log.losses))
        curves.append(log.losses)
    med = np.median(np.array(curves), axis=0)
    assert np.all(np.diff(med) < 0.0)


def test_train_divergence_flag_preserves_partial_log():
    """A forward that overflows, in training or in a probe, is recorded as a
    divergence at that step rather than raised."""
    mc = toy_model(use_skip=False, attention_scale=1.0)
    ds = synth_task(4, 8, 3, 16, 0.1, seed=10)
    for probe_every in (0, 1):
        # Absurd learning rate forces the skipless stack to overflow.
        cfg = toy_train_config(model=mc, lr=1e150, steps=50, batch_size=16,
                               optimizer="sgd_momentum", kappa_probe_every=probe_every)
        with np.errstate(all="ignore"):
            log = train(ds, cfg)
        assert log.diverged
        assert log.diverged_step is not None
        assert len(log.losses) == log.diverged_step
        # Step 1's forward overflows in layer 0's MLP.
        assert (log.diverged_layer, log.diverged_stage) == (0, "mlp stage")


@pytest.mark.parametrize("failure", ["forward", "loss"])
def test_train_divergence_keeps_layer_and_stage(monkeypatch, failure):
    """A forced DivergenceError at step 2 leaves its layer and stage on the
    log; a loss that goes non-finite by itself leaves them None."""
    import skiplab.harness
    from skiplab.model import DivergenceError
    original = skiplab.harness.loss_and_gradients
    steps = []

    def failing(*args, **kwargs):
        steps.append(None)
        if len(steps) < 3:
            return original(*args, **kwargs)
        if failure == "forward":
            raise DivergenceError(1, "attention stage")
        return float("nan")

    monkeypatch.setattr(skiplab.harness, "loss_and_gradients", failing)
    log = train(synth_task(4, 8, 3, 16, 0.1, seed=10), toy_train_config(steps=5))
    assert log.diverged and log.diverged_step == 2 and len(log.losses) == 2
    want = (1, "attention stage") if failure == "forward" else (None, None)
    assert (log.diverged_layer, log.diverged_stage) == want


def test_train_probe_does_not_mutate_parameters():
    ds = synth_task(4, 8, 3, 16, 0.1, seed=11)
    base = toy_train_config(steps=4, kappa_probe_every=0, seed=7)
    probed = toy_train_config(steps=4, kappa_probe_every=2, seed=7)
    a = train(ds, base)
    b = train(ds, probed)
    assert b.probes and b.probes[0][0] == 0
    assert a.losses == b.losses
    assert a.final_digest == b.final_digest
    for _, profile in b.probes:
        assert all("kappa_K" in metrics for metrics in profile)


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("kappa_probe_every", -1)])
def test_train_config_rejects_bad_counts(field, value):
    """An empty batch would average to a NaN loss and read as a divergence;
    a negative probe interval would probe every step."""
    with pytest.raises(ValueError, match=field):
        toy_train_config(**{field: value})


def test_train_shape_mismatch_rejected():
    ds = synth_task(4, 16, 3, 8, 0.1, seed=12)
    with pytest.raises(ValueError):
        train(ds, toy_train_config())


def test_params_digest_sensitivity():
    a = np.zeros(4)
    b = np.zeros(4)
    assert params_digest(a) == params_digest(b)
    b[0] = 1e-300
    assert params_digest(a) != params_digest(b)

