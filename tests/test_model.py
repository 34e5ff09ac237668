import dataclasses
import itertools

import numpy as np
import pytest

from conftest import fresh_interpreter
from skiplab.init import InitSpec, init_network
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skiplab.model import (BlockParams, DivergenceError, ModelConfig,
                           NetworkParams, activation_derivative,
                           attention_backward, block_forward,
                           merge_heads, mlp_forward, network_backward,
                           network_forward, row_softmax,
                           self_attention, split_heads, _scipy_erf)


def small_config(**kw):
    base = dict(L=2, n=4, d=8, h=2, attention_scale=1.0, activation="gelu",
                use_skip=True, use_mlp=True, mlp_hidden=6)
    base.update(kw)
    return ModelConfig(**base)


def random_params(config, seed=0, std=0.4):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(config.L):
        blocks.append(BlockParams(
            W_Q=std * rng.standard_normal((config.d, config.d)),
            W_K=std * rng.standard_normal((config.d, config.d)),
            W_V=std * rng.standard_normal((config.d, config.d)),
            W_O=std * rng.standard_normal((config.d, config.d)),
            mlp_W1=std * rng.standard_normal((config.d, config.mlp_hidden)),
            mlp_b1=0.1 * rng.standard_normal(config.mlp_hidden),
            mlp_W2=std * rng.standard_normal((config.mlp_hidden, config.d)),
            mlp_b2=0.1 * rng.standard_normal(config.d)))
    return NetworkParams(blocks)


def test_config_validates_head_divisibility():
    with pytest.raises(ValueError):
        ModelConfig(L=1, n=2, d=7, h=2)


def test_row_softmax_uniform_on_zero_logits():
    a = row_softmax(np.zeros((5, 5)), 1.0)
    assert np.allclose(a, 1.0 / 5.0, atol=1e-15)


def test_row_softmax_known_row():
    a = row_softmax(np.array([[0.0, np.log(2.0)]]), 1.0)
    assert np.allclose(a, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-14)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    a = row_softmax(100.0 * rng.standard_normal((6, 6)), 1.0)
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(a >= 0.0)


def test_row_softmax_diagonal_margin_gives_identity():
    # Exact margin gamma = 20: diagonal 20, largest off-diagonal 0 per row.
    rng = np.random.default_rng(1)
    n = 6
    m = rng.uniform(-3.0, -0.5, size=(n, n))
    for i in range(n):
        m[i, (i + 1) % n] = 0.0
        m[i, i] = 20.0
    a = row_softmax(m, 1.0)
    assert np.max(np.abs(a - np.eye(n))) < 1e-8


def test_row_softmax_temperature_moves_toward_uniform():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5))
    peaks = [row_softmax(m, t).max() for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_row_softmax_rejects_bad_temperature():
    with pytest.raises(ValueError):
        row_softmax(np.zeros((2, 2)), 0.0)


def _rowwise_max_softmax(m, temperature):
    """The oracle: row_softmax with its max taken along the last axis."""
    z = np.asarray(m, dtype=float) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lead=st.lists(st.integers(1, 4), max_size=3), n=st.integers(1, 40),
       temperature=st.sampled_from([1.0, 0.3, 2.5, np.sqrt(8.0)]),
       values=st.sampled_from(["normal", "ties", "signed_zeros", "huge", "nonfinite"]),
       layout=st.sampled_from(["C", "F", "swapped"]), seed=st.integers(0, 2**16))
@example(lead=[], n=1, temperature=1.0, values="normal", layout="C", seed=0)
@example(lead=[], n=40, temperature=0.3, values="nonfinite", layout="C", seed=1)
@example(lead=[2, 3, 4], n=40, temperature=2.5, values="huge", layout="F", seed=2)
def test_property_row_softmax_bits_equal_rowwise_max(lead, n, temperature, values,
                                                    layout, seed):
    """The slab row max gives the bits, NaNs and memory layout of the
    row-wise max on any input, and leaves the caller's array unchanged."""
    rng = np.random.default_rng(seed)
    shape = (*lead, n)
    m = rng.standard_normal(shape)
    if values == "ties":
        m = np.round(2.0 * m)
    elif values == "signed_zeros":
        m = np.where(rng.random(shape) < 0.5, 0.0, -0.0) - (rng.random(shape) < 0.2)
    elif values == "huge":
        m = m * 1e307
    elif values == "nonfinite":
        m.flat[rng.integers(0, m.size, 3)] = [np.inf, -np.inf, np.nan]
        m.reshape(-1, n)[-1] = -np.inf  # a whole row of -inf
    if layout == "F":
        m = np.asfortranarray(m)
    elif layout == "swapped" and m.ndim > 1:
        m = np.ascontiguousarray(m.swapaxes(-1, -2)).swapaxes(-1, -2)
    before = m.tobytes()
    with np.errstate(all="ignore"):
        got, want = row_softmax(m, temperature), _rowwise_max_softmax(m, temperature)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, NaNs included
    assert ([s for s, k in zip(got.strides, got.shape) if k > 1]
            == [s for s, k in zip(want.strides, want.shape) if k > 1])
    assert m.tobytes() == before


def test_attention_logits_matches_triple_product():
    """Head i's attention is the row-softmax of X W_Q,i W_K,i^T X^T / s."""
    cfg = small_config(h=2, attention_scale=1.7)
    params = random_params(cfg, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((cfg.n, cfg.d))
    bp = params.blocks[0]
    attention = self_attention(x, bp, cfg).attention
    for head in range(2):
        cols = slice(head * cfg.d_h, (head + 1) * cfg.d_h)
        logits = x @ bp.W_Q[:, cols] @ bp.W_K[:, cols].T @ x.T / 1.7
        assert np.allclose(attention[head], row_softmax(logits), atol=1e-12)


def test_self_attention_identity_attention_limit():
    cfg = small_config(h=1)
    params = random_params(cfg, seed=8)
    bp = params.blocks[0]
    bp.W_Q = 40.0 * np.eye(cfg.d)
    bp.W_K = np.eye(cfg.d)
    x = np.linalg.qr(np.random.default_rng(9).standard_normal((cfg.d, cfg.n)))[0].T
    sa = self_attention(x, bp, cfg)
    out, attns = sa.out, sa.attention
    # Orthonormal rows make the diagonal logit dominate, saturating A to I.
    assert np.max(np.abs(attns[0] - np.eye(cfg.n))) < 1e-6
    assert np.max(np.abs(out - x @ bp.W_V @ bp.W_O)) < 1e-6


def test_self_attention_matches_concat_form():
    """The output equals the per-head concatenate-then-project coding and the
    head-summed form sum_i A_i X W_V,i W_O,i the Jacobians are written in."""
    cfg = small_config(h=2)
    params = random_params(cfg, seed=10)
    bp = params.blocks[0]
    rng = np.random.default_rng(11)
    x = rng.standard_normal((cfg.n, cfg.d))
    out = self_attention(x, bp, cfg).out
    pieces = []
    summed = np.zeros_like(x)
    for i in range(cfg.h):
        cols = slice(i * cfg.d_h, (i + 1) * cfg.d_h)
        a = row_softmax(x @ bp.W_Q[:, cols] @ bp.W_K[:, cols].T @ x.T
                        / cfg.attention_scale, 1.0)
        pieces.append(a @ (x @ bp.W_V[:, cols]))
        summed += pieces[-1] @ bp.W_O[cols, :]
    concat = np.hstack(pieces)
    assert np.max(np.abs(out - concat @ bp.W_O)) < 1e-13
    assert np.max(np.abs(out - summed)) < 1e-13


def test_self_attention_single_token():
    cfg = small_config(n=1, h=1)
    params = random_params(cfg, seed=12)
    x = np.random.default_rng(13).standard_normal((1, cfg.d))
    sa = self_attention(x, params.blocks[0], cfg)
    out, attns = sa.out, sa.attention
    assert np.array_equal(attns[0], [[1.0]])
    assert np.allclose(out, x @ params.blocks[0].W_V @ params.blocks[0].W_O,
                       atol=1e-14)


def test_block_forward_zero_weights_with_skip_is_identity():
    cfg = small_config()
    d, m = cfg.d, cfg.mlp_hidden
    bp = BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                     W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                     mlp_W1=np.zeros((d, m)), mlp_b1=np.zeros(m),
                     mlp_W2=np.zeros((m, d)), mlp_b2=np.zeros(d))
    x = np.random.default_rng(14).standard_normal((cfg.n, d))
    assert np.array_equal(block_forward(x, bp, cfg).output, x)


def test_block_forward_zero_weights_without_skip():
    cfg = small_config(use_skip=False)
    d, m = cfg.d, cfg.mlp_hidden
    bias = np.random.default_rng(15).standard_normal(d)
    bp = BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                     W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                     mlp_W1=np.zeros((d, m)), mlp_b1=np.zeros(m),
                     mlp_W2=np.zeros((m, d)), mlp_b2=bias)
    x = np.random.default_rng(16).standard_normal((cfg.n, d))
    out = block_forward(x, bp, cfg).output
    assert np.allclose(out, np.tile(bias, (cfg.n, 1)), atol=1e-15)


def test_block_forward_composes_attention_and_mlp():
    cfg = small_config(use_skip=False)
    params = random_params(cfg, seed=17)
    x = np.random.default_rng(18).standard_normal((cfg.n, cfg.d))
    bt = block_forward(x, params.blocks[0], cfg)
    sa = self_attention(x, params.blocks[0], cfg).out
    mlp = mlp_forward(sa, params.blocks[0], cfg).out
    assert np.allclose(bt.output, mlp, atol=1e-13)


def test_block_forward_mlp_bypass():
    cfg = small_config(use_mlp=False)
    params = random_params(small_config(), seed=19)
    x = np.random.default_rng(20).standard_normal((cfg.n, cfg.d))
    bt = block_forward(x, params.blocks[0], cfg)
    assert np.array_equal(bt.output, bt.post_attention)
    assert bt.mlp is None


def test_network_forward_zero_layers():
    cfg = small_config(L=0)
    trace = network_forward(np.ones((cfg.n, cfg.d)), NetworkParams([]), cfg)
    assert np.array_equal(trace.output, np.ones((cfg.n, cfg.d)))


def test_network_forward_composes_blocks():
    cfg = small_config(L=2)
    params = random_params(cfg, seed=21)
    x = np.random.default_rng(22).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    step1 = block_forward(x, params.blocks[0], cfg).output
    step2 = block_forward(step1, params.blocks[1], cfg).output
    assert np.allclose(trace.output, step2, atol=1e-14)


def test_network_forward_attention_rows_stochastic():
    cfg = small_config(L=2, h=2)
    params = random_params(cfg, seed=23)
    x = np.random.default_rng(24).standard_normal((cfg.n, cfg.d))
    trace = network_forward(x, params, cfg)
    for bt in trace.blocks:
        for a in bt.sa.attention:
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(a >= 0.0)


def test_network_forward_zero_weights_identity_any_depth():
    cfg = small_config(L=4)
    d, m = cfg.d, cfg.mlp_hidden
    blocks = [BlockParams(W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
                          W_V=np.zeros((d, d)), W_O=np.zeros((d, d)),
                          mlp_W1=np.zeros((d, m)), mlp_b1=np.zeros(m),
                          mlp_W2=np.zeros((m, d)), mlp_b2=np.zeros(d))
              for _ in range(4)]
    x = np.random.default_rng(25).standard_normal((cfg.n, d))
    assert np.array_equal(network_forward(x, NetworkParams(blocks), cfg).output, x)


def test_network_forward_skipless_deep_default_finite_or_named_divergence():
    """Deep skipless stacks either stay finite or fail loudly with a layer."""
    cfg = ModelConfig(L=12, n=6, d=32, h=1, attention_scale=1.0,
                      use_skip=False, use_mlp=True, mlp_hidden=32)
    params = init_network(cfg, InitSpec(scheme="default", seed=0))
    x = np.random.default_rng(26).standard_normal((cfg.n, cfg.d))
    try:
        trace = network_forward(x, params, cfg)
    except DivergenceError as exc:
        assert 0 <= exc.layer < cfg.L
    else:
        assert np.all(np.isfinite(trace.output))


def test_network_forward_divergence_names_layer():
    cfg = small_config(L=3, use_skip=False, activation="identity")
    d, m = cfg.d, cfg.mlp_hidden
    blocks = []
    for _ in range(3):
        blocks.append(BlockParams(
            W_Q=np.zeros((d, d)), W_K=np.zeros((d, d)),
            W_V=np.full((d, d), 1e200), W_O=np.full((d, d), 1e200),
            mlp_W1=np.eye(d, m), mlp_b1=np.zeros(m),
            mlp_W2=np.eye(m, d), mlp_b2=np.zeros(d)))
    for shape in ((cfg.n, d), (3, cfg.n, d)):
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            network_forward(np.ones(shape), NetworkParams(blocks), cfg)
        assert info.value.layer == 0


def test_network_forward_attention_past_budget_raises(monkeypatch):
    """The (..., h, n, n) attention of a batch is one array under the element
    budget: one element past it raises BudgetError before the first block."""
    import skiplab.linalg
    cfg = small_config()
    params = random_params(cfg)
    x = np.ones((3, cfg.n, cfg.d))
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", 3 * cfg.h * cfg.n * cfg.n)
    network_forward(x, params, cfg)
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", 3 * cfg.h * cfg.n * cfg.n - 1)
    with pytest.raises(skiplab.linalg.BudgetError):
        network_forward(x, params, cfg)


def test_network_forward_checks_token_axes():
    """Leading axes are a batch; the last two must be (n, d)."""
    cfg = small_config()
    params = random_params(cfg, seed=29)
    x = np.random.default_rng(30).standard_normal((2, cfg.n, cfg.d))
    assert network_forward(x, params, cfg).output.shape == x.shape
    with pytest.raises(ValueError, match="does not end in"):
        network_forward(np.zeros((2, cfg.n + 1, cfg.d)), params, cfg)


ATTENTION_WEIGHTS = ("W_Q", "W_K", "W_V", "W_O")


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("use_skip", [True, False])
@pytest.mark.parametrize("use_mlp", [True, False])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_stacked_weights_forward_is_per_point_forward(h, use_skip, use_mlp, activation):
    """Any subset of the attention weights stacked over 5 weight sets: the
    stacked forward equals each weight set's own forward to the last bit."""
    cfg = small_config(L=2, h=h, use_skip=use_skip, use_mlp=use_mlp,
                       activation=activation)
    params = random_params(cfg, seed=31)
    rng = np.random.default_rng(32)
    k = 5
    stacks = [{name: 0.4 * rng.standard_normal((k, cfg.d, cfg.d))
               for name in ATTENTION_WEIGHTS} for _ in range(cfg.L)]
    x = rng.standard_normal((cfg.n, cfg.d))

    def with_weights(subset, point):
        return NetworkParams([
            dataclasses.replace(bp, **{name: st[name] if point is None else st[name][point]
                                       for name in subset})
            for bp, st in zip(params.blocks, stacks)])

    for size in range(1, 5):
        for subset in itertools.combinations(ATTENTION_WEIGHTS, size):
            out = network_forward(x, with_weights(subset, None), cfg).output
            assert out.shape == (k, cfg.n, cfg.d), subset
            for i in range(k):
                single = network_forward(x, with_weights(subset, i), cfg).output
                assert np.array_equal(out[i], single), (subset, i)


def test_multihead_invariant_under_head_permutation():
    cfg = small_config(L=1, h=2)
    params = random_params(cfg, seed=27)
    bp = params.blocks[0]
    x = np.random.default_rng(28).standard_normal((cfg.n, cfg.d))
    out1 = self_attention(x, bp, cfg).out
    d_h = cfg.d_h
    perm = np.r_[d_h:2 * d_h, 0:d_h]
    swapped = BlockParams(W_Q=bp.W_Q[:, perm], W_K=bp.W_K[:, perm],
                          W_V=bp.W_V[:, perm], W_O=bp.W_O[perm, :])
    out2 = self_attention(x, swapped, cfg).out
    assert np.max(np.abs(out1 - out2)) < 1e-12


def test_split_heads_is_a_column_block_view():
    """Head i is column block i of the last axis, as a view; merge_heads
    undoes the split."""
    t = np.arange(2 * 3 * 8, dtype=float).reshape(2, 3, 8)
    heads = split_heads(t, 4)
    assert heads.shape == (2, 4, 3, 2)
    assert np.shares_memory(heads, t)
    for i in range(4):
        assert np.array_equal(heads[:, i], t[..., 2 * i:2 * i + 2])
    assert np.array_equal(merge_heads(heads), t)


def _loop_self_attention(x, bp, cfg):
    """Oracle: the per-head loop, head i reading column block i of q, k and v
    and writing column block i of o.  Returns (out, q, k, v, o, attentions)."""
    q, k, v = x @ bp.W_Q, x @ bp.W_K, x @ bp.W_V
    o = np.empty(np.broadcast(q, k, v).shape)
    attns = []
    for i in range(cfg.h):
        blk = slice(i * cfg.d_h, (i + 1) * cfg.d_h)
        a = row_softmax((q[..., blk] @ k[..., blk].swapaxes(-1, -2))
                        / cfg.attention_scale)
        o[..., blk] = a @ v[..., blk]
        attns.append(a)
    return o @ bp.W_O, q, k, v, o, attns


def _loop_attention_backward(x, bp, cfg, dout):
    """Oracle: the per-head loop form of attention_backward's factor pairs."""
    _, q, k, v, o, attns = _loop_self_attention(x, bp, cfg)
    do = dout @ bp.W_O.swapaxes(-1, -2)
    dq, dk, dv = (np.empty_like(do) for _ in range(3))
    for i, a in enumerate(attns):
        blk = slice(i * cfg.d_h, (i + 1) * cfg.d_h)
        da = do[..., blk] @ v[..., blk].swapaxes(-1, -2)
        dv[..., blk] = a.swapaxes(-1, -2) @ do[..., blk]
        dm = a * (da - (da * a).sum(axis=-1, keepdims=True)) / cfg.attention_scale
        dq[..., blk] = dm @ k[..., blk]
        dk[..., blk] = dm.swapaxes(-1, -2) @ q[..., blk]
    return {"W_Q": (x, dq), "W_K": (x, dk), "W_V": (x, dv), "W_O": (o, dout)}


# Token, cotangent and weight-stack shapes, ahead of (n, d) and (d, d): one
# sample with one cotangent, one sample with a stack of 3 cotangents (the
# Jacobians' use), a batch of 2 with one cotangent each (the trainer's), and
# one sample under weights stacked 3 deep with a cotangent per weight set
# (the finite-difference oracle's forward, and a run axis on the weights).
_LAYOUTS = {"single": ((), (), ()), "cotangent_stack": ((), (3,), ()),
            "batched": ((2,), (2,), ()), "stacked": ((), (3,), (3,))}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.sampled_from([1, 2, 4]), d_h=st.integers(1, 3), n=st.integers(1, 5),
       layout=st.sampled_from(sorted(_LAYOUTS)), seed=st.integers(0, 2**16))
def test_property_head_axis_equals_per_head_loop(h, d_h, n, layout, seed):
    """The head-axis forward and backward equal the per-head loop bit for
    bit: out, o, q, k, v, the attention and every factor pair."""
    d = h * d_h
    cfg = ModelConfig(L=1, n=n, d=d, h=h, attention_scale=1.3, use_skip=False,
                      use_mlp=False)
    batch, cot, stack = _LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    bp = BlockParams(*(0.5 * rng.standard_normal((*stack, d, d)) for _ in range(4)))
    x = rng.standard_normal((*batch, n, d))

    out, q, k, v, o, attns = _loop_self_attention(x, bp, cfg)
    sa = self_attention(x, bp, cfg)
    assert np.array_equal(sa.out, out)
    assert np.array_equal(sa.o, o)
    assert np.array_equal(sa.attention, np.stack(attns, axis=-3))
    for got, want in zip((sa.q, sa.k, sa.v), (q, k, v)):
        assert got.shape[-3:] == (h, n, d_h)
        assert np.array_equal(merge_heads(got), want)

    dout = rng.standard_normal((*cot, n, d))
    pairs = attention_backward(block_forward(x, bp, cfg), bp, cfg, dout)
    oracle = _loop_attention_backward(x, bp, cfg, dout)
    for name in ATTENTION_WEIGHTS:
        for got, want in zip(pairs[name], oracle[name]):
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("use_skip", [False, True])
def test_network_backward_on_stacked_weights_equals_each_slice(use_skip):
    """Weights stacked 3 deep (biases as (3, 1, width)) run one backward whose
    slice i is, bit for bit, the backward of weight set i alone."""
    cfg = small_config(use_skip=use_skip)
    sets = [random_params(cfg, seed=s) for s in range(3)]

    def stack(layer, name):
        a = np.stack([getattr(p.blocks[layer], name) for p in sets])
        return a if a.ndim == 3 else a[:, None, :]

    stacked = NetworkParams([BlockParams(**{f.name: stack(layer, f.name)
                                            for f in dataclasses.fields(BlockParams)})
                             for layer in range(cfg.L)])
    rng = np.random.default_rng(5)
    x = rng.standard_normal((cfg.n, cfg.d))
    dout = rng.standard_normal((3, cfg.n, cfg.d))
    got = list(network_backward(network_forward(x, stacked, cfg), dout))
    for i, p in enumerate(sets):
        want = network_backward(network_forward(x, p, cfg), dout[i])
        for (layer, pairs), (layer_i, pairs_i) in zip(got, want, strict=True):
            assert layer == layer_i
            for name, factors in pairs_i.items():
                for g, w in zip(pairs[name], factors):
                    assert (g is None and w is None
                            or np.array_equal(np.broadcast_to(g, (3, *w.shape))[i], w)), name


def test_network_backward_flushes_subnormal_gelu_cotangents():
    """Pre-activations near -37.8 make gelu' subnormal: the backward's dpre
    holds no subnormal entry, and equals the unflushed cotangent wherever
    that is normal."""
    cfg = small_config(L=1, h=1, use_skip=False)
    params = random_params(cfg, seed=3)
    bp = params.blocks[0]
    bp.mlp_W1 = 1e-3 * bp.mlp_W1
    bp.mlp_b1 = np.array([-37.8, -37.6, -37.9, 0.2, -1.0, 1.5])
    rng = np.random.default_rng(4)
    trace = network_forward(rng.standard_normal((cfg.n, cfg.d)), params, cfg)
    dout = rng.standard_normal((cfg.n, cfg.d))
    unflushed = (dout @ bp.mlp_W2.T) * activation_derivative(
        cfg.activation, trace.blocks[0].mlp.pre, trace.blocks[0].mlp.cdf)
    tiny = np.finfo(float).tiny
    normal = np.abs(unflushed) >= tiny
    assert np.any(~normal & (unflushed != 0.0)) and np.any(normal)
    (_, pairs), = network_backward(trace, dout)
    dpre = pairs["mlp_W1"][1]
    assert np.all((dpre == 0.0) | (np.abs(dpre) >= tiny))
    assert np.array_equal(dpre[normal], unflushed[normal])
    assert np.all(dpre[~normal] == 0.0)


_ERF_GRID_PROBE = """
import json, sys
import numpy as np
from skiplab.model import _scipy_erf
erf = _scipy_erf()
left = [m for m in ("scipy.special", "scipy.special._special_ufuncs") if m in sys.modules]
big = np.finfo(float)
mags = np.concatenate([np.linspace(0.0, 10.0, 2001), np.logspace(-323.0, 308.0, 2000),
                       [5e-324, big.tiny / 3, big.tiny, 1e308, big.max, np.inf]])
t = np.concatenate([mags, -mags, [np.nan, -np.nan]])
got = erf(t)
import scipy.special
print(json.dumps({"left": left, "same_object": erf is scipy.special.erf,
                  "bits_equal": got.tobytes() == scipy.special.erf(t).tobytes()}))
"""


def test_loaded_erf_is_scipy_special_erf_bit_for_bit():
    """The erf read from scipy's extension module, before scipy.special is
    imported, leaves neither module in sys.modules and gives
    scipy.special.erf's bits over |t| up to 1e308, with +-0, +-inf, NaN and
    subnormals.  Checked in a fresh interpreter."""
    assert fresh_interpreter(_ERF_GRID_PROBE) == {"left": [], "same_object": True,
                                                  "bits_equal": True}


_ERF_FALLBACK_PROBE = """
import importlib.machinery, importlib.util, json, sys
from skiplab.model import _scipy_erf
finder = importlib.machinery.PathFinder
kept, real = finder.__dict__["find_spec"], finder.find_spec

def miss(name, path=None, target=None):
    if name != "scipy.special._special_ufuncs":
        return real(name, path, target)
    finder.find_spec = kept  # one miss: scipy.special's own import finds it
    return importlib.util.spec_from_file_location(name, sys.argv[1]) if sys.argv[1:] else None

finder.find_spec = miss
erf = _scipy_erf()
loaded = "scipy.special" in sys.modules
import scipy.special
with scipy.special.errstate(all="ignore"):
    pass
print(json.dumps({"loaded": loaded, "same_object": erf is scipy.special.erf}))
"""


@pytest.mark.parametrize("no_erf_module", [False, True], ids=["not-found", "no-erf"])
def test_scipy_erf_falls_back_to_scipy_special(tmp_path, no_erf_module):
    """When the lookup of the extension misses, or finds a module without
    erf, the loader imports scipy.special and returns its erf."""
    args = []
    if no_erf_module:
        (tmp_path / "no_erf.py").write_text("x = 1\n")
        args = [str(tmp_path / "no_erf.py")]
    assert fresh_interpreter(_ERF_FALLBACK_PROBE, *args) == {"loaded": True, "same_object": True}


def test_scipy_erf_reads_a_loaded_scipy_special(monkeypatch):
    """With scipy.special already imported the loader looks nothing up."""
    import importlib.machinery
    import scipy.special

    def no_lookup(*args, **kwargs):
        raise AssertionError("looked up the extension")

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_lookup)
    assert _scipy_erf.__wrapped__() is scipy.special.erf
