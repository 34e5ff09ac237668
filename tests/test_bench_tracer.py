"""Guards for the benchmark's outside-in tracer, ``bench/tracer.py``.

The tracer finds the functions it times by their ``<module>.<function>`` names
and its counters read a few attributes of their arguments, so a rename in
``skiplab`` would break ``bench/run.py --trace 1``.  These tests load the
tracer without changing it and check both against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import skiplab.harness
import skiplab.jacobian
import skiplab.model
from skiplab.harness import TrainConfig, synth_task
from skiplab.init import InitSpec, init_network
from skiplab.model import ModelConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracer = load_tracer()
    assert tracer.TRACED
    for qual in tracer.TRACED:
        module, name = qual.split(".")
        target = getattr(importlib.import_module("skiplab." + module), name, None)
        assert callable(target), qual


def test_traced_training_runs_the_model_forward():
    """Under the tracer, each training step runs model.network_forward once,
    which reaches model.self_attention and model.mlp_forward once per layer,
    and the counters that read ForwardTrace.params and BlockTrace.x_in run on
    real arguments."""
    mc = ModelConfig(L=2, n=4, d=8, h=2, attention_scale=2.0, use_skip=False,
                     mlp_hidden=8)
    cfg = TrainConfig(model=mc, init=InitSpec(scheme="proposed", seed=0),
                      steps=3, batch_size=4)
    ds = synth_task(4, 8, 3, 8, 0.1, seed=0)
    params = init_network(mc, cfg.init)
    x = np.random.default_rng(1).standard_normal((mc.n, mc.d))
    with load_tracer().Tracer() as t:
        skiplab.harness.train(ds, cfg)
        trace = skiplab.model.network_forward(x, params, mc)
        skiplab.jacobian.sa_input_jacobian(trace, 0)
    table = t.span_table()
    assert table["harness.optimizer_step"]["calls"] == 3
    assert table["harness._forward_batch"]["calls"] == 3
    # 3 steps x 2 layers in training, plus 2 layers in network_forward.
    assert table["model.self_attention"]["calls"] == 8
    assert table["model.mlp_forward"]["calls"] == 8
    # 3 training steps on distinct weights, plus the explicit call.
    assert table["model.network_forward"]["calls"] == 4
    assert t.distinct("model.network_forward") == 4
    assert t.distinct("jacobian.sa_input_jacobian") == 1


def test_traced_profile_traces_each_sample_once():
    """A profile traces each batch sample once and builds each K once per
    sample in the backward sweep, plus the kappa(K) rows of the first
    sample; without kappa(J) only the first sample is traced."""
    from skiplab.analysis import condition_profile_for_params
    layers, batch_size = 4, 2
    mc = ModelConfig(L=layers, n=4, d=8, h=2, attention_scale=2.0,
                     use_skip=False, mlp_hidden=8)
    params = init_network(mc, InitSpec(scheme="proposed", seed=0))
    rng = np.random.default_rng(2)
    batch = [rng.standard_normal((mc.n, mc.d)) for _ in range(batch_size)]
    tracer = load_tracer()
    with tracer.Tracer() as t:
        records = condition_profile_for_params(params, mc, batch, seed=0)
    table = t.span_table()
    assert [r.inputs["layer"] for r in records] == list(range(layers))
    assert table["model.network_forward"]["calls"] == batch_size
    assert table["jacobian.sa_input_jacobian"]["calls"] <= layers + batch_size * layers
    with tracer.Tracer() as t:
        condition_profile_for_params(params, mc, batch, seed=0,
                                     include_param_jacobian=False)
    assert t.span_table()["model.network_forward"]["calls"] == 1
