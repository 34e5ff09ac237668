"""Guards for the benchmark's outside-in tracer, ``bench/tracer.py``.

The tracer finds the functions it times by their ``<module>.<function>`` names
and its counters read a few attributes of their arguments, so a rename in
``skiplab`` would break ``bench/run.py --trace 1``.  These tests load the
tracer without changing it and check both against the package.
"""

import importlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import skiplab.harness
import skiplab.jacobian
import skiplab.model
from skiplab.harness import TrainConfig, synth_task
from skiplab.init import InitSpec, init_network
from skiplab.model import ModelConfig

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "bench" / "tracer.py"


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
    """A profile runs two forwards with kappa(J), at any batch size: the
    first sample's, for the kappa(K) rows, and the whole batch's, for the one
    kappa(J) backward, which builds no K and no K-hat.  Each K is built once.
    Without kappa(J) only the first sample is traced."""
    from skiplab.analysis import condition_profile_for_params
    layers = 4
    mc = ModelConfig(L=layers, n=4, d=8, h=2, attention_scale=2.0,
                     use_skip=False, mlp_hidden=8)
    params = init_network(mc, InitSpec(scheme="proposed", seed=0))
    tracer = load_tracer()
    for batch_size in (1, 3):
        batch = np.random.default_rng(2).standard_normal((batch_size, mc.n, mc.d))
        with tracer.Tracer() as t:
            profile = condition_profile_for_params(params, mc, batch)
        table = t.span_table()
        assert len(profile) == layers
        assert table["model.network_forward"]["calls"] == 2
        assert table["jacobian.batch_param_jacobian"]["calls"] == 1
        assert table["jacobian.sa_input_jacobian"]["calls"] == layers
        assert table.get("jacobian.mlp_input_jacobian", {"calls": 0})["calls"] == 0
        with tracer.Tracer() as t:
            condition_profile_for_params(params, mc, batch, include_param_jacobian=False)
        assert t.span_table()["model.network_forward"]["calls"] == 1


def test_profile_builds_one_weight_set_per_scheme():
    """skip_default and skipless_default profile the same weights, so a
    profile initializes two networks, not three."""
    from skiplab.analysis import layer_condition_profile
    mc = ModelConfig(L=2, n=3, d=4, h=2, mlp_hidden=4)
    with load_tracer().Tracer() as t:
        layer_condition_profile(mc, InitSpec(seed=0), 1, 0)
    assert t.span_table()["init.init_network"]["calls"] == 2


def test_benchmark_selftests_that_pin_program_names_and_counts_pass():
    """The benchmark self-tests that read the program: every workload and
    metric is declared, and the tracer reaches aliased and call-time-imported
    functions with the pinned call counts.  They run in a subprocess, since
    the tracer rebinds module attributes and the bench modules import as
    top-level ``run``, ``workloads`` and ``tracer``."""
    selftest = "bench/selftest.py::"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         selftest + "test_benchmark_json_matches_workloads",
         selftest + "test_tracer_rebinds_aliases_and_call_time_imports"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "2 passed" in result.stdout


def test_traced_fd_check_runs_stacked_forwards():
    """The FD oracle runs one stacked forward per chunk of coordinates: an
    fd_check instance makes the 3 traced forwards plus 2 chain checks of
    ceil(4d^2 / FD_CHUNK) chunks each, not one forward per perturbed point."""
    n, d, h, layers = 6, 8, 2, 3
    with load_tracer().Tracer() as t:
        skiplab.jacobian.fd_check_instance(n, d, h, layers, 0)
    calls = t.span_table()["model.network_forward"]["calls"]
    assert calls <= 3 + 2 * math.ceil(4 * d * d / skiplab.jacobian.FD_CHUNK)
