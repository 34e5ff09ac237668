"""Self-tests of the benchmark at tiny shapes.

    python3 -m pytest -q bench/selftest.py

They check the benchmark, not the program: every metric named in
BENCHMARK.json is emitted, the tracer reaches aliased and call-time-imported
functions, tracing leaves reports byte-identical, self times add up to no
more than the wall time, and a corrupted report counts as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = (
    workloads.train_c9(steps=4, n=4, d=8, layers=2, mlp_hidden=8, samples=16,
                       name="tiny_train"),
    workloads.profile(4, 4, 2, 8, 2, True, "tiny_profile"),
    workloads.fd_check(n=3, d=4, heads=2, layers=1, name="tiny_fd"),
)


def _spec():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reference")
    assert run.record_references(TINY, directory) == 0
    return directory


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_emits_every_metric_and_verifies(workload, trace, reference_dir):
    spec = _spec()
    result = run.measure(workload, seed=3, seconds=1, trace=trace,
                         reference_dir=reference_dir)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["trace.report_identical_ratio"] == 1.0
        assert metrics["cli.report_identical_ratio"] == 1.0
        summary = result["summary"]
        assert 0.0 < summary["self_s_total"] <= summary["traced_s"]


def test_benchmark_json_matches_workloads():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_tracer_rebinds_aliases_and_call_time_imports(tmp_path):
    import skiplab.analysis
    import skiplab.cli
    import skiplab.linalg
    import skiplab.model

    original = skiplab.linalg.singular_values
    tracer = Tracer()
    with tracer:
        wrapped = skiplab.linalg.singular_values
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert skiplab.cli.singular_values is wrapped
        assert skiplab.analysis.singular_values is wrapped
        # fd_check_instance imports this one when it runs.
        assert skiplab.model.self_attention.__wrapped__ is not None

        # Through cli: init-report calls cli's own alias once per trial and
        # again through linalg.condition_number.
        out = str(tmp_path / "init.csv")
        code, _, _ = run.invoke(["init-report", "--d", "8", "--trials", "2", "--out", out])
        assert code == 0
        table = tracer.span_table()
        assert table["linalg.singular_values"]["calls"] == 4
        names = {s[0] for s in tracer.spans}
        assert "cli.main" in names and "cli.serialize" in names

        # Through analysis: the profile's condition numbers.
        tracer.reset()
        code, _, _ = run.invoke(["profile", "--n", "3", "--d", "4", "--layers", "1",
                                 "--mlp-hidden", "4", "--param-jacobian", "false",
                                 "--out", out])
        assert code == 0
        spans = tracer.spans
        svd_parents = {spans[p][0] for name, p, _, _ in spans
                       if name == "linalg.singular_values"}
        assert svd_parents == {"analysis.condition_profile_for_params"}
        assert tracer.span_table()["linalg.singular_values"]["calls"] == 9

        # The tracer's counting work is a span of its own, a sibling of the
        # counted call under the same caller: it is kept out of both self times.
        counted = [(count, spans[i + 1]) for i, count in enumerate(spans)
                   if count[0] == tracer_module.COUNT_SPAN]
        assert len([c for c in counted if c[1][0] == "linalg.singular_values"]) == 9
        for (_, parent, _, end), (_, call_parent, call_start, _) in counted:
            assert parent == call_parent and end <= call_start
    assert skiplab.linalg.singular_values is original
    assert skiplab.cli.singular_values is original


def test_corrupted_reports_fail(reference_dir):
    def corrupt(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        Path(path).write_text("".join(lines[:-1]), encoding="utf-8")

    result = run.measure(TINY[1], seed=3, seconds=1, trace=False,
                         reference_dir=reference_dir, tamper=corrupt)
    assert not result["correct"]
    assert result["summary"]["fail_ratio"] == 1.0
    assert result["failed"] == result["attempted"]


def test_traced_report_that_differs_fails(reference_dir):
    def alter_traced(path):
        # The tracer is installed only while the traced invocations run.
        import skiplab.linalg
        if hasattr(skiplab.linalg.singular_values, "__wrapped__"):
            Path(path).write_text(Path(path).read_text(encoding="utf-8") + "\n",
                                  encoding="utf-8")

    result = run.measure(TINY[1], seed=3, seconds=1, trace=True,
                         reference_dir=reference_dir, tamper=alter_traced)
    assert not result["correct"]
    assert any("traced report differs" in p for p in result["problems"])


def test_default_regime_may_stop_early_but_proposed_may_not():
    header = "command,trial,loss,steps_run,diverged\n"

    def report(steps_run, diverged):
        rows = "".join(f"train,{k},0.5,,\n" for k in range(steps_run))
        return header + rows + f"train,-1,,{steps_run},{diverged}\n"

    train = TINY[0]
    proposed, default = train.argv(0, 0, "x.csv"), train.argv(1, 0, "x.csv")
    assert workloads.check_report(default, 0, report(4, "false")) == []
    assert workloads.check_report(default, 0, report(2, "true")) == []
    assert workloads.check_report(default, 0, report(2, "true").replace("train,1,0.5,,\n", ""))
    assert workloads.check_report(default, 0, report(5, "false"))
    assert workloads.check_report(proposed, 0, report(4, "false")) == []
    assert workloads.check_report(proposed, 0, report(2, "true"))


def test_scale_divides_by_the_mean_slowdown_around_each_timing():
    assert run.scale([1.0, 2.0], [1.0, 3.0, 1.0]) == [0.5, 1.0]


def test_reference_comparison_tolerance():
    ref = "command,seed,kappa_K,digest\nprofile,0,12.5,aa\n"
    assert workloads.compare_to_reference(ref, ref) == []
    assert workloads.compare_to_reference(ref.replace("12.5", "12.500000001"), ref) == []
    assert workloads.compare_to_reference(ref.replace("aa", "bb"), ref) == []
    assert workloads.compare_to_reference(ref.replace("12.5", "12.51"), ref)
    assert workloads.compare_to_reference(ref.replace("12.5", "INFINITE"), ref)


def test_check_report_rejects_bad_condition_numbers():
    argv = list(TINY[1].argv(0, 0, "x.csv"))
    header = "command,kappa_K,kappa_K_plus_I,kappa_Khat,kappa_J\n"
    good = header + "profile,2.0,INFINITE,1.5,3.0\n" * 6
    assert workloads.check_report(argv, 0, good) == []
    assert workloads.check_report(argv, 0, good.replace("1.5", "0.5"))
    assert workloads.check_report(argv, 0, good.replace("1.5", "nan"))
    assert workloads.check_report(argv, 1, good)
    assert workloads.check_report(argv, 0, header + "profile,2.0,2.0,1.5,3.0\n")
