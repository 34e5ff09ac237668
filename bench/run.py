"""skiplab benchmark: time ``skls`` workloads end to end, or trace their layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...        # every workload, one process each
    python3 bench/run.py --record-references       # re-record reference/*.csv

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The process pins BLAS to one thread through the
environment before numpy is imported, reads the count actually in effect back
from OpenBLAS, and refuses to report unless it is 1.  Each invocation calls
``skiplab.cli.main`` in-process and its report is verified (see
``workloads.py``).

``--trace 0`` prints the end-to-end metrics; each workload's invocation
timings are scaled to the shared host's nominal speed (see ``HostSpeed``)
unless the workload says otherwise.  ``--trace 1`` first runs the
workload untraced for half of ``--seconds``, then replays the same invocations
under the outside-in tracer (``tracer.py``) and prints the per-layer metrics,
normalised per invocation.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy (imported by the modules below) loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# The CLI echoes SKLS_THREADS into every report; fixing it keeps the reports
# comparable with the references whatever the caller's environment holds.
os.environ["SKLS_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (REFERENCE_DIR, REFERENCE_SEED, WORKLOADS,  # noqa: E402
                       check_report, compare_to_reference, units)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 11

# The host is shared with other tenants, and the speed at which it runs this
# process swings by up to 1.6x over tens of seconds.  A fixed kernel is timed
# before and after every timed invocation; each wall time is divided by the
# mean slowdown (kernel time / CALIBRATION_NOMINAL_S) around it, which reports
# it at the host's nominal speed.  Both the scaled and the unscaled medians
# are printed; Workload.host_scaled picks the one reported as the metric.
CALIBRATION_NOMINAL_S = 0.006
CALIBRATION_REPEATS = 5
_SETUP_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, scipy, skiplab.cli"

END_TO_END = (("setup_s", "s"), ("units_per_s", "units/s"), ("cmd_s_p50", "s"),
              ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit).  Span metrics are "<module>.<function>."
# followed by calls, ms (inclusive) or self_ms, each per invocation.
PER_LAYER = (
    ("harness._forward_batch.self_ms", "ms/cmd"),
    ("harness.loss_and_gradients.self_ms", "ms/cmd"),
    ("harness.optimizer_step.calls", "calls/cmd"),
    ("harness.optimizer_step.self_ms", "ms/cmd"),
    ("harness.train.self_ms", "ms/cmd"),
    ("model.network_forward.calls", "calls/cmd"),
    ("model.network_forward.self_ms", "ms/cmd"),
    ("model.network_forward.useful_ratio", "fraction"),
    ("model.self_attention.calls", "calls/cmd"),
    ("model.self_attention.self_ms", "ms/cmd"),
    ("model.mlp_forward.self_ms", "ms/cmd"),
    ("jacobian.block_chain_jacobian.calls", "calls/cmd"),
    ("jacobian.block_chain_jacobian.self_ms", "ms/cmd"),
    ("jacobian.sa_input_jacobian.calls", "calls/cmd"),
    ("jacobian.sa_input_jacobian.self_ms", "ms/cmd"),
    ("jacobian.sa_input_jacobian.useful_ratio", "fraction"),
    ("jacobian.mlp_input_jacobian.calls", "calls/cmd"),
    ("jacobian.mlp_input_jacobian.self_ms", "ms/cmd"),
    ("jacobian.softmax_jacobian.calls", "calls/cmd"),
    ("jacobian.softmax_jacobian.self_ms", "ms/cmd"),
    ("jacobian.logits_input_jacobian.self_ms", "ms/cmd"),
    ("jacobian.sa_param_jacobian.self_ms", "ms/cmd"),
    ("jacobian.batch_param_jacobian.ms", "ms/cmd"),
    ("jacobian.finite_difference_jacobian.calls", "calls/cmd"),
    ("jacobian.finite_difference_jacobian.self_ms", "ms/cmd"),
    ("linalg.singular_values.calls", "calls/cmd"),
    ("linalg.singular_values.self_ms", "ms/cmd"),
    ("linalg.singular_values.elems", "elems/cmd"),
    ("linalg.kron.calls", "calls/cmd"),
    ("linalg.kron.self_ms", "ms/cmd"),
    ("linalg.kron.bytes", "bytes/cmd"),
    ("linalg.commutation_matrix.calls", "calls/cmd"),
    ("linalg.commutation_matrix.bytes", "bytes/cmd"),
    ("linalg.dense_peak_elems", "elems"),
    ("linalg.svd_fallbacks", "count/cmd"),
    ("init.init_network.calls", "calls/cmd"),
    ("init.init_network.ms", "ms/cmd"),
    ("analysis.condition_profile_for_params.self_ms", "ms/cmd"),
    ("cli.serialize.ms", "ms/cmd"),
    ("cli.write_atomic.bytes", "bytes/cmd"),
    ("cli.report_identical_ratio", "fraction"),
    ("trace.report_identical_ratio", "fraction"),
    ("trace.overhead_units_per_s", "units/s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _openblas(lib_glob: str, package_dir: Path, suffix: str) -> dict:
    libs = sorted((package_dir.parent / f"{package_dir.name}.libs").glob(lib_glob))
    if not libs:
        raise BenchError(f"no bundled OpenBLAS matching {lib_glob} next to {package_dir}")
    lib = ctypes.CDLL(str(libs[0]))
    get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return {"threads": get_threads(), "config": get_config().decode().strip()}


def environment() -> dict:
    """Versions, CPU and the BLAS thread counts read back from OpenBLAS."""
    blas = {
        "numpy": _openblas("libscipy_openblas64_*.so", Path(np.__file__).parent, "64_"),
        "scipy": _openblas("libscipy_openblas-*.so", Path(scipy.__file__).parent, ""),
    }
    for owner, info in blas.items():
        if info["threads"] != 1:
            raise BenchError(f"{owner}'s OpenBLAS runs {info['threads']} threads, "
                             "expected 1; refusing to report")
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def pin_to_one_cpu() -> int:
    """Pin this process, and the interpreters it spawns, to one CPU.

    The host's CPUs run at different and changing speeds under other
    tenants' load.  Pinned, the process cannot migrate between them in the
    middle of an invocation, and HostSpeed's kernel measures the CPU that the
    timed work runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Times a fixed kernel: a Python loop, small numpy operations, BLAS
    products and an SVD, as the workloads mix them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((8, 8))
        self._mid = rng.standard_normal((128, 128))
        self._big = rng.standard_normal((256, 256))

    def _kernel(self) -> float:
        start = time.perf_counter()
        x = 0.0
        for i in range(20000):
            x += i * 0.5
        m = self._small
        for _ in range(300):
            m = np.tanh(m @ self._small)
        for _ in range(4):
            self._big @ self._big
        np.linalg.svd(self._mid, compute_uv=False)
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """Median kernel time over its nominal time."""
        kernel = statistics.median(self._kernel() for _ in range(CALIBRATION_REPEATS))
        return kernel / CALIBRATION_NOMINAL_S


def scale(seconds: list[float], slowdowns: list[float]) -> list[float]:
    """Wall time i divided by the mean of slowdowns i and i + 1, measured
    just before and just after it."""
    return [t * 2 / (a + b) for t, a, b in zip(seconds, slowdowns, slowdowns[1:])]


def setup_seconds(host: HostSpeed) -> tuple[float, float]:
    """Median time, scaled and unscaled, of a fresh interpreter importing
    numpy, scipy and skiplab.cli with BLAS and the CPU pinned (inherited),
    from spawn to exit."""
    times, slowdowns = [], [host.slowdown()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                                stdin=subprocess.DEVNULL)
        # wait(timeout=...) polls in sleeps of up to 50 ms, which would round
        # every time up to a step of 50 ms; a timer kills a hung interpreter.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        code = proc.wait()
        times.append(time.perf_counter() - start)
        watchdog.cancel()
        if code != 0:
            raise BenchError(f"the set-up probe exited with code {code}")
        slowdowns.append(host.slowdown())
    return statistics.median(scale(times, slowdowns)), statistics.median(times)


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------


def invoke(argv: list[str]) -> tuple[int, float, str]:
    """Run ``skls argv`` in-process: (exit code, wall seconds, stderr)."""
    import skiplab.cli

    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = skiplab.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return code, time.perf_counter() - start, err.getvalue()


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


class Run:
    """Invocations of one workload in one process, with their verdicts."""

    def __init__(self, workload, workdir: Path, tamper=None):
        self.workload = workload
        self.workdir = workdir
        self.tamper = tamper  # test seam: corrupts a report before it is checked
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, index: int, seed: int) -> tuple[list[str], float, str | None]:
        """One verified invocation: (argv, seconds, report text or None)."""
        out = self.workdir / f"report-{index}.csv"
        argv = self.workload.argv(index, seed, str(out))
        code, seconds, err = invoke(argv)
        if self.tamper is not None:
            self.tamper(out)
        text = _read(out)
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        problems = check_report(argv, code, text)
        self.attempted += 1
        if problems:
            self.fail(f"skls {' '.join(argv[:-2])}: {'; '.join(problems)}"
                      + (f"\n{err}" if code != 0 else ""))
            text = None
        return argv, seconds, text

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def check_references(run: Run, reference_dir: Path) -> tuple[int, int]:
    """Warm-up: each variant once at the reference seed, compared with the
    recorded reference.  Returns (byte-identical reports, reports compared)."""
    identical = 0
    variants = len(run.workload.variants)
    for k in range(variants):
        argv, _, text = run.call(k, REFERENCE_SEED + k)
        reference = _read(run.workload.reference_path(k, reference_dir))
        if text is None:
            continue
        if reference is None:
            run.fail(f"no reference report for {run.workload.name} variant {k}")
            continue
        if text == reference:
            identical += 1
            continue
        problems = compare_to_reference(text, reference)
        if problems:
            run.fail(f"reference mismatch, skls {' '.join(argv[:-2])}: "
                     + "; ".join(problems[:5]))
    return identical, variants


@dataclass
class Phase:
    """Per invocation: wall seconds, the same scaled to nominal host speed,
    the verified report (None where verification failed) and units of work."""

    seconds: list[float]
    scaled: list[float]
    reports: list[str | None]
    work: list[int]

    def units_per_s(self, scaled: bool) -> float:
        """Median over invocations of units / seconds.  The median keeps
        bursts of contention on the shared host out."""
        times = self.scaled if scaled else self.seconds
        return statistics.median(u / t for u, t in zip(self.work, times))

    def cmd_s_p50(self, scaled: bool) -> float:
        return statistics.median(self.scaled if scaled else self.seconds)


def timed_phase(run: Run, host: HostSpeed, run_seed: int, budget_s: float | None,
                count: int = 0) -> Phase:
    """Invocations 0, 1, ... until their summed wall time reaches
    ``budget_s`` and the variant cycle is complete (or, with no budget,
    ``count`` of them).

    Whole cycles keep the mix of variants, whose costs differ, the same in
    every run."""
    cycle = len(run.workload.variants)

    def more(seconds):
        if budget_s is None:
            return len(seconds) < count
        return sum(seconds) < budget_s or len(seconds) % cycle

    phase = Phase([], [], [], [])
    slowdowns = [host.slowdown()]
    while more(phase.seconds):
        index = len(phase.seconds)
        argv, dt, text = run.call(index, run.workload.seed_for(run_seed, index))
        slowdowns.append(host.slowdown())
        phase.seconds.append(dt)
        phase.reports.append(text)
        phase.work.append(0 if text is None else units(argv, text))
    phase.scaled = scale(phase.seconds, slowdowns)
    return phase


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, invocations: int) -> dict[str, float]:
    table = tracer.span_table()
    metrics: dict[str, float] = {}
    for name, _ in PER_LAYER:
        qual, _, field = name.rpartition(".")
        row = table.get(qual, {"calls": 0, "ns": 0, "self_ns": 0})
        if field == "calls":
            metrics[name] = row["calls"] / invocations
        elif field == "ms":
            metrics[name] = row["ns"] / 1e6 / invocations
        elif field == "self_ms":
            metrics[name] = row["self_ns"] / 1e6 / invocations
        elif field == "useful_ratio":
            # Distinct inputs per call; 0 when the function never ran.
            metrics[name] = tracer.distinct(qual) / row["calls"] if row["calls"] else 0.0
        else:
            metrics[name] = tracer.counts.get(name, 0) / invocations
    metrics["linalg.dense_peak_elems"] = tracer.dense_peak_elems
    return metrics


def measure(workload, seed: int, seconds: int, trace: bool,
            reference_dir: Path | None = None, tamper=None) -> dict:
    """One benchmark run; returns the result object plus a summary."""
    reference_dir = reference_dir or REFERENCE_DIR
    workdir = OUT_DIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        host = HostSpeed()
        setup = None if trace else setup_seconds(host)
        run = Run(workload, workdir, tamper)
        scaled = workload.host_scaled
        identical, compared = check_references(run, reference_dir)
        untraced = timed_phase(run, host, seed, seconds / 2 if trace else seconds)
        summary = {"workload": workload.name, "seed": seed,
                   "invocations": len(untraced.seconds), "units": sum(untraced.work),
                   "unit": workload.unit, "reference_identical": f"{identical}/{compared}"}
        if trace:
            # Replay the same invocations under the tracer.
            tracer = Tracer()
            with tracer:
                traced = timed_phase(run, host, seed, None, len(untraced.reports))
            tracer.write_spans(OUT_DIR / f"spans-{workload.name}.csv")
            same = 0
            for index, (a, b) in enumerate(zip(untraced.reports, traced.reports)):
                if a is not None and a == b:
                    same += 1
                elif a is not None and b is not None:
                    run.fail(f"invocation {index}: the traced report differs "
                             "from the untraced one")
            metrics = layer_metrics(tracer, len(untraced.reports))
            metrics["cli.report_identical_ratio"] = identical / compared
            metrics["trace.report_identical_ratio"] = same / len(untraced.reports)
            metrics["trace.overhead_units_per_s"] = (
                untraced.units_per_s(scaled) - traced.units_per_s(scaled))
            summary["traced_s"] = sum(traced.seconds)
            summary["self_s_total"] = sum(
                r["self_ns"] for r in tracer.span_table().values()) / 1e9
            units_of = dict(PER_LAYER)
        else:
            metrics = {"setup_s": setup[0], "units_per_s": untraced.units_per_s(scaled),
                       "cmd_s_p50": untraced.cmd_s_p50(scaled),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            summary["host_scaled"] = scaled
            summary["timings"] = {
                kind: {"units_per_s": untraced.units_per_s(flag),
                       "cmd_s_p50": untraced.cmd_s_p50(flag)}
                for kind, flag in (("scaled", True), ("unscaled", False))}
            units_of = dict(END_TO_END)
        summary["fail_ratio"] = run.failed / run.attempted
        return {"correct": run.failed == 0, "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
                "summary": summary, "problems": run.problems}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _print_result(result: dict, env: dict) -> None:
    s = result["summary"]
    print(f"workload {s['workload']} seed {s['seed']}: {s['invocations']} timed "
          f"invocations, {s['units']} {s['unit']}; reference reports identical "
          f"{s['reference_identical']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':48s} {s['fail_ratio']:.6g} fraction "
          f"({result['failed']}/{result['attempted']} invocations)")
    if "timings" in s:
        print(f"  host-speed scaling {'on' if s['host_scaled'] else 'off'}; "
              + "; ".join(f"{kind}: " + ", ".join(f"{k} {v:.6g}" for k, v in t.items())
                          for kind, t in s["timings"].items()))
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print("environment: " + json.dumps(env, sort_keys=True))


def record_references(workloads, directory: Path) -> int:
    """Write each workload variant's report at the reference seed."""
    directory.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for k in range(len(workload.variants)):
            path = workload.reference_path(k, directory)
            argv = workload.argv(k, REFERENCE_SEED + k, str(path))
            code, seconds, err = invoke(argv)
            problems = check_report(argv, code, _read(path))
            if problems:
                print(f"{path.name}: {problems}\n{err}", file=sys.stderr)
                return 1
            print(f"wrote {path} ({seconds:.2f} s)")
    return 0


def _run_all(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "skiplab" / "__init__.py").is_file():
        print(f"bench: no skiplab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.record_references:
        return record_references(WORKLOADS.values(), REFERENCE_DIR)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    try:
        env = environment()
        env["pinned_cpu"] = pin_to_one_cpu()
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _print_result(result, env)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
