"""The benchmark's workloads and the checks behind ``fail_ratio``.

Each workload is a cycle of ``skls`` invocations at one fixed shape.
Invocation ``i`` of a run gets its own seed, derived from the run's
``--seed``, so the program receives only generated inputs.  Every report is
checked for the expected exit code, record count, finite (or INFINITE)
condition numbers of at least 1, and the command's own gate; reports at the
reference seed are also compared with the reference reports recorded at the
seed commit (``reference/``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0

# Numeric report fields must match the reference within this tolerance:
# |a - b| <= RTOL * max(|a|, |b|) + ATOL.  ATOL absorbs the finite-difference
# errors of jacobian-check, which are rounding noise near 1e-10.
RTOL = 1e-6
ATOL = 1e-7

# A SHA-256 of raw parameter bytes has no tolerance; a change to it shows in
# cli.report_identical_ratio instead.
_EXACT_EXEMPT = frozenset({"digest"})

_SEED_SPACING = 100_000

# Condition-number fields of profile reports (and of train probes).
_KAPPA_FIELDS = frozenset({"kappa_K", "kappa_K_plus_I", "kappa_Khat", "kappa_J"})


@dataclass(frozen=True)
class Workload:
    """``variants`` are cycled over invocations.  ``host_scaled`` says whether
    the workload's timings are reported at nominal host speed (see
    ``HostSpeed`` in ``run.py``) or as measured."""

    name: str
    command: str
    shape: tuple[str, ...]
    variants: tuple[tuple[str, ...], ...]
    unit: str
    host_scaled: bool = True

    def argv(self, index: int, seed: int, out: str) -> list[str]:
        variant = self.variants[index % len(self.variants)]
        return [self.command, *self.shape, *variant,
                "--seed", str(seed), "--out", out]

    def seed_for(self, run_seed: int, index: int) -> int:
        return run_seed * _SEED_SPACING + index

    def reference_path(self, variant: int, directory: Path = REFERENCE_DIR) -> Path:
        return directory / f"{self.name}.{variant}.csv"


def train_c9(steps: int = 100, n: int = 8, d: int = 64, layers: int = 6,
             mlp_hidden: int = 128, samples: int = 256,
             name: str = "train_c9") -> Workload:
    """C9 training shape; the three C9 regimes in turn."""
    shape = ("--n", str(n), "--d", str(d), "--heads", "1",
             "--layers", str(layers), "--mlp-hidden", str(mlp_hidden),
             "--batch-size", "8", "--scale", repr(math.sqrt(d)),
             "--optimizer", "adam_decoupled", "--samples", str(samples),
             "--steps", str(steps))
    regimes = (("--skip", "false", "--scheme", "proposed"),
               ("--skip", "false", "--scheme", "default"),
               ("--skip", "true", "--scheme", "default"))
    return Workload(name, "train", shape, regimes, "optimizer steps")


def profile(n: int, d: int, layers: int, mlp_hidden: int, batch_size: int,
            param_jacobian: bool, name: str, host_scaled: bool = True) -> Workload:
    shape = ("--n", str(n), "--d", str(d), "--layers", str(layers),
             "--mlp-hidden", str(mlp_hidden), "--batch-size", str(batch_size),
             "--param-jacobian", "true" if param_jacobian else "false")
    return Workload(name, "profile", shape, ((),), "report records", host_scaled)


def fd_check(n: int = 6, d: int = 8, heads: int = 2, layers: int = 3,
             name: str = "fd_check") -> Workload:
    """One FD instance per invocation: its report is that instance's record
    and the gate summary."""
    shape = ("--n", str(n), "--d", str(d), "--heads", str(heads),
             "--layers", str(layers), "--seeds", "1")
    return Workload(name, "jacobian-check", shape, ((),), "FD instances")


WORKLOADS = {w.name: w for w in (
    train_c9(),
    profile(8, 16, 8, 32, 2, True, "profile_deep"),
    # Not scaled: its time goes to 1152x1152 SVDs, which run out of cache and
    # slow down under other load unlike the in-cache calibration kernel.
    # Scaling widened its run-to-run spread about threefold.
    profile(24, 48, 1, 96, 2, False, "profile_wide", host_scaled=False),
    fd_check(),
)}


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def parse_report(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)
            if argv[i].startswith("--")}


def _float(text: str) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):  # TypeError: a field missing from a short row
        return None


def _expected_records(command: str, flags: dict[str, str],
                      rows: list[dict[str, str]]) -> int:
    if command == "train":
        # One loss row per step run, then the summary.  A default-init regime
        # may legitimately diverge and stop early; _check_train requires every
        # step of skipless+proposed.
        steps_run = _steps_run(rows)
        return (int(flags["steps"]) if steps_run is None else steps_run) + 1
    if command == "profile":
        return 3 * int(flags["layers"])
    return 2


def check_report(argv: list[str], code: int, text: str | None) -> list[str]:
    """Problems with one invocation's outcome; empty when it verifies."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if text is None:
        return ["no report written"]
    command, flags = argv[0], _flags(argv)
    rows = parse_report(text)
    problems = []
    want = _expected_records(command, flags, rows)
    if len(rows) != want:
        problems.append(f"{len(rows)} records, expected {want}")
    for k, row in enumerate(rows):
        for key, value in row.items():
            if key in _KAPPA_FIELDS and value != "":
                kappa = _float(value)
                if value != "INFINITE" and (kappa is None or not math.isfinite(kappa)
                                            or kappa < 1.0):
                    problems.append(f"record {k}: {key}={value!r} is not a condition number")
    if command == "profile":
        needed = ["kappa_K", "kappa_K_plus_I", "kappa_Khat"]
        if flags["param-jacobian"] == "true":
            needed.append("kappa_J")
        for k, row in enumerate(rows):
            missing = [key for key in needed if not row.get(key)]
            if missing:
                problems.append(f"record {k}: missing {missing}")
    elif command == "train" and rows:
        problems.extend(_check_train(flags, rows))
    elif command == "jacobian-check" and rows:
        if rows[-1].get("all_passed") != "true":
            problems.append("jacobian-check gate did not pass")
    return problems


def _steps_run(rows: list[dict[str, str]]) -> int | None:
    value = _float(rows[-1].get("steps_run", "")) if rows else None
    return int(value) if value is not None and math.isfinite(value) else None


def _check_train(flags: dict[str, str], rows: list[dict[str, str]]) -> list[str]:
    problems = []
    summary = rows[-1]
    steps_run = _steps_run(rows)
    if steps_run is None or not 0 <= steps_run <= int(flags["steps"]):
        problems.append(f"steps_run {summary.get('steps_run')!r} is not in 0..{flags['steps']}")
    for row in rows[:-1]:
        loss = _float(row.get("loss", ""))
        if loss is None or not math.isfinite(loss):
            problems.append(f"step {row.get('trial')}: loss {row.get('loss')!r}")
            break
    if flags["skip"] == "false" and flags["scheme"] == "proposed":
        if summary.get("diverged") != "false":
            problems.append("skipless+proposed training diverged")
        if summary.get("steps_run") != flags["steps"]:
            problems.append(f"steps_run {summary.get('steps_run')} != {flags['steps']}")
    return problems


def units(argv: list[str], text: str) -> int:
    """Work units in one verified report."""
    command, flags = argv[0], _flags(argv)
    rows = parse_report(text)
    if command == "train":
        return int(rows[-1]["steps_run"])
    if command == "profile":
        return len(rows)
    return 1


def compare_to_reference(text: str, reference: str) -> list[str]:
    """Field-by-field comparison within (RTOL, ATOL); strings must match."""
    got, want = parse_report(text), parse_report(reference)
    if len(got) != len(want):
        return [f"{len(got)} records, reference has {len(want)}"]
    problems = []
    for k, (g, w) in enumerate(zip(got, want)):
        if list(g) != list(w):
            return [f"columns {list(g)} differ from reference {list(w)}"]
        for key in g:
            a, b = g[key], w[key]
            if a == b or key in _EXACT_EXEMPT:
                continue
            fa, fb = _float(a), _float(b)
            if (fa is None or fb is None or not math.isfinite(fa)
                    or not math.isfinite(fb)
                    or abs(fa - fb) > RTOL * max(abs(fa), abs(fb)) + ATOL):
                problems.append(f"record {k}: {key}={a} vs reference {b}")
    return problems
