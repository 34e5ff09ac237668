"""Batch experiment runner.

One command per process; every run writes a single report file atomically
(temp file + rename) and is byte-reproducible from its own input echo: the
report carries the command, the complete resolved parameter set, the seed and
the tool version.  Wall time is logged to stderr only, never into the report,
so identical config + seed always produces identical bytes.

Config resolution: an optional INI file (section name = command) provides
values, command-line flags override them, schema defaults fill the rest.
Unknown keys and malformed values are usage errors (exit 2); domain failures
exit 1; success exits 0.  ``jacobian-check`` additionally gates on its result:
exit 0 only if every finite-difference check passes.

The only environment knob is SKLS_THREADS (positive integer, default 1),
echoed into every record; the runner itself is single-threaded.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (ExperimentRecord, concat_bound, gram_moments,
                       layer_condition_profile, perturbation_split,
                       prop1_trial, sample_low_coherence_pair,
                       softmax_derivative_beta_sweep)
from .harness import TrainConfig, load_tensor_file, synth_task, train
from .init import InitSpec, init_network, mimetic_qk, orthonormal_vo
from .jacobian import fd_check_instance
from .linalg import BudgetError, SvdConvergenceError, condition_number, singular_values
from .model import ModelConfig, network_forward

FORMATS = ("csv", "records")


class UsageError(ValueError):
    """Bad invocation: unknown command/key, type mismatch, missing value."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    out_path: str
    seed: int
    format: str = "csv"


# Per-command parameter schema: name -> (python type, default).
# A None default marks the parameter as required.
_COMMON = {"out": (str, None), "format": (str, "csv"), "seed": (int, 0)}

SCHEMAS: dict[str, dict] = {
    "prop1": {"n": (int, 10), "alpha": (float, 0.1), "beta": (float, 0.0),
              "temperature": (float, 1.0), "trials": (int, 100)},
    "moments": {"n": (int, 4), "d": (int, 64), "alpha": (float, 2.0),
                "beta": (float, 0.6), "trials": (int, 100000)},
    "jacobian-check": {"n": (int, 6), "d": (int, 8), "heads": (int, 2),
                       "layers": (int, 3), "seeds": (int, 20),
                       "tolerance": (float, 1e-5), "scale": (float, 1.0)},
    "ksplit": {"n": (int, 16), "d": (int, 32), "heads": (int, 1),
               "scheme": (str, "proposed"), "alpha": (float, 2.0),
               "beta": (float, 0.6), "c": (float, 3.0), "scale": (float, 0.0),
               "trials": (int, 10)},
    "concat-bound": {"rows": (int, 32), "cols": (int, 8), "trials": (int, 1000)},
    "beta-sweep": {"n": (int, 10), "d": (int, 32), "alpha": (float, 2.0),
                   "betas": (str, "0,1,2,4,8"), "trials": (int, 20),
                   "temperature": (float, 1.0)},
    "profile": {"n": (int, 8), "d": (int, 16), "heads": (int, 1),
                "layers": (int, 1), "mlp_hidden": (int, 32),
                "batch_size": (int, 2), "alpha": (float, 2.0),
                "beta": (float, 0.6), "c": (float, 3.0), "scale": (float, 0.0),
                "param_jacobian": (bool, True)},
    "train": {"n": (int, 8), "d": (int, 64), "heads": (int, 1),
              "layers": (int, 6), "mlp_hidden": (int, 128),
              "classes": (int, 10), "samples": (int, 256),
              "noise": (float, 0.1), "data": (str, ""),
              "skip": (bool, False), "scheme": (str, "proposed"),
              "alpha": (float, 2.0), "beta": (float, 0.6), "c": (float, 3.0),
              "scale": (float, 0.0), "optimizer": (str, "adam_decoupled"),
              "lr": (float, 1e-3), "weight_decay": (float, 0.0),
              "steps": (int, 2000), "batch_size": (int, 8),
              "log_every": (int, 1), "kappa_probe_every": (int, 0)},
    "init-report": {"d": (int, 64), "heads": (int, 1), "alpha": (float, 2.0),
                    "beta": (float, 0.6), "c": (float, 3.0),
                    "trials": (int, 10), "tokens": (int, 16)},
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _convert(command: str, key: str, value, typ):
    if isinstance(value, typ) and not (typ is bool and isinstance(value, int)
                                       and not isinstance(value, bool)):
        return value
    text = str(value)
    try:
        if typ is bool:
            return _parse_bool(text)
        return typ(text)
    except ValueError as exc:
        raise UsageError(
            f"[{command}] {key}: cannot parse {text!r} as {typ.__name__}") from exc


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve command, config file and flag overrides into a RunConfig.

    Raises :class:`UsageError` for unknown commands/keys, unparsable values
    and missing required keys (each message names the offender)."""
    parser = argparse.ArgumentParser(prog="skls", add_help=False,
                                     allow_abbrev=False)
    parser.add_argument("command", nargs="?")
    parser.add_argument("--config", default=None)
    known, rest = parser.parse_known_args(argv)
    if known.command in (None, "-h", "--help", "help"):
        raise UsageError(
            "usage: skls COMMAND [--config FILE] [--key value ...]; commands: "
            + ", ".join(sorted(SCHEMAS)))
    command = known.command
    if command not in SCHEMAS:
        raise UsageError(f"unknown command {command!r}; commands: "
                         + ", ".join(sorted(SCHEMAS)))
    schema = dict(SCHEMAS[command])
    schema.update(_COMMON)

    values: dict = {}
    if known.config is not None:
        ini = configparser.ConfigParser()
        try:
            with open(known.config, "r", encoding="utf-8") as f:
                ini.read_file(f)
        except OSError as exc:
            raise UsageError(f"cannot read config file {known.config}: {exc}") from exc
        except configparser.Error as exc:
            raise UsageError(f"malformed config file {known.config}: {exc}") from exc
        if ini.has_section(command):
            for key, raw in ini.items(command):
                if key not in schema:
                    raise UsageError(f"[{command}] unknown key {key!r} in config file")
                values[key] = _convert(command, key, raw, schema[key][0])

    # Flags: --key value pairs, overriding file values.
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--"):
            raise UsageError(f"unexpected argument {tok!r}")
        key = tok[2:].replace("-", "_")
        if key not in schema:
            raise UsageError(f"[{command}] unknown flag --{tok[2:]}")
        if i + 1 >= len(rest):
            raise UsageError(f"[{command}] flag --{tok[2:]} is missing a value")
        values[key] = _convert(command, key, rest[i + 1], schema[key][0])
        i += 2

    resolved = {}
    for key, (typ, default) in schema.items():
        if key in values:
            resolved[key] = values[key]
        elif default is None:
            raise UsageError(f"[{command}] missing required key {key!r}")
        else:
            resolved[key] = default
    fmt = resolved.pop("format")
    if fmt not in FORMATS:
        raise UsageError(f"[{command}] format must be one of {FORMATS}, got {fmt!r}")
    out = resolved.pop("out")
    seed = resolved.pop("seed")
    return RunConfig(command=command, parameters=resolved, out_path=out,
                     seed=seed, format=fmt)


def _threads() -> int:
    raw = os.environ.get("SKLS_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"SKLS_THREADS must be a positive integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"SKLS_THREADS must be a positive integer, got {raw!r}")
    return value


def _fmt_value(v) -> str:
    """CSV cell: the JSON writer's value, with JSON's spelling of booleans."""
    v = _json_value(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def _json_value(v):
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return "INFINITE" if math.isinf(v) else "NAN" if math.isnan(v) else v
    # Other numpy scalars (integers, booleans) as their Python values.
    return v.item() if isinstance(v, np.generic) else v


def _flatten(record: ExperimentRecord) -> dict:
    row = {"command": record.command, "seed": record.seed}
    row.update(record.inputs)
    row.update(record.metrics)
    row["version"] = __version__
    return row


def serialize(records: list[ExperimentRecord], fmt: str) -> str:
    """Render records as CSV (union of keys, first-appearance order) or as
    line-delimited JSON objects.  Non-finite metrics become the INFINITE
    token; floats use shortest round-trip repr, so output is deterministic."""
    rows = [_flatten(r) for r in records]
    if fmt == "records":
        lines = [json.dumps({k: _json_value(v) for k, v in row.items()},
                            separators=(", ", ": "))
                 for row in rows]
        return "\n".join(lines) + "\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_value(row[k]) if k in row else "" for k in columns])
    return buf.getvalue()


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".skls-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _auto_scale(scale: float, d: int, heads: int) -> float:
    return math.sqrt(d // heads) if scale <= 0.0 else scale


# ---------------------------------------------------------------------------
# Command implementations: each returns (records, gate_ok)
# ---------------------------------------------------------------------------


def _cmd_prop1(p: dict, seed: int, echo: dict) -> tuple[list[ExperimentRecord], bool]:
    records = []
    kappas, deltas, gammas = [], [], []
    for k in range(p["trials"]):
        t = prop1_trial(p["n"], p["alpha"], p["beta"], p["temperature"], seed + k)
        kappas.append(t.kappa)
        deltas.append(t.delta)
        gammas.append(t.gamma)
        records.append(ExperimentRecord(
            "prop1", dict(echo, trial=k), t.seed,
            {"kappa": t.kappa, "delta": t.delta, "gamma": t.gamma}))
    finite = [x for x in kappas if math.isfinite(x)]
    records.append(ExperimentRecord(
        "prop1", dict(echo, trial=-1), seed,
        {"kappa": float(np.median(kappas)),
         "delta": float(np.median(deltas)),
         "gamma": float(np.median(gammas)),
         "kappa_max_finite": max(finite) if finite else float("inf"),
         "infinite_count": len(kappas) - len(finite)}))
    return records, True


def _cmd_moments(p: dict, seed: int, echo: dict):
    rep = gram_moments(p["n"], p["d"], p["alpha"], p["beta"], p["trials"], seed)
    metrics = dict(rep.empirical)
    metrics.update({f"closed_{k}": v for k, v in rep.closed_form.items()})
    return [ExperimentRecord("moments", echo, seed, metrics)], True


def _cmd_jacobian_check(p: dict, seed: int, echo: dict):
    records = []
    all_ok = True
    for k in range(p["seeds"]):
        errs = fd_check_instance(p["n"], p["d"], p["heads"], p["layers"],
                                 seed + k, scale=p["scale"])
        ok = all(v <= p["tolerance"] for v in errs.values())
        all_ok &= ok
        metrics = dict(errs)
        metrics["passed"] = ok
        records.append(ExperimentRecord("jacobian-check", dict(echo, trial=k),
                                        seed + k, metrics))
    records.append(ExperimentRecord(
        "jacobian-check", dict(echo, trial=-1), seed,
        {"all_passed": all_ok,
         "max_error": max(max(r.metrics[k] for k in r.metrics if k != "passed")
                          for r in records)}))
    return records, all_ok


def _cmd_ksplit(p: dict, seed: int, echo: dict):
    scale = _auto_scale(p["scale"], p["d"], p["heads"])
    cfg = ModelConfig(L=1, n=p["n"], d=p["d"], h=p["heads"],
                      attention_scale=scale, use_skip=False, use_mlp=False)
    records = []
    for k in range(p["trials"]):
        rng = np.random.default_rng(seed + k)
        x = rng.standard_normal((p["n"], p["d"]))
        spec = InitSpec(scheme=p["scheme"], alpha=p["alpha"], beta=p["beta"],
                        c=p["c"], seed=seed + k)
        params = init_network(cfg, spec)
        trace = network_forward(x, params, cfg)
        r = perturbation_split(trace, 0)
        records.append(ExperimentRecord(
            "ksplit", dict(echo, trial=k, scale=scale), seed + k,
            {"e_norm": r.e_norm, "b_sigma_min": r.b_sigma_min,
             "b_sigma_max": r.b_sigma_max, "kappa_B": r.b_kappa,
             "kappa_K": r.k_kappa, "dominance_ratio": r.dominance_ratio}))
    return records, True


def _cmd_concat_bound(p: dict, seed: int, echo: dict):
    rng = np.random.default_rng(seed)
    records = []
    violations = 0
    for k in range(p["trials"]):
        a, b = sample_low_coherence_pair(p["rows"], p["cols"], rng)
        r = concat_bound(a, b)
        if r.hypothesis_satisfied and r.bound < r.actual:
            violations += 1
        records.append(ExperimentRecord(
            "concat-bound", dict(echo, trial=k), seed,
            {"rho": r.rho, "tau_bal": r.tau_bal, "s_max": r.s_max,
             "s_min": r.s_min, "kappa_max": r.kappa_max, "bound": r.bound,
             "actual": r.actual, "hypothesis": r.hypothesis_satisfied}))
    records.append(ExperimentRecord("concat-bound", dict(echo, trial=-1), seed,
                                    {"violations": violations}))
    return records, violations == 0


def _cmd_beta_sweep(p: dict, seed: int, echo: dict):
    betas = [float(t) for t in p["betas"].split(",") if t.strip()]
    records = []
    all_norms = []
    for k in range(p["trials"]):
        norms = softmax_derivative_beta_sweep(p["n"], p["d"], p["alpha"], betas,
                                              seed + k, p["temperature"])
        all_norms.append(norms)
        records.append(ExperimentRecord(
            "beta-sweep", dict(echo, trial=k), seed + k,
            {f"norm_beta_{b:g}": v for b, v in zip(betas, norms)}))
    med = np.median(np.array(all_norms), axis=0)
    records.append(ExperimentRecord(
        "beta-sweep", dict(echo, trial=-1), seed,
        {f"norm_beta_{b:g}": float(v) for b, v in zip(betas, med)}))
    return records, True


def _cmd_profile(p: dict, seed: int, echo: dict):
    scale = _auto_scale(p["scale"], p["d"], p["heads"])
    cfg = ModelConfig(L=p["layers"], n=p["n"], d=p["d"], h=p["heads"],
                      attention_scale=scale, use_skip=False, use_mlp=True,
                      mlp_hidden=p["mlp_hidden"])
    spec = InitSpec(scheme="proposed", alpha=p["alpha"], beta=p["beta"],
                    c=p["c"], seed=seed)
    records = layer_condition_profile(cfg, spec, p["batch_size"], seed,
                                      include_param_jacobian=p["param_jacobian"])
    out = [ExperimentRecord("profile", dict(echo, **r.inputs), r.seed, r.metrics)
           for r in records]
    return out, True


def _cmd_train(p: dict, seed: int, echo: dict):
    scale = _auto_scale(p["scale"], p["d"], p["heads"])
    mc = ModelConfig(L=p["layers"], n=p["n"], d=p["d"], h=p["heads"],
                     attention_scale=scale, use_skip=p["skip"], use_mlp=True,
                     mlp_hidden=p["mlp_hidden"])
    if p["data"]:
        ds = load_tensor_file(p["data"])
    else:
        ds = synth_task(p["n"], p["d"], p["classes"], p["samples"], p["noise"],
                        seed)
    spec = InitSpec(scheme=p["scheme"], alpha=p["alpha"], beta=p["beta"],
                    c=p["c"], seed=seed)
    tc = TrainConfig(model=mc, init=spec, optimizer=p["optimizer"], lr=p["lr"],
                     weight_decay=p["weight_decay"], steps=p["steps"],
                     batch_size=p["batch_size"],
                     kappa_probe_every=p["kappa_probe_every"], seed=seed)
    log = train(ds, tc)
    records = []
    for step, loss in enumerate(log.losses):
        if p["log_every"] and step % p["log_every"] == 0:
            records.append(ExperimentRecord("train", dict(echo, trial=step),
                                            seed, {"loss": loss}))
    for step, probe in log.probes:
        for r in probe:
            records.append(ExperimentRecord(
                "train", dict(echo, trial=step, probe_layer=r.inputs["layer"]),
                seed, r.metrics))
    records.append(ExperimentRecord(
        "train", dict(echo, trial=-1), seed,
        {"steps_run": len(log.losses),
         "final_loss": log.losses[-1] if log.losses else float("inf"),
         "diverged": log.diverged,
         "diverged_step": -1 if log.diverged_step is None else log.diverged_step,
         "digest": log.final_digest}))
    return records, True


def _cmd_init_report(p: dict, seed: int, echo: dict):
    d, h = p["d"], p["heads"]
    records = []
    for k in range(p["trials"]):
        trial_seed = seed + k
        w_v, w_o = orthonormal_vo(d, h, p["c"], trial_seed)
        sv = singular_values(w_v @ w_o)
        w_q, w_k = mimetic_qk(d, d, p["alpha"], p["beta"], trial_seed)
        prod = w_q @ w_k.T
        # The product realizes alpha*Z + beta*I exactly when d_h = d, so
        # its diagonal mean and off-diagonal variance witness (alpha, beta).
        off_mask = ~np.eye(d, dtype=bool)
        rng = np.random.default_rng(trial_seed + 101)
        x = rng.standard_normal((p["tokens"], d))
        logits = x @ prod @ x.T
        neg = logits + np.diag(np.full(p["tokens"], -np.inf))
        margin = float(np.median(np.diagonal(logits) - neg.max(axis=1)))
        records.append(ExperimentRecord(
            "init-report", dict(echo, trial=k), trial_seed,
            {"kappa_vo": condition_number(w_v @ w_o).value,
             "sv_max": float(sv[0]), "sv_min": float(sv[-1]),
             "c_squared": p["c"] ** 2,
             "qk_diag_mean": float(np.diagonal(prod).mean()),
             "qk_offdiag_var": float(prod[off_mask].var()),
             "median_margin": margin}))
    return records, True


_COMMANDS = {
    "prop1": _cmd_prop1,
    "moments": _cmd_moments,
    "jacobian-check": _cmd_jacobian_check,
    "ksplit": _cmd_ksplit,
    "concat-bound": _cmd_concat_bound,
    "beta-sweep": _cmd_beta_sweep,
    "profile": _cmd_profile,
    "train": _cmd_train,
    "init-report": _cmd_init_report,
}


def run(config: RunConfig) -> int:
    """Execute one command and write its report atomically.

    Exit codes: 0 success (and gate passed), 1 domain error or failed gate,
    2 usage error (raised before this point by parse_config)."""
    started = time.monotonic()
    try:
        threads = _threads()
        echo = dict(config.parameters)
        echo["threads"] = threads
        records, gate_ok = _COMMANDS[config.command](config.parameters,
                                                     config.seed, echo)
        text = serialize(records, config.format)
        write_atomic(config.out_path, text)
    except UsageError:
        raise
    except (ValueError, BudgetError, SvdConvergenceError, OSError,
            FloatingPointError) as exc:
        print(f"skls {config.command}: error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    print(f"skls {config.command}: wrote {config.out_path} "
          f"({len(records)} records, {elapsed:.2f}s)", file=sys.stderr)
    return 0 if gate_ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return run(config)
    except UsageError as exc:
        print(f"skls: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
