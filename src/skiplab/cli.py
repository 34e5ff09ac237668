"""Batch experiment runner.

One command per process; every run writes a single report file atomically
(temp file + rename) and is byte-reproducible from its own input echo: the
report carries the command, the complete resolved parameter set, the seed and
the tool version.  Analysis and training return metrics only; each command
returns them with the columns it adds to the input echo, and ``run`` builds
every report row from those in one expression.  Wall time is logged to
stderr only, never into the report, so identical config + seed always
produces identical bytes.

Config resolution: an optional INI file (section name = command, values read
literally, with no ``%`` interpolation) provides values, command-line flags
override them, schema defaults fill the rest.
Unknown keys and malformed values are usage errors (exit 2); domain failures,
out-of-range values among them, exit 1 without a report; success exits 0.
``jacobian-check`` additionally gates on its result: exit 0 only if every
finite-difference check passes.  ``init-report`` checks the proposed
initialization's W_V W_O and full-width (d_h = d) W_Q W_K^T, neither of which
depends on a head count, so it takes none.

SKLS_THREADS (positive integer, default 1) is validated and echoed into every
record as ``threads`` but never applied: BLAS threading follows
``OPENBLAS_NUM_THREADS``, so the echo need not be the count in effect.
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
from .analysis import (REGIMES, concat_bound, gram_moments, layer_condition_profile,
                       perturbation_split, prop1_trial, sample_low_coherence_pair,
                       softmax_derivative_beta_sweep)
from .harness import TrainConfig, load_tensor_file, synth_task, train
from .init import PRESETS, InitSpec, init_network, mimetic_qk, orthonormal_vo
from .jacobian import fd_check_instance
from .linalg import (BudgetError, SvdConvergenceError, check_budget, check_square,
                     condition_number, singular_values)
from .model import ModelConfig, check_stack_budget, network_forward

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
# A None default marks the parameter as required.  The init constants default
# to the supervised preset.
_ALPHA, _BETA, _C = PRESETS["supervised"]
_COMMON = {"out": (str, None), "format": (str, "csv"), "seed": (int, 0)}

SCHEMAS: dict[str, dict] = {
    "prop1": {"n": (int, 10), "alpha": (float, 0.1), "beta": (float, 0.0),
              "temperature": (float, 1.0), "trials": (int, 100)},
    "moments": {"n": (int, 4), "d": (int, 64), "alpha": (float, _ALPHA),
                "beta": (float, _BETA), "trials": (int, 100000)},
    "jacobian-check": {"n": (int, 6), "d": (int, 8), "heads": (int, 2),
                       "layers": (int, 3), "seeds": (int, 20),
                       "tolerance": (float, 1e-5), "scale": (float, 1.0)},
    "ksplit": {"n": (int, 16), "d": (int, 32), "heads": (int, 1),
               "scheme": (str, "proposed"), "alpha": (float, _ALPHA),
               "beta": (float, _BETA), "c": (float, _C), "scale": (float, 0.0),
               "trials": (int, 10)},
    "concat-bound": {"rows": (int, 32), "cols": (int, 8), "trials": (int, 1000)},
    "beta-sweep": {"n": (int, 10), "d": (int, 32), "alpha": (float, _ALPHA),
                   "betas": (str, "0,1,2,4,8"), "trials": (int, 20),
                   "temperature": (float, 1.0)},
    "profile": {"n": (int, 8), "d": (int, 16), "heads": (int, 1),
                "layers": (int, 1), "mlp_hidden": (int, 32),
                "batch_size": (int, 2), "alpha": (float, _ALPHA),
                "beta": (float, _BETA), "c": (float, _C), "scale": (float, 0.0),
                "param_jacobian": (bool, True)},
    "train": {"n": (int, 8), "d": (int, 64), "heads": (int, 1),
              "layers": (int, 6), "mlp_hidden": (int, 128),
              "classes": (int, 10), "samples": (int, 256),
              "noise": (float, 0.1), "data": (str, ""),
              "skip": (bool, False), "scheme": (str, "proposed"),
              "alpha": (float, _ALPHA), "beta": (float, _BETA), "c": (float, _C),
              "scale": (float, 0.0), "optimizer": (str, "adam_decoupled"),
              "lr": (float, 1e-3), "weight_decay": (float, 0.0),
              "steps": (int, 2000), "batch_size": (int, 8),
              "log_every": (int, 1), "kappa_probe_every": (int, 0)},
    "init-report": {"d": (int, 64), "alpha": (float, _ALPHA),
                    "beta": (float, _BETA), "c": (float, _C),
                    "trials": (int, 10), "tokens": (int, 16)},
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _convert(command: str, key: str, text: str, typ):
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
        ini = configparser.ConfigParser(interpolation=None)
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


def serialize(rows: list[dict], fmt: str) -> str:
    """Render report rows as CSV (union of keys, first-appearance order) or as
    line-delimited JSON objects.  Non-finite metrics become the INFINITE
    token; floats use shortest round-trip repr, so output is deterministic."""
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
    """Write text to path through a temp file and a rename.  The report gets
    the mode a plain open() would give it, 0o666 less the umask, not the
    temp file's owner-only 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".skls-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _betas(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _check_ranges(command: str, p: dict) -> None:
    """Reject values the schema types admit but no command can run; the
    ValueError names the key.  Integers must be >= 1, except that the two
    intervals read 0 as "never", mlp_hidden 0 means 4d (see ModelConfig), a
    one-token softmax is constant, so the token counts it runs over need >= 2,
    and init-report's d needs >= 2, as a 1 x 1 product has no off-diagonal.
    An attention scale must be >= 0 (0 means sqrt(d/h)); jacobian-check uses it
    as given, so it must be > 0 there.  Every float must be finite."""
    if "scale" in p:
        given = command == "jacobian-check"
        if not (p["scale"] > 0.0 if given else p["scale"] >= 0.0):
            raise ValueError(f"scale must be {'>' if given else '>='} 0, got {p['scale']}")
    for key, value in p.items():
        kind = SCHEMAS[command][key][0]
        low = (0 if key in ("log_every", "kappa_probe_every", "mlp_hidden")
               else 2 if (command, key) in (("init-report", "tokens"), ("init-report", "d"),
                                            ("beta-sweep", "n"))
               else 1)
        if kind is int and value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")
        floats = _betas(value) if key == "betas" else [value] if kind is float else []
        if not all(map(math.isfinite, floats)):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if "betas" in p:
        betas = _betas(p["betas"])
        if not betas or len({f"{b:g}" for b in betas}) < len(betas):
            raise ValueError("betas must be a non-empty list of distinct values, "
                             f"got {p['betas']!r}")


# ---------------------------------------------------------------------------
# Command implementations: each returns (rows, gate_ok), a row being
# (inputs, seed, metrics) with inputs the columns it adds to the echo
# ---------------------------------------------------------------------------


def _model(p: dict, **wiring) -> ModelConfig:
    """The model that the shape flags describe; a scale of 0 means sqrt(d/h)."""
    return ModelConfig(n=p["n"], d=p["d"], h=p["heads"],
                       attention_scale=p["scale"] or math.sqrt(p["d"] // p["heads"]),
                       **wiring)


def _spec(p: dict, scheme: str, seed: int) -> InitSpec:
    return InitSpec(scheme=scheme, alpha=p["alpha"], beta=p["beta"], c=p["c"], seed=seed)


def _trials(count: int, seed: int, measure) -> list:
    """Rows of trials 0..count-1, trial k measured at seed + k."""
    return [({"trial": k}, seed + k, measure(seed + k)) for k in range(count)]


def _medians(rows: list) -> dict:
    """Each metric's median over the rows' trials."""
    return {key: float(np.median([m[key] for _, _, m in rows])) for key in rows[0][2]}


def _cmd_prop1(p: dict, seed: int):
    rows = _trials(p["trials"], seed, lambda s: prop1_trial(
        p["n"], p["alpha"], p["beta"], p["temperature"], s))
    finite = [m["kappa"] for _, _, m in rows if math.isfinite(m["kappa"])]
    summary = _medians(rows) | {"kappa_max_finite": max(finite) if finite else float("inf"),
                                "infinite_count": len(rows) - len(finite)}
    return rows + [({"trial": -1}, seed, summary)], True


def _cmd_moments(p: dict, seed: int):
    return [({}, seed, gram_moments(p["n"], p["d"], p["alpha"], p["beta"],
                                    p["trials"], seed))], True


def _cmd_jacobian_check(p: dict, seed: int):
    def measure(s):
        errs = fd_check_instance(p["n"], p["d"], p["heads"], p["layers"], s, scale=p["scale"])
        return dict(errs, passed=all(v <= p["tolerance"] for v in errs.values()))

    rows = _trials(p["seeds"], seed, measure)
    all_ok = all(m["passed"] for _, _, m in rows)
    max_error = max(max(v for key, v in m.items() if key != "passed") for _, _, m in rows)
    rows.append(({"trial": -1}, seed, {"all_passed": all_ok, "max_error": max_error}))
    return rows, all_ok


def _cmd_ksplit(p: dict, seed: int):
    cfg = _model(p, L=1, use_skip=False, use_mlp=False)
    check_budget(p["n"], p["d"])  # the tokens
    rows = []
    for k in range(p["trials"]):
        x = np.random.default_rng(seed + k).standard_normal((p["n"], p["d"]))
        trace = network_forward(x, init_network(cfg, _spec(p, p["scheme"], seed + k)), cfg)
        rows.append(({"trial": k, "attention_scale": cfg.attention_scale}, seed + k,
                     perturbation_split(trace, 0)))
    return rows, True


def _cmd_concat_bound(p: dict, seed: int):
    check_budget(p["rows"], 2 * p["cols"])  # each pair's Gaussian draw
    rng = np.random.default_rng(seed)
    pairs = (sample_low_coherence_pair(p["rows"], p["cols"], rng) for _ in range(p["trials"]))
    rows = [({"trial": k}, seed, concat_bound(a, b)) for k, (a, b) in enumerate(pairs)]
    violations = sum(r["hypothesis"] and r["bound"] < r["actual"] for _, _, r in rows)
    return rows + [({"trial": -1}, seed, {"violations": violations})], violations == 0


def _cmd_beta_sweep(p: dict, seed: int):
    betas = _betas(p["betas"])
    rows = _trials(p["trials"], seed, lambda s: {
        f"norm_beta_{b:g}": v for b, v in zip(betas, softmax_derivative_beta_sweep(
            p["n"], p["d"], p["alpha"], betas, s, p["temperature"]))})
    return rows + [({"trial": -1}, seed, _medians(rows))], True


def _cmd_profile(p: dict, seed: int):
    cfg = _model(p, L=p["layers"], use_skip=False, mlp_hidden=p["mlp_hidden"])
    profiles = layer_condition_profile(cfg, _spec(p, "proposed", seed), p["batch_size"],
                                       seed, include_param_jacobian=p["param_jacobian"])
    # mlp_hidden echoes the resolved width (4d for 0), in its flag's column.
    rows = [(dict(mlp_hidden=cfg.mlp_hidden, layer=layer, h=cfg.h, L=cfg.L,
                  activation=cfg.activation, attention_scale=cfg.attention_scale,
                  use_skip=REGIMES[regime][0], regime=regime), seed, metrics)
            for regime, profile in profiles.items() for layer, metrics in enumerate(profile)]
    return rows, True


def _cmd_train(p: dict, seed: int):
    mc = _model(p, L=p["layers"], use_skip=p["skip"], mlp_hidden=p["mlp_hidden"])
    check_stack_budget(mc)  # before the dataset is drawn
    if p["data"]:
        ds = load_tensor_file(p["data"])
    else:
        ds = synth_task(p["n"], p["d"], p["classes"], p["samples"], p["noise"],
                        seed)
    check_budget(p["d"], ds.class_count)  # the training head
    tc = TrainConfig(model=mc, init=_spec(p, p["scheme"], seed), optimizer=p["optimizer"],
                     lr=p["lr"], weight_decay=p["weight_decay"], steps=p["steps"],
                     batch_size=p["batch_size"],
                     kappa_probe_every=p["kappa_probe_every"], seed=seed)
    log = train(ds, tc)
    rows = [({"trial": step}, seed, {"loss": loss}) for step, loss in enumerate(log.losses)
            if p["log_every"] and step % p["log_every"] == 0]
    rows += [({"trial": step, "probe_layer": layer}, seed, metrics)
             for step, probe in log.probes for layer, metrics in enumerate(probe)]
    rows.append(({"trial": -1}, seed,
                 {"steps_run": len(log.losses),
                  "final_loss": log.losses[-1] if log.losses else float("inf"),
                  "diverged": log.diverged,
                  "diverged_step": -1 if log.diverged_step is None else log.diverged_step,
                  "digest": log.final_digest}))
    return rows, True


def _cmd_init_report(p: dict, seed: int):
    d, tokens = p["d"], p["tokens"]
    _spec(p, "proposed", seed)  # the init every other command accepts
    # W_V W_O = c^2 U V^T, and qk_offdiag_var sums d(d-1) squared entries of
    # W_Q W_K^T = alpha Z + beta I, each at most alpha ||Z|| + beta.
    for key, terms in (("alpha", d * d), ("beta", d * d), ("c", 1)):
        check_square(key, p[key], terms)
    check_budget(max(d, tokens), max(d, tokens))  # its d x d and token arrays

    def measure(s):
        w_v, w_o = orthonormal_vo(d, p["c"], s)
        sv = singular_values(w_v @ w_o)
        w_q, w_k = mimetic_qk(d, d, p["alpha"], p["beta"], s)
        prod = w_q @ w_k.T
        # The product realizes alpha*Z + beta*I exactly when d_h = d, so
        # its diagonal mean and off-diagonal variance witness (alpha, beta).
        x = np.random.default_rng(s + 101).standard_normal((tokens, d))
        logits = x @ prod @ x.T
        neg = logits + np.diag(np.full(tokens, -np.inf))
        return {"kappa_vo": condition_number(w_v @ w_o),
                "sv_max": float(sv[0]), "sv_min": float(sv[-1]),
                "c_squared": p["c"] ** 2,
                "qk_diag_mean": float(np.diagonal(prod).mean()),
                "qk_offdiag_var": float(prod[~np.eye(d, dtype=bool)].var()),
                "median_margin": float(np.median(np.diagonal(logits) - neg.max(axis=1)))}

    return _trials(p["trials"], seed, measure), True


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
        _check_ranges(config.command, config.parameters)
        echo = dict(config.parameters, threads=threads)
        rows, gate_ok = _COMMANDS[config.command](config.parameters, config.seed)
        # A key the echo already holds keeps its column and takes the new value.
        text = serialize([{"command": config.command, "seed": seed, **echo, **inputs,
                           **metrics, "version": __version__}
                          for inputs, seed, metrics in rows], config.format)
        write_atomic(config.out_path, text)
    except UsageError:
        raise
    except (ValueError, BudgetError, SvdConvergenceError, OSError,
            FloatingPointError) as exc:
        print(f"skls {config.command}: error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    print(f"skls {config.command}: wrote {config.out_path} "
          f"({len(rows)} records, {elapsed:.2f}s)", file=sys.stderr)
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
