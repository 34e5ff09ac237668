import csv
import io
import json
import os
import warnings

import numpy as np
import pytest

from conftest import fresh_interpreter
from skiplab.cli import (_COMMANDS, SCHEMAS, RunConfig, UsageError, main, parse_config,
                         run, serialize, write_atomic)


# --- config resolution ---------------------------------------------------------

def test_parse_flags_populate_init_constants():
    cfg = parse_config(["init-report", "--alpha", "2", "--beta", "0.6",
                        "--c", "3", "--out", "x.csv"])
    assert cfg.parameters["alpha"] == 2.0
    assert cfg.parameters["beta"] == 0.6
    assert cfg.parameters["c"] == 3.0


def test_parse_prop1_defaults_are_diffuse_case():
    cfg = parse_config(["prop1", "--out", "x.csv"])
    assert cfg.parameters["n"] == 10
    assert cfg.parameters["alpha"] == 0.1
    assert cfg.parameters["beta"] == 0.0
    assert cfg.parameters["temperature"] == 1.0


def test_parse_type_mismatch_names_key():
    with pytest.raises(UsageError, match="alpha"):
        parse_config(["prop1", "--alpha", "frog", "--out", "x.csv"])


def test_parse_unknown_flag_rejected():
    with pytest.raises(UsageError, match="frog"):
        parse_config(["prop1", "--frog", "1", "--out", "x.csv"])


def test_parse_unknown_command_rejected():
    with pytest.raises(UsageError, match="unknown command"):
        parse_config(["transmogrify", "--out", "x.csv"])


def test_parse_missing_required_out():
    with pytest.raises(UsageError, match="out"):
        parse_config(["prop1"])


def test_parse_bad_format_rejected():
    with pytest.raises(UsageError, match="format"):
        parse_config(["prop1", "--out", "x.csv", "--format", "xml"])


def test_parse_config_file_with_flag_override(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[prop1]\nn = 12\nalpha = 0.5\nbeta = 2\n", encoding="utf-8")
    cfg = parse_config(["prop1", "--config", str(ini), "--alpha", "0.9",
                        "--out", "x.csv"])
    assert cfg.parameters["n"] == 12
    assert cfg.parameters["alpha"] == 0.9  # flag wins
    assert cfg.parameters["beta"] == 2.0


def test_config_file_values_are_read_literally(tmp_path):
    """A '%' in an INI value is text, not interpolation syntax."""
    out = tmp_path / "100%.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[prop1]\nout = {out}\ntrials = 2\n", encoding="utf-8")
    assert main(["prop1", "--config", str(ini)]) == 0
    assert out.read_text().startswith("command,")


def test_parse_config_file_unknown_key(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[prop1]\nfrogs = 4\n", encoding="utf-8")
    with pytest.raises(UsageError, match="frogs"):
        parse_config(["prop1", "--config", str(ini), "--out", "x.csv"])


def test_parse_bool_values(tmp_path):
    cfg = parse_config(["train", "--skip", "true", "--out", "x.csv"])
    assert cfg.parameters["skip"] is True
    with pytest.raises(UsageError, match="skip"):
        parse_config(["train", "--skip", "maybe", "--out", "x.csv"])


# --- serialization ----------------------------------------------------------------

def _rows():
    return [
        {"command": "demo", "seed": 7, "n": 3, "flag": True, "kappa": 2.5,
         "bad": float("inf"), "version": "0"},
        {"command": "demo", "seed": 8, "n": 3, "flag": False, "kappa": 1.25,
         "bad": 0.5, "extra": 1, "version": "0"},
    ]


def test_serialize_csv_infinite_token_and_union_columns():
    text = serialize(_rows(), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "command,seed,n,flag,kappa,bad,version,extra"
    assert "INFINITE" in lines[1]
    assert lines[1].endswith(",")  # missing 'extra' on the first record
    assert "true" in lines[1] and "false" in lines[2]


def test_serialize_records_json_lines():
    text = serialize(_rows(), "records")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert row["bad"] == "INFINITE"
    assert row["kappa"] == 2.5
    assert row["flag"] is True


def test_serialize_numpy_scalars_like_python_values():
    """CSV and JSON spell numpy scalars as they spell the Python values, and
    CSV writes NaN as the JSON writer's NAN token."""
    def rows(flag, kappa, bad, count):
        return [{"command": "demo", "seed": 7, "flag": flag, "count": count,
                 "kappa": kappa, "bad": bad, "nan": float("nan")}]

    plain = rows(True, 1.5, float("inf"), 3)
    numpy = rows(np.bool_(True), np.float64(1.5), np.float64(np.inf), np.int64(3))
    for fmt in ("csv", "records"):
        assert serialize(numpy, fmt) == serialize(plain, fmt)
    line = serialize(numpy, "csv").strip().split("\n")[1]
    assert line == "demo,7,true,3,1.5,INFINITE,NAN"
    assert json.loads(serialize(numpy, "records"))["nan"] == "NAN"


def test_write_atomic_no_partial_files(tmp_path):
    target = tmp_path / "out.csv"
    write_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_write_atomic_mode_follows_umask(tmp_path, umask, mode):
    """A report gets the mode a plain open() would give it, not the temp
    file's owner-only 0o600."""
    target = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        write_atomic(str(target), "hello\n")
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == mode


# --- command execution ---------------------------------------------------------

def test_prop1_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["prop1", "--n", "10", "--alpha", "0.1", "--beta", "5",
            "--trials", "30", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    body1, body2 = out1.read_bytes(), out2.read_bytes()
    assert body1 == body2
    lines = body1.decode().strip().split("\n")
    assert len(lines) == 1 + 30 + 1  # header + trials + summary row


def test_moments_records_format(tmp_path):
    out = tmp_path / "m.records"
    assert main(["moments", "--n", "2", "--d", "8", "--trials", "500",
                 "--seed", "1", "--format", "records", "--out", str(out)]) == 0
    row = json.loads(out.read_text().strip())
    assert row["command"] == "moments"
    assert "var_a_ii" in row and "closed_var_a_ii" in row


def test_jacobian_check_gate_passes(tmp_path):
    out = tmp_path / "j.csv"
    code = main(["jacobian-check", "--n", "4", "--d", "6", "--heads", "2",
                 "--layers", "2", "--seeds", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert "true" in lines[-1]


def test_jacobian_check_gate_fails_on_impossible_tolerance(tmp_path):
    out = tmp_path / "j.csv"
    code = main(["jacobian-check", "--n", "4", "--d", "6", "--seeds", "1",
                 "--tolerance", "1e-30", "--out", str(out)])
    assert code == 1
    assert out.exists()  # report still written


def test_concat_bound_command(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["concat-bound", "--trials", "25", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 25 + 1
    assert lines[-1].split(",")[-1] == "0"  # zero violations in summary


def test_ksplit_command(tmp_path):
    out = tmp_path / "k.records"
    assert main(["ksplit", "--n", "6", "--d", "8", "--trials", "2",
                 "--format", "records", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(rows) == 2
    assert all("dominance_ratio" in r for r in rows)
    # The given scale is echoed as given, the one used (sqrt(d/h)) beside it.
    assert all(r["scale"] == 0.0 and r["attention_scale"] == np.sqrt(8.0) for r in rows)


def test_profile_command(tmp_path):
    out = tmp_path / "p.records"
    assert main(["profile", "--n", "4", "--d", "8", "--layers", "1",
                 "--mlp-hidden", "8", "--batch-size", "1",
                 "--param-jacobian", "false", "--format", "records",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert {r["regime"] for r in rows} == {"skip_default", "skipless_default",
                                           "skipless_proposed"}
    assert all(r["use_skip"] == (r["regime"] == "skip_default") for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "records"])
def test_profile_echoes_resolved_mlp_hidden(tmp_path, fmt):
    """--mlp-hidden 0 means 4d: every row echoes the width the profile used."""
    out = tmp_path / "p.out"
    assert main(["profile", "--n", "4", "--d", "8", "--layers", "2",
                 "--mlp-hidden", "0", "--batch-size", "1", "--format", fmt,
                 "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["mlp_hidden"] for r in rows] == ["32"] * 6
    else:
        rows = [json.loads(line) for line in text.splitlines()]
        assert [r["mlp_hidden"] for r in rows] == [32] * 6


def test_beta_sweep_command(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["beta-sweep", "--n", "6", "--d", "8", "--trials", "3",
                 "--betas", "0,4", "--out", str(out)]) == 0
    header = out.read_text().split("\n")[0]
    assert "norm_beta_0" in header and "norm_beta_4" in header


def test_train_command_deterministic(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    args = ["train", "--n", "4", "--d", "8", "--layers", "2", "--mlp-hidden",
            "8", "--samples", "16", "--steps", "12", "--batch-size", "4",
            "--seed", "5", "--log-every", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert "digest" in lines[0]


def test_train_command_from_tensor_file(tmp_path):
    from skiplab.harness import save_tensor_file, synth_task
    data = tmp_path / "toy.skls"
    save_tensor_file(data, synth_task(4, 8, 3, 16, 0.1, seed=0))
    out = tmp_path / "t.csv"
    assert main(["train", "--n", "4", "--d", "8", "--layers", "1",
                 "--mlp-hidden", "8", "--classes", "3", "--steps", "5",
                 "--batch-size", "4", "--data", str(data),
                 "--out", str(out)]) == 0


def test_train_command_missing_data_file_is_domain_error(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["train", "--data", str(tmp_path / "nope.skls"), "--steps", "2",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--batch-size", "0"),
                                         ("--kappa-probe-every", "-1")])
def test_train_command_rejects_bad_counts(tmp_path, flag, value):
    """An empty batch or a negative probe interval is a domain error, not a
    divergence: exit 1 and no report."""
    out = tmp_path / "t.csv"
    assert main(["train", "--n", "4", "--d", "8", "--layers", "1",
                 "--mlp-hidden", "8", "--samples", "8", "--steps", "2",
                 flag, value, "--out", str(out)]) == 1
    assert not out.exists()


# Every command at small sizes.
_SMALL = {
    "prop1": ["--n", "6", "--trials", "5"],
    "moments": ["--n", "2", "--d", "8", "--trials", "200"],
    "jacobian-check": ["--n", "3", "--d", "4", "--heads", "1",
                       "--layers", "1", "--seeds", "1"],
    "ksplit": ["--n", "4", "--d", "8", "--trials", "1"],
    "concat-bound": ["--trials", "5"],
    "beta-sweep": ["--n", "4", "--d", "8", "--trials", "2", "--betas", "0,2"],
    "profile": ["--n", "4", "--d", "8", "--layers", "1", "--mlp-hidden",
                "8", "--batch-size", "1", "--param-jacobian", "false"],
    "train": ["--n", "4", "--d", "8", "--layers", "1", "--mlp-hidden",
              "8", "--samples", "8", "--steps", "4", "--batch-size", "4"],
    "init-report": ["--d", "8", "--trials", "1"],
}


# Each command's CSV header at _SMALL: its echo, then its metrics, in order.
_HEADERS = {
    "prop1": "command,seed,n,alpha,beta,temperature,trials,threads,trial,kappa,delta,gamma,"
             "version,kappa_max_finite,infinite_count",
    "moments": "command,seed,n,d,alpha,beta,trials,threads,mean_a_ii,var_a_ii,mean_a_ij,"
               "var_a_ij,mean_b_ii,var_b_ii,mean_b_ij,var_b_ij,mean_c_ii,var_c_ii,mean_c_ij,"
               "var_c_ij,mean_gamma,var_gamma,count_diag,count_off,se_mean_gamma,"
               "closed_mean_a_ii,closed_var_a_ii,closed_mean_a_ij,closed_var_a_ij,"
               "closed_mean_b_ii,closed_var_b_ii,closed_var_b_ij,closed_var_b_ij_exact,"
               "closed_mean_c_ii,closed_var_c_ii,closed_var_c_ij,closed_var_c_ij_exact,"
               "closed_mean_gamma,closed_var_gamma,closed_var_gamma_exact,version",
    "jacobian-check": "command,seed,n,d,heads,layers,seeds,tolerance,scale,threads,trial,"
                      "softmax_jacobian,logits_input_jacobian,attention_input_jacobian,"
                      "sa_input_jacobian,mlp_input_jacobian,sa_param_jacobian,"
                      "block_chain_jacobian_skipless,block_chain_jacobian_skip,passed,"
                      "version,all_passed,max_error",
    "ksplit": "command,seed,n,d,heads,scheme,alpha,beta,c,scale,trials,threads,trial,"
              "attention_scale,e_norm,b_sigma_min,b_sigma_max,kappa_B,kappa_K,dominance_ratio,"
              "version",
    "concat-bound": "command,seed,rows,cols,trials,threads,trial,rho,tau_bal,s_max,s_min,"
                    "kappa_max,bound,actual,hypothesis,version,violations",
    "beta-sweep": "command,seed,n,d,alpha,betas,trials,temperature,threads,trial,"
                  "norm_beta_0,norm_beta_2,version",
    "profile": "command,seed,n,d,heads,layers,mlp_hidden,batch_size,alpha,beta,c,scale,"
               "param_jacobian,threads,layer,h,L,activation,attention_scale,use_skip,"
               "regime,kappa_K,kappa_K_plus_I,kappa_Khat,version",
    "train": "command,seed,n,d,heads,layers,mlp_hidden,classes,samples,noise,data,skip,"
             "scheme,alpha,beta,c,scale,optimizer,lr,weight_decay,steps,batch_size,"
             "log_every,kappa_probe_every,threads,trial,loss,version,steps_run,final_loss,"
             "diverged,diverged_step,digest",
    "init-report": "command,seed,d,alpha,beta,c,trials,tokens,threads,trial,kappa_vo,"
                   "sv_max,sv_min,c_squared,qk_diag_mean,qk_offdiag_var,median_margin,version",
}


_OUT_OF_RANGE = [
    (["profile", "--heads", "0"], "heads"),
    (["ksplit", "--heads", "0"], "heads"),
    (["train", "--heads", "0"], "heads"),
    (["beta-sweep", "--trials", "0"], "trials"),
    (["beta-sweep", "--betas", ","], "betas"),
    (["beta-sweep", "--betas", "1,1"], "betas"),
    (["prop1", "--trials", "0"], "trials"),
    (["concat-bound", "--trials", "0"], "trials"),
    (["jacobian-check", "--seeds", "0"], "seeds"),
    (["train", "--samples", "0"], "samples"),
    (["train", "--n", "4", "--d", "8", "--data", "EMPTY"], "samples"),
    (["profile", "--layers", "0"], "layers"),
    (["train", "--log-every", "-2"], "log_every"),
    (["init-report", "--d", "8", "--trials", "1", "--tokens", "1"], "tokens must be >= 2"),
    (["init-report", "--d", "1", "--trials", "1"], "d must be >= 2"),
    (["beta-sweep", "--n", "1", "--d", "4", "--trials", "1"], "n must be >= 2"),
    (["prop1", "--n", "1", "--trials", "1"], "n must be >= 2"),
    (["moments", "--n", "1", "--trials", "1"], "n must be >= 2"),
    (["profile", "--scale", "-2"], "scale must be >= 0"),
    (["ksplit", "--scale", "-1"], "scale must be >= 0"),
    (["train", "--scale", "-3"], "scale must be >= 0"),
    (["train", "--scale", "nan"], "scale must be >= 0"),
    (["jacobian-check", "--scale", "0"], "scale must be > 0"),
    (["jacobian-check", "--scale", "-1"], "scale must be > 0"),
    (["train", "--lr", "nan"], "lr must be finite"),
    (["train", "--noise", "nan"], "noise must be finite"),
    (["train", "--c", "nan"], "c must be finite"),
    (["profile", "--scale", "inf"], "scale must be finite"),
    (["prop1", "--temperature", "inf"], "temperature must be finite"),
    (["moments", "--beta", "inf"], "beta must be finite"),
    (["prop1", "--alpha", "nan"], "alpha must be finite"),
    (["beta-sweep", "--betas", "nan,1"], "betas must be finite"),
    (["ksplit", "--beta", "nan"], "beta must be finite"),
    (["jacobian-check", "--tolerance", "nan"], "tolerance must be finite"),
    (["train", "--n", "4", "--d", "8", "--layers", "1", "--mlp-hidden", "8",
      "--samples", "8", "--steps", "2", "--weight-decay", "-1"], "weight_decay must be >= 0"),
    (["moments", "--alpha", "1e200"], "alpha squared overflows"),
    (["moments", "--beta", "1e200"], "beta squared overflows"),
    (["init-report", "--d", "8", "--trials", "1", "--c", "0"], "c > 0"),
    (["init-report", "--d", "8", "--trials", "1", "--c", "-1"], "c > 0"),
    (["init-report", "--d", "8", "--trials", "1", "--alpha", "-1"], "alpha, beta >= 0"),
    (["init-report", "--d", "8", "--trials", "1", "--beta", "-1"], "alpha, beta >= 0"),
    (["moments", "--alpha", "1e154", "--trials", "2"], "alpha squared overflows"),
    (["moments", "--beta", "1e154", "--trials", "2"], "beta squared overflows"),
    (["init-report", "--d", "8", "--trials", "1", "--alpha", "1e200"], "alpha squared overflows"),
    (["init-report", "--d", "8", "--trials", "1", "--beta", "1e200"], "beta squared overflows"),
    (["init-report", "--d", "8", "--trials", "1", "--c", "1e200"], "c squared overflows"),
]


@pytest.mark.parametrize("argv, key", _OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in _OUT_OF_RANGE])
def test_out_of_range_values_exit_1_naming_key(tmp_path, capsys, argv, key):
    """Values the schema types admit but no command can run are domain
    errors: exit 1, a message naming the key, and no report."""
    from skiplab.harness import Dataset, save_tensor_file
    empty = tmp_path / "empty.skls"
    save_tensor_file(empty, Dataset(np.zeros((0, 4, 8)), np.zeros(0, np.uint32), 3))
    out = tmp_path / "r.csv"
    argv = [str(empty) if a == "EMPTY" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [(c, k) for c, schema in sorted(SCHEMAS.items())
                                          for k, entry in schema.items() if entry[0] is int])
def test_check_ranges_reads_each_int_least_value_from_its_schema_entry(command, key):
    """Every int flag's least value passes _check_ranges and one below it is
    refused naming the key; the least value is the entry's third element, 1
    where there is none."""
    from skiplab.cli import _check_ranges
    low = SCHEMAS[command][key][2] if len(SCHEMAS[command][key]) > 2 else 1
    defaults = {k: entry[1] for k, entry in SCHEMAS[command].items()}
    _check_ranges(command, defaults | {key: low})
    with pytest.raises(ValueError, match=f"^{key} must be >= {low}, got {low - 1}$"):
        _check_ranges(command, defaults | {key: low - 1})


@pytest.mark.parametrize("command", ["profile", "train"])
def test_attention_stage_overflow_stops_before_the_mlp(tmp_path, capsys, command):
    """With --c 1e200 layer 0's attention stage overflows: profile exits 1
    naming it, train reports a divergence at step 0, and the MLP never runs
    on the non-finite output (no "invalid value" warning from its matmul)."""
    out = tmp_path / "r.csv"
    argv = [command, "--n", "4", "--d", "8", "--layers", "2", "--mlp-hidden", "8",
            "--c", "1e200", "--out", str(out)]
    if command == "train":
        argv += ["--samples", "8", "--steps", "4", "--batch-size", "4"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if "invalid value" in str(w.message)]
    if command == "profile":
        assert code == 1
        assert "non-finite values at layer 0 (attention stage)" in capsys.readouterr().err
    else:
        assert code == 0
        last = list(csv.DictReader(io.StringIO(out.read_text())))[-1]
        assert (last["diverged"], last["diverged_step"]) == ("true", "0")


@pytest.mark.parametrize("argv", [
    ["moments", "--alpha", "1e149", "--trials", "2"],
    ["moments", "--beta", "1e149", "--trials", "2"],
    ["init-report", "--d", "8", "--trials", "1", "--alpha", "1.6e150", "--beta", "1.6e150",
     "--c", "1.3e151"],
])
def test_large_values_below_the_overflow_bound_run(tmp_path, argv):
    """Just under the bound that refuses the rows above, a command still
    runs, warns of nothing and reports finite numbers only."""
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 0
    row, = csv.DictReader(io.StringIO(out.read_text()))
    numbers = [v for k, v in row.items() if k not in ("command", "version")]
    assert numbers and all(np.isfinite(float(v)) for v in numbers)


@pytest.mark.parametrize("argv", [
    ["init-report", "--d", "8", "--trials", "1", "--tokens", "2"],
    ["beta-sweep", "--n", "2", "--d", "4", "--trials", "1"],
])
def test_two_tokens_are_accepted(tmp_path, argv):
    """Two tokens are the fewest whose softmax rows can be compared."""
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.exists()


class _ReadRecorder(dict):
    """Parameter dict that records every key a command reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_every_schema_key_is_read(command):
    """A flag the command never reads is dead: every schema key must be read
    when the command runs."""
    cfg = parse_config([command, *_SMALL[command], "--out", "x.csv"])
    p = _ReadRecorder(cfg.parameters)
    _COMMANDS[command](p, cfg.seed)
    assert p.read == set(SCHEMAS[command])


def test_init_report_rejects_trunc_std(tmp_path):
    """init-report draws no truncated-normal weights, so it takes no trunc_std."""
    assert main(["init-report", "--trunc-std", "5",
                 "--out", str(tmp_path / "i.csv")]) == 2


def test_init_report_rejects_heads(tmp_path):
    """init-report draws its Q K pair at d_h = d, so no head count changes it."""
    assert main(["init-report", "--heads", "2",
                 "--out", str(tmp_path / "i.csv")]) == 2


def test_init_report_command(tmp_path):
    out = tmp_path / "i.csv"
    assert main(["init-report", "--d", "16", "--trials", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert "kappa_vo" in header and "qk_diag_mean" in header


def test_every_command_rerun_is_byte_identical(tmp_path):
    """Determinism across the whole command surface at small sizes, with
    each CSV report's columns where they have always been, and every JSON
    record laid out as command, seed, the schema's keys, threads, what the
    command adds, and version last."""
    for fmt in ("csv", "records"):
        for command, extra in _SMALL.items():
            a = tmp_path / f"{command}-{fmt}-a.out"
            b = tmp_path / f"{command}-{fmt}-b.out"
            base = [command, *extra, "--seed", "9", "--format", fmt]
            assert main(base + ["--out", str(a)]) == 0, command
            assert main(base + ["--out", str(b)]) == 0, command
            assert a.read_bytes() == b.read_bytes(), (command, fmt)
            if fmt == "csv":
                assert a.read_text().split("\n")[0] == _HEADERS[command]
                continue
            echo = ["command", "seed", *SCHEMAS[command], "threads"]
            for line in a.read_text().splitlines():
                keys = list(json.loads(line))
                assert keys[:len(echo)] == echo and keys[-1] == "version", (command, keys)


def test_threads_env_echoed_and_validated(tmp_path, monkeypatch):
    out = tmp_path / "e.csv"
    monkeypatch.setenv("SKLS_THREADS", "4")
    assert main(["prop1", "--trials", "2", "--out", str(out)]) == 0
    assert ",4," in out.read_text().split("\n")[1]
    monkeypatch.setenv("SKLS_THREADS", "zero")
    assert main(["prop1", "--trials", "2", "--out", str(out)]) == 2


@pytest.mark.parametrize("flag", ["--samples", "--classes"])
def test_train_dataset_over_budget_exit_1_before_drawing(tmp_path, capsys, monkeypatch,
                                                         flag):
    """A generated dataset past linalg.MAX_ELEMENTS is a BudgetError (exit 1,
    no report), raised before any of it is drawn or allocated."""
    from skiplab.linalg import MAX_ELEMENTS

    def no_draw(*args, **kwargs):
        raise AssertionError("dataset drawn before the budget check")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "t.csv"
    rows = MAX_ELEMENTS // (4 * 8) + 1
    assert main(["train", "--n", "4", "--d", "8", flag, str(rows),
                 "--out", str(out)]) == 1
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


# Per command, flags that size one array past a budget of 4096 elements, the
# first array the command would build: the n x n softmax input, the pooled
# moment entries and a trial's d x d draw, a coherence pair's basis draw, Z and
# X, init-report's d x d and tokens x tokens, ksplit's tokens, a block's
# weights, and the training head of a tensor file's class count.
_OVER_BUDGET = [
    ["prop1", "--n", "100"],
    ["moments", "--n", "40", "--d", "8"],
    ["moments", "--n", "2", "--d", "80", "--trials", "1"],
    ["concat-bound", "--rows", "400"],
    ["beta-sweep", "--d", "80"],
    ["beta-sweep", "--n", "1000", "--d", "8"],
    ["init-report", "--d", "80"],
    ["init-report", "--d", "8", "--tokens", "1000"],
    ["ksplit", "--n", "1000", "--d", "8"],
    ["profile", "--d", "80"],
    ["profile", "--mlp-hidden", "1000"],
    ["profile", "--n", "100", "--d", "8"],
    ["train", "--n", "4", "--d", "8", "--data", "WIDE"],
    # Each block fits the budget; the 200-block stack does not.
    ["train", "--n", "4", "--d", "8", "--samples", "8", "--layers", "200"],
    ["profile", "--d", "8", "--layers", "200"],
    ["jacobian-check", "--d", "8", "--layers", "200"],
]


@pytest.mark.parametrize("argv", _OVER_BUDGET, ids=" ".join)
def test_flag_sized_array_over_budget_exit_1_before_drawing(tmp_path, capsys, monkeypatch,
                                                            argv):
    """An array whose size a flag sets is checked against linalg.MAX_ELEMENTS
    before its generator is made: exit 1 naming the budget, and no report."""
    import skiplab.linalg
    from skiplab.harness import Dataset, save_tensor_file
    wide = tmp_path / "wide.skls"
    save_tensor_file(wide, Dataset(np.zeros((1, 4, 8)), np.zeros(1, np.uint32), 1000))

    def no_draw(*args, **kwargs):
        raise AssertionError("generator made before the budget check")
    monkeypatch.setattr(skiplab.linalg, "MAX_ELEMENTS", 4096)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "r.csv"
    argv = [str(wide) if a == "WIDE" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    assert main(["prop1", "--alpha", "frog", "--out", "x.csv"]) == 2
    assert main([]) == 2
    assert main(["nonsense", "--out", "x.csv"]) == 2


_SCIPY_SPECIAL_PROBE = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
from skiplab.cli import main
from skiplab.model import _scipy_erf, activation
loaded = ["scipy.special" in sys.modules]
with tempfile.TemporaryDirectory() as tmp:
    out = str(Path(tmp) / "r.csv")
    codes = [main(["init-report", "--d", "8", "--trials", "1", "--out", out])]
    loaded.append("scipy.special" in sys.modules)
    codes.append(main(["profile", *json.loads(sys.argv[1]), "--out", out]))
    loaded.append("scipy.special" in sys.modules)
x = np.linspace(-9.0, 9.0, 181)
act, cdf = activation("gelu", x)
left = "scipy.special._special_ufuncs" in sys.modules
import scipy.special
with scipy.special.errstate(all="ignore"):
    expected = x * 0.5 * (1.0 + scipy.special.erf(x / np.sqrt(2.0)))
print(json.dumps({"codes": codes, "loaded": loaded, "extension_left": left,
                  "erf_loads": _scipy_erf.cache_info().misses,
                  "same_erf": scipy.special.erf is _scipy_erf(),
                  "gelu_bits_equal": act.tobytes() == expected.tobytes()}))
"""


def test_gelu_commands_never_load_scipy_special():
    """scipy.special's package init, about half of a fresh command's
    start-up and 24 MB, never runs: a command without an MLP and a profile
    (GELU MLP) both leave it unloaded, and erf is read once from its own
    extension module, which is not left in sys.modules.  A later import of
    scipy.special works and binds the same erf, and the GELU is the erf
    expression bit for bit.  Checked in a fresh interpreter."""
    assert fresh_interpreter(_SCIPY_SPECIAL_PROBE, json.dumps(_SMALL["profile"])) == {
        "codes": [0, 0], "loaded": [False, False, False], "extension_left": False,
        "erf_loads": 1, "same_erf": True, "gelu_bits_equal": True}
