import json
import os

import numpy as np
import pytest

from skiplab.cli import (RunConfig, UsageError, main, parse_config, run,
                         serialize, write_atomic)
from skiplab.analysis import ExperimentRecord


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

def _records():
    return [
        ExperimentRecord("demo", {"n": 3, "flag": True}, 7,
                         {"kappa": 2.5, "bad": float("inf")}),
        ExperimentRecord("demo", {"n": 3, "flag": False}, 8,
                         {"kappa": 1.25, "bad": 0.5, "extra": 1}),
    ]


def test_serialize_csv_infinite_token_and_union_columns():
    text = serialize(_records(), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "command,seed,n,flag,kappa,bad,version,extra"
    assert "INFINITE" in lines[1]
    assert lines[1].endswith(",")  # missing 'extra' on the first record
    assert "true" in lines[1] and "false" in lines[2]


def test_serialize_records_json_lines():
    text = serialize(_records(), "records")
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
        return [ExperimentRecord("demo", {"flag": flag, "count": count}, 7,
                                 {"kappa": kappa, "bad": bad, "nan": float("nan")})]

    plain = rows(True, 1.5, float("inf"), 3)
    numpy = rows(np.bool_(True), np.float64(1.5), np.float64(np.inf), np.int64(3))
    for fmt in ("csv", "records"):
        assert serialize(numpy, fmt) == serialize(plain, fmt)
    line = serialize(numpy, "csv").strip().split("\n")[1]
    assert line.startswith("demo,7,true,3,1.5,INFINITE,NAN,")
    assert json.loads(serialize(numpy, "records"))["nan"] == "NAN"


def test_write_atomic_no_partial_files(tmp_path):
    target = tmp_path / "out.csv"
    write_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


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


def test_profile_command(tmp_path):
    out = tmp_path / "p.records"
    assert main(["profile", "--n", "4", "--d", "8", "--layers", "1",
                 "--mlp-hidden", "8", "--batch-size", "1",
                 "--param-jacobian", "false", "--format", "records",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert {r["regime"] for r in rows} == {"skip_default", "skipless_default",
                                           "skipless_proposed"}


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


def test_init_report_rejects_trunc_std(tmp_path):
    """init-report draws no truncated-normal weights, so it takes no trunc_std."""
    assert main(["init-report", "--trunc-std", "5",
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
    """Determinism across the whole command surface at small sizes."""
    invocations = {
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
    for fmt in ("csv", "records"):
        for command, extra in invocations.items():
            a = tmp_path / f"{command}-{fmt}-a.out"
            b = tmp_path / f"{command}-{fmt}-b.out"
            base = [command, *extra, "--seed", "9", "--format", fmt]
            assert main(base + ["--out", str(a)]) == 0, command
            assert main(base + ["--out", str(b)]) == 0, command
            assert a.read_bytes() == b.read_bytes(), (command, fmt)


def test_threads_env_echoed_and_validated(tmp_path, monkeypatch):
    out = tmp_path / "e.csv"
    monkeypatch.setenv("SKLS_THREADS", "4")
    assert main(["prop1", "--trials", "2", "--out", str(out)]) == 0
    assert ",4," in out.read_text().split("\n")[1]
    monkeypatch.setenv("SKLS_THREADS", "zero")
    assert main(["prop1", "--trials", "2", "--out", str(out)]) == 2


def test_usage_error_exit_code():
    assert main(["prop1", "--alpha", "frog", "--out", "x.csv"]) == 2
    assert main([]) == 2
    assert main(["nonsense", "--out", "x.csv"]) == 2
