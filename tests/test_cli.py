import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ccsched
from ccsched import cli
from ccsched.cli import main, parse_snr_grid
from ccsched.errors import ParameterError
from ccsched.model import table_from_json
from ccsched.verifier import (
    ChannelRealization,
    build_beamformers,
    decodability_check,
    verify_numeric,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_feasible_beta_output(capsys):
    code, out, _ = run_cli(capsys, "feasible-beta", "--L", "11", "--G", "8", "--t", "2", "--omega", "4")
    assert code == 0
    assert out.strip() == "3 6"


def test_unknown_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "feasible-beta", "--L", "11", "--bogus", "1")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and "--bogus" in error["reason"]


@pytest.mark.parametrize("argv,reason", [
    (["feasible-beta", "--L", "x", "--G", "8", "--t", "2", "--omega", "4"], "invalid int value: 'x'"),
    (["feasible-beta", "--L", "11", "--G", "8"], "required: --t, --omega"),
    (["schedule", "--L", "10", "--G", "3", "--t", "1", "--omega", "5", "--mode", "both"], "invalid choice"),
    (["verify", "--table"], "expected one argument"),
    (["verify", "--numeric"], "required: --table"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "required: command"),
])
def test_usage_errors_exit_2_with_json_reason(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and reason in error["reason"]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"], ["feasible-beta", "-h"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(("usage: ccsched", "ccsched 0"))


def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 11\nG = 8\nt = 2\nomega = 4\n")
    code, out, _ = run_cli(capsys, "feasible-beta", "--config", str(cfg))
    assert code == 0 and out.strip() == "3 6"
    # a flag on the command line still wins over the file
    code, out, _ = run_cli(capsys, "feasible-beta", "--config", str(cfg), "--L", "10", "--G", "3",
                           "--t", "1", "--omega", "5")
    assert code == 0 and out.strip() == "2"
    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--config", str(cfg), "--mode", "sym", "--beta", "3", "-o", str(table))
    cfg.write_text(f"table = {table}\nnumeric = true\ntrials = 2\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0 and json.loads(out)["numeric"]["ok"] is True


def test_config_without_a_required_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 11\nG = 8\n")
    code, _, err = run_cli(capsys, "feasible-beta", "--config", str(cfg), "--t", "2")
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and error["reason"].endswith("required: --omega")


def test_schedule_writes_valid_table(tmp_path, capsys):
    out = tmp_path / "table.json"
    code, _, _ = run_cli(
        capsys,
        "schedule", "--mode", "asym", "--omega", "5", "--t", "1", "--L", "10",
        "--G", "3", "--beta", "2", "--m", "2", "--seed", "7", "-o", str(out),
    )
    assert code == 0
    table = table_from_json(out.read_text())
    table.validate()
    assert len(table.columns) == 10


def test_schedule_then_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "sym", "--omega", "4", "--t", "1",
            "--L", "11", "--G", "8", "--beta", "2", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "verify", "--table", str(out), "--numeric", "--trials", "3")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["symbolic"] == "PASS"
    assert doc["numeric"]["ok"] is True


def test_verify_fails_on_bad_table(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "omega": 3, "t": 1, "L": 2, "G": 9, "users": [1, 2, 3],
        "delta": 1, "delta_tilde": 3,
        "m": 0, "columns": [[[1, 2], [1, 3], [2, 3]]] * 3,
    }))
    code, stdout, _ = run_cli(capsys, "verify", "--table", str(bad))
    assert code == 4
    # the JSON verdict is printed before the error is raised
    assert '"FAIL"' in stdout


@pytest.mark.parametrize(
    "field, value",
    [("users", ["a", "b", 3, 4, 5]), ("t", "1"), ("columns", [[1, 2]]), ("omega", True), ("t", -1)],
)
def test_verify_rejects_badly_typed_table(tmp_path, capsys, field, value):
    """Each reason names the field; a negative t used to be reported as a
    group that must have exactly t + 1 = 0 users."""
    doc = {"omega": 5, "t": 1, "L": 10, "G": 3, "users": [1, 2, 3, 4, 5],
           "delta": 1, "delta_tilde": 1, "m": 0, "columns": [[[1, 2]]]}
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--table", str(bad))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "MalformedTableError" and f"'{field}'" in error["reason"]


def test_verify_numeric_locates_worst_margins(tmp_path, capsys):
    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "asym", "--omega", "5", "--t", "1", "--L", "10",
            "--G", "3", "--beta", "2", "--m", "2", "-o", str(table))
    code, out, _ = run_cli(capsys, "verify", "--table", str(table), "--numeric",
                           "--trials", "40", "--seed", "1")
    assert code == 0
    numeric = json.loads(out)["numeric"]
    assert set(numeric["min_sigma_at"]) == {"trial", "column", "user"}
    assert set(numeric["max_leakage_at"]) == {"trial", "column", "user", "group"}
    # the location names the draw, cell (trial, 0) of the seed, and the column
    # that reproduce the worst sigma alone
    at = numeric["min_sigma_at"]
    parsed = table_from_json(table.read_text())
    column = parsed.columns[at["column"] - 1]
    channels = ChannelRealization.draw(parsed.users, parsed.G, parsed.L, seed=1, cells=(at["trial"], 0))
    report = verify_numeric(column, channels, build_beamformers(column, channels))
    assert report.min_sigma == pytest.approx(numeric["min_sigma"], rel=1e-12)
    assert report.min_sigma_at["user"] == at["user"]


def test_table_with_an_empty_column(tmp_path, capsys, monkeypatch):
    """An empty column holds no stream: the numeric check has nothing to
    check there, and a rate sweep refuses it with a reason before it draws
    any channel."""
    doc = json.loads((Path(__file__).parent / "data" / "example1_dof14.json").read_text())
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    doc["columns"].append([])
    table = tmp_path / "t.json"
    table.write_text(json.dumps(doc))
    flags = ["--numeric", "--trials", "3"]
    code, out, _ = run_cli(capsys, "verify", "--table", str(table), *flags)
    _, want, _ = run_cli(capsys, "verify", "--table", str(plain), *flags)
    assert code == 0 and json.loads(out)["numeric"] == json.loads(want)["numeric"]

    def no_draw(*args, **kwargs):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(no_draw))
    code, _, err = run_cli(capsys, "rate-sweep", "--table", str(table), "--trials", "3000")
    assert code == 2
    assert json.loads(err)["error"] == {"type": "ParameterError", "reason": "column has no scheduled streams"}


def test_import_loads_neither_fractions_nor_decimal():
    """The package's start-up imports no exact-arithmetic module, nor the
    thread pool (with its logging) that only a numeric run opens."""
    src = str(Path(ccsched.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, ccsched.cli; "
        "print(sorted({'fractions', 'decimal', 'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_infeasible_m_is_parameter_error(capsys):
    code, _, err = run_cli(
        capsys,
        "schedule", "--mode", "asym", "--omega", "5", "--t", "2", "--L", "11",
        "--G", "6", "--beta", "3", "--m", "4", "-o", "-",
    )
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["type"] == "InfeasibleMError"
    assert "reason" in doc["error"]


def test_construction_failure_exits_3(capsys):
    # m exceeds the distinct donor groups of the beta=1 baseline at omega=4
    code, _, err = run_cli(
        capsys,
        "schedule", "--mode", "asym", "--omega", "4", "--t", "1", "--L", "11",
        "--G", "8", "--beta", "1", "--m", "3", "-o", "-",
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ConstructionError"


def test_rate_sweep_csv(tmp_path, capsys):
    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "sym", "--omega", "5", "--t", "1",
            "--L", "10", "--G", "3", "--beta", "2", "-o", str(table))
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "rate-sweep", "--table", str(table), "--snr", "0:10:20",
                         "--trials", "5", "--seed", "3", "-o", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "snr_db,mean_rsym,std_rsym,min_column_rate,dof,theta"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"


def test_rate_sweep_deterministic(tmp_path, capsys):
    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "sym", "--omega", "4", "--t", "1",
            "--L", "11", "--G", "8", "--beta", "1", "-o", str(table))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run_cli(capsys, "rate-sweep", "--table", str(table), "--snr", "0:10:20",
                "--trials", "4", "--seed", "11", "-o", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_dof_region_csv_and_witnesses(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code, _, _ = run_cli(capsys, "dof-region", "--L", "11", "--G", "8", "--t", "1",
                         "--omega", "4", "-o", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,omega,t,beta,m,dof,witness_file"
    dofs = [int(line.split(",")[5]) for line in lines[1:]]
    assert dofs == list(range(4, 21, 2))
    for line in lines[1:]:
        witness = tmp_path / line.split(",")[6]
        table = table_from_json(witness.read_text())
        table.validate()


def test_dof_region_witness_dir_beside_the_csv(tmp_path, capsys, monkeypatch):
    """A witness directory outside the CSV's own is named relative to the
    CSV's directory, so every row's path resolves from there."""
    monkeypatch.chdir(tmp_path)
    for out, witness_dir in ((tmp_path / "A" / "region.csv", tmp_path / "B"), (Path("C/region.csv"), Path("D/w"))):
        out.parent.mkdir(parents=True)
        code, _, _ = run_cli(capsys, "dof-region", "--L", "11", "--G", "8", "--t", "1",
                             "--omega", "4", "-o", str(out), "--witness-dir", str(witness_dir))
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 9 and len(list(witness_dir.iterdir())) == 9
        for row in rows:
            witness = out.parent / row.split(",")[6]
            assert witness.resolve().parent == witness_dir.resolve()
            table_from_json(witness.read_text()).validate()


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 11\nG = 8\nt = 2\nomega = 4  # comment\n")
    code, out, _ = run_cli(capsys, "feasible-beta", "--config", str(cfg),
                           "--L", "11", "--G", "8", "--t", "2", "--omega", "4")
    assert code == 0 and out.strip() == "3 6"


def test_config_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 4\nsnr = 0:10:10\nseed = 2\n")
    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "sym", "--omega", "4", "--t", "1",
            "--L", "11", "--G", "8", "--beta", "1", "-o", str(table))
    out = tmp_path / "s.csv"
    code, _, _ = run_cli(capsys, "rate-sweep", "--config", str(cfg), "--table", str(table),
                         "--snr", "0:10:20", "-o", str(out))
    assert code == 0
    # CLI --snr wins over the config, config supplies trials/seed
    explicit = tmp_path / "explicit.csv"
    run_cli(capsys, "rate-sweep", "--table", str(table), "--snr", "0:10:20",
            "--trials", "4", "--seed", "2", "-o", str(explicit))
    default = tmp_path / "default.csv"
    run_cli(capsys, "rate-sweep", "--table", str(table), "--snr", "0:10:20", "--trials", "4",
            "-o", str(default))
    assert len(out.read_text().strip().split("\n")) == 4
    assert out.read_bytes() == explicit.read_bytes() != default.read_bytes()


def test_config_sets_subcommand_values(tmp_path, capsys):
    table = tmp_path / "t.json"
    cfg = tmp_path / "schedule.cfg"
    cfg.write_text("mode = sym\nbeta = 2\n")
    code, _, _ = run_cli(capsys, "schedule", "--config", str(cfg), "--omega", "5", "--t", "1",
                         "--L", "10", "--G", "3", "-o", str(table))
    assert code == 0
    parsed = table_from_json(table.read_text())
    assert parsed.m == 0
    assert all(set(col.beta(parsed.users).values()) == {2} for col in parsed.columns)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("trials = 1\nnumeric = true\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--table", str(table))
    assert code == 0
    assert json.loads(out)["numeric"]["trials"] == 1


@pytest.mark.parametrize("line", ["trials = many", "numeric = maybe", "tol = small"])
def test_config_badly_typed_value_exits_2(tmp_path, capsys, line):
    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "sym", "--omega", "4", "--t", "1",
            "--L", "11", "--G", "8", "--beta", "1", "-o", str(table))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg), "--table", str(table))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and line.split()[0] in error["reason"]


@pytest.mark.parametrize("command,key,value", [
    ("verify", "trials", "many"),
    ("verify", "tol", "small"),
    ("schedule", "mode", "both"),
])
def test_config_value_gets_its_flags_reason(tmp_path, capsys, command, key, value):
    """A bad config value is refused with the message its flag gets."""
    base = {
        "verify": ["--table", str(DATA / "example1_dof14.json")],
        "schedule": ["--L", "10", "--G", "3", "--t", "1", "--omega", "5"],
    }[command]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *base)
    assert code == 2 and out == ""
    code, _, flag_err = run_cli(capsys, command, f"--{key}", value, *base)
    assert code == 2
    assert json.loads(err)["error"] == json.loads(flag_err)["error"]
    assert f"argument --{key}: invalid" in json.loads(err)["error"]["reason"]


def test_config_value_with_a_leading_dash(tmp_path, capsys):
    """A config value that starts with "-" is a value, not a flag."""
    table = str(DATA / "example1_dof14.json")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("snr = -10:5:30\n")
    code, out, _ = run_cli(capsys, "rate-sweep", "--config", str(cfg), "--table", table, "--trials", "3")
    assert code == 0
    code, want, _ = run_cli(capsys, "rate-sweep", "--snr=-10:5:30", "--table", table, "--trials", "3")
    assert code == 0 and out == want and out.split("\n")[1].startswith("-10,")


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    code, _, err = run_cli(capsys, "feasible-beta", "--config", str(cfg),
                           "--L", "10", "--G", "3", "--t", "1", "--omega", "5")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParameterError"


def test_shared_parser_keeps_no_config_values(tmp_path, capsys):
    """A config file's trials and seed reach only the call that names it."""
    table = str(DATA / "example1_dof14.json")
    _, want, _ = run_cli(capsys, "verify", "--table", table, "--numeric", "--trials", "100", "--seed", "0")
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("trials = 3\nseed = 5\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--table", table, "--numeric")
    assert code == 0 and json.loads(out)["numeric"]["trials"] == 3
    code, out, _ = run_cli(capsys, "verify", "--table", table, "--numeric")
    assert code == 0 and out == want


def test_shared_parser_keeps_its_required_flags(tmp_path, capsys):
    """A config file that supplies every required flag leaves them required
    for the next call."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 11\nG = 8\nt = 2\nomega = 4\n")
    code, out, _ = run_cli(capsys, "feasible-beta", "--config", str(cfg))
    assert code == 0 and out.strip() == "3 6"
    code, out, err = run_cli(capsys, "feasible-beta")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError"
    assert error["reason"].endswith("required: --L, --G, --t, --omega")


def test_shared_parser_after_a_usage_error(capsys):
    for _ in range(2):
        code, _, err = run_cli(capsys, "feasible-beta", "--L", "11", "--G", "8")
        assert code == 2 and json.loads(err)["error"]["reason"].endswith("required: --t, --omega")
        code, out, _ = run_cli(capsys, "feasible-beta", "--L", "11", "--G", "8", "--t", "2", "--omega", "4")
        assert code == 0 and out.strip() == "3 6"


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    make_parser = cli.make_parser

    def counting():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "make_parser", counting)
    table = str(DATA / "example1_dof14.json")
    for argv in (
        ["feasible-beta", "--L", "11", "--G", "8", "--t", "2", "--omega", "4"],
        ["verify", "--table", table],
        ["verify", "--table", table, "--numeric", "--trials", "2"],
        ["reproduce", "--case", "feasible-sets"],
        ["feasible-beta", "--L", "10", "--G", "3", "--t", "1", "--omega", "5"],
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert len(built) == 1


def non_uniform_example1():
    """example1_dof12.json with one group moved to another column: the first
    such move, over (source column, group, target column), whose table still
    passes the symbolic check."""
    doc = json.loads((DATA / "example1_dof12.json").read_text())
    n = len(doc["columns"])
    for source in range(n):
        for i in range(len(doc["columns"][source])):
            for target in (c for c in range(n) if c != source):
                columns = [list(c) for c in doc["columns"]]
                columns[target].append(columns[source].pop(i))
                text = json.dumps(dict(doc, columns=columns))
                if decodability_check(table_from_json(text)).ok:
                    return text
    raise AssertionError("no move keeps the table decodable")


def test_rate_sweep_refuses_non_uniform_totals_before_sweeping(tmp_path, capsys, monkeypatch):
    path = tmp_path / "moved.json"
    path.write_text(non_uniform_example1())
    swept = []
    monkeypatch.setattr(cli, "snr_sweep", lambda *args, **kwargs: swept.append(args))
    code, out, err = run_cli(capsys, "rate-sweep", "--table", str(path), "--trials", "3000")
    assert code == 4 and out == "" and swept == []
    error = json.loads(err)["error"]
    assert error["type"] == "VerificationError"
    assert error["reason"].startswith("non-uniform per-column stream totals: [10, 12, ")


def test_parse_snr_grid():
    assert parse_snr_grid("0:5:15") == [0, 5, 10, 15]
    assert parse_snr_grid("3,7") == [3.0, 7.0]
    assert parse_snr_grid("-20:10:0") == [-20, -10, 0]
    for bad in ("0:-5:10", "0:5", "0:0:10", "10:5:0", "0:0.001:10", "5,", "1e308"):
        with pytest.raises(ParameterError):
            parse_snr_grid(bad)


@pytest.mark.parametrize("snr", ["-10:5:30", "-10,0", "-.5"])
def test_rate_sweep_negative_snr_as_a_separate_argument(capsys, snr):
    """A grid that starts below 0 dB may follow --snr as its own argument."""
    table = str(DATA / "example1_dof14.json")
    joined = run_cli(capsys, "rate-sweep", "--table", table, f"--snr={snr}", "--trials", "2")
    separate = run_cli(capsys, "rate-sweep", "--table", table, "--snr", snr, "--trials", "2")
    assert joined[0] == 0 and separate == joined
    first = separate[1].splitlines()[1].split(",")[0]
    assert float(first) == float(re.split("[:,]", snr)[0])


@pytest.mark.parametrize("snr,reason", [
    ("abc", "is not a number"),
    ("nan,5", "is not a finite value"),
    ("inf", "is not a finite value"),
    ("0:nan:10", "is not a finite value"),
    ("0:5:inf", "is not a finite value"),
    ("4000", "up to 3000 dB"),
    ("0:1e-9:10", "more than 1000 points"),
    ("10:5:0", "0 points"),
])
def test_rate_sweep_bad_snr_exits_2(capsys, snr, reason):
    table = str(Path(__file__).parent / "data" / "example1_dof14.json")
    code, out, err = run_cli(capsys, "rate-sweep", "--table", table, f"--snr={snr}",
                             "--trials", "2", "-o", "-")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and reason in error["reason"]


@pytest.mark.parametrize("flags,reason", [
    # the rate array alone would take 568 PiB
    (["--trials", "1000000000000000"], "8 SNR points x 1000000000000000 trials x 10 columns"),
    # one trial past MAX_SWEEP_RATES
    (["--snr", "0:1:999", "--trials", "1001"], "is 10010000 rates, more than 10000000"),
])
def test_rate_sweep_too_many_rates_exits_2(capsys, flags, reason):
    table = str(Path(__file__).parent / "data" / "example1_dof14.json")
    code, out, err = run_cli(capsys, "rate-sweep", "--table", table, *flags, "-o", "-")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and reason in error["reason"]


@pytest.mark.parametrize("trials,reason", [
    # 10**16 column-trials
    ("1000000000000000", "1 SNR point x 1000000000000000 trials x 10 columns"),
    # one trial past MAX_SWEEP_RATES over the 10 columns
    ("1000001", "is 10000010 rates, more than 10000000"),
])
def test_verify_numeric_too_many_trials_exits_2(capsys, monkeypatch, trials, reason):
    """`verify --numeric` counts as a one-point sweep against the rate budget
    and is refused before any channel is drawn."""

    def no_draw(*args, **kwargs):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(no_draw))
    table = str(Path(__file__).parent / "data" / "example1_dof14.json")
    code, out, err = run_cli(capsys, "verify", "--table", table, "--numeric", "--trials", trials)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and reason in error["reason"]


def test_dof_region_matches_golden_digests(tmp_path, capsys):
    """Region CSVs and witness tables are fixed results: digests of each
    file that `dof-region -o region.csv` writes, at seed 0."""
    golden = json.loads(
        (Path(__file__).parent / "data" / "dof_region_seed0.sha256.json").read_text()
    )
    for key, want in golden.items():
        L, G, t, omega = re.fullmatch(r"L(\d+)_G(\d+)_t(\d+)_omega(\d+)", key).groups()
        out = tmp_path / key / "region.csv"
        code, _, _ = run_cli(capsys, "dof-region", "--L", L, "--G", G, "--t", t,
                             "--omega", omega, "--seed", "0", "-o", str(out))
        assert code == 0
        digests = {
            str(path.relative_to(out.parent)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.parent.rglob("*"))
            if path.is_file()
        }
        assert digests == want, key


def test_reproduce_example2(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--case", "example2", "-o", str(tmp_path / "art"))
    assert code == 0
    assert "PASS  example2: dof = 24" in out
    assert "FAIL" not in out
    table = table_from_json((tmp_path / "art" / "example2.json").read_text())
    assert table.delta_tilde == 8 and len(table.columns) == 10


def test_reproduce_failed_check_exits_4(tmp_path, monkeypatch, capsys):
    """A failed check gets a FAIL line, and so does the overall verdict,
    on stdout and in summary.txt."""
    monkeypatch.setattr(cli, "feasible_beta_set", lambda L, G, t, omega: [2])
    code, out, err = run_cli(capsys, "reproduce", "--case", "feasible-sets", "-o", str(tmp_path))
    assert code == 4 and json.loads(err)["error"]["type"] == "VerificationError"
    assert out.splitlines() == [
        "FAIL  feasible-set L=11 G=8 t=2 omega=4: [2]",
        "PASS  feasible-set L=10 G=3 t=1 omega=3: [2]",
        "PASS  feasible-set L=10 G=3 t=1 omega=5: [2]",
        "FAIL  feasible-set L=10 G=3 t=1 omega=10: [2]",
        "FAIL  overall",
    ]
    assert (tmp_path / "summary.txt").read_text() == out


def test_reproduce_determinism(tmp_path, capsys):
    """Reruns, and runs at another seed, write the same bytes: the
    constructions ignore the seed."""
    for name, seed in (("r1", "4"), ("r2", "4"), ("r3", "9")):
        code, _, _ = run_cli(capsys, "reproduce", "--case", "example1", "--seed", seed,
                             "-o", str(tmp_path / name))
        assert code == 0
    a, b, c = ((tmp_path / name / "example1.json").read_bytes() for name in ("r1", "r2", "r3"))
    assert a == b == c


@pytest.mark.parametrize("command", ["verify", "rate-sweep"])
@pytest.mark.parametrize("flags,reason", [
    (["--seed", "-5"], "--seed must be non-negative"),
    (["--trials", "0"], "--trials must be at least 1"),
    (["--trials", "-3"], "--trials must be at least 1"),
    # one past the largest key word
    (["--seed", "18446744073709551616"], "seed must be an integer in [0, 2**64)"),
    (["--seed", "99999999999999999999999"], "seed must be an integer in [0, 2**64)"),
])
def test_channel_draw_flags_exit_2(tmp_path, capsys, command, flags, reason):
    """Each refusal names the value that was passed, and comes before the
    symbolic check: a table that fails it (here, with one transmit antenna)
    exits 2 as well, not 4."""
    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "sym", "--omega", "4", "--t", "1",
            "--L", "11", "--G", "8", "--beta", "1", "-o", str(table))
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(dict(json.loads(table.read_text()), L=1)))
    assert not decodability_check(table_from_json(failing.read_text())).ok
    for path in (table, failing):
        argv = [command, "--table", str(path)] + (["--numeric"] if command == "verify" else [])
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["type"] == "ParameterError"
        assert reason in doc["error"]["reason"] and doc["error"]["reason"].endswith(f"got {flags[1]}")


@pytest.mark.parametrize("command", ["verify", "rate-sweep"])
def test_largest_key_word_is_a_seed(capsys, command):
    """--seed 2**64 - 1, the largest key word, keys every draw of the run."""
    argv = [command, "--table", str(DATA / "example1_dof14.json"), "--trials", "3", "--seed", str((1 << 64) - 1)]
    code, out, err = run_cli(capsys, *argv, *(["--numeric"] if command == "verify" else ["--snr", "0,30"]))
    assert code == 0 and err == ""
    if command == "verify":
        assert json.loads(out)["numeric"]["ok"] is True
    else:
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0", "30"]


@pytest.mark.parametrize("command", ["verify", "rate-sweep"])
@pytest.mark.parametrize("field,value", [
    pytest.param("L", 10**12, id="L"),
    pytest.param("G", 10**12, id="G"),
    pytest.param("L", 10**6, id="L=10**6"),
    pytest.param("L", 2**62, id="L=2**62"),
    pytest.param("L", 10**20, id="L=10**20"),
    pytest.param("G", 10**20, id="G=10**20"),
])
def test_huge_antenna_count_exits_2(tmp_path, capsys, monkeypatch, command, field, value):
    """A table with a huge antenna count passes the symbolic check, but its
    channel draws or nullspace Q factors would not fit the kernel's
    budget: the command exits 2 with a JSON reason before it draws a
    channel, so nothing of that size is allocated."""
    doc = json.loads((DATA / "example1_dof14.json").read_text())
    doc[field] = value
    table = tmp_path / "huge.json"
    table.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", "--table", str(table))[0] == 0

    def no_draw(*args, **kwargs):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(no_draw))
    argv = [command, "--table", str(table), "--trials", "1"] + (["--numeric"] if command == "verify" else ["--snr", "10"])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError"
    assert error["reason"].startswith(f"L = {doc['L']}, G = {doc['G']}: ") and "more than" in error["reason"]


@pytest.mark.parametrize("command", ["verify", "rate-sweep"])
def test_repeated_user_exits_2(tmp_path, capsys, command):
    """Example 1's table with user 5 listed twice and omega 6 would take
    theta 42 instead of 35; the parser refuses it."""
    doc = json.loads((DATA / "example1_dof14.json").read_text())
    doc["users"].append(5)
    doc["omega"] = 6
    table = tmp_path / "repeated.json"
    table.write_text(json.dumps(doc))
    argv = [command, "--table", str(table), "--trials", "4"] + (["--numeric"] if command == "verify" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error == {"type": "MalformedTableError", "reason": "user 5 repeats in the user list"}


def test_validation_builds_no_universe_of_groups(tmp_path):
    """A 1 KB table with omega = 60, t = 29 and one 30-user group: its
    universe holds C(60, 30), about 1.2e17 groups, and validation builds
    none of them.  Under a 2 GB address-space cap of its own, ``verify``
    exits 2 and names the first three missing groups."""
    pytest.importorskip("resource")
    users = list(range(1, 61))
    table = tmp_path / "wide.json"
    table.write_text(json.dumps({"omega": 60, "t": 29, "L": 60, "G": 30, "users": users,
                                 "delta": 1, "delta_tilde": 1, "m": 0, "columns": [[users[:30]]]}))
    src = str(Path(ccsched.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
              "from ccsched.cli import main; sys.exit(main(sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", capped, "verify", "--table", str(table)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 2 and out.stdout == "", out.stderr
    missing = [tuple(users[:29] + [k]) for k in (31, 32, 33)]
    assert json.loads(out.stderr)["error"] == {"type": "MalformedTableError", "reason": (
        f"conservation violated: expected every group 1 times, got deviations [], missing {missing}")}


def test_memory_error_without_a_message_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(exhausted))
    code, out, err = run_cli(capsys, "verify", "--table", str(DATA / "example1_dof14.json"), "--numeric")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"type": "MemoryError", "reason": "out of memory"}}


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_tol_must_be_finite_positive(capsys, tol):
    table = Path(__file__).parent / "data" / "example1_dof14.json"
    code, out, err = run_cli(capsys, "verify", "--table", str(table), "--numeric",
                             "--trials", "2", "--tol", tol)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ParameterError"
    assert "--tol must be a finite positive number" in doc["error"]["reason"]


@pytest.mark.parametrize("flags,reason", [
    (["--imax", "0"], "--imax must be at least 1"),
    (["--imax", "-1"], "--imax must be at least 1"),
    (["--tau", "-1"], "--tau must be non-negative"),
])
def test_schedule_greedy_flags_exit_2(tmp_path, capsys, flags, reason):
    out = tmp_path / "t.json"
    code, _, err = run_cli(
        capsys,
        "schedule", "--mode", "asym", "--omega", "5", "--t", "1", "--L", "10",
        "--G", "3", "--beta", "2", "--m", "2", "-o", str(out), *flags,
    )
    assert code == 2
    assert not out.exists()
    doc = json.loads(err)
    assert doc["error"]["type"] == "ParameterError"
    assert reason in doc["error"]["reason"]


@pytest.mark.parametrize("command", [
    ["feasible-beta"],
    ["schedule", "--mode", "sym"],
    ["schedule", "--mode", "sym", "--beta", "2"],
    ["schedule", "--mode", "asym", "--beta", "2", "--m", "2"],
    ["dof-region"],
])
@pytest.mark.parametrize("shape,reason", [
    (("10", "3", "-1", "5"), "t must be non-negative"),
    (("10", "3", "-2", "5"), "t must be non-negative"),
    (("0", "3", "1", "5"), "L and G must be at least 1"),
    (("-3", "3", "1", "5"), "L and G must be at least 1"),
    (("10", "0", "1", "5"), "L and G must be at least 1"),
])
def test_antenna_and_gain_flags_exit_2(tmp_path, capsys, command, shape, reason):
    L, G, t, omega = shape
    out = tmp_path / "out"
    argv = command + ["--L", L, "--G", G, "--t", t, "--omega", omega]
    if command[0] != "feasible-beta":
        argv += ["-o", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == "" and not out.exists()
    doc = json.loads(err)
    assert doc["error"]["type"] == "ParameterError"
    assert reason in doc["error"]["reason"]


def test_verify_numeric_runs_one_symbolic_check(tmp_path, capsys, monkeypatch):
    """One slot pass and one witness step serve both the printed symbolic
    report and the numeric run's refusal and plan, at one unit (2 trials)
    and at two (40 trials)."""
    import ccsched.verifier

    table = tmp_path / "t.json"
    run_cli(capsys, "schedule", "--mode", "sym", "--omega", "4", "--t", "1",
            "--L", "11", "--G", "8", "--beta", "2", "-o", str(table))
    calls = []
    for name in ("_group_slots", "_symbolic_report"):
        original = getattr(ccsched.verifier, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(ccsched.verifier, name, counting)
    for trials in ("2", "40"):
        calls.clear()
        code, _, _ = run_cli(capsys, "verify", "--table", str(table), "--numeric", "--trials", trials)
        assert code == 0
        assert calls == ["_group_slots", "_symbolic_report"]


def test_reproduce_all_matches_golden_digests(tmp_path, capsys):
    # the Fig. 3 artifacts and summary.txt are fixed results; example1 and
    # example2 follow the base partition construction of their (5, t) shapes
    golden = json.loads(
        (Path(__file__).parent / "data" / "reproduce_all_seed0.sha256.json").read_text()
    )
    code, _, _ = run_cli(capsys, "reproduce", "--case", "all", "--seed", "0",
                         "-o", str(tmp_path / "art"))
    assert code == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "art").iterdir())
    }
    assert digests == golden
