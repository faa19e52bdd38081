"""CLI: subcommand behavior, exit codes, config file merging."""

import json
from functools import partial

import pytest

from megmc import props, synth
from megmc.cli import main
from megmc.synth import Instance


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_props_ok(capsys):
    code, out, _ = run_cli(capsys, ["props", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["total_failures"] == 0


def test_props_self_test(capsys):
    code, out, err = run_cli(capsys, ["props", "--self-test"])
    assert code == 0
    assert "self-test ok" in err


def test_equiv_ok(capsys):
    code, out, _ = run_cli(capsys, ["equiv", "--instances", "4", "--seed", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["instances"] == 4


def test_equiv_unreachable_tol_exits_2(capsys):
    # a tolerance below machine precision forces reported failures
    code, out, _ = run_cli(capsys, ["equiv", "--instances", "4", "--seed", "2",
                                    "--tol", "1e-30"])
    assert code == 2
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("instances", ["0", "-1"])
def test_equiv_without_instances_exits_1(capsys, instances):
    # an empty sweep checks nothing, so it must not report a pass
    code, out, err = run_cli(capsys, ["equiv", "--instances", instances])
    assert code == 1
    assert out == ""
    assert "instances must be >= 1" in err


def test_synth_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    code, out, _ = run_cli(capsys, [
        "synth", "--n", "20", "--beta", "0.25", "--p", "0.1",
        "--seed", "3", "--out", str(out_dir)])
    assert code == 0
    assert "20x20" in out
    inst = Instance.load(out_dir)
    assert inst.m == 20 and inst.n == 20
    assert inst.row_graph.is_connected() and inst.col_graph.is_connected()
    assert inst.meta["beta"] == 0.25
    assert inst.meta["d_hat"] > 0


def test_synth_requires_out(capsys):
    code, _, err = run_cli(capsys, ["synth", "--n", "20"])
    assert code == 1
    assert "--out" in err


def test_run_prints_summary(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--mode", "transductive", "--n", "20", "--beta", "0.0",
        "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(out)
    assert summary["mode"] == "transductive"
    assert summary["T"] == 400
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_table1_stdout_table(capsys):
    code, out, _ = run_cli(capsys, [
        "table1", "--n", "20", "--beta", "0.0", "--beta", "0.5",
        "--reps", "1", "--seed", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n")
    assert "beta=0.5" in lines[0]
    assert lines[1].startswith("20")


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_values": [20], "betas": [0.5], "reps": 1,
                               "seed": 11}))
    code, out, _ = run_cli(capsys, ["table1", "--config", str(cfg)])
    assert code == 0
    assert "beta=0.5" in out

    # explicit flag beats the config file
    code, out, _ = run_cli(capsys, ["table1", "--config", str(cfg),
                                    "--beta", "0.0"])
    assert code == 0
    assert "beta=0" in out and "beta=0.5" not in out


def test_config_file_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_values": [20], "betaz": [0.5]}))
    code, _, err = run_cli(capsys, ["table1", "--config", str(cfg)])
    assert code == 1
    assert "unknown config fields" in err


def test_config_file_missing(capsys):
    code, _, err = run_cli(capsys, ["table1", "--config", "/nonexistent.json"])
    assert code == 1


def test_validation_failure_exit_1(capsys):
    code, _, err = run_cli(capsys, ["table1", "--n", "37"])
    assert code == 1
    assert "benchmark dimension" in err


@pytest.mark.parametrize("command", ["equiv", "props"])
def test_negative_seed_exits_1_naming_the_field(capsys, command):
    code, out, err = run_cli(capsys, [command, "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert "seed must be >= 0, got -1" in err


@pytest.mark.parametrize("argv, message", [
    (["--k", "0"], "k and l must be >= 1"),
    (["--l", "0"], "k and l must be >= 1"),
    (["--seed", "-1"], "seed must be >= 0"),
])
def test_run_rejects_empty_classes_and_negative_seed(capsys, argv, message):
    code, out, err = run_cli(capsys, ["run", "--n", "20", *argv])
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("mode", ["transductive", "inductive"])
def test_overflowing_eta_exits_1(capsys, mode):
    code, out, err = run_cli(capsys, ["run", "--mode", mode, "--n", "20",
                                      "--beta", "0.5", "--eta", "1e5"])
    assert code == 1
    assert out == ""
    assert "eta=100000.0 is too large" in err


def test_unplaceable_boxes_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(props, "box_instance", partial(synth.box_instance, max_attempts=0))
    code, out, err = run_cli(capsys, ["props"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: could not place")


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, ["bogus"])
    assert code == 1
    assert "invalid choice" in err


def test_big_n_gate(capsys):
    code, _, err = run_cli(capsys, ["table1", "--n", "120", "--reps", "1"])
    assert code == 1
    assert "big_n" in err


def test_conservative_flag_passthrough(capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--n", "20", "--beta", "0.0", "--seed", "1", "--conservative"])
    assert code == 0
    assert json.loads(out)["conservative"] is True
