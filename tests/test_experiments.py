"""Experiment harness: determinism, outputs, bounds, equivalence sweep."""

import csv
import json
import math

import sys

import numpy as np
import pytest

from megmc import experiments, spectral
from megmc.experiments import (
    ROW_FIELDS,
    ExperimentConfig,
    TABLE1_BETAS,
    TABLE1_N_VALUES,
    build_cell_instance,
    equivalence_sweep,
    realizable_bound,
    regret_bound,
    run_single,
    run_table1,
    summarize_trace,
    table1_cell,
)
from megmc.transductive import Trace


def drop_seconds(row):
    return {key: val for key, val in row.items() if key != "seconds"}


def test_config_defaults():
    config = ExperimentConfig()
    assert config.mode == "table1"
    assert config.n_values == (20, 40, 60, 80, 100)
    assert config.reps == 10


@pytest.mark.parametrize("kwargs", [
    {"mode": "bogus"},
    {"mode": "equivalence"},
    {"n_values": ()},
    {"betas": ()},
    {"n_values": (37,)},
    {"betas": (0.3,)},
    {"n_values": (120,)},                  # above desk cap without big_n
    {"p": 1.0},
    {"p": -0.1},
    {"reps": 0},
    {"jobs": 0},
    {"mode": "transductive", "n_values": (8,)},   # below max(k, l) = 9
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"k": 0}, "k and l must be >= 1"),
    ({"l": 0}, "k and l must be >= 1"),
    ({"k": -2}, "k and l must be >= 1"),
    ({"seed": -1}, "seed must be >= 0"),
])
def test_config_rejects_empty_classes_and_negative_seed(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)


def test_big_n_opt_in():
    config = ExperimentConfig(n_values=(120,), big_n=True)
    assert config.n_values == (120,)
    assert 120 in TABLE1_N_VALUES
    assert 0.5 in TABLE1_BETAS


def test_cell_deterministic():
    a = table1_cell(0, 20, 0.5, rep=3)
    b = table1_cell(0, 20, 0.5, rep=3)
    assert drop_seconds(a) == drop_seconds(b)


def test_cell_replicates_differ():
    a = table1_cell(0, 20, 0.0, rep=0)
    b = table1_cell(0, 20, 0.0, rep=1)
    assert a["mistakes"] != b["mistakes"] or a["d_hat"] != b["d_hat"]


def test_cell_row_contents():
    row = table1_cell(4, 20, 0.5, rep=2, p=0.1)
    assert row["n"] == 20 and row["beta"] == 0.5 and row["rep"] == 2
    assert row["T"] == 400
    assert 0 <= row["mistakes"] <= 400
    assert row["error"] == row["mistakes"] / 400
    assert row["updates"] >= 0
    assert row["gamma"] == pytest.approx(1 / 3)
    assert row["eta"] == pytest.approx(
        2.0 * math.sqrt(row["d_hat"] * math.log(40) / 800))
    assert row["regret_bound"] == pytest.approx(
        regret_bound(row["d_hat"], row["gamma"], 20, 20, 400))
    # binomial flips, loose band
    assert 10 <= row["noise_flips"] <= 80


def test_cell_instance_noise_free():
    inst, m_side, n_side, d_hat, _, _ = build_cell_instance(
        0, 20, 0.0, 0, p=0.0, k=9, l=9)
    assert inst.noise_mask is None
    assert np.array_equal(inst.labels, inst.u)
    assert m_side.shape == (20, 20) and n_side.shape == (20, 20)
    assert d_hat > 0


def test_run_table1_outputs(tmp_path):
    config = ExperimentConfig(n_values=(20,), betas=(0.0, 0.5), reps=2,
                              seed=1, out=str(tmp_path))
    result = run_table1(config)
    assert len(result["rows"]) == 4
    assert set(result["cells"]) == {(20, 0.0), (20, 0.5)}
    for (n, beta), stats in result["cells"].items():
        errs = [r["error"] for r in result["rows"]
                if r["n"] == n and r["beta"] == beta]
        assert stats["reps"] == 2
        assert stats["mean"] == pytest.approx(np.mean(errs))
        assert stats["std"] == pytest.approx(np.std(errs, ddof=1))

    # floats are written as repr, which parses back exactly
    counts = {"n", "rep", "T", "mistakes", "updates", "noise_flips"}
    with open(tmp_path / "rows.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        parsed = [{key: (int if key in counts else float)(val)
                   for key, val in rec.items()} for rec in reader]
    assert reader.fieldnames == ROW_FIELDS
    assert parsed == result["rows"]

    table = (tmp_path / "table.txt").read_text()
    assert table.splitlines()[0].startswith("n")
    assert "beta=0.5" in table and "beta=0" in table
    assert table.splitlines()[1].startswith("20")

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["seed"] == 1
    assert set(summary["cells"]) == {"n=20,beta=0", "n=20,beta=0.5"}


def test_run_table1_replicate_reproducible():
    config = ExperimentConfig(n_values=(20,), betas=(0.5,), reps=3, seed=9)
    rows = run_table1(config)["rows"]
    redo = table1_cell(9, 20, 0.5, rep=1)
    match = [r for r in rows if r["rep"] == 1]
    assert len(match) == 1
    assert drop_seconds(match[0]) == drop_seconds(redo)


def test_run_table1_worker_pool_matches_sequential():
    base = ExperimentConfig(n_values=(20,), betas=(0.0, 0.5), reps=2, seed=2)
    seq = run_table1(base)["rows"]
    pooled = run_table1(ExperimentConfig(n_values=(20,), betas=(0.0, 0.5),
                                         reps=2, seed=2, jobs=2))["rows"]
    assert [drop_seconds(r) for r in seq] == [drop_seconds(r) for r in pooled]


def test_run_table1_worker_pool_reports_progress_in_job_order():
    seen = []
    config = ExperimentConfig(n_values=(20,), betas=(0.0, 0.5), reps=2, seed=2, jobs=2)
    rows = run_table1(config, progress=seen.append)["rows"]
    assert [(r["beta"], r["rep"]) for r in rows] == [(0.5, 0), (0.5, 1), (0.0, 0), (0.0, 1)]
    assert seen == rows


def test_run_table1_requires_table1_mode():
    config = ExperimentConfig(mode="transductive", n_values=(20,))
    with pytest.raises(ValueError, match="table1"):
        run_table1(config)


def test_run_single_transductive(tmp_path):
    config = ExperimentConfig(mode="transductive", n_values=(20,), betas=(0.25,),
                              seed=4, out=str(tmp_path))
    result = run_single(config)
    summary = result["summary"]
    assert summary["T"] == 400
    assert summary["mode"] == "transductive"
    assert summary["mistake_rate"] == pytest.approx(summary["mistakes"] / 400)
    assert summary["realizable_bound"] == pytest.approx(
        realizable_bound(summary["d_hat"], summary["gamma"], 20, 20))
    assert summary["mistakes_minus_noise"] == (
        summary["mistakes"] - summary["noise_flips"])

    trace = Trace.from_csv(tmp_path / "trace.csv")
    assert len(trace) == 400
    assert trace.mistakes == summary["mistakes"]
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == pytest.approx(summary)

    recount = summarize_trace(tmp_path / "trace.csv")
    assert recount["mistakes"] == summary["mistakes"]
    assert recount["updates"] == summary["updates"]


def test_run_single_inductive_matches_transductive_counts(tmp_path):
    # identical instance and streams; with matched r_tilde the per-trial
    # margins coincide, so mistakes and updates must agree exactly
    common = dict(n_values=(20,), betas=(0.5,), seed=6)
    res_t = run_single(ExperimentConfig(mode="transductive", **common))
    res_i = run_single(ExperimentConfig(mode="inductive", **common))
    assert res_i["summary"]["mistakes"] == res_t["summary"]["mistakes"]
    assert res_i["summary"]["updates"] == res_t["summary"]["updates"]
    gaps = [abs(a.ybar - b.ybar)
            for a, b in zip(res_t["trace"], res_i["trace"])]
    assert max(gaps) < 1e-6


def test_run_single_shares_the_grid_cell_path():
    # at the grid cell's eta, a transductive single run is replicate 0 of
    # that cell: the same instance, trial order, learner and counts
    row = table1_cell(5, 20, 0.5, 0)
    summary = run_single(ExperimentConfig(mode="transductive", n_values=(20,),
                                          betas=(0.5,), seed=5,
                                          eta=row["eta"]))["summary"]
    for key in ("mistakes", "updates", "d_hat", "noise_flips", "eta", "gamma",
                "regret_bound"):
        assert summary[key] == row[key], key


def test_run_single_rejects_table1_mode():
    with pytest.raises(ValueError, match="transductive or inductive"):
        run_single(ExperimentConfig(mode="table1"))


def test_run_single_conservative_flag():
    res = run_single(ExperimentConfig(mode="transductive", n_values=(20,),
                                      betas=(0.0,), seed=3, conservative=True))
    assert res["summary"]["conservative"] is True
    # conservative updates happen only on margin-sign mistakes
    assert res["summary"]["updates"] <= res["summary"]["mistakes"]


def test_equivalence_sweep_passes():
    report = equivalence_sweep(instances=10, seed=0)
    assert report["passed"]
    assert report["failures"] == 0
    assert report["max_gap"] <= 1e-6
    assert report["per_kind"] == {"min": 5, "linear": 5}


@pytest.mark.parametrize("instances", [0, -3])
def test_equivalence_sweep_needs_an_instance(instances):
    with pytest.raises(ValueError, match="instances must be >= 1"):
        equivalence_sweep(instances=instances)


def test_equivalence_sweep_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        equivalence_sweep(instances=2, seed=-1)


def test_equivalence_sweep_deterministic():
    a = equivalence_sweep(instances=4, seed=5)
    b = equivalence_sweep(instances=4, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# decompositions per set-up


def _count_eig_calls(monkeypatch):
    """Count eig_sym calls through every megmc module that binds it."""
    calls = []
    original = spectral.eig_sym

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("megmc") and getattr(mod, "eig_sym", None) is original:
            monkeypatch.setattr(mod, "eig_sym", counting)
    return calls


class _LearnerReached(Exception):
    pass


def test_cell_build_makes_no_eigendecomposition(monkeypatch):
    # the shift and d_hat read their radii off Cholesky factors
    calls = _count_eig_calls(monkeypatch)
    build_cell_instance(0, 40, 0.5, 0, 0.1, 9, 9)
    assert calls == []


@pytest.mark.parametrize("conservative", [False, True])
def test_grid_cell_set_up_makes_no_eigendecomposition(monkeypatch, conservative):
    # the shift and the embedding of each side factor it by Cholesky, and
    # nothing else before the learner starts decomposes a matrix
    calls = _count_eig_calls(monkeypatch)
    seen = []

    def stop(*args, **kwargs):
        seen.append(len(calls))
        raise _LearnerReached

    monkeypatch.setattr(experiments, "run_transductive", stop)
    with pytest.raises(_LearnerReached):
        table1_cell(0, 40, 0.0, 0, conservative=conservative)
    assert seen == [0]
