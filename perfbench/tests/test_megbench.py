"""Tests of the benchmark harness itself, on reduced-size workloads."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

from megbench import env  # noqa: E402

env.import_package(ROOT)

from megmc import experiments, inductive, spectral, transductive  # noqa: E402

from megbench import harness, workloads  # noqa: E402
from megbench.capture import Capture  # noqa: E402
from megbench.rebind import Rebinder, package_modules  # noqa: E402
from megbench.tracing import SPANS, Tracer  # noqa: E402
from megbench.workloads import Op, Workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in DECLARED["end_to_end"]]
PER_LAYER = [m["name"] for m in DECLARED["per_layer"]]

SMALL_GRID = ((20, 0.5), (20, 0.0))
SMALL = {
    "grid": Workload(partial(workloads.grid_setup, cells=SMALL_GRID),
                     partial(workloads.grid_pass, cells=SMALL_GRID)),
    "grid_conservative": Workload(
        partial(workloads.grid_setup, cells=SMALL_GRID, conservative=True),
        partial(workloads.grid_pass, cells=SMALL_GRID, conservative=True)),
    "inductive": Workload(
        partial(workloads.inductive_setup, cells=((10, 0.5),), runs=1),
        partial(workloads.inductive_pass, cells=((10, 0.5),), runs=1,
                sweep_instances=4)),
    "build": Workload(partial(workloads.build_setup, cells=SMALL_GRID),
                      partial(workloads.build_pass, cells=SMALL_GRID)),
}


def _bindings():
    """Every attribute of every megmc module and every wrapped class."""
    seen = {}
    for mod in package_modules():
        for name, value in vars(mod).items():
            seen[(mod.__name__, name)] = value
    for _, owner, attr, _ in SPANS:
        if isinstance(owner, type):
            seen[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return seen


def _smoke(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_REPS", 1)
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    return harness.measure(SMALL[name], seed=3, seconds=0.001, trace=trace,
                           recorded=None, scratch_root=tmp_path)


def test_declared_metric_names_are_well_formed():
    names = END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in END_TO_END


def test_layer_map_covers_each_per_layer_metric_once():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER)
    workload_names = {w["name"] for w in DECLARED["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    for layer in layers:
        assert set(layer["moves"]) <= set(END_TO_END)
        assert set(layer["workloads"]) <= workload_names


def test_wrappers_rebind_every_importer_and_restore(tmp_path):
    before = _bindings()
    original_eig = spectral.eig_sym
    with pytest.raises(RuntimeError):
        with Rebinder() as rebinder:
            Capture().install(rebinder)
            Tracer().install(rebinder)
            from megmc import sideinfo
            for mod in (spectral, sideinfo, transductive, inductive):
                assert mod.eig_sym is not original_eig
            assert experiments.run_transductive is not before[("megmc.transductive", "run")]
            assert experiments.run_inductive is not before[("megmc.inductive", "run_inductive")]
            raise RuntimeError("leave the block early")
    assert _bindings() == before


def test_rebinding_an_unbound_function_fails():
    with Rebinder() as rebinder, pytest.raises(LookupError):
        rebinder.function(lambda: None, lambda: None)


@pytest.mark.parametrize("name", ["grid", "grid_conservative"])
def test_traced_grid_smoke_counts(name, tmp_path, monkeypatch):
    result = _smoke(name, True, tmp_path, monkeypatch)
    assert result.correct, result.problems
    m = result.metrics
    trials = sum(n * n for n, _ in SMALL_GRID)
    assert m["transductive.predict_calls"] == trials
    assert 0 < m["spectral.eig_per_update"] <= 1
    assert m["transductive.updates"] <= trials
    assert sorted(m) == sorted(PER_LAYER)


def test_traced_grid_split_covers_the_pass(tmp_path, monkeypatch):
    m = _smoke("grid", True, tmp_path, monkeypatch).metrics
    # the layer spans' self time, outside the orchestration, covers the pass
    assert m["trace.split_coverage"] > 0.9
    others = ("transductive.predict_self_s", "transductive.update_s",
              "synth.perturb_graph_s", "sideinfo.pd_laplacian_s", "experiments.self_s")
    assert all(m["spectral.eig_sym_s"] > 5 * m[name] for name in others)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_smoke_reports_end_to_end_metrics(name, tmp_path, monkeypatch):
    result = _smoke(name, False, tmp_path, monkeypatch)
    assert result.correct, result.problems
    assert sorted(result.metrics) == sorted(END_TO_END)
    assert all(value > 0 for value in result.metrics.values()), result.metrics
    assert list(tmp_path.iterdir()) == []


def test_inductive_smoke_traces_its_layers(tmp_path, monkeypatch):
    result = _smoke("inductive", True, tmp_path, monkeypatch)
    assert result.correct, result.problems
    m = result.metrics
    # run_single's 100 trials plus one inductive step per sweep trial, and the
    # sweep's transductive twin predicts once per trial too
    assert m["inductive.step_calls"] == 100 + m["transductive.predict_calls"]
    assert m["sideinfo.kernel_evals"] > 0 and m["experiments.trace_io_s"] > 0
    assert 0 < m["inductive.registry_rows_final"] <= 10


def test_reference_band_and_missing_entries():
    ops = [Op("cell", "n=20,beta=0.5", {"error": 0.40}),
           Op("cell", "n=20,beta=0", {"error": 0.33}),
           Op("build", "n=20,beta=0.5", {"d_hat": 10.0, "noise_flips": 7}),
           Op("cell", "n=40,beta=0.5", {"error": 0.40})]
    recorded = {"n=20,beta=0.5": {"error": 0.34}, "n=20,beta=0": {"error": 0.36}}
    recorded_build = {"n=20,beta=0.5": {"d_hat": 10.0 * (1 + 1e-9), "noise_flips": 8}}
    workloads.check_against_reference(ops[:2], recorded)
    workloads.check_against_reference(ops[2:3], recorded_build)
    workloads.check_against_reference(ops[3:], None)
    assert ops[0].failed and "leaves" in ops[0].problems[0]
    assert not ops[1].failed
    assert ops[2].problems == ["7 label flips, recorded 8"]
    assert not ops[3].failed
    workloads.check_against_reference(ops[3:], recorded)
    assert ops[3].problems == ["no recorded reference value"]


def test_time_setup_stops_at_the_learner():
    with Rebinder() as rebinder:
        capture = Capture()
        capture.install(rebinder)
        seconds = capture.time_setup(experiments.table1_cell, 3, 20, 0.5, 0)
        assert 0 < seconds and capture.traces == []
        config = experiments.ExperimentConfig(mode="inductive", n_values=(10,),
                                              betas=(0.5,), seed=3)
        assert 0 < capture.time_setup(experiments.run_single, config)
        assert capture.traces == []
        with pytest.raises(RuntimeError, match="without entering a learner"):
            capture.time_setup(experiments.build_cell_instance, 3, 20, 0.5, 0, 0.1, 9, 9)
        # the learner runs as usual once time_setup has returned
        row = experiments.table1_cell(3, 20, 0.5, 0)
        assert len(capture.traces) == 1 and len(capture.traces[0]) == row["T"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
