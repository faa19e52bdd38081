"""Invariant suite harness: pass/fail behavior and the negative control."""

import numpy as np
import pytest

from megmc.props import (
    ALL_FAMILIES,
    community_family,
    comparator_family,
    embedding_norm_family,
    initial_trace_family,
    laplacian_quadratic_family,
    minkernel_bound_family,
    moore_penrose_family,
    pdlaplacian_inequality_family,
    run_property_suite,
)

# per-family floors the suite must meet for the acceptance gate
MIN_CHECKS = {
    "moore_penrose": 100,
    "pdlaplacian_inequalities": 2000,   # 1000 probe vectors, two inequalities
    "laplacian_quadratic_identity": 20,
    "embedding_norm_capped": 100,
    "comparator_identities": 200,
    "initial_trace_equals_d_hat": 10,
    "minkernel_trace_bound": 100,
    "community_factor_product": 20,
}


def test_suite_passes():
    report = run_property_suite(seed=0)
    assert report["passed"]
    assert report["total_failures"] == 0
    assert report["total_checks"] >= sum(MIN_CHECKS.values())


def test_suite_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
        run_property_suite(seed=-2)


def test_per_family_check_counts():
    report = run_property_suite(seed=0)
    by_name = {fam["name"]: fam for fam in report["families"]}
    assert set(by_name) == set(MIN_CHECKS)
    for name, floor in MIN_CHECKS.items():
        assert by_name[name]["checks"] >= floor, name
        assert by_name[name]["failures"] == 0, name


def test_report_shape():
    report = run_property_suite(seed=3)
    assert set(report) == {"seed", "corrupt_mode", "families", "total_checks",
                           "total_failures", "passed"}
    assert report["seed"] == 3
    assert report["corrupt_mode"] is False
    for fam in report["families"]:
        assert set(fam) == {"name", "checks", "failures", "worst"}
        assert fam["checks"] > 0
        assert np.isfinite(fam["worst"])


def test_suite_deterministic():
    a = run_property_suite(seed=7)
    b = run_property_suite(seed=7)
    assert a == b


def test_negative_control_fails_only_pdlaplacian():
    report = run_property_suite(seed=0, corrupt=True)
    assert report["corrupt_mode"] is True
    assert not report["passed"]
    for fam in report["families"]:
        if fam["name"] == "pdlaplacian_inequalities":
            assert fam["failures"] > 0
        else:
            assert fam["failures"] == 0, fam["name"]


def test_corrupt_flag_reaches_family():
    clean = pdlaplacian_inequality_family(seed=1, vectors=200)
    bad = pdlaplacian_inequality_family(seed=1, vectors=200, corrupt=True)
    assert clean.passed
    assert not bad.passed
    # the all-ones probe is the tight direction, so the heavier shift
    # must break it on every graph
    assert bad.failures >= 10


def test_family_registry_complete():
    assert set(ALL_FAMILIES) == set(MIN_CHECKS)


@pytest.mark.parametrize("family,kwargs", [
    (moore_penrose_family, {"seed": 2, "cases": 5}),
    (laplacian_quadratic_family, {"seed": 2, "cases": 5}),
    (embedding_norm_family, {"seed": 2, "cases": 5}),
    (comparator_family, {"seed": 2, "cases": 3}),
    (initial_trace_family, {"seed": 2, "cases": 4}),
    (minkernel_bound_family, {"seed": 2, "instances": 10}),
    (community_family, {"max_k": 5}),
])
def test_families_pass_standalone(family, kwargs):
    result = family(**kwargs)
    assert result.passed
    assert result.checks > 0
