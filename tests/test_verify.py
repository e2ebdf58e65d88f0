"""The verify core: one verdict per entry, d computed once, guards first."""

import pytest

from nega3 import (
    ExtremalityClass,
    GuardError,
    RegistryEntry,
    build_generator,
    classify,
    count_weight,
    min_weight,
    verify,
    verify_entry,
    weights,
)


@pytest.fixture
def scans(monkeypatch):
    """Stacks passed to the covering scan (weights._stack_counts), in call
    order: min_weight, count_weight and _settle all run through it."""
    calls = []
    real = weights._stack_counts

    def counted(codes, *args, **kwargs):
        calls.append(codes)
        return real(codes, *args, **kwargs)

    monkeypatch.setattr(weights, "_stack_counts", counted)
    return calls


@pytest.mark.parametrize("label", ["C1", "x1", "B280"])
def test_one_scan_per_entry(registry, scans, label):
    # d, alpha and the class all come from min_weight's one scan
    report = verify_entry(registry.entry(label), registry, deep=False, allow_long=False)
    assert report.ok
    d = 12 if label == "B280" else 9
    assert report.d == d and report.cls is ExtremalityClass.NEAR_EXTREMAL
    assert len(scans) == 1


def test_min_weight_reuses_only_exact_results(registry, scans):
    code = build_generator(registry.entry("C1").spec)
    assert min_weight(code, abort_below=12) < 12  # an early exit, not exact
    assert min_weight(code) == 9
    assert min_weight(code, abort_below=12) == 9
    assert classify(code) is ExtremalityClass.NEAR_EXTREMAL
    other = build_generator(registry.entry("C2").spec)
    assert min_weight(other, abort_below=9) == 9  # not below the bound: exact
    assert min_weight(other) == 9
    assert len(scans) == 3


def test_early_exit_leaves_no_count(registry, scans):
    code = build_generator(registry.entry("C1").spec)
    assert min_weight(code, abort_below=12) < 12
    assert "count_at_min" not in code._cache
    assert count_weight(code, 9) == 48  # a scan of its own
    assert len(scans) == 2
    assert min_weight(code) == 9  # counted at weight 9 only, so one more scan
    assert count_weight(code, 9) == 48
    assert len(scans) == 3


def test_expectation_mismatch_fails(registry):
    spec = registry.entry("C1").spec
    entry = RegistryEntry("wrong", 36, "spec", spec=spec, expected_d=12, expected_beta=7)
    report = verify_entry(entry, registry, deep=False, allow_long=False)
    assert not report.ok
    assert report.summary() == (
        "self-dual, d=9, alpha=48, beta=6, near-extremal, FAIL: expected d=12, "
        "FAIL: expected beta=7, Gleason-consistent")


def test_parent_must_be_a_spec(registry):
    entry = RegistryEntry("y", 36, "neighbor-vector", x=registry.entry("x1").x, parent="x1")
    report = verify_entry(entry, registry, deep=False, allow_long=False)
    assert not report.ok
    assert report.summary() == "FAIL: parent x1 is not a code spec"


def test_deep_guard_refuses_before_any_work(registry, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify did work before its guard refused")

    monkeypatch.setattr(verify, "build_generator", refuse)
    with pytest.raises(GuardError, match=r"3\^24"):
        verify_entry(registry.entry("C48"), registry, deep=True, allow_long=False)
