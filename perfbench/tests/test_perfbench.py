"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
None of them runs a workload.
"""

from __future__ import annotations

import pathlib
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
def test_tail_keeps_ten_samples_beyond():
    assert stats.tail_rank(100) == 89
    assert stats.tail_percentile(100) == pytest.approx(90.0)
    assert stats.tail_rank(360) == 349
    assert stats.tail_percentile(360) == pytest.approx(97.2222, rel=1e-4)


def test_tail_undefined_without_ten_beyond():
    assert stats.tail_rank(10) is None
    assert stats.tail_rank(11) == 0
    summary = stats.latency_summary([1.0] * 10)
    assert summary["tail"] is None and summary["n"] == 10


def test_latency_summary_reports_n_and_tail():
    samples = [float(value) for value in range(100, 0, -1)]
    summary = stats.latency_summary(samples)
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    # 90 is the highest value with ten samples (91..100) beyond it.
    assert summary["tail"] == 90.0
    assert sum(1 for value in samples if value > summary["tail"]) == 10


def test_session_times_share_a_burst_evenly():
    # Two serial sessions of 10 ms and 20 ms, then a burst of three
    # callbacks 1 us apart closing a 30 ms chunk.
    stamps = [0.010, 0.030, 0.060, 0.060001, 0.060002]
    times = stats.session_times(0.0, stamps)
    assert times[:2] == pytest.approx([0.010, 0.020])
    assert times[2:] == pytest.approx([0.030002 / 3] * 3)
    assert sum(times) == pytest.approx(stamps[-1])


def test_session_times_share_a_pooled_batch_evenly():
    stamps = [0.010, 0.010001, 0.050, 0.050001]
    times = stats.session_times(0.0, stamps, pooled=True)
    assert times == pytest.approx([0.050001 / 4] * 4)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def _recorder(clock: FakeClock) -> tracer.Recorder:
    return tracer.Recorder(layers=("outer", "inner", "governor"),
                           clock=clock)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = _recorder(clock)

    def inner():
        clock.advance(2.0)

    def outer(callee):
        clock.advance(1.0)
        callee()
        clock.advance(3.0)

    traced_inner = rec.wrap(1, inner)
    rec.wrap(0, outer)(traced_inner)
    times = tracer.self_times(rec.span_arrays(), rec.layers, wall_s=7.0)
    assert times.self_s == {"outer": 4.0, "inner": 2.0, "governor": 0.0}
    assert times.calls == {"outer": 1, "inner": 1, "governor": 0}
    assert times.unattributed_s == pytest.approx(1.0)
    assert times.residual_s == pytest.approx(0.0)
    assert times.negative_self_s == 0.0


def _toy_governors(clock: FakeClock) -> types.ModuleType:
    """A policy, and a boost policy that wraps an inner one."""
    module = types.ModuleType("perfbench_toy_governors")

    class Policy:
        def select_rate(self, now):
            clock.advance(1.0)
            return 60.0

    class Boost(Policy):
        def __init__(self, inner):
            self.inner = inner

        def select_rate(self, now):
            clock.advance(0.5)
            rate = self.inner.select_rate(now)
            clock.advance(0.25)
            return max(rate, 90.0)

    module.Policy = Policy
    module.Boost = Boost
    Policy.__module__ = Boost.__module__ = module.__name__
    return module


def test_self_time_of_same_layer_recursion(monkeypatch):
    clock = FakeClock()
    toy = _toy_governors(clock)
    monkeypatch.setitem(sys.modules, toy.__name__, toy)
    rec = _recorder(clock)
    installed = tracer.install(rec, [(
        "governor",
        [tracer.Target(f"{toy.__name__}:Policy", ("select_rate",),
                       subclasses=True)])])
    try:
        policy = toy.Boost(toy.Policy())
        assert policy.select_rate(0.0) == 90.0
    finally:
        tracer.uninstall(installed)
    assert not hasattr(toy.Boost.select_rate, "__perfbench_original__")
    times = tracer.self_times(rec.span_arrays(), rec.layers, wall_s=1.75)
    # Outer span 1.75 s with a 1.0 s child of the same layer: the
    # layer's self time is the whole 1.75 s, counted once.
    assert times.calls["governor"] == 2
    assert times.self_s["governor"] == pytest.approx(1.75)
    assert times.unattributed_s == pytest.approx(0.0)
    spans = rec.span_arrays()
    assert list(spans["parent"]) == [tracer.NO_PARENT, 0]


def test_missing_target_leaves_layer_absent():
    rec = _recorder(FakeClock())
    installed = tracer.install(rec, [
        ("outer", [tracer.Target("perfbench_no_such_module", ("f",))]),
        ("inner", [tracer.Target("stats", ("no_such_function",))]),
        ("governor", [tracer.Target("stats", ("tail_rank",))]),
    ])
    try:
        assert installed.absent_layers() == ["outer", "inner"]
        assert "perfbench_no_such_module" in installed.missing
        assert stats.tail_rank(100) == 89
    finally:
        tracer.uninstall(installed)
    assert not hasattr(stats.tail_rank, "__perfbench_original__")
    assert rec.span_arrays()["layer"].tolist() == [2]


def test_patching_follows_imported_names(monkeypatch):
    clock = FakeClock()
    home = types.ModuleType("perfbench_toy_home")
    caller = types.ModuleType("perfbench_toy_caller")

    def work():
        clock.advance(1.0)

    home.work = work
    caller.work = work  # as ``from home import work`` would bind it
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    rec = _recorder(clock)
    installed = tracer.install(
        rec, [("inner", [tracer.Target(home.__name__, ("work",))])],
        module_prefixes=("perfbench_toy",))
    try:
        caller.work()
    finally:
        tracer.uninstall(installed)
    assert caller.work is work and home.work is work
    assert rec.span_arrays()["layer"].tolist() == [1]


def test_self_times_flag_children_outlasting_parents():
    spans = {
        "layer": np.array([0, 1]),
        "start": np.array([0.0, 1.0]),
        "end": np.array([2.0, 4.0]),
        "parent": np.array([tracer.NO_PARENT, 0]),
    }
    times = tracer.self_times(spans, ("a", "b"), wall_s=2.0)
    assert times.negative_self_s == pytest.approx(-1.0)


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def test_digest_mismatch_counts_as_failure():
    units = [{"app": "a", "power": 1.0}, {"app": "b", "power": 2.0}]
    reference = [stats.unit_digest(unit) for unit in units]
    tally = run.Tally(reference)
    tally.check("pass 1", reference, units)
    assert (tally.attempted, tally.failed) == (2, 0)
    changed = [units[0], {"app": "b", "power": 2.0000001}]
    tally.check("pass 2", [stats.unit_digest(u) for u in changed], changed)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.notes == ["pass 2: 1 output units differ from the "
                           "reference"]


def test_first_pass_becomes_the_reference():
    tally = run.Tally(None)
    tally.check("pass 1", ["x", "y"], [{}, {}])
    tally.check("pass 2", ["x", "z", "w"], [{}, {}, {}])
    assert (tally.attempted, tally.failed) == (5, 2)


def test_failure_records_and_raising_passes_count():
    tally = run.Tally(["x", "y"])
    tally.check("pass 1", ["x", "y"], [{"batch_failed": True}, {}])
    assert tally.failed == 1
    tally.fail_all("pass 2", "RuntimeError: boom")
    assert (tally.attempted, tally.failed) == (4, 3)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def test_stop_children_leaves_no_process_behind():
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import resource_tracker

    with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(abs, -1).result() == 1
    # The pool is shut down, but its resource tracker still runs.
    assert run._child_pids()
    run.stop_children()
    assert run._child_pids() == []
    assert resource_tracker._resource_tracker._fd is None


# ----------------------------------------------------------------------
# Accuracy against the paper
# ----------------------------------------------------------------------
def test_table1_err_pp_against_hand_computed_value():
    offsets = (1.0, -2.0, 3.0, 0.0, -1.0, 5.0)
    simulated = {(category, method, column): paper + offset
                 for (category, method, column, paper), offset
                 in zip(stats.PAPER_TABLE1, offsets)}
    # |1| + |-2| + |3| + |0| + |-1| + |5| = 12 over six cells.
    assert stats.table1_err_pp(simulated) == pytest.approx(2.0)


def test_table1_reference_values_match_the_paper():
    values = {(c, m, col): v for c, m, col, v in stats.PAPER_TABLE1}
    assert values[("general", "section", "saved_power_percent")] == 18.6
    assert values[("game", "section+boost",
                   "display_quality_percent")] == 96.0
    assert len(values) == 6
