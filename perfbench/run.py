"""Paper-workload benchmark of the display energy simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

``--trace 0`` times repeated passes of the workload with nothing
attached and reports the end-to-end metrics.  ``--trace 1`` runs one
untimed-equivalent pass with the outside-in span tracer installed
(see ``tracer.py``) and reports per-layer self time, call counts and
derived ratios.  Both check every output unit of every pass against a
reference digest (for the reference seed) or against the run's own
first pass, and print one JSON object as the last line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
``python3 perfbench/run.py --workload W --seed 1 --write-reference``
records the reference digests of a workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

#: The seed whose output digests are recorded in ``reference.json``.
REFERENCE_SEED = 1

#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60.0

#: Timed passes per run, at least.
MIN_PASSES = 2

#: Self times plus unattributed time must meet the traced wall time
#: within this many seconds.
TRACE_RESIDUAL_S = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s_per_host_s": "s/s",
    "session_p50_ms": "ms",
    "session_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "table1_err_pp": "pp",
}


class Tally:
    """Output units attempted and failed across a run."""

    def __init__(self, expected: Optional[List[str]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, label: str, digests: List[str],
              units: Sequence[Any]) -> None:
        from stats import count_mismatches

        if self.expected is None:
            self.expected = digests
        failed_records = sum(1 for unit in units
                             if isinstance(unit, dict)
                             and unit.get("batch_failed"))
        mismatched = count_mismatches(self.expected, digests)
        self.attempted += max(len(digests), len(self.expected))
        self.failed += max(mismatched, failed_records)
        if mismatched:
            self.notes.append(f"{label}: {mismatched} output units "
                              f"differ from the reference")
        if failed_records:
            self.notes.append(f"{label}: {failed_records} failure records")

    def fail_all(self, label: str, reason: str) -> None:
        count = len(self.expected) if self.expected else 1
        self.attempted += count
        self.failed += count
        self.notes.append(f"{label}: {reason}")


def _rusage() -> Tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS: own {own:.1f} MB, largest child {children:.1f} MB")
    return max(own, children)


def _child_pids() -> List[int]:
    """Process ids whose parent is this process (Linux ``/proc``)."""
    me = str(os.getpid())
    pids = []
    for entry in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if fields[1] == me:
            pids.append(int(entry.parent.name))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Worker pools join their workers when they shut down, but a
    spawn-context pool also starts multiprocessing's resource tracker,
    which lives on until it notices this process is gone.  It is
    stopped here, after the pools' semaphores are collected, so that
    nothing of the run outlives it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _load_reference(workload: str, seed: int) -> Optional[List[str]]:
    if seed != REFERENCE_SEED or not REFERENCE_PATH.exists():
        return None
    document = json.loads(REFERENCE_PATH.read_text())
    entry = document.get(workload)
    return list(entry["digests"]) if entry else None


def _setup_seconds(workload: str, seed: int,
                   workdir: pathlib.Path) -> float:
    """Median of ``SETUP_PROBES`` cold set-ups, each in a fresh
    interpreter."""
    samples = []
    for index in range(SETUP_PROBES):
        probe_dir = workdir / f"setup-{index}"
        probe_dir.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
            cwd=str(ROOT), check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    print(f"setup probes {', '.join(f'{x:.3f}' for x in samples)} s")
    return statistics.median(samples)


def _check_pass(tally: Tally, label: str, workload, result,
                children_cpu: float) -> None:
    """Check a pass's outputs; a pooled pass whose children used no
    CPU ran serially behind ``run_batch``'s silent fallback."""
    if workload.workers > 1 and children_cpu <= 0.0:
        tally.fail_all(label, "the worker pool did not run "
                              "(no child CPU time)")
    else:
        tally.check(label, result.digests, result.units)


def _timed_pass(workload, ctx, workers: int):
    """Stage, then run one pass on the clock; (result, wall, cpu).

    The previous pass's cyclic garbage is collected off the clock, so
    it neither lands in this pass's time nor lifts its peak RSS.
    """
    workload.stage(ctx)
    gc.collect()
    own0, children0 = _rusage()
    started = time.perf_counter()
    result = workload.run_pass(ctx, workers)
    wall = time.perf_counter() - started
    own1, children1 = _rusage()
    return result, wall, (own1 - own0, children1 - children0)


def measure(workload, ctx, seconds: float, tally: Tally
            ) -> Dict[str, float]:
    """Timed passes for about ``seconds``; end-to-end metrics.

    The calibration kernel runs before and after every pass, one copy
    per worker, and the pass's host times are scaled to the kernel's
    reference speed (see ``calibrate.py``).  Each timing metric is the
    median over passes.
    """
    from calibrate import REFERENCE_S, host_speed
    from stats import latency_summary, session_times, table1_err_pp
    from workloads import ProgressTap, run_table1_survey, table1_cells

    tap = ProgressTap()
    tap.install()
    rates: List[float] = []
    p50s: List[float] = []
    tails: List[float] = []
    raw_rates: List[float] = []
    sample_counts = set()
    walls: List[float] = []
    table1 = None
    started = time.perf_counter()
    kernel_before = host_speed(workload.workers)
    try:
        while True:
            label = f"pass {len(walls) + 1}"
            pass_started = time.perf_counter()
            try:
                result, wall, (_, children_cpu) = _timed_pass(
                    workload, ctx, workload.workers)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.fail_all(label, f"{type(exc).__name__}: {exc}")
                tap.take()
                result = None
                wall = time.perf_counter() - pass_started
            walls.append(wall)
            kernel_after = host_speed(workload.workers)
            scale = REFERENCE_S / ((kernel_before + kernel_after) / 2.0)
            kernel_before = kernel_after
            if result is not None:
                _check_pass(tally, label, workload, result, children_cpu)
                raw_rates.append(result.sim_s / wall)
                rates.append(result.sim_s / (wall * scale))
                samples = [seconds_ * 1000.0 * scale
                           for call_start, stamps, pooled in tap.take()
                           for seconds_ in session_times(
                               call_start, stamps, pooled=pooled)]
                summary = latency_summary(samples)
                p50s.append(summary["p50"])
                tails.append(summary["tail"])
                sample_counts.add((summary["n"],
                                   summary["tail_percentile"]))
                if result.survey is not None and table1 is None:
                    table1 = table1_cells(result.survey)
            elapsed = time.perf_counter() - started
            typical = statistics.median(walls)
            if len(walls) >= MIN_PASSES and elapsed + typical > seconds:
                break
    finally:
        tap.uninstall()
    if not rates:
        raise RuntimeError("no pass of the workload completed")
    peak = _peak_rss_mb()
    if table1 is None:
        table1 = table1_cells(run_table1_survey(ctx.seed))
    for n, percentile in sorted(sample_counts):
        print(f"session samples per pass: n={n}, tail = "
              f"p{percentile:.2f} ({len(walls)} passes)")
    print(f"unscaled sim_s_per_host_s = {statistics.median(raw_rates):.6g} "
          f"s/s (pass walls {', '.join(f'{w:.3f}' for w in walls)} s)")
    return {
        "sim_s_per_host_s": statistics.median(rates),
        "session_p50_ms": statistics.median(p50s),
        "session_tail_ms": statistics.median(tails),
        "peak_rss_mb": peak,
        "table1_err_pp": table1_err_pp(table1),
    }


def trace(workload, ctx, tally: Tally) -> Dict[str, float]:
    """One untraced and one traced serial pass; per-layer metrics."""
    import numpy as np

    import layers
    import tracer
    from calibrate import kernel

    metrics: Dict[str, float] = {}
    # The tracing overhead compares the traced pass with an untraced
    # serial pass, each scaled by the calibration kernel around it.
    kernels = [kernel()]
    # The parent's share of CPU on a pass at the workload's own worker
    # count (the pooled pass, for ``tournament``).
    result, untraced_wall, (own_cpu, children_cpu) = _timed_pass(
        workload, ctx, workload.workers)
    _check_pass(tally, "timed pass", workload, result, children_cpu)
    metrics["sim.batch.parent_cpu_frac"] = own_cpu / (own_cpu
                                                      + children_cpu)
    if workload.workers > 1:
        kernels = [kernel()]
        result, untraced_wall, _ = _timed_pass(workload, ctx, 1)
        tally.check("serial pass", result.digests, result.units)
    kernels.append(kernel())

    recorder = tracer.Recorder(layers=layers.LAYERS)
    workload.stage(ctx)
    gc.collect()
    installation = tracer.install(recorder, layers.TABLE)
    try:
        started = time.perf_counter()
        traced = workload.run_pass(ctx, 1)
        traced_wall = time.perf_counter() - started
    finally:
        tracer.uninstall(installation)
    kernels.append(kernel())
    tally.check("traced pass", traced.digests, traced.units)

    spans = recorder.span_arrays()
    times = tracer.self_times(spans, layers.LAYERS, traced_wall)
    if abs(times.residual_s) > TRACE_RESIDUAL_S or \
            times.negative_self_s < -TRACE_RESIDUAL_S:
        tally.fail_all("traced pass",
                       f"span self times miss the wall time by "
                       f"{times.residual_s:.3g} s (negative self time "
                       f"{times.negative_self_s:.3g} s)")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    np.savez_compressed(out_dir / f"spans-{workload.name}.npz",
                        layers=np.asarray(layers.LAYERS),
                        wall_s=traced_wall, **spans)

    for name in layers.LAYERS:
        metrics[f"{name}.self_s"] = times.self_s[name]
        metrics[f"{name}.calls"] = times.calls[name]
    counters = recorder.counters
    vsyncs = recorder.totals("vsync_count")
    fired = counters.get("compositor.on_vsync", 0.0)
    metrics["sim.engine.fast_forward_frac"] = \
        1.0 - fired / vsyncs if vsyncs else 0.0
    compositions = recorder.totals("compositions")
    metrics["graphics.compositor.redundant_frac"] = \
        recorder.totals("redundant") / compositions if compositions else 0.0
    metrics["core.grid.samples"] = counters.get("grid.samples", 0.0)
    metrics["core.double_buffer.bytes_copied"] = \
        recorder.totals("bytes_copied")
    lookups = counters.get("cache.hits", 0.0) + counters.get(
        "cache.misses", 0.0)
    metrics["cache.hit_frac"] = \
        counters.get("cache.hits", 0.0) / lookups if lookups else 0.0
    metrics["unattributed_s"] = times.unattributed_s
    before, between, after = kernels
    metrics["trace.overhead_frac"] = (
        (traced_wall / (between + after))
        / (untraced_wall / (before + between)) - 1.0)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.residual_s"] = times.residual_s
    metrics["trace.absent_layers"] = len(installation.absent_layers())

    print(f"traced wall {traced_wall:.3f} s = self times "
          f"{sum(times.self_s.values()):.3f} s + unattributed "
          f"{times.unattributed_s:.3f} s (residual "
          f"{times.residual_s:.2e} s, {len(spans['start'])} spans)")
    for name, value in sorted(times.self_s.items(),
                              key=lambda item: -item[1]):
        share = 100.0 * value / traced_wall
        print(f"  {name:<22} {share:5.1f} %  {value:8.3f} s  "
              f"{times.calls[name]} calls")
    if installation.absent_layers():
        print("absent layers: " + ", ".join(installation.absent_layers()))
    if installation.missing:
        print("missing wrap targets: " + ", ".join(installation.missing))
    return metrics


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes_copied"):
        return "bytes"
    return "count"


def write_reference(workload, ctx) -> None:
    result, _, _ = _timed_pass(workload, ctx, workload.workers)
    document = json.loads(REFERENCE_PATH.read_text()) \
        if REFERENCE_PATH.exists() else {}
    document[workload.name] = {"seed": ctx.seed, "digests": result.digests}
    REFERENCE_PATH.write_text(json.dumps(document, indent=1,
                                         sort_keys=True) + "\n")
    print(f"recorded {len(result.digests)} digests for {workload.name}")


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tmp_dir = workdir / "tmp"
    tmp_dir.mkdir(parents=True)
    # Temporary files of the program and of worker processes stay in
    # the checkout.
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)
    # A terminated run still takes the clean-up path below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run(args, WORKLOADS[args.workload](),
                    Context(workdir=workdir, seed=args.seed))
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass


def _run(args: argparse.Namespace, workload, ctx) -> int:
    metrics: Dict[str, float] = {}
    if not args.trace and not args.write_reference:
        metrics["setup_s"] = _setup_seconds(workload.name, ctx.seed,
                                            ctx.workdir)
    import repro

    if ROOT not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    workload.prepare(ctx)
    workload.tiny(ctx)
    if args.write_reference:
        write_reference(workload, ctx)
        return 0
    tally = Tally(_load_reference(workload.name, ctx.seed))
    if args.trace:
        metrics.update(trace(workload, ctx, tally))
        units = {name: _per_layer_unit(name) for name in metrics}
    else:
        metrics.update(measure(workload, ctx, args.seconds, tally))
        units = END_TO_END_UNITS
    for note in tally.notes:
        print(f"check: {note}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
