"""The four paper workloads, driven through the program's entry points.

Every workload makes its inputs from the seed alone, runs one *pass*
through a stable entry point (``run_survey_summaries``, ``run_batch``,
``run_tournament``, ``run_sweep``) and splits the pass's outputs into
*units* (one session summary, one tournament cell, ...) that are
digested for the output check.  Nothing here passes an ``engine=``
argument or reaches below the entry points: the program decides how
to run what it is given.

``repro`` is imported lazily, so the set-up probe can time the import.
"""

from __future__ import annotations

import functools
import os
import pathlib
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from stats import unit_digest

#: Table 1 sessions: the paper's 30 apps x {fixed, section,
#: section+boost}, each this long.  Each app runs as its own survey
#: with its own seed, so each replays its own Monkey script as in the
#: paper; one seed shared by all 30 apps makes the touch count (and
#: with it cost and accuracy) a lottery over seeds.
TABLE1_SESSION_S = 10.0

#: The always-on reader batch: sessions per pass and their length.
READER_SESSIONS = 100
READER_SESSION_S = 60.0
READER_PANEL = "ltpo-120"

#: Tournament sessions (catalog cells, trace cells and probe alike).
TOURNAMENT_SESSION_S = 1.0
TOURNAMENT_WORKERS = 2

#: The warm sweep: app x governor grid over this many seeds.  Set-up
#: pre-fills the cache with every cell except those of the last
#: ``SWEEP_MISSING_APPS`` catalog apps, which each pass simulates and
#: stores afresh.
SWEEP_SESSION_S = 4.0
SWEEP_SEEDS = 4
SWEEP_MISSING_APPS = 2
SWEEP_GOVERNORS = ("fixed", "section", "section+boost")

#: Length of the set-up probe's first tiny call.
TINY_SESSION_S = 1.0


def reader_profile():
    """An always-on reading screen: a page turn or clock tick every
    ~20 s, a 1 fps submission loop re-posting the unchanged frame in
    between, and touches so rare the screen is static nearly always.
    Under ``fixed`` on the 120 Hz LTPO panel almost every V-Sync
    composites a frame identical to the last one."""
    from repro import AppCategory, AppProfile
    from repro.apps.profile import RenderStyle

    return AppProfile(
        name="always-on reader", category=AppCategory.GENERAL,
        idle_content_fps=0.05, active_content_fps=2.0,
        idle_submit_fps=1.0, touch_events_per_s=0.02,
        render_style=RenderStyle.SMALL_REGION,
        notes="idle-heavy benchmark workload")


@dataclass
class Context:
    """Where a run may write, and its seed."""

    workdir: pathlib.Path
    seed: int

    def fresh_dir(self, name: str) -> pathlib.Path:
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path


@dataclass
class PassResult:
    """What one pass produced."""

    units: List[Any]
    sim_s: float
    #: The survey behind a Table 1 pass, turned into cells off the clock.
    survey: Any = None

    @property
    def digests(self) -> List[str]:
        return [unit_digest(unit) for unit in self.units]


class ProgressTap:
    """Timestamps every ``run_batch`` progress callback.

    ``run_batch`` takes a ``progress`` callback; the survey, tournament
    and sweep entry points do not pass one through, so the tap wraps
    ``run_batch`` under every name callers look it up by and chains a
    timestamping callback in front of any caller-supplied one.
    """

    def __init__(self) -> None:
        #: ``(start, callback stamps, ran in a pool)`` per batch.
        self.calls: List[Tuple[float, List[float], bool]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro.sim import batch
        from tracer import rebind_globals

        original = batch.run_batch
        tap = self

        @functools.wraps(original)
        def run_batch(configs, *args, progress=None, **kwargs):
            configs = list(configs)
            workers = kwargs.get("workers", kwargs.get(
                "processes", args[0] if args else None))
            if workers is None:
                workers = os.cpu_count() or 1
            pooled = workers > 1 and len(configs) > 1
            stamps: List[float] = []
            tap.calls.append((time.perf_counter(), stamps, pooled))

            def note(done, total, entry):
                stamps.append(time.perf_counter())
                if progress is not None:
                    progress(done, total, entry)

            return original(configs, *args, progress=note, **kwargs)

        self._patches.append((batch, "run_batch", original))
        batch.run_batch = run_batch
        rebind_globals(original, run_batch, self._patches, ("repro",))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def take(self) -> List[Tuple[float, List[float], bool]]:
        calls, self.calls = self.calls, []
        return calls


class Workload:
    """One benchmark workload."""

    name = ""
    #: Worker processes of the timed passes; traced passes run serial.
    workers = 1

    def prepare(self, ctx: Context) -> None:
        """Benchmark-side inputs, made once before any timing."""

    def stage(self, ctx: Context) -> None:
        """Benchmark-side state of the next pass, made before its
        timing starts."""

    def tiny(self, ctx: Context) -> None:
        """The first tiny call of the entry point (set-up probe)."""
        raise NotImplementedError

    def run_pass(self, ctx: Context, workers: int) -> PassResult:
        raise NotImplementedError


def table1_cells(summaries) -> Dict[Tuple[str, str, str], float]:
    """Table 1 of one survey, keyed like :data:`stats.PAPER_TABLE1`."""
    from repro.experiments import table1
    from repro.experiments.survey import PROPOSED

    result = table1.run(survey=summaries)
    cells = {}
    for summary in result.summaries:
        for method in PROPOSED:
            cell = summary.methods[method]
            for column in ("saved_power_percent",
                           "display_quality_percent"):
                cells[(summary.category.value, method, column)] = \
                    getattr(cell, column).mean
    return cells


def run_table1_survey(seed: int, duration_s: float = TABLE1_SESSION_S,
                      apps: Sequence[str] = ()):
    """The Table 1 survey: one ``run_survey_summaries`` call per app,
    each with its own seed, merged into one summary set."""
    from repro.apps.catalog import all_app_names
    from repro.experiments import survey

    apps = tuple(apps) or all_app_names()
    summaries = {}
    for index, app in enumerate(apps):
        # The survey memoizes in-process; every call must simulate.
        survey.clear_survey_cache()
        result = survey.run_survey_summaries(
            survey.SurveyConfig(apps=(app,), duration_s=duration_s,
                                seed=seed * 100 + index),
            workers=1)
        summaries[app] = result.summaries[app]
    survey.clear_survey_cache()
    return survey.SurveySummaries(
        config=survey.SurveyConfig(apps=apps, duration_s=duration_s,
                                   seed=seed),
        summaries=summaries)


class Table1(Workload):
    name = "table1"

    def tiny(self, ctx: Context) -> None:
        from repro.apps.catalog import all_app_names

        run_table1_survey(ctx.seed, TINY_SESSION_S, all_app_names()[:1])

    def run_pass(self, ctx: Context, workers: int) -> PassResult:
        survey = run_table1_survey(ctx.seed)
        config = survey.config
        units = [survey.summary(app, governor)
                 for app in config.apps for governor in config.governors]
        return PassResult(units=units,
                          sim_s=len(units) * config.duration_s,
                          survey=survey)


class IdleReader(Workload):
    name = "idle_reader"

    def _configs(self, seed: int, count: int, duration_s: float):
        from repro import SessionConfig, panel_preset

        profile = reader_profile()
        panel = panel_preset(READER_PANEL)
        return [SessionConfig(app=profile, governor="fixed",
                              duration_s=duration_s,
                              seed=seed * 1000 + index, panel=panel)
                for index in range(count)]

    def tiny(self, ctx: Context) -> None:
        from repro import run_batch

        run_batch(self._configs(ctx.seed, 1, TINY_SESSION_S), workers=1)

    def run_pass(self, ctx: Context, workers: int) -> PassResult:
        from repro.sim import batch

        configs = self._configs(ctx.seed, READER_SESSIONS,
                                READER_SESSION_S)
        entries = batch.run_batch(configs, workers=workers)
        return PassResult(units=entries,
                          sim_s=READER_SESSIONS * READER_SESSION_S)


class Tournament(Workload):
    name = "tournament"
    workers = TOURNAMENT_WORKERS

    def tiny(self, ctx: Context) -> None:
        from repro.apps.catalog import all_app_names
        from repro.experiments import tournament

        tournament.run_tournament(
            tournament.TournamentConfig(
                governors=("fixed",), apps=all_app_names()[:1],
                trace_kinds=("video",), duration_s=TINY_SESSION_S,
                trace_duration_s=TINY_SESSION_S, luminance_probe=False,
                seed=ctx.seed),
            workers=1, workdir=str(ctx.fresh_dir("tiny-traces")))

    def stage(self, ctx: Context) -> None:
        self.trace_dir = ctx.fresh_dir("traces")

    def run_pass(self, ctx: Context, workers: int) -> PassResult:
        from repro.experiments import tournament

        config = tournament.TournamentConfig(
            duration_s=TOURNAMENT_SESSION_S,
            trace_duration_s=TOURNAMENT_SESSION_S, seed=ctx.seed)
        document = tournament.run_tournament(
            config, workers=workers,
            workdir=str(self.trace_dir))
        sessions = len(document["cells"])
        if document["luminance_probe"] is not None:
            sessions += 2
        units = list(document["cells"]) + [
            {"leaderboard": document["leaderboard"],
             "luminance_probe": document["luminance_probe"]}]
        return PassResult(units=units,
                          sim_s=sessions * config.duration_s)


class SweepWarm(Workload):
    name = "sweep_warm"

    def _grid(self, apps: Sequence[str]) -> Dict[str, List[Any]]:
        return {"app": list(apps), "governor": list(SWEEP_GOVERNORS)}

    def _seeds(self, seed: int) -> List[int]:
        return [seed + offset for offset in range(SWEEP_SEEDS)]

    def _base(self, app: str, duration_s: float):
        from repro import SessionSpec

        return SessionSpec(app=app, governor="fixed",
                           duration_s=duration_s)

    def prepare(self, ctx: Context) -> None:
        from repro.analysis import sweep
        from repro.apps.catalog import all_app_names
        from repro.cache import ResultCache

        apps = all_app_names()
        self.filled = ctx.fresh_dir("cache-filled")
        sweep.run_sweep(self._base(apps[0], SWEEP_SESSION_S),
                        self._grid(apps[:-SWEEP_MISSING_APPS]),
                        seeds=self._seeds(ctx.seed), workers=2,
                        cache=ResultCache(self.filled))

    def tiny(self, ctx: Context) -> None:
        from repro.analysis import sweep
        from repro.apps.catalog import all_app_names
        from repro.cache import ResultCache

        sweep.run_sweep(self._base(all_app_names()[0], TINY_SESSION_S),
                        {"governor": ["fixed"]}, seeds=[ctx.seed],
                        workers=1,
                        cache=ResultCache(ctx.fresh_dir("tiny-cache")))

    def stage(self, ctx: Context) -> None:
        """A private copy of the pre-filled cache for the next pass."""
        from repro.cache import ResultCache

        target = ctx.workdir / "cache-pass"
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(self.filled, target)
        self.cache = ResultCache(target)

    def run_pass(self, ctx: Context, workers: int) -> PassResult:
        from repro.analysis import sweep
        from repro.apps.catalog import all_app_names

        apps = all_app_names()
        document = sweep.run_sweep(self._base(apps[0], SWEEP_SESSION_S),
                                   self._grid(apps),
                                   seeds=self._seeds(ctx.seed),
                                   workers=workers, cache=self.cache)
        units = list(document["cells"]) + [document["aggregates"]]
        return PassResult(units=units,
                          sim_s=len(document["cells"]) * SWEEP_SESSION_S)


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "table1": Table1,
    "idle_reader": IdleReader,
    "tournament": Tournament,
    "sweep_warm": SweepWarm,
}
