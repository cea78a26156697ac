"""Lockstep vector session engine with a frame-coherence fast path.

The scalar path simulates one session as an object graph driven by a
private event heap.  This module adds a second execution engine that
(a) advances many sessions together over struct-of-arrays numpy state
and (b) skips event-heap work it can *prove* inert — while remaining
**byte-identical** to the scalar path in every observable output
(summaries, digests, checkpoints).  Equivalence, not speed, is the
acceptance bar; speed follows from how much proving beats doing.

Three layers
------------
:class:`VectorRunner`
    A :class:`~repro.sim.runner.SessionRunner` whose ``advance`` loop
    steps the heap one event at a time and, between events, consults an
    analytic *fast-forward controller* (below).  It also enables the
    compositor's frame-coherence fast path
    (:meth:`~repro.graphics.compositor.SurfaceManager
    .enable_coherence_fast_path`), so idle re-posts skip the
    blit/compare/copy of provably-identical frames.  The checkpoint
    and digest contract is inherited unchanged from the scalar runner
    — a vector checkpoint resumes on either engine.

The fast-forward controller
    Between heap events the only future work is the panel's V-Sync
    chain and the governor's decision chain — both periodic, both
    rescheduled by sequential float accumulation (``t + period``).
    When every app has no pending content, the compositor has no
    pending posts and the panel has no pending rate switch, the
    controller enumerates upcoming ticks of both chains and proves,
    tick by tick, that firing them would only perform bookkeeping it
    can replicate exactly:

    * a V-Sync tick with no posts and no due idle submission touches
      nothing but the V-Sync counter and its own reschedule;
    * a V-Sync tick whose only work is an **idle re-post** that the
      compositor's coherence fast path would absorb (coherent state,
      no dirty posts, no damaged surfaces, and the framebuffer's sole
      observer is the meter) performs a fixed, fully enumerable chain
      of bookkeeping — render/submission log appends, the redundant
      composition counters, the framebuffer generation bump, the
      meter's known-equal accounting — which the controller replays
      in bulk at commit time;
    * a governor tick whose replicated decision equals the panel's
      current target rate appends one decision-trace entry and
      reschedules (``set_refresh_rate`` to the current target is a
      no-op).

    Governor decisions for a whole run of ticks are priced in one
    vectorised pass — windowed content rates via
    :meth:`~repro.core.content_rate.ContentRateMeter
    .content_rates_batch` and section-table lookups via
    :meth:`~repro.core.section_table.SectionTable.lookup_batch`, both
    proven elementwise-identical to the scalar reads.  Anything the
    proof does not cover — another live heap event at or before a tick
    (content change, touch, scroll motion), an idle submission coming
    due, a decision that would change the rate, an exact
    V-Sync/decision time collision — is a *blocker*: enumeration stops
    strictly before it and the blocked tick fires normally through the
    heap.  Skipped ticks are committed through the components' own
    fast-forward hooks (:meth:`~repro.display.panel.DisplayPanel
    .fast_forward_vsyncs`, :meth:`~repro.sim.engine.PeriodicTask
    .fast_forward`, :meth:`~repro.core.governor.GovernorDriver
    .record_skipped_decisions`, :meth:`~repro.sim.engine.Simulator
    .credit_skipped`) in the chronological order of each chain's last
    skipped tick, which reproduces the heap's insertion-sequence
    tie-breaks exactly.

:class:`VectorEngine` / :func:`run_vector_batch`
    The lockstep layer: N eligible sessions advance together in fixed
    time slices over a shared ``(N, height, width, 3)`` uint8
    framebuffer block (one row per session, injected via
    :attr:`~repro.pipeline.builder.SessionBuilder
    .framebuffer_storage`), so a whole batch's pixel state lives in
    one contiguous allocation and batched sample extraction is a
    single stacked gather (:meth:`~repro.core.grid.GridSpec
    .sample_batch`).  Sessions the proofs do not cover
    (:func:`~repro.pipeline.eligibility.probe_vector_eligibility`)
    fall back to the scalar engine transparently, per session.
"""

from __future__ import annotations

import bisect

from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np
import numpy.typing as npt

from ..baselines.fixed import FixedRefreshGovernor
from ..core.governor import (
    GovernorPolicy,
    NaiveMatchGovernor,
    SectionBasedGovernor,
    TouchBoostGovernor,
)
from ..errors import ConfigurationError, SimulationError
from ..pipeline.builder import SessionBuilder
from ..pipeline.eligibility import probe_vector_eligibility
from ..pipeline.spec import SessionSpec
from ..units import ensure_positive
from .runner import SessionRunner

if TYPE_CHECKING:
    from ..apps.base import Application
    from ..display.panel import DisplayPanel
    from ..graphics.compositor import SurfaceManager
    from .session import SessionConfig, SessionResult

#: Session description accepted by the vector entry points.
VectorSource = Union["SessionConfig", SessionSpec]

#: Default lockstep slice.  Any value is equivalent (slice boundaries
#: only cap how far one fast-forward region may reach before the next
#: barrier), so the choice is purely a throughput knob: each barrier
#: costs one ``advance`` prologue plus one truncated fast-forward
#: region per session, and measured batch throughput on idle-heavy
#: workloads climbs until about a ten-second slice before flattening
#: out.  Sessions still march together — only at a coarser cadence.
DEFAULT_SLICE_S = 10.0


def _replicate_rates(policy: GovernorPolicy,
                     times: npt.NDArray[np.float64]
                     ) -> Optional[npt.NDArray[np.float64]]:
    """What ``policy.select_rate`` would return at each future time.

    Returns ``None`` when the policy is not one of the vectorizable
    builtins — the caller then treats every decision tick as a blocker
    (correct, just slower).  For the supported policies the result is
    **elementwise byte-identical** to calling ``select_rate`` at each
    time against the current (static-during-the-region) meter state:

    * ``fixed`` — a constant;
    * ``section`` — batched windowed content rates
      (``searchsorted`` == ``bisect`` on identical float64) fed
      through the batched table lookup (index = count of section
      highs <= rate, exactly the scalar half-open scan);
    * ``naive`` — first rate level >= content rate, via a left
      ``searchsorted`` over the sorted levels;
    * ``section+boost`` — the exact boost predicate
      ``time < boost_until`` selecting between the boost rate and the
      inner policy's replicated rates.
    """
    if isinstance(policy, FixedRefreshGovernor):
        return np.full(times.shape, policy.rate_hz, dtype=np.float64)
    if isinstance(policy, TouchBoostGovernor):
        inner = _replicate_rates(policy.inner, times)
        if inner is None:
            return None
        return np.where(times < policy.boost_until,
                        np.float64(policy.boost_rate_hz), inner)
    if isinstance(policy, SectionBasedGovernor):
        contents = policy.meter.content_rates_batch(
            times, policy.window_s)
        return policy.table.lookup_batch(contents)
    if isinstance(policy, NaiveMatchGovernor):
        contents = policy.meter.content_rates_batch(
            times, policy.window_s)
        levels = np.asarray(policy.rates, dtype=np.float64)
        index = np.minimum(
            np.searchsorted(levels, contents, side="left"),
            len(levels) - 1)
        return levels[index]
    return None


def _chain_times(start: float, period: float, until: float,
                 block: Optional[float]) -> List[float]:
    """Tick times of one periodic chain inside the region limits.

    Exactly the ticks the scalar loop would fire: ``start``,
    ``start + period``, … — :func:`numpy.add.accumulate` performs the
    same left-to-right pairwise float64 additions as the sequential
    ``t = t + period`` reschedules, so the values are bit-identical,
    and the plain-Python loop used for short chains performs literally
    those additions.  The two branches produce the same floats; the
    split is purely a constant-factor matter (numpy setup costs more
    than a dozen iterations of the loop, and governor chains are
    usually a handful of ticks).  Ticks are kept while ``t <= until``
    and, when a blocking event exists, ``t < block``.
    """
    if start > until or (block is not None and start >= block):
        return []
    count = int((until - start) / period) + 2
    if count <= 48:
        result: List[float] = []
        t = start
        while t <= until and (block is None or t < block):
            result.append(t)
            t = t + period
        return result
    steps = np.full(count, period, dtype=np.float64)
    steps[0] = start
    times = np.add.accumulate(steps)
    end = int(np.searchsorted(times, until, side="right"))
    if block is not None:
        end = min(end, int(np.searchsorted(times, block,
                                           side="left")))
    tail: List[float] = times[:end].tolist()
    return tail


def _first_due(times: List[float], start_index: int, last_post: float,
               threshold: float) -> int:
    """First index >= ``start_index`` whose tick is idle-submit due.

    Evaluates the exact scalar predicate
    ``times[i] - last_post >= threshold``.  Due ticks form a suffix of
    the list (float subtraction is monotone in the minuend), so the
    boundary is found by binary search; returns ``len(times)`` when no
    remaining tick is due.
    """
    lo, hi = start_index, len(times)
    while lo < hi:
        mid = (lo + hi) // 2
        if times[mid] - last_post >= threshold:
            hi = mid
        else:
            lo = mid + 1
    return lo


class VectorRunner(SessionRunner):
    """A session runner that proves ticks inert instead of firing them.

    Construction requires an eligible config
    (:func:`~repro.pipeline.eligibility.probe_vector_eligibility`);
    ineligible configs raise :class:`~repro.errors.ConfigurationError`
    listing every disqualifier — callers wanting transparent fallback
    use :func:`run_vector_session` or the batch layer.

    Everything observable — summaries, ``state_digest``, checkpoint
    documents, ``events_processed`` — is byte-identical to a scalar
    :class:`~repro.sim.runner.SessionRunner` over the same config.
    """

    def __init__(self, source: Union["SessionConfig", SessionBuilder]
                 ) -> None:
        config = source.config if isinstance(source, SessionBuilder) \
            else source
        verdict = probe_vector_eligibility(config)
        if not verdict.eligible:
            raise ConfigurationError(
                "config is not vector-eligible: "
                + "; ".join(verdict.reasons),
                context={"subsystem": "vector",
                         "reasons": list(verdict.reasons),
                         "codes": list(verdict.codes)})
        super().__init__(source)
        builder = self.builder
        self._compositor: "SurfaceManager" = builder._need(
            builder.compositor, "compositor")
        self._compositor.enable_coherence_fast_path()
        self._panel: "DisplayPanel" = builder._need(
            builder.panel, "panel")
        self._vec_driver = builder._need(builder.driver, "driver")
        apps: List["Application"] = [
            builder._need(builder.application, "application")]
        if builder.status_bar_app is not None:
            apps.append(builder.status_bar_app)
        self._apps: Tuple["Application", ...] = tuple(apps)
        # Idle-submission predicate inputs, with each threshold computed
        # by the exact float expression Application.on_vsync evaluates.
        self._idle_apps: Tuple[Tuple["Application", float], ...] = tuple(
            (app, (1.0 / app.profile.idle_submit_fps) - 1e-9)
            for app in self._apps if app.profile.idle_submit_fps > 0)
        self._framebuffer = builder._need(builder.framebuffer,
                                          "framebuffer")
        self._meter = builder._need(builder.meter, "meter")
        self._compositions_log = builder._need(builder.compositions,
                                               "compositions")
        # Bulk idle-submit skipping replays the coherence fast branch's
        # entire effect chain at commit time; that replay is complete
        # only when the framebuffer's sole observer is the meter and
        # the compositor's sole listener is the builder's composition
        # log.  Anything else watching updates (an OLED tracker, a
        # trace recorder) must see every tick — idle-due ticks then
        # block the region and fire through the heap as before.
        fb_listeners = self._framebuffer._listeners
        self._idle_skip_ok = (
            builder.oled_tracker is None
            and len(fb_listeners) == 1
            and getattr(fb_listeners[0], "__self__", None)
            is self._meter
            and len(self._compositor._listeners) == 1)
        self._skipped_ticks = 0
        self._skip_regions = 0

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def skipped_ticks(self) -> int:
        """Ticks resolved analytically instead of fired off the heap."""
        return self._skipped_ticks

    @property
    def skip_regions(self) -> int:
        """Number of committed fast-forward regions."""
        return self._skip_regions

    # ------------------------------------------------------------------
    # The stepping loop
    # ------------------------------------------------------------------
    def advance(self, until_s: float,
                max_events: Optional[int] = None) -> int:
        """Advance to ``until_s`` via step-or-fast-forward.

        Counts analytically skipped ticks toward the returned total and
        the ``max_events`` storm bound — they stand for events the
        scalar engine would have fired.
        """
        if self._finished:
            raise SimulationError(
                "cannot advance a finished session runner")
        self.start()
        until = min(float(until_s), self.duration_s)
        if until <= self.now:
            return 0
        sim = self.sim
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                nxt = sim.peek_next_live()
                if nxt is not None and nxt.time <= until:
                    raise SimulationError(
                        f"event storm: slice to t={until:.6f}s "
                        f"exceeded {max_events} events (stalled at "
                        f"t={self.now:.6f}s)",
                        context={"subsystem": "runner",
                                 "sim_time_s": self.now,
                                 "max_events": max_events})
                sim.advance_clock(until)
                break
            skipped = self._fast_forward_once(until)
            if skipped:
                fired += skipped
                continue
            if sim.step_one(until):
                fired += 1
                continue
            sim.advance_clock(until)
            break
        return fired

    # ------------------------------------------------------------------
    # The fast-forward controller
    # ------------------------------------------------------------------
    def _fast_forward_once(self, until: float) -> int:
        """Skip one provably-inert run of ticks; 0 when none exists.

        See the module docstring for the full proof obligations.  Every
        check below either replicates a scalar predicate with the exact
        same float expression or conservatively declines (returning 0
        costs only speed, never correctness).
        """
        # The prologue runs once per potential region — after every
        # stepped event — so it reads the private fields its public
        # twins (``next_vsync_handle``, ``pending``, ``pending_rate_hz``,
        # ``has_pending_posts``, ``pending_changes``) wrap, skipping
        # ~10 property calls per invocation.
        panel = self._panel
        vsync = panel._next_vsync
        if (vsync is None or vsync._cancelled or vsync._fired
                or panel._pending_rate is not None):
            # No scheduled tick, or a latched switch applies at the
            # next real tick.
            return 0
        task = self._vec_driver._task
        if task is None:
            return 0
        decision = task._handle
        if decision is None or decision._cancelled or decision._fired:
            return 0
        if vsync.time > until and decision.time > until:
            # Both chains start beyond the slice — nothing to skip,
            # whatever the heap holds.  This is the common shape right
            # after a committed region consumed the slice.
            return 0
        if self._compositor._pending:
            # The next V-Sync composites (cheaply, via the coherence
            # fast path) — it is a real event.
            return 0
        for app in self._apps:
            if app._pending_changes > 0:
                return 0
        sim = self.sim
        block = sim.next_live_time_excluding(vsync, decision)

        # Idle re-posts are skippable too when the coherence fast
        # branch is guaranteed to absorb them: the compositor is
        # coherent with nothing dirty or damaged, and the effect chain
        # has no unknown observers (_idle_skip_ok).  Those guarantees
        # are stable across the whole region — skipped ticks post
        # nothing dirty and damage nothing.
        comp = self._compositor
        replicate_idle = (self._idle_skip_ok and comp._coherent
                          and not comp._pending_dirty
                          and not any(s.is_damaged
                                      for s in comp._surfaces))

        # Enumerate both periodic chains.  The sequential scalar loop
        # walks the merged order tick by tick, but every one of its
        # stopping conditions — t past until/block, an exact
        # V-Sync/decision collision, an idle submission the replay
        # cannot cover — cuts *both* chains at one time, so the chains
        # can be generated wholesale and truncated.  Tick times come
        # from ``np.add.accumulate``, which produces the exact float64
        # sequence of the scalar ``t = t + period`` reschedules
        # (left-to-right pairwise addition either way).
        vsync_period = 1.0 / panel.refresh_rate_hz
        decision_period = task.period
        v_times = _chain_times(vsync.time, vsync_period, until, block)
        g_times = _chain_times(decision.time, decision_period, until,
                               block)
        if g_times and v_times:
            # An exact V-Sync/decision collision: relative order is
            # owned by heap insertion sequence, which analysis cannot
            # see — stop both chains strictly before it.  Probe each
            # decision tick (the short chain) into the sorted V-Sync
            # chain; the first hit is the earliest collision.
            for index, tick in enumerate(g_times):
                at = bisect.bisect_left(v_times, tick)
                if at < len(v_times) and v_times[at] == tick:
                    del v_times[at:]
                    del g_times[index:]
                    break

        # Replay the idle-submission predicate per app.  Posts of
        # different apps are independent (each app's due test reads
        # only its own last-post time), and for one app the due ticks
        # form a suffix of the remaining region (``tv - last`` is
        # non-decreasing in ``tv``), so each post is found by binary
        # search with the exact scalar predicate instead of a per-tick
        # scan.
        idle_ticks: List[float] = []
        idle_posts: List[List[float]] = [
            [] for _ in self._idle_apps]
        if self._idle_apps and v_times:
            if not replicate_idle:
                # Stop both chains strictly before the first tick any
                # app would post at — that tick is a real event.
                first_due = None
                for app, threshold in self._idle_apps:
                    index = _first_due(v_times, 0, app.last_post_time,
                                       threshold)
                    if index < len(v_times) and (
                            first_due is None
                            or v_times[index] < first_due):
                        first_due = v_times[index]
                if first_due is not None:
                    del v_times[bisect.bisect_left(v_times,
                                                   first_due):]
                    del g_times[bisect.bisect_left(g_times,
                                                   first_due):]
            else:
                for slot, (app, threshold) in enumerate(
                        self._idle_apps):
                    last = app.last_post_time
                    posts = idle_posts[slot]
                    index = 0
                    while True:
                        index = _first_due(v_times, index, last,
                                           threshold)
                        if index == len(v_times):
                            break
                        last = v_times[index]
                        posts.append(last)
                        index += 1
                if len(self._idle_apps) == 1:
                    idle_ticks = idle_posts[0]
                else:
                    merged = set()
                    for posts in idle_posts:
                        merged.update(posts)
                    idle_ticks = sorted(merged)
        g_rates: List[float] = []
        cut: Optional[float] = None
        if g_times:
            policy = self._vec_driver.policy
            target = panel.target_rate_hz
            if isinstance(policy, FixedRefreshGovernor):
                # Constant decision: no arrays to build — either every
                # tick matches the target or the first one blocks.
                if policy.rate_hz == target:
                    g_rates = [policy.rate_hz] * len(g_times)
                else:
                    cut = g_times[0]
                    g_times = []
            else:
                rates = _replicate_rates(
                    policy, np.asarray(g_times, dtype=np.float64))
                if rates is None:
                    # Unreplicable policy: every decision tick blocks,
                    # and V-Syncs after the first decision see unknown
                    # state.
                    cut = g_times[0]
                    g_times = []
                else:
                    g_rates = [float(r) for r in rates.tolist()]
                    mismatch = next(
                        (i for i, rate in enumerate(g_rates)
                         if rate != target), None)
                    if mismatch is not None:
                        # This decision changes the rate — a real
                        # event — and later V-Syncs run under the new
                        # rate.
                        cut = g_times[mismatch]
                        g_times = g_times[:mismatch]
                        g_rates = g_rates[:mismatch]
        if cut is not None:
            del v_times[bisect.bisect_left(v_times, cut):]
            if idle_ticks:
                idle_ticks = idle_ticks[
                    :bisect.bisect_left(idle_ticks, cut)]
                idle_posts = [
                    posts[:bisect.bisect_left(posts, cut)]
                    for posts in idle_posts]
        count = len(v_times) + len(g_times)
        if count == 0:
            return 0

        # Commit.  Final reschedules are allocated in chronological
        # order of each chain's last skipped tick — the order the
        # scalar run would have allocated them in, preserving heap
        # insertion-sequence tie-breaks for any later collision.
        chains: List[Tuple[float, str]] = []
        if v_times:
            chains.append((v_times[-1], "v"))
        if g_times:
            chains.append((g_times[-1], "g"))
        chains.sort()
        for last, kind in chains:
            if kind == "v":
                panel.fast_forward_vsyncs(len(v_times), last)
                if idle_ticks:
                    self._replay_idle_posts(idle_ticks, idle_posts)
            else:
                task.fast_forward(len(g_times), last)
                self._vec_driver.record_skipped_decisions(
                    g_times, g_rates)
        sim.advance_clock(chains[-1][0])
        sim.credit_skipped(count)
        self._skipped_ticks += count
        self._skip_regions += 1
        return count

    def _replay_idle_posts(self, tick_times: List[float],
                           posts_per_app: List[List[float]]) -> None:
        """Land the effect chain of skipped idle-submit ticks in bulk.

        Each tick in ``tick_times`` stands for one V-Sync at which one
        or more apps re-posted an unchanged frame and the compositor's
        coherence fast branch absorbed it.  The scalar sequence per
        tick is: the posting app appends to its render and submission
        logs and advances its last-post time; the compositor
        acknowledges the post (a no-op here — the region precondition
        guarantees no surface is damaged, so posted and damage
        generations already agree), clears pending, calls
        ``framebuffer.write_unchanged`` (generation bump, timestamp,
        meter fast branch: frame-log append, known-equal comparison,
        redundant capture), carries its own write generation along
        while in sync, bumps both composition counters and
        notifies the composition log with ``redundant=True``.  All of
        it is appends of known timestamps and counter arithmetic, so
        the whole region lands as a handful of bulk extends.
        """
        n = len(tick_times)
        for (app, _), times in zip(self._idle_apps, posts_per_app):
            if not times:
                continue
            app.renders.extend(times)
            app.submissions.extend(times)
            app._last_post_time = times[-1]
        comp = self._compositor
        comp._compositions += n
        comp._redundant_compositions += n
        self._compositions_log.extend(tick_times)
        framebuffer = self._framebuffer
        if comp._in_sync():
            comp._written_generation += n
        framebuffer._generation += n
        framebuffer._last_update_time = tick_times[-1]
        framebuffer._last_write_unchanged = True
        meter = self._meter
        meter._frames.extend(tick_times)
        if meter.config.min_changed_cells == 1:
            meter.comparator.note_equal(n)
        meter._store.note_redundant_capture(n)


# ----------------------------------------------------------------------
# Lockstep batches
# ----------------------------------------------------------------------
class VectorEngine:
    """Advance N eligible sessions in lockstep over shared SoA state.

    All sessions' framebuffers with the same geometry live as rows of
    one contiguous ``(N, height, width, 3)`` uint8 block, injected
    into each :class:`~repro.pipeline.builder.SessionBuilder` before
    its display stage runs.  :meth:`run` drives every session through
    the same sequence of time slices; each session's
    :class:`VectorRunner` does its own event stepping and fast
    forwarding inside the slice, so heterogeneous event streams never
    block each other.

    Every source must be vector-eligible;
    :class:`~repro.errors.ConfigurationError` (listing the offending
    indices and reasons) otherwise.  Use :func:`run_vector_batch` for
    transparent per-session fallback.
    """

    def __init__(self, sources: Sequence[VectorSource], *,
                 slice_s: float = DEFAULT_SLICE_S) -> None:
        if not sources:
            raise ConfigurationError(
                "VectorEngine needs at least one session")
        self.slice_s = ensure_positive(slice_s, "slice_s")
        configs: List["SessionConfig"] = [
            source.to_config() if isinstance(source, SessionSpec)
            else source for source in sources]
        problems: List[str] = []
        for index, config in enumerate(configs):
            verdict = probe_vector_eligibility(config)
            if not verdict.eligible:
                problems.append(
                    f"#{index}: " + "; ".join(verdict.reasons))
        if problems:
            raise ConfigurationError(
                "sessions are not vector-eligible: "
                + " | ".join(problems),
                context={"subsystem": "vector"})
        # Group by framebuffer geometry; each group shares one block.
        by_shape: Dict[Tuple[int, int], List[int]] = {}
        for index, config in enumerate(configs):
            by_shape.setdefault(
                self._geometry(config), []).append(index)
        self._blocks: List[Tuple[npt.NDArray[np.uint8], List[int]]] = []
        runners: List[Optional[VectorRunner]] = [None] * len(configs)
        for (height, width), indices in by_shape.items():
            pixel_block: npt.NDArray[np.uint8] = np.zeros(
                (len(indices), height, width, 3), dtype=np.uint8)
            for row, index in enumerate(indices):
                builder = SessionBuilder(configs[index])
                builder.framebuffer_storage = pixel_block[row]
                runners[index] = VectorRunner(builder)
            self._blocks.append((pixel_block, indices))
        assert all(runner is not None for runner in runners)
        self.runners: List[VectorRunner] = [
            runner for runner in runners if runner is not None]

    @staticmethod
    def _geometry(config: "SessionConfig") -> Tuple[int, int]:
        """(height, width) of the session's framebuffer — the same
        arithmetic as ``SessionBuilder.build_display``."""
        spec = config.panel
        return (max(8, spec.height // config.resolution_divisor),
                max(8, spec.width // config.resolution_divisor))

    # ------------------------------------------------------------------
    @property
    def session_count(self) -> int:
        """Number of sessions advancing in lockstep."""
        return len(self.runners)

    def framebuffer_samples(self) -> List[npt.NDArray[np.uint8]]:
        """One stacked grid gather per block: ``(n, samples, 3)``.

        The batched view of every session's framebuffer at its
        block's sample points (the first session's meter grid), via
        :meth:`~repro.core.grid.GridSpec.sample_batch` — a single
        advanced-indexing gather over the whole block instead of N
        per-session extractions.
        """
        views: List[npt.NDArray[np.uint8]] = []
        for pixel_block, indices in self._blocks:
            grid = self.runners[indices[0]].builder._need(
                self.runners[indices[0]].builder.meter, "meter").grid
            views.append(grid.sample_batch(pixel_block))
        return views

    def run(self) -> List["SessionResult"]:
        """Advance every session to completion, in lockstep slices."""
        horizon = max(runner.duration_s for runner in self.runners)
        t = 0.0
        while t < horizon:
            t = min(t + self.slice_s, horizon)
            for runner in self.runners:
                if not runner.done:
                    runner.advance(t)
        return [runner.finish() for runner in self.runners]


def run_vector_session(source: VectorSource) -> "SessionResult":
    """Run one session on the vector engine, falling back to scalar.

    The transparent entry point: eligible configs run through a
    :class:`VectorRunner`, ineligible ones through the scalar
    :class:`~repro.sim.runner.SessionRunner` — byte-identical results
    either way.
    """
    config = source.to_config() if isinstance(source, SessionSpec) \
        else source
    if probe_vector_eligibility(config).eligible:
        return VectorRunner(config).run()
    return SessionRunner(config).run()


def run_vector_batch(sources: Sequence[VectorSource], *,
                     slice_s: float = DEFAULT_SLICE_S
                     ) -> List[Dict[str, Any]]:
    """Batch payloads (``{"entry", "events"}``) for many sessions.

    Eligible sessions advance in one lockstep :class:`VectorEngine`;
    ineligible ones fall back per-session to the scalar runner.
    Results come back in input order in the batch wire form
    (:func:`~repro.sim.batch.summarize_result` entries), so
    :func:`~repro.sim.batch.run_batch` can merge them into its result
    slots unchanged.  Eligible sessions never carry telemetry, so
    their captured event streams are always empty.
    """
    from .batch import summarize_result

    if not sources:
        raise ConfigurationError(
            "run_vector_batch needs at least one session")
    configs: List["SessionConfig"] = [
        source.to_config() if isinstance(source, SessionSpec)
        else source for source in sources]
    payloads: List[Optional[Dict[str, Any]]] = [None] * len(configs)
    eligible: List[int] = []
    for index, config in enumerate(configs):
        try:
            if probe_vector_eligibility(config).eligible:
                eligible.append(index)
        except Exception:  # noqa: BLE001 - probe failure => scalar path
            pass
    if eligible:
        engine = VectorEngine([configs[i] for i in eligible],
                              slice_s=slice_s)
        for index, result in zip(eligible, engine.run()):
            payloads[index] = {"entry": summarize_result(result),
                               "events": []}
    for index, config in enumerate(configs):
        if payloads[index] is None:
            result = SessionRunner(config).run()
            payloads[index] = {"entry": summarize_result(result),
                               "events": []}
    return [payload for payload in payloads if payload is not None]
