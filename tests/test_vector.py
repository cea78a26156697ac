"""Tests for the lockstep vector engine (`repro.sim.vector`).

The contract under test is the acceptance bar of the vector engine:
every eligible spec produces a summary **byte-identical** to the
scalar reference path — across the whole 30-app catalog, every
builtin governor, every meter configuration, and any slicing of the
advance loop — while ineligible specs (faults, trace replay,
stateful governors) transparently fall back to the scalar path.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.profile import AppCategory, AppProfile, RenderStyle
from repro.core.double_buffer import DoubleBuffer, SampledDoubleBuffer
from repro.core.grid import GridComparator, GridSpec
from repro.errors import ConfigurationError, MeteringError, SimulationError
from repro.faults.plan import FaultPlan
from repro.pipeline.apps import APPS
from repro.pipeline.eligibility import (
    VECTOR_GOVERNORS,
    probe_vector_eligibility,
    vector_eligible,
)
from repro.sim.batch import run_batch
from repro.sim.runner import SessionRunner, resume_runner
from repro.sim.session import MeterConfig, SessionConfig
from repro.sim.tracing import EventLog, TimeSeries
from repro.sim.vector import (
    VectorEngine,
    VectorRunner,
    run_vector_batch,
    run_vector_session,
)
from repro.analysis.export import session_summary_dict

GOLDEN_TRACE = "trace:tests/data/golden.rptrace"

#: Every builtin governor, vectorizable or not.
ALL_GOVERNORS = ("fixed", "section", "section+boost",
                 "section+hysteresis", "naive", "oracle", "e3")

FALLBACK_GOVERNORS = tuple(g for g in ALL_GOVERNORS
                           if g not in VECTOR_GOVERNORS)


def _summary(result):
    return session_summary_dict(result)


def _scalar(config):
    return _summary(SessionRunner(config).run())


def _vector(config):
    return _summary(run_vector_session(config))


# ----------------------------------------------------------------------
# Eligibility probe
# ----------------------------------------------------------------------
class TestEligibility:
    def test_plain_catalog_spec_is_eligible(self):
        cfg = SessionConfig(app="Facebook", governor="section",
                            duration_s=5.0, seed=1)
        verdict = probe_vector_eligibility(cfg)
        assert verdict.eligible
        assert verdict.reasons == ()
        assert bool(verdict)

    def test_each_disqualifier_is_reported(self):
        cfg = SessionConfig(app=GOLDEN_TRACE, governor="oracle",
                            duration_s=5.0, seed=1,
                            faults=FaultPlan(meter_fail=0.5, seed=1))
        verdict = probe_vector_eligibility(cfg)
        assert not verdict.eligible
        text = " ".join(verdict.reasons)
        assert "fault" in text
        assert "governor" in text
        assert len(verdict.reasons) >= 3

    @pytest.mark.parametrize("governor", FALLBACK_GOVERNORS)
    def test_stateful_governors_are_ineligible(self, governor):
        cfg = SessionConfig(app="Facebook", governor=governor,
                            duration_s=5.0, seed=1)
        assert not vector_eligible(cfg)

    def test_vector_runner_requires_eligibility(self):
        cfg = SessionConfig(app="Facebook",
                            governor="section+hysteresis",
                            duration_s=5.0, seed=1)
        with pytest.raises(ConfigurationError, match="not vector-eligible"):
            VectorRunner(cfg)


# ----------------------------------------------------------------------
# Byte-equivalence: the acceptance bar
# ----------------------------------------------------------------------
class TestCatalogEquivalence:
    @pytest.mark.parametrize("app", sorted(APPS.names()))
    def test_every_catalog_app_is_byte_identical(self, app):
        # Rotate the vectorizable governors across the catalog so the
        # matrix covers every (well-known app) x (governor) pairing
        # over the suite without running 30 x 4 sessions.
        governor = VECTOR_GOVERNORS[hash(app) % len(VECTOR_GOVERNORS)]
        cfg = SessionConfig(app=app, governor=governor,
                            duration_s=4.0, seed=11)
        assert _scalar(cfg) == _vector(cfg)

    @pytest.mark.parametrize("governor", ALL_GOVERNORS)
    def test_every_builtin_governor_is_byte_identical(self, governor):
        # Fallback governors go through the scalar path inside
        # run_vector_session; the summary must be identical either way.
        cfg = SessionConfig(app="Tiny Flashlight", governor=governor,
                            duration_s=6.0, seed=3)
        assert _scalar(cfg) == _vector(cfg)

    @pytest.mark.parametrize("kwargs", [
        {"status_bar": True},
        {"meter": MeterConfig(min_changed_cells=3)},
        {"meter": MeterConfig(store_full_frames=False)},
        {"track_oled": True},
        {"status_bar": True, "track_oled": True,
         "meter": MeterConfig(min_changed_cells=3)},
    ], ids=["status-bar", "min-changed-cells", "sampled-store",
            "oled", "combined"])
    def test_meter_and_observer_variants(self, kwargs):
        # These variants exercise the bulk idle-submit replay gate:
        # an OLED tracker or a second app changes the listener
        # topology, min_changed_cells changes the comparator
        # accounting, a sampled store changes the capture kernel.
        cfg = SessionConfig(app="Tiny Flashlight",
                            governor="section+boost",
                            duration_s=8.0, seed=5, **kwargs)
        assert _scalar(cfg) == _vector(cfg)

    def test_oled_tracker_disables_bulk_idle_replay(self):
        quiet = SessionConfig(app="Tiny Flashlight", governor="fixed",
                              duration_s=8.0, seed=5)
        watched = SessionConfig(app="Tiny Flashlight", governor="fixed",
                                duration_s=8.0, seed=5, track_oled=True)
        assert VectorRunner(quiet)._idle_skip_ok
        assert not VectorRunner(watched)._idle_skip_ok

    @pytest.mark.parametrize("track_oled", [False, True])
    def test_content_version_is_engine_agnostic(self, track_oled):
        # The scalar path proves redundant frames by full comparison,
        # the vector path by the coherence fast branch and bulk idle
        # replay; both must leave the framebuffer on the same content
        # version with the compositor's write claim still in sync.
        cfg = SessionConfig(app="Tiny Flashlight", governor="fixed",
                            duration_s=8.0, seed=5, track_oled=track_oled)
        scalar, vector = SessionRunner(cfg), VectorRunner(cfg)
        scalar.run()
        vector.run()
        for runner in (scalar, vector):
            assert runner.builder.compositor._in_sync()
        assert (scalar.builder.framebuffer.content_version
                == vector.builder.framebuffer.content_version)
        assert (scalar.builder.framebuffer.generation
                > scalar.builder.framebuffer.content_version)

    def test_faulted_spec_falls_back_and_matches(self):
        cfg = SessionConfig(app="Facebook", governor="section",
                            duration_s=5.0, seed=2,
                            faults=FaultPlan(meter_fail=0.3, seed=2))
        assert not vector_eligible(cfg)
        assert _scalar(cfg) == _vector(cfg)

    def test_trace_replay_falls_back_and_matches(self):
        cfg = SessionConfig(app=GOLDEN_TRACE, governor="section",
                            duration_s=4.0, seed=1)
        assert not vector_eligible(cfg)
        assert _scalar(cfg) == _vector(cfg)

    def test_ltpo_panel_is_byte_identical(self):
        from repro.pipeline import PANELS
        panel = PANELS.get("ltpo-120")()
        cfg = SessionConfig(app="Tiny Flashlight", governor="fixed",
                            duration_s=6.0, seed=4, panel=panel)
        assert _scalar(cfg) == _vector(cfg)


# ----------------------------------------------------------------------
# The checkpoint/digest contract
# ----------------------------------------------------------------------
class TestDigestContract:
    def test_digests_match_at_every_advance_boundary(self):
        cfg = SessionConfig(app="Tiny Flashlight", governor="section",
                            duration_s=6.0, seed=9)
        scalar = SessionRunner(cfg)
        vector = VectorRunner(cfg)
        for until in (0.5, 1.7, 3.0, 4.25, 6.0):
            scalar.advance(until)
            vector.advance(until)
            assert scalar.now == vector.now
            assert (scalar.sim.events_processed
                    == vector.sim.events_processed), until
            assert scalar.state_digest() == vector.state_digest(), until
        assert vector.skipped_ticks > 0
        assert _summary(scalar.finish()) == _summary(vector.finish())

    def test_checkpoint_documents_are_engine_agnostic(self):
        cfg = SessionConfig(app="Weather", governor="section+boost",
                            duration_s=6.0, seed=6)
        scalar = SessionRunner(cfg)
        vector = VectorRunner(cfg)
        scalar.advance(3.0)
        vector.advance(3.0)
        assert (scalar.checkpoint_document()
                == vector.checkpoint_document())

    @pytest.mark.parametrize("engine", ["scalar", "auto", "vector"])
    def test_resume_verifies_across_engines(self, engine):
        cfg = SessionConfig(app="Tiny Flashlight", governor="section",
                            duration_s=6.0, seed=9)
        source = SessionRunner(cfg)
        source.advance(2.5)
        doc = source.checkpoint_document()
        resumed = resume_runner(doc, engine=engine)
        if engine == "scalar":
            assert not isinstance(resumed, VectorRunner)
        else:
            assert isinstance(resumed, VectorRunner)
        assert _summary(resumed.run()) == _summary(source.run())

    def test_auto_resume_falls_back_for_ineligible_spec(self):
        cfg = SessionConfig(app="Facebook",
                            governor="section+hysteresis",
                            duration_s=4.0, seed=1)
        source = SessionRunner(cfg)
        source.advance(1.5)
        resumed = resume_runner(source.checkpoint_document(),
                                engine="auto")
        assert not isinstance(resumed, VectorRunner)
        assert _summary(resumed.run()) == _summary(source.run())


# ----------------------------------------------------------------------
# Property: slicing never changes the summary
# ----------------------------------------------------------------------
class TestSliceInvariance:
    @settings(deadline=None, max_examples=12)
    @given(boundaries=st.lists(
        st.floats(min_value=0.01, max_value=5.99,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=6),
        seed=st.integers(0, 2**16 - 1))
    def test_skipped_ticks_never_change_the_summary(self, boundaries,
                                                    seed):
        cfg = SessionConfig(app="Tiny Flashlight",
                            governor="section+boost",
                            duration_s=6.0, seed=seed)
        reference = _scalar(cfg)
        vector = VectorRunner(cfg)
        for until in sorted(boundaries):
            vector.advance(until)
        assert _summary(vector.run()) == reference

    @pytest.mark.parametrize("slice_s", [0.25, 1.0, 3.0, 10.0])
    def test_engine_slice_is_invisible(self, slice_s):
        cfgs = [SessionConfig(app="Tiny Flashlight", governor="fixed",
                              duration_s=5.0, seed=s)
                for s in range(3)]
        reference = [
            {"entry": json.loads(json.dumps(e)), "events": []}
            for e in run_batch(cfgs, workers=1)]
        assert run_vector_batch(cfgs, slice_s=slice_s) == reference


# ----------------------------------------------------------------------
# Batch routing and cache composition
# ----------------------------------------------------------------------
class TestBatchRouting:
    def _mixed_configs(self):
        return [
            SessionConfig(app="Tiny Flashlight", governor="fixed",
                          duration_s=3.0, seed=0),
            SessionConfig(app="Facebook", governor="section+hysteresis",
                          duration_s=3.0, seed=1),       # fallback
            SessionConfig(app="Weather", governor="naive",
                          duration_s=3.0, seed=2),
            SessionConfig(app=GOLDEN_TRACE, governor="section",
                          duration_s=3.0, seed=3),       # fallback
        ]

    @pytest.mark.parametrize("engine", ["auto", "vector"])
    def test_mixed_batch_matches_scalar_in_order(self, engine):
        cfgs = self._mixed_configs()
        assert (run_batch(cfgs, workers=1, engine=engine)
                == run_batch(cfgs, workers=1))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            run_batch(self._mixed_configs()[:1], engine="warp")

    def test_cache_entries_are_engine_agnostic(self, tmp_path):
        from repro.cache import ResultCache
        cfgs = self._mixed_configs()[:3]
        cold = run_batch(cfgs, workers=1, engine="vector",
                         cache=ResultCache(tmp_path / "c"))
        warm_cache = ResultCache(tmp_path / "c")
        warm = run_batch(cfgs, workers=1, cache=warm_cache)
        assert warm == cold
        stats = warm_cache.stats_dict()
        assert stats["hits"] == len(cfgs)
        assert stats["misses"] == 0

    def test_vector_batch_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            run_vector_batch([])

    def test_engine_reports_skip_diagnostics(self):
        cfgs = [SessionConfig(app="Tiny Flashlight", governor="fixed",
                              duration_s=4.0, seed=s)
                for s in range(2)]
        engine = VectorEngine(cfgs)
        engine.run()
        assert all(r.skipped_ticks > 0 for r in engine.runners)


# ----------------------------------------------------------------------
# Bulk accounting primitives behind the idle-submit replay
# ----------------------------------------------------------------------
class TestBulkAccounting:
    def test_event_log_extend_equals_appends(self):
        a, b = EventLog("a"), EventLog("b")
        times = [0.1, 0.5, 0.5, 1.25]
        for t in times:
            a.append(t)
        b.extend(times)
        assert list(a.times) == list(b.times)

    def test_event_log_extend_rejects_time_travel(self):
        log = EventLog("log")
        log.append(2.0)
        with pytest.raises(SimulationError, match="backwards"):
            log.extend([2.5, 2.4])
        with pytest.raises(SimulationError, match="backwards"):
            log.extend([1.0])
        assert list(log.times) == [2.0]

    def test_time_series_extend_equals_appends(self):
        a, b = TimeSeries("a"), TimeSeries("b")
        for t, v in [(0.2, 60.0), (0.4, 40.0), (0.6, 40.0)]:
            a.append(t, v)
        b.extend([0.2, 0.4, 0.6], [60.0, 40.0, 40.0])
        assert list(a.times) == list(b.times)
        assert list(a.values) == list(b.values)

    def test_time_series_extend_validates(self):
        series = TimeSeries("s")
        with pytest.raises(SimulationError, match="backwards"):
            series.extend([1.0, 0.5], [1.0, 2.0])
        with pytest.raises(SimulationError, match="extend"):
            series.extend([1.0], [1.0, 2.0])
        assert len(series) == 0

    def test_comparator_note_equal_counts_in_bulk(self):
        comparator = GridComparator(GridSpec((8, 8), 2, 2))
        comparator.note_equal()
        comparator.note_equal(41)
        assert comparator.comparisons == 42
        assert comparator.mismatches == 0

    @pytest.mark.parametrize("buffer_cls", [
        lambda: DoubleBuffer((4, 4, 3)),
        lambda: SampledDoubleBuffer(GridSpec((4, 4), 2, 2)),
    ], ids=["full", "sampled"])
    def test_redundant_capture_counts_in_bulk(self, buffer_cls):
        import numpy as np
        buf = buffer_cls()
        with pytest.raises(MeteringError):
            buf.note_redundant_capture(3)
        buf.capture(np.zeros((4, 4, 3), dtype=np.uint8))
        captures, copied = buf.captures, buf.bytes_copied
        buf.note_redundant_capture(5)
        assert buf.captures == captures + 5
        assert buf.bytes_copied == copied + 5 * (copied // captures)


# ----------------------------------------------------------------------
# The bench workload stays vector-eligible
# ----------------------------------------------------------------------
class TestBenchWorkload:
    def test_bench_vector_batch_is_eligible(self):
        from repro.bench import _vector_batch_configs
        for cfg in _vector_batch_configs(2, 5.0):
            assert vector_eligible(cfg)

    def test_bench_profile_is_idle_heavy(self):
        from repro.bench import VECTOR_BATCH_PROFILE
        assert VECTOR_BATCH_PROFILE.idle_content_fps <= 0.1
        assert VECTOR_BATCH_PROFILE.idle_submit_fps > 0
        assert VECTOR_BATCH_PROFILE.render_style is RenderStyle.SMALL_REGION
        assert VECTOR_BATCH_PROFILE.category is AppCategory.GENERAL
        assert isinstance(VECTOR_BATCH_PROFILE, AppProfile)
