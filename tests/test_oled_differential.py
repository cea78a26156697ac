"""Pricing each displayed frame once changes no output.

The emission tracker and the luminance governor re-price the screen
only when ``Framebuffer.content_version`` moves.  Two oracles check
that this skips only work, never information:

* a test-local tracker that decodes every frame update with the
  per-pixel float formula records the same emission history, time for
  time and bit for bit, as the session's own tracker, and every
  luminance-governor decision sees the luminance that formula gives
  for the pixels on screen at that moment;
* a reference run in which ``content_version`` moves on every read
  (so both consumers re-price at every opportunity, as before the
  version existed) produces a byte-identical session summary.

Every registered governor runs over two catalog apps, plus the video
trace and the dark/light luminance probe, all with ``track_oled=True``
and on the engine ``run_batch`` would pick.
"""

import itertools
import json

import numpy as np
import pytest

from repro.experiments.tournament import probe_trace
from repro.governors.luminance import ContentLuminanceGovernor
from repro.graphics.framebuffer import Framebuffer
from repro.pipeline.builder import SessionBuilder
from repro.pipeline.eligibility import probe_vector_eligibility
from repro.power.oled import OledModel
from repro.sim.batch import summarize_result
from repro.sim.runner import SessionRunner
from repro.sim.session import GOVERNOR_CHOICES, SessionConfig
from repro.sim.tracing import StepSeries
from repro.sim.vector import VectorRunner
from repro.traces.format import save_trace
from repro.traces.synth import synthetic_trace

APPS = ("Facebook", "Jelly Splash")
DURATION_S = 2.0


def per_pixel_power_mw(model, pixels):
    """The per-pixel float decode the decode table replaced."""
    luminance = (pixels.astype(np.float64) / 255.0) ** model.gamma
    channel_mean = luminance.mean(axis=(0, 1))
    coeffs = np.asarray(model.full_channel_mw, dtype=np.float64)
    return float(model.base_mw + (coeffs * channel_mean).sum())


def per_pixel_luminance(model, pixels):
    """:meth:`ContentLuminanceGovernor.relative_luminance`, re-priced."""
    span = model.full_white_mw - model.full_black_mw
    fraction = (per_pixel_power_mw(model, pixels)
                - model.full_black_mw) / span
    return min(1.0, max(0.0, fraction))


class EveryUpdateTracker:
    """Prices every frame update from scratch (the oracle)."""

    def __init__(self, framebuffer):
        self.model = OledModel()
        self.history = StepSeries(
            "oracle_emission_mw",
            per_pixel_power_mw(self.model, framebuffer.pixels), 0.0)
        framebuffer.add_update_listener(self._on_frame_update)

    def _on_frame_update(self, time, framebuffer):
        self.history.set(time,
                         per_pixel_power_mw(self.model, framebuffer.pixels))


def run(config, oracle=False):
    """Run ``config`` on the engine ``run_batch(engine="auto")`` picks;
    optionally with an every-update oracle tracker attached."""
    builder = SessionBuilder(config)
    for stage in ("build_telemetry", "build_injector", "build_display",
                  "build_meter", "build_tracker"):
        getattr(builder, stage)()
    tracker = EveryUpdateTracker(builder.framebuffer) if oracle else None
    eligible = probe_vector_eligibility(config).eligible
    runner = (VectorRunner if eligible else SessionRunner)(builder)
    return runner.run(), tracker


def series_bytes(series):
    times, values = series.transitions
    return times.tobytes(), values.tobytes()


def session(app, governor):
    return SessionConfig(app=app, governor=governor,
                         duration_s=DURATION_S, seed=1,
                         resolution_divisor=8, track_oled=True)


@pytest.fixture(scope="module")
def trace_apps(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("oled-traces")
    apps = {"video": synthetic_trace("video", duration_s=DURATION_S,
                                     seed=1)}
    for label, dark in (("dark", True), ("light", False)):
        apps[label] = probe_trace(dark, duration_s=DURATION_S, seed=1)
    return {label: f"trace:{save_trace(trace, workdir / label)}"
            for label, trace in apps.items()}


CASES = ([(app, governor) for governor in GOVERNOR_CHOICES
          for app in APPS]
         + [("video", "luminance"), ("dark", "luminance"),
            ("light", "luminance")])


def test_cases_cover_every_governor():
    assert len(GOVERNOR_CHOICES) == 11
    assert {governor for _, governor in CASES} == set(GOVERNOR_CHOICES)


@pytest.mark.parametrize("app,governor", CASES)
def test_priced_once_matches_priced_every_update(app, governor,
                                                 trace_apps,
                                                 monkeypatch):
    decisions = []
    priced = ContentLuminanceGovernor.relative_luminance

    def checked(governor_self):
        value = priced(governor_self)
        decisions.append((value, per_pixel_luminance(
            governor_self.model, governor_self._framebuffer.pixels)))
        return value

    monkeypatch.setattr(ContentLuminanceGovernor, "relative_luminance",
                        checked)
    config = session(trace_apps.get(app, app), governor)
    result, oracle = run(config, oracle=True)
    assert series_bytes(result.oled_tracker.history) == series_bytes(
        oracle.history)
    assert bool(decisions) == (governor == "luminance")
    for seen, expected in decisions:
        assert np.float64(seen).tobytes() == np.float64(
            expected).tobytes()

    versions = itertools.count(1)
    monkeypatch.setattr(Framebuffer, "content_version",
                        property(lambda self: next(versions)))
    reference, _ = run(config)
    assert series_bytes(reference.oled_tracker.history) == series_bytes(
        oracle.history)
    assert (json.dumps(summarize_result(result), sort_keys=True)
            == json.dumps(summarize_result(reference), sort_keys=True))
