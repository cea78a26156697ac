"""The layer map: which call sites the traced run wraps, per layer.

Layer names are the module names of the program (``sim.batch``,
``core.grid``, ...).  Each layer lists the public functions and methods
that callers use to enter it, plus the listener callbacks the
simulator dispatches into it (a frame-update listener is where the
framebuffer hands control to the meter, for instance).  ``experiments``
covers the entry points of the paper workloads, i.e. time spent
outside ``run_batch``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from tracer import Target

LAYERS: Tuple[str, ...] = (
    "sim.batch",
    "pipeline",
    "sim.engine",
    "apps",
    "graphics.renderers",
    "graphics.compositor",
    "graphics.framebuffer",
    "core.double_buffer",
    "core.grid",
    "core.content_rate",
    "core.governor",
    "display.panel",
    "power",
    "power.oled",
    "traces",
    "analysis.export",
    "cache",
    "experiments",
)

TABLE: Sequence[Tuple[str, Sequence[Target]]] = (
    ("experiments", (
        Target("repro.experiments.survey", ("run_survey_summaries",)),
        Target("repro.experiments.tournament",
               ("run_tournament", "_luminance_probe")),
        Target("repro.analysis.sweep", ("run_sweep",)),
    )),
    ("sim.batch", (
        Target("repro.sim.batch", ("run_batch", "_attempt")),
    )),
    ("pipeline", (
        Target("repro.sim.session", ("run_session",)),
        Target("repro.pipeline.builder:SessionBuilder",
               ("from_spec", "build_telemetry", "build_injector",
                "build_display", "build_meter", "build_tracker",
                "build_application", "build_logs", "build_governor",
                "build_input"), session=True),
        Target("repro.pipeline.spec:SessionSpec",
               ("from_config", "to_config", "digest")),
    )),
    ("sim.engine", (
        Target("repro.sim.runner:SessionRunner",
               ("start", "advance", "finish"), session=True),
        Target("repro.sim.engine:Simulator", ("run_until", "run")),
    )),
    ("traces", (
        Target("repro.traces.format", ("load_trace", "save_trace")),
        Target("repro.traces.synth", ("synthetic_trace",)),
        Target("repro.traces.source:TraceFrameSource",
               ("start", "on_vsync")),
    )),
    ("apps", (
        Target("repro.apps.base:Application",
               ("start", "on_vsync", "on_touch", "_fire_content"),
               subclasses=True),
    )),
    ("graphics.renderers", (
        Target("repro.graphics.renderers:Renderer", ("render",),
               subclasses=True),
    )),
    ("graphics.compositor", (
        Target("repro.graphics.compositor:SurfaceManager", ("post",)),
        Target("repro.graphics.compositor:SurfaceManager", ("on_vsync",),
               hook="compositor"),
    )),
    ("graphics.framebuffer", (
        Target("repro.graphics.framebuffer:Framebuffer",
               ("write", "write_unchanged", "snapshot")),
    )),
    ("core.double_buffer", (
        Target("repro.core.double_buffer:DoubleBuffer", ("capture",),
               hook="double_buffer"),
        Target("repro.core.double_buffer:SampledDoubleBuffer",
               ("capture",), hook="double_buffer"),
    )),
    ("core.grid", (
        Target("repro.core.grid:GridComparator",
               ("frames_equal", "count_changed"), hook="grid"),
        Target("repro.core.grid:GridSpec", ("sample",)),
    )),
    ("core.content_rate", (
        Target("repro.core.content_rate:ContentRateMeter",
               ("_on_frame_update", "content_rate", "frame_rate",
                "redundant_rate", "content_rates_batch")),
    )),
    ("core.governor", (
        Target("repro.core.governor:GovernorDriver",
               ("_decide", "notify_touch")),
        Target("repro.core.governor:GovernorPolicy",
               ("select_rate", "on_touch"), subclasses=True),
    )),
    ("display.panel", (
        Target("repro.display.panel:DisplayPanel",
               ("start", "set_refresh_rate", "fast_forward_vsyncs")),
        Target("repro.display.panel:DisplayPanel", ("stop",),
               hook="panel_stop"),
    )),
    ("power", (
        Target("repro.power.model:PowerModel",
               ("evaluate", "evaluate_window", "power_trace")),
    )),
    ("power.oled", (
        Target("repro.power.oled:OledModel", ("frame_power_mw",)),
    )),
    ("analysis.export", (
        Target("repro.sim.batch", ("_summarize",)),
        Target("repro.analysis.export", ("session_summary_dict",)),
    )),
    ("cache", (
        Target("repro.cache:ResultCache", ("key_for", "put")),
        Target("repro.cache:ResultCache", ("get",), hook="cache_get"),
    )),
)
