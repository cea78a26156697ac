"""Outside-in span tracer: wraps each layer's call sites from outside.

The program under test carries no benchmark hooks.  A traced run
instead replaces the functions and methods that form each layer's
boundary with thin wrappers that record one span per call: layer,
start, end, parent span and session id.  Spans live in flat in-memory
arrays while the run is in progress and are analysed (and written
out) once it ends.

Patching follows the names callers actually look up:

* a method is replaced on the class that defines it, so every bound
  method created afterwards (V-Sync and frame-update listeners are
  bound at session build time) goes through the wrapper;
* a module-level function is replaced on its module *and* under every
  other module global bound to the same object, which catches
  ``from .batch import run_batch``-style imports.

A target that does not resolve is skipped and reported; a layer none
of whose targets resolve is reported as absent.  ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Sentinel parent of a root span.
NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """One call site to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``.  With
    ``subclasses=True`` the methods are also wrapped on every loaded
    subclass that overrides them (governor and renderer policies).
    ``session`` marks methods of session-scoped objects (the builder,
    the runner): while one runs, spans carry that session's id.
    ``hook`` names a counter hook in :data:`HOOKS`.
    """

    owner: str
    names: Tuple[str, ...]
    subclasses: bool = False
    session: bool = False
    hook: Optional[str] = None


@dataclass
class Recorder:
    """Flat span storage plus the counters hooks fill in."""

    layers: Sequence[str]
    clock: Callable[[], float] = time.perf_counter
    layer: array = field(default_factory=lambda: array("H"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("l"))
    session: array = field(default_factory=lambda: array("l"))
    stack: List[int] = field(default_factory=lambda: [NO_PARENT])
    current_session: int = NO_PARENT
    counters: Dict[str, float] = field(default_factory=dict)
    latest: Dict[Tuple[str, int, int], float] = field(default_factory=dict)
    _session_ids: Any = field(default_factory=weakref.WeakKeyDictionary)
    _next_session: int = 0

    def layer_index(self, name: str) -> int:
        return list(self.layers).index(name)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def note_latest(self, name: str, owner: Any, value: float) -> None:
        """Remember the latest value of a per-object running total.

        Keyed by session and object identity, so one object reports
        once however many times it is observed; :meth:`totals` sums
        the final values.
        """
        self.latest[(name, self.current_session, id(owner))] = value

    def totals(self, name: str) -> float:
        return float(sum(value for (key, _, _), value in
                         self.latest.items() if key == name))

    def session_of(self, owner: Any) -> int:
        try:
            return self._session_ids[owner]
        except KeyError:
            sid = self._next_session
            self._next_session += 1
            self._session_ids[owner] = sid
            return sid
        except TypeError:  # not weak-referenceable
            return NO_PARENT

    def wrap(self, layer_id: int, fn: Callable,
             hook: Optional[Callable] = None,
             session_of: Optional[Callable[[Any], Any]] = None
             ) -> Callable:
        """``fn`` wrapped so each call records one span."""
        rec = self
        clock = self.clock
        layer_ids = self.layer
        starts = self.start
        ends = self.end
        parents = self.parent
        sessions = self.session
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = rec.current_session
            if session_of is not None and args:
                rec.current_session = rec.session_of(session_of(args[0]))
            index = len(starts)
            layer_ids.append(layer_id)
            parents.append(stack[-1])
            sessions.append(rec.current_session)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                rec.current_session = saved
            if hook is not None:
                hook(rec, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def span_arrays(self) -> Dict[str, np.ndarray]:
        kinds = {"H": "u", "d": "f", "l": "i"}

        def as_numpy(values: array, dtype: Any) -> np.ndarray:
            kind = f"{kinds[values.typecode]}{values.itemsize}"
            return np.frombuffer(values, dtype=kind).astype(dtype)

        return {
            "layer": as_numpy(self.layer, np.uint16),
            "start": as_numpy(self.start, np.float64),
            "end": as_numpy(self.end, np.float64),
            "parent": as_numpy(self.parent, np.int64),
            "session": as_numpy(self.session, np.int64),
        }


# ----------------------------------------------------------------------
# Counter hooks: run after the wrapped call, outside its span.
# ----------------------------------------------------------------------
def _hook_compositor(rec: Recorder, args, result) -> None:
    surface_manager = args[0]
    rec.count("compositor.on_vsync")
    rec.note_latest("compositions", surface_manager,
                    surface_manager.compositions)
    rec.note_latest("redundant", surface_manager,
                    surface_manager.redundant_compositions)


def _hook_panel_stop(rec: Recorder, args, result) -> None:
    panel = args[0]
    rec.note_latest("vsync_count", panel, panel.vsync_count)


def _hook_grid(rec: Recorder, args, result) -> None:
    rec.count("grid.samples", args[0].grid.sample_count)


def _hook_double_buffer(rec: Recorder, args, result) -> None:
    rec.note_latest("bytes_copied", args[0], args[0].bytes_copied)


def _hook_cache_get(rec: Recorder, args, result) -> None:
    rec.count("cache.hits" if result is not None else "cache.misses")


HOOKS: Dict[str, Callable] = {
    "compositor": _hook_compositor,
    "panel_stop": _hook_panel_stop,
    "grid": _hook_grid,
    "double_buffer": _hook_double_buffer,
    "cache_get": _hook_cache_get,
}


def _builder_of(obj: Any) -> Any:
    """The session identity of a builder or a runner."""
    return getattr(obj, "builder", obj)


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------
@dataclass
class Installation:
    """What :func:`install` patched, for reporting and undoing."""

    recorder: Recorder
    patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    wrapped: Dict[str, int] = field(default_factory=dict)

    def absent_layers(self) -> List[str]:
        return [name for name in self.recorder.layers
                if not self.wrapped.get(name)]


def _resolve_owner(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        return module
    return getattr(module, class_name)


def _all_subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


def rebind_globals(original: Any, replacement: Any,
                   patches: List[Tuple[Any, str, Any]],
                   prefixes: Sequence[str]) -> None:
    """Point every module global bound to ``original`` at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(tuple(prefixes)):
            continue
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                patches.append((module, name, value))
                setattr(module, name, replacement)


def install(recorder: Recorder,
            table: Sequence[Tuple[str, Sequence[Target]]],
            module_prefixes: Sequence[str] = ("repro",)) -> Installation:
    """Wrap every resolvable target of ``table`` (layer, targets)."""
    inst = Installation(recorder=recorder)
    done: set = set()
    # Explicit targets claim their methods before subclass sweeps, so
    # e.g. a trace replay's ``on_vsync`` stays in the traces layer.
    ordered = sorted(
        ((layer, target) for layer, targets in table
         for target in targets),
        key=lambda pair: pair[1].subclasses)
    for layer, target in ordered:
        layer_id = recorder.layer_index(layer)
        hook = HOOKS[target.hook] if target.hook else None
        try:
            owner = _resolve_owner(target.owner)
        except (ImportError, AttributeError):
            inst.missing.append(target.owner)
            continue
        owners = [owner]
        if target.subclasses and isinstance(owner, type):
            owners += _all_subclasses(owner)
        for name in target.names:
            found = False
            for cls in owners:
                if isinstance(cls, type):
                    raw = cls.__dict__.get(name)
                else:
                    raw = getattr(cls, name, None)
                if raw is None:
                    continue
                found = True
                if (id(cls), name) in done or \
                        hasattr(raw, "__perfbench_original__"):
                    continue
                done.add((id(cls), name))
                session_of = _builder_of if target.session else None
                if isinstance(raw, classmethod):
                    replacement: Any = classmethod(recorder.wrap(
                        layer_id, raw.__func__, hook))
                elif callable(raw):
                    replacement = recorder.wrap(layer_id, raw, hook,
                                                session_of)
                else:
                    continue
                inst.patches.append((cls, name, raw))
                setattr(cls, name, replacement)
                inst.wrapped[layer] = inst.wrapped.get(layer, 0) + 1
                if not isinstance(cls, type):
                    rebind_globals(raw, replacement, inst.patches,
                                   module_prefixes)
            if not found:
                inst.missing.append(f"{target.owner}.{name}")
    return inst


def uninstall(inst: Installation) -> None:
    """Undo every patch, newest first."""
    for owner, name, original in reversed(inst.patches):
        setattr(owner, name, original)
    inst.patches.clear()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerTimes:
    """Per-layer self time and calls of one traced run."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    covered_s: float
    unattributed_s: float
    residual_s: float
    negative_self_s: float


def self_times(spans: Dict[str, np.ndarray], layers: Sequence[str],
               wall_s: float) -> LayerTimes:
    """Self time per layer: each span's duration minus its children's.

    ``covered_s`` is the time inside root spans; the rest of
    ``wall_s`` is unattributed.  ``residual_s`` is how far the self
    times plus the unattributed time miss the wall time (float
    rounding only, when spans nest properly); ``negative_self_s`` sums
    any span whose children outlast it (zero when they nest).
    """
    layer = spans["layer"].astype(np.int64)
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child_time = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    own = duration - child_time
    per_layer = np.bincount(layer, weights=own, minlength=len(layers))
    calls = np.bincount(layer, minlength=len(layers))
    covered = float(duration[~has_parent].sum())
    unattributed = wall_s - covered
    residual = float(per_layer.sum()) + unattributed - wall_s
    return LayerTimes(
        self_s={name: float(per_layer[i]) for i, name in enumerate(layers)},
        calls={name: int(calls[i]) for i, name in enumerate(layers)},
        covered_s=covered,
        unattributed_s=unattributed,
        residual_s=residual,
        negative_self_s=float(own[own < 0].sum()),
    )
