"""Surface Manager — the compositor (SurfaceFlinger's role).

Applications *post* their surfaces whenever they finish rendering; the
compositor latches pending posts at each V-Sync and writes one combined
frame into the framebuffer.  Two properties of the real pipeline that
the paper depends on fall out of this design:

* **V-Sync limits the frame rate to the refresh rate** — however many
  times an app posts between two V-Syncs, at most one frame update
  happens per V-Sync (Section 2.1).
* **Redundant frames reach the framebuffer** — posting an unchanged
  surface still produces a frame update with byte-identical content,
  which is exactly what the content-rate meter must detect and discount
  (Section 2.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..errors import GraphicsError
from .framebuffer import Framebuffer
from .surface import Surface

#: Callback fired after each composition: ``(time, frame_was_redundant)``.
CompositionListener = Callable[[float, bool], None]


class SurfaceManager:
    """Composites posted surfaces into the framebuffer at V-Sync."""

    def __init__(self, framebuffer: Framebuffer) -> None:
        self._framebuffer = framebuffer
        self._surfaces: List[Surface] = []
        self._pending: Dict[str, Surface] = {}
        self._scratch = np.zeros(framebuffer.shape, dtype=np.uint8)
        self._previous = np.zeros(framebuffer.shape, dtype=np.uint8)
        self._compositions = 0
        self._redundant_compositions = 0
        self._listeners: List[CompositionListener] = []
        # Frame-coherence fast path (opt-in, see
        # enable_coherence_fast_path): _coherent is True while
        # _previous provably equals the framebuffer contents *and* the
        # surface stack is unchanged since the last full composite.
        self._fast_path = False
        self._coherent = False
        self._pending_dirty = False
        # Framebuffer generation right after this compositor's last
        # write.  While the framebuffer still reports it, nothing else
        # wrote in between, so the framebuffer holds _previous.  A
        # never-written framebuffer (generation 0) holds the zeros
        # _previous starts with.
        self._written_generation = 0

    # ------------------------------------------------------------------
    # Surface lifecycle
    # ------------------------------------------------------------------
    def register_surface(self, surface: Surface) -> None:
        """Add a surface to the composition stack."""
        surface.check_fits(self._framebuffer.width, self._framebuffer.height)
        if any(s.name == surface.name for s in self._surfaces):
            raise GraphicsError(
                f"a surface named {surface.name!r} is already registered")
        self._surfaces.append(surface)
        self._surfaces.sort(key=lambda s: s.z_order)
        self._coherent = False

    def unregister_surface(self, surface: Surface) -> None:
        """Remove a surface from the stack."""
        try:
            self._surfaces.remove(surface)
        except ValueError:
            raise GraphicsError(
                f"surface {surface.name!r} is not registered") from None
        self._pending.pop(surface.name, None)
        self._coherent = False

    @property
    def surfaces(self) -> List[Surface]:
        """Registered surfaces in z-order (bottom first)."""
        return list(self._surfaces)

    # ------------------------------------------------------------------
    # Posting and composition
    # ------------------------------------------------------------------
    def post(self, surface: Surface,
             content_changed: bool = True) -> None:
        """Queue a surface for the next V-Sync composition.

        Posting the same surface twice in one V-Sync interval collapses
        to a single frame update — that is the V-Sync throttle.

        ``content_changed=False`` is the poster's declaration that the
        surface pixels are untouched since its last post (an idle
        repost — the paper's "redundant frame").  The declaration only
        feeds the opt-in coherence fast path, and is cross-checked
        against surface damage there; posters that cannot make it
        simply use the default.
        """
        if surface not in self._surfaces:
            raise GraphicsError(
                f"cannot post unregistered surface {surface.name!r}")
        self._pending[surface.name] = surface
        if content_changed:
            self._pending_dirty = True

    def enable_coherence_fast_path(self) -> None:
        """Opt in to skipping provably-redundant compositions.

        When every pending post declares ``content_changed=False``, no
        registered surface is damaged, and the previous full composite
        is still current, the composited frame is byte-identical to
        what the framebuffer already holds — so :meth:`on_vsync` skips
        the blit/compare/copy entirely and performs the same
        accounting.  Off by default: the scalar reference path keeps
        doing the full work so equivalence tests compare against an
        unmodified baseline.
        """
        self._fast_path = True

    @property
    def has_pending_posts(self) -> bool:
        """True if any surface is waiting for the next V-Sync."""
        return bool(self._pending)

    def on_vsync(self, time: float) -> bool:
        """Latch pending posts and composite; returns True if a frame
        update happened.

        With no pending posts the framebuffer is untouched — no frame
        update, no composition work, exactly like the real pipeline
        idling on a static screen.
        """
        if not self._pending:
            return False
        if (self._fast_path and self._coherent
                and not self._pending_dirty
                and not any(s.is_damaged for s in self._surfaces)):
            # Every pending post declared its pixels unchanged, no
            # surface mutated since the last full composite (damage
            # cross-check), and _previous still mirrors the
            # framebuffer: the blit would reproduce the previous frame
            # byte for byte.  Perform the identical accounting without
            # the pixel work.
            for surface in self._pending.values():
                surface.acknowledge_post()
            self._pending.clear()
            in_sync = self._in_sync()
            self._framebuffer.write_unchanged(time)
            if in_sync:
                self._written_generation = self._framebuffer.generation
            self._compositions += 1
            self._redundant_compositions += 1
            for listener in self._listeners:
                listener(time, True)
            return True
        for surface in self._pending.values():
            surface.acknowledge_post()
        self._pending.clear()
        self._pending_dirty = False

        self._scratch[:] = 0
        for surface in self._surfaces:
            y0, x0, y1, x1 = surface.rect
            self._scratch[y0:y1, x0:x1] = surface.pixels

        redundant = bool(np.array_equal(self._scratch, self._previous))
        # A redundant frame is identical to what the framebuffer shows
        # only if nothing else wrote it since our last write.
        identical = redundant and self._in_sync()
        np.copyto(self._previous, self._scratch)
        self._framebuffer.write(self._scratch, time, identical=identical)
        self._written_generation = self._framebuffer.generation
        self._coherent = True

        self._compositions += 1
        if redundant:
            self._redundant_compositions += 1
        for listener in self._listeners:
            listener(time, redundant)
        return True

    def _in_sync(self) -> bool:
        """True while the framebuffer provably holds ``_previous``."""
        return self._framebuffer.generation == self._written_generation

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def compositions(self) -> int:
        """Total frame updates performed."""
        return self._compositions

    @property
    def redundant_compositions(self) -> int:
        """Frame updates whose pixels matched the previous frame exactly.

        This is ground truth (full-buffer comparison) used to validate
        the grid-based meter; the meter itself never sees this.
        """
        return self._redundant_compositions

    @property
    def meaningful_compositions(self) -> int:
        """Frame updates that changed at least one pixel (ground truth)."""
        return self._compositions - self._redundant_compositions

    def add_composition_listener(self,
                                 listener: CompositionListener) -> None:
        """Register a callback fired after every composition."""
        self._listeners.append(listener)
