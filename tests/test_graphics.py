"""Tests for the graphics stack: framebuffer, surfaces, compositor."""

import numpy as np
import pytest

from repro.errors import GraphicsError
from repro.graphics.compositor import SurfaceManager
from repro.graphics.framebuffer import Framebuffer
from repro.graphics.surface import Surface


@pytest.fixture
def fb():
    return Framebuffer(width=16, height=12)


class TestFramebuffer:
    def test_geometry(self, fb):
        assert fb.shape == (12, 16, 3)
        assert fb.pixel_count == 192

    def test_starts_black_generation_zero(self, fb):
        assert fb.generation == 0
        assert fb.pixels.sum() == 0

    def test_write_replaces_pixels_and_bumps_generation(self, fb):
        frame = np.full((12, 16, 3), 7, dtype=np.uint8)
        fb.write(frame, time=1.0)
        assert fb.generation == 1
        assert fb.last_update_time == 1.0
        assert (fb.pixels == 7).all()

    def test_write_copies_not_aliases(self, fb):
        frame = np.full((12, 16, 3), 7, dtype=np.uint8)
        fb.write(frame, time=1.0)
        frame[:] = 99
        assert (fb.pixels == 7).all()

    def test_write_wrong_shape_rejected(self, fb):
        with pytest.raises(GraphicsError):
            fb.write(np.zeros((12, 15, 3), dtype=np.uint8), 0.0)

    def test_write_wrong_dtype_rejected(self, fb):
        with pytest.raises(GraphicsError):
            fb.write(np.zeros((12, 16, 3), dtype=np.float32), 0.0)

    def test_update_listeners_fire(self, fb):
        seen = []
        fb.add_update_listener(lambda t, f: seen.append((t, f.generation)))
        fb.write(np.zeros((12, 16, 3), dtype=np.uint8), 2.0)
        assert seen == [(2.0, 1)]

    def test_remove_listener(self, fb):
        seen = []

        def listener(t, f):
            seen.append(t)

        fb.add_update_listener(listener)
        fb.remove_update_listener(listener)
        fb.write(np.zeros((12, 16, 3), dtype=np.uint8), 1.0)
        assert seen == []

    def test_remove_unknown_listener_rejected(self, fb):
        with pytest.raises(GraphicsError):
            fb.remove_update_listener(lambda t, f: None)

    def test_snapshot_is_independent(self, fb):
        snap = fb.snapshot()
        fb.write(np.full((12, 16, 3), 5, dtype=np.uint8), 1.0)
        assert snap.sum() == 0


class TestSurface:
    def test_damage_tracking(self):
        s = Surface(8, 8)
        assert not s.is_damaged
        s.mark_damaged()
        assert s.is_damaged
        s.acknowledge_post()
        assert not s.is_damaged

    def test_fill_marks_damaged(self):
        s = Surface(8, 8)
        s.fill((10, 20, 30))
        assert s.is_damaged
        assert (s.pixels[0, 0] == [10, 20, 30]).all()

    def test_rect(self):
        s = Surface(8, 4, x=2, y=3)
        assert s.rect == (3, 2, 7, 10)

    def test_check_fits(self):
        s = Surface(8, 4, x=2, y=3)
        s.check_fits(10, 7)  # exactly fits
        with pytest.raises(GraphicsError):
            s.check_fits(9, 7)

    def test_invalid_geometry_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            Surface(0, 8)
        with pytest.raises(ConfigurationError):
            Surface(8, 8, x=-1)


class TestSurfaceManager:
    def _make(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        surface = Surface(16, 12, name="app")
        sm.register_surface(surface)
        return fb, sm, surface

    def test_register_duplicate_name_rejected(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        sm.register_surface(Surface(16, 12, name="app"))
        with pytest.raises(GraphicsError):
            sm.register_surface(Surface(8, 8, name="app"))

    def test_register_oversized_surface_rejected(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        with pytest.raises(GraphicsError):
            sm.register_surface(Surface(17, 12))

    def test_post_unregistered_rejected(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        with pytest.raises(GraphicsError):
            sm.post(Surface(16, 12))

    def test_no_post_no_composition(self):
        fb, sm, _ = self._make()
        assert sm.on_vsync(1.0) is False
        assert fb.generation == 0
        assert sm.compositions == 0

    def test_post_then_vsync_composites(self):
        fb, sm, surface = self._make()
        surface.fill((1, 2, 3))
        sm.post(surface)
        assert sm.on_vsync(1.0) is True
        assert fb.generation == 1
        assert (fb.pixels == [1, 2, 3]).all()

    def test_vsync_throttle_collapses_multiple_posts(self):
        fb, sm, surface = self._make()
        surface.fill((1, 1, 1))
        sm.post(surface)
        surface.fill((2, 2, 2))
        sm.post(surface)
        sm.on_vsync(1.0)
        # One frame update, showing the latest content.
        assert fb.generation == 1
        assert (fb.pixels == 2).all()

    def test_redundant_frame_detection(self):
        fb, sm, surface = self._make()
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        sm.post(surface)  # unchanged pixels -> redundant frame
        sm.on_vsync(2.0)
        assert sm.compositions == 2
        assert sm.redundant_compositions == 1
        assert sm.meaningful_compositions == 1

    def test_composition_listener_reports_redundancy(self):
        fb, sm, surface = self._make()
        seen = []
        sm.add_composition_listener(lambda t, r: seen.append((t, r)))
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        sm.post(surface)
        sm.on_vsync(2.0)
        assert seen == [(1.0, False), (2.0, True)]

    def test_z_order_composition(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        bottom = Surface(16, 12, z_order=0, name="bottom")
        top = Surface(4, 4, x=0, y=0, z_order=1, name="top")
        sm.register_surface(top)
        sm.register_surface(bottom)
        bottom.fill((10, 10, 10))
        top.fill((200, 200, 200))
        sm.post(bottom)
        sm.post(top)
        sm.on_vsync(1.0)
        assert (fb.pixels[0, 0] == 200).all()   # overlay wins on top
        assert (fb.pixels[11, 15] == 10).all()  # bottom elsewhere

    def test_unregister_surface(self):
        fb, sm, surface = self._make()
        sm.unregister_surface(surface)
        assert sm.surfaces == []
        with pytest.raises(GraphicsError):
            sm.unregister_surface(surface)

    def test_post_acknowledged_on_composition(self):
        fb, sm, surface = self._make()
        surface.fill((9, 9, 9))
        sm.post(surface)
        assert surface.is_damaged
        sm.on_vsync(1.0)
        assert not surface.is_damaged


class TestContentVersion:
    """``Framebuffer.content_version`` moves on every write the
    compositor cannot prove identical, and on nothing else."""

    def _make(self, fast_path=False):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        if fast_path:
            sm.enable_coherence_fast_path()
        surface = Surface(16, 12, name="app")
        sm.register_surface(surface)
        return fb, sm, surface

    def test_write_advances_write_unchanged_keeps(self, fb):
        assert fb.content_version == 0
        fb.write(np.full(fb.shape, 3, dtype=np.uint8), 1.0)
        assert fb.content_version == 1
        fb.write_unchanged(2.0)
        assert fb.content_version == 1
        assert fb.generation == 2

    def test_identical_write_keeps_version_but_is_a_real_write(self, fb):
        seen = []
        fb.add_update_listener(lambda t, f: seen.append(t))
        fb.write(np.full(fb.shape, 3, dtype=np.uint8), 1.0, identical=True)
        assert fb.content_version == 0
        assert fb.generation == 1
        assert not fb.last_write_unchanged
        assert (fb.pixels == 3).all()
        assert seen == [1.0]

    def test_changing_composite_advances(self):
        fb, sm, surface = self._make()
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        assert fb.content_version == 1
        surface.fill((6, 6, 6))
        sm.post(surface)
        sm.on_vsync(2.0)
        assert fb.content_version == 2

    def test_redundant_composite_keeps(self):
        fb, sm, surface = self._make()
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        sm.post(surface)
        sm.on_vsync(2.0)
        assert sm.redundant_compositions == 1
        assert fb.generation == 2
        assert fb.content_version == 1
        assert not fb.last_write_unchanged  # the meter still compares

    def test_redundant_first_composite_on_fresh_framebuffer_keeps(self):
        fb, sm, surface = self._make()
        sm.post(surface)          # a black surface onto a black screen
        sm.on_vsync(1.0)
        assert sm.redundant_compositions == 1
        assert fb.content_version == 0

    def test_fast_path_composite_keeps(self):
        fb, sm, surface = self._make(fast_path=True)
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        sm.post(surface, content_changed=False)
        sm.on_vsync(2.0)
        assert fb.last_write_unchanged
        assert fb.content_version == 1
        sm.post(surface)          # full composite again, still redundant
        sm.on_vsync(3.0)
        assert fb.content_version == 1

    def test_direct_write_between_composites_voids_the_claim(self):
        fb, sm, surface = self._make()
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        fb.write(np.full(fb.shape, 9, dtype=np.uint8), 1.5)
        assert fb.content_version == 2
        sm.post(surface)          # redundant versus the last composite
        sm.on_vsync(2.0)
        assert sm.redundant_compositions == 1
        assert fb.content_version == 3
        assert (fb.pixels == 5).all()
        # Back in sync: the next redundant composite is proven again.
        sm.post(surface)
        sm.on_vsync(3.0)
        assert fb.content_version == 3

    def test_direct_write_voids_the_claim_across_the_fast_path(self):
        fb, sm, surface = self._make(fast_path=True)
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        fb.write(np.full(fb.shape, 9, dtype=np.uint8), 1.5)
        sm.post(surface, content_changed=False)
        sm.on_vsync(2.0)          # fast path: write_unchanged
        assert fb.content_version == 2
        sm.post(surface)
        sm.on_vsync(3.0)          # full composite restores the surface
        assert fb.content_version == 3
        assert (fb.pixels == 5).all()
