"""Tests for the OLED emission model and tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.graphics.framebuffer import Framebuffer
from repro.power.oled import OledEmissionTracker, OledModel, _decode_table

GAMMAS = (1.0, 1.8, 2.2, 2.4)


def frame(value, shape=(12, 10, 3)):
    return np.full(shape, value, dtype=np.uint8)


def per_pixel_power_mw(model, pixels):
    """The per-pixel float decode the table replaced (test oracle)."""
    luminance = (pixels.astype(np.float64) / 255.0) ** model.gamma
    channel_mean = luminance.mean(axis=(0, 1))
    coeffs = np.asarray(model.full_channel_mw, dtype=np.float64)
    return float(model.base_mw + (coeffs * channel_mean).sum())


def bits(value):
    return np.float64(value).tobytes()


class CountingModel:
    """An OledModel stand-in that counts frame pricings."""

    def __init__(self):
        self.model = OledModel()
        self.pricings = 0

    def frame_power_mw(self, pixels):
        self.pricings += 1
        return self.model.frame_power_mw(pixels)


class TestOledModel:
    def test_black_is_the_floor(self):
        model = OledModel()
        assert model.frame_power_mw(frame(0)) == pytest.approx(
            model.full_black_mw)

    def test_white_is_the_ceiling(self):
        model = OledModel()
        assert model.frame_power_mw(frame(255)) == pytest.approx(
            model.full_white_mw)

    def test_power_monotone_in_brightness(self):
        model = OledModel()
        powers = [model.frame_power_mw(frame(v))
                  for v in (0, 64, 128, 192, 255)]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_blue_costs_more_than_red(self):
        model = OledModel()
        red = frame(0)
        red[:, :, 0] = 255
        blue = frame(0)
        blue[:, :, 2] = 255
        assert model.frame_power_mw(blue) > model.frame_power_mw(red)

    def test_gamma_makes_midtones_cheap(self):
        # At gamma 2.2, a 50 % grey emits ~22 % of full luminance.
        model = OledModel()
        mid = model.frame_power_mw(frame(128)) - model.full_black_mw
        full = model.full_white_mw - model.full_black_mw
        assert 0.15 < mid / full < 0.3

    def test_resolution_independent(self):
        model = OledModel()
        small = model.frame_power_mw(frame(200, shape=(8, 8, 3)))
        large = model.frame_power_mw(frame(200, shape=(64, 64, 3)))
        assert small == pytest.approx(large)

    def test_half_white_half_black_is_half_power(self):
        model = OledModel(base_mw=0.0)
        half = frame(0)
        half[:6] = 255
        assert model.frame_power_mw(half) == pytest.approx(
            model.full_white_mw / 2.0)

    def test_invalid_frame_rejected(self):
        model = OledModel()
        with pytest.raises(ConfigurationError):
            model.frame_power_mw(np.zeros((10, 10), dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint16,
                                       np.int8, np.int64, np.bool_])
    def test_non_uint8_frame_rejected(self, dtype):
        model = OledModel()
        with pytest.raises(ConfigurationError, match=np.dtype(dtype).name):
            model.frame_power_mw(np.zeros((4, 4, 3), dtype=dtype))

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ConfigurationError):
            OledModel(full_channel_mw=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            OledModel(gamma=0.0)


class TestDecodeTable:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_table_bit_equal_to_elementwise_formula(self, gamma):
        table = _decode_table(gamma)
        assert table.shape == (256,) and table.dtype == np.float64
        for code in range(256):
            expected = (np.array([code], dtype=np.uint8)
                        .astype(np.float64) / 255.0) ** gamma
            assert bits(table[code]) == bits(expected[0]), code

    def test_table_is_shared_and_read_only(self):
        assert _decode_table(2.2) is _decode_table(2.2)
        with pytest.raises(ValueError):
            _decode_table(2.2)[0] = 1.0

    @settings(deadline=None, max_examples=150)
    @given(pixels=arrays(np.uint8,
                         st.tuples(st.integers(1, 40), st.integers(1, 40),
                                   st.just(3))),
           gamma=st.sampled_from(GAMMAS),
           channels=st.tuples(*[st.floats(0.0, 2000.0)] * 3),
           base=st.floats(0.0, 100.0))
    def test_frame_power_bit_equal_to_per_pixel_decode(
            self, pixels, gamma, channels, base):
        model = OledModel(full_channel_mw=channels, gamma=gamma,
                          base_mw=base)
        assert bits(model.frame_power_mw(pixels)) == bits(
            per_pixel_power_mw(model, pixels))


class TestOledEmissionTracker:
    def test_tracks_frame_updates(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        assert tracker.history.current == pytest.approx(
            tracker.model.full_black_mw)
        fb.write(frame(255, fb.shape), 1.0)
        assert tracker.history.current == pytest.approx(
            tracker.model.full_white_mw)
        assert tracker.evaluations == 1

    def test_emission_holds_between_updates(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        fb.write(frame(255, fb.shape), 1.0)
        # Energy over [0, 3]: 1 s black + 2 s white.
        expected = (tracker.model.full_black_mw * 1.0 +
                    tracker.model.full_white_mw * 2.0)
        assert tracker.energy_mj(0.0, 3.0) == pytest.approx(expected)

    def test_mean_emission(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        fb.write(frame(255, fb.shape), 1.0)
        assert tracker.mean_emission_mw(1.0, 2.0) == pytest.approx(
            tracker.model.full_white_mw)

    def test_reprices_only_when_content_version_moves(self):
        fb = Framebuffer(10, 12)
        model = CountingModel()
        tracker = OledEmissionTracker(fb, model)
        assert model.pricings == 1          # the initial frame
        fb.write_unchanged(1.0)
        fb.write(fb.snapshot(), 2.0, identical=True)
        assert model.pricings == 1
        fb.write(frame(255, fb.shape), 3.0)
        assert model.pricings == 2
        fb.write(frame(255, fb.shape), 4.0)  # same bytes, unproven
        assert model.pricings == 3
        # Every update is still recorded and counted.
        assert tracker.evaluations == 4
        times, values = tracker.history.transitions
        black, white = (model.model.full_black_mw,
                        model.model.full_white_mw)
        assert times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert values.tolist() == pytest.approx([black, black, black, white, white])

    def test_detach(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        tracker.detach()
        fb.write(frame(255, fb.shape), 1.0)
        assert tracker.evaluations == 0


class TestSessionIntegration:
    def test_emission_component_in_power_report(self):
        import repro
        result = repro.run_session(repro.SessionConfig(
            app="Facebook", governor="section+boost", duration_s=8.0,
            seed=1, track_oled=True))
        components = result.power_report().component_power_mw()
        assert components["emission"] > 0.0

    def test_emission_absent_without_tracking(self):
        import repro
        result = repro.run_session(repro.SessionConfig(
            app="Facebook", governor="section+boost", duration_s=8.0,
            seed=1))
        components = result.power_report().component_power_mw()
        assert components["emission"] == 0.0
        assert result.oled_tracker is None

    def test_refresh_control_does_not_change_emission(self):
        """Orthogonality: emission depends on displayed content, not
        the refresh rate — governed and fixed runs of the same workload
        emit (nearly) the same."""
        import repro
        fixed = repro.run_session(repro.SessionConfig(
            app="Cash Slide", governor="fixed", duration_s=20.0,
            seed=4, track_oled=True))
        governed = repro.run_session(repro.SessionConfig(
            app="Cash Slide", governor="section+boost", duration_s=20.0,
            seed=4, track_oled=True))
        e_fixed = fixed.oled_tracker.mean_emission_mw(0.0, 20.0)
        e_governed = governed.oled_tracker.mean_emission_mw(0.0, 20.0)
        assert e_governed == pytest.approx(e_fixed, rel=0.15)
