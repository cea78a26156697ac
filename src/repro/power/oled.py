"""OLED emission power: content-dependent panel draw (extension).

The paper's evaluation device is a Galaxy S3 — an AMOLED panel, whose
emission power depends on what is displayed (each sub-pixel emits its
own light; black is nearly free).  The paper factors this out by
reporting *differences* under the same content, but the related work it
cites (Chameleon, FOCUS, OLED DVS) lives entirely in this
content-dependence.  Since the simulation has real pixels, modelling
emission is natural and lets the benchmarks show that refresh-rate
control and content-colour techniques are *orthogonal* savings.

Model
-----
Per sub-pixel, emission power follows the standard display model: the
stored value is gamma-decoded to luminance, and each channel has its
own efficiency (blue OLED emitters are the least efficient):

    P_frame = base + area_scale * mean over pixels of
              sum_c k_c * (value_c / 255) ** gamma

Coefficients default to magnitudes consistent with published AMOLED
measurements for a 4.8-inch 2012-era panel: a full-white screen around
1.2 W of emission, full black near zero, with blue costing roughly twice
red.  As with the rest of the power substrate, absolute numbers are
calibration; shapes (white >> black, blue-heavy > red-heavy) are exact
properties of the model.

Pricing
-------
A stored value has only 256 possible codes, so each gamma's decode is a
256-entry table built once with the same float expression a per-pixel
decode would evaluate; a frame is priced by indexing that table.  The
tracker and the luminance governor re-price only when the framebuffer's
:attr:`~repro.graphics.framebuffer.Framebuffer.content_version` has
moved, because a frame update that provably repeats the displayed image
cannot change its emission.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sim.tracing import StepSeries
from ..units import ensure_non_negative, ensure_positive


@lru_cache(maxsize=None)
def _decode_table(gamma: float) -> np.ndarray:
    """Luminance of each of the 256 stored codes at ``gamma``.

    Each entry is bit-equal to ``(value / 255.0) ** gamma`` evaluated
    on a float64 frame, so a table lookup prices a frame exactly like
    the per-pixel decode.  Read-only: the array is shared.
    """
    table = (np.arange(256, dtype=np.float64) / 255.0) ** gamma
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class OledModel:
    """Content-dependent emission power model.

    Parameters
    ----------
    full_channel_mw:
        Emission power of the whole panel showing a full-intensity
        (255) frame of each pure channel, ``(red, green, blue)`` in mW.
    gamma:
        Display gamma used to decode stored values to luminance.
    base_mw:
        Emission floor (driver overhead) even on an all-black frame.
    """

    full_channel_mw: Tuple[float, float, float] = (280.0, 350.0, 550.0)
    gamma: float = 2.2
    base_mw: float = 15.0

    def __post_init__(self) -> None:
        if len(self.full_channel_mw) != 3:
            raise ConfigurationError(
                "full_channel_mw needs (red, green, blue)")
        for value in self.full_channel_mw:
            ensure_non_negative(value, "full_channel_mw entry")
        ensure_positive(self.gamma, "gamma")
        ensure_non_negative(self.base_mw, "base_mw")

    # ------------------------------------------------------------------
    # Frame pricing
    # ------------------------------------------------------------------
    def frame_power_mw(self, pixels: np.ndarray) -> float:
        """Emission power while ``pixels`` is on screen.

        ``pixels`` is any ``(h, w, 3)`` uint8 frame; resolution does
        not matter because the model works in mean per-pixel luminance
        (the panel's area is folded into the channel coefficients).
        Frames of any other dtype are rejected: the decode table covers
        exactly the 256 uint8 codes.
        """
        if pixels.ndim != 3 or pixels.shape[-1] != 3:
            raise ConfigurationError(
                f"expected an (h, w, 3) frame, got shape {pixels.shape}")
        if pixels.dtype != np.uint8:
            raise ConfigurationError(
                f"expected a uint8 frame, got dtype {pixels.dtype}")
        luminance = _decode_table(self.gamma)[pixels]
        channel_mean = luminance.mean(axis=(0, 1))
        coeffs = np.asarray(self.full_channel_mw, dtype=np.float64)
        return float(self.base_mw + (coeffs * channel_mean).sum())

    @property
    def full_white_mw(self) -> float:
        """Emission power of a full-white frame."""
        return self.base_mw + float(sum(self.full_channel_mw))

    @property
    def full_black_mw(self) -> float:
        """Emission power of a full-black frame (the floor)."""
        return self.base_mw


class OledEmissionTracker:
    """Records a session's emission power as a step series.

    Attach to a framebuffer like the content-rate meter: each frame
    update records the emission, which then holds until the next
    update (emission depends on what is *displayed*, not on the
    refresh rate — the displayed image persists between updates).
    An update re-prices the frame only when the framebuffer's
    ``content_version`` has moved; otherwise the last price is
    recorded again.
    """

    def __init__(self, framebuffer, model: OledModel = None,
                 start_time: float = 0.0) -> None:
        self.model = model or OledModel()
        self._framebuffer = framebuffer
        self._price_mw = self.model.frame_power_mw(framebuffer.pixels)
        self._priced_version = framebuffer.content_version
        self.history = StepSeries("oled_emission_mw", self._price_mw,
                                  start_time)
        self._evaluations = 0
        framebuffer.add_update_listener(self._on_frame_update)

    @property
    def evaluations(self) -> int:
        """Frame updates recorded so far (not all of them re-priced)."""
        return self._evaluations

    def _on_frame_update(self, time: float, framebuffer) -> None:
        self._evaluations += 1
        version = framebuffer.content_version
        if version != self._priced_version:
            self._price_mw = self.model.frame_power_mw(framebuffer.pixels)
            self._priced_version = version
        self.history.set(time, self._price_mw)

    def mean_emission_mw(self, start: float, end: float) -> float:
        """Time-weighted mean emission power over a window."""
        return self.history.mean(start, end)

    def energy_mj(self, start: float, end: float) -> float:
        """Emission energy over a window, in millijoules."""
        return self.history.integrate(start, end)

    def detach(self) -> None:
        """Stop observing the framebuffer."""
        self._framebuffer.remove_update_listener(self._on_frame_update)
