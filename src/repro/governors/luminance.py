"""SmartNight-style content-luminance governor (zoo extension).

SmartNight's observation: on an emissive (OLED) panel, both the cost
and the *perceptibility* of refreshing depend on what is displayed.
Dark content emits less light, and at low luminance the human flicker
threshold drops — dark frames tolerate lower refresh rates at equal
perceived quality.  This policy couples the paper's section-based
control to the per-pixel OLED emission model in
:mod:`repro.power.oled`: each decision prices the framebuffer's
current emission, normalizes it to a relative luminance in ``[0, 1]``
(0 = full black, 1 = full white), and steps the section-selected rate
down one or two panel levels when the screen is dark.

Emission and drive power are reported *jointly* by running sessions
with ``track_oled=True``: the session's
:class:`~repro.power.oled.OledEmissionTracker` adds the
content-dependent emission component to the same power report the
refresh-dependent drive components feed, which is how the tournament
shows dark content costing less than light content end to end.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.governor import GovernorPolicy
from ..errors import ConfigurationError
from ..graphics.framebuffer import Framebuffer
from ..power.oled import OledModel


class ContentLuminanceGovernor(GovernorPolicy):
    """Section control with luminance-conditional rate down-stepping.

    Parameters
    ----------
    inner:
        The content-rate policy supplying the base rate (the paper's
        section control in the registered configuration).
    framebuffer:
        The session framebuffer whose pixels are priced each decision.
    refresh_rates_hz:
        The panel's discrete levels (down-steps move along this list).
    model:
        OLED emission model used for pricing; defaults to the stock
        :class:`~repro.power.oled.OledModel` (the same defaults the
        session's emission tracker uses).
    dark_threshold:
        Relative luminance below which one level of down-stepping is
        tolerated (dim content).
    deep_dark_threshold:
        Relative luminance below which two levels are tolerated
        (near-black content).
    """

    name = "content-luminance"

    def __init__(self, inner: GovernorPolicy, framebuffer: Framebuffer,
                 refresh_rates_hz: Sequence[float],
                 model: Optional[OledModel] = None,
                 dark_threshold: float = 0.25,
                 deep_dark_threshold: float = 0.08) -> None:
        if not refresh_rates_hz:
            raise ConfigurationError(
                "luminance governor needs at least one refresh rate")
        if not 0.0 <= deep_dark_threshold <= dark_threshold <= 1.0:
            raise ConfigurationError(
                f"luminance thresholds need 0 <= deep_dark "
                f"({deep_dark_threshold}) <= dark ({dark_threshold}) "
                f"<= 1")
        self.inner = inner
        self.model = model or OledModel()
        self.dark_threshold = dark_threshold
        self.deep_dark_threshold = deep_dark_threshold
        self._framebuffer = framebuffer
        self._rates: Tuple[float, ...] = tuple(
            sorted(float(r) for r in refresh_rates_hz))
        self._last_luminance = 1.0
        self._priced_version: Optional[int] = None
        self._priced_luminance = 1.0

    # ------------------------------------------------------------------
    # Luminance probe
    # ------------------------------------------------------------------
    def relative_luminance(self) -> float:
        """Displayed emission as a fraction of full white, in [0, 1].

        Re-priced only when the framebuffer's ``content_version`` has
        moved since the last call.
        """
        version = self._framebuffer.content_version
        if version != self._priced_version:
            self._priced_luminance = self._price_luminance()
            self._priced_version = version
        return self._priced_luminance

    def _price_luminance(self) -> float:
        power = self.model.frame_power_mw(self._framebuffer.pixels)
        span = self.model.full_white_mw - self.model.full_black_mw
        if span <= 0:
            return 1.0
        fraction = (power - self.model.full_black_mw) / span
        return min(1.0, max(0.0, fraction))

    @property
    def last_luminance(self) -> float:
        """Relative luminance seen by the most recent decision."""
        return self._last_luminance

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _down_steps(self, luminance: float) -> int:
        if luminance < self.deep_dark_threshold:
            return 2
        if luminance < self.dark_threshold:
            return 1
        return 0

    def select_rate(self, now: float) -> float:
        rate = self.inner.select_rate(now)
        luminance = self.relative_luminance()
        self._last_luminance = luminance
        steps = self._down_steps(luminance)
        if steps == 0:
            return rate
        # Walk down the panel's level list from the section-selected
        # rate, clamped at the floor.
        index = 0
        for position, level in enumerate(self._rates):
            if level >= rate:
                index = position
                break
        else:
            index = len(self._rates) - 1
        return self._rates[max(0, index - steps)]

    def on_touch(self, time: float) -> Optional[float]:
        # Interaction outranks luminance: chain to the inner policy so
        # touch boosting (when composed) still fires at full rate.
        return self.inner.on_touch(time)
