"""Charging-window arithmetic for flexible (EV) loads.

Energy requested at hour t may be served anywhere in
[t - advance, t + delay]. Expressed cumulatively: served-through-t must stay
between the baseline served-through-(t - delay) floor and the
served-through-(t + advance) ceiling, with indices clamped at the horizon
edges (no wrap across the boundary), plus total-energy conservation and a
per-hour charge-rate cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InfeasibleWindow


class ScheduleSource(Enum):
    COST_MIN = "cost_min"
    MIN_SRME1 = "min_srme1"
    MIN_SRME2 = "min_srme2"
    FIXED = "fixed"


@dataclass(frozen=True)
class FlexWindow:
    advance: int
    delay: int

    def __post_init__(self):
        if self.advance < 0 or self.delay < 0:
            raise ValueError("window hours must be nonnegative")

    @property
    def is_rigid(self) -> bool:
        return self.advance == 0 and self.delay == 0


def cumulative_bounds(baseline: np.ndarray, window: FlexWindow) -> tuple[np.ndarray, np.ndarray]:
    """Per-hour [floor, ceiling] on cumulative served energy.

    floor[t]   = baseline served through t - delay  (0 before the horizon start)
    ceiling[t] = baseline served through min(t + advance, H-1)
    """
    horizon = len(baseline)
    cum = np.cumsum(baseline)
    floor = np.zeros(horizon)
    floor[window.delay:] = cum[:max(horizon - window.delay, 0)]
    ceiling = np.full(horizon, cum[-1] if horizon else 0.0)
    ceiling[:max(horizon - window.advance, 0)] = cum[window.advance:]
    return floor, ceiling


def check_window_feasible(baseline: np.ndarray, window: FlexWindow, max_rate: float,
                          load_id: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Raise InfeasibleWindow when the rate cap cannot clear the cumulative floor.

    The window polytope {0 <= s_t <= r, floor_t <= cumsum(s)_t <= ceiling_t,
    sum(s) = E} is nonempty iff for every pair t1 < t2 the floor at t2 is
    reachable from the ceiling at t1 at full rate:
    floor[t2] - ceiling[t1] <= r * (t2 - t1), with ceiling[-1] = 0 and the
    final floor lifted to E by conservation. Checked in O(H) via a running
    minimum of ceiling[t] - r*t.

    Returns cumulative_bounds(baseline, window), the final floor not lifted.
    """
    floor, ceiling = cumulative_bounds(baseline, window)
    horizon = len(baseline)
    if horizon == 0:
        return floor, ceiling
    if max_rate < 0:
        raise InfeasibleWindow(f"flexible_load {load_id}: negative max charge rate")
    total = float(np.sum(baseline))
    need = np.append(floor[:-1], total)
    tol = 1e-9 * max(1.0, total)
    ramp = max_rate * np.arange(horizon)
    # running_min[t] = min over t1 < t of ceiling[t1] - r*t1; the t1 = -1 term
    # (ceiling 0 at the slot before the horizon) is r.
    running_min = np.minimum.accumulate(np.concatenate(([max_rate], ceiling[:-1] - ramp[:-1])))
    short = need - ramp > running_min + tol
    if short.any():
        t = int(np.argmax(short))
        raise InfeasibleWindow(
            f"flexible_load {load_id}: max charge rate {max_rate:g} MW cannot meet the "
            f"cumulative floor of {need[t]:g} MWh by hour {t} "
            f"(window advance={window.advance}, delay={window.delay})")
    return floor, ceiling


@dataclass(frozen=True)
class ChargingSchedule:
    """A served-charging outcome: zone x hour aggregate plus per-load profiles (MW)."""

    served: np.ndarray                    # (num zones, H)
    per_load: dict[str, np.ndarray]       # load id -> H profile
    source: ScheduleSource
    zone_ids: tuple[str, ...]
