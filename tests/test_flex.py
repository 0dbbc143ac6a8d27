import numpy as np
import pytest

from gridmarg.errors import InfeasibleWindow
from gridmarg.flex import FlexWindow, check_window_feasible, cumulative_bounds
from gridmarg.lp import LpBuilder, SolveStatus, solve


def test_cumulative_bounds_no_flex_pins_baseline():
    baseline = np.array([3.0, 0.0, 5.0, 2.0])
    floor, ceiling = cumulative_bounds(baseline, FlexWindow(0, 0))
    np.testing.assert_array_equal(floor, np.cumsum(baseline))
    np.testing.assert_array_equal(ceiling, np.cumsum(baseline))


def test_cumulative_bounds_delay_only():
    baseline = np.array([4.0, 1.0, 0.0, 2.0, 0.0])
    floor, ceiling = cumulative_bounds(baseline, FlexWindow(0, 2))
    # Ceiling: nothing may be served before it is requested.
    np.testing.assert_array_equal(ceiling, [4, 5, 5, 7, 7])
    # Floor: everything requested by t-2 must be done by t (clamped at the start).
    np.testing.assert_array_equal(floor, [0, 0, 4, 5, 5])


def test_cumulative_bounds_window_clamps_at_horizon():
    baseline = np.array([0.0, 6.0, 0.0, 3.0])
    floor, ceiling = cumulative_bounds(baseline, FlexWindow(advance=2, delay=1))
    np.testing.assert_array_equal(ceiling, [6, 9, 9, 9])  # t + 2 clamped to H-1
    np.testing.assert_array_equal(floor, [0, 0, 6, 6])


def test_rate_too_small_for_rigid_pulse():
    with pytest.raises(InfeasibleWindow, match="max charge rate"):
        check_window_feasible(np.array([0.0, 10.0]), FlexWindow(0, 0), 5.0, "ev")


def test_one_hour_of_delay_rescues_the_pulse():
    check_window_feasible(np.array([10.0, 0.0]), FlexWindow(0, 1), 5.0, "ev")
    with pytest.raises(InfeasibleWindow):
        check_window_feasible(np.array([10.0, 0.0]), FlexWindow(0, 0), 5.0, "ev")


def _window_lp_feasible(baseline, window, rate) -> bool:
    """Direct LP over the window polytope; independent of the analytic check."""
    horizon = len(baseline)
    b = LpBuilder()
    served = b.add_vars(horizon, ub=rate)
    floor, ceiling = cumulative_bounds(baseline, window)
    total = float(np.sum(baseline))
    for t in range(horizon):
        idx = [int(v) for v in served[: t + 1]]
        ones = [1.0] * (t + 1)
        b.add_le(idx, ones, float(ceiling[t]))
        b.add_le(idx, [-1.0] * (t + 1), -float(floor[t]))
    b.add_eq([int(v) for v in served], [1.0] * horizon, total)
    return solve(b.build()).status is SolveStatus.OPTIMAL


@pytest.mark.parametrize("seed", range(6))
def test_feasibility_check_agrees_with_lp(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        horizon = int(rng.integers(2, 12))
        baseline = np.round(rng.uniform(0, 8, horizon) * (rng.random(horizon) < 0.6), 3)
        window = FlexWindow(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        rate = float(np.round(rng.uniform(0.5, 9.0), 3))
        try:
            bounds = check_window_feasible(baseline, window, rate, "rnd")
            analytic = True
        except InfeasibleWindow:
            analytic = False
        else:
            # The check returns the window's bounds, the final floor not lifted.
            for got, want in zip(bounds, cumulative_bounds(baseline, window), strict=True):
                np.testing.assert_array_equal(got, want)
        assert analytic == _window_lp_feasible(baseline, window, rate), (
            baseline, window, rate)
