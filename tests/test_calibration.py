"""Carrier-cost formulas and the calibration sweep driver."""

import random
from fractions import Fraction

import pytest

from stegnet.calibration import (
    FLOOR_BANDWIDTH,
    BadThresholds,
    CalibrationPlan,
    OutOfRangeWarning,
    RunSpec,
    calibrate_handler,
    cost_constant,
    cost_variable,
)


def test_midpoint_fixture_exact():
    assert cost_constant([12, 14, 16, 18], 10, 20) == 0.5


def test_lower_quartile_fixture_exact():
    assert cost_constant([12.5, 15.0], 10, 20) == 0.375


def test_limits_exact():
    assert cost_constant([10, 10, 10], 10, 20) == 0.0
    assert abs(cost_constant([20, 20, 20], 10, 20) - 1.0) < 1e-12
    assert abs(cost_variable([20, 20], [(10, 20), (10, 20)]) - 1.0) < 1e-12


def test_variable_reduces_to_constant_under_uniform_thresholds():
    rng = random.Random(77)
    for _ in range(50):
        low = rng.uniform(0.1, 5.0)
        high = low + rng.uniform(0.5, 10.0)
        times = [rng.uniform(low, high) for _ in range(rng.randint(1, 12))]
        uniform = [(low, high)] * len(times)
        assert cost_variable(times, uniform) == cost_constant(times, low, high)


def test_rational_arithmetic_is_deterministic():
    times = [0.1, 0.2, 0.30000000000000004, 0.7]
    a = cost_constant(times, 0.1, 0.9)
    b = cost_constant(list(times), 0.1, 0.9)
    assert a == b
    # independently: mean of (t - low) / span with exact rationals
    low, span = Fraction(0.1), Fraction(0.9) - Fraction(0.1)
    expect = float(sum((Fraction(t) - low) / span for t in times) / len(times))
    assert a == expect


def test_out_of_range_measurements_warn_but_still_count():
    with pytest.warns(OutOfRangeWarning):
        c = cost_constant([25.0], 10, 20)
    assert c == 1.5
    with pytest.warns(OutOfRangeWarning):
        c = cost_variable([5.0], [(10.0, 20.0)])
    assert c == -0.5


@pytest.mark.parametrize("cost", [lambda: cost_constant([25.0], 10, 20),
                                  lambda: cost_variable([25.0], [(10, 20)])], ids=["constant", "variable"])
def test_out_of_range_warning_names_the_caller(cost):
    with pytest.warns(OutOfRangeWarning) as caught:
        cost()
    assert [w.filename for w in caught] == [__file__]


def test_threshold_validation():
    with pytest.raises(BadThresholds):
        cost_constant([1.0], 5.0, 5.0)
    with pytest.raises(BadThresholds):
        cost_constant([1.0], 5.0, 4.0)
    with pytest.raises(BadThresholds):
        cost_constant([], 0.0, 1.0)
    with pytest.raises(BadThresholds):
        cost_variable([1.0, 2.0], [(0.0, 3.0)])
    with pytest.raises(BadThresholds):
        cost_variable([], [])


def _synthetic_runner(calls=None):
    """Deterministic pseudo-simulator: slower with covert traffic on,
    slower still when the augmented channel is active."""

    def run(spec: RunSpec) -> float:
        if calls is not None:
            calls.append(spec.mode)
        base = spec.payload_octets / spec.bandwidth
        jitter = random.Random(spec.seed).uniform(0.0, 0.05) * base
        if spec.mode == "baseline":
            return base
        if spec.mode == "augmented":
            return base * 2.0 + jitter
        return base * 1.2 + jitter

    return run


def test_calibrate_handler_sweeps_and_stays_in_range():
    plan = CalibrationPlan(sessions=2, bandwidth_levels=(2000, 4000, 8000))
    calls = []
    result = calibrate_handler(_synthetic_runner(calls), handler_id=1, plan=plan, seed=9)
    assert result.handler_id == 1
    assert result.run_count == plan.run_count == 6
    assert calls.count("baseline") == 6
    assert calls.count("augmented") == 6
    assert calls.count("target") == 6
    assert 0.0 <= result.cost < 1.0
    assert all(s.mode == "target" for s in result.specs)
    # every window is grounded: lower bound is that run's own baseline
    for t, (low, high) in zip(result.times, result.thresholds):
        assert low < t < high


def test_calibrate_handler_upper_threshold_never_below_floor():
    plan = CalibrationPlan(sessions=1, bandwidth_levels=(4000,))
    result = calibrate_handler(_synthetic_runner(), handler_id=2, plan=plan, seed=0)
    ceiling = plan.payload_octets / FLOOR_BANDWIDTH
    assert all(high >= ceiling for _, high in result.thresholds)


def test_calibrate_handler_deterministic():
    plan = CalibrationPlan(sessions=2, bandwidth_levels=(2000, 6000))
    a = calibrate_handler(_synthetic_runner(), handler_id=4, plan=plan, seed=5)
    b = calibrate_handler(_synthetic_runner(), handler_id=4, plan=plan, seed=5)
    assert a.cost == b.cost
    assert a.times == b.times
    assert a.thresholds == b.thresholds
    c = calibrate_handler(_synthetic_runner(), handler_id=4, plan=plan, seed=6)
    assert c.times != a.times
