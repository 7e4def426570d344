"""Empirical carrier-cost calibration.

A handler's carrier cost is a dimensionless position of measured
covert-transfer durations between two thresholds: a lower bound no
covert channel can beat (direct transfer of the same payload) and an
upper bound past which the channel is considered unusable.  Costs are
computed with exact rational arithmetic and converted to float once at
the end, so equal inputs always produce bit-identical results.

Two formula variants are provided.  ``cost_constant`` shares one
threshold pair across all measurements; ``cost_variable`` carries a
pair per measurement, which is what a calibration sweep over different
bandwidth levels produces.  With uniform thresholds the two agree
exactly, floats included.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


class BadThresholds(ValueError):
    """Threshold pair empty, mismatched, or not strictly increasing."""


class OutOfRangeWarning(UserWarning):
    """A measurement fell outside its threshold window.

    The value still enters the formula unclamped; the resulting cost
    may leave [0, 1], which callers are expected to treat as a
    calibration-setup problem rather than silently mask.
    """


def _check_pair(low, high) -> None:
    if not high > low:
        raise BadThresholds("thresholds must satisfy max > min, got min=%r max=%r" % (low, high))


def _warn_out_of_range(index: int, value, low, high) -> None:
    if value < low or value > high:
        warnings.warn(
            "measurement %d (%r) outside threshold window [%r, %r]" % (index, value, low, high),
            OutOfRangeWarning,
            stacklevel=3,
        )


def cost_constant(times: Sequence[float], min_threshold: float, max_threshold: float) -> float:
    """Mean position of ``times`` within one shared threshold window."""
    if not times:
        raise BadThresholds("at least one measurement is required")
    _check_pair(min_threshold, max_threshold)
    low = Fraction(min_threshold)
    span = Fraction(max_threshold) - low
    total = Fraction(0)
    for i, t in enumerate(times):
        _warn_out_of_range(i, t, min_threshold, max_threshold)
        total += Fraction(t) - low
    return float(total / (len(times) * span))


def cost_variable(times: Sequence[float], thresholds: Sequence[Tuple[float, float]]) -> float:
    """Mean position of each ``times[i]`` within its own window."""
    if not times:
        raise BadThresholds("at least one measurement is required")
    if len(times) != len(thresholds):
        raise BadThresholds("%d measurements but %d threshold pairs" % (len(times), len(thresholds)))
    acc = Fraction(0)
    for i, (t, (low, high)) in enumerate(zip(times, thresholds)):
        _check_pair(low, high)
        _warn_out_of_range(i, t, low, high)
        acc += (Fraction(t) - Fraction(low)) / (Fraction(high) - Fraction(low))
    return float(acc / len(times))


# ---------------------------------------------------------------------------
# Calibration sweeps


@dataclass(frozen=True)
class RunSpec:
    """One simulator run requested by the calibration sweep.

    ``mode`` selects what the run measures: "baseline" transfers the
    payload directly (lower threshold), "target" uses only the handler
    under calibration, "augmented" additionally lets carriers divert to
    the sequence-number channel, which strictly adds overhead (upper
    threshold).
    """

    session: int
    bandwidth: int
    visible_users: int
    mode: str
    handler_id: int
    payload_octets: int
    seed: int
    augment_probability: float = 0.0


@dataclass(frozen=True)
class CalibrationPlan:
    sessions: int = 6
    bandwidth_levels: Tuple[int, ...] = (
        4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000, 36000, 40000,
    )
    visible_users: int = 3
    payload_octets: int = 4000
    # Throughput below this is unusable no matter what the augmented
    # run measured; keeps the upper threshold off the floor when the
    # augmented overhead happens to be mild.
    floor_bandwidth: int = 250
    augment_probability: float = 0.25

    @property
    def run_count(self) -> int:
        return self.sessions * len(self.bandwidth_levels)


@dataclass
class CalibrationResult:
    handler_id: int
    cost: float
    times: List[float] = field(default_factory=list)
    thresholds: List[Tuple[float, float]] = field(default_factory=list)
    specs: List[RunSpec] = field(default_factory=list)

    @property
    def run_count(self) -> int:
        return len(self.times)


Runner = Callable[[RunSpec], float]


def calibrate_handler(
    runner: Runner,
    handler_id: int,
    plan: Optional[CalibrationPlan] = None,
    seed: int = 0,
) -> CalibrationResult:
    """Sweep sessions x bandwidth levels and place the handler's cost.

    Per run, the lower threshold is the measured direct-transfer
    duration and the upper threshold is the slower of the augmented-run
    duration and the floor-bandwidth bound, so every measurement gets a
    window grounded in the same simulated conditions it ran under.
    """
    plan = plan or CalibrationPlan()
    result = CalibrationResult(handler_id=handler_id, cost=0.0)
    ceiling = Fraction(plan.payload_octets, plan.floor_bandwidth)
    for session in range(plan.sessions):
        for level, bandwidth in enumerate(plan.bandwidth_levels):
            run_seed = seed * 1_000_003 + session * 101 + level
            common = dict(
                session=session,
                bandwidth=bandwidth,
                visible_users=plan.visible_users,
                handler_id=handler_id,
                payload_octets=plan.payload_octets,
                seed=run_seed,
            )
            spec = RunSpec(mode="target", **common)
            base = runner(RunSpec(mode="baseline", **common))
            worst = runner(
                RunSpec(mode="augmented", augment_probability=plan.augment_probability, **common)
            )
            t = runner(spec)
            high = max(Fraction(worst), ceiling)
            result.specs.append(spec)
            result.times.append(t)
            result.thresholds.append((base, float(high)))
    result.cost = cost_variable(result.times, result.thresholds)
    return result
