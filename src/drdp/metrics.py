"""Experiment metrics: per-reading distortion, budget sweeps, accumulated
bill error, and running convergence.

Sweep points are mutually independent runs — each budget value gets its own
derived seed so no noise is shared across points.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .billing import run_scenario
from .metering import Scenario, report_readings
from .noise import derive_seed, spawn_streams

__all__ = [
    "DEFAULT_EPSILON_SWEEP",
    "MetricSeries",
    "mae",
    "mae_sweep",
    "bill_error_series",
    "convergence_series",
]

DEFAULT_EPSILON_SWEEP = (0.01, 0.1, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class MetricSeries:
    """A named 1-D curve: (x, y) points with strictly increasing x."""

    label: str
    points: tuple[tuple[float, float], ...]
    x_unit: str = ""
    y_unit: str = ""

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"{self.label}: x values must be strictly increasing")

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.points)


def mae(protected: np.ndarray, original: np.ndarray) -> float:
    """Mean absolute difference between reported and true readings, in Wh."""
    protected = np.asarray(protected, dtype=float)
    original = np.asarray(original, dtype=float)
    if protected.shape != original.shape:
        raise ValueError(
            f"shape mismatch: {protected.shape} reported vs {original.shape} true"
        )
    if protected.size == 0:
        raise ValueError("cannot average zero readings")
    return float(np.mean(np.abs(protected - original)))


def _with_epsilon(scenario: Scenario, epsilon: float, run_key: int | None) -> Scenario:
    """Same scenario under a different budget, optionally on a derived seed."""
    seed = scenario.seed if run_key is None else derive_seed(scenario.seed, run_key)
    return replace(
        scenario,
        meter_params=replace(scenario.meter_params, epsilon=epsilon),
        grid_params=replace(scenario.grid_params, epsilon=epsilon),
        seed=seed,
    )


def _budgets(epsilons) -> list[float]:
    """The distinct budgets of a sweep, ascending; all must be positive."""
    values = sorted(set(float(e) for e in epsilons))
    if not values:
        raise ValueError("empty budget sweep")
    if values[0] <= 0:
        raise ValueError(f"budgets must be positive, got {values[0]}")
    return values


def mae_sweep(scenario: Scenario, epsilons=DEFAULT_EPSILON_SWEEP) -> MetricSeries:
    """Reported-value distortion across privacy budgets.

    Only the meter-side stage matters here, so the sweep perturbs readings
    without running billing.
    """
    values = _budgets(epsilons)
    points = []
    for run_key, epsilon in enumerate(values):
        run = _with_epsilon(scenario, epsilon, run_key)
        _, _, meter_rngs = spawn_streams(run.seed, run.n_meters)
        points.append((epsilon, mae(report_readings(run, meter_rngs), run.readings)))
    return MetricSeries("mae_vs_epsilon", tuple(points), x_unit="epsilon", y_unit="Wh")


def bill_error_series(scenario: Scenario, epsilons=DEFAULT_EPSILON_SWEEP) -> MetricSeries:
    """Relative error of the total regional bill across privacy budgets.

    Each point compares one independent noisy run against the zero-noise
    bill of the same scenario.
    """
    values = _budgets(epsilons)
    reference = run_scenario(scenario, noisy=False).total_bill_cents
    if reference == 0:
        raise ValueError("zero-noise total bill is zero; relative error is undefined")
    points = []
    for run_key, epsilon in enumerate(values):
        run = _with_epsilon(scenario, epsilon, run_key)
        total = run_scenario(run).total_bill_cents
        points.append((epsilon, abs(total - reference) / reference))
    return MetricSeries(
        "bill_error_vs_epsilon", tuple(points), x_unit="epsilon", y_unit="fraction"
    )


def convergence_series(
    scenario: Scenario,
    epsilon: float,
    meter: int = 0,
    *,
    noisy: bool = True,
) -> MetricSeries:
    """Running relative error of one home's accumulated bill, slot by slot.

    Point x = k is the relative gap between the noisy and zero-noise bills
    accumulated over the first k slots; slots where the reference bill is
    still zero contribute a zero error.
    """
    if not 0 <= meter < scenario.n_meters:
        raise ValueError(f"meter index {meter} outside 0..{scenario.n_meters - 1}")
    run = _with_epsilon(scenario, epsilon, None)
    observed = run_scenario(run, noisy=noisy)
    reference = run_scenario(scenario, noisy=False)
    cum_observed = np.cumsum(observed.bills_cents[meter])
    cum_reference = np.cumsum(reference.bills_cents[meter])
    safe = np.where(cum_reference > 0, cum_reference, 1.0)
    errors = np.where(
        cum_reference > 0, np.abs(cum_observed - cum_reference) / safe, 0.0
    )
    points = tuple(
        (float(slot + 1), float(errors[slot])) for slot in range(scenario.n_slots)
    )
    return MetricSeries(
        "bill_convergence", points, x_unit="slots", y_unit="fraction"
    )
