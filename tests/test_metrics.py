"""Distortion and billing metrics across privacy budgets."""
import numpy as np
import pytest

from drdp import (
    DEFAULT_EPSILON_SWEEP,
    MetricSeries,
    bill_error_series,
    convergence_series,
    mae,
    mae_sweep,
)
from helpers import matrix_scenario, synth_scenario


def test_mae_hand_value():
    assert mae([[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]]) == 1.5


def test_mae_is_symmetric_in_sign():
    assert mae([0.0, 0.0], [3.0, -3.0]) == 3.0


def test_mae_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        mae([1.0, 2.0], [[1.0], [2.0]])


def test_mae_empty():
    with pytest.raises(ValueError):
        mae([], [])


class TestMetricSeries:
    def test_xs_ys(self):
        series = MetricSeries("demo", ((1.0, 5.0), (2.0, 6.0)))
        assert series.xs == (1.0, 2.0)
        assert series.ys == (5.0, 6.0)

    def test_x_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            MetricSeries("demo", ((1.0, 5.0), (1.0, 6.0)))


class TestMaeSweep:
    def test_tracks_scale_of_budget(self):
        scenario = synth_scenario(n_meters=10, n_days=1, seed=13)
        series = mae_sweep(scenario, (0.1, 1.0))
        assert series.xs == (0.1, 1.0)
        assert series.ys[0] == pytest.approx(10.0, rel=0.1)
        assert series.ys[1] == pytest.approx(1.0, rel=0.1)

    def test_orders_and_dedups_budgets(self):
        scenario = synth_scenario(n_meters=2, n_days=1, seed=13)
        series = mae_sweep(scenario, (1.0, 0.5, 1.0))
        assert series.xs == (0.5, 1.0)

    def test_deterministic(self):
        scenario = synth_scenario(n_meters=3, n_days=1, seed=21)
        first = mae_sweep(scenario, (0.5, 1.0))
        second = mae_sweep(scenario, (0.5, 1.0))
        assert first == second

    def test_points_use_independent_noise(self):
        scenario = synth_scenario(n_meters=3, n_days=1, seed=21)
        other = matrix_scenario(scenario.readings, seed=99)
        assert mae_sweep(scenario, (0.5,)).ys != mae_sweep(other, (0.5,)).ys

    def test_rejects_bad_budgets(self):
        scenario = synth_scenario(n_meters=2, n_days=1)
        with pytest.raises(ValueError, match="empty budget sweep"):
            mae_sweep(scenario, ())
        with pytest.raises(ValueError, match="budgets must be positive, got -1.0"):
            mae_sweep(scenario, (0.5, -1.0))


class TestBillErrorSeries:
    def test_errors_are_small_relative_fractions(self):
        scenario = synth_scenario(n_meters=5, n_days=1, seed=17, peak_factor=5500.0)
        series = bill_error_series(scenario, (0.5, 1.0))
        assert series.xs == (0.5, 1.0)
        assert all(0.0 <= y < 0.2 for y in series.ys)

    def test_zero_reference_rejected(self):
        scenario = matrix_scenario(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="zero"):
            bill_error_series(scenario, (1.0,))

    def test_empty_sweep_rejected(self):
        scenario = synth_scenario(n_meters=2, n_days=1)
        with pytest.raises(ValueError, match="empty budget sweep"):
            bill_error_series(scenario, ())
        with pytest.raises(ValueError, match="budgets must be positive, got 0.0"):
            bill_error_series(scenario, (0.5, 0.0))


class TestConvergenceSeries:
    def test_zero_noise_gives_flat_zero_error(self):
        scenario = synth_scenario(n_meters=3, n_days=1, seed=19)
        series = convergence_series(scenario, 0.5, noisy=False)
        assert len(series.points) == scenario.n_slots
        assert all(y == 0.0 for y in series.ys)

    def test_error_settles_as_slots_accumulate(self):
        scenario = synth_scenario(n_meters=5, n_days=2, seed=23)
        series = convergence_series(scenario, 0.5)
        assert series.xs[0] == 1.0
        assert series.xs[-1] == float(scenario.n_slots)
        assert series.ys[-1] < 0.02
        assert series.ys[-1] <= max(series.ys[:30])

    def test_grid_side_keeps_the_scenarios_budget(self):
        strict, loose = (
            convergence_series(synth_scenario(n_meters=3, n_days=1, seed=29, epsilon2=e2), 0.5)
            for e2 in (0.01, 0.5)
        )
        assert strict.ys != loose.ys
        # The meter side follows the epsilon argument, not the scenario's.
        meter_only = synth_scenario(n_meters=3, n_days=1, seed=29, epsilon=0.1, epsilon2=0.5)
        assert convergence_series(meter_only, 0.5) == loose

    def test_meter_index_validated(self):
        scenario = synth_scenario(n_meters=2, n_days=1)
        with pytest.raises(ValueError, match="meter index"):
            convergence_series(scenario, 0.5, meter=2)

    def test_default_sweep_is_fixed(self):
        assert DEFAULT_EPSILON_SWEEP == (0.01, 0.1, 0.5, 1.0, 2.0)
