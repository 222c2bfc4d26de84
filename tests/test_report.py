"""report.csv: the blocked array emitter against the row-by-row formatter."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdp import cli, run_scenario
from drdp.cli import _format_fixed, _write_report, main, parse_config
from helpers import matrix_scenario, reference_report


def texts(chars):
    return [row[row != 0].tobytes().decode("ascii") for row in chars]


def neighbours(x):
    """``x`` and the two floats on each side of it."""
    below = np.nextafter(x, -math.inf)
    above = np.nextafter(x, math.inf)
    return [float(np.nextafter(below, -math.inf)), float(below), x, float(above),
            float(np.nextafter(above, math.inf))]


def halfway(decimals):
    """``(k + 0.5) / 10**decimals``, the decimal ties, and their neighbours."""
    return st.integers(0, 10**9 * 10**decimals).map(
        lambda k: neighbours((k + 0.5) / 10**decimals)
    )


def near_power_of_two():
    return st.integers(-40, 60).map(lambda e: neighbours(2.0**e))


def past_exact_range(decimals):
    """Values whose scaled product is at or above 2**53: Python formats them."""
    start = 2.0**53 / 10**decimals
    return st.one_of(
        st.just(neighbours(start)),
        st.lists(st.floats(start, 1e300), max_size=3),
    )


def values(decimals):
    singles = st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e9),
        st.floats(0.0, 1.0),
        st.floats(allow_nan=True, allow_infinity=True),
    ).map(lambda x: [x])
    groups = st.one_of(singles, halfway(decimals), near_power_of_two(), past_exact_range(decimals))
    return st.lists(groups, max_size=12).map(lambda parts: [x for part in parts for x in part])


class TestFormatFixed:
    @settings(max_examples=300, deadline=None)
    @given(values(6))
    def test_six_decimals_equal_python_format(self, xs):
        assert texts(_format_fixed(np.array(xs, dtype=float), 6)) == [format(x, ".6f") for x in xs]

    @settings(max_examples=300, deadline=None)
    @given(values(2))
    def test_two_decimals_equal_python_format(self, xs):
        assert texts(_format_fixed(np.array(xs, dtype=float), 2)) == [format(x, ".2f") for x in xs]

    def test_ties_and_special_values(self):
        xs = [0.0, -0.0, 0.125, 0.375, 2.675, 1.0000005, 0.0000005, 999999.9999995,
              2.0**53 / 100, 2.0**53, 1e300, -1.5, math.inf, -math.inf, math.nan]
        for decimals in (2, 6):
            spec = f".{decimals}f"
            assert texts(_format_fixed(np.array(xs), decimals)) == [format(x, spec) for x in xs]


def assert_report_matches(result, tmp_path):
    path = tmp_path / "report.csv"
    _write_report(path, result)
    assert path.read_bytes() == reference_report(result)


def half_peak_readings(n_meters, n_slots, seed=0):
    """Readings and a threshold near the median slot sum: about half the slots peak."""
    readings = np.random.default_rng(seed).uniform(0.0, 2000.0, (n_meters, n_slots))
    return readings, float(np.median(readings.sum(axis=0)))


class TestReportBytes:
    def test_single_slot(self, tmp_path):
        readings, threshold = half_peak_readings(7, 1)
        result = run_scenario(matrix_scenario(readings, peak_factor=threshold * 0.9))
        assert result.peak.all()
        assert_report_matches(result, tmp_path)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_slot_count_around_the_block_size(self, offset, tmp_path):
        n_meters = 2000
        block = cli._REPORT_BLOCK_ROWS // n_meters
        readings, threshold = half_peak_readings(n_meters, block + offset, seed=offset + 1)
        result = run_scenario(matrix_scenario(readings, peak_factor=threshold))
        assert 0 < result.peak_slot_count < result.scenario.n_slots
        assert_report_matches(result, tmp_path)

    @pytest.mark.parametrize("noisy", [True, False])
    def test_all_peak_run(self, noisy, tmp_path):
        readings, _ = half_peak_readings(6, 30)
        readings[2] = 0.0
        result = run_scenario(matrix_scenario(readings, peak_factor=1.0), noisy=noisy)
        assert result.peak.all()
        assert_report_matches(result, tmp_path)

    def test_no_peak_run(self, tmp_path):
        readings, _ = half_peak_readings(6, 30)
        result = run_scenario(matrix_scenario(readings, peak_factor=1e12))
        assert not result.peak.any()
        assert_report_matches(result, tmp_path)

    def test_input_file_with_unusual_meter_ids(self, tmp_path, capsys):
        meter_ids = (2**64 + 5, -3, 40, 7, -(2**70), 2**63)
        rng = np.random.default_rng(5)
        lines = [
            f"{meter},{slot},{rng.uniform(0, 1500):.3f}"
            for slot in rng.permutation(np.arange(100, 140)).tolist()
            for meter in meter_ids
        ]
        source = tmp_path / "readings.csv"
        source.write_text("meter_id,slot,wh\n" + "\n".join(lines) + "\n", encoding="utf-8")
        argv = ["--input", str(source), "--peak-factor", "4500", "--seed", "3",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        config = parse_config(argv)
        result = run_scenario(cli._build_scenario(config))
        assert result.scenario.meter_ids == tuple(sorted(meter_ids))
        assert 0 < result.peak_slot_count < result.scenario.n_slots
        assert (tmp_path / "out" / "report.csv").read_bytes() == reference_report(result)
