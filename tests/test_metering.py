"""Meter side: CSV ingestion, synthetic load shapes, protected reporting."""
import numpy as np
import pytest

from drdp import (
    SLOTS_PER_DAY,
    LoadProfile,
    PrivacyParams,
    Scenario,
    load_csv,
    protect_reading,
    report_readings,
    synthesize,
)
from helpers import matrix_scenario, spawn_streams


def write_readings(path, rows, header="meter_id,slot,wh"):
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_slot_grid_is_ten_minutes():
    assert SLOTS_PER_DAY == 144


def test_meter_reading_rejects_negative():
    params, rng = PrivacyParams(1.0), np.random.default_rng(0)
    with pytest.raises(ValueError, match="non-negative"):
        protect_reading(np.array([3.0, -0.1, 2.0]), params, rng)
    assert protect_reading(np.zeros(3), params, rng).min() >= 0.0


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "readings.csv"
        write_readings(path, [(1, 0, 10.5), (1, 1, 11.0), (2, 0, 3.0), (2, 1, 4.0)])
        meter_ids, matrix = load_csv(path)
        assert meter_ids == (1, 2)
        assert matrix.shape == (2, 2)
        np.testing.assert_array_equal(matrix, [[10.5, 11.0], [3.0, 4.0]])

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        write_readings(path, [(2, 1, 4.0), (1, 0, 1.0), (2, 0, 3.0), (1, 1, 2.0)])
        _, matrix = load_csv(path)
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_slot_numbering_normalised(self, tmp_path):
        # files may start counting slots anywhere
        path = tmp_path / "offset.csv"
        write_readings(path, [(5, 100, 7.0), (5, 101, 8.0), (5, 102, 9.0)])
        meter_ids, matrix = load_csv(path)
        assert meter_ids == (5,)
        np.testing.assert_array_equal(matrix, [[7.0, 8.0, 9.0]])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_readings(path, [(1, 0, 1.0)], header="meter,slot,watt_hours")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_readings(path, [(1, 0, "abc")])
        with pytest.raises(ValueError, match="malformed"):
            load_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("meter_id,slot,wh\n1,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 fields"):
            load_csv(path)

    def test_negative_reading_names_meter_and_slot(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_readings(path, [(1, 0, 5.0), (3, 0, -2.0)])
        with pytest.raises(ValueError, match="meter 3, slot 0"):
            load_csv(path)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_readings(path, [(1, 0, 5.0), (1, 0, 6.0)])
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path)

    def test_gap_names_meter_and_missing_slot(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_readings(path, [(1, 0, 5.0), (1, 2, 6.0)])
        with pytest.raises(ValueError, match="meter 1 is missing slot 1"):
            load_csv(path)

    def test_meters_must_cover_same_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_readings(path, [(1, 0, 5.0), (1, 1, 6.0), (2, 1, 3.0)])
        with pytest.raises(ValueError, match="meter 2 is missing slot 0"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("meter_id,slot,wh\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no readings"):
            load_csv(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_readings(path, [(1, 0, "nan")])
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path)


class TestSynthesize:
    def test_shape_and_bounds(self):
        rng = np.random.default_rng(5)
        readings = synthesize(4, 2, LoadProfile(), rng)
        assert readings.shape == (4, 2 * SLOTS_PER_DAY)
        assert np.all(readings >= 0)

    def test_deterministic(self):
        a = synthesize(3, 1, LoadProfile(), np.random.default_rng(11))
        b = synthesize(3, 1, LoadProfile(), np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_evening_peak_dominates_trough(self):
        rng = np.random.default_rng(8)
        readings = synthesize(10, 3, LoadProfile(), rng)
        evening = readings[:, 114::SLOTS_PER_DAY].mean()
        trough = readings[:, 0::SLOTS_PER_DAY].mean()
        assert evening > trough + 300

    def test_collapsed_profile_reproduces_base_load(self):
        profile = LoadProfile(
            base_wh=(700.0, 700.0),
            morning_amp_wh=(0.0, 0.0),
            evening_amp_wh=(0.0, 0.0),
            noise_sd_wh=0.0,
        )
        with pytest.warns(UserWarning, match="flat"):
            readings = synthesize(2, 1, profile, np.random.default_rng(0))
        assert np.all(readings == 700.0)

    def test_amplitude_scale_shrinks_one_home(self):
        profile = LoadProfile(noise_sd_wh=0.0, amplitude_scale=(0.0, 1.0))
        readings = synthesize(2, 1, profile, np.random.default_rng(2))
        # scaled home is flat at its base; unscaled home keeps its evening bump
        assert readings[0].max() - readings[0].min() == 0.0
        assert readings[1].max() - readings[1].min() > 100.0

    def test_amplitude_scale_length_checked(self):
        profile = LoadProfile(amplitude_scale=(1.0,))
        with pytest.raises(ValueError, match="amplitude_scale"):
            synthesize(2, 1, profile, np.random.default_rng(0))

    @pytest.mark.parametrize("n_meters,n_days", [(0, 1), (1, 0)])
    def test_rejects_empty_dimensions(self, n_meters, n_days):
        with pytest.raises(ValueError):
            synthesize(n_meters, n_days, LoadProfile(), np.random.default_rng(0))


def test_load_profile_validation():
    with pytest.raises(ValueError):
        LoadProfile(base_wh=(800.0, 700.0))
    with pytest.raises(ValueError):
        LoadProfile(peak_width_slots=0.0)
    with pytest.raises(ValueError):
        LoadProfile(noise_sd_wh=-1.0)
    with pytest.raises(ValueError):
        LoadProfile(amplitude_scale=(-0.5,))


class TestScenario:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Scenario(
                n_meters=3,
                n_slots=2,
                readings=np.ones((2, 2)),
                tariff=matrix_scenario(np.ones((1, 1))).tariff,
                meter_params=PrivacyParams(1.0),
                grid_params=PrivacyParams(1.0),
                seed=0,
            )

    def test_negative_readings_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            matrix_scenario([[1.0, -2.0]])

    def test_default_meter_ids(self):
        scenario = matrix_scenario(np.ones((3, 2)))
        assert scenario.meter_ids == (0, 1, 2)

    def test_meter_id_count_checked(self):
        base = matrix_scenario(np.ones((2, 2)))
        with pytest.raises(ValueError, match="meter ids"):
            Scenario(
                n_meters=2,
                n_slots=2,
                readings=np.ones((2, 2)),
                tariff=base.tariff,
                meter_params=base.meter_params,
                grid_params=base.grid_params,
                seed=0,
                meter_ids=(7,),
            )


class TestReportSlot:
    """Meter-side reporting of every slot: ``report_readings``."""

    def test_reports_cover_all_meters_in_order(self):
        scenario = matrix_scenario([[5.0, 6.0], [7.0, 8.0], [9.0, 1.0]])
        reports = report_readings(scenario)
        assert reports.shape == (3, 2)
        # row i is meter i's readings perturbed by meter i's own stream,
        # one scalar draw per slot
        _, _, meter_rngs = spawn_streams(scenario.seed, scenario.n_meters)
        for index in range(3):
            expected = [
                protect_reading(float(i_v), scenario.meter_params, meter_rngs[index])
                for i_v in scenario.readings[index]
            ]
            assert reports[index].tolist() == expected

    def test_reported_value_at_least_true_value(self):
        scenario = matrix_scenario(np.full((5, 4), 100.0), epsilon=0.1)
        assert np.all(report_readings(scenario) >= 100.0)
