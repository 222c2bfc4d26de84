"""Utility side: adjustment, peak detection, dynamic billing, baselines."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drdp import (
    OpCounter,
    PrivacyParams,
    Scenario,
    Tariff,
    adjust_reading,
    baseline_flat_peak_bill,
    run_scenario,
)
from helpers import (
    matrix_scenario,
    reference_flat_bill,
    reference_run,
    row_sums,
    synth_scenario,
)

# Hand-checked 2-meter, 2-slot case: the second slot stays under the
# threshold, the first crosses it with one home above the fair share.
GOLDEN_READINGS = [[1500.0, 400.0], [900.0, 500.0]]
GOLDEN_TARIFF = dict(unit_price=10.0, peak_price=25.0, peak_factor=2000.0)
GOLDEN_TOTALS = [41500.0, 14000.0]


def bill_one_slot(b_r_values, **tariff):
    """Bill a single slot of the given billing bases, without noise."""
    readings = [[value] for value in b_r_values]
    return run_scenario(matrix_scenario(readings, **tariff), noisy=False)


class TestTariff:
    def test_defaults(self):
        tariff = Tariff()
        assert tariff.unit_price == 10.0
        assert tariff.peak_price == 25.0
        assert tariff.peak_factor == 12000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(unit_price=0.0),
            dict(peak_price=-5.0),
            dict(peak_factor=0.0),
        ],
    )
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            Tariff(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(unit_price=float("nan")),
            dict(peak_price=float("inf")),
            dict(peak_factor=float("inf")),
            dict(peak_factor=float("nan")),
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            Tariff(**kwargs)

    def test_warns_when_peak_not_a_surcharge(self):
        with pytest.warns(UserWarning, match="surcharge"):
            Tariff(unit_price=20.0, peak_price=15.0)


class TestDetectPeak:
    def test_threshold_is_inclusive(self):
        result = bill_one_slot([60.0, 40.0], peak_factor=100.0)
        assert result.peak.tolist() == [True]
        assert result.slots[0].average == 50.0

    def test_below_threshold(self):
        result = bill_one_slot([60.0, 39.9], peak_factor=100.0)
        assert result.peak.tolist() == [False]
        assert result.slots[0].average is None
        assert not result.charged.any()

    def test_average_is_threshold_share_not_consumption_mean(self):
        result = bill_one_slot([6000.0, 6001.0], peak_factor=12000.0)
        assert result.peak.tolist() == [True]
        assert result.share == 6000.0  # not 6000.5
        assert result.slots[0].average == 6000.0

    def test_rejects_empty_region(self):
        with pytest.raises(ValueError, match="at least 1"):
            Scenario(
                n_meters=0,
                n_slots=1,
                readings=np.empty((0, 1)),
                tariff=Tariff(),
                meter_params=PrivacyParams(1.0),
                grid_params=PrivacyParams(1.0),
                seed=0,
            )
        for empty in (np.empty((0, 3)), np.empty((3, 0))):
            with pytest.raises(ValueError, match="at least one meter and slot"):
                baseline_flat_peak_bill(empty, Tariff())

    def test_regional_sum_adds_meters_in_order(self):
        # The peak test matches a running Python sum bit for bit, also for
        # a single slot, where np.sum would add the meters pairwise.
        values = np.random.default_rng(0).uniform(0.0, 2000.0, size=(1000, 7))
        for matrix in (values, values[:, :1]):
            python_sums = [sum(column) for column in matrix.T.tolist()]
            result = run_scenario(matrix_scenario(matrix), noisy=False)
            assert [s.regional_sum for s in result.slots] == python_sums
            at_threshold = matrix_scenario(matrix, peak_factor=python_sums[0])
            assert run_scenario(at_threshold, noisy=False).peak[0]


class TestBillSlot:
    def test_off_peak_uses_unit_price(self):
        result = bill_one_slot([10.0, 20.0])
        np.testing.assert_array_equal(result.bills_cents, [[100.0], [200.0]])
        assert not result.charged.any()
        (slot,) = result.slots
        assert all(b.d_f is None for b in slot.bills)
        assert slot.average is None

    def test_peak_splits_on_fair_share(self):
        result = bill_one_slot([70.0, 30.0], peak_factor=100.0)
        assert result.charged.tolist() == [[True], [False]]
        np.testing.assert_array_equal(result.bills_cents, [[70.0 * 25.0], [30.0 * 10.0]])
        over, under = result.slots[0].bills
        assert over.charged_peak and over.i_b == 70.0 * 25.0 and over.d_f == 20.0
        assert not under.charged_peak and under.i_b == 30.0 * 10.0 and under.d_f == 20.0

    def test_home_exactly_at_share_pays_peak_price(self):
        result = bill_one_slot([50.0, 50.0], peak_factor=100.0)
        assert result.charged.all()
        assert all(b.d_f == 0.0 for b in result.slots[0].bills)

    def test_regional_sum_matches_inputs(self):
        assert bill_one_slot([1.5, 2.5]).slots[0].regional_sum == 4.0


def test_adjust_slot_preserves_order_and_floors_at_zero():
    params = PrivacyParams(epsilon=0.05)  # scale 20, overshoot likely
    protected = np.tile([1.0, 2.0], (2000, 1))
    adjusted = adjust_reading(protected, params, np.random.default_rng(1))
    assert adjusted.shape == protected.shape
    assert np.all(adjusted >= 0.0)
    assert adjusted.min() == 0.0
    # element k of the array gets the k-th draw of the stream
    rng = np.random.default_rng(1)
    one_by_one = [adjust_reading(float(p_v), params, rng) for p_v in protected.ravel()]
    assert adjusted.ravel().tolist() == one_by_one


class TestGoldenScenario:
    def test_exact_bills_without_noise(self):
        scenario = matrix_scenario(GOLDEN_READINGS, **GOLDEN_TARIFF)
        result = run_scenario(scenario, noisy=False)
        np.testing.assert_array_equal(result.totals_cents, GOLDEN_TOTALS)
        np.testing.assert_array_equal(
            result.bills_cents, [[37500.0, 4000.0], [9000.0, 5000.0]]
        )

    def test_peak_classification(self):
        scenario = matrix_scenario(GOLDEN_READINGS, **GOLDEN_TARIFF)
        result = run_scenario(scenario, noisy=False)
        first, second = result.slots
        assert first.peak_in_place and first.average == 1000.0
        assert [b.charged_peak for b in first.bills] == [True, False]
        assert [b.d_f for b in first.bills] == [500.0, 100.0]
        assert not second.peak_in_place
        assert result.peak_slot_count == 1

    def test_step_by_step_matches_pipeline(self):
        # slot 0: 1500 + 900 = 2400 >= 2000, share 1000, only the first
        # home is at or above it; slot 1: 900 < 2000, no peak
        result = run_scenario(matrix_scenario(GOLDEN_READINGS, **GOLDEN_TARIFF), noisy=False)
        assert result.peak.tolist() == [True, False]
        assert result.charged.tolist() == [[True, False], [False, False]]
        assert result.bills_cents[:, 0].tolist() == [37500.0, 9000.0]
        assert [s.regional_sum for s in result.slots] == [2400.0, 900.0]


class TestRunScenario:
    def test_matrices_and_totals_line_up(self):
        scenario = synth_scenario(n_meters=4, n_days=1, seed=3)
        result = run_scenario(scenario)
        assert result.protected.shape == (4, 144)
        assert result.adjusted.shape == (4, 144)
        assert result.totals_cents.tobytes() == row_sums(result.bills_cents).tobytes()
        assert np.all(result.protected >= scenario.readings)
        assert np.all(result.adjusted <= result.protected)
        assert np.all(result.adjusted >= 0.0)

    def test_noise_free_run_is_transparent(self):
        scenario = synth_scenario(n_meters=3, n_days=1, seed=5)
        result = run_scenario(scenario, noisy=False)
        np.testing.assert_array_equal(result.protected, scenario.readings)
        np.testing.assert_array_equal(result.adjusted, scenario.readings)

    def test_same_seed_reproduces_everything(self):
        scenario = synth_scenario(n_meters=3, n_days=1, seed=8)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        np.testing.assert_array_equal(first.adjusted, second.adjusted)
        np.testing.assert_array_equal(first.bills_cents, second.bills_cents)

    def test_different_seed_changes_noise(self):
        base = synth_scenario(n_meters=3, n_days=1, seed=8)
        other = matrix_scenario(base.readings, seed=9)
        assert not np.array_equal(
            run_scenario(base).protected, run_scenario(other).protected
        )

    def test_every_peak_slot_partitions_meters(self):
        scenario = synth_scenario(n_meters=6, n_days=1, seed=2, peak_factor=6000.0)
        result = run_scenario(scenario)
        assert result.peak_slot_count > 0
        for slot_result in result.slots:
            charged = sum(b.charged_peak for b in slot_result.bills)
            uncharged = sum(not b.charged_peak for b in slot_result.bills)
            assert charged + uncharged == 6
            if slot_result.peak_in_place:
                assert all(b.d_f is not None for b in slot_result.bills)
            else:
                assert charged == 0

    def test_operation_counts_scale_with_meters(self):
        scenario = matrix_scenario(np.ones((5, 7)))
        counter = OpCounter()
        run_scenario(scenario, counter=counter)
        assert counter.protect == 5 * 7
        assert counter.adjust == 5 * 7
        assert counter.sum_terms == 5 * 7
        assert counter.bill == 5 * 7
        assert counter.total == 4 * 5 * 7


class TestFlatPeakBaseline:
    def test_equals_dynamic_when_no_peaks(self):
        scenario = matrix_scenario([[10.0, 20.0], [30.0, 40.0]], peak_factor=1e6)
        dynamic = run_scenario(scenario, noisy=False).totals_cents
        flat = baseline_flat_peak_bill(scenario.readings, scenario.tariff)
        np.testing.assert_array_equal(dynamic, flat)

    def test_never_cheaper_than_dynamic(self):
        scenario = synth_scenario(n_meters=5, n_days=1, seed=4, peak_factor=5000.0)
        dynamic = run_scenario(scenario, noisy=False).totals_cents
        flat = baseline_flat_peak_bill(scenario.readings, scenario.tariff)
        assert np.all(dynamic <= flat)

    def test_charges_below_share_homes_peak_price(self):
        tariff = Tariff(peak_factor=100.0)
        flat = baseline_flat_peak_bill([[80.0], [20.0]], tariff)
        np.testing.assert_array_equal(flat, [80.0 * 25.0, 20.0 * 25.0])

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            baseline_flat_peak_bill(np.ones(4), Tariff())

    def test_threshold_is_inclusive_like_the_dynamic_run(self):
        tariff = Tariff(peak_factor=100.0)
        flat = baseline_flat_peak_bill([[60.0, 60.0], [40.0, 39.9]], tariff)
        np.testing.assert_array_equal(flat, [60.0 * 25.0 + 60.0 * 10.0, 40.0 * 25.0 + 39.9 * 10.0])

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, float("nan")])
    def test_rejects_negative_or_nan_readings(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            baseline_flat_peak_bill([[10.0, 20.0], [bad, 5.0]], Tariff(peak_factor=10.0))


SHARES = (100.0, 250.0, 1000.0)


@st.composite
def kernel_cases(draw):
    """Small scenarios whose readings often sit exactly at the fair share,
    so noise-free slot sums often sit exactly at the threshold."""
    # Past 8 meters or slots numpy's pairwise summation differs from a
    # running sum, so the summation order is exercised too.
    n_meters = draw(st.integers(1, 12))
    n_slots = draw(st.integers(1, 12))
    share = draw(st.sampled_from(SHARES))
    cell = st.one_of(
        st.just(share),
        st.integers(0, 3 * int(share)).map(float),
        st.floats(0.0, 3.0 * share, allow_nan=False, allow_infinity=False),
    )
    readings = draw(st.lists(cell, min_size=n_meters * n_slots, max_size=n_meters * n_slots))
    scenario = matrix_scenario(
        np.reshape(readings, (n_meters, n_slots)),
        epsilon=draw(st.sampled_from((0.01, 0.5, 2.0))),
        seed=draw(st.integers(0, 2**32 - 1)),
        peak_factor=share * n_meters,
    )
    noisy = draw(st.booleans())
    if noisy and draw(st.booleans()):
        # Move the threshold onto slot 0's noisy regional sum, exactly.
        _, adjusted, _, _ = reference_run(scenario)
        total = sum(adjusted[:, 0].tolist())
        if total > 0:
            tariff = dataclasses.replace(scenario.tariff, peak_factor=total)
            scenario = dataclasses.replace(scenario, tariff=tariff)
    return scenario, noisy


class TestKernelMatchesReference:
    """``run_scenario`` equals a scalar reference loop bit for bit and keeps
    the billing invariants."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    @example((matrix_scenario(np.full((4, 2), 250.0), peak_factor=1000.0), False))
    @example((matrix_scenario([[250.0], [249.0], [251.0]], peak_factor=750.0), False))
    def test_kernel_equals_scalar_reference(self, case):
        scenario, noisy = case
        result = run_scenario(scenario, noisy=noisy)
        expected = reference_run(scenario, noisy=noisy)
        actual = (result.protected, result.adjusted, result.bills_cents, result.totals_cents)
        for got, want in zip(actual, expected):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_billing_invariants(self, case):
        scenario, noisy = case
        result = run_scenario(scenario, noisy=noisy)
        assert np.all(result.protected >= scenario.readings)  # reported >= true
        assert np.all(result.adjusted >= 0.0)  # b_r >= 0
        below_share = result.adjusted < result.share
        assert not np.any(result.charged & below_share)
        assert not np.any(result.charged & ~result.peak)
        assert result.totals_cents.tobytes() == row_sums(result.bills_cents).tobytes()

    def test_noisy_slot_exactly_at_threshold_is_a_peak(self):
        scenario = synth_scenario(n_meters=7, n_days=1, seed=12)
        _, adjusted, _, _ = reference_run(scenario)
        total = sum(adjusted[:, 5].tolist())
        at_threshold = dataclasses.replace(
            scenario, tariff=dataclasses.replace(scenario.tariff, peak_factor=total)
        )
        result = run_scenario(at_threshold)
        assert result.peak[5]
        assert result.adjusted[:, 5].tobytes() == adjusted[:, 5].tobytes()


class TestFlatPeakMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    @example((matrix_scenario([[60.0, 0.0], [40.0, 0.0]], peak_factor=100.0), False))
    def test_equals_scalar_reference(self, case):
        scenario, _ = case
        readings = scenario.readings
        # the threshold as given, and moved exactly onto slot 0's sum
        slot_sum = sum(readings[:, 0].tolist())
        tariffs = [scenario.tariff]
        if slot_sum > 0:
            tariffs.append(dataclasses.replace(scenario.tariff, peak_factor=slot_sum))
        for tariff in tariffs:
            flat = baseline_flat_peak_bill(readings, tariff)
            assert flat.tobytes() == reference_flat_bill(readings, tariff).tobytes()


@st.composite
def split_cases(draw):
    """Noise-free scenarios long enough for pairwise summation to differ
    from a running sum, and a slot ``k`` to split them at."""
    n_meters = draw(st.integers(1, 20))
    n_slots = draw(st.integers(2, 80))
    share = draw(st.sampled_from(SHARES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    readings = rng.uniform(0.0, 2.0 * share, size=(n_meters, n_slots))
    split = draw(st.integers(1, n_slots - 1))
    return matrix_scenario(readings, peak_factor=share * n_meters), split


class TestOneSummationOrder:
    """Every total adds its terms in index order, so a run billed in slot
    blocks continues to the whole run's totals bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(split_cases())
    @example((matrix_scenario(np.random.default_rng(1).uniform(0, 2000, (50, 432))), 144))
    def test_split_run_continues_to_whole_run_totals(self, case):
        scenario, split = case
        whole = run_scenario(scenario, noisy=False)
        tariff = scenario.tariff
        head, tail = (
            run_scenario(matrix_scenario(part, peak_factor=tariff.peak_factor), noisy=False)
            for part in (scenario.readings[:, :split], scenario.readings[:, split:])
        )
        totals = head.totals_cents
        for column in tail.bills_cents.T:
            totals = totals + column
        adjusted_wh = head.total_adjusted_wh
        for regional in tail.regional_wh.tolist():
            adjusted_wh += regional
        assert totals.tobytes() == whole.totals_cents.tobytes()
        assert adjusted_wh == whole.total_adjusted_wh
        assert sum(totals.tolist()) == whole.total_bill_cents

    @pytest.mark.parametrize("shape", [(1, 1), (1, 300), (300, 1), (13, 37), (200, 19)])
    def test_totals_do_not_depend_on_memory_layout(self, shape):
        readings = np.random.default_rng(5).uniform(0.0, 2000.0, size=shape)
        tariff = Tariff(peak_factor=1000.0 * shape[0])
        layouts = (
            np.ascontiguousarray(readings),
            np.asfortranarray(readings),
            np.repeat(readings, 2, axis=1)[:, ::2],  # strided view
        )
        flat = [baseline_flat_peak_bill(copy, tariff).tobytes() for copy in layouts]
        assert flat == [reference_flat_bill(readings, tariff).tobytes()] * len(layouts)
        runs = [
            run_scenario(matrix_scenario(copy, peak_factor=tariff.peak_factor), noisy=False)
            for copy in layouts
        ]
        for run in runs:
            assert run.totals_cents.tobytes() == row_sums(run.bills_cents).tobytes()
            assert run.totals_cents.tobytes() == runs[0].totals_cents.tobytes()
            assert run.regional_wh.tobytes() == runs[0].regional_wh.tobytes()
            assert run.total_adjusted_wh == runs[0].total_adjusted_wh
            assert run.total_bill_cents == sum(run.totals_cents.tolist())

    def test_noisy_totals_add_in_order_over_the_transposed_draws(self):
        result = run_scenario(synth_scenario(n_meters=30, n_days=1, seed=9))
        assert not result.adjusted.flags.c_contiguous  # the slot-major draws, transposed
        assert result.totals_cents.tobytes() == row_sums(result.bills_cents).tobytes()
        python_regional = [sum(column) for column in result.adjusted.T.tolist()]
        assert result.regional_wh.tolist() == python_regional
        assert result.total_adjusted_wh == sum(python_regional)

    def test_stored_sums_own_their_memory(self):
        # A view of the running-sum temporary would keep a whole
        # meter-by-slot buffer alive for as long as the result lives.
        result = run_scenario(synth_scenario(n_meters=5, n_days=1, seed=1))
        assert result.regional_wh.base is None
        assert result.totals_cents.base is None
        flat = baseline_flat_peak_bill(result.scenario.readings, result.scenario.tariff)
        assert flat.base is None
