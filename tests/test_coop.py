"""Cooperative-state math: closed forms, enumeration oracle, empirical reads."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from drdp import (
    CoopModel,
    coop_expectation,
    coop_probability,
    enumerate_oracle,
    measure_coop_state,
    run_scenario,
)
from drdp.cli import main
from helpers import matrix_scenario


class TestCoopModel:
    def test_scalar_probability_broadcast(self):
        model = CoopModel(4, 0.3)
        assert model.p_lu == (0.3, 0.3, 0.3, 0.3)
        assert model.shared_p == 0.3

    def test_vector_probabilities(self):
        model = CoopModel(2, [0.2, 0.9])
        assert model.p_lu == (0.2, 0.9)
        assert model.p_hu == (0.8, 0.09999999999999998)

    def test_shared_p_refuses_mixed_homes(self):
        model = CoopModel(2, [0.2, 0.9])
        with pytest.raises(ValueError, match="enumerate_oracle"):
            model.shared_p

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 2), (4, 2), (10, 5), (12, 6)])
    def test_majority_threshold_rounds_up(self, n, expected):
        assert CoopModel(n, 0.5).threshold == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            CoopModel(0, 0.5)
        with pytest.raises(ValueError):
            CoopModel(2, [0.5])
        with pytest.raises(ValueError):
            CoopModel(2, -0.1)
        with pytest.raises(ValueError):
            CoopModel(2, [0.5, 1.1])


class TestClosedForms:
    def test_three_homes_even_odds(self):
        model = CoopModel(3, 0.5)
        assert coop_probability(model) == pytest.approx(0.5, abs=1e-15)
        assert coop_expectation(model) == pytest.approx(1.125, abs=1e-15)

    def test_certain_cooperation(self):
        model = CoopModel(3, 1.0)
        assert coop_probability(model) == 1.0
        assert coop_expectation(model) == 3.0

    def test_certain_defection(self):
        model = CoopModel(3, 0.0)
        assert coop_probability(model) == 0.0
        assert coop_expectation(model) == 0.0

    def test_single_home(self):
        model = CoopModel(1, 0.3)
        assert coop_probability(model) == pytest.approx(0.3, abs=1e-15)
        assert coop_expectation(model) == pytest.approx(0.3, abs=1e-15)

    def test_two_homes(self):
        # P(q >= 1) = 0.75; 1*0.5 + 2*0.25 = 1.0
        model = CoopModel(2, 0.5)
        assert coop_probability(model) == pytest.approx(0.75, abs=1e-15)
        assert coop_expectation(model) == pytest.approx(1.0, abs=1e-15)

    def test_expectation_is_truncated_not_full(self):
        # four homes at p=0.5: full expectation 2.0, tail-only 28/16
        model = CoopModel(4, 0.5)
        assert coop_expectation(model) == pytest.approx(1.75, abs=1e-15)
        assert coop_probability(model) == pytest.approx(11.0 / 16.0, abs=1e-15)

    def test_half_cooperating_counts_for_even_n(self):
        # the threshold for n=4 is 2, so the q=2 outcomes are included
        model = CoopModel(4, 0.5)
        below_threshold = sum(
            math.comb(4, q) * 0.5**4 for q in (0, 1)
        )
        assert coop_probability(model) == pytest.approx(1 - below_threshold, abs=1e-15)

    def test_trend_over_p_for_twelve_homes(self):
        probabilities = [coop_probability(CoopModel(12, p / 10)) for p in range(1, 10)]
        expectations = [coop_expectation(CoopModel(12, p / 10)) for p in range(1, 10)]
        assert all(b > a for a, b in zip(probabilities, probabilities[1:]))
        assert all(b > a for a, b in zip(expectations, expectations[1:]))


class TestLargeRegions:
    """The closed forms hold far past where ``math.comb`` overflows a float."""

    # at 631 homes the old product form already lost digits to underflow
    @pytest.mark.parametrize("n", [631, 2000, 100_000, 1_000_000])
    @pytest.mark.parametrize("p", [0.1, 0.45, 0.4999, 0.5, 0.7, 0.9])
    def test_matches_scipy_binomial_tail(self, n, p):
        model = CoopModel(n, p)
        q_min = model.threshold
        probability = stats.binom.sf(q_min - 1, n, p)
        # q C(n, q) = n C(n-1, q-1), so the truncated expectation is a
        # scaled tail of Bin(n-1, p)
        expectation = n * p * stats.binom.sf(q_min - 2, n - 1, p)
        got = coop_probability(model)
        assert got == pytest.approx(probability, rel=1e-10, abs=1e-300)
        assert 0.0 <= got <= 1.0
        assert coop_expectation(model) == pytest.approx(expectation, rel=1e-10, abs=1e-300)

    def test_coop_table_mode_at_two_thousand_homes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--mode", "coop-table", "--meters", "2000", "--out", str(out)]) == 0
        rows = (out / "coop_table.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 10


class TestEnumerationOracle:
    def test_matches_closed_form_small(self):
        for n in range(1, 11):
            for tenth in range(1, 10):
                model = CoopModel(n, tenth / 10)
                probability, expectation = enumerate_oracle(model)
                assert probability == pytest.approx(coop_probability(model), abs=1e-12)
                assert expectation == pytest.approx(coop_expectation(model), abs=1e-12)

    def test_heterogeneous_golden_case(self):
        model = CoopModel(4, [0.2, 0.4, 0.6, 0.8])
        probability, expectation = enumerate_oracle(model, threshold=2)
        assert probability == pytest.approx(0.7152, abs=1e-12)
        assert expectation == pytest.approx(1.7536, abs=1e-12)

    def test_deterministic_homes(self):
        probability, expectation = enumerate_oracle(CoopModel(2, [1.0, 0.0]), threshold=1)
        assert probability == pytest.approx(1.0, abs=1e-15)
        assert expectation == pytest.approx(1.0, abs=1e-15)

    def test_zero_threshold_recovers_full_expectation(self):
        probability, expectation = enumerate_oracle(CoopModel(3, 0.5), threshold=0)
        assert probability == pytest.approx(1.0, abs=1e-12)
        assert expectation == pytest.approx(1.5, abs=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="enumeration limit"):
            enumerate_oracle(CoopModel(21, 0.5))

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            enumerate_oracle(CoopModel(3, 0.5), threshold=4)


class TestMeasureCoopState:
    def test_counts_strictly_below_share(self):
        # share 50 Wh; slot 0: q=2 of 3 -> cooperative; slot 1: the home
        # exactly at the share is not below it; slot 2 is off-peak
        readings = np.transpose([[10.0, 20.0, 120.0], [50.0, 80.0, 20.0], [10.0, 10.0, 10.0]])
        result = run_scenario(matrix_scenario(readings, peak_factor=150.0), noisy=False)
        observations = measure_coop_state(result)
        assert [o.slot for o in observations] == [0, 1]
        assert observations[0].q == 2 and observations[0].cooperative
        assert observations[1].q == 1 and not observations[1].cooperative

    def test_half_below_share_is_cooperative_for_even_n(self):
        readings = [[10.0], [20.0], [90.0], [80.0]]
        result = run_scenario(matrix_scenario(readings, peak_factor=200.0), noisy=False)
        observations = measure_coop_state(result)
        assert observations[0].q == 2
        assert observations[0].cooperative

    def test_accepts_full_scenario_result(self):
        scenario = matrix_scenario([[80.0], [10.0]], peak_factor=90.0)
        result = run_scenario(scenario, noisy=False)
        observations = measure_coop_state(result)
        assert len(observations) == 1
        assert observations[0].q == 1  # only the 10 Wh home is under the 45 Wh share
        assert observations[0].cooperative  # threshold for two homes is 1

    def test_below_count_complements_charged_count(self):
        scenario = matrix_scenario([[80.0, 30.0], [10.0, 20.0], [40.0, 15.0]], peak_factor=60.0)
        result = run_scenario(scenario, noisy=False)
        for slot_obs, slot_res in zip(measure_coop_state(result), result.slots):
            charged = sum(b.charged_peak for b in slot_res.bills)
            assert slot_obs.q + charged == 3


SHARES = (100.0, 250.0, 1000.0)


@st.composite
def coop_cases(draw):
    """Billed scenarios whose homes often sit exactly at the fair share.

    ``all-peak`` adds a last home that alone reaches the threshold in every
    slot; ``no-peak`` keeps every home below the share, in whole Wh, so
    every slot sum is exact and under the threshold.
    """
    regime = draw(st.sampled_from(("threshold", "all-peak", "no-peak")))
    n_meters = draw(st.integers(1, 10))
    n_slots = draw(st.integers(1, 10))
    share = draw(st.sampled_from(SHARES))
    if regime == "no-peak":
        cell = st.integers(0, int(share) - 1).map(float)
    else:
        cell = st.one_of(
            st.just(share),
            st.integers(0, 3 * int(share)).map(float),
            st.floats(0.0, 3.0 * share, allow_nan=False, allow_infinity=False),
        )
    size = n_meters * n_slots
    readings = np.reshape(draw(st.lists(cell, min_size=size, max_size=size)), (n_meters, n_slots))
    if regime == "all-peak":
        readings = np.vstack([readings, np.full(n_slots, 3.0 * share * (n_meters + 1))])
    scenario = matrix_scenario(
        readings,
        seed=draw(st.integers(0, 2**32 - 1)),
        peak_factor=share * readings.shape[0],
    )
    return scenario, regime, draw(st.booleans())


def coop_from_slot_view(result):
    """The cooperative state counted home by home over the per-slot view."""
    observed = []
    for slot in result.slots:
        if slot.peak_in_place:
            q = sum(bill.b_r < slot.average for bill in slot.bills)
            observed.append((slot.slot, q, q >= math.ceil(len(slot.bills) / 2)))
    return observed


class TestMeasureCoopStateMatchesSlotView:
    @settings(max_examples=150, deadline=None)
    @given(coop_cases())
    @example((matrix_scenario(np.full((4, 3), 250.0), peak_factor=1000.0), "threshold", False))
    def test_array_reader_equals_per_bill_count(self, case):
        scenario, regime, noisy = case
        result = run_scenario(scenario, noisy=noisy)
        observations = measure_coop_state(result)
        assert [(o.slot, o.q, o.cooperative) for o in observations] == coop_from_slot_view(result)
        assert all(type(o.slot) is int and type(o.q) is int for o in observations)
        assert all(type(o.cooperative) is bool for o in observations)
        if not noisy and regime == "all-peak":
            assert len(observations) == scenario.n_slots
        if not noisy and regime == "no-peak":
            assert observations == []
