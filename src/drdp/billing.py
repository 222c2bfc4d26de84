"""Grid-utility side: noise adjustment, regional peak detection, and
per-home dynamic billing.

The utility never sees true readings. It works from the protected reports:
it subtracts fresh noise magnitudes, sums the region to decide whether a
peak is in place, and bills each home against the fair per-home share of
the peak threshold — homes at or above the share pay the peak price, homes
below it keep the base price. Every stage is one whole-array operation on
the ``(n_meters, n_slots)`` matrix.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .metering import Scenario, report_readings
from .noise import adjust_reading, spawn_streams

__all__ = [
    "Tariff",
    "ScenarioResult",
    "OpCounter",
    "run_scenario",
    "baseline_flat_peak_bill",
]


@dataclass(frozen=True)
class Tariff:
    """Pricing parameters: base and peak price per Wh, and the regional
    consumption threshold (in Wh) at which a slot counts as a peak."""

    unit_price: float = 10.0
    peak_price: float = 25.0
    peak_factor: float = 12000.0

    def __post_init__(self) -> None:
        for name in ("unit_price", "peak_price", "peak_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.peak_price <= self.unit_price:
            warnings.warn(
                f"peak_price {self.peak_price} does not exceed unit_price "
                f"{self.unit_price}; peak slots carry no surcharge",
                stacklevel=2,
            )


@dataclass(frozen=True)
class MeterSlotBill:
    """One home's bill for one slot.

    ``d_f`` is the Wh distance from the slot's fair share, only defined
    while a peak is in place.
    """

    meter_id: int
    b_r: float
    charged_peak: bool
    i_b: float
    d_f: float | None


@dataclass(frozen=True)
class SlotBillingResult:
    """Outcome of billing one slot across the whole region."""

    slot: int
    peak_in_place: bool
    regional_sum: float
    average: float | None
    bills: tuple[MeterSlotBill, ...]


@dataclass(frozen=True)
class ScenarioResult:
    """Dense outcome of a scenario: one ``(n_meters, n_slots)`` array per
    stage, plus the per-slot peak flags and regional sums (``regional_wh``).

    Row order in every matrix matches ``scenario.meter_ids``. ``charged``
    marks the meter-slots billed at the peak price; ``share`` is the fair
    per-home share of the peak threshold, in Wh.
    """

    scenario: Scenario
    protected: np.ndarray
    adjusted: np.ndarray
    bills_cents: np.ndarray
    totals_cents: np.ndarray
    peak: np.ndarray
    charged: np.ndarray
    share: float
    regional_wh: np.ndarray

    @functools.cached_property
    def slots(self) -> tuple[SlotBillingResult, ...]:
        """Per-slot, per-home view of the arrays, built on first access."""
        share = self.share
        regional_sums = self.regional_wh.tolist()
        views = []
        for slot, peak in enumerate(self.peak.tolist()):
            bills = tuple(
                MeterSlotBill(meter_id, b_r, charged, i_b, abs(b_r - share) if peak else None)
                for meter_id, b_r, charged, i_b in zip(
                    self.scenario.meter_ids,
                    self.adjusted[:, slot].tolist(),
                    self.charged[:, slot].tolist(),
                    self.bills_cents[:, slot].tolist(),
                )
            )
            views.append(
                SlotBillingResult(slot, peak, regional_sums[slot], share if peak else None, bills)
            )
        return tuple(views)

    @property
    def peak_slot_count(self) -> int:
        return int(self.peak.sum())

    @property
    def total_adjusted_wh(self) -> float:
        return float(_ordered_sum(self.regional_wh, axis=0))

    @property
    def total_bill_cents(self) -> float:
        return float(_ordered_sum(self.totals_cents, axis=0))


@dataclass
class OpCounter:
    """Tally of per-meter sub-operations, for scaling measurements."""

    protect: int = 0
    adjust: int = 0
    sum_terms: int = 0
    bill: int = 0

    @property
    def total(self) -> int:
        return self.protect + self.adjust + self.sum_terms + self.bill


def _ordered_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """The one summation order of every total: add along ``axis`` one index
    at a time, in index order, like a Python ``sum``, whatever the array's
    length or memory layout. Returns a copy, not a view of the running sum."""
    return np.cumsum(values, axis=axis).take(-1, axis=axis)


def _bill(
    basis: np.ndarray, tariff: Tariff, share: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The peak and price rule: a slot whose regional sum reaches the
    threshold is a peak, and during a peak the homes at or above ``share``
    pay the peak price. Returns ``(regional_wh, peak, charged, bills_cents)``."""
    regional_wh = _ordered_sum(basis, axis=0)
    peak = regional_wh >= tariff.peak_factor
    charged = peak & (basis >= share)
    bills_cents = basis * np.where(charged, tariff.peak_price, tariff.unit_price)
    return regional_wh, peak, charged, bills_cents


def run_scenario(
    scenario: Scenario,
    *,
    noisy: bool = True,
    counter: OpCounter | None = None,
) -> ScenarioResult:
    """Run the report-adjust-detect-bill pipeline over the whole matrix.

    With ``noisy=False`` both perturbation stages are skipped and billing
    operates on the true readings; everything else is unchanged. Pass an
    ``OpCounter`` to tally per-meter sub-operations.
    """
    if noisy:
        _, grid_rng, meter_rngs = spawn_streams(scenario.seed, scenario.n_meters)
        protected = report_readings(scenario, meter_rngs)
        # The grid stream is drawn slot by slot, meters within a slot.
        adjusted = adjust_reading(protected.T, scenario.grid_params, grid_rng).T
    else:
        protected = adjusted = scenario.readings
    share = scenario.tariff.peak_factor / scenario.n_meters
    regional_wh, peak, charged, bills_cents = _bill(adjusted, scenario.tariff, share)
    if counter is not None:
        counter.protect += adjusted.size
        counter.adjust += adjusted.size
        counter.sum_terms += adjusted.size
        counter.bill += adjusted.size
    return ScenarioResult(
        scenario=scenario,
        protected=protected,
        adjusted=adjusted,
        bills_cents=bills_cents,
        totals_cents=_ordered_sum(bills_cents, axis=1),
        peak=peak,
        charged=charged,
        share=share,
        regional_wh=regional_wh,
    )


def baseline_flat_peak_bill(readings: np.ndarray, tariff: Tariff) -> np.ndarray:
    """Reference pricing without per-home differentiation.

    Whenever the regional sum reaches the threshold, every home pays the
    peak price for that slot — including homes consuming well below the
    fair share. That is the main pipeline's rule with a share of zero, so
    the comparison isolates the billing policy. Returns accumulated
    per-meter totals in cents.
    """
    readings = np.asarray(readings, dtype=float)
    if readings.ndim != 2 or 0 in readings.shape:
        raise ValueError(
            f"expected a meter-by-slot matrix with at least one meter and slot, got shape {readings.shape}"
        )
    # A zero share charges every home only if no reading is below zero.
    if not np.all(readings >= 0):
        raise ValueError("readings must be non-negative")
    _, _, _, bills_cents = _bill(readings, tariff, 0.0)
    return _ordered_sum(bills_cents, axis=1)
