"""Smart-meter side: reading ingestion, synthetic load generation, and
protected reporting of the whole meter-by-slot matrix.

A scenario bundles the true consumption matrix with tariff and perturbation
parameters; meters never see each other's data and only ever emit protected
values.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .noise import FIRST_METER_KEY, PrivacyParams, keyed_stream, protect_reading

if TYPE_CHECKING:
    from .billing import Tariff

__all__ = [
    "SLOTS_PER_DAY",
    "LoadProfile",
    "Scenario",
    "load_csv",
    "synthesize",
    "report_readings",
]

# 10-minute metering cadence.
SLOTS_PER_DAY = 144


@dataclass(frozen=True)
class LoadProfile:
    """Two-peak daily household load shape for the synthetic generator.

    Each meter draws its base load and its morning/evening peak amplitudes
    uniformly from the given (low, high) ranges; the peaks are Gaussian bumps
    in the slot index, and slot-level normal noise is added on top.
    ``amplitude_scale`` optionally rescales both peak amplitudes per meter,
    which is how low-usage (cooperative) homes are modelled.
    """

    base_wh: tuple[float, float] = (650.0, 850.0)
    morning_amp_wh: tuple[float, float] = (300.0, 500.0)
    evening_amp_wh: tuple[float, float] = (500.0, 700.0)
    morning_center: int = 48
    evening_center: int = 114
    peak_width_slots: float = 10.0
    noise_sd_wh: float = 40.0
    amplitude_scale: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("base_wh", "morning_amp_wh", "evening_amp_wh"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError(f"{name} must satisfy 0 <= low <= high, got ({lo}, {hi})")
        if self.peak_width_slots <= 0:
            raise ValueError("peak_width_slots must be positive")
        if self.noise_sd_wh < 0:
            raise ValueError("noise_sd_wh must be non-negative")
        if self.amplitude_scale is not None and any(s < 0 for s in self.amplitude_scale):
            raise ValueError("amplitude_scale entries must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one billing experiment end to end."""

    n_meters: int
    n_slots: int
    readings: np.ndarray
    tariff: "Tariff"
    meter_params: PrivacyParams
    grid_params: PrivacyParams
    seed: int
    meter_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_meters < 1:
            raise ValueError(f"n_meters must be at least 1, got {self.n_meters}")
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be at least 1, got {self.n_slots}")
        readings = np.ascontiguousarray(self.readings, dtype=float)
        if readings.shape != (self.n_meters, self.n_slots):
            raise ValueError(
                f"readings shape {readings.shape} does not match "
                f"({self.n_meters}, {self.n_slots})"
            )
        if not np.all(np.isfinite(readings)):
            raise ValueError("readings must be finite")
        if np.any(readings < 0):
            meter, slot = np.argwhere(readings < 0)[0]
            raise ValueError(f"negative reading at meter index {meter}, slot {slot}")
        object.__setattr__(self, "readings", readings)
        if not self.meter_ids:
            object.__setattr__(self, "meter_ids", tuple(range(self.n_meters)))
        elif len(self.meter_ids) != self.n_meters:
            raise ValueError(
                f"{len(self.meter_ids)} meter ids for {self.n_meters} meters"
            )


def load_csv(path: str) -> tuple[tuple[int, ...], np.ndarray]:
    """Parse a readings file into meter ids and a dense meter-by-slot matrix.

    Expected header: ``meter_id,slot,wh``. All meters must cover the same
    contiguous slot range; slot numbering may start anywhere and is
    normalised to zero. Rows may appear in any order.
    """
    per_meter: dict[int, dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["meter_id", "slot", "wh"]:
            raise ValueError(f"{path}: expected header 'meter_id,slot,wh', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                meter_id = int(row[0])
                slot = int(row[1])
                wh = float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from exc
            if not math.isfinite(wh):
                raise ValueError(f"{path}:{lineno}: non-finite Wh value {row[2]!r}")
            if wh < 0:
                raise ValueError(
                    f"{path}:{lineno}: negative Wh {wh} for meter {meter_id}, slot {slot}"
                )
            slots = per_meter.setdefault(meter_id, {})
            if slot in slots:
                raise ValueError(
                    f"{path}:{lineno}: duplicate reading for meter {meter_id}, slot {slot}"
                )
            slots[slot] = wh
    if not per_meter:
        raise ValueError(f"{path}: no readings")
    all_slots = sorted({slot for slots in per_meter.values() for slot in slots})
    low, high = all_slots[0], all_slots[-1]
    expected = range(low, high + 1)
    meter_ids = tuple(sorted(per_meter))
    for meter_id in meter_ids:
        have = per_meter[meter_id].keys()
        missing = [slot for slot in expected if slot not in have]
        if missing:
            raise ValueError(
                f"{path}: meter {meter_id} is missing slot {missing[0]} "
                f"(every meter must cover slots {low}..{high} contiguously)"
            )
    matrix = np.array(
        [[per_meter[meter_id][slot] for slot in expected] for meter_id in meter_ids],
        dtype=float,
    )
    return meter_ids, matrix


def synthesize(
    n_meters: int,
    n_days: int,
    profile: LoadProfile,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a ``(n_meters, n_days * SLOTS_PER_DAY)`` consumption matrix.

    Fully determined by the profile and the RNG state.
    """
    if n_meters < 1:
        raise ValueError(f"n_meters must be at least 1, got {n_meters}")
    if n_days < 1:
        raise ValueError(f"n_days must be at least 1, got {n_days}")
    if profile.amplitude_scale is not None and len(profile.amplitude_scale) != n_meters:
        raise ValueError(
            f"amplitude_scale has {len(profile.amplitude_scale)} entries "
            f"for {n_meters} meters"
        )
    if profile.morning_amp_wh[1] == 0 and profile.evening_amp_wh[1] == 0:
        warnings.warn(
            "profile has zero peak amplitude everywhere; the daily shape is flat",
            stacklevel=2,
        )
    n_slots = n_days * SLOTS_PER_DAY
    base = rng.uniform(*profile.base_wh, size=n_meters)
    morning_amp = rng.uniform(*profile.morning_amp_wh, size=n_meters)
    evening_amp = rng.uniform(*profile.evening_amp_wh, size=n_meters)
    noise = rng.normal(0.0, profile.noise_sd_wh, size=(n_meters, n_slots))
    if profile.amplitude_scale is not None:
        scale = np.asarray(profile.amplitude_scale, dtype=float)
        morning_amp = morning_amp * scale
        evening_amp = evening_amp * scale
    slot_in_day = np.arange(n_slots) % SLOTS_PER_DAY
    width_sq = 2.0 * profile.peak_width_slots**2
    morning_bump = np.exp(-((slot_in_day - profile.morning_center) ** 2) / width_sq)
    evening_bump = np.exp(-((slot_in_day - profile.evening_center) ** 2) / width_sq)
    readings = (
        base[:, None]
        + morning_amp[:, None] * morning_bump[None, :]
        + evening_amp[:, None] * evening_bump[None, :]
        + noise
    )
    return np.clip(readings, 0.0, None)


def report_readings(scenario: Scenario) -> np.ndarray:
    """Have every meter report protected values for all of its slots.

    Each meter perturbs its own row with its own stream, slot by slot;
    nothing is shared between meters. Returns a ``(n_meters, n_slots)``
    array in ``scenario.meter_ids`` order.
    """
    reports = np.empty_like(scenario.readings)
    for m, row in enumerate(scenario.readings):
        rng = keyed_stream(scenario.seed, FIRST_METER_KEY + m)
        reports[m] = protect_reading(row, scenario.meter_params, rng)
    return reports
