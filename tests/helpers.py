"""Shared scenario builders and reference implementations for the test suite."""
import csv
import io

import numpy as np

from drdp import (
    LoadProfile,
    PrivacyParams,
    Scenario,
    Tariff,
    sample_laplace,
    synthesize,
)
from drdp.cli import REPORT_HEADER


def spawn_streams(seed, n_meters):
    """The seed layout by ``SeedSequence.spawn``: ``(synthesis, grid,
    meters)`` from children 0, 1 and 2 .. n_meters + 1 of the master seed.

    The package builds each stream from its key instead; this spells out
    the same layout a second way, as the oracle for the reference runs.
    """
    children = np.random.SeedSequence(seed).spawn(n_meters + 2)
    synthesis, grid, *meters = (np.random.default_rng(child) for child in children)
    return synthesis, grid, meters


def synth_scenario(
    n_meters=10,
    n_days=3,
    *,
    epsilon=0.5,
    epsilon2=None,
    mu=0.0,
    delta_f=1.0,
    seed=42,
    peak_factor=12000.0,
    unit_price=10.0,
    peak_price=25.0,
    amplitude_scale=None,
):
    """Synthetic household scenario with the standard two-peak profile."""
    profile = LoadProfile(amplitude_scale=amplitude_scale)
    synthesis_rng, _, _ = spawn_streams(seed, n_meters)
    readings = synthesize(n_meters, n_days, profile, synthesis_rng)
    return Scenario(
        n_meters=n_meters,
        n_slots=readings.shape[1],
        readings=readings,
        tariff=Tariff(unit_price, peak_price, peak_factor),
        meter_params=PrivacyParams(epsilon, mu, delta_f),
        grid_params=PrivacyParams(epsilon if epsilon2 is None else epsilon2, mu, delta_f),
        seed=seed,
    )


def matrix_scenario(
    readings,
    *,
    epsilon=0.5,
    seed=7,
    peak_factor=12000.0,
    unit_price=10.0,
    peak_price=25.0,
    delta_f=1.0,
):
    """Scenario wrapping an explicit meter-by-slot readings matrix."""
    readings = np.asarray(readings, dtype=float)
    return Scenario(
        n_meters=readings.shape[0],
        n_slots=readings.shape[1],
        readings=readings,
        tariff=Tariff(unit_price, peak_price, peak_factor),
        meter_params=PrivacyParams(epsilon, 0.0, delta_f),
        grid_params=PrivacyParams(epsilon, 0.0, delta_f),
        seed=seed,
    )


def reference_run(scenario, *, noisy=True):
    """The report-adjust-detect-bill rules, one scalar draw at a time.

    Draw order is that of a per-slot pipeline: each meter's stream slot by
    slot, and the grid stream slot-major, meter-minor. Each slot and each
    meter's bills are summed with Python ``sum``. Returns ``(protected,
    adjusted, bills_cents, totals_cents)`` for comparison with
    ``run_scenario``.
    """
    _, grid_rng, meter_rngs = spawn_streams(scenario.seed, scenario.n_meters)
    meter, grid, tariff = scenario.meter_params, scenario.grid_params, scenario.tariff
    n_meters, n_slots = scenario.n_meters, scenario.n_slots
    share = tariff.peak_factor / n_meters
    protected = np.empty((n_meters, n_slots))
    adjusted = np.empty((n_meters, n_slots))
    bills = np.empty((n_meters, n_slots))
    for m in range(n_meters):
        for s in range(n_slots):
            noise = sample_laplace(meter.mu, meter.scale, meter_rngs[m]).magnitude if noisy else 0.0
            protected[m, s] = float(scenario.readings[m, s]) + noise
    for s in range(n_slots):
        column = []
        for m in range(n_meters):
            noise = sample_laplace(grid.mu, grid.scale, grid_rng).magnitude if noisy else 0.0
            column.append(max(float(protected[m, s]) - noise, 0.0))
        peak = sum(column) >= tariff.peak_factor
        for m, b_r in enumerate(column):
            adjusted[m, s] = b_r
            bills[m, s] = b_r * (tariff.peak_price if peak and b_r >= share else tariff.unit_price)
    return protected, adjusted, bills, row_sums(bills)


def reference_flat_bill(readings, tariff):
    """Flat-peak totals, one slot and one home at a time: in a slot whose
    Python ``sum`` reaches the threshold every home pays the peak price.
    Each home's bills are added with Python ``sum``."""
    readings = np.asarray(readings, dtype=float)
    bills = np.empty(readings.shape)
    for s, column in enumerate(readings.T.tolist()):
        price = tariff.peak_price if sum(column) >= tariff.peak_factor else tariff.unit_price
        for m, reading in enumerate(column):
            bills[m, s] = reading * price
    return row_sums(bills)


def row_sums(matrix):
    """Python ``sum`` of each row: the slots of a meter added in order."""
    return np.array([sum(row) for row in np.asarray(matrix).tolist()])


def report_rows(result):
    """``report.csv`` rows, slot-major, formatted one Python value at a time."""
    share = result.share
    meter_ids = result.scenario.meter_ids
    for slot, peak in enumerate(result.peak.tolist()):
        columns = zip(
            meter_ids,
            result.adjusted[:, slot].tolist(),
            result.charged[:, slot].tolist(),
            result.bills_cents[:, slot].tolist(),
        )
        for meter_id, b_r, charged, bill in columns:
            deviation = f"{abs(b_r - share):.6f}" if peak else ""
            yield (slot, meter_id, f"{b_r:.6f}", int(peak), int(charged), f"{bill:.2f}", deviation)


def reference_report(result) -> bytes:
    """The bytes of ``report.csv`` as ``csv.writer`` writes ``report_rows``:
    the reference for the array emitter."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    writer.writerows(report_rows(result))
    return text.getvalue().encode("utf-8")
