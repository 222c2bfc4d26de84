"""Output checks for benchmark ops.

Every check tests invariants that any correct implementation satisfies,
whatever order it draws its random numbers in: row counts, signs, the
inclusive peak rule, prices, totals, and the paper's accuracy thresholds.
None of them compares against previously recorded bytes, so a deliberate
re-keying of the noise streams does not read as a failure. Each check
raises ``CheckError`` on the first violation it finds.
"""
from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

REPORT_HEADER = "slot,meter_id,b_r_wh,peak_in_place,charged_peak,bill_cents,deviation_wh"

# Budgets of the sweep modes; the meter-slot count of a budget-sweep op
# assumes exactly these.
SWEEP_BUDGETS = (0.01, 0.1, 0.5, 1.0, 2.0)

# Paper thresholds: MAE within 10% of delta_f/epsilon (C2), accumulated
# bill error at most 5% (C3).
MAE_TOLERANCE = 0.10
BILL_ERROR_LIMIT = 0.05

# Half a unit in the last printed place of ``%.6f`` Wh and ``%.2f`` cents,
# plus a little for the float arithmetic done on the printed values.
WH_HALF_ULP = 5e-7 + 1e-9
CENT_HALF_ULP = 5e-3 + 1e-6


class CheckError(Exception):
    """An op produced output that violates an invariant."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines and lines[0] == header, f"{path.name}: header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_run(out_dir: Path, n_meters: int, n_slots: int, tariff: dict) -> int:
    """Check ``report.csv`` and ``summary.json`` of a ``--mode run`` op.

    ``tariff`` holds ``unit_price``, ``peak_price`` and ``peak_factor``.
    Returns the number of peak slots.
    """
    text = (out_dir / "report.csv").read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    _require(header == REPORT_HEADER, f"report.csv: unexpected header {header!r}")
    # The deviation column is empty off-peak.
    body = body.replace(",\n", ",nan\n")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _require(data.shape == (n_meters * n_slots, 7),
             f"report.csv: {data.shape[0]} rows, expected {n_meters * n_slots}")
    order = np.lexsort((data[:, 1], data[:, 0]))
    grid = data[order].reshape(n_slots, n_meters, 7)
    slot, meter, b_r, peak, charged, bill, deviation = np.moveaxis(grid, 2, 0)
    _require(np.array_equal(slot, np.repeat(np.arange(n_slots), n_meters).reshape(n_slots, n_meters)),
             "report.csv: every slot must hold one row per meter")
    _require((meter == meter[:1]).all() and len(np.unique(meter[0])) == n_meters,
             "report.csv: every slot must list the same distinct meters")
    _require(np.isfinite(b_r).all() and (b_r >= 0).all(), "report.csv: negative or non-finite b_r")
    _require(np.isin(peak, (0, 1)).all() and np.isin(charged, (0, 1)).all(),
             "report.csv: peak flags must be 0 or 1")
    _require((peak == peak[:, :1]).all(), "report.csv: peak_in_place differs within a slot")
    _require((charged <= peak).all(), "report.csv: charged_peak outside a peak slot")

    peak_factor = tariff["peak_factor"]
    share = peak_factor / n_meters
    slot_peak = peak[:, 0] == 1
    sums = b_r.sum(axis=1)
    slack = n_meters * WH_HALF_ULP
    _require(not (slot_peak & (sums + slack < peak_factor)).any(),
             "report.csv: peak slot whose regional sum is below the threshold")
    _require(not (~slot_peak & (sums - slack >= peak_factor)).any(),
             "report.csv: off-peak slot whose regional sum reaches the threshold")
    in_peak = slot_peak[:, None]
    must_charge = in_peak & (b_r - WH_HALF_ULP >= share)
    must_not = in_peak & (b_r + WH_HALF_ULP < share)
    _require(not (must_charge & (charged == 0)).any(), "report.csv: home at or above the share not charged peak")
    _require(not (must_not & (charged == 1)).any(), "report.csv: home below the share charged peak")
    price = np.where(charged == 1, tariff["peak_price"], tariff["unit_price"])
    _require((np.abs(bill - b_r * price) <= CENT_HALF_ULP + price * WH_HALF_ULP).all(),
             "report.csv: bill_cents != b_r x price")
    _require(np.isnan(deviation[~slot_peak]).all(), "report.csv: deviation outside a peak slot")
    peak_dev = deviation[slot_peak]
    _require((np.abs(peak_dev - np.abs(b_r[slot_peak] - share)) <= 3 * WH_HALF_ULP).all(),
             "report.csv: deviation != |b_r - share| in a peak slot")

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    _require(summary["n_meters"] == n_meters and summary["n_slots"] == n_slots,
             "summary.json: wrong shape")
    peak_slots = int(slot_peak.sum())
    _require(summary["peak_slot_count"] == peak_slots,
             f"summary.json: peak_slot_count {summary['peak_slot_count']} != {peak_slots} peak slots")
    meters = summary["meters"]
    _require([m["meter_id"] for m in meters] == sorted(int(m) for m in meter[0]),
             "summary.json: meter ids differ from report.csv")
    row_totals = dict(zip(meter[0].astype(int).tolist(), bill.sum(axis=0).tolist()))
    per_meter_slack = n_slots * CENT_HALF_ULP + CENT_HALF_ULP
    for entry in meters:
        gap = abs(entry["total_cents"] - row_totals[entry["meter_id"]])
        _require(gap <= per_meter_slack,
                 f"summary.json: meter {entry['meter_id']} total is {gap:.4f} cents off its rows")
    total = math.fsum(m["total_cents"] for m in meters)
    _require(abs(summary["total_bill_cents"] - total) <= (n_meters + 1) * CENT_HALF_ULP,
             "summary.json: total_bill_cents != sum of meter totals")
    adjusted = math.fsum(b_r.ravel().tolist())
    _require(abs(summary["total_adjusted_wh"] - adjusted) <= (n_meters * n_slots + 1) * WH_HALF_ULP,
             "summary.json: total_adjusted_wh != sum of b_r")
    return peak_slots


def _series(path: Path, header: str) -> list[tuple[float, float]]:
    return [(float(x), float(y)) for x, y in _rows(path, header)]


def check_mae_sweep(out_dir: Path, delta_f: float = 1.0) -> None:
    points = _series(out_dir / "mae_sweep.csv", "epsilon,mae_wh")
    _require(tuple(x for x, _ in points) == SWEEP_BUDGETS, f"mae_sweep.csv: budgets {points}")
    for epsilon, value in points:
        expected = delta_f / epsilon
        _require(abs(value - expected) <= MAE_TOLERANCE * expected,
                 f"mae_sweep.csv: MAE {value} at epsilon={epsilon}, expected {expected} +-10%")
    _require(all(b <= a for (_, a), (_, b) in zip(points, points[1:])),
             "mae_sweep.csv: MAE increases with the budget")


def check_bill_error(out_dir: Path) -> None:
    points = _series(out_dir / "bill_error.csv", "epsilon,relative_error")
    _require(tuple(x for x, _ in points) == SWEEP_BUDGETS, f"bill_error.csv: budgets {points}")
    for epsilon, value in points:
        _require(0 <= value <= BILL_ERROR_LIMIT,
                 f"bill_error.csv: error {value} at epsilon={epsilon} exceeds 5%")


def check_convergence(out_dir: Path, n_slots: int) -> None:
    points = _series(out_dir / "convergence.csv", "slots,relative_error")
    _require([x for x, _ in points] == list(range(1, n_slots + 1)),
             "convergence.csv: one point per slot expected")
    _require(all(math.isfinite(y) and y >= 0 for _, y in points),
             "convergence.csv: negative or non-finite error")


def check_baseline_compare(out_dir: Path, n_meters: int) -> None:
    rows = _rows(out_dir / "baseline_compare.csv", "meter_id,dynamic_cents,flat_peak_cents")
    _require(len(rows) == n_meters, f"baseline_compare.csv: {len(rows)} rows")
    for meter_id, dynamic, flat in rows:
        _require(0 < float(dynamic) <= float(flat) + 2 * CENT_HALF_ULP,
                 f"baseline_compare.csv: meter {meter_id} pays more than flat-peak")


def binomial_tail(n: int, p: float) -> tuple[float, float]:
    """``P(X >= ceil(n/2))`` and ``E[X; X >= ceil(n/2)]`` for X ~ Bin(n, p),
    summed in log space so it holds for any n."""
    q = np.arange(math.ceil(n / 2), n + 1)
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in q])
    with np.errstate(divide="ignore"):
        log_pmf = log_comb + q * np.log(p) + (n - q) * np.log1p(-p)
    pmf = np.exp(log_pmf)
    return float(pmf.sum()), float((q * pmf).sum())


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= 1e-12 + 1e-8 * abs(reference)


def check_coop_table(out_dir: Path, n: int) -> None:
    rows = _rows(out_dir / "coop_table.csv", "p_lu,coop_probability,expected_cooperators")
    _require([r[0] for r in rows] == [f"{k / 10:.1f}" for k in range(1, 10)],
             "coop_table.csv: p_lu must be 0.1..0.9")
    probabilities = [float(r[1]) for r in rows]
    _require(all(0.0 <= p <= 1.0 for p in probabilities), "coop_table.csv: probability outside [0, 1]")
    _require(all(b >= a for a, b in zip(probabilities, probabilities[1:])),
             "coop_table.csv: probability not monotone in p")
    for p_text, probability, expectation in rows:
        ref_p, ref_e = binomial_tail(n, float(p_text))
        _require(_close(float(probability), ref_p) and _close(float(expectation), ref_e),
                 f"coop_table.csv: p={p_text} gives ({probability}, {expectation}), "
                 f"expected ({ref_p:.10g}, {ref_e:.10g})")


def check_oracle(p_lu, result: tuple[float, float]) -> None:
    """Compare ``enumerate_oracle`` with a Poisson-binomial convolution."""
    pmf = np.ones(1)
    for p in p_lu:
        pmf = np.convolve(pmf, [1.0 - p, p])
    q = np.arange(len(pmf))
    tail = q >= math.ceil(len(p_lu) / 2)
    ref_p, ref_e = float(pmf[tail].sum()), float((q * pmf)[tail].sum())
    probability, expectation = result
    _require(0.0 <= probability <= 1.0, f"oracle: probability {probability} outside [0, 1]")
    _require(_close(probability, ref_p) and _close(expectation, ref_e),
             f"oracle: {result} != ({ref_p}, {ref_e})")


def check_scenario_state(result, observations, tariff: dict) -> int:
    """Check a ``ScenarioResult`` and ``measure_coop_state`` over it.

    Returns the number of peak slots.
    """
    adjusted = np.asarray(result.adjusted)
    bills = np.asarray(result.bills_cents)
    n_meters, n_slots = adjusted.shape
    _require(np.isfinite(adjusted).all() and (adjusted >= 0).all(), "scenario: negative or non-finite b_r")
    peak_factor = tariff["peak_factor"]
    share = peak_factor / n_meters
    sums = adjusted.sum(axis=0)
    # Pairwise summation may differ from the program's in the last bits.
    near = np.abs(sums - peak_factor) <= 1e-9 * peak_factor
    peak_slots = [o.slot for o in observations]
    _require(len(peak_slots) == result.peak_slot_count, "coop state: one observation per peak slot expected")
    peak = np.zeros(n_slots, dtype=bool)
    peak[peak_slots] = True
    _require(((sums >= peak_factor) == peak)[~near].all(), "scenario: peak slots disagree with the regional sums")
    charged = peak[None, :] & (adjusted >= share)
    price = np.where(charged, tariff["peak_price"], tariff["unit_price"])
    _require(np.allclose(bills, adjusted * price, rtol=1e-12, atol=0.0), "scenario: bill != b_r x price")
    _require(np.allclose(result.totals_cents, bills.sum(axis=1), rtol=1e-12, atol=1e-6),
             "scenario: totals != summed bills")
    majority = math.ceil(n_meters / 2)
    for obs in observations:
        q = int((adjusted[:, obs.slot] < share).sum())
        _require(obs.q == q and obs.cooperative == (q >= majority),
                 f"coop state: slot {obs.slot} reads q={obs.q}, expected {q}")
    return len(observations)
