"""The benchmark's workloads.

Each workload is a fixed sequence of rounds; a round is one or more ops.
Every op calls drdp in-process, through ``drdp.cli.main`` or the public
API, and writes into a fresh directory. Inputs the program reads (the
replay CSV, the oracle's per-home probabilities, the coop scenario's
readings) come from this module's own numpy code and the workload seed, so
two commits of drdp are always fed identical bytes.

drdp functions are looked up on their module at call time
(``cli.main``, ``billing.run_scenario``), so a traced run sees the calls.
"""
from __future__ import annotations

import gc
import hashlib
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from drdp import billing, cli, coop, metering, noise

SLOTS_PER_DAY = 144

# The peak threshold scales with the region: 1000 Wh per home. With the
# CLI default of 12000 Wh every slot at 1000 homes is a peak and the
# off-peak branch never runs; at 1000 Wh/home about a third of slots peak.
WH_PER_HOME = 1000.0
UNIT_PRICE = 10.0
PEAK_PRICE = 25.0

SWEEP_MODES = ("mae-sweep", "bill-error", "convergence", "baseline-compare")
# Full passes over the meter x slot matrix in one budget-sweep op:
# bill-error runs the zero-noise reference plus one run per budget,
# convergence a noisy and a zero-noise run, mae-sweep one meter-only pass
# per budget, baseline-compare a zero-noise run and the flat baseline.
SWEEP_PASSES = (len(checks.SWEEP_BUDGETS) + 1) + 2 + len(checks.SWEEP_BUDGETS) + 2

# Homes the retained-memory pass bills; bytes per meter-slot do not depend
# on it, and tracemalloc slows run_scenario about fivefold.
MEMORY_PASS_METERS = 100

_FIXTURE_KEY = 0x5EED


class OpFailed(Exception):
    """drdp returned a non-zero exit code."""


@dataclass(frozen=True)
class Checked:
    """An op's verified outputs: a digest of them, and its peak-slot share."""

    fingerprint: str
    peak_fraction: float | None = None


@dataclass(frozen=True)
class Op:
    kind: str
    seed: int
    run: Callable[[Path], Any]
    check: Callable[[Path, Any], Checked]
    meter_slots: int = 0  # meter-slot readings carried through, all passes
    rows_in: int = 0  # readings-file rows the op ingests
    outcomes: int = 0  # outcome vectors the op enumerates


@dataclass(frozen=True)
class Workload:
    name: str
    n_slots: int
    make_round: Callable[[int], list[Op]]

    def memory_pass(self, seed: int) -> tuple[float, float]:
        """Bytes one ``ScenarioResult`` retains per meter-slot, and its
        peak-slot share, on this workload's slot count (tracemalloc, untimed)."""
        scenario = _scenario(
            household_readings(np.random.default_rng([seed, _FIXTURE_KEY, 1]),
                               MEMORY_PASS_METERS, self.n_slots),
            seed,
        )
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = billing.run_scenario(scenario)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return retained / (scenario.n_meters * scenario.n_slots), result.peak_slot_count / scenario.n_slots


def op_seed(seed: int, round_index: int, kind_index: int = 0) -> int:
    """Per-op seed derived from the workload seed.

    Round 1 reuses round 0's seeds, so every run repeats one op exactly and
    the outputs can be compared byte for byte.
    """
    key = 0 if round_index == 1 else round_index
    return int(np.random.SeedSequence([seed, key, kind_index]).generate_state(1)[0])


def household_readings(rng: np.random.Generator, n_meters: int, n_slots: int) -> np.ndarray:
    """Two-peak daily household load in Wh per 10-minute slot.

    The benchmark's own generator, independent of ``drdp.synthesize``;
    values are rounded to the 3 decimals the replay CSV carries.
    """
    base = rng.uniform(600.0, 900.0, n_meters)
    morning = rng.uniform(300.0, 500.0, n_meters)
    evening = rng.uniform(500.0, 800.0, n_meters)
    slot_in_day = np.arange(n_slots) % SLOTS_PER_DAY
    morning_bump = np.exp(-((slot_in_day - 42) ** 2) / 200.0)
    evening_bump = np.exp(-((slot_in_day - 114) ** 2) / 200.0)
    load = (
        base[:, None]
        + morning[:, None] * morning_bump
        + evening[:, None] * evening_bump
        + rng.normal(0.0, 40.0, (n_meters, n_slots))
    )
    return np.round(np.clip(load, 0.0, None), 3)


def write_readings_csv(path: Path, readings: np.ndarray) -> None:
    lines = [
        f"{meter},{slot},{wh:.3f}"
        for meter, row in enumerate(readings.tolist())
        for slot, wh in enumerate(row)
    ]
    path.write_text("meter_id,slot,wh\n" + "\n".join(lines) + "\n", encoding="utf-8")


def files_fingerprint(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_cli(*args) -> None:
    code = cli.main([str(arg) for arg in args])
    if code != 0:
        raise OpFailed(f"drdp exited with code {code}")


def _tariff(n_meters: int) -> dict:
    return {"unit_price": UNIT_PRICE, "peak_price": PEAK_PRICE, "peak_factor": WH_PER_HOME * n_meters}


def _scenario(readings: np.ndarray, seed: int) -> metering.Scenario:
    n_meters, n_slots = readings.shape
    return metering.Scenario(
        n_meters=n_meters,
        n_slots=n_slots,
        readings=readings,
        tariff=billing.Tariff(**_tariff(n_meters)),
        meter_params=noise.PrivacyParams(0.5),
        grid_params=noise.PrivacyParams(0.5),
        seed=seed,
    )


def _run_op(kind: str, seed: int, source: tuple, n_meters: int, n_slots: int, rows_in: int = 0) -> Op:
    tariff = _tariff(n_meters)

    def run(out: Path) -> None:
        run_cli("--mode", "run", *source, "--peak-factor", tariff["peak_factor"],
                "--seed", seed, "--out", out)

    def check(out: Path, _) -> Checked:
        peaks = checks.check_run(out, n_meters, n_slots, tariff)
        return Checked(files_fingerprint(out), peaks / n_slots)

    return Op(kind, seed, run, check, meter_slots=n_meters * n_slots, rows_in=rows_in)


def bill_run(seed: int, work_dir: Path, n_meters: int = 1000, n_days: int = 3) -> Workload:
    """Synthetic ``--mode run``: the headline report-adjust-detect-bill path."""
    n_slots = n_days * SLOTS_PER_DAY
    source = ("--meters", n_meters, "--synth-days", n_days)

    def make_round(r: int) -> list[Op]:
        return [_run_op("run", op_seed(seed, r), source, n_meters, n_slots)]

    return Workload("bill-run", n_slots, make_round)


def csv_replay(seed: int, work_dir: Path, n_meters: int = 5000, n_slots: int = 144) -> Workload:
    """``--mode run --input``: wide and short, so per-meter costs and
    ingestion dominate; one readings file serves every op of the run."""
    path = work_dir / "readings.csv"
    rng = np.random.default_rng([seed, _FIXTURE_KEY, 0])
    write_readings_csv(path, household_readings(rng, n_meters, n_slots))

    def make_round(r: int) -> list[Op]:
        return [_run_op("run", op_seed(seed, r), ("--input", path), n_meters, n_slots,
                        rows_in=n_meters * n_slots)]

    return Workload("csv-replay", n_slots, make_round)


def budget_sweep(seed: int, work_dir: Path, n_meters: int = 100, n_days: int = 3) -> Workload:
    """The four metric modes in turn; the metrics layer re-runs the pipeline."""
    n_slots = n_days * SLOTS_PER_DAY

    def make_round(r: int) -> list[Op]:
        s = op_seed(seed, r)

        def run(out: Path) -> None:
            for mode in SWEEP_MODES:
                run_cli("--mode", mode, "--meters", n_meters, "--synth-days", n_days,
                        "--peak-factor", WH_PER_HOME * n_meters, "--seed", s, "--out", out / mode)

        def check(out: Path, _) -> Checked:
            checks.check_mae_sweep(out / "mae-sweep")
            checks.check_bill_error(out / "bill-error")
            checks.check_convergence(out / "convergence", n_slots)
            checks.check_baseline_compare(out / "baseline-compare", n_meters)
            return Checked(files_fingerprint(out))

        return [Op("sweep", s, run, check, meter_slots=SWEEP_PASSES * n_meters * n_slots)]

    return Workload("budget-sweep", n_slots, make_round)


def _coop_table_op(n: int) -> Op:
    def run(out: Path) -> None:
        run_cli("--mode", "coop-table", "--meters", n, "--out", out)

    def check(out: Path, _) -> Checked:
        checks.check_coop_table(out, n)
        return Checked(files_fingerprint(out))

    return Op(f"coop-table-{n}", 0, run, check)


def _oracle_op(seed: int, n_homes: int) -> Op:
    p_lu = np.random.default_rng(seed).uniform(0.05, 0.95, n_homes).tolist()

    def run(out: Path) -> tuple[float, float]:
        return coop.enumerate_oracle(coop.CoopModel(n_homes, p_lu))

    def check(out: Path, result) -> Checked:
        checks.check_oracle(p_lu, result)
        return Checked(repr(result))

    return Op(f"oracle-{n_homes}", seed, run, check, outcomes=2**n_homes)


def _coop_state_op(seed: int, n_meters: int, n_slots: int) -> Op:
    readings = household_readings(np.random.default_rng(seed), n_meters, n_slots)
    tariff = _tariff(n_meters)

    def run(out: Path):
        result = billing.run_scenario(_scenario(readings, seed))
        return result, coop.measure_coop_state(result)

    def check(out: Path, payload) -> Checked:
        result, observations = payload
        peaks = checks.check_scenario_state(result, observations, tariff)
        digest = hashlib.sha256()
        for array in (result.protected, result.adjusted, result.bills_cents):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(repr(observations).encode())
        return Checked(digest.hexdigest(), peaks / n_slots)

    return Op("coop-state", seed, run, check, meter_slots=n_meters * n_slots)


def coop_analytics(
    seed: int,
    work_dir: Path,
    table_homes: tuple[int, ...] = (1000, 2000),
    oracle_homes: int = 20,
    n_meters: int = 100,
    n_days: int = 3,
) -> Workload:
    """A fixed rotation of closed forms, the enumeration oracle, and a
    billed scenario read back by ``measure_coop_state``.

    ``coop-table`` at 2000 homes overflows a float today; it stays in the
    rotation as a failing op so the defect shows in the error rate.
    """
    n_slots = n_days * SLOTS_PER_DAY

    def make_round(r: int) -> list[Op]:
        return [
            *(_coop_table_op(n) for n in table_homes),
            _oracle_op(op_seed(seed, r, 1), oracle_homes),
            _coop_state_op(op_seed(seed, r, 2), n_meters, n_slots),
        ]

    return Workload("coop-analytics", n_slots, make_round)


WORKLOADS = {
    "bill-run": bill_run,
    "csv-replay": csv_replay,
    "budget-sweep": budget_sweep,
    "coop-analytics": coop_analytics,
}
