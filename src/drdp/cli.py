"""Command-line harness.

One executable, six modes: a full billing run, three metric sweeps, the
cooperative-state table, and a comparison against flat-peak pricing.
Settings come from defaults, an optional ``key=value`` config file, and
command-line flags, in increasing order of precedence. All outputs are
deterministic for a given resolved config.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .billing import Tariff, _ordered_sum, baseline_flat_peak_bill, run_scenario
from .coop import CoopModel, coop_expectation, coop_probability
from .metering import SLOTS_PER_DAY, LoadProfile, Scenario, load_csv, synthesize
from .metrics import (
    DEFAULT_EPSILON_SWEEP,
    MetricSeries,
    bill_error_series,
    convergence_series,
    mae_sweep,
)
from .noise import SYNTHESIS_KEY, PrivacyParams, keyed_stream

__all__ = ["MODES", "RunConfig", "ConfigError", "parse_config", "execute", "main"]

MODES = (
    "run",
    "mae-sweep",
    "bill-error",
    "convergence",
    "coop-table",
    "baseline-compare",
)

REPORT_HEADER = (
    "slot",
    "meter_id",
    "b_r_wh",
    "peak_in_place",
    "charged_peak",
    "bill_cents",
    "deviation_wh",
)

# Peak-amplitude multiplier applied to the first meter in baseline-compare
# runs on synthetic data, so the comparison includes one low-usage home.
COOPERATIVE_HOME_SCALE = 0.15


class ConfigError(Exception):
    """Invalid settings: bad values, unknown keys, or conflicting sources."""


@dataclass
class RunConfig:
    """Fully resolved settings for one invocation."""

    input: str | None = None
    n_days: int = 3
    n_meters: int = 10
    epsilon1: float = 0.5
    epsilon2: float = 0.5
    delta_f1: float = 1.0
    delta_f2: float = 1.0
    mu: float = 0.0
    peak_factor: float = 12000.0
    unit_price: float = 10.0
    peak_price: float = 25.0
    seed: int = 42
    output_dir: str = "reports"
    mode: str = "run"


# Each setting parses as the type of its default; the one None default is a path.
_FIELD_PARSERS = {
    field.name: str if field.default is None else type(field.default)
    for field in dataclasses.fields(RunConfig)
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports problems as ConfigError instead of
    exiting, so the caller controls the exit code."""

    def error(self, message: str) -> None:
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="drdp",
        description=(
            "Differentially private smart-meter reporting with peak-aware "
            "dynamic billing."
        ),
    )
    parser.add_argument("--config", metavar="FILE", help="key=value settings file")
    parser.add_argument("--input", metavar="CSV", help="readings file (meter_id,slot,wh)")
    parser.add_argument(
        "--synth-days", dest="n_days", type=int, metavar="D",
        help="days of synthetic load to generate (default 3)",
    )
    parser.add_argument(
        "--meters", dest="n_meters", type=int, metavar="N",
        help="number of homes (default 10)",
    )
    parser.add_argument("--epsilon1", type=float, help="meter-side privacy budget")
    parser.add_argument(
        "--epsilon2", type=float,
        help="grid-side noise budget: sets the scale of the noise the grid "
        "subtracts, not a privacy guarantee",
    )
    parser.add_argument("--delta-f1", dest="delta_f1", type=float, help="meter-side sensitivity in Wh")
    parser.add_argument("--delta-f2", dest="delta_f2", type=float, help="grid-side sensitivity in Wh")
    parser.add_argument("--mu", type=float, help="noise location (default 0)")
    parser.add_argument("--peak-factor", dest="peak_factor", type=float, help="regional peak threshold in Wh")
    parser.add_argument("--unit-price", dest="unit_price", type=float, help="base price in cents per Wh")
    parser.add_argument("--peak-price", dest="peak_price", type=float, help="peak price in cents per Wh")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory")
    parser.add_argument(
        "--mode", choices=MODES,
        help="what to run (default: run); mae-sweep and bill-error set both "
        "budgets to each swept value",
    )
    return parser


def _read_config_file(path: str) -> dict:
    """Parse a ``key=value`` settings file; ``#`` lines and blanks are ignored."""
    settings = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                settings[key] = _FIELD_PARSERS[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: invalid value {value!r} for {key}"
                ) from None
    return settings


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve settings from flags, an optional config file, and defaults.

    Flags override the file; the file overrides defaults. Raises
    ConfigError for invalid or conflicting settings.
    """
    namespace = _build_parser().parse_args(argv)
    settings: dict = {}
    if namespace.config is not None:
        settings.update(_read_config_file(namespace.config))
    for name in _FIELD_PARSERS:
        value = getattr(namespace, name, None)
        if value is not None:
            settings[name] = value
    config = RunConfig(**settings)
    _validate(config, explicitly_set=set(settings))
    return config


def _validate(config: RunConfig, explicitly_set: set) -> None:
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode {config.mode!r}; choose from {', '.join(MODES)}")
    for name in ("epsilon1", "epsilon2", "delta_f1", "delta_f2",
                 "peak_factor", "unit_price", "peak_price"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(config.mu):
        raise ConfigError(f"mu must be finite, got {config.mu}")
    if config.n_meters < 1:
        raise ConfigError(f"n_meters must be at least 1, got {config.n_meters}")
    if config.n_days < 1:
        raise ConfigError(f"n_days must be at least 1, got {config.n_days}")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {config.seed}")
    if config.input is not None and {"n_days", "n_meters"} & explicitly_set:
        raise ConfigError(
            "give either --input or synthetic-generator settings "
            "(--synth-days/--meters), not both"
        )
    if config.input is not None and config.mode == "coop-table":
        raise ConfigError(
            "coop-table tabulates the closed form for --meters homes; "
            "it reads no --input file"
        )


def _build_scenario(config: RunConfig, *, cooperative_home: bool = False) -> Scenario:
    tariff = Tariff(config.unit_price, config.peak_price, config.peak_factor)
    meter_params = PrivacyParams(config.epsilon1, config.mu, config.delta_f1)
    grid_params = PrivacyParams(config.epsilon2, config.mu, config.delta_f2)
    if config.input is not None:
        meter_ids, readings = load_csv(config.input)
    else:
        profile = LoadProfile()
        if cooperative_home:
            scale = (COOPERATIVE_HOME_SCALE,) + (1.0,) * (config.n_meters - 1)
            profile = dataclasses.replace(profile, amplitude_scale=scale)
        synthesis_rng = keyed_stream(config.seed, SYNTHESIS_KEY)
        readings = synthesize(config.n_meters, config.n_days, profile, synthesis_rng)
        meter_ids = ()
    return Scenario(
        n_meters=readings.shape[0],
        n_slots=readings.shape[1],
        readings=readings,
        tariff=tariff,
        meter_params=meter_params,
        grid_params=grid_params,
        seed=config.seed,
        meter_ids=meter_ids,
    )


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _series_files(out_dir: Path, name: str, series: MetricSeries, x_header: str, y_header: str) -> None:
    _write_rows(
        out_dir / f"{name}.csv",
        (x_header, y_header),
        [(format(x, ".10g"), format(y, ".10g")) for x, y in series.points],
    )
    _write_json(
        out_dir / "metrics.json",
        {
            "label": series.label,
            "points": [[x, y] for x, y in series.points],
            "x_unit": series.x_unit,
            "y_unit": series.y_unit,
        },
    )


# report.csv is formatted one block of slots at a time: about this many rows
# per block keeps memory at O(meters x block) whatever the run length.
_REPORT_BLOCK_ROWS = 1 << 14

_NUL, _COMMA, _NEWLINE, _ZERO = 0, ord(","), ord("\n"), ord("0")


def _text_rows(texts) -> np.ndarray:
    """ASCII strings as the rows of a ``uint8`` matrix, NUL-padded on the right."""
    encoded = [text.encode("ascii") for text in texts]
    width = max(map(len, encoded), default=1)
    return np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)


def _format_fixed(values: np.ndarray, decimals: int) -> np.ndarray:
    """``format(v, f".{decimals}f")`` for each value, as NUL-padded ``uint8`` rows.

    Digits come from ``k = rint(v * 10**decimals)`` in int64. That is the
    correctly rounded decimal unless the scaled product sits within a few
    ulps of a half, where its own rounding may have crossed the tie. Those
    elements, and negative, non-finite or too large (scaled ``>= 2**53``)
    values, are formatted by Python instead.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = values * 10.0**decimals
        exact = (
            np.isfinite(scaled)
            & ~np.signbit(values)
            & (scaled < 2.0**53)
            & (np.abs(scaled - np.floor(scaled) - 0.5) > 4 * np.spacing(scaled))
        )
    k = np.rint(np.where(exact, scaled, 0.0)).astype(np.int64)
    int_digits = len(str(int(k.max(initial=0)) // 10**decimals))
    chars = np.empty((len(values), int_digits + 1 + decimals), np.uint8)
    for column in range(int_digits + decimals, int_digits, -1):
        k, digit = np.divmod(k, 10)
        chars[:, column] = _ZERO + digit
    chars[:, int_digits] = ord(".")
    for column in range(int_digits - 1, -1, -1):
        shown = k > 0 if column < int_digits - 1 else True
        k, digit = np.divmod(k, 10)
        chars[:, column] = np.where(shown, _ZERO + digit, _NUL)
    fallback = np.flatnonzero(~exact)
    if fallback.size:
        text = _text_rows(format(v, f".{decimals}f") for v in values[fallback].tolist())
        if text.shape[1] > chars.shape[1]:
            chars = np.pad(chars, ((0, 0), (text.shape[1] - chars.shape[1], 0)))
        chars[fallback] = _NUL
        chars[fallback, : text.shape[1]] = text
    return chars


def _report_block(result, slot_text, meter_text, start: int, stop: int) -> bytes:
    """``report.csv`` rows of slots ``start:stop``, slot-major, as bytes."""
    n_meters = meter_text.shape[0]
    n_rows = n_meters * (stop - start)
    peak_rows = np.repeat(result.peak[start:stop], n_meters)
    b_r = result.adjusted[:, start:stop].T.ravel()
    peak_at = np.flatnonzero(peak_rows)
    deviation_text = _format_fixed(np.abs(b_r[peak_at] - result.share), 6)
    deviation = np.zeros((n_rows, deviation_text.shape[1]), np.uint8)
    deviation[peak_at] = deviation_text
    fields = (
        np.repeat(slot_text[start:stop], n_meters, axis=0),
        np.tile(meter_text, (stop - start, 1)),
        _format_fixed(b_r, 6),
        (_ZERO + peak_rows)[:, None],
        (_ZERO + result.charged[:, start:stop].T.ravel())[:, None],
        _format_fixed(result.bills_cents[:, start:stop].T.ravel(), 2),
        deviation,
    )
    rows = np.empty((n_rows, sum(field.shape[1] + 1 for field in fields)), np.uint8)
    column = 0
    for field in fields:
        width = field.shape[1]
        rows[:, column : column + width] = field
        rows[:, column + width] = _COMMA
        column += width + 1
    rows[:, -1] = _NEWLINE
    return rows[rows != _NUL].tobytes()


def _write_report(path: Path, result) -> None:
    """Write ``report.csv`` straight from the result arrays.

    Each block of slots becomes one byte buffer: fixed-width digit fields
    built with whole-array arithmetic, whose NUL padding is dropped before
    the block is written.
    """
    n_meters, n_slots = result.adjusted.shape
    slot_text = _text_rows(str(slot) for slot in range(n_slots))
    meter_text = _text_rows(str(meter_id) for meter_id in result.scenario.meter_ids)
    block = max(1, _REPORT_BLOCK_ROWS // n_meters)
    with open(path, "wb") as handle:
        handle.write((",".join(REPORT_HEADER) + "\n").encode("ascii"))
        for start in range(0, n_slots, block):
            handle.write(_report_block(result, slot_text, meter_text, start, min(start + block, n_slots)))


def _mode_run(config: RunConfig, out_dir: Path) -> None:
    scenario = _build_scenario(config)
    result = run_scenario(scenario)
    _write_report(out_dir / "report.csv", result)
    _write_json(
        out_dir / "summary.json",
        {
            "config": dataclasses.asdict(config),
            "meters": [
                {"meter_id": meter_id, "total_cents": round(float(total), 2)}
                for meter_id, total in zip(scenario.meter_ids, result.totals_cents)
            ],
            "total_bill_cents": round(result.total_bill_cents, 2),
            "total_adjusted_wh": round(result.total_adjusted_wh, 6),
            "peak_slot_count": result.peak_slot_count,
            "n_meters": scenario.n_meters,
            "n_slots": scenario.n_slots,
        },
    )
    print(
        f"run: {scenario.n_meters} meters x {scenario.n_slots} slots, "
        f"{result.peak_slot_count} peak slots, "
        f"total bill {result.total_bill_cents:.2f} cents -> {out_dir}"
    )


def _mode_mae_sweep(config: RunConfig, out_dir: Path) -> None:
    scenario = _build_scenario(config)
    series = mae_sweep(scenario, DEFAULT_EPSILON_SWEEP)
    _series_files(out_dir, "mae_sweep", series, "epsilon", "mae_wh")
    lowest = series.points[0]
    print(
        f"mae-sweep: {len(series.points)} budgets, "
        f"MAE {lowest[1]:.2f} Wh at epsilon={lowest[0]:g} -> {out_dir}"
    )


def _mode_bill_error(config: RunConfig, out_dir: Path) -> None:
    scenario = _build_scenario(config)
    series = bill_error_series(scenario, DEFAULT_EPSILON_SWEEP)
    _series_files(out_dir, "bill_error", series, "epsilon", "relative_error")
    worst = max(series.ys)
    print(
        f"bill-error: {len(series.points)} budgets, "
        f"worst relative error {worst:.4%} -> {out_dir}"
    )


def _mode_convergence(config: RunConfig, out_dir: Path) -> None:
    scenario = _build_scenario(config)
    series = convergence_series(scenario, config.epsilon1)
    _series_files(out_dir, "convergence", series, "slots", "relative_error")
    print(
        f"convergence: meter 0 relative bill error {series.ys[-1]:.4%} "
        f"after {scenario.n_slots} slots -> {out_dir}"
    )


def _mode_coop_table(config: RunConfig, out_dir: Path) -> None:
    rows = []
    for tenth in range(1, 10):
        p = tenth / 10
        model = CoopModel(config.n_meters, p)
        rows.append(
            (
                f"{p:.1f}",
                format(coop_probability(model), ".10g"),
                format(coop_expectation(model), ".10g"),
            )
        )
    _write_rows(
        out_dir / "coop_table.csv",
        ("p_lu", "coop_probability", "expected_cooperators"),
        rows,
    )
    print(
        f"coop-table: {config.n_meters} homes, p_lu 0.1..0.9, "
        f"P(coop) {rows[0][1]} at 0.1 up to {rows[-1][1]} at 0.9 -> {out_dir}"
    )


def _mode_baseline_compare(config: RunConfig, out_dir: Path) -> None:
    scenario = _build_scenario(config, cooperative_home=True)
    dynamic = run_scenario(scenario, noisy=False).totals_cents
    flat = baseline_flat_peak_bill(scenario.readings, scenario.tariff)
    _write_rows(
        out_dir / "baseline_compare.csv",
        ("meter_id", "dynamic_cents", "flat_peak_cents"),
        [
            (meter_id, f"{d:.2f}", f"{f:.2f}")
            for meter_id, d, f in zip(scenario.meter_ids, dynamic, flat)
        ],
    )
    dynamic_total = float(_ordered_sum(dynamic, axis=0))
    flat_total = float(_ordered_sum(flat, axis=0))
    saving = (
        f", {(1 - dynamic_total / flat_total):.1%} lower" if flat_total > 0 else ""
    )
    print(
        f"baseline-compare: dynamic {dynamic_total:.2f} cents vs "
        f"flat-peak {flat_total:.2f} cents{saving} -> {out_dir}"
    )


_MODE_RUNNERS = {
    "run": _mode_run,
    "mae-sweep": _mode_mae_sweep,
    "bill-error": _mode_bill_error,
    "convergence": _mode_convergence,
    "coop-table": _mode_coop_table,
    "baseline-compare": _mode_baseline_compare,
}


def execute(config: RunConfig) -> int:
    """Run one mode end to end; returns the process exit code."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _MODE_RUNNERS[config.mode](config, out_dir)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"drdp: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"drdp: error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(config)
    except (OSError, ValueError) as exc:
        print(f"drdp: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        size = f"{config.n_meters} meters x {config.n_days * SLOTS_PER_DAY} slots"
        asked = size if config.input is None else f"the readings in {config.input}"
        print(f"drdp: error: not enough memory for {asked}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
