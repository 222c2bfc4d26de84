"""Closed-loop measurement of one workload and the metrics it reports.

One process, one caller: an op starts only when the previous one has
finished and been checked. A run measures whole rounds until the ops have
taken ``--seconds`` of wall time. End-to-end metrics come from an untraced
run. ``--trace 1`` splits the time between an untraced and a traced phase
and reports per-layer metrics instead.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CheckError
from layertrace import HOT, LAYERS, OpProfile, Tracer
from workloads import WORKLOADS, Op, Workload

SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "meter_slots_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "noise.self_s": "s",
    "noise.calls_per_meter_slot": "count",
    "noise.spawn_s": "s",
    "metering.self_s": "s",
    "metering.load_csv_s": "s",
    "metering.rows_ingested_per_s": "1/s",
    "metering.synthesize_s": "s",
    "billing.self_s": "s",
    "billing.calls_per_op": "count",
    "billing.result_bytes_per_meter_slot": "B",
    "billing.peak_slot_fraction": "fraction",
    "billing.flat_baseline_s": "s",
    "metrics.self_s": "s",
    "metrics.scenario_runs_per_op": "count",
    "metrics.meter_only_passes_per_op": "count",
    "coop.self_s": "s",
    "coop.closed_form_s": "s",
    "coop.oracle_outcomes_per_s": "1/s",
    "coop.measure_state_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "cli.emit_mb_per_s": "MB/s",
    **{f"{layer}.errors": "count/op" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
}


@dataclass
class Phase:
    """What one measured loop did."""

    samples: list[float] = field(default_factory=list)  # wall seconds of each correct op
    op_seconds: float = 0.0  # wall seconds of every op, failed ones included
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # outputs that failed a check
    meter_slots: int = 0  # carried through by correct ops
    ops: list[Op] = field(default_factory=list)  # every op attempted
    rows_written: int = 0
    bytes_written: int = 0
    peak_fraction: float | None = None  # of the first op that reports one


def _written(out: Path) -> tuple[int, int]:
    """Data rows of the CSV files and bytes of all files under ``out``."""
    rows = size = 0
    for path in out.rglob("*"):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            if path.suffix == ".csv":
                rows += max(data.count(b"\n") - 1, 0)
    return rows, size


def _run_op(op: Op, out: Path, tracer: Tracer | None, op_id: int):
    """Time one op; returns ``(seconds, payload, error)``."""
    sink = io.StringIO()
    payload = error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                payload = op.run(out)
            else:
                with tracer.op(op_id, op.kind):
                    payload = op.run(out)
        except Exception as exc:  # any failure of the program is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if error is not None and sink.getvalue().strip():
        error += f" ({sink.getvalue().strip().splitlines()[-1]})"
    return elapsed, payload, error


def measure(
    workload: Workload,
    seconds: float,
    work_dir: Path,
    *,
    tracer: Tracer | None = None,
    min_rounds: int = 1,
    seen: dict | None = None,
) -> Phase:
    """Run whole rounds until ``min_rounds`` are done and the ops have
    taken ``seconds``; check every op's outputs as it finishes.

    ``seen`` maps ``(kind, seed)`` to an output fingerprint; an op that
    repeats an earlier one must reproduce its fingerprint exactly.
    """
    phase = Phase()
    seen = {} if seen is None else seen
    reported = set()
    op_id = 0
    round_index = 0
    while round_index < min_rounds or phase.op_seconds < seconds:
        for op in workload.make_round(round_index):
            # Named by what the op computes, so a repeated op writes the
            # same paths (summary.json records the output directory).
            out = work_dir / f"{op.kind}-{op.seed}"
            out.mkdir()
            gc.collect()
            elapsed, payload, error = _run_op(op, out, tracer, op_id)
            phase.ops.append(op)
            phase.attempted += 1
            phase.op_seconds += elapsed
            if error is None:
                try:
                    checked = op.check(out, payload)
                    key = (op.kind, op.seed)
                    if seen.setdefault(key, checked.fingerprint) != checked.fingerprint:
                        raise CheckError(f"seed {op.seed} did not reproduce its outputs byte for byte")
                except Exception as exc:  # a check that cannot read the output fails it too
                    error = f"wrong output: {type(exc).__name__}: {exc}"
                    phase.wrong.append(error)
            if error is None:
                phase.samples.append(elapsed)
                phase.meter_slots += op.meter_slots
                if phase.peak_fraction is None:
                    phase.peak_fraction = checked.peak_fraction
            else:
                phase.failed += 1
                if (op.kind, error) not in reported:
                    reported.add((op.kind, error))
                    print(f"{workload.name}: op {op_id} ({op.kind}) failed: {error}", file=sys.stderr)
            rows, size = _written(out)
            phase.rows_written += rows
            phase.bytes_written += size
            shutil.rmtree(out)
            op_id += 1
        round_index += 1
    return phase


def percentile(samples: list[float], fraction: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(fraction * 100) - 1]


def measure_setup(src: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time for a fresh interpreter to import drdp, ready for an op."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import drdp, drdp.cli"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code, str(src)], check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def end_to_end_metrics(phase: Phase, setup: list[float]) -> dict[str, float]:
    # With no correct op there is no timing to report; fall back to the
    # whole loop so the numbers stay finite.
    samples = phase.samples or [phase.op_seconds]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(phase.samples) / phase.op_seconds,
        "meter_slots_per_s": phase.meter_slots / phase.op_seconds,
        "op_s_p50": statistics.median(samples),
        "op_s_p90": percentile(samples, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: Phase, untraced: Phase, tracer: Tracer, memory: tuple[float, float]) -> dict[str, float]:
    total = OpProfile()
    for profile in tracer.profiles().values():
        for f in dataclasses.fields(OpProfile):
            getattr(total, f.name).update(getattr(profile, f.name))
    ops = traced.ops
    n = traced.attempted
    self_s, inclusive = total.self_s, total.inclusive_s
    bytes_per_meter_slot, memory_peak_fraction = memory
    return {
        "noise.self_s": self_s["noise"] / n,
        "noise.calls_per_meter_slot": _ratio(sum(total.calls[name] for name in HOT),
                                             sum(op.meter_slots for op in ops)),
        "noise.spawn_s": inclusive["spawn_streams"] / n,
        "metering.self_s": self_s["metering"] / n,
        "metering.load_csv_s": inclusive["load_csv"] / n,
        "metering.rows_ingested_per_s": _ratio(sum(op.rows_in for op in ops), inclusive["load_csv"]),
        "metering.synthesize_s": inclusive["synthesize"] / n,
        "billing.self_s": self_s["billing"] / n,
        "billing.calls_per_op": total.calls_by_layer["billing"] / n,
        "billing.result_bytes_per_meter_slot": bytes_per_meter_slot,
        "billing.peak_slot_fraction": (memory_peak_fraction if traced.peak_fraction is None
                                       else traced.peak_fraction),
        "billing.flat_baseline_s": inclusive["baseline_flat_peak_bill"] / n,
        "metrics.self_s": self_s["metrics"] / n,
        "metrics.scenario_runs_per_op": total.calls_under["run_scenario", "metrics"] / n,
        "metrics.meter_only_passes_per_op": total.calls_under["spawn_streams", "metrics"] / n,
        "coop.self_s": self_s["coop"] / n,
        "coop.closed_form_s": (inclusive["coop_probability"] + inclusive["coop_expectation"]) / n,
        "coop.oracle_outcomes_per_s": _ratio(sum(op.outcomes for op in ops), inclusive["enumerate_oracle"]),
        "coop.measure_state_s": inclusive["measure_coop_state"] / n,
        "cli.self_s": self_s["cli"] / n,
        "cli.rows_written": traced.rows_written / n,
        "cli.bytes_written": traced.bytes_written / n,
        "cli.emit_mb_per_s": _ratio(traced.bytes_written / 1e6, self_s["cli"]),
        **{f"{layer}.errors": total.errors[layer] / n for layer in LAYERS},
        "trace.overhead_frac": (statistics.median(traced.samples) / statistics.median(untraced.samples) - 1
                                if traced.samples and untraced.samples else 0.0),
    }


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _print_table(title: str, values: dict[str, float], units: dict[str, str], counts: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]:<9} {counts.get(name, '')}")


def main(argv: list[str], root: Path) -> int:
    args = _parse_args(argv)
    import drdp

    src = (root / "src").resolve()
    if not Path(drdp.__file__).resolve().is_relative_to(src):
        print(f"perfbench: drdp imported from {drdp.__file__}, not {src}", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(src)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        seen: dict = {}
        if not args.trace:
            untraced = measure(workload, args.seconds, work_dir, min_rounds=2, seen=seen)
            phases = [untraced]
        else:
            untraced = measure(workload, args.seconds / 2, work_dir, seen=seen)
            tracer = Tracer()
            with tracer.installed():
                traced = measure(workload, args.seconds / 2, work_dir, tracer=tracer, seen=seen)
            memory = workload.memory_pass(args.seed)
            phases = [untraced, traced]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = [w for p in phases for w in p.wrong]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  closed loop, 1 caller; {attempted} ops attempted, {failed} failed, "
          f"error_rate {failed / attempted:.6g}; outputs {'correct' if not wrong else 'WRONG'}")
    if not args.trace:
        metrics = end_to_end_metrics(untraced, setup)
        units = END_TO_END
        n = f"(n={len(untraced.samples)} ops)"
        counts = {"setup_s": f"(n={len(setup)} interpreters)", "ops_per_s": n,
                  "meter_slots_per_s": n, "op_s_p50": n, "op_s_p90": n}
    else:
        metrics = layer_metrics(traced, untraced, tracer, memory)
        units = PER_LAYER
        counts = {"trace.overhead_frac": f"(n={len(traced.samples)} traced, {len(untraced.samples)} untraced ops)"}
    _print_table("end-to-end" if not args.trace else "per-layer, mean per op", metrics, units, counts)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
