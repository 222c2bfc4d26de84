"""Tests of the benchmark itself: the output checks and the tracer.

    python3 -m pytest perfbench
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from drdp import cli  # noqa: E402

N_METERS, N_SLOTS = 10, 144
TARIFF = {"unit_price": 10.0, "peak_price": 25.0, "peak_factor": 1000.0 * N_METERS}

SMALL = {
    "bill-run": dict(n_meters=10, n_days=1),
    "csv-replay": dict(n_meters=20, n_slots=144),
    "budget-sweep": dict(n_meters=20, n_days=1),
    "coop-analytics": dict(table_homes=(50, 2000), oracle_homes=8, n_meters=10, n_days=1),
}


def bindings() -> dict:
    return {
        (namespace.__name__, attr): value
        for namespace in layertrace.drdp_namespaces()
        for attr, value in vars(namespace).items()
        if callable(value)
    }


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


@pytest.fixture
def run_output(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["--mode", "run", "--meters", str(N_METERS), "--synth-days", "1",
                     "--peak-factor", str(TARIFF["peak_factor"]), "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


def edit_report(out: Path, column: str, edit) -> None:
    """Apply ``edit`` to ``column`` of the first data row of report.csv."""
    path = out / "report.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    index = lines[0].split(",").index(column)
    fields = lines[1].split(",")
    fields[index] = edit(fields[index])
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_checker_accepts_program_output(run_output):
    peaks = checks.check_run(run_output, N_METERS, N_SLOTS, TARIFF)
    assert 0 < peaks < N_SLOTS


def test_checker_rejects_wrong_bill(run_output):
    edit_report(run_output, "bill_cents", lambda v: f"{float(v) + 1:.2f}")
    with pytest.raises(checks.CheckError, match="bill_cents"):
        checks.check_run(run_output, N_METERS, N_SLOTS, TARIFF)


def test_checker_rejects_negative_b_r(run_output):
    edit_report(run_output, "b_r_wh", lambda v: "-" + v)
    with pytest.raises(checks.CheckError, match="negative"):
        checks.check_run(run_output, N_METERS, N_SLOTS, TARIFF)


def test_checker_rejects_mismatched_total(run_output):
    path = run_output / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["total_bill_cents"] += 1.0
    path.write_text(json.dumps(summary), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="total_bill_cents"):
        checks.check_run(run_output, N_METERS, N_SLOTS, TARIFF)


def test_untraced_run_installs_no_wrappers(tmp_path):
    before = bindings()
    during = []

    def run(out):
        during.append(bindings())
        workloads.run_cli("--mode", "coop-table", "--meters", 5, "--out", out)

    probe = workloads.Op("probe", 0, run, lambda out, _: workloads.Checked(""))
    phase = harness.measure(workloads.Workload("probe", 1, lambda r: [probe]), 0, tmp_path, min_rounds=2)
    assert phase.attempted == 2 and phase.failed == 0
    assert all(same_objects(seen, before) for seen in during)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_restores_every_binding(tmp_path, name):
    workload = workloads.WORKLOADS[name](7, tmp_path, **SMALL[name])
    before = bindings()
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert cli.main is not before["drdp.cli", "main"]
        phase = harness.measure(workload, 0, tmp_path, tracer=tracer, min_rounds=2)
    assert same_objects(bindings(), before)
    assert phase.wrong == []
    assert tracer.spans


def test_traced_counts_are_exact(tmp_path):
    runs = workloads.bill_run(7, tmp_path, n_meters=N_METERS, n_days=1)
    tracer = layertrace.Tracer()
    with tracer.installed():
        phase = harness.measure(runs, 0, tmp_path, tracer=tracer)
    (profile,) = tracer.profiles().values()
    assert phase.failed == 0
    assert sum(profile.calls[name] for name in layertrace.HOT) == 4 * N_METERS * N_SLOTS
    assert profile.calls_by_layer["billing"] == 1 + 3 * N_SLOTS


def test_traced_errors_are_charged_to_the_layer_they_leave(tmp_path):
    def run(out):
        workloads.run_cli("--mode", "run", "--input", tmp_path / "missing.csv", "--out", out)

    probe = workloads.Op("probe", 0, run, lambda out, _: workloads.Checked(""))
    tracer = layertrace.Tracer()
    with tracer.installed():
        phase = harness.measure(workloads.Workload("probe", 1, lambda r: [probe]), 0, tmp_path, tracer=tracer)
    (profile,) = tracer.profiles().values()
    # load_csv raises into cli, which turns it into exit code 2.
    assert phase.failed == 1
    assert +profile.errors == {"metering": 1}


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for section, reported in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[section]} == reported
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
