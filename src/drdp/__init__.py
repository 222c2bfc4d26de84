"""Differentially private smart-meter reporting with peak-aware dynamic billing.

Meters report readings inflated by folded Laplace noise; the grid utility
subtracts fresh noise magnitudes, detects regional peaks, and bills each
home against its fair share of the peak threshold. Cooperative-state
analytics and experiment metrics round out the package; see ``drdp.cli``
for the command-line harness.
"""
from .billing import (
    OpCounter,
    ScenarioResult,
    Tariff,
    baseline_flat_peak_bill,
    run_scenario,
)
from .coop import (
    CoopModel,
    CoopObservation,
    coop_expectation,
    coop_probability,
    enumerate_oracle,
    measure_coop_state,
)
from .metering import (
    SLOTS_PER_DAY,
    LoadProfile,
    Scenario,
    load_csv,
    report_readings,
    synthesize,
)
from .metrics import (
    DEFAULT_EPSILON_SWEEP,
    MetricSeries,
    bill_error_series,
    convergence_series,
    mae,
    mae_sweep,
)
from .noise import (
    NoiseSample,
    PrivacyParams,
    adjust_reading,
    compute_scale,
    derive_seed,
    protect_reading,
    sample_laplace,
)

__version__ = "0.1.0"

__all__ = [
    "SLOTS_PER_DAY",
    "DEFAULT_EPSILON_SWEEP",
    "PrivacyParams",
    "NoiseSample",
    "compute_scale",
    "sample_laplace",
    "protect_reading",
    "adjust_reading",
    "derive_seed",
    "LoadProfile",
    "Scenario",
    "load_csv",
    "synthesize",
    "report_readings",
    "Tariff",
    "ScenarioResult",
    "OpCounter",
    "run_scenario",
    "baseline_flat_peak_bill",
    "CoopModel",
    "CoopObservation",
    "coop_probability",
    "coop_expectation",
    "enumerate_oracle",
    "measure_coop_state",
    "MetricSeries",
    "mae",
    "mae_sweep",
    "bill_error_series",
    "convergence_series",
]
