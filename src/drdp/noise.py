"""Laplace perturbation core.

Everything the meter and the grid utility share: budget-derived noise scale,
seeded sampling, the meter-side magnitude addition, the grid-side magnitude
subtraction, and the seed layout: which key of a master seed feeds which
stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PrivacyParams",
    "NoiseSample",
    "compute_scale",
    "sample_laplace",
    "protect_reading",
    "adjust_reading",
    "derive_seed",
]

# The seed layout: each stream of a scenario is built from the master seed
# and its own key, so a stage builds only the streams it draws from.
SYNTHESIS_KEY = 0
GRID_KEY = 1
FIRST_METER_KEY = 2  # meter m draws from key FIRST_METER_KEY + m


def compute_scale(delta_f: float, epsilon: float) -> float:
    """Noise scale for a given per-reading sensitivity and privacy budget.

    Smaller budgets mean wider noise; the scale is ``delta_f / epsilon``.
    Both must be positive and finite: an infinite budget would mean no
    noise at all.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not (math.isfinite(delta_f) and delta_f > 0):
        raise ValueError(f"delta_f must be positive and finite, got {delta_f}")
    return delta_f / epsilon


@dataclass(frozen=True)
class PrivacyParams:
    """Perturbation parameters for one side of the pipeline.

    ``scale`` is not a free field: it is derived from ``delta_f`` and
    ``epsilon`` on construction and stays consistent under
    ``dataclasses.replace``.
    """

    epsilon: float
    mu: float = 0.0
    delta_f: float = 1.0
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        object.__setattr__(self, "scale", compute_scale(self.delta_f, self.epsilon))


@dataclass(frozen=True)
class NoiseSample:
    """One Laplace draw, kept alongside its folded magnitude."""

    raw: float
    magnitude: float

    @classmethod
    def from_raw(cls, raw: float) -> "NoiseSample":
        return cls(raw=raw, magnitude=abs(raw))


def sample_laplace(mu: float, scale: float, rng: np.random.Generator) -> NoiseSample:
    """Draw one Laplace(mu, scale) variate from the given stream."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return NoiseSample.from_raw(float(rng.laplace(mu, scale)))


def protect_reading(
    i_v: float | np.ndarray, params: PrivacyParams, rng: np.random.Generator
) -> float | np.ndarray:
    """Meter side: add the magnitude of a fresh Laplace draw to a reading.

    Takes one reading or an array of them; an array consumes one draw per
    element in order, exactly as repeated scalar calls would. The reported
    value can therefore never be below the true reading.

    With ``mu = 0`` a reading ``i`` is reported as ``i + Exp(delta_f /
    epsilon)``, which is (epsilon, 1 - e^-epsilon)-differentially private
    per reading, not pure epsilon-DP: a report below ``i + delta_f`` rules
    out the neighbouring reading ``i + delta_f``, and that happens with
    probability 1 - e^-epsilon (about 0.39 at epsilon = 0.5). Beyond it the
    two output densities differ by exactly e^epsilon.
    """
    if np.any(np.less(i_v, 0)):
        raise ValueError(f"reading must be non-negative, got {np.min(i_v)}")
    return i_v + np.abs(rng.laplace(params.mu, params.scale, np.shape(i_v)))


def adjust_reading(
    p_v: float | np.ndarray, params: PrivacyParams, rng: np.random.Generator
) -> float | np.ndarray:
    """Grid side: subtract a fresh, independent noise magnitude.

    Takes one report or an array of them, like ``protect_reading``. The
    result feeds billing, so it is clamped at zero rather than allowed to
    go negative when the subtracted magnitude overshoots. It only
    post-processes the public report with independent noise, so it spends
    no privacy budget and restores none.
    """
    return np.maximum(p_v - np.abs(rng.laplace(params.mu, params.scale, np.shape(p_v))), 0.0)


# Kept out of ``__all__``: callers build one per meter, and perfbench's
# tracer wraps every ``__all__`` function in a span.
def keyed_stream(seed: int, key: int) -> np.random.Generator:
    """The stream with ``key`` under master ``seed``.

    It draws exactly what child ``key`` of ``SeedSequence(seed).spawn(n)``
    draws for any ``n > key``, and does not depend on any other stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a child seed for an independent run family.

    Distinct key tuples give statistically independent streams; equal ones
    reproduce the same child seed.
    """
    state = np.random.SeedSequence([seed, *keys]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])
