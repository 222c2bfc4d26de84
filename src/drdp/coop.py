"""Cooperative-state analytics.

A region is in a cooperative state during a peak slot when at least half of
the homes (majority threshold, rounded up) stay below the fair per-home
share. This module has the closed-form probability and truncated
expectation for independent homes, an exhaustive enumeration oracle that
also covers heterogeneous probabilities, and an empirical reader that
extracts the same quantities from simulation output.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .billing import ScenarioResult

__all__ = [
    "ENUMERATION_LIMIT",
    "CoopModel",
    "CoopObservation",
    "coop_probability",
    "coop_expectation",
    "enumerate_oracle",
    "measure_coop_state",
]

# 2**n outcome vectors are walked explicitly; keep that tractable.
ENUMERATION_LIMIT = 20


def _majority(n: int) -> int:
    """The majority threshold: half of ``n`` homes, rounded up."""
    return math.ceil(n / 2)


@dataclass(frozen=True)
class CoopModel:
    """Independent homes, each below the fair share with its own probability.

    ``p_lu`` may be given as one float (shared by all homes) or as one value
    per home.
    """

    n: int
    p_lu: tuple[float, ...]

    def __init__(self, n: int, p_lu: float | Sequence[float]) -> None:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if isinstance(p_lu, numbers.Real):
            probs = (float(p_lu),) * n
        else:
            probs = tuple(float(p) for p in p_lu)
        if len(probs) != n:
            raise ValueError(f"{len(probs)} probabilities for {n} homes")
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p_lu", probs)

    @property
    def p_hu(self) -> tuple[float, ...]:
        """Per-home probability of being at or above the fair share."""
        return tuple(1.0 - p for p in self.p_lu)

    @property
    def threshold(self) -> int:
        """Minimum number of below-share homes for a cooperative state."""
        return _majority(self.n)

    @property
    def is_shared(self) -> bool:
        return all(p == self.p_lu[0] for p in self.p_lu)

    @property
    def shared_p(self) -> float:
        if not self.is_shared:
            raise ValueError(
                "homes have unequal probabilities; the closed form does not "
                "apply — use enumerate_oracle"
            )
        return self.p_lu[0]


@dataclass(frozen=True)
class CoopObservation:
    """Cooperative-state reading for one peak slot of a simulation."""

    slot: int
    q: int
    cooperative: bool


def _binomial_pmf(model: CoopModel) -> np.ndarray:
    """``pmf[q]``: probability that exactly ``q`` of the homes cooperate.

    The terms are built in log space, so ``C(n, q)`` never overflows.
    """
    p = model.shared_p
    n = model.n
    if p in (0.0, 1.0):
        pmf = np.zeros(n + 1)
        pmf[round(p * n)] = 1.0
        return pmf
    # log pmf(k+1) - log pmf(k) = log(n-k) - log(k+1) + log(p / (1-p)).
    # Running sums of these steps, anchored at the mode, give every log
    # term up to one constant; normalising by the total (log-sum-exp with
    # the mode as shift) removes it. Near the mode, where the mass is, the
    # running sums stay small and keep full precision.
    k = np.arange(n)
    step = np.log(n - k) - np.log1p(k) + (math.log(p) - math.log1p(-p))
    mode = min(int((n + 1) * p), n)
    log_terms = np.zeros(n + 1)
    log_terms[mode + 1 :] = np.cumsum(step[mode:])
    log_terms[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    terms = np.exp(log_terms)
    return terms / terms.sum()


def coop_probability(model: CoopModel) -> float:
    """Probability that at least the majority threshold of homes cooperate.

    Binomial tail sum; requires a shared per-home probability.
    """
    tail = _binomial_pmf(model)[model.threshold :]
    # the normalised sum may round one ulp above 1
    return min(float(tail.sum()), 1.0)


def coop_expectation(model: CoopModel) -> float:
    """Expected below-share count, restricted to cooperative outcomes.

    This is the binomial expectation truncated at the majority threshold,
    not ``n * p``; outcomes with fewer cooperating homes contribute zero.
    """
    tail = _binomial_pmf(model)[model.threshold :]
    return float((np.arange(model.threshold, model.n + 1) * tail).sum())


def enumerate_oracle(model: CoopModel, threshold: int | None = None) -> tuple[float, float]:
    """Walk all 2**n outcome vectors and accumulate the exact tail mass.

    Returns ``(probability, expectation)`` of the cooperative event and the
    truncated below-share count. Deliberately shares no code with the
    closed forms above, and also handles per-home probabilities.
    """
    if model.n > ENUMERATION_LIMIT:
        raise ValueError(
            f"n={model.n} exceeds the enumeration limit of {ENUMERATION_LIMIT}"
        )
    q_min = model.threshold if threshold is None else threshold
    if not 0 <= q_min <= model.n:
        raise ValueError(f"threshold {q_min} outside 0..{model.n}")
    p = np.asarray(model.p_lu)
    bit_positions = np.arange(model.n)
    probability = 0.0
    expectation = 0.0
    chunk = 1 << 16
    for start in range(0, 1 << model.n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << model.n), dtype=np.int64)
        bits = (masks[:, None] >> bit_positions[None, :]) & 1
        weights = np.prod(np.where(bits == 1, p[None, :], 1.0 - p[None, :]), axis=1)
        counts = bits.sum(axis=1)
        in_tail = counts >= q_min
        probability += float(weights[in_tail].sum())
        expectation += float((counts[in_tail] * weights[in_tail]).sum())
    return probability, expectation


def measure_coop_state(result: ScenarioResult) -> list[CoopObservation]:
    """Read the cooperative state out of a billed scenario.

    Off-peak slots are skipped because the fair share is undefined there.
    A home counts as cooperating when its billing basis is strictly below
    the fair share.
    """
    slots = np.flatnonzero(result.peak)
    below = (result.adjusted[:, slots] < result.share).sum(axis=0)
    majority = _majority(result.adjusted.shape[0])
    return [
        CoopObservation(slot=slot, q=q, cooperative=q >= majority)
        for slot, q in zip(slots.tolist(), below.tolist())
    ]
