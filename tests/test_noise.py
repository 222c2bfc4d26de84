"""Noise core: scale law, folded-draw statistics, stream management."""
import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from drdp import (
    NoiseSample,
    PrivacyParams,
    adjust_reading,
    compute_scale,
    derive_seed,
    protect_reading,
    sample_laplace,
    spawn_streams,
)


@pytest.mark.parametrize(
    "delta_f,epsilon,expected",
    [
        (1.0, 0.01, 100.0),
        (1.0, 0.1, 10.0),
        (1.0, 0.5, 2.0),
        (1.0, 1.0, 1.0),
        (1.0, 2.0, 0.5),
        (2.0, 0.5, 4.0),
    ],
)
def test_compute_scale_values(delta_f, epsilon, expected):
    assert compute_scale(delta_f, epsilon) == expected


def test_scale_law_round_trip():
    # scale * epsilon must recover delta_f to machine precision
    for delta_f in (0.5, 1.0, 3.0, 7.25):
        for epsilon in (0.01, 0.1, 0.3, 0.5, 1.0, 1.7, 2.0):
            scale = compute_scale(delta_f, epsilon)
            assert math.isclose(scale * epsilon, delta_f, rel_tol=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, -0.5])
def test_compute_scale_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError):
        compute_scale(1.0, epsilon)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan])
def test_compute_scale_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite"):
        compute_scale(1.0, epsilon)


def test_compute_scale_rejects_bad_sensitivity():
    with pytest.raises(ValueError):
        compute_scale(0.0, 0.5)
    with pytest.raises(ValueError):
        compute_scale(-1.0, 0.5)
    with pytest.raises(ValueError):
        compute_scale(math.inf, 0.5)


class TestPrivacyParams:
    def test_scale_is_derived(self):
        params = PrivacyParams(epsilon=0.5, mu=0.0, delta_f=1.0)
        assert params.scale == 2.0

    def test_replace_recomputes_scale(self):
        params = PrivacyParams(epsilon=0.5)
        tighter = dataclasses.replace(params, epsilon=0.1)
        assert tighter.scale == 10.0
        assert params.scale == 2.0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=0.0)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, delta_f=-2.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_location(self, mu):
        with pytest.raises(ValueError, match="mu"):
            PrivacyParams(epsilon=1.0, mu=mu)

    def test_defaults(self):
        params = PrivacyParams(epsilon=1.0)
        assert params.mu == 0.0
        assert params.delta_f == 1.0


def test_noise_sample_magnitude():
    assert NoiseSample.from_raw(-3.5) == NoiseSample(raw=-3.5, magnitude=3.5)
    assert NoiseSample.from_raw(2.0).magnitude == 2.0


def test_sample_laplace_rejects_bad_scale():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_laplace(0.0, 0.0, rng)


def test_sample_laplace_deterministic():
    draws_a = [sample_laplace(0.0, 2.0, np.random.default_rng(9)).raw for _ in range(1)]
    draws_b = [sample_laplace(0.0, 2.0, np.random.default_rng(9)).raw for _ in range(1)]
    assert draws_a == draws_b


def test_protected_reading_never_below_true_value():
    params = PrivacyParams(epsilon=0.5)
    rng = np.random.default_rng(3)
    for _ in range(5000):
        i_v = float(rng.uniform(0, 2000))
        assert protect_reading(i_v, params, rng) >= i_v


def test_protect_reading_rejects_negative_reading():
    with pytest.raises(ValueError):
        protect_reading(-1.0, PrivacyParams(epsilon=1.0), np.random.default_rng(0))


def test_vector_draws_equal_scalar_draws_in_sequence():
    # The array kernel relies on this: one (n,) draw from a Generator gives
    # the same variates as n scalar draws from the same state.
    rng = np.random.default_rng(5)
    scalar = [float(rng.laplace(1.5, 2.0)) for _ in range(1000)]
    vector = np.random.default_rng(5).laplace(1.5, 2.0, (10, 100))
    assert vector.ravel().tolist() == scalar


def test_array_protect_and_adjust_match_scalar_calls():
    params = PrivacyParams(epsilon=0.2, mu=0.3)
    values = np.linspace(0.0, 50.0, 24).reshape(4, 6)
    for perturb in (protect_reading, adjust_reading):
        rng = np.random.default_rng(8)
        one_by_one = [perturb(float(v), params, rng) for v in values.ravel()]
        whole = perturb(values, params, np.random.default_rng(8))
        assert whole.shape == values.shape
        assert whole.ravel().tolist() == one_by_one


def test_adjusted_reading_clamped_at_zero():
    params = PrivacyParams(epsilon=0.1)  # wide noise, frequent overshoot
    rng = np.random.default_rng(4)
    values = [adjust_reading(0.5, params, rng) for _ in range(5000)]
    assert min(values) == 0.0
    assert all(v >= 0.0 for v in values)


def test_folded_draw_moments():
    """Folded draws: mean ~ scale, variance ~ scale^2, raw variance ~ 2*scale^2."""
    scale = 2.0
    n = 100_000
    rng = np.random.default_rng(12345)
    raws = np.array([sample_laplace(0.0, scale, rng).raw for _ in range(n)])
    magnitudes = np.abs(raws)
    assert abs(magnitudes.mean() - scale) < 0.04
    assert abs(magnitudes.var() - scale**2) < 0.2
    assert abs(raws.var() - 2 * scale**2) < 0.3
    assert abs(raws.mean()) < 0.03


def test_raw_draws_centered_on_mu():
    rng = np.random.default_rng(6)
    raws = np.array([sample_laplace(3.0, 1.0, rng).raw for _ in range(50_000)])
    assert abs(raws.mean() - 3.0) < 0.03


def test_raw_draws_match_analytic_distribution():
    rng = np.random.default_rng(777)
    raws = np.array([sample_laplace(0.0, 2.0, rng).raw for _ in range(50_000)])
    statistic = stats.kstest(raws, stats.laplace(loc=0.0, scale=2.0).cdf).statistic
    assert statistic < 0.012


@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_indistinguishability_of_adjacent_inputs(epsilon):
    """Output histograms for inputs one sensitivity apart stay within the
    budget bound, up to count-based statistical slack."""
    scale = compute_scale(1.0, epsilon)
    n = 200_000
    rng_a = np.random.default_rng(21)
    rng_b = np.random.default_rng(22)
    out_a = 0.0 + np.array([sample_laplace(0.0, scale, rng_a).raw for _ in range(n)])
    out_b = 1.0 + np.array([sample_laplace(0.0, scale, rng_b).raw for _ in range(n)])
    edges = np.arange(-4 * scale, 4 * scale + 1.0, scale / 4)
    counts_a, _ = np.histogram(out_a, edges)
    counts_b, _ = np.histogram(out_b, edges)
    usable = (counts_a >= 100) & (counts_b >= 100)
    assert usable.sum() >= 10
    ratio = np.log(counts_a[usable] / counts_b[usable])
    slack = 4.0 * np.sqrt(1.0 / counts_a[usable] + 1.0 / counts_b[usable])
    assert np.all(np.abs(ratio) <= epsilon + slack)


@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_protect_reading_is_epsilon_delta_private_with_one_sided_delta(epsilon):
    """A meter reports ``i + Exp(delta_f / epsilon)``. Against the neighbouring
    reading ``i + delta_f`` that is (epsilon, 1 - e^-epsilon)-DP and no
    better: all of delta is the mass on ``[i, i + delta_f)``, which the
    neighbour never reports, while beyond it the densities differ by
    exactly e^epsilon."""
    params = PrivacyParams(epsilon, 0.0, 2.0)
    i, gap_end = 100.0, 100.0 + params.delta_f
    delta = 1.0 - math.exp(-epsilon)

    report = stats.expon(loc=i, scale=params.scale)
    neighbour = stats.expon(loc=gap_end, scale=params.scale)
    assert report.cdf(gap_end) == pytest.approx(delta, rel=1e-12)
    assert neighbour.cdf(gap_end) == 0.0
    tail = gap_end + np.linspace(0.0, 20.0 * params.scale, 41)
    np.testing.assert_allclose(neighbour.pdf(tail) / report.pdf(tail), math.exp(epsilon), rtol=1e-9)

    def smallest_delta(p, q):
        """sup over events S of p(S) - e^epsilon q(S), the hockey-stick divergence."""
        excess = lambda y: max(0.0, p.pdf(y) - math.exp(epsilon) * q.pdf(y))
        return integrate.quad(excess, i, gap_end)[0] + integrate.quad(excess, gap_end, math.inf)[0]

    assert smallest_delta(report, neighbour) == pytest.approx(delta, rel=1e-9)
    assert smallest_delta(neighbour, report) == pytest.approx(0.0, abs=1e-12)

    n = 100_000
    rng = np.random.default_rng(31)
    out_i = protect_reading(np.full(n, i), params, rng)
    out_neighbour = protect_reading(np.full(n, gap_end), params, rng)
    assert stats.kstest(out_i - i, stats.expon(scale=params.scale).cdf).statistic < 0.01
    # Five binomial standard deviations of a fraction of n draws.
    tolerance = 5.0 * math.sqrt(delta * (1.0 - delta) / n)
    assert abs(np.mean(out_i < gap_end) - delta) <= tolerance
    assert np.mean(out_neighbour < gap_end) == 0.0


def test_spawn_streams_deterministic_and_distinct():
    synth_a, grid_a, meters_a = spawn_streams(99, 4)
    synth_b, grid_b, meters_b = spawn_streams(99, 4)
    assert len(meters_a) == 4
    assert synth_a.uniform() == synth_b.uniform()
    assert grid_a.uniform() == grid_b.uniform()
    first_a = [m.uniform() for m in meters_a]
    first_b = [m.uniform() for m in meters_b]
    assert first_a == first_b
    assert len(set(first_a)) == 4  # streams do not collide


def test_spawn_streams_rejects_zero_meters():
    with pytest.raises(ValueError):
        spawn_streams(1, 0)


def test_derive_seed_stable_and_key_sensitive():
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(42, 4)
    assert derive_seed(42, 1, 2) != derive_seed(42, 12)
    assert derive_seed(7, 3) != derive_seed(42, 3)
