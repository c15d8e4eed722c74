import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import kstest

from dpquantiles.errors import DegenerateDensityError, InvalidArgumentError
from dpquantiles.mechanisms import (
    RandomSource,
    WeightedIntervalDensity,
    laplace_draw,
    log_density_grid,
    sample_piecewise,
)
from reference import interval_mass


class TestRandomSource:
    def test_equal_seeds_equal_streams(self):
        a = RandomSource(123456789)
        b = RandomSource(123456789)
        assert np.array_equal(a.random(100), b.random(100))

    def test_children_are_distinct_and_reproducible(self):
        root = RandomSource(7)
        c0, c1 = root.child(0), root.child(1)
        assert not np.array_equal(c0.random(50), c1.random(50))
        assert np.array_equal(RandomSource(7).child(0).random(50), RandomSource(7, (0,)).random(50))

    def test_nested_children(self):
        assert np.array_equal(
            RandomSource(3).child(1).child(2).random(10),
            RandomSource(3, (1, 2)).random(10),
        )

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "abc"])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(InvalidArgumentError):
            RandomSource(seed)


class TestLaplace:
    def test_determinism(self):
        draws = [laplace_draw(1.0, RandomSource(11), 3) for _ in range(2)]
        assert np.array_equal(*draws)

    def test_scale_is_a_multiplier_of_the_unit_draw(self):
        unit = laplace_draw(1.0, RandomSource(5), size=1000)
        scaled = laplace_draw(2.0, RandomSource(5), size=1000)
        assert np.array_equal(scaled, 2.0 * unit)

    def test_tail_probabilities_match_the_density(self):
        # oracle: integrate the density 0.5 exp(-|x|) outside [-t, t]
        draws = np.abs(laplace_draw(1.0, RandomSource(2024), size=1_000_000))
        for t in (1.0, 2.0, 3.0):
            tail, _ = integrate.quad(lambda x: 0.5 * math.exp(-abs(x)), t, np.inf)
            tail *= 2.0
            assert abs(tail - math.exp(-t)) < 1e-12
            assert abs(np.mean(draws > t) - tail) < 0.005

    def test_moments(self):
        draws = laplace_draw(3.0, RandomSource(1), size=500_000)
        assert abs(np.mean(draws)) < 0.02
        assert abs(np.var(draws) - 2 * 9.0) < 0.2

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(InvalidArgumentError):
            laplace_draw(scale, RandomSource(0), 1)


def density_at(dens, q):
    return float(log_density_grid(dens, q))


def flat_density():
    return WeightedIntervalDensity([0.0, 1.0], [0.0])


class TestWeightedIntervalDensity:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            WeightedIntervalDensity([0.0, 0.5, 0.4, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            WeightedIntervalDensity([0.0, 1.5], [0.0])
        with pytest.raises(InvalidArgumentError):
            WeightedIntervalDensity([0.0, 1.0], [math.nan])
        with pytest.raises(InvalidArgumentError):
            WeightedIntervalDensity([0.0, 1.0], [math.inf])

    def test_degenerate_density_raises_on_use(self):
        dens = WeightedIntervalDensity([0.0, 0.5, 0.5, 1.0], [-math.inf, 3.0, -math.inf])
        with pytest.raises(DegenerateDensityError):
            sample_piecewise(dens, RandomSource(0), 1)

    def test_flat_sampling_is_uniform(self):
        draws = sample_piecewise(flat_density(), RandomSource(42), size=100_000)
        assert kstest(draws, "uniform").statistic < 0.01

    def test_zero_length_interval_carries_no_mass(self):
        spiked = WeightedIntervalDensity([0.0, 0.5, 0.5, 1.0], [0.0, 7.0, 0.0])
        assert np.allclose(spiked.interval_probabilities, [0.5, 0.0, 0.5])
        draws = sample_piecewise(spiked, RandomSource(9), size=100_000)
        assert kstest(draws, "uniform").statistic < 0.01

    def test_weighted_interval_frequency(self):
        dens = WeightedIntervalDensity([0.0, 0.5, 1.0], [math.log(3.0), 0.0])
        draws = sample_piecewise(dens, RandomSource(3), size=100_000)
        assert abs(np.mean(draws < 0.5) - 0.75) < 0.01

    def test_selection_frequencies_match_exact_ratios(self):
        # densities with up to four intervals, exact weights vs. 1e5 draws
        cases = [
            WeightedIntervalDensity([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, -1.0, 0.5]),
            WeightedIntervalDensity([0.0, 0.1, 0.1, 0.6, 1.0], [2.0, 5.0, 0.0, -math.inf]),
            WeightedIntervalDensity([0.2, 0.3, 0.9], [0.0, 1.0]),
        ]
        for i, dens in enumerate(cases):
            draws = sample_piecewise(dens, RandomSource(100 + i), size=100_000)
            edges = dens.breakpoints
            for k, expected in enumerate(dens.interval_probabilities):
                if edges[k] == edges[k + 1]:
                    continue
                observed = np.mean((draws >= edges[k]) & (draws < edges[k + 1]))
                assert abs(observed - expected) < 0.01

    def test_sampling_determinism(self):
        dens = WeightedIntervalDensity([0.0, 0.3, 1.0], [1.0, 0.0])
        a, b = (sample_piecewise(dens, RandomSource(8), 3) for _ in range(2))
        assert np.array_equal(a, b)

    def test_support_can_be_a_subinterval(self):
        dens = WeightedIntervalDensity([0.2, 0.4, 0.7], [0.0, 0.0])
        draws = sample_piecewise(dens, RandomSource(4), size=10_000)
        assert draws.min() >= 0.2 and draws.max() <= 0.7
        assert density_at(dens, 0.1) == -math.inf
        assert density_at(dens, 0.9) == -math.inf


class TestLogDensity:
    def test_flat_density_is_log_one(self):
        assert density_at(flat_density(), 0.3) == 0.0

    def test_weighted_value(self):
        dens = WeightedIntervalDensity([0.0, 0.5, 1.0], [math.log(3.0), 0.0])
        # normalizer is 0.5 * 3 + 0.5 * 1 = 2, so the left density is 3/2
        assert density_at(dens, 0.25) == pytest.approx(math.log(1.5), abs=1e-14)
        assert density_at(dens, 0.75) == pytest.approx(math.log(0.5), abs=1e-14)

    def test_breakpoint_belongs_to_the_right_interval(self):
        dens = WeightedIntervalDensity([0.0, 0.5, 1.0], [math.log(3.0), 0.0])
        assert density_at(dens, 0.5) == pytest.approx(math.log(0.5), abs=1e-14)
        assert density_at(dens, 1.0) == pytest.approx(math.log(0.5), abs=1e-14)
        assert density_at(dens, 0.0) == pytest.approx(math.log(1.5), abs=1e-14)

    def test_zero_length_run_at_the_edge(self):
        dens = WeightedIntervalDensity([0.0, 1.0, 1.0], [0.0, 5.0])
        assert density_at(dens, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            density_at(flat_density(), 1.5)
        with pytest.raises(InvalidArgumentError):
            log_density_grid(flat_density(), np.array([-0.1, 0.5]))

    def test_grid_integral_is_one(self):
        # breakpoints aligned with the grid, so the midpoint sum is exact
        dens = WeightedIntervalDensity([0.0, 0.5, 1.0], [math.log(3.0), 0.0])
        cells = np.linspace(0.0, 1.0, 10_001)
        mids = (cells[:-1] + cells[1:]) / 2.0
        total = np.sum(np.exp(log_density_grid(dens, mids))) / 10_000
        assert abs(total - 1.0) < 1e-6

    def test_grid_matches_scalar(self):
        dens = WeightedIntervalDensity([0.1, 0.4, 0.4, 0.8], [1.0, 9.0, -0.5])
        qs = np.linspace(0.0, 1.0, 257)
        grid = log_density_grid(dens, qs)
        scalar = np.array([density_at(dens, float(q)) for q in qs])
        assert np.array_equal(grid, scalar)


breakpoint_lists = st.lists(
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False), min_size=0, max_size=5
)
weight_values = st.one_of(
    st.floats(-30.0, 30.0, allow_nan=False), st.just(-math.inf)
)


@st.composite
def densities(draw):
    interior = draw(breakpoint_lists)
    breakpoints = np.array(sorted([0.0, 1.0] + interior))
    weights = np.array(draw(st.lists(weight_values, min_size=len(breakpoints) - 1, max_size=len(breakpoints) - 1)))
    lengths = np.diff(breakpoints)
    if not np.any((lengths > 0) & np.isfinite(weights)):
        weights[int(np.argmax(lengths))] = 0.0
    return WeightedIntervalDensity(breakpoints, weights)


def reference_log_density(dens, q):
    """Reference: the scalar interval lookup, walking left off a zero-length
    run at the right edge of the support."""
    b = dens.breakpoints
    if q < b[0] or q > b[-1]:
        return -math.inf
    k = min(int(np.searchsorted(b, q, side="right")) - 1, len(b) - 2)
    while k > 0 and b[k] == b[k + 1]:
        k -= 1
    return float(dens.log_weights[k] - dens.log_normalizer)


class TestDensityProperties:
    @given(densities(), st.floats(0.0, 0.4), st.floats(0.6, 1.0))
    @settings(max_examples=200)
    def test_grid_matches_scalar_reference(self, dens, lo, hi):
        # shrink the support so that points fall outside it on both sides
        b = lo + (hi - lo) * dens.breakpoints
        sub = WeightedIntervalDensity(np.clip(b, lo, hi), dens.log_weights)
        assume(np.any((np.diff(sub.breakpoints) > 0) & np.isfinite(sub.log_weights)))
        qs = np.concatenate([[0.0, 1.0], sub.breakpoints, np.linspace(0.0, 1.0, 33)])
        expected = [reference_log_density(sub, float(q)) for q in qs]
        assert log_density_grid(sub, qs).tolist() == expected
        assert [density_at(sub, float(q)) for q in qs] == expected

    @given(densities())
    @settings(max_examples=200)
    def test_normalization(self, dens):
        assert interval_mass(dens, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)
        probs = dens.interval_probabilities
        assert np.all(probs >= 0.0)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    @given(densities(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_draws_are_pure_functions_of_seed(self, dens, seed):
        a = sample_piecewise(dens, RandomSource(seed), size=3)
        b = sample_piecewise(dens, RandomSource(seed), size=3)
        assert np.array_equal(a, b)
        assert dens.breakpoints[0] <= a.min() and a.max() <= dens.breakpoints[-1]

    @given(densities(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_one_draw_takes_the_scalar_draws_bits(self, dens, seed):
        # the scalar form the sampler had: one interval uniform, then one
        # position uniform, from the same stream
        rng = RandomSource(seed)
        b = dens.breakpoints
        k = int(np.searchsorted(dens._cumulative, rng.random(), side="right"))
        scalar = float(b[k] + rng.random() * (b[k + 1] - b[k]))
        assert sample_piecewise(dens, RandomSource(seed), 1).tolist() == [scalar]

    @given(densities())
    @settings(max_examples=100)
    def test_interval_mass_is_additive(self, dens):
        left = interval_mass(dens, 0.0, 0.37)
        right = interval_mass(dens, 0.37, 1.0)
        assert left + right == pytest.approx(1.0, abs=1e-10)
