import itertools

import numpy as np
import pytest

from dpquantiles import histogram as histogram_module
from dpquantiles.errors import InvalidArgumentError
from dpquantiles.histogram import (
    MAX_BIN_COUNT,
    HistogramEstimate,
    bin_counts,
    check_bin_count,
    generalized_quantile,
    generalized_quantiles,
    private_histogram,
    quantile_from_histogram,
)
from dpquantiles.mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    laplace_draw,
)
from dpquantiles.quantiles import SortedSample

REPLACE_1 = PrivacyBudget(1.0, NeighboringRelation.REPLACE)
ADD_REMOVE_1 = PrivacyBudget(1.0, NeighboringRelation.ADD_REMOVE)


class TestPrivateHistogram:
    def test_zero_noise_counts(self):
        sample = SortedSample(np.array([0.1, 0.2, 0.6, 0.9]))
        est = private_histogram(sample, 2, REPLACE_1, RandomSource(0), zero_noise=True)
        assert np.array_equal(est.values, [1.0, 1.0])

    def test_last_bin_is_closed(self):
        est = private_histogram(
            SortedSample(np.array([1.0])), 4, REPLACE_1, RandomSource(0), zero_noise=True
        )
        assert np.array_equal(est.values, [0.0, 0.0, 0.0, 4.0])

    def test_zero_noise_integral_is_one(self):
        sample = SortedSample(np.sort(RandomSource(5).random(997)))
        est = private_histogram(sample, 33, REPLACE_1, RandomSource(0), zero_noise=True)
        assert est.integral() == pytest.approx(1.0, abs=1e-12)

    def test_replace_noise_scale_is_two_over_epsilon(self):
        # the injected noise replays as count + (2/eps) * unit Laplace draws
        sample = SortedSample(np.array([0.1, 0.2, 0.6, 0.9]))
        est = private_histogram(sample, 2, REPLACE_1, RandomSource(55))
        raw = est.values * sample.n * est.h
        expected = np.array([2.0, 2.0]) + laplace_draw(2.0, RandomSource(55), size=2)
        assert np.allclose(raw, expected, atol=1e-12)

    def test_add_remove_noise_scale_is_one_over_epsilon(self):
        sample = SortedSample(np.array([0.1, 0.2, 0.6, 0.9]))
        est = private_histogram(sample, 2, ADD_REMOVE_1, RandomSource(55))
        raw = est.values * sample.n * est.h
        expected = np.array([2.0, 2.0]) + laplace_draw(1.0, RandomSource(55), size=2)
        assert np.allclose(raw, expected, atol=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            private_histogram(SortedSample(np.empty(0)), 2, REPLACE_1, RandomSource(0))

    def test_count_sensitivity_exhaustive(self):
        # L1 distance between count vectors over all neighbor pairs, n <= 6
        grid = (0.05, 0.3, 0.55, 0.8)
        bins = 4

        def counts(values):
            return bin_counts(SortedSample(np.array(values)), bins)

        samples_by_size = {
            size: list(itertools.combinations_with_replacement(grid, size))
            for size in range(7)
        }
        for size in range(6):
            for base in samples_by_size[size]:
                for value in grid:
                    bigger = tuple(sorted(base + (value,)))
                    l1 = np.abs(counts(base) - counts(bigger)).sum()
                    assert l1 <= 1
        for size in range(1, 7):
            for base in samples_by_size[size]:
                for i in range(size):
                    for value in grid:
                        other = tuple(sorted(base[:i] + (value,) + base[i + 1 :]))
                        l1 = np.abs(counts(base) - counts(other)).sum()
                        assert l1 <= 2


def scan_quantiles(values, ps):
    """The former left-to-right scan of generalized_quantiles, kept as the
    reference for its running-maximum inversion: it walks the bins once and
    resumes each order from the bin where the previous order crossed."""
    values = np.asarray(values, dtype=float)
    bins = values.size
    h = 1.0 / bins
    out = np.empty(len(ps))
    b = 0
    running = 0.0  # integral at the start of bin b
    for i, p in enumerate(np.asarray(ps, dtype=float)):
        while True:
            if running >= p:
                out[i] = b * h
                break
            if b == bins:
                out[i] = 1.0
                break
            v = values[b]
            if v > 0.0 and running + v * h >= p:
                out[i] = b * h + (p - running) / v
                break
            running += v * h
            b += 1
    return out


class TestBinCountRule:
    def test_bounds_are_inclusive(self):
        check_bin_count(1)
        check_bin_count(MAX_BIN_COUNT)

    @pytest.mark.parametrize("bins", [0, -3, MAX_BIN_COUNT + 1, 100_000_000_000])
    def test_rejected_before_any_allocation(self, bins, monkeypatch):
        def no_edges(*args, **kwargs):
            raise AssertionError("bin edges allocated for a rejected bin count")

        monkeypatch.setattr(histogram_module.np, "linspace", no_edges)
        with pytest.raises(InvalidArgumentError, match=f"bin count must be between 1 and {MAX_BIN_COUNT}"):
            bin_counts(SortedSample(np.array([0.5])), bins)


class TestGeneralizedQuantile:
    def test_matches_scan_reference(self):
        # negative and zero bins, p in {0, 1}, and up to 200 bins and 40 orders
        rng = np.random.default_rng(20240)
        for _ in range(4000):
            bins = int(rng.integers(1, 200))
            values = rng.normal(loc=rng.uniform(-0.5, 1.5), scale=rng.uniform(0.1, 3.0), size=bins)
            values[rng.random(bins) < 0.1] = 0.0
            ps = np.sort(np.concatenate([rng.random(int(rng.integers(0, 40))), [0.0, 1.0]]))
            ps = ps[rng.random(ps.size) < 0.8]
            assert np.array_equal(generalized_quantiles(values, ps), scan_quantiles(values, ps))

    def test_exact_crossings_and_flat_bins(self):
        # crossings on a bin edge, zero-height bins, and an integral that
        # reaches p exactly and then dips
        cases = [
            (np.ones(2), [0.0, 0.5, 0.5, 1.0]),
            (np.array([0.0, 0.0, 4.0, 0.0]), [0.0, 0.25, 1.0]),
            (np.array([2.0, -2.0, 2.0, 0.0]), [0.5, 0.5, 1.0]),
            (np.array([-1.0, 0.0]), [0.0, 0.1, 1.0]),
        ]
        for values, ps in cases:
            assert np.array_equal(generalized_quantiles(values, ps), scan_quantiles(values, ps))

    def test_uniform_density_is_identity(self):
        ones = np.ones(8)
        for p in (0.0, 0.1, 0.33, 0.5, 0.731, 1.0):
            assert generalized_quantile(ones, p) == pytest.approx(p, abs=1e-12)

    def test_negative_bin_cases(self):
        values = np.array([3.0, -1.0])
        assert generalized_quantile(values, 1.0) == pytest.approx(1 / 3, abs=1e-15)
        assert generalized_quantile(values, 0.3) == pytest.approx(0.1, abs=1e-15)
        assert generalized_quantile(values, 0.0) == 0.0

    def test_out_of_range_order_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generalized_quantile(np.array([3.0, -1.0]), 1.45)
        with pytest.raises(InvalidArgumentError):
            generalized_quantile(np.ones(4), -0.2)

    def test_no_crossing_returns_one(self):
        assert generalized_quantile(np.array([0.5, 0.2]), 0.9) == 1.0

    def test_dip_after_crossing_is_irrelevant(self):
        # integral reaches 0.5 inside the first bin, dips negative, recovers;
        # the infimum is the first crossing
        values = np.array([2.0, -3.0, 2.5, 0.1])
        assert generalized_quantile(values, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_monotone_in_p_randomized(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            bins = int(rng.integers(1, 40))
            values = rng.normal(loc=0.7, scale=1.3, size=bins)
            ps = np.sort(rng.random(10))
            out = generalized_quantiles(values, ps)
            assert np.all(np.diff(out) >= 0.0)
            single = [generalized_quantile(values, float(p)) for p in ps]
            assert np.array_equal(out, np.array(single))

    def test_resumable_scan_validates_order(self):
        with pytest.raises(InvalidArgumentError):
            generalized_quantiles(np.ones(4), [0.5, 0.2])


class TestQuantileFromHistogram:
    def test_uniform_zero_noise_deciles(self):
        sample = SortedSample(np.sort(RandomSource(9).random(10_000)))
        deciles = np.arange(1, 10) / 10.0
        out = quantile_from_histogram(
            sample, 100, REPLACE_1, deciles, RandomSource(0), zero_noise=True
        )
        assert np.max(np.abs(out - deciles)) <= 0.02

    def test_two_bin_uniform_median(self):
        sample = SortedSample(np.array([0.2, 0.3, 0.6, 0.9]))
        out = quantile_from_histogram(
            sample, 2, REPLACE_1, (0.5,), RandomSource(0), zero_noise=True
        )
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_noiseless_quantiles_within_one_bin_width(self):
        rng = RandomSource(31)
        for trial in range(20):
            values = np.sort(rng.random(500))
            sample = SortedSample(values)
            ps = np.linspace(0.05, 0.95, 19)
            out = quantile_from_histogram(
                sample, 50, REPLACE_1, ps, RandomSource(trial), zero_noise=True
            )
            # empirical quantile function: inf{q : #(X_i <= q)/n >= p}
            empirical = values[np.ceil(ps * 500).astype(int) - 1]
            assert np.max(np.abs(out - empirical)) <= 1.0 / 50 + 1e-12

    def test_exactly_one_histogram_regardless_of_m(self, monkeypatch):
        calls = {"count": 0}
        original = histogram_module.private_histogram

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(histogram_module, "private_histogram", counting)
        sample = SortedSample(np.sort(RandomSource(2).random(100)))
        for orders in [(0.5,), tuple(np.linspace(0.1, 0.9, 9))]:
            calls["count"] = 0
            quantile_from_histogram(sample, 16, REPLACE_1, orders, RandomSource(0))
            assert calls["count"] == 1

    def test_budget_independent_of_m(self):
        # same seed, different m: the shared orders get identical estimates
        sample = SortedSample(np.sort(RandomSource(8).random(200)))
        one = quantile_from_histogram(sample, 20, REPLACE_1, (0.5,), RandomSource(4))
        many = quantile_from_histogram(
            sample, 20, REPLACE_1, (0.3, 0.5, 0.7), RandomSource(4)
        )
        assert one[0] == many[1]


class TestInversionStability:
    def test_uniform_perturbations_respect_the_bound(self):
        # perturb the flat density by piecewise noise with sup norm alpha;
        # the recovered quantile moves by at most 2 alpha (plus float slack)
        rng = np.random.default_rng(777)
        for alpha in (0.05, 0.1):
            for _ in range(200):
                bins = int(rng.integers(2, 60))
                noise = rng.uniform(-1.0, 1.0, size=bins)
                noise *= alpha / np.max(np.abs(noise))
                perturbed = 1.0 + noise
                p = rng.uniform(2 * alpha + 1e-3, 1.0 - alpha - 1e-3)
                out = generalized_quantile(perturbed, p)
                assert abs(out - p) <= 2 * alpha + 1e-12


class TestDensityErrorTail:
    def test_beta22_sup_error_frequency_under_the_bound(self):
        # one configuration of the density-error tail with value below 1/2
        from dpquantiles.bounds import lemma_hist_density_tail
        from dpquantiles.distributions import DistributionOracle

        n, bins, epsilon, gamma = 10_000, 100, 1.0, 5.5
        h = 1.0 / bins
        lipschitz = 6.0  # max |d/dx 6x(1-x)| on [0, 1]
        bound = lemma_hist_density_tail(n, gamma, epsilon, lipschitz, h)
        assert bound < 0.5

        oracle = DistributionOracle.make_beta(2.0, 2.0)
        edges = np.linspace(0.0, 1.0, bins + 1)
        # per-bin density extremes: 6x(1-x) is unimodal with vertex at 1/2
        lo_heights = np.minimum(oracle.pdf(edges[:-1]), oracle.pdf(edges[1:]))
        hi_heights = np.maximum(oracle.pdf(edges[:-1]), oracle.pdf(edges[1:]))
        vertex_bin = int(0.5 * bins)
        hi_heights[vertex_bin] = oracle.pdf(0.5)

        rng = RandomSource(2712)
        trials, hits = 200, 0
        for _ in range(trials):
            sample = oracle.sample(n, rng)
            est = private_histogram(sample, bins, REPLACE_1, rng)
            sup = np.max(
                np.maximum(np.abs(est.values - lo_heights), np.abs(est.values - hi_heights))
            )
            hits += sup > gamma
        assert hits / trials <= bound + 0.05


class TestHistogramEstimate:
    def test_fields(self):
        est = HistogramEstimate(np.array([0.5, 1.5]), 1.0, NeighboringRelation.REPLACE)
        assert est.bin_count == 2
        assert est.h == 0.5

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            HistogramEstimate(np.empty(0), 1.0, NeighboringRelation.REPLACE)
