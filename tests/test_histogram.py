import itertools
import math

import numpy as np
import pytest

from dpquantiles import histogram as histogram_module
from dpquantiles.errors import InvalidArgumentError
from dpquantiles.histogram import (
    MAX_BIN_COUNT,
    bin_counts,
    check_bin_count,
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
        assert np.array_equal(est, [1.0, 1.0])

    def test_last_bin_is_closed(self):
        est = private_histogram(
            SortedSample(np.array([1.0])), 4, REPLACE_1, RandomSource(0), zero_noise=True
        )
        assert np.array_equal(est, [0.0, 0.0, 0.0, 4.0])

    def test_zero_noise_integral_is_one(self):
        sample = SortedSample(np.sort(RandomSource(5).random(997)))
        est = private_histogram(sample, 33, REPLACE_1, RandomSource(0), zero_noise=True)
        assert math.fsum(est) / 33 == pytest.approx(1.0, abs=1e-12)

    def test_replace_noise_scale_is_two_over_epsilon(self):
        # the injected noise replays as count + (2/eps) * unit Laplace draws
        sample = SortedSample(np.array([0.1, 0.2, 0.6, 0.9]))
        est = private_histogram(sample, 2, REPLACE_1, RandomSource(55))
        raw = est * sample.n * 0.5
        expected = np.array([2.0, 2.0]) + laplace_draw(2.0, RandomSource(55), size=2)
        assert np.allclose(raw, expected, atol=1e-12)

    def test_add_remove_noise_scale_is_one_over_epsilon(self):
        sample = SortedSample(np.array([0.1, 0.2, 0.6, 0.9]))
        est = private_histogram(sample, 2, ADD_REMOVE_1, RandomSource(55))
        raw = est * sample.n * 0.5
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
            return bin_counts([np.array(values, dtype=float)], bins)[0]

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
            private_histogram(SortedSample(np.array([0.5])), bins, REPLACE_1, RandomSource(0))

    def test_edges_built_once_per_call(self, monkeypatch):
        calls = {"count": 0}
        original = np.linspace

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(histogram_module.np, "linspace", counting)
        samples = [SortedSample(np.sort(RandomSource(3, (r,)).random(50))) for r in range(4)]
        sources = [RandomSource(4, (r,)) for r in range(4)]
        quantile_from_histogram(samples, 20, REPLACE_1, (0.25, 0.5), sources)
        assert calls["count"] == 1


class TestBinCounts:
    """bin_counts against np.histogram over the same edges, its former rule."""

    @pytest.mark.parametrize("bins", [1, 2, 3, 10, 200, 100_000])
    def test_matches_np_histogram(self, bins):
        edges = np.linspace(0.0, 1.0, bins + 1)
        # values at 0 and 1, on every edge and one ulp either side, each twice
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        uniform = np.random.default_rng(bins).random(1000)
        values = np.sort(np.concatenate([[0.0, 0.0, 1.0, 1.0], near, near, uniform]))
        for sample in (values, values[::97], np.empty(0)):
            counts = bin_counts([np.sort(sample)], bins)[0]
            expected, _ = np.histogram(sample, bins=edges)
            assert counts.dtype == expected.dtype
            assert np.array_equal(counts, expected)


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
            assert generalized_quantiles(ones, [p])[0] == pytest.approx(p, abs=1e-12)

    def test_negative_bin_cases(self):
        values = np.array([3.0, -1.0])
        assert generalized_quantiles(values, [1.0])[0] == pytest.approx(1 / 3, abs=1e-15)
        assert generalized_quantiles(values, [0.3])[0] == pytest.approx(0.1, abs=1e-15)
        assert generalized_quantiles(values, [0.0])[0] == 0.0

    def test_out_of_range_order_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generalized_quantiles(np.array([3.0, -1.0]), [1.45])
        with pytest.raises(InvalidArgumentError):
            generalized_quantiles(np.ones(4), [-0.2])

    @pytest.mark.parametrize("ps", [[np.nan], [np.nan, 0.2], [0.2, np.nan]])
    def test_nan_order_rejected(self, ps):
        with pytest.raises(InvalidArgumentError, match="quantile orders"):
            generalized_quantiles(np.ones(4), ps)

    def test_no_crossing_returns_one(self):
        assert generalized_quantiles(np.array([0.5, 0.2]), [0.9])[0] == 1.0

    def test_dip_after_crossing_is_irrelevant(self):
        # integral reaches 0.5 inside the first bin, dips negative, recovers;
        # the infimum is the first crossing
        values = np.array([2.0, -3.0, 2.5, 0.1])
        assert generalized_quantiles(values, [0.5])[0] == pytest.approx(0.25, abs=1e-15)

    def test_monotone_in_p_randomized(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            bins = int(rng.integers(1, 40))
            values = rng.normal(loc=0.7, scale=1.3, size=bins)
            ps = np.sort(rng.random(10))
            out = generalized_quantiles(values, ps)
            assert np.all(np.diff(out) >= 0.0)
            single = [generalized_quantiles(values, [p])[0] for p in ps]
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


class ZeroFirstUniforms:
    """A RandomSource whose first ``zeros`` uniforms are 0.0, so the Laplace
    transform meets u = -0.5 and redraws those from the stream."""

    def __init__(self, seed, zeros):
        self.source, self.zeros, self.calls = RandomSource(seed), zeros, 0

    def random(self, size=None):
        u = self.source.random(size)
        if self.calls == 0:
            u[: self.zeros] = 0.0
        self.calls += 1
        return u


class TestRowAxis:
    """A sequence of samples with a source each: row r of one call is bit for
    bit the one-sample call on sample r and source r."""

    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    @pytest.mark.parametrize("bins", [1, 200])
    @pytest.mark.parametrize("n", [1, 5, 10_000])
    def test_rows_equal_their_own_calls(self, n, bins, relation):
        budget = PrivacyBudget(0.5, relation)
        orders = (0.0, 0.1, 0.25, 0.5, 0.5, 0.9, 1.0)
        samples = [SortedSample(np.sort(RandomSource(n, (r,)).random(n))) for r in range(3)]
        samples.append(SortedSample(np.array([0.0] * (n - n // 2) + [1.0] * (n // 2))))

        def sources():
            return [RandomSource(7, (r,)) for r in range(3)] + [ZeroFirstUniforms(8, 2)]

        rows = quantile_from_histogram(samples, bins, budget, orders, sources())
        assert rows.shape == (4, len(orders))
        for sample, source, row in zip(samples, sources(), rows):
            alone = quantile_from_histogram(sample, bins, budget, orders, source)
            assert row.tobytes() == alone.tobytes()
        scripted = sources()[-1]
        quantile_from_histogram(samples[-1:], bins, budget, orders, [scripted])
        assert scripted.calls == 2  # the zero uniforms were drawn again

    def test_zero_noise_rows(self):
        samples = [SortedSample(np.array([0.1, 0.2, 0.6, 0.9])), SortedSample(np.full(4, 0.7))]
        rows = quantile_from_histogram(
            samples, 2, REPLACE_1, (0.5,), [RandomSource(0)] * 2, zero_noise=True
        )
        assert rows.tolist() == [[0.5], [0.75]]

    @pytest.mark.parametrize("sources", [[], [RandomSource(0)], [RandomSource(0)] * 3])
    def test_needs_a_source_per_sample(self, sources):
        samples = [SortedSample(np.array([0.5]))] * (0 if not sources else 2)
        with pytest.raises(InvalidArgumentError, match="a source each"):
            quantile_from_histogram(samples, 2, REPLACE_1, (0.5,), sources)

    def test_needs_samples_of_one_size(self):
        samples = [SortedSample(np.array([0.1, 0.9])), SortedSample(np.array([0.7]))]
        with pytest.raises(InvalidArgumentError, match="one size"):
            quantile_from_histogram(samples, 2, REPLACE_1, (0.5,), [RandomSource(0)] * 2)

    def test_generalized_quantiles_rows_match_their_own_calls(self):
        # negative, zero and NaN bins, p in {0, 1}
        rng = np.random.default_rng(2024)
        for bins in (1, 2, 7, 200):
            values = rng.normal(loc=0.8, scale=2.0, size=(6, bins))
            values[rng.random(values.shape) < 0.1] = 0.0
            values[5, bins // 2] = np.nan
            ps = np.sort(np.concatenate([rng.random(20), [0.0, 1.0]]))
            rows = generalized_quantiles(values, ps)
            assert rows.shape == (6, ps.size)
            for row, heights in zip(rows, values):
                assert row.tobytes() == generalized_quantiles(heights, ps).tobytes()

    def test_generalized_quantiles_rejects_other_shapes(self):
        for values in (np.ones((2, 0)), np.ones((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(InvalidArgumentError, match="bin values"):
                generalized_quantiles(values, [0.5])


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
                out = generalized_quantiles(perturbed, [p])[0]
                assert abs(out - p) <= 2 * alpha + 1e-12


class TestDensityErrorTail:
    def test_beta22_sup_error_frequency_under_the_bound(self):
        # one configuration of the density-error tail with value below 1/2
        from scipy.stats import beta as beta_law

        from dpquantiles.bounds import lemma_hist_density_tail
        from dpquantiles.distributions import DistributionOracle

        n, bins, epsilon, gamma = 10_000, 100, 1.0, 5.5
        h = 1.0 / bins
        lipschitz = 6.0  # max |d/dx 6x(1-x)| on [0, 1]
        bound = lemma_hist_density_tail(n, gamma, epsilon, lipschitz, h)
        assert bound < 0.5

        oracle = DistributionOracle.make_beta(2.0, 2.0)
        pdf = beta_law(2.0, 2.0).pdf
        edges = np.linspace(0.0, 1.0, bins + 1)
        # per-bin density extremes: 6x(1-x) is unimodal with vertex at 1/2
        lo_heights = np.minimum(pdf(edges[:-1]), pdf(edges[1:]))
        hi_heights = np.maximum(pdf(edges[:-1]), pdf(edges[1:]))
        vertex_bin = int(0.5 * bins)
        hi_heights[vertex_bin] = pdf(0.5)

        rng = RandomSource(2712)
        trials, hits = 200, 0
        for _ in range(trials):
            sample = oracle.sample(n, rng)
            est = private_histogram(sample, bins, REPLACE_1, rng)
            sup = np.max(
                np.maximum(np.abs(est - lo_heights), np.abs(est - hi_heights))
            )
            hits += sup > gamma
        assert hits / trials <= bound + 0.05
