import dataclasses
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from dpquantiles import bench, cli
from dpquantiles.bench import (
    ExperimentConfig,
    SamplePairs,
    centered_grid,
    max_log_density_ratio,
    neighboring_sample_pairs,
    release,
    run_experiment,
    run_trial,
    verify_dp_ratio,
    verify_gap_law,
    verify_lower_bound_qexp,
    verify_quantile_concentration,
)
from dpquantiles.bounds import thm_hist_tail, thm_qexp_tail, thm_recexp_tail
from dpquantiles.distributions import DensityEnvelope, DistributionOracle
from dpquantiles.errors import InvalidArgumentError
from dpquantiles.histogram import quantile_from_histogram
from dpquantiles.mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    log_density_grid,
)
from dpquantiles.quantiles import (
    QuantileQuery,
    SortedSample,
    indexp,
    qexp,
    qexp_density,
    recexp,
    target_rank,
)
from reference import interval_mass

UNIFORM = DistributionOracle.uniform()


def small_config(**overrides):
    defaults = dict(
        distributions=(UNIFORM, DistributionOracle.make_beta(2, 5)),
        estimators=("indexp", "recexp", "histogram"),
        n=500,
        epsilon=1.0,
        relation=NeighboringRelation.ADD_REMOVE,
        m_grid=(1, 3),
        trials=3,
        histogram_bin_count=20,
        base_seed=99,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestPaperGrid:
    def test_formula(self):
        assert centered_grid(1) == (0.5,)
        assert centered_grid(3) == pytest.approx((0.375, 0.5, 0.625))
        grid = centered_grid(100)
        assert all(0.25 < p < 0.75 for p in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgumentError):
            centered_grid(0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            small_config(estimators=("indexp", "mystery"))
        with pytest.raises(InvalidArgumentError):
            small_config(trials=0)
        with pytest.raises(InvalidArgumentError):
            small_config(m_grid=())
        with pytest.raises(InvalidArgumentError):
            small_config(epsilon=0.0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_base_seed_range_is_checked_up_front(self, seed):
        with pytest.raises(InvalidArgumentError, match="key 'base_seed'"):
            small_config(base_seed=seed)
        small_config(base_seed=2**64 - 1)

    def test_explicit_orders_fix_the_grid(self):
        config = small_config(explicit_orders=(0.2, 0.5, 0.9), m_grid=(7,))
        assert config.m_grid == (3,)
        assert config.orders_for(3) == (0.2, 0.5, 0.9)


def trial_inputs(oracle, m, config, source):
    """The sample that ``source`` draws and the orders and true quantiles of
    the grid of ``m``: the shared inputs of one trial's run_trial calls."""
    orders = config.orders_for(m)
    return oracle.sample(config.n, source), orders, oracle.quantile(np.asarray(orders))


def direct_trial(config, d_idx, e_idx, m_idx, t):
    """Cell (e_idx, m_idx)'s error in trial t of distribution d_idx, from
    run_trial on the trial's sample with the cell's child noise stream."""
    source = RandomSource(config.base_seed, (d_idx, t))
    sample, orders, truth = trial_inputs(
        config.distributions[d_idx], config.m_grid[m_idx], config, source
    )
    estimator = config.estimators[e_idx]
    return run_trial(sample, estimator, orders, truth, config, source.child(e_idx, m_idx))


class TestRunTrial:
    def test_determinism(self):
        config = small_config()
        sample, orders, truth = trial_inputs(UNIFORM, 3, config, RandomSource(4))
        a = run_trial(sample, "recexp", orders, truth, config, RandomSource(5))
        b = run_trial(sample, "recexp", orders, truth, config, RandomSource(5))
        assert a == b

    def test_huge_budget_recovers_empirical_quantiles(self):
        # the estimator collapses onto the empirical quantiles, whose
        # deviation from the truth at n = 1e4 stays below 0.02
        config = small_config(n=10_000, epsilon=1e6)
        sample, orders, truth = trial_inputs(UNIFORM, 3, config, RandomSource(16))
        error = run_trial(sample, "recexp", orders, truth, config, RandomSource(17))
        assert error <= 0.02

    def test_zero_epsilon_rejected_by_budget_validation(self):
        with pytest.raises(InvalidArgumentError):
            PrivacyBudget(0.0, NeighboringRelation.ADD_REMOVE)

    def test_unknown_estimator(self):
        config = small_config()
        sample, orders, truth = trial_inputs(UNIFORM, 2, config, RandomSource(1))
        with pytest.raises(InvalidArgumentError):
            run_trial(sample, "mystery", orders, truth, config, RandomSource(0))


class TestRelease:
    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    def test_each_method_runs_its_estimator_and_records_its_split(self, relation):
        sample = SortedSample(np.sort(RandomSource(3).random(200)))
        query = QuantileQuery(centered_grid(5), PrivacyBudget(0.6, relation))
        halved = 0.3 if relation is NeighboringRelation.REPLACE else 0.6
        direct = {
            "indexp": (indexp(sample, query, RandomSource(8)), 5, 0.6, 0.6 / 5, None),
            "recexp": (recexp(sample, query, RandomSource(8)), 3, halved, halved / 3, None),
            "histogram": (
                quantile_from_histogram(sample, 16, query.budget, query.orders, RandomSource(8)),
                1, 0.6, 0.6, 16,
            ),
        }
        for method, (estimates, levels, effective, per_call, bins) in direct.items():
            out, record = release(method, sample, query, RandomSource(8), 16)
            assert out.tobytes() == estimates.tobytes(), method
            assert (record.method, record.relation, record.epsilon_total) == (method, relation, 0.6)
            assert (record.levels, record.epsilon_effective, record.bins) == (levels, effective, bins)
            assert record.eps_per_call == per_call, method


class FakePool:
    """In-process stand-in for the process pool that records how it is used."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        results = [fn(*args) for args in zip(*iterables)]
        self.tasks += len(results)
        return iter(results)


@pytest.fixture
def fake_pool(monkeypatch):
    pools = []

    def make(workers):
        pools.append(FakePool(workers))
        return pools[-1]

    monkeypatch.setattr(bench, "_process_pool", make)
    return pools


class TestRunExperiment:
    def test_single_trial_equals_run_trial(self):
        config = small_config(trials=1, m_grid=(2,), estimators=("recexp",), distributions=(UNIFORM,))
        result = run_experiment(config)
        source = RandomSource(99, (0, 0))
        sample, orders, truth = trial_inputs(UNIFORM, 2, config, source)
        direct = run_trial(sample, "recexp", orders, truth, config, source.child(0, 0))
        assert result.cells[0].mean_error == direct
        assert result.cells[0].std_error == 0.0

    def test_parallelism_does_not_change_results(self):
        # 4 cells of 25 trials on one distribution: one chunk of 25 trials at
        # 1 worker, 4 chunks at 2 workers (6, 6, 6, 7) and 6 at 3 workers
        # (4, 4, 4, 4, 4, 5)
        config = small_config(trials=25, distributions=(UNIFORM,), estimators=("indexp", "histogram"))
        assert [len(bench._trial_chunks(config, w)) for w in (1, 2, 3)] == [1, 4, 6]
        serial = run_experiment(config, workers=1)
        for workers in (2, 3):
            parallel = run_experiment(config, workers=workers)
            for a, b in zip(serial.cells, parallel.cells, strict=True):
                assert (a.distribution, a.estimator, a.m) == (b.distribution, b.estimator, b.m)
                assert a.mean_error == b.mean_error
                assert a.std_error == b.std_error
                assert a.errors == b.errors
                assert b.wall_time > 0.0

    def test_trial_errors_retained_on_request(self):
        config = small_config(trials=4, estimators=("histogram",), distributions=(UNIFORM,), m_grid=(1,))
        result = run_experiment(config)
        errors = result.cells[0].errors
        assert len(errors) == 4
        assert result.cells[0].mean_error == pytest.approx(math.fsum(errors) / 4)

    def test_trial_errors_keep_trial_order_across_chunks(self, fake_pool):
        config = small_config(trials=10, estimators=("indexp", "histogram"), m_grid=(2,))
        result = run_experiment(config, workers=2)
        assert fake_pool[0].tasks == 4  # chunks of 5 trials, two per distribution
        cells = itertools.product(range(2), range(2))  # (d_idx, e_idx)
        for (d_idx, e_idx), cell in zip(cells, result.cells, strict=True):
            assert (cell.distribution, cell.estimator) == (
                config.distributions[d_idx].label, config.estimators[e_idx]
            )
            assert cell.errors == tuple(direct_trial(config, d_idx, e_idx, 0, t) for t in range(10))

    def test_one_cell_spreads_over_the_workers(self, fake_pool):
        config = small_config(trials=10, estimators=("histogram",), distributions=(UNIFORM,), m_grid=(1,))
        serial = run_experiment(config, workers=1)
        spread = run_experiment(config, workers=2)
        (pool,) = fake_pool
        assert pool.max_workers == 2 and pool.tasks == 4
        assert spread.cells[0].errors == serial.cells[0].errors

    def test_pool_is_capped_at_the_chunk_count(self, fake_pool, monkeypatch):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 64)
        config = small_config(trials=3, estimators=("histogram",), distributions=(UNIFORM,), m_grid=(1,))
        run_experiment(config, workers=64)
        (pool,) = fake_pool
        assert pool.max_workers == 3 and pool.tasks == 3

    def test_pool_is_capped_at_the_usable_cpus(self, fake_pool, monkeypatch):
        # a million workers cut the trials into one-trial chunks, but the
        # pool starts no more processes than this process may run on
        config = small_config(n=50, trials=20, estimators=("histogram",), m_grid=(1,))
        serial = run_experiment(config, workers=1)
        spread = run_experiment(config, workers=10**6)
        (pool,) = fake_pool
        assert pool.tasks == 40 and pool.max_workers == min(40, bench._usable_cpus())
        assert [c.errors for c in spread.cells] == [c.errors for c in serial.cells]
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        run_experiment(config, workers=10**6)
        assert fake_pool[1].max_workers == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_truth_oracle_runs_once_per_cell_before_dispatch(self, workers, fake_pool, monkeypatch):
        # so that no worker imports scipy.special for the oracle again
        config = small_config(trials=5)
        calls = []
        original = DistributionOracle.quantile

        def counting(oracle, p):
            calls.append((oracle.label, len(p), len(fake_pool)))
            return original(oracle, p)

        monkeypatch.setattr(DistributionOracle, "quantile", counting)
        run_experiment(config, workers=workers)
        assert sorted(calls) == sorted(
            (oracle.label, m, 0) for oracle in config.distributions for m in config.m_grid
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_trial_names_its_trial_and_cell(self, workers):
        config = small_config(trials=3, estimators=("histogram",), distributions=(UNIFORM,), m_grid=(1,))
        object.__setattr__(config, "estimators", ("histogram", "mystery"))  # past validation
        with pytest.raises(RuntimeError, match=r"trials 0-\d of cell \(uniform.*, mystery, m=1\) failed"):
            run_experiment(config, workers=workers)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_fewer_than_one_worker(self, workers, fake_pool):
        with pytest.raises(InvalidArgumentError, match="workers"):
            run_experiment(small_config(), workers=workers)
        assert fake_pool == []

    def test_zero_n_rejected_upfront(self):
        with pytest.raises(InvalidArgumentError):
            small_config(n=0)


THREE_DISTRIBUTIONS = (
    DistributionOracle.make_beta(2, 5), DistributionOracle.make_beta(0.5, 0.5), UNIFORM
)


class TestTrialChunks:
    """The chunk rule, read from _trial_chunks alone: nothing runs."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 10**6])
    @pytest.mark.parametrize("trials", [1, 10, 50])
    @pytest.mark.parametrize("n", [1, 10**4, 10**6])
    def test_chunks_tile_the_rows_under_the_cap(self, n, trials, workers):
        config = small_config(n=n, trials=trials, distributions=THREE_DISTRIBUTIONS)
        total = 3 * trials
        chunks = bench._trial_chunks(config, workers)
        assert chunks[0][0] == 0 and chunks[-1][1] == total
        assert all(stop == start for (_, stop), (start, _) in zip(chunks, chunks[1:]))
        sizes = [stop - start for start, stop in chunks]
        assert min(sizes) >= 1
        assert all(size * (n + 2) <= bench._CHUNK_VALUES or size == 1 for size in sizes)
        if workers > 1:
            assert len(chunks) >= min(total, 2 * workers)
        else:
            # one chunk fewer would overfill one of them
            fewer = len(chunks) - 1
            assert fewer == 0 or (
                math.ceil(total / fewer) > 1
                and math.ceil(total / fewer) * (n + 2) > bench._CHUNK_VALUES
            )

    def test_default_protocol_sizes(self):
        config = small_config(n=10**4, trials=10, distributions=THREE_DISTRIBUTIONS)
        assert bench._trial_chunks(config, 1) == [(0, 10), (10, 20), (20, 30)]
        assert bench._trial_chunks(config, 2) == [(0, 7), (7, 15), (15, 22), (22, 30)]
        config = dataclasses.replace(config, trials=50)
        assert {stop - start for start, stop in bench._trial_chunks(config, 1)} == {12, 13}
        assert len(bench._trial_chunks(config, 1)) == 12

    def test_large_samples_run_one_row_at_a_time(self):
        config = small_config(n=10**6, trials=50, distributions=THREE_DISTRIBUTIONS)
        assert bench._trial_chunks(config, 1) == [(row, row + 1) for row in range(150)]

    def test_the_cap_counts_each_row_as_n_plus_two_values(self):
        # a row of the gap table holds the sample and the domain's two ends
        config = small_config(n=65_534, trials=4, distributions=(UNIFORM,))
        assert bench._trial_chunks(config, 1) == [(0, 2), (2, 4)]
        config = small_config(n=65_535, trials=4, distributions=(UNIFORM,))
        assert len(bench._trial_chunks(config, 1)) == 4


class TestCellWallTime:
    def test_calls_are_split_over_their_distributions_by_row_count(self, monkeypatch):
        # chunks of 3, 3 and 4 of the 10 rows: the second holds trials 3-4
        # of the first distribution and trial 0 of the second
        monkeypatch.setattr(bench, "_CHUNK_VALUES", 4 * (500 + 2))
        config = small_config(trials=5)
        assert bench._trial_chunks(config, 1) == [(0, 3), (3, 6), (6, 10)]
        calls = []
        original = bench._run_chunk

        def recording(config, chunk, truths):
            out = original(config, chunk, truths)
            calls.append((chunk, out[1]))
            return out

        monkeypatch.setattr(bench, "_run_chunk", recording)
        result = run_experiment(config)
        cells = bench._cells(config)
        expected = dict.fromkeys(itertools.product(range(2), cells), 0.0)
        for (start, stop), walls in calls:
            for row in range(start, stop):
                for cell, seconds in zip(cells, walls):
                    expected[row // config.trials, cell] += seconds / (stop - start)
        assert all(cell.wall_time > 0.0 for cell in result.cells)
        assert [cell.wall_time for cell in result.cells] == pytest.approx(list(expected.values()))
        total = math.fsum(seconds for _, walls in calls for seconds in walls)
        assert math.fsum(cell.wall_time for cell in result.cells) == pytest.approx(total)
        monkeypatch.undo()
        assert [c.errors for c in run_experiment(config).cells] == [c.errors for c in result.cells]


class TestSharedSample:
    """Each trial of a distribution draws one sample, shared by every
    (estimator, m) cell, each with its own child noise stream."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_sample_per_distribution_and_trial(self, workers, fake_pool, monkeypatch):
        # 10 (distribution, trial) rows: one chunk of all 10 at 1 worker,
        # which spans both distributions, 4 chunks of 2, 3, 2 and 3 at 2
        # workers and 6 chunks of 1, 2, 2, 1, 2 and 2 at 3 workers
        config = small_config(trials=5)
        draws = []
        original = DistributionOracle.sample

        def counting(oracle, n, rng):
            draws.append((oracle.label, rng.stream))
            return original(oracle, n, rng)

        monkeypatch.setattr(DistributionOracle, "sample", counting)
        result = run_experiment(config, workers=workers)
        monkeypatch.setattr(DistributionOracle, "sample", original)
        assert sorted(draws) == sorted(
            (oracle.label, (d_idx, t))
            for d_idx, oracle in enumerate(config.distributions)
            for t in range(config.trials)
        )
        indices = itertools.product(range(2), range(3), range(2))
        for (d_idx, e_idx, m_idx), cell in zip(indices, result.cells, strict=True):
            assert (cell.distribution, cell.estimator, cell.m) == (
                config.distributions[d_idx].label,
                config.estimators[e_idx],
                config.m_grid[m_idx],
            )
            assert cell.errors == tuple(
                direct_trial(config, d_idx, e_idx, m_idx, t) for t in range(config.trials)
            )

    def test_cell_laws_match_fresh_samples(self):
        # the previous protocol, kept as the law oracle: every trial of every
        # cell drew its own sample, and its noise continued the sample's
        # stream. Each cell's trials are i.i.d. in both, so a two-sample KS
        # test per cell should pass (12 cells, Bonferroni at about 0.012).
        config = small_config(n=200, trials=150, histogram_bin_count=10, m_grid=(1, 4))
        result = run_experiment(config)
        indices = itertools.product(range(2), range(3), range(2))
        for (d_idx, e_idx, m_idx), cell in zip(indices, result.cells, strict=True):
            oracle = config.distributions[d_idx]
            orders = config.orders_for(config.m_grid[m_idx])
            truth = oracle.quantile(np.asarray(orders))
            fresh = []
            for t in range(config.trials):
                rng = RandomSource(4711, (d_idx, e_idx, m_idx, t))
                sample = oracle.sample(config.n, rng)
                fresh.append(run_trial(sample, cell.estimator, orders, truth, config, rng))
            p_value = ks_2samp(cell.errors, fresh).pvalue
            assert p_value > 0.001, (cell.distribution, cell.estimator, cell.m, p_value)


# SHA-256 of the CSVs of configs/benchmark_default.cfg at 10 trials per cell,
# recorded while every trial still made its own estimator calls (x86-64,
# numpy 2.4); running each cell once over a chunk's trials keeps these bytes
DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark_default.cfg"
DEFAULT_PROTOCOL_CSV_SHA256 = {
    "beta-0.5-0.5.csv": "209a0f7bae34bedbeb657a59148cdeda1986f3010e9e8496f99d8d394e058cab",
    "beta-2-5.csv": "da6fbca66bd18d6878629aa6554ffde5e73443fea135c565fb820983b0775f54",
    "uniform.csv": "3051c39423e50d3e5f435c23699cd0d536db92e82f69496a53089a244f1ba8ce",
}


class TestProtocolBytes:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_default_protocol_csvs_keep_their_bytes(self, workers, tmp_path):
        config = dataclasses.replace(cli.parse_config_file(str(DEFAULT_CONFIG)), trials=10)
        written = cli.write_experiment_outputs(run_experiment(config, workers=workers), tmp_path)
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in written
            if path.suffix == ".csv"
        }
        assert digests == DEFAULT_PROTOCOL_CSV_SHA256


class TestVerifyGapLaw:
    def test_exact_match_at_n1(self):
        report = verify_gap_law(1, (0.25,), 100_000, RandomSource(41))
        row = report.rows[0]
        assert report.passed
        assert row["bound"] == 0.5
        assert abs(row["empirical"] - 0.5) < 0.005

    def test_impossible_event_is_exactly_zero(self):
        report = verify_gap_law(4, (0.21,), 10_000, RandomSource(2))
        assert report.passed
        assert report.rows[0]["empirical"] == 0.0

    def test_report_is_deterministic(self):
        a = verify_gap_law(5, (0.05,), 20_000, RandomSource(7))
        b = verify_gap_law(5, (0.05,), 20_000, RandomSource(7))
        assert a.rows == b.rows

    def test_report_fields(self):
        report = verify_gap_law(5, (0.05,), 5000, RandomSource(3))
        row = report.rows[0]
        for key in ("bound", "empirical", "trials", "ci_low", "ci_high", "passed"):
            assert key in row


def set_based_neighboring_sample_pairs(grid, max_n, relation):
    # the earlier enumeration, kept as the reference for sorted grids without
    # repeats: every pair re-sorted, collected in a set, then sorted
    grid = tuple(float(g) for g in grid)
    pairs = set()
    if relation is NeighboringRelation.ADD_REMOVE:
        for size in range(max_n):
            for base in itertools.combinations_with_replacement(grid, size):
                for value in grid:
                    pairs.add((base, tuple(sorted(base + (value,)))))
    else:
        for size in range(1, max_n + 1):
            for base in itertools.combinations_with_replacement(grid, size):
                for i in range(size):
                    for value in grid:
                        if value == base[i]:
                            continue
                        other = tuple(sorted(base[:i] + (value,) + base[i + 1 :]))
                        pairs.add((min(base, other), max(base, other)))
    return sorted(pairs)


class TestNeighboringSamplePairs:
    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    @pytest.mark.parametrize(
        "grid", [(), (0.5,), (0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 0.2, 0.5, 0.7, 1.0)]
    )
    def test_matches_the_set_based_reference(self, grid, relation):
        for max_n in range(6):
            expected = set_based_neighboring_sample_pairs(grid, max_n, relation)
            assert list(neighboring_sample_pairs(grid, max_n, relation)) == expected, max_n

    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    def test_audit_grid_matches_the_set_based_reference(self, relation):
        expected = set_based_neighboring_sample_pairs(AUDIT_GRID, 4, relation)
        assert list(neighboring_sample_pairs(AUDIT_GRID, 4, relation)) == expected

    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    def test_unsorted_and_repeated_grids(self, relation):
        # an unsorted grid used to give unsorted samples, which the audit rejected
        for grid in [(0.5, 0.2), (0.5, 0.2, 0.5, 0.2), (1.0, 0.0, 0.7, 0.0)]:
            for max_n in range(6):
                expected = set_based_neighboring_sample_pairs(sorted(set(grid)), max_n, relation)
                pairs = neighboring_sample_pairs(grid, max_n, relation)
                assert list(pairs) == expected, (grid, max_n)
            assert verify_dp_ratio(pairs, [1.0]).passed

    def test_is_a_read_only_sequence_of_tuple_pairs(self):
        pairs = neighboring_sample_pairs((0.2, 0.5, 0.8), 3, NeighboringRelation.REPLACE)
        listed = list(pairs)
        assert len(pairs) == len(listed) > 0
        assert [pairs[k] for k in range(len(pairs))] == listed
        assert pairs[-1] == listed[-1]
        with pytest.raises(IndexError):
            pairs[len(pairs)]
        assert len(set(pairs.samples)) == len(pairs.samples)
        assert not pairs.left.flags.writeable and not pairs.right.flags.writeable

    def test_slices_are_pair_lists_over_the_same_samples(self):
        pairs = neighboring_sample_pairs((0.2, 0.5, 0.8), 3, NeighboringRelation.ADD_REMOVE)
        listed = list(pairs)
        for part, expected in [
            (pairs[:0], []),
            (pairs[:7], listed[:7]),
            (pairs[:300], listed[:300]),
            (pairs[5:20:3], listed[5:20:3]),
            (pairs[-4:], listed[-4:]),
        ]:
            assert isinstance(part, SamplePairs)
            assert part.samples is pairs.samples
            assert list(part) == expected

    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    def test_slice_audits_like_its_list(self, relation):
        pairs = neighboring_sample_pairs(AUDIT_GRID, 4, relation)
        for k in (1, 300):
            for p in ORDERS:
                sliced = max_log_density_ratio(pairs[:k], p, EPSILONS)
                listed = max_log_density_ratio(list(pairs)[:k], p, EPSILONS)
                assert sliced.tobytes() == listed.tobytes(), (k, p)


class TestSamplePairs:
    def test_of_indexes_samples_in_first_seen_order(self):
        pairs = SamplePairs.of([((0.2,), (0.2, 0.9)), ([0.2, 0.9], ()), ((), (0.2,))])
        assert pairs.samples == ((0.2,), (0.2, 0.9), ())
        assert pairs.left.tolist() == [0, 1, 2]
        assert pairs.right.tolist() == [1, 2, 0]
        assert SamplePairs.of(pairs) is pairs

    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    def test_indexed_and_tuple_pairs_audit_alike(self, relation):
        # the enumerator's rows come in multiset order, the tuple list's in
        # first-seen order; every sup is the same float either way
        pairs = neighboring_sample_pairs(AUDIT_GRID, 4, relation)
        for p in ORDERS:
            indexed = max_log_density_ratio(pairs, p, EPSILONS)
            listed = max_log_density_ratio(list(pairs), p, EPSILONS)
            assert indexed.tobytes() == listed.tobytes(), p


class TestVerifyDpRatio:
    def test_identical_pair(self):
        report = verify_dp_ratio([((0.2, 0.4), (0.2, 0.4))], [1.0])
        assert report.passed
        assert report.rows[0]["empirical"] == 0.0

    def test_single_point_pair_is_exact(self):
        report = verify_dp_ratio([((), (0.5,))], [1.0])
        assert report.passed
        assert report.rows[0]["empirical"] <= 1.0 + 1e-9

    def test_zero_budget_is_uniform(self):
        report = verify_dp_ratio([((0.2,), (0.2, 0.9))], [0.0])
        assert report.rows[0]["empirical"] == pytest.approx(0.0, abs=1e-12)

    def test_one_row_per_budget_in_order(self):
        pairs = neighboring_sample_pairs((0.2, 0.5, 0.8), 3, NeighboringRelation.REPLACE)
        epsilons = (4.0, 0.5, 1.0)
        report = verify_dp_ratio(pairs, epsilons)
        assert [row["epsilon"] for row in report.rows] == list(epsilons)
        for epsilon, row in zip(epsilons, report.rows):
            assert row == verify_dp_ratio(pairs, [epsilon]).rows[0]
        assert report.passed

    def test_pair_list_is_indexed_once(self, monkeypatch):
        seen = []
        audit = bench.max_log_density_ratio

        def recording(pairs, p, epsilons):
            seen.append(pairs)
            return audit(pairs, p, epsilons)

        monkeypatch.setattr(bench, "max_log_density_ratio", recording)
        report = verify_dp_ratio(iter([((), (0.5,)), ((0.2,), (0.2, 0.9))]), [1.0], orders=ORDERS)
        assert report.rows[0]["trials"] == 2 * len(ORDERS)
        assert len(seen) == len(ORDERS)
        assert isinstance(seen[0], SamplePairs)
        assert all(pairs is seen[0] for pairs in seen)

    def test_one_failing_budget_fails_the_report(self, monkeypatch):
        sups = np.array([[0.4], [0.6]])
        monkeypatch.setattr(bench, "max_log_density_ratio", lambda pairs, p, eps: sups)
        report = verify_dp_ratio([((), (0.5,))], [0.5, 1.0])
        assert [row["passed"] for row in report.rows] == [True, True]
        report = verify_dp_ratio([((), (0.5,))], [0.5, 0.5])
        assert [row["passed"] for row in report.rows] == [True, False]
        assert not report.passed


def per_pair_sup(first, second, p, epsilon):
    """Reference: one pair's sup on the cells of its own merged breakpoints."""
    densities = []
    for values in (first, second):
        sample = SortedSample(np.asarray(values, dtype=float))
        densities.append(qexp_density(sample, target_rank(sample.n, p), epsilon))
    cuts = np.unique(
        np.concatenate([densities[0].breakpoints, densities[1].breakpoints, [0.0, 1.0]])
    )
    points = np.concatenate([(cuts[:-1] + cuts[1:]) / 2.0, [0.0, 1.0]])
    la = log_density_grid(densities[0], points)
    lb = log_density_grid(densities[1], points)
    return float(np.max(np.abs(la - lb)))


ORDERS = (0.25, 0.5, 0.75)
# 1e4 is past the cap: epsilon / 2 exceeds quantiles._SATURATED_C
EPSILONS = (0.0, 0.5, 1.0, 4.0, 1e4)
AUDIT_GRID = [round(0.1 * k, 1) for k in range(1, 10)]

EDGE_PAIRS = [
    ((), (0.5,)),  # the empty sample
    ((), (0.0,)),
    ((0.3, 0.3, 0.3), (0.3, 0.3)),  # duplicates make zero-length intervals
    ((0.3, 0.3), (0.3, 0.3, 0.7)),
    ((0.0, 1.0), (0.0,)),  # values exactly at the ends of the domain
    ((0.0,), (1.0,)),
    ((1.0, 1.0), (0.0, 1.0, 1.0)),
    ((0.2,), (0.2, 0.9)),  # both orientations of one pair
    ((0.2, 0.9), (0.2,)),
    ((0.1, 0.4), (0.4, 0.7)),  # value sets differ: the batch cuts refine these
    ((0.05,), (0.95,)),
    ((0.2, 0.4), (0.2, 0.4)),
    ((1e-300,), (1e-300, 2e-300)),  # gaps of 1e-300
    ((0.0, 1e-300, 2e-300), (1e-300, 2e-300, 3e-300)),
    ((1e-300, 0.5), (1e-300, 2e-300, 0.5)),
]


def assert_matches_reference(pairs, orders=ORDERS, epsilons=EPSILONS):
    # every budget in one call
    for p in orders:
        sups = max_log_density_ratio(pairs, p, epsilons)
        assert sups.shape == (len(epsilons), len(pairs))
        for epsilon, row in zip(epsilons, sups):
            expected = [per_pair_sup(a, b, p, epsilon) for a, b in pairs]
            assert row.tolist() == expected, (p, epsilon)


class TestMaxLogDensityRatio:
    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    def test_small_grid_matches_per_pair_reference(self, relation):
        assert_matches_reference(neighboring_sample_pairs((0.2, 0.5, 0.8), 5, relation))

    @pytest.mark.parametrize("relation", list(NeighboringRelation))
    def test_audit_grid_subset_matches_per_pair_reference(self, relation):
        pairs = neighboring_sample_pairs(AUDIT_GRID, 4, relation)
        picked = np.random.default_rng(2026).choice(len(pairs), 150, replace=False)
        assert_matches_reference([pairs[i] for i in sorted(picked)])

    def test_edge_cases_match_per_pair_reference(self):
        assert_matches_reference(EDGE_PAIRS)
        for pair in EDGE_PAIRS:  # one pair per call: the table has only its own cells
            assert_matches_reference([pair])

    def test_orientation_does_not_matter(self):
        flipped = [(b, a) for a, b in EDGE_PAIRS]
        for p in ORDERS:
            forward = max_log_density_ratio(EDGE_PAIRS, p, [1.0])
            assert max_log_density_ratio(flipped, p, [1.0]).tolist() == forward.tolist()

    def test_empty_pair_list(self):
        assert max_log_density_ratio([], 0.5, [1.0]).shape == (1, 0)

    def test_rejects_values_outside_the_domain(self):
        with pytest.raises(InvalidArgumentError):
            max_log_density_ratio([((0.2,), (0.2, 1.5))], 0.5, [1.0])

    @pytest.mark.parametrize(
        "pair,message",
        [
            (((0.2,), (-0.1, 0.2)), "lie in"),
            (((0.2,), (0.2, math.nan)), "lie in"),
            (((0.2,), (0.7, 0.2)), "nondecreasing"),
        ],
    )
    def test_rejects_bad_samples(self, pair, message):
        with pytest.raises(InvalidArgumentError, match=message):
            max_log_density_ratio([((0.1, 0.3), (0.3,)), pair], 0.5, [1.0])

    @pytest.mark.parametrize("epsilon", [-1.0, math.inf, math.nan])
    def test_rejects_bad_budgets(self, epsilon):
        with pytest.raises(InvalidArgumentError, match="epsilon"):
            max_log_density_ratio([((0.2,), (0.2, 0.9))], 0.5, [1.0, epsilon])

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_orders_outside_the_unit_interval(self, p):
        with pytest.raises(InvalidArgumentError, match="p must lie"):
            max_log_density_ratio([((0.2,), (0.2, 0.9))], p, [1.0])

    def test_large_samples_match_per_pair_reference(self):
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(80):
            base = tuple(np.sort(rng.random(200)).tolist())
            pairs.append((base, tuple(sorted(base + (float(rng.random()),)))))
        assert_matches_reference(pairs, orders=(0.5,), epsilons=(1.0,))

    def test_verify_counts_every_pair_and_order(self):
        pairs = neighboring_sample_pairs((0.2, 0.5, 0.8), 3, NeighboringRelation.ADD_REMOVE)
        report = verify_dp_ratio(pairs, [1.0], orders=ORDERS)
        row = report.rows[0]
        assert row["trials"] == len(pairs) * len(ORDERS)
        assert row["empirical"] == max(
            per_pair_sup(a, b, p, 1.0) for a, b in pairs for p in ORDERS
        )
        assert report.passed


class TestVerifyQuantileConcentration:
    def test_uniform_median(self):
        report = verify_quantile_concentration(1000, 0.5, 0.2, 2000, RandomSource(10))
        assert report.passed
        assert report.rows[0]["bound"] == pytest.approx(4 * math.exp(-0.04 * 1000 / 4), rel=1e-12)

    def test_vacuous_bound_passes(self):
        report = verify_quantile_concentration(50, 0.5, 0.01, 500, RandomSource(11))
        assert report.rows[0]["bound"] > 1.0
        assert report.passed

    def test_deterministic(self):
        a = verify_quantile_concentration(500, 0.25, 0.15, 1000, RandomSource(12))
        b = verify_quantile_concentration(500, 0.25, 0.15, 1000, RandomSource(12))
        assert a.rows == b.rows


class TestVerifyLowerBound:
    def test_empty_sample_exact_value(self):
        report = verify_lower_bound_qexp((0,), (1.0,), 0.5, 0.25)
        # with no data the output is uniform: P(|q - t| > gamma) = 1 - 2 gamma
        assert report.rows[0]["empirical"] == pytest.approx(0.5, abs=1e-12)
        assert report.passed

    def test_adversarial_grid(self):
        report = verify_lower_bound_qexp(range(0, 21), (0.5, 1.0), 0.5, 0.25)
        assert report.passed
        clustered = [r for r in report.rows if r["n"] == 5 and r["epsilon"] == 1.0]
        assert clustered[0]["empirical"] >= 0.0410

    def test_gamma_boundary_included(self):
        assert verify_lower_bound_qexp((3,), (0.5,), 0.3, 0.25).passed

    def test_every_mass_of_the_suite_matches_the_density_reference(self, monkeypatch):
        # one sample and order per call, so each row's value is one mass,
        # against the per-density law integrated by the reference
        samples_of = bench.worst_case_samples
        cases = itertools.product(
            cli.LOWER_BOUND_TS, cli.LOWER_BOUND_GAMMAS, cli.LOWER_BOUND_NS, cli.LOWER_BOUND_EPSILONS
        )
        checked = 0
        for t, gamma, n, eps in cases:
            for sample in samples_of(n, t):
                monkeypatch.setattr(bench, "worst_case_samples", lambda n, t: [sample])
                for p in (0.25, 0.5, 0.75):
                    (row,) = verify_lower_bound_qexp((n,), (eps,), t, gamma, (p,)).rows
                    density = qexp_density(sample, target_rank(n, p), eps)
                    inside = interval_mass(density, max(0.0, t - gamma), min(1.0, t + gamma))
                    assert row["empirical"] == 1.0 - inside, (t, gamma, sample.values, p, eps)
                    checked += 1
        assert checked == 1488

    def test_rejects_an_empty_interval(self):
        with pytest.raises(InvalidArgumentError):
            verify_lower_bound_qexp((3,), (0.5,), 0.5, -0.1)


class TestTheoremTailsNeverExceeded:
    """Monte-Carlo exceedance frequencies stay under the closed-form tails
    (checked at configurations where the bounds are not vacuous)."""

    def test_qexp_tail(self):
        n, gamma, eps, trials = 10_000, 0.05, 1.0, 300
        env = DensityEnvelope(lower=1.0, upper=1.0, lipschitz=0.0)
        bound = thm_qexp_tail(n, gamma, eps, env)
        assert bound < 1.0
        rng = RandomSource(321)
        hits = 0
        for _ in range(trials):
            sample = UNIFORM.sample(n, rng)
            q = qexp(sample, 0.5, eps, rng)
            hits += abs(q - 0.5) > gamma
        slack = 3 * math.sqrt(bound * (1 - bound) / trials)
        assert hits / trials <= bound + slack

    def test_recexp_tail(self):
        n, m, gamma, eps, trials = 10_000, 4, 0.08, 5.0, 200
        env = DensityEnvelope(lower=1.0, upper=1.0, lipschitz=0.0)
        bound = thm_recexp_tail(n, m, gamma, eps, env)
        assert bound < 1.0
        orders = centered_grid(m)
        truth = np.asarray(orders)
        query = QuantileQuery(orders, PrivacyBudget(eps, NeighboringRelation.ADD_REMOVE))
        rng = RandomSource(654)
        hits = 0
        for _ in range(trials):
            sample = UNIFORM.sample(n, rng)
            out = recexp(sample, query, rng)
            hits += np.max(np.abs(out - truth)) > gamma
        slack = 3 * math.sqrt(bound * (1 - bound) / trials)
        assert hits / trials <= bound + slack

    def test_histogram_tail(self):
        n, bins, gamma, eps, trials = 10_000, 4, 0.4, 1.0, 200
        env = DensityEnvelope(lower=1.0, upper=1.0, lipschitz=0.0)
        bound = thm_hist_tail(n, gamma, eps, env, 1.0 / bins)
        assert bound < 1.0
        gamma0 = 0.45
        ps = np.linspace(gamma0 + 0.001, 1 - gamma0 - 0.001, 21)
        budget = PrivacyBudget(eps, NeighboringRelation.REPLACE)
        rng = RandomSource(987)
        hits = 0
        for _ in range(trials):
            sample = UNIFORM.sample(n, rng)
            out = quantile_from_histogram(sample, bins, budget, ps, rng)
            hits += np.max(np.abs(out - ps)) > gamma
        slack = 3 * math.sqrt(bound * (1 - bound) / trials)
        assert hits / trials <= bound + slack
