"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Criterion 1's sub-clause 1c-ordering compares the crossover
points of the two Beta shapes. It takes its direction from the histogram's
noise law: the shape whose histogram starts further behind the recursive
estimator at a single quantile (the larger ratio rho, see
``histogram_noise_ratio``) overtakes it no earlier. The comment on that
assertion gives the derivation and the measurements behind it.
"""

import math

import numpy as np
import pytest

from dpquantiles import cli
from dpquantiles.bench import (
    ExperimentConfig,
    neighboring_sample_pairs,
    centered_grid,
    run_experiment,
    verify_dp_ratio,
    verify_gap_law,
    verify_lower_bound_qexp,
)
from dpquantiles.bounds import fact_qexp_threshold, fact_recexp_threshold
from dpquantiles.distributions import DistributionOracle
from dpquantiles.histogram import generalized_quantile
from dpquantiles.mechanisms import NeighboringRelation, PrivacyBudget, RandomSource
from dpquantiles.quantiles import (
    BudgetLedger,
    QuantileQuery,
    SortedSample,
    empirical_error,
    qexp,
    recexp,
    target_rank,
)

BETA_2_5 = DistributionOracle.make_beta(2, 5)
BETA_HALF = DistributionOracle.make_beta(0.5, 0.5)

# Benchmark protocol at desk scale: n = 1e4, eps = 0.1, 50 trials, 200 bins,
# the built-in quantile grid, add/remove accounting (the recursive
# estimator's native relation; under replacement its budget halves and
# criterion 1's 2x ratio clause is unreachable).
PROTOCOL = ExperimentConfig(
    distributions=(BETA_2_5, BETA_HALF),
    estimators=("indexp", "recexp", "histogram"),
    n=10_000,
    epsilon=0.1,
    relation=NeighboringRelation.ADD_REMOVE,
    m_grid=(1, 2, 5, 10, 20, 50, 100),
    trials=50,
    histogram_bin_count=200,
    base_seed=20260809,
)


def report(number: str, name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {verdict}{suffix}")
    return ok


@pytest.fixture(scope="module")
def protocol_means():
    """Mean sup-norm error per (distribution, estimator, m) cell of PROTOCOL."""
    result = run_experiment(PROTOCOL, workers=2)
    return {(c.distribution, c.estimator, c.m): c.mean_error for c in result.cells}


def first_crossover(means, distribution):
    for m in (5, 10, 20, 50, 100):
        if means[(distribution, "histogram", m)] < means[(distribution, "recexp", m)]:
            return m
    return None


def histogram_noise_ratio(oracle):
    """rho(1/2): the histogram's noise error at the median over the
    recursive estimator's sampling error there, at m = 1, in the protocol.

    The histogram reads the median x = F^-1(1/2) off the running integral of
    its noisy bins, so its CDF error at x sums about ``B * x`` counts with
    Laplace(1/eps) noise over n (B bins, sensitivity 1 under add/remove):
    sd sqrt(2 B x) / (eps n). The recursive estimator at m = 1 is dominated by
    the empirical median's sampling sd sqrt(p (1 - p) / n). Both convert to
    a quantile error by dividing by the density f(x), which cancels. The
    histogram carries the same sampling error on top, so its full m = 1
    error ratio is about sqrt(1 + rho^2), which orders shapes as rho does.
    """
    n = PROTOCOL.n
    x = float(oracle.quantile(0.5))
    noise_sd = math.sqrt(2.0 * PROTOCOL.histogram_bin_count * x) / (PROTOCOL.epsilon * n)
    sampling_sd = math.sqrt(0.25 / n)
    return noise_sd / sampling_sd


class TestCriterion1FigureReproduction:
    def test_criterion_1(self, protocol_means):
        means = protocol_means

        indexp_curve = [means[("beta(2,5)", "indexp", m)] for m in (1, 2, 5, 10, 20, 50)]
        increasing = all(a < b for a, b in zip(indexp_curve, indexp_curve[1:]))
        ratio = means[("beta(2,5)", "indexp", 10)] / means[("beta(2,5)", "recexp", 10)]
        ok_a = report(
            "1a",
            "independent composition degrades with m",
            increasing and ratio >= 2.0,
            f"ratio at m=10: {ratio:.2f}",
        )

        hist_curve = np.array([means[("beta(2,5)", "histogram", m)] for m in PROTOCOL.m_grid])
        # flatness metric: relative standard deviation across the m grid
        spread = float(np.std(hist_curve) / np.mean(hist_curve))
        ok_b = report(
            "1b",
            "histogram error is almost flat in m",
            spread < 0.25,
            f"relative std {spread:.3f}, range/mean "
            f"{(hist_curve.max() - hist_curve.min()) / hist_curve.mean():.3f}",
        )

        m_star_25 = first_crossover(means, "beta(2,5)")
        m_star_half = first_crossover(means, "beta(0.5,0.5)")
        ok_c_exists = report(
            "1c-existence",
            "histogram overtakes the recursive estimator",
            m_star_25 is not None and m_star_half is not None,
            f"m* beta(2,5) = {m_star_25}, m* beta(0.5,0.5) = {m_star_half}",
        )
        rho_25 = histogram_noise_ratio(BETA_2_5)
        rho_half = histogram_noise_ratio(BETA_HALF)
        # (rho, m*) of the shape the noise law puts first, then the other
        early, late = sorted(
            [(rho_25, m_star_25), (rho_half, m_star_half)], key=lambda shape: shape[0]
        )
        ok_c_order = report(
            "1c-ordering",
            "the shape with the larger histogram noise ratio rho crosses no earlier",
            ok_c_exists and late[1] >= early[1],
            f"rho beta(2,5) = {rho_25:.2f}, rho beta(0.5,0.5) = {rho_half:.2f}; "
            f"m* beta(2,5) = {m_star_25}, m* beta(0.5,0.5) = {m_star_half}",
        )

        ok = ok_a and ok_b and ok_c_exists and ok_c_order
        report("1", "figure-scale qualitative reproduction", ok)
        assert ok_a, "independent-composition ordering failed"
        assert ok_b, "histogram flatness failed"
        assert ok_c_exists, "no crossover found in [5, 100]"
        # The histogram's error is almost flat in m (clause b) while the
        # recursive estimator's grows with m, so the shape on which the
        # histogram starts further behind at m = 1 needs more quantiles to
        # be overtaken. How far behind it starts is rho(1/2) (see
        # histogram_noise_ratio): the density cancels and only the median's
        # position remains, rho = sqrt(2 B x) (1 / eps) / sqrt(n / 4), which
        # is 2.06 for beta(2,5) (median 0.264) and 2.83 for beta(0.5,0.5)
        # (median 0.5). The measured m = 1 error ratios at 300 trials per
        # cell with the fixture's seed are 1.85 and 2.66, with the cells of
        # a trial sharing its sample. The crossovers follow: on the finer
        # grid m in {2..8, 10, 12, 14, 20} at 300 trials, m* = 4 for
        # beta(2,5) (paired bootstrap over trials, 95 %: 4-5) and m* = 8 for
        # beta(0.5,0.5) (8-8), and over the 13 base seeds 20260809-20260821
        # at the fixture's 50 trials m*(beta(0.5,0.5)) >= m*(beta(2,5))
        # every time (3 ties). The direction is derived from the oracles, not
        # fixed, so a change of shapes moves it with the noise law.
        assert ok_c_order, "crossover ordering contradicts the histogram noise law"


class TestCriterion2GapLaw:
    def test_exact_gap_survival(self):
        rng = RandomSource(431)
        ok = True
        details = []
        for i, (n, gammas) in enumerate(cli.GAP_LAW_CASES):
            part = verify_gap_law(n, gammas, 100_000, rng.child(i))
            ok &= part.passed
            for row in part.rows:
                ok &= abs(row["empirical"] - row["bound"]) <= 0.005
                details.append(f"n={n}: exact {row['bound']:.5f} vs {row['empirical']:.5f}")
        assert report("2", "exact minimum-gap survival law", ok, "; ".join(details))


class TestCriterion3DpRatio:
    def test_exhaustive_neighbor_pairs(self):
        ok = True
        worst = {}
        for relation in NeighboringRelation:
            pairs = neighboring_sample_pairs(cli.DP_RATIO_GRID, cli.DP_RATIO_MAX_N, relation)
            part = verify_dp_ratio(pairs, cli.DP_RATIO_EPSILONS, orders=(0.25, 0.5, 0.75))
            ok &= part.passed
            for epsilon, row in zip(cli.DP_RATIO_EPSILONS, part.rows):
                worst[(relation.value, epsilon)] = row["empirical"]
        detail = ", ".join(f"{k[0]}@{k[1]}: {v:.3f}" for k, v in worst.items())
        assert report("3", "analytic privacy ratio", ok, detail)


class TestCriterion4EmpiricalErrorFacts:
    def test_single_quantile_threshold(self):
        n = 999
        sample = SortedSample(np.arange(1, n + 1) / (n + 1))
        delta = 1.0 / (n + 1)
        epsilon, trials = 1.0, 1000
        r = target_rank(n, 0.5)
        rng = RandomSource(88)
        errors = np.array(
            [empirical_error(sample, qexp(sample, 0.5, epsilon, rng), r) for _ in range(trials)]
        )
        ok = True
        details = []
        for beta in (0.1, 0.3):
            threshold = fact_qexp_threshold(delta, beta, epsilon)
            freq = float(np.mean(errors >= threshold))
            ok &= freq <= beta + 0.03
            details.append(f"beta={beta}: freq {freq:.3f}")
        assert report("4", "single-quantile empirical-error bound", ok, "; ".join(details))

    def test_recursive_threshold(self):
        n = 999
        sample = SortedSample(np.arange(1, n + 1) / (n + 1))
        delta = 1.0 / (n + 1)
        epsilon, trials = 1.0, 1000
        ok = True
        details = []
        for m in (2, 4, 8):
            orders = centered_grid(m)
            ranks = [target_rank(n, p) for p in orders]
            query = QuantileQuery(orders, PrivacyBudget(epsilon, NeighboringRelation.ADD_REMOVE))
            rng = RandomSource(1700 + m)
            worst_errors = np.empty(trials)
            for t in range(trials):
                out = recexp(sample, query, rng)
                worst_errors[t] = max(
                    empirical_error(sample, q, r) for q, r in zip(out, ranks)
                )
            for beta in (0.1, 0.3):
                threshold = fact_recexp_threshold(delta, beta, epsilon, m)
                freq = float(np.mean(worst_errors >= threshold))
                ok &= freq <= beta + 0.03
                details.append(f"m={m} beta={beta}: {freq:.3f}")
        assert report("4r", "recursive empirical-error bound", ok, "; ".join(details))


class TestCriterion5LowerBound:
    def test_error_floor_on_the_grid(self):
        ok = True
        for t in cli.LOWER_BOUND_TS:
            for gamma in cli.LOWER_BOUND_GAMMAS:
                part = verify_lower_bound_qexp(
                    cli.LOWER_BOUND_NS, cli.LOWER_BOUND_EPSILONS, t, gamma
                )
                ok &= part.passed
        assert report("5", "exponential-mechanism error floor", ok)


class TestCriterion6InversionStability:
    def test_perturbed_flat_density(self):
        rng = np.random.default_rng(515)
        worst = 0.0
        ok = True
        for alpha in (0.05, 0.1):
            for _ in range(500):
                bins = int(rng.integers(2, 80))
                noise = rng.uniform(-1.0, 1.0, size=bins)
                noise *= alpha / np.max(np.abs(noise))
                p = rng.uniform(2 * alpha + 1e-3, 1.0 - alpha - 1e-3)
                out = generalized_quantile(1.0 + noise, p)
                gap = abs(out - p) - 2 * alpha
                worst = max(worst, gap)
                ok &= gap <= 1e-12
        assert report("6", "quantile stability under density perturbation", ok,
                      f"worst slack {worst:.2e}")


class TestCriterion7OracleRoundTrip:
    def test_cdf_quantile_consistency(self):
        oracles = [
            DistributionOracle.uniform(),
            BETA_2_5,
            BETA_HALF,
            DistributionOracle.make_beta(2, 2),
            DistributionOracle.make_beta(2, 1),
        ]
        worst = 0.0
        for i, oracle in enumerate(oracles):
            ps = 0.001 + 0.998 * RandomSource(60 + i).random(1000)
            worst = max(worst, float(np.max(np.abs(oracle.cdf(oracle.quantile(ps)) - ps))))
        inverse_square = DistributionOracle.make_beta(2, 1).quantile(0.25)
        ok = worst <= 1e-10 and abs(inverse_square - 0.5) <= 1e-10
        assert report("7", "oracle round trip", ok, f"worst |cdf(q(p)) - p| = {worst:.2e}")


class TestCriterion8Determinism:
    CONFIG = """\
config_version = 1
distributions = uniform, beta:2:5
estimators = indexp, recexp, histogram
n = 2000
epsilon = 0.5
relation = add-remove
m_grid = 1, 4
trials = 3
bins = 50
base_seed = 4242
orders = centered-grid
"""

    def test_byte_identical_csv_output(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG)
        snapshots = []
        for i, workers in enumerate((1, 3, 1)):
            outdir = tmp_path / f"run{i}"
            code = cli.main(
                ["bench", "--config", str(config), "--output", str(outdir),
                 "--workers", str(workers)]
            )
            assert code == 0
            snapshots.append(
                {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}
            )
        ok = snapshots[0] == snapshots[1] == snapshots[2] and len(snapshots[0]) == 2
        assert report("8", "benchmark CSV determinism across runs and workers", ok)


class TestCriterion9BudgetLedger:
    def test_recexp_budget_accounting(self):
        ledger = BudgetLedger()
        sample = SortedSample(np.sort(RandomSource(14).random(512)))
        query = QuantileQuery(
            centered_grid(4), PrivacyBudget(0.3, NeighboringRelation.ADD_REMOVE)
        )
        recexp(sample, query, RandomSource(15), ledger=ledger)
        per_call = [call.epsilon for call in ledger.calls]
        ok = (
            ledger.levels == 3
            and all(eps == 0.3 / 3 for eps in per_call)
            and all(abs(eps - 0.1) < 1e-15 for eps in per_call)
            and max(call.level for call in ledger.calls) <= ledger.levels
            and ledger.root_to_leaf_total() == 0.3
            and len(ledger.calls) == 4
        )
        assert report("9", "recursive budget ledger", ok,
                      f"per-call epsilon {per_call[0]!r}, path total {ledger.root_to_leaf_total()!r}")
