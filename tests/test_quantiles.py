import gc
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstest

from dpquantiles import quantiles
from dpquantiles.bench import centered_grid, max_log_density_ratio, neighboring_sample_pairs
from dpquantiles.bounds import fact_qexp_threshold
from dpquantiles.errors import InvalidArgumentError
from dpquantiles.mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    sample_piecewise,
)
from dpquantiles.quantiles import (
    BudgetLedger,
    MechanismCall,
    QuantileQuery,
    RankTarget,
    SortedSample,
    empirical_error,
    indexp,
    qexp,
    qexp_density,
    qexp_draws,
    recexp,
    recexp_depth,
    target_rank,
)

ADD_REMOVE = NeighboringRelation.ADD_REMOVE
REPLACE = NeighboringRelation.REPLACE


def evenly_spaced_sample(n):
    # gaps are exactly 1/(n+1), including the boundary gaps to 0 and 1
    return SortedSample(np.arange(1, n + 1) / (n + 1))


class TestSortedSample:
    def test_rejects_unsorted_and_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            SortedSample(np.array([0.5, 0.2]))
        with pytest.raises(InvalidArgumentError):
            SortedSample(np.array([-0.1, 0.2]))

    def test_from_unsorted(self):
        sample = SortedSample.from_unsorted([0.9, 0.1, 0.5])
        assert np.array_equal(sample.values, [0.1, 0.5, 0.9])
        assert sample.n == 3

    def test_values_are_read_only(self):
        # one sample feeds every estimator and m of a benchmark trial
        sample = SortedSample(np.array([0.1, 0.5, 0.9]))
        with pytest.raises(ValueError, match="read-only"):
            sample.values[0] = 0.2
        with pytest.raises(ValueError, match="read-only"):
            sample.values.sort()

    def test_the_callers_array_stays_writeable(self):
        raw = np.array([0.1, 0.5, 0.9])
        SortedSample(raw)
        assert raw.flags.writeable
        raw[0] = 0.2
        assert raw[0] == 0.2


class TestTargetRank:
    @pytest.mark.parametrize(
        "n,p,expected",
        [
            (3, 0.5, 1),
            (10, 0.5, 5),
            (0, 0.3, 0),
            (10, 0.7, 7),      # 10 * 0.7 rounds below 7 without the nudge
            (3, 1 / 3, 1),
            (1000, 0.001, 1),
            (7, 0.9999999, 6),
        ],
    )
    def test_values(self, n, p, expected):
        assert target_rank(n, p) == expected

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidArgumentError):
            target_rank(-1, 0.5)


class TestEmpiricalError:
    def test_examples(self):
        sample = SortedSample(np.array([0.2, 0.5, 0.8]))
        assert empirical_error(sample, 0.6, 1) == 1
        assert empirical_error(sample, 0.3, 1) == 0
        assert empirical_error(SortedSample(np.empty(0)), 0.5, 0) == 0

    def test_counting_is_strict(self):
        sample = SortedSample(np.array([0.5, 0.5]))
        assert empirical_error(sample, 0.5, 0) == 0


class TestQexpDensity:
    def test_empty_sample_is_flat(self):
        dens = qexp_density(SortedSample(np.empty(0)), RankTarget(0), 1.0)
        assert np.array_equal(dens.interval_probabilities, [1.0])

    def test_two_interval_closed_form(self):
        dens = qexp_density(SortedSample(np.array([0.5])), RankTarget(0), 2.0)
        # masses 0.5 * e^0 and 0.5 * e^{-1}
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert dens.interval_probabilities[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_epsilon_is_uniform(self):
        sample = SortedSample(np.array([0.1, 0.9]))
        dens = qexp_density(sample, RankTarget(1), 0.0)
        assert np.allclose(dens.interval_probabilities, np.diff(dens.breakpoints))

    def test_domain_validation(self):
        sample = SortedSample(np.array([0.1, 0.9]))
        with pytest.raises(InvalidArgumentError):
            qexp_density(sample, RankTarget(0, 0.2, 1.0), 1.0)
        with pytest.raises(InvalidArgumentError):
            qexp_density(sample, RankTarget(3), 1.0)
        with pytest.raises(InvalidArgumentError):
            qexp_density(sample, RankTarget(1), -1.0)


class TestQexp:
    def test_empty_sample_is_uniform(self):
        rng = RandomSource(21)
        draws = np.array([qexp(SortedSample(np.empty(0)), 0.5, 1.0, rng) for _ in range(20_000)])
        assert kstest(draws, "uniform").statistic < 0.015

    def test_determinism(self):
        sample = evenly_spaced_sample(99)
        assert qexp(sample, 0.3, 2.0, RandomSource(5)) == qexp(sample, 0.3, 2.0, RandomSource(5))

    def test_high_budget_empirical_error(self):
        # evenly spaced sample with gap exactly 1e-3; at eps=50 the
        # high-probability error level is 2(ln 1000 + ln 20)/50 < 0.4,
        # so the integer rank error must be 0 in at least 1 - beta of runs
        sample = evenly_spaced_sample(999)
        beta = 0.05
        threshold = fact_qexp_threshold(1e-3, beta, 50.0)
        assert threshold < 0.4
        r = target_rank(999, 0.5)
        rng = RandomSource(77)
        exceed = sum(
            empirical_error(sample, qexp(sample, 0.5, 50.0, rng), r) > threshold
            for _ in range(1000)
        )
        assert exceed / 1000 <= beta + 0.03

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidArgumentError):
            qexp(evenly_spaced_sample(5), 0.0, 1.0, RandomSource(0))


class TestIndexp:
    def test_single_order_equals_qexp(self):
        sample = evenly_spaced_sample(200)
        query = QuantileQuery((0.4,), PrivacyBudget(1.5, ADD_REMOVE))
        assert indexp(sample, query, RandomSource(9))[0] == qexp(sample, 0.4, 1.5, RandomSource(9))

    def test_budget_split(self):
        ledger = BudgetLedger()
        query = QuantileQuery((0.2, 0.4, 0.6, 0.8), PrivacyBudget(1.0, REPLACE))
        indexp(evenly_spaced_sample(50), query, RandomSource(1), ledger=ledger)
        assert [call.epsilon for call in ledger.calls] == [0.25] * 4
        assert ledger.levels == 4

    def test_outputs_not_forced_monotone(self):
        # with a tiny budget the independent draws are nearly uniform and
        # some run must come out unsorted
        sample = evenly_spaced_sample(100)
        query = QuantileQuery((0.3, 0.5, 0.7), PrivacyBudget(1e-6, ADD_REMOVE))
        rng = RandomSource(123)
        unsorted_seen = any(
            np.any(np.diff(indexp(sample, query, rng)) < 0) for _ in range(50)
        )
        assert unsorted_seen


def density_oracle(sample, ranks, epsilon, rng):
    # the per-order density sampler that the shared table replaces
    return np.array(
        [sample_piecewise(qexp_density(sample, RankTarget(r), epsilon), rng) for r in ranks]
    )


class ScriptedUniforms:
    """Stands in for RandomSource: replays a fixed cycle of uniforms."""

    def __init__(self, cycle):
        self.cycle, self.drawn = cycle, 0

    def random(self, size=None):
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        self.drawn += 1
        return self.cycle[(self.drawn - 1) % len(self.cycle)]


def oracle_test_sample(shape, n, seed):
    x = np.random.default_rng(seed).beta(2.0, 5.0, n)
    if shape == "duplicates":
        x = np.round(x, 2)
    elif shape == "endpoints":
        # a third of the points at exactly 0 and a third at exactly 1
        x[: (n + 2) // 3] = 0.0
        x[n - n // 3 :] = 1.0
    elif shape == "tiny-gaps":
        # the lower half spaced 1e-300 apart from 0 on
        x[: (n + 1) // 2] = np.arange(1, (n + 1) // 2 + 1) * 1e-300
    elif shape == "ulps":
        # six adjacent doubles above 1/2, so draws often round onto a point
        x = 0.5 + np.random.default_rng(seed).integers(0, 6, n) * 2.0**-53
    return SortedSample.from_unsorted(x)


def full_gap_tables(values, epsilon):
    # the whole table in two full passes, as it was built before the table
    # became lazy: the reference every computed entry must equal bit for bit
    n = values.size
    x = np.concatenate(([0.0], values, [1.0]))
    c = min(epsilon / 2.0, quantiles._SATURATED_C)
    ck = c * np.arange(n + 1)
    with np.errstate(divide="ignore"):
        log_gaps = np.log(np.diff(x))
    A = np.empty(n + 2)
    A[0] = -np.inf
    np.logaddexp.accumulate(log_gaps + ck, out=A[1:])
    B = np.empty(n + 2)
    B[n + 1] = -np.inf
    B[: n + 1] = np.logaddexp.accumulate((log_gaps - ck)[::-1])[::-1]
    return x, c, A, B


def assert_matches_full_table(table, values, epsilon):
    x, c, A, B = full_gap_tables(values, epsilon)
    lo, hi = table.b_lo, table.a_hi
    assert table.c == c and table.x.tobytes() == x.tobytes()
    assert table.A[: hi + 1].tobytes() == A[: hi + 1].tobytes()
    assert table.B[lo:].tobytes() == B[lo:].tobytes()
    assert table.neg_B[lo:].tobytes() == (-B[lo:]).tobytes()
    # the uncomputed entries keep both search arrays sorted
    assert np.all(table.A[hi + 1 :] == np.inf) and np.all(table.neg_B[:lo] == -np.inf)


@pytest.fixture
def recorded_tables(monkeypatch):
    # every _GapTable the draws build, in order
    made = []

    class Recording(quantiles._GapTable):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(quantiles, "_GapTable", Recording)
    return made


def with_full_table(monkeypatch, draw):
    # ``draw()`` on tables computed in full up front, so no search ever
    # reaches the edge of a computed region
    class Full(quantiles._GapTable):
        def __init__(self, values, epsilon, b_lo, a_hi):
            super().__init__(values, epsilon, 0, values.size + 1)

    with monkeypatch.context() as patch:
        patch.setattr(quantiles, "_GapTable", Full)
        return draw()


class TestQexpDraws:
    @pytest.mark.parametrize("shape", ["beta", "duplicates", "endpoints", "tiny-gaps"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 1000, 10000])
    def test_indexp_equals_the_density_oracle(self, n, shape, recorded_tables):
        sample = oracle_test_sample(shape, n, seed=n)
        for m in (1, 2, 10, 100):
            orders = centered_grid(m) if m > 2 else (0.01, 0.99)[-m:]
            for eps_each in (1e-3, 0.1, 1.0, 10.0, 1000.0):
                query = QuantileQuery(orders, PrivacyBudget(eps_each * m, ADD_REMOVE))
                ledger = BudgetLedger()
                rng, oracle_rng = RandomSource(17, (n, m)), RandomSource(17, (n, m))
                out = indexp(sample, query, rng, ledger=ledger)
                ranks = [target_rank(n, p) for p in orders]
                expected = density_oracle(sample, ranks, query.budget.epsilon / m, oracle_rng)
                assert np.array_equal(out, expected), (m, eps_each)
                # the stream stays in step with m sequential density draws
                assert rng.random() == oracle_rng.random()
                eps_call = query.budget.epsilon / m
                assert ledger.calls == [MechanismCall(j, 1, eps_call, n) for j in range(m)]
                assert ledger.levels == m and ledger.eps_per_call == eps_call
                assert_matches_full_table(recorded_tables[-1], sample.values, eps_call)

    def test_every_rank_and_zero_budget(self):
        sample = oracle_test_sample("duplicates", 300, seed=4)
        ranks = list(range(301))
        for epsilon in (0.0, 3.0):
            expected = density_oracle(sample, ranks, epsilon, RandomSource(8))
            assert np.array_equal(qexp_draws(sample, ranks, epsilon, RandomSource(8)), expected)

    def test_extreme_uniforms_skip_zero_length_intervals(self):
        # three points at 0 and two at 1 make zero-length end intervals; the
        # smallest and largest uniforms must still land in positive ones
        sample = SortedSample(np.array([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.0]))
        ranks = list(range(8))
        for epsilon in (0.0, 1.0, 50.0):
            draws = qexp_draws(sample, ranks, epsilon, ScriptedUniforms([0.0, 0.5]))
            expected = density_oracle(sample, ranks, epsilon, ScriptedUniforms([0.0, 0.5]))
            assert np.array_equal(draws, expected) and np.all(draws == 0.125)
            top_cycle = [1.0 - 2.0**-53, 0.5]
            top = qexp_draws(sample, ranks, epsilon, ScriptedUniforms(top_cycle))
            expected = density_oracle(sample, ranks, epsilon, ScriptedUniforms(top_cycle))
            assert np.array_equal(top, expected), epsilon
            assert np.all((top > 0.0) & (top < 1.0))

    def test_saturated_budget_matches_the_oracle(self):
        # beyond c = 1500 the oracle's law no longer depends on epsilon
        sample = oracle_test_sample("tiny-gaps", 1000, seed=6)
        ranks = list(range(0, 1001, 37))
        for epsilon in (2999.0, 3001.0, 1e5):
            expected = density_oracle(sample, ranks, epsilon, RandomSource(2))
            assert np.array_equal(qexp_draws(sample, ranks, epsilon, RandomSource(2)), expected)
        draws = qexp_draws(sample, ranks, 1.7e308, RandomSource(2))
        assert np.all((draws >= 0.0) & (draws <= 1.0))

    def test_validation(self):
        sample = evenly_spaced_sample(3)
        for ranks in ([4], [-1], [[1]]):
            with pytest.raises(InvalidArgumentError):
                qexp_draws(sample, ranks, 1.0, RandomSource(0))
        for epsilon in (-1.0, math.inf, math.nan):
            with pytest.raises(InvalidArgumentError):
                qexp_draws(sample, [1], epsilon, RandomSource(0))
        assert qexp_draws(sample, [], 1.0, RandomSource(0)).shape == (0,)


def per_slice_recexp(sample, query, rng, ledger=None):
    # the reference recursion: a SortedSample, a qexp_density and a
    # sample_piecewise draw on every slice. Node i in preorder takes
    # uniforms 2i and 2i + 1
    m = query.m
    depth = recexp_depth(m)
    eps = query.budget.epsilon
    eps_effective = eps if query.budget.relation is ADD_REMOVE else eps / 2.0
    eps_call = eps_effective / depth
    if ledger is not None:
        ledger.allocate(eps, eps_effective, depth)
    values, n, out = sample.values, sample.n, np.empty(m)

    def recurse(j_lo, j_hi, a, b, lo, hi, level):
        if j_lo > j_hi:
            return
        if lo == hi:
            # the subtree is pinned at lo and its nodes' uniforms go unused
            out[j_lo - 1 : j_hi] = lo
            rng.random(2 * (j_hi - j_lo + 1))
            return
        j_mid = (j_lo + j_hi) // 2
        r = min(max(target_rank(n, query.orders[j_mid - 1]) - a, 0), b - a)
        density = qexp_density(SortedSample(values[a:b]), RankTarget(r, lo, hi), eps_call)
        q = sample_piecewise(density, rng)
        if ledger is not None:
            ledger.record(j_mid - 1, level, eps_call, b - a)
        out[j_mid - 1] = q
        s = int(np.searchsorted(values[a:b], q, side="left"))
        recurse(j_lo, j_mid - 1, a, a + s, lo, q, level + 1)
        recurse(j_mid + 1, j_hi, a + s, b, q, hi, level + 1)

    recurse(1, m, 0, n, 0.0, 1.0, 1)
    return out


def recexp_test_orders(m):
    # extreme orders at small m, so targets fall outside many slices
    return {1: (0.01,), 2: (0.01, 0.99), 3: (0.001, 0.5, 0.999)}.get(m) or centered_grid(m)


# the relation only halves epsilon, so the two alternate along the budgets
RECEXP_GRID = (
    (1e-6, ADD_REMOVE), (1e-3, REPLACE), (0.1, ADD_REMOVE), (1.0, REPLACE),
    (10.0, ADD_REMOVE), (1e3, REPLACE), (1e300, ADD_REMOVE), (1e300, REPLACE),
)
RECEXP_SHAPES = ["beta", "duplicates", "endpoints", "tiny-gaps", "ulps"]


def scripted_draws(table, a, b, lo, hi, R, u_pick, u_pos):
    # stands in for quantiles._draws: a pick uniform in the first third draws
    # lo, in the second hi (each pins a child's subtree), else a point inside
    # placed by the position uniform
    return np.select([u_pick < 1 / 3, u_pick < 2 / 3], [lo, hi], lo + u_pos * (hi - lo))


def preorder_stream_rule(m, uniforms):
    # the stream rule written out: the i-th node in preorder, pinned ones
    # counted, draws with uniforms 2i and 2i + 1; a collapsed domain pins its
    # subtree at lo. Returns the outputs and the live nodes' (order index,
    # level) in preorder
    out, live = [None] * m, []

    def recurse(j_lo, j_hi, lo, hi, level, node):
        if j_lo > j_hi:
            return node
        if lo == hi:
            out[j_lo - 1 : j_hi] = [lo] * (j_hi - j_lo + 1)
            return node + j_hi - j_lo + 1
        j = (j_lo + j_hi) // 2
        q = float(scripted_draws(None, 0, 0, lo, hi, 0, uniforms[2 * node], uniforms[2 * node + 1]))
        out[j - 1] = q
        live.append((j - 1, level))
        node = recurse(j_lo, j - 1, lo, q, level + 1, node + 1)
        return recurse(j + 1, j_hi, q, hi, level + 1, node)

    recurse(1, m, 0.0, 1.0, 1, 0)
    return out, live


# every tree of up to three full levels, with all 3^m ways to pin its subtrees
PINNED_MAX_M = 7


class TestRecexpTable:
    @pytest.mark.parametrize(
        "n,shape",
        [(0, "beta")] + [(n, shape) for n in (1, 2, 3, 5, 50, 10000) for shape in RECEXP_SHAPES],
    )
    def test_equals_the_per_slice_oracle(self, n, shape, recorded_tables):
        sample = oracle_test_sample(shape, n, seed=n)
        for m in (1, 2, 3, 10, 100):
            # the per-slice oracle is slow at m = 100 and at n = 10000
            cases = RECEXP_GRID if m <= 10 and n < 10000 else RECEXP_GRID[::3]
            for epsilon, relation in cases:
                query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(epsilon, relation))
                rng, oracle_rng = RandomSource(5, (n, m)), RandomSource(5, (n, m))
                ledger, oracle_ledger = BudgetLedger(), BudgetLedger()
                out = recexp(sample, query, rng, ledger=ledger)
                expected = per_slice_recexp(sample, query, oracle_rng, ledger=oracle_ledger)
                assert np.array_equal(out, expected), (m, epsilon, relation)
                # same stream position and the same ledger records
                assert rng.random() == oracle_rng.random()
                assert ledger == oracle_ledger
                assert_matches_full_table(recorded_tables[-1], sample.values, ledger.eps_per_call)

    def test_extreme_uniforms_skip_zero_length_intervals(self):
        # zero-length intervals at both ends and in the middle, and children
        # whose domain ends on a sample point (a position uniform of 0): the
        # smallest and largest uniforms must pick what the density sampler picks
        samples = (
            SortedSample(np.array([0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0])),
            oracle_test_sample("beta", 5, seed=5),
            oracle_test_sample("beta", 50, seed=50),
        )
        cycles = ([0.0, 0.5], [0.5, 0.0], [0.3, 1.0 - 2.0**-53], [0.5, 0.0, 1.0 - 2.0**-53, 0.5])
        for sample in samples:
            for m in (1, 3, 7):
                for epsilon in (1e-3, 1.0, 50.0):
                    query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(epsilon, ADD_REMOVE))
                    for cycle in cycles:
                        out = recexp(sample, query, ScriptedUniforms(cycle))
                        expected = per_slice_recexp(sample, query, ScriptedUniforms(cycle))
                        assert np.array_equal(out, expected), (cycle, m, epsilon)
        for m in (1, 3, 7):
            for epsilon in (1e-3, 1.0, 50.0):
                query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(epsilon, ADD_REMOVE))
                top = recexp(samples[0], query, ScriptedUniforms([1.0 - 2.0**-53, 0.5]))
                assert np.all((top > 0.0) & (top < 1.0)), (m, epsilon)

    def test_lowest_uniform_stays_inside_the_slice(self):
        # on 1e-300 gaps the slice's mass below the rank is about 1e-299 of
        # its total, so these pick uniforms choose the B side, whose search
        # must stay from the rank on and never take [0, 1e-300]
        sample = oracle_test_sample("tiny-gaps", 5, seed=5)
        for m, u_pick in itertools.product((3, 7), (2.0**-53, 2.0**-52)):
            query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(1e-3, REPLACE))
            out = recexp(sample, query, ScriptedUniforms([u_pick, 0.5]))
            expected = per_slice_recexp(sample, query, ScriptedUniforms([u_pick, 0.5]))
            assert np.array_equal(out, expected), (m, u_pick)
            assert out[0] > 1e-300, (m, u_pick)

    def test_top_uniform_skips_massless_intervals_in_the_reference(self):
        # the per-slice reference used to force only its last cumulative to
        # 1.0, so the largest uniform fell past the rounded total onto the
        # zero-length interval at 1; the exact law and the table give 0.375
        sample = SortedSample(np.array([0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0]))
        query = QuantileQuery((0.01,), PrivacyBudget(50.0, ADD_REMOVE))
        cycle = [1.0 - 2.0**-53, 0.5]
        assert per_slice_recexp(sample, query, ScriptedUniforms(cycle))[0] == 0.375
        assert recexp(sample, query, ScriptedUniforms(cycle))[0] == 0.375

    def test_each_node_reads_the_pair_of_its_preorder_position(self, monkeypatch):
        # every pattern of pinned subtrees for m <= PINNED_MAX_M: node i's
        # pick uniform chooses its draw (lo, hi, or inside by its position
        # uniform), so its live nodes and outputs must be those of the
        # written-out stream rule, which skips a pinned subtree's pairs
        monkeypatch.setattr(quantiles, "_draws", scripted_draws)
        sample = evenly_spaced_sample(5)
        for m in range(1, PINNED_MAX_M + 1):
            query = QuantileQuery(centered_grid(m), PrivacyBudget(1.0, ADD_REMOVE))
            for actions in itertools.product(range(3), repeat=m):
                uniforms = [
                    u for i, a in enumerate(actions) for u in ((a + 0.5) / 3, (i + 1) / (m + 1))
                ]
                stream, ledger = ScriptedUniforms(uniforms), BudgetLedger()
                out = recexp(sample, query, stream, ledger=ledger)
                expected, live = preorder_stream_rule(m, uniforms)
                assert out.tolist() == expected, actions
                assert [(call.order_index, call.level) for call in ledger.calls] == live, actions
                assert stream.drawn == 2 * m

    def test_leaves_no_reference_cycles(self):
        # a cycle would keep the O(n) tables alive until the cyclic collector ran
        sample = oracle_test_sample("beta", 1000, seed=3)
        query = QuantileQuery(centered_grid(10), PrivacyBudget(1.0, REPLACE))
        gc.collect()
        gc.disable()
        try:
            recexp(sample, query, RandomSource(1), ledger=BudgetLedger())
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGapTable:
    @pytest.mark.parametrize("shape", RECEXP_SHAPES)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 50, 1000])
    def test_every_computed_entry_equals_the_full_table(self, n, shape):
        sample = oracle_test_sample(shape, n, seed=n)
        steps = np.random.default_rng(n)
        for epsilon in (0.0, 1e-3, 1.0, 1e3, 1e300):
            start = sorted(steps.integers(0, n + 1, 2))
            table = quantiles._GapTable(sample.values, epsilon, start[0], start[1])
            assert (table.b_lo, table.a_hi) == (start[0], start[1])
            assert_matches_full_table(table, sample.values, epsilon)
            # extensions in both directions, some of them no-ops, down to the
            # whole table
            for k in list(steps.integers(0, n + 2, 6)) + [n + 1, 0]:
                table.extend_a(int(k))
                table.extend_b(int(n + 1 - k))
                assert table.a_hi >= k and table.b_lo <= n + 1 - k
                assert_matches_full_table(table, sample.values, epsilon)
            assert (table.b_lo, table.a_hi) == (0, n + 1)

    def test_draws_compute_only_the_entries_they_read(self, recorded_tables):
        sample = oracle_test_sample("beta", 1000, seed=1)
        ranks = [250, 400, 600]
        qexp_draws(sample, ranks, 1.0, RandomSource(3))
        query = QuantileQuery((0.3, 0.5, 0.7), PrivacyBudget(1.0, REPLACE))
        recexp(sample, query, RandomSource(3))
        assert [(t.b_lo, t.a_hi) for t in recorded_tables] == [(250, 600), (300, 700)]
        for table, epsilon in zip(recorded_tables, (1.0, 0.5 / 2)):
            assert_matches_full_table(table, sample.values, epsilon)

    def test_slice_without_a_point_extends_nothing(self, recorded_tables):
        # with every point above 1/2 and this budget the root draw lands in
        # [0, x_1], so the left child's slice is empty at rank 0; B stays
        # uncomputed below the smallest target rank
        sample = SortedSample(0.5 + oracle_test_sample("beta", 1000, seed=1).values / 2)
        query = QuantileQuery((0.3, 0.5, 0.7), PrivacyBudget(1e-3, ADD_REMOVE))
        out = recexp(sample, query, ScriptedUniforms([0.2, 0.5]))
        assert out[0] < out[1] < sample.values[0]
        (table,) = recorded_tables
        assert (table.b_lo, table.a_hi) == (300, 700)
        assert_matches_full_table(table, sample.values, 1e-3 / 2)

    def test_qexp_b_search_continues_below_the_computed_region(self, recorded_tables):
        # interval 3, just below rank 4, has zero length ([0.4, 0.4]); this
        # uniform picks the side from interval 4 on and its rounded target
        # exceeds B_4, so the capped search must stop at [0.4, 0.5] and leave
        # B uncomputed below the rank (the density sampler, rounding the other
        # way at this uniform, takes [0.2, 0.4])
        sample = SortedSample(np.array([0.1, 0.2, 0.4, 0.4, 0.5, 0.6]))
        cycle = [0.39985001249999935, 0.5]
        out = qexp_draws(sample, [4], 0.001, ScriptedUniforms(cycle))
        assert out[0] == 0.45
        (table,) = recorded_tables
        assert table.b_lo == 4
        assert_matches_full_table(table, sample.values, 0.001)

    def test_recexp_b_search_continues_below_the_computed_region(self, recorded_tables):
        # the same at the recursion root: interval 1, just below rank 2, is
        # [0.1, 0.1], and the draw stays in [0.1, 0.6] (the per-slice sampler
        # takes [0, 0.1])
        sample = SortedSample(np.array([0.1, 0.1, 0.6, 0.7]))
        query = QuantileQuery((0.5,), PrivacyBudget(0.001, ADD_REMOVE))
        cycle = [0.09994500400369535, 0.5]
        out = recexp(sample, query, ScriptedUniforms(cycle))
        assert out[0] == 0.35
        (table,) = recorded_tables
        assert table.b_lo == 2
        assert_matches_full_table(table, sample.values, 0.001)

    def test_b_side_draw_skips_a_tie_below_the_rank(self, recorded_tables):
        # interval 4, just below rank 5, is [0.3, 0.3]; this uniform picks
        # the side from interval 5 on, so the draw lies in [0.3, 0.7] as the
        # density sampler's does, not in [0.2, 0.3]
        sample = SortedSample(np.array([0.0, 0.1, 0.2, 0.3, 0.3, 0.7, 0.7, 0.7, 0.7, 0.9]))
        cycle = [0.2998799080415821, 0.5]
        query = QuantileQuery((0.5,), PrivacyBudget(0.001, ADD_REMOVE))
        out = recexp(sample, query, ScriptedUniforms(cycle))
        assert np.array_equal(out, per_slice_recexp(sample, query, ScriptedUniforms(cycle)))
        draws = qexp_draws(sample, [5], 0.001, ScriptedUniforms(cycle))
        assert np.array_equal(draws, density_oracle(sample, [5], 0.001, ScriptedUniforms(cycle)))
        assert out[0] == draws[0] == 0.5
        assert [t.b_lo for t in recorded_tables] == [5, 5]

    def test_recexp_extends_a_beyond_the_largest_rank(self, recorded_tables, monkeypatch):
        # at this budget the draws are nearly uniform on their domains, so a
        # root draw at 0.7 or 0.9 has more of the 50 points below it than the
        # largest target rank: the right child's slice starts above every
        # rank and clamps its rank there
        sample = oracle_test_sample("beta", 50, seed=50)
        for m, u_pick in itertools.product((7, 10), (0.7, 0.9)):
            query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(1e-3, ADD_REMOVE))
            ranks = [target_rank(50, p) for p in query.orders]
            cycle = [u_pick, 0.5]
            out = recexp(sample, query, ScriptedUniforms(cycle))
            table = recorded_tables[-1]
            assert table.a_hi > max(ranks), m
            assert_matches_full_table(table, sample.values, 1e-3 / recexp_depth(m))
            assert np.array_equal(out, per_slice_recexp(sample, query, ScriptedUniforms(cycle)))
            full = with_full_table(monkeypatch, lambda: recexp(sample, query, ScriptedUniforms(cycle)))
            assert np.array_equal(out, full)


def assert_side_rule(x, A, B, c, slice_, u_pick, q):
    """The draw ``q``, taken at position uniform 0.5 in the slice ``(a, b,
    lo, hi, R)`` of the gaps of ``x`` with full table ``A``, ``B``, lies in
    a gap ``k`` in ``[a, b]`` that moves its side's table entry (``A_{k+1} >
    A_k`` below ``R``, ``B_k > B_{k+1}`` from ``R`` on), on the side that
    ``u_pick`` chooses in exact arithmetic unless the masses put that choice
    within rounding."""
    a, b, lo, hi, R = slice_
    ks = np.arange(a, b + 1)
    with np.errstate(divide="ignore"):
        log_mass = np.log(np.minimum(x[ks + 1], hi) - np.maximum(x[ks], lo)) - c * np.abs(ks - R)
        log_table = np.log(np.diff(x)) - c * np.abs(np.arange(x.size - 1) - R)

    def mass(log_terms):
        return mpmath.exp(np.logaddexp.reduce(log_terms, initial=-np.inf))

    left, right = mass(log_mass[ks < R]), mass(log_mass[ks >= R])
    if right == 0 or left == 0:
        chosen_left = right == 0
    else:
        # the table's rounding, relative to the table mass its comparison reads
        slack = 1e-11 * (mass(log_table[:R]) + u_pick * mass(log_table))
        below = u_pick * (left + right) - left
        chosen_left = None if abs(below) <= slack else below < 0
    for k in ks[(np.maximum(x[ks], lo) <= q) & (q <= np.minimum(x[ks + 1], hi))]:
        moves = A[k + 1] > A[k] if k < R else B[k] > B[k + 1]
        if moves and chosen_left in (None, k < R):
            return
    raise AssertionError(f"{q} breaks the side rule in slice {slice_} at u_pick {u_pick}")


SIDE_RULE_SAMPLES = [
    oracle_test_sample(shape, n, seed=n) for shape in RECEXP_SHAPES for n in (1, 2, 5, 50)
] + [
    SortedSample(np.array(values))
    for values in (
        [0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0],
        [0.0, 0.1, 0.2, 0.3, 0.3, 0.7, 0.7, 0.7, 0.7, 0.9],
        [0.1, 0.2, 0.4, 0.4, 0.5, 0.6],
    )
]
SIDE_RULE_EPSILONS = (1e-6, 1e-3, 1.0, 50.0, 1e3, 1e300)
EXTREME_PICKS = (0.0, 2.0**-53, 2.0**-52, 1.0 - 2.0**-52, 1.0 - 2.0**-53)


class TestSideRule:
    def test_qexp_draws_at_extreme_pick_uniforms(self):
        for sample, epsilon in itertools.product(SIDE_RULE_SAMPLES, SIDE_RULE_EPSILONS):
            x, c, A, B = full_gap_tables(sample.values, epsilon)
            ranks = range(sample.n + 1)
            for u_pick in EXTREME_PICKS:
                draws = qexp_draws(sample, ranks, epsilon, ScriptedUniforms([u_pick, 0.5]))
                for r, q in zip(ranks, draws):
                    assert_side_rule(x, A, B, c, (0, sample.n, 0.0, 1.0, r), u_pick, q)

    def test_recexp_slices_at_extreme_pick_uniforms(self, monkeypatch):
        # every slice of every level keeps the side rule, and each level
        # draws the same on a table whose uncomputed B entries are NaN and on
        # the full table: no entry that was never computed feeds a draw
        levels, draws = [], quantiles._draws

        def recording(table, *slices):
            q = draws(table, *slices)
            levels.append(((table.b_lo, table.a_hi), slices, q))
            return q

        monkeypatch.setattr(quantiles, "_draws", recording)
        for sample, epsilon in itertools.product(SIDE_RULE_SAMPLES, SIDE_RULE_EPSILONS):
            for m, u_pick in itertools.product((3, 7), EXTREME_PICKS):
                query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(epsilon, ADD_REMOVE))
                levels.clear()
                recexp(sample, query, ScriptedUniforms([u_pick, 0.5]))
                eps_call = epsilon / recexp_depth(m)
                x, c, A, B = full_gap_tables(sample.values, eps_call)
                for (b_lo, a_hi), slices, q in levels:
                    poisoned = quantiles._GapTable(sample.values, eps_call, b_lo, a_hi)
                    poisoned.B[:b_lo] = np.nan
                    full = quantiles._GapTable(sample.values, eps_call, 0, sample.n + 1)
                    assert draws(poisoned, *slices).tobytes() == q.tobytes()
                    assert draws(full, *slices).tobytes() == q.tobytes()
                    for a, b, lo, hi, R, u, _, q_i in zip(*slices, q):
                        if a < b and lo < hi:  # else the slice has one interval
                            assert_side_rule(x, A, B, c, (a, b, lo, hi, R), u, q_i)

    def test_slice_without_computed_mass_keeps_its_draw_inside(self):
        # at this budget both side masses of the slice [2e-300, 3e-300] round
        # to zero against the table mass outside it; forcing the side below
        # the rank there would take gap 0, below the slice
        values = oracle_test_sample("tiny-gaps", 5, seed=5).values
        table = quantiles._GapTable(values, 1e-6, 0, 6)
        lo, hi = values[1], values[2]
        u_pick = np.array(EXTREME_PICKS)
        q = quantiles._draws(table, 1, 2, lo, hi, np.ones(u_pick.size, dtype=np.int64), u_pick, 0.5)
        assert np.all((lo <= q) & (q <= hi)), q


class TestRecexpDepth:
    @pytest.mark.parametrize("m,expected", [(1, 1), (2, 2), (4, 3), (7, 3), (8, 4), (100, 7)])
    def test_values(self, m, expected):
        assert recexp_depth(m) == expected

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgumentError):
            recexp_depth(0)


class TestRecexp:
    def test_single_order_equals_qexp_bitwise(self):
        # depth 1, full domain and rank: the recursion base case is exactly
        # one qexp call, so equal seeds give equal outputs
        sample = evenly_spaced_sample(500)
        query = QuantileQuery((0.35,), PrivacyBudget(0.7, ADD_REMOVE))
        out = recexp(sample, query, RandomSource(31))
        assert out[0] == qexp(sample, 0.35, 0.7, RandomSource(31))

    def test_single_order_law_matches_qexp(self):
        sample = evenly_spaced_sample(999)
        query = QuantileQuery((0.5,), PrivacyBudget(0.5, ADD_REMOVE))
        rng_a, rng_b = RandomSource(1000), RandomSource(2000)
        rec = np.array([recexp(sample, query, rng_a)[0] for _ in range(10_000)])
        direct = np.array([qexp(sample, 0.5, 0.5, rng_b) for _ in range(10_000)])
        assert ks_2samp(rec, direct).statistic < 0.03

    def test_budget_ledger_m4(self):
        ledger = BudgetLedger()
        query = QuantileQuery((0.3, 0.4, 0.5, 0.6), PrivacyBudget(0.3, ADD_REMOVE))
        recexp(evenly_spaced_sample(100), query, RandomSource(2), ledger=ledger)
        assert ledger.levels == 3
        assert all(call.epsilon == 0.3 / 3 for call in ledger.calls)
        assert max(call.level for call in ledger.calls) <= 3
        assert ledger.root_to_leaf_total() == 0.3

    def test_replace_relation_halves_the_budget(self):
        ledger = BudgetLedger()
        query = QuantileQuery((0.3, 0.6), PrivacyBudget(1.0, REPLACE))
        recexp(evenly_spaced_sample(100), query, RandomSource(2), ledger=ledger)
        assert ledger.epsilon_effective == 0.5
        assert ledger.eps_per_call == 0.25

    def test_visits_every_order_once(self):
        ledger = BudgetLedger()
        orders = tuple(np.linspace(0.1, 0.9, 7))
        query = QuantileQuery(orders, PrivacyBudget(1.0, ADD_REMOVE))
        recexp(evenly_spaced_sample(64), query, RandomSource(4), ledger=ledger)
        assert sorted(call.order_index for call in ledger.calls) == list(range(7))

    def test_deterministic(self):
        sample = evenly_spaced_sample(128)
        query = QuantileQuery((0.2, 0.5, 0.8), PrivacyBudget(0.4, REPLACE))
        assert np.array_equal(
            recexp(sample, query, RandomSource(6)), recexp(sample, query, RandomSource(6))
        )


orders_strategy = st.lists(
    st.floats(0.01, 0.99, allow_nan=False), unique=True, min_size=1, max_size=6
).map(lambda xs: tuple(sorted(xs)))
samples_strategy = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=30).map(
    SortedSample.from_unsorted
)


class TestRecexpProperties:
    @given(samples_strategy, orders_strategy, st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_output_is_nondecreasing(self, sample, orders, epsilon, seed):
        query = QuantileQuery(orders, PrivacyBudget(epsilon, ADD_REMOVE))
        out = recexp(sample, query, RandomSource(seed))
        assert np.all(np.diff(out) >= 0.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @given(samples_strategy, orders_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ledger_paths_always_sum_to_the_budget(self, sample, orders, seed):
        ledger = BudgetLedger()
        query = QuantileQuery(orders, PrivacyBudget(0.9, ADD_REMOVE))
        recexp(sample, query, RandomSource(seed), ledger=ledger)
        assert ledger.root_to_leaf_total() == pytest.approx(0.9, abs=1e-15)
        assert max(call.level for call in ledger.calls) <= ledger.levels


class TestDpRatio:
    def test_small_exhaustive_grid(self):
        # spot check at n <= 5; the acceptance suite runs the full n <= 4 grid
        grid = (0.2, 0.5, 0.8)
        epsilon = 1.0
        for relation in (ADD_REMOVE, REPLACE):
            pairs = neighboring_sample_pairs(grid, 5, relation)
            worst = max(max_log_density_ratio(pairs, 0.5, [epsilon])[0])
            assert worst <= epsilon + 1e-9

    def test_identical_samples_have_zero_ratio(self):
        assert max_log_density_ratio([((0.3, 0.6), (0.3, 0.6))], 0.5, [2.0])[0, 0] == 0.0

    def test_zero_budget_densities_coincide(self):
        sups = max_log_density_ratio([((0.2,), (0.2, 0.9))], 0.5, [0.0])
        assert sups[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestDuplicateValues:
    def test_duplicates_yield_zero_length_intervals(self):
        sample = SortedSample(np.array([0.5, 0.5, 0.5]))
        dens = qexp_density(sample, RankTarget(1), 1.0)
        draws = sample_piecewise(dens, RandomSource(3), size=5000)
        assert np.all((draws <= 0.5) | (draws >= 0.5))
        assert len(dens.breakpoints) == 5
