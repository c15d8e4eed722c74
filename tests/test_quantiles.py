import gc
import itertools
import math
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstest

from dpquantiles import quantiles
from dpquantiles.bench import _CHUNK_VALUES, centered_grid, max_log_density_ratio, neighboring_sample_pairs, release
from dpquantiles.bounds import fact_qexp_threshold
from dpquantiles.errors import InvalidArgumentError
from dpquantiles.mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    sample_piecewise,
)
from dpquantiles.quantiles import (
    QuantileQuery,
    SortedSample,
    indexp,
    qexp,
    qexp_density,
    qexp_draws,
    recexp,
    recexp_depth,
    target_rank,
)
from recexp_walk import recexp_calls
from reference import empirical_error

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
        with pytest.raises(InvalidArgumentError):
            target_rank(-1, np.array([0.5]))

    def test_orders_as_an_array_follow_the_scalar_rule(self):
        def scalar_rank(n, p):  # the rule as first written, on Python floats
            return int(math.floor(math.nextafter(n * p, math.inf)))

        rng = np.random.default_rng(8)
        for n in [0, 1, 2, 3, 7, 10, 99, 1000, 9999, 10_000, 10**6, 2**40 + 1]:
            ks = np.unique(np.concatenate([np.arange(min(n, 1000) + 1), rng.integers(0, n + 1, 300)]))
            ps = np.concatenate([ks / max(n, 1), rng.random(300), centered_grid(100), [1 / 3, 0.7]])
            ranks = target_rank(n, ps)
            assert ranks.dtype == np.int64
            expected = [scalar_rank(n, p) for p in ps.tolist()]
            assert ranks.tolist() == expected, n
            scalars = [target_rank(n, p) for p in ps.tolist()]
            assert all(type(rank) is int for rank in scalars)
            assert scalars == expected, n
        assert target_rank(10, (0.5, 0.7)).tolist() == [5, 7]


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
        dens = qexp_density(SortedSample(np.empty(0)), 0, 1.0)
        assert np.array_equal(dens.interval_probabilities, [1.0])

    def test_two_interval_closed_form(self):
        dens = qexp_density(SortedSample(np.array([0.5])), 0, 2.0)
        # masses 0.5 * e^0 and 0.5 * e^{-1}
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert dens.interval_probabilities[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_epsilon_is_uniform(self):
        sample = SortedSample(np.array([0.1, 0.9]))
        dens = qexp_density(sample, 1, 0.0)
        assert np.allclose(dens.interval_probabilities, np.diff(dens.breakpoints))

    def test_domain_validation(self):
        sample = SortedSample(np.array([0.1, 0.9]))
        with pytest.raises(InvalidArgumentError):
            qexp_density(sample, 0, 1.0, lo=0.2)
        for lo, hi in ((0.5, 0.4), (-0.1, 1.0), (0.0, 1.5)):
            with pytest.raises(InvalidArgumentError):
                qexp_density(SortedSample(np.empty(0)), 0, 1.0, lo, hi)
        for rank in (3, -1):
            with pytest.raises(InvalidArgumentError):
                qexp_density(sample, rank, 1.0)
        with pytest.raises(InvalidArgumentError):
            qexp_density(sample, 1, -1.0)


class TestQexp:
    def test_empty_sample_is_uniform(self):
        # one qexp_draws call with the rank repeated takes the draws of as
        # many qexp calls on the same stream
        empty = SortedSample(np.empty(0))
        draws = qexp_draws(empty, [0] * 20_000, 1.0, RandomSource(21))
        rng = RandomSource(21)
        assert [qexp(empty, 0.5, 1.0, rng) for _ in range(5)] == draws[:5].tolist()
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
        sample = evenly_spaced_sample(50)
        query = QuantileQuery((0.2, 0.4, 0.6, 0.8), PrivacyBudget(1.0, REPLACE))
        out, record = release("indexp", sample, query, RandomSource(1), None)
        assert record.levels == 4 and record.eps_per_call == 0.25
        # replacement does not halve the budget: each draw is made at 0.25
        assert record.epsilon_effective == 1.0
        ranks = target_rank(50, query.orders)
        assert np.array_equal(out, qexp_draws(sample, ranks, 0.25, RandomSource(1)))

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
        [sample_piecewise(qexp_density(sample, r, epsilon), rng, 1)[0] for r in ranks]
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


def exact_gap_tables(x, c):
    # A_k = log sum_{j<k} g_j e^{cj} and B_k = log sum_{j>=k} g_j e^{-cj} of
    # the gaps of x, in 160-bit arithmetic: the reference of _GapTable's bound
    with mpmath.workprec(160):
        gaps = [mpmath.mpf(float(hi)) - mpmath.mpf(float(lo)) for lo, hi in zip(x[:-1], x[1:])]
        growth, weight, total = mpmath.exp(mpmath.mpf(float(c))), mpmath.mpf(1), mpmath.mpf(0)
        A = [mpmath.mpf("-inf")]
        for g in gaps:
            total += g * weight
            weight *= growth
            A.append(mpmath.log(total) if total else mpmath.mpf("-inf"))
        B, total = [mpmath.mpf("-inf")], mpmath.mpf(0)
        for g in reversed(gaps):
            weight /= growth
            total += g / weight
            B.append(mpmath.log(total) if total else mpmath.mpf("-inf"))
        return A, B[::-1]


def summed_extent(table):
    # the entries over the summed blocks: A[0..a_hi] and B[b_lo..n+1]
    n, L = table.x.shape[1] - 2, table.block
    return n + 1 - min(table.summed[1] * L, n + 1), min(table.summed[0] * L, n + 1)


def one_row(table, row=0):
    # a row of a _GapTable: its A and B entries over the summed blocks, as a
    # draw evaluates them, and NaN elsewhere
    n = table.x.shape[1] - 2
    b_lo, a_hi = summed_extent(table)
    k = np.arange(n + 2)
    A, B = np.full((2, n + 2), np.nan)
    A[: a_hi + 1] = table.entries(0, row, k[: a_hi + 1])
    B[b_lo:] = table.entries(1, row, n + 1 - k[b_lo:])
    return types.SimpleNamespace(x=table.x[row], A=A, B=B, c=table.c, block=table.block, a_hi=a_hi, b_lo=b_lo)


def assert_within_bound(table, exact):
    # every entry over the summed blocks within the bound of the _GapTable
    # docstring: ceil(k / L) (M + 1000) 2^-50 from the exact A_k, and the
    # same for B_k with ceil((n + 1 - k) / L)
    A, B = exact
    table = one_row(table)
    n, c, L = table.x.size - 2, table.c, table.block
    # both sides are monotone, and a zero-length gap k repeats its entry
    zero = np.diff(table.x) == 0.0
    a, b = table.A[: table.a_hi + 1], table.B[table.b_lo :]
    assert np.all(a[1:] >= a[:-1]) and np.all(b[1:] <= b[:-1])
    assert np.array_equal(a[1:][zero[: table.a_hi]], a[:-1][zero[: table.a_hi]])
    assert np.array_equal(b[1:][zero[table.b_lo :]], b[:-1][zero[table.b_lo :]])
    k = np.arange(n + 2)
    for computed, side, ks, blocks in (
        (table.A, A, k[: table.a_hi + 1], -(-k // L)),
        (table.B, B, k[table.b_lo :], -(-(n + 1 - k) // L)),
    ):
        # the reference rounded to doubles, off by at most half an ulp
        side = np.array([float(e) for e in side])
        M = max(c * (n + 1), np.abs(side[np.isfinite(side)]).max(initial=0.0))
        bound = blocks * (M + 1000) * 2.0**-50 - np.abs(side) * 2.0**-53
        assert np.array_equal(computed[ks] == -np.inf, side[ks] == -np.inf)
        finite = ks[side[ks] > -np.inf]
        error = np.abs(computed[finite] - side[finite])
        assert np.all(error <= bound[finite]), (finite[error > bound[finite]], error.max())


def assert_equals_full_table(table, values, epsilon):
    # a table summed in steps holds the bits of one summed in one go: its
    # summed blocks, their edge entries and every entry over them, whether
    # evaluated in one call or in two; unsummed edges stay +inf, so no block
    # search passes them
    row = one_row(table)
    full = quantiles._GapTable([values], epsilon, 0, values.size + 1, row.x[0], row.x[-1])
    whole = one_row(full)
    assert table.c == full.c and row.x.tobytes() == whole.x.tobytes()
    runs = table.block // table.run
    for side, done in enumerate(table.summed):  # one row: side is the group
        assert table._sums[side, :done].tobytes() == full._sums[side, :done].tobytes()
        assert table._terms[:, side, :done].tobytes() == full._terms[:, side, :done].tobytes()
        edges = done * runs + 1
        assert table._edges[side, :edges].tobytes() == full._edges[side, :edges].tobytes()
        assert np.all(table._edges.imag[side, edges:] == np.inf)
    lo, hi = row.b_lo, row.a_hi
    assert row.A[: hi + 1].tobytes() == whole.A[: hi + 1].tobytes()
    assert row.B[lo:].tobytes() == whole.B[lo:].tobytes()
    k = np.arange(hi + 1)
    halves = np.empty(hi + 1)
    halves[::2], halves[1::2] = table.entries(0, 0, k[::2]), table.entries(0, 0, k[1::2])
    assert halves.tobytes() == row.A[: hi + 1].tobytes()


def assert_extent(table, b_lo, a_hi):
    # the summed blocks cover A[0..a_hi] and B[b_lo..n+1] in whole blocks
    # of the grids from 0 and from n + 1, and no block more
    top, L = table.x.shape[1] - 1, table.block
    lo, hi = summed_extent(table)
    assert hi == min(-(-a_hi // L) * L, top), (hi, a_hi, L)
    assert top - lo == min(-(-(top - b_lo) // L) * L, top), (lo, b_lo, L)


def poison_unsummed(table):
    # a signaling NaN, whose arithmetic raises a RuntimeWarning (an error in
    # this suite), in every sum, offset and lift of the unsummed blocks, the
    # spare one aside
    rows = table.x.shape[0]
    for side, done in enumerate(table.summed):
        group = np.s_[side * rows : (side + 1) * rows]
        for stored in (table._sums[group, done:-1], table._terms[:, group, done:-1]):
            stored.view(np.uint64)[...] = 0x7FF0000000000001


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
            super().__init__(values, epsilon, 0, len(values[0]) + 1)

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
                rng, oracle_rng = RandomSource(17, (n, m)), RandomSource(17, (n, m))
                out, record = release("indexp", sample, query, rng, None)
                ranks = [target_rank(n, p) for p in orders]
                eps_call = query.budget.epsilon / m
                # m density draws on the whole sample at eps / m each
                expected = density_oracle(sample, ranks, eps_call, oracle_rng)
                assert np.array_equal(out, expected), (m, eps_each)
                # the stream stays in step with m sequential density draws
                assert rng.random() == oracle_rng.random()
                assert record.levels == m and record.eps_per_call == eps_call
                assert_equals_full_table(recorded_tables[-1], sample.values, record.eps_per_call)

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


def per_slice_recexp(sample, query, rng, calls=None):
    # the reference recursion: a SortedSample, a qexp_density and a
    # sample_piecewise draw on every slice. Node i in preorder takes
    # uniforms 2i and 2i + 1. Each draw appends its (order index, level,
    # epsilon, slice size) to calls
    m = query.m
    depth = recexp_depth(m)
    eps = query.budget.epsilon
    eps_effective = eps if query.budget.relation is ADD_REMOVE else eps / 2.0
    eps_call = eps_effective / depth
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
        density = qexp_density(SortedSample(values[a:b]), r, eps_call, lo, hi)
        q = float(sample_piecewise(density, rng, 1)[0])
        if calls is not None:
            calls.append((j_mid - 1, level, eps_call, b - a))
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
                out, record = release("recexp", sample, query, rng, None)
                oracle_calls = []
                expected = per_slice_recexp(sample, query, oracle_rng, oracle_calls)
                assert np.array_equal(out, expected), (m, epsilon, relation)
                # the same stream position, and the calls read off the output,
                # at the record's budget, are the ones the oracle made
                assert rng.random() == oracle_rng.random()
                calls = recexp_calls(sample.values, out)
                assert [(j, level, record.eps_per_call, size) for j, level, size in calls] == oracle_calls
                assert record.levels == recexp_depth(m)
                assert_equals_full_table(recorded_tables[-1], sample.values, record.eps_per_call)

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
                stream = ScriptedUniforms(uniforms)
                out = recexp(sample, query, stream)
                expected, live = preorder_stream_rule(m, uniforms)
                assert out.tolist() == expected, actions
                assert [call[:2] for call in recexp_calls(sample.values, out)] == live, actions
                assert stream.drawn == 2 * m

    def test_leaves_no_reference_cycles(self):
        # a cycle would keep the O(n) tables alive until the cyclic collector ran
        sample = oracle_test_sample("beta", 1000, seed=3)
        query = QuantileQuery(centered_grid(10), PrivacyBudget(1.0, REPLACE))
        gc.collect()
        gc.disable()
        try:
            release("recexp", sample, query, RandomSource(1), None)
            assert gc.collect() == 0
        finally:
            gc.enable()


def draw_reading_nothing_past_the_rank(values, epsilon, R, cycle, recorded_tables):
    # the full-domain draw at rank R on a table whose sums past the rank's
    # entries on both sides are NaN, and whose block edges past them are +inf;
    # it draws on that table, not on a table of its own for a lost slice
    n = values.size
    table = quantiles._GapTable([values], epsilon, R, R)
    made = len(recorded_tables)
    for side, e in ((0, R), (1, n + 1 - R)):  # one row: side is the group; the spare block stays
        table._sums[side, :-1].reshape(-1)[e:] = np.nan
        table._edges.imag[side, e // table.run + 1 :] = np.inf
    poison_unsummed(table)
    u_pick, u_pos = cycle
    q = quantiles._draws(table, 0, n, 0.0, 1.0, np.array([[R]]), np.array([[u_pick]]), u_pos)[0, 0]
    assert len(recorded_tables) == made
    return q


class TestGapTable:
    @pytest.mark.parametrize("shape", RECEXP_SHAPES)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 50, 1000])
    def test_every_computed_entry_equals_the_full_table(self, n, shape):
        sample = oracle_test_sample(shape, n, seed=n)
        steps = np.random.default_rng(n)
        for epsilon in (0.0, 1e-3, 1.0, 1e3, 1e300):
            start = sorted(steps.integers(0, n + 1, 2))
            table = quantiles._GapTable([sample.values], epsilon, start[0], start[1])
            assert_extent(table, start[0], start[1])
            assert_equals_full_table(table, sample.values, epsilon)
            # extensions in both directions, some of them no-ops, down to the
            # whole table
            for k in list(steps.integers(0, n + 2, 6)) + [n + 1, 0]:
                table.extend(0, int(k))
                table.extend(1, int(k))
                b_lo, a_hi = summed_extent(table)
                assert a_hi >= k and b_lo <= n + 1 - k
                assert_equals_full_table(table, sample.values, epsilon)
            assert summed_extent(table) == (0, n + 1)
            assert_within_bound(table, exact_gap_tables(table.x[0], table.c))

    @pytest.mark.parametrize(
        "epsilon,block",
        # c = 1500 (saturated) and c = 300 give L = 1, c = 200 gives L = 2
        [(3000.0, 1), (1e300, 1), (600.0, 1), (400.0, 2), (1.0, 256)],
    )
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 300])
    def test_short_blocks_and_partial_last_blocks(self, n, epsilon, block):
        # n + 1 gaps: a multiple of L, one more or one fewer, or one block of
        # all n + 1 gaps where they are fewer than L
        sample = oracle_test_sample("duplicates", n, seed=n)
        table = quantiles._GapTable([sample.values], epsilon, n + 1, 0)
        assert table.block == min(block, n + 1)
        for k in sorted({min(k, n + 1) for k in (1, 2, 3, n // 2, n + 1)}):
            table.extend(0, k)
            table.extend(1, k)
            assert_extent(table, n + 1 - k, k)
            assert_equals_full_table(table, sample.values, epsilon)
        assert_within_bound(table, exact_gap_tables(table.x[0], table.c))

    def test_block_opening_with_zero_gaps_after_tiny_gaps(self):
        # at c = 100 (L = 5) the carry into the second block, over five 1e-300
        # gaps, is about e^-746 of that block's scale, so e^t underflows;
        # the block opens with three zero-length gaps, whose entries must
        # repeat the entry before the block, and then holds positive gaps
        values = np.array([1, 2, 3, 4, 5, 5, 5, 5, 6, 7] + [3e299, 6e299]) * 1e-300
        for epsilon in (200.0, 2.0):
            table = quantiles._GapTable([values], epsilon, 0, values.size + 1)
            assert table.block == (5 if epsilon == 200.0 else values.size + 1)
            A, B = one_row(table).A, one_row(table).B
            assert np.all(A[6:9] == A[5]) and np.all(B[5:8] == B[8])
            assert np.all(A[9:] > A[8]) and np.all(np.isfinite(A[1:]))
            assert_within_bound(table, exact_gap_tables(table.x[0], table.c))
            for k in range(values.size + 2):
                lazy = quantiles._GapTable([values], epsilon, k, k)
                assert_equals_full_table(lazy, values, epsilon)

    @pytest.mark.parametrize("shape", RECEXP_SHAPES)
    @pytest.mark.parametrize("n", [0, 1, 5, 300, 2000])
    def test_count_is_the_searchsorted_of_the_entries(self, n, shape):
        # on each side, for targets on, next to and between the entries and at
        # +-inf; strictly below a target is at or below the double before it.
        # c = 3.92 gives L = 127, a prime, so runs of 1, and c = 5 gives L =
        # 100 with runs of 5
        sample = oracle_test_sample(shape, n, seed=n)
        for epsilon in (0.0, 1e-3, 1.0, 7.84, 10.0, 1e3):
            table = quantiles._GapTable([sample.values], epsilon, 0, n + 1)
            row = one_row(table)
            for side, entries in ((0, row.A), (1, row.B[::-1])):
                assert np.all(entries[1:] >= entries[:-1])
                targets = np.concatenate((
                    entries, np.nextafter(entries, -np.inf), np.nextafter(entries, np.inf),
                    (entries[1:] + entries[:-1]) / 2, [-np.inf, np.inf],
                ))[None, :]
                sides = np.full(targets.shape, side)
                assert np.array_equal(table.count(sides, 0, targets)[0], entries.searchsorted(targets[0], "right"))
                above = targets[targets > -np.inf][None, :]
                with np.errstate(over="ignore"):
                    below = table.count(sides[:, : above.size], 0, np.nextafter(above, -np.inf))[0]
                assert np.array_equal(below, entries.searchsorted(above[0], "left")), (epsilon, side)

    @pytest.mark.parametrize("epsilon,block,run", [(1.0, 256, 16), (10.0, 100, 5), (7.84, 127, 1), (3e3, 1, 1)])
    def test_runs_divide_the_blocks(self, epsilon, block, run):
        # 301 gaps, more than any L; 11 gaps cap L at 11, a prime, so runs of 1
        table = quantiles._GapTable([evenly_spaced_sample(300).values], epsilon, 0, 301)
        assert (table.block, table.run) == (block, run)
        table = quantiles._GapTable([evenly_spaced_sample(10).values], epsilon, 0, 11)
        assert (table.block, table.run) == (min(block, 11), 1)

    def test_full_chunk_of_small_samples_stays_small(self):
        # a protocol chunk at n = 5 stacks 18 724 rows, each with 6 gaps a
        # side: blocks of 256 gaps peaked at 209 MiB, blocks of 6 at 19.4 MiB
        n = 5
        rows = _CHUNK_VALUES // (n + 2)
        values = np.sort(np.random.default_rng(2).random((rows, n)), axis=1)
        samples = [SortedSample(v) for v in values]
        rngs = [RandomSource(2, (i,)) for i in range(rows)]
        query = QuantileQuery((0.5,), PrivacyBudget(1.0, REPLACE))
        tracemalloc.start()
        try:
            indexp(samples, query, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak / 2**20

    def test_one_order_release_keeps_three_arrays(self):
        # a one-row table holds x and both sides' sums, about 3 (n + 2)
        # doubles, and its edges, one complex per 16 entries of each side,
        # another quarter: so a one-order draw peaks below 3.5 (n + 2)
        # doubles. Arrays of every entry (A, B and -B besides x) took 4.6
        n = 2**20
        sample = SortedSample(np.sort(np.random.default_rng(1).random(n)))
        tracemalloc.start()
        try:
            qexp_draws(sample, [n // 2], 1.0, RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * (n + 2), peak / (8 * (n + 2))

    def test_subnormal_gaps_keep_the_bound(self):
        # gaps of a few 5e-324 between points below 2^-969: unscaled, their
        # products with the in-block weights would round to multiples of
        # 5e-324
        values = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 8.0, 13.0]) * 5e-324
        for epsilon in (1e-3, 0.3, 1.0, 7.0):
            table = quantiles._GapTable([np.append(values, 0.5)], epsilon, 0, values.size + 2)
            assert_within_bound(table, exact_gap_tables(table.x[0], table.c))

    def test_draws_compute_only_the_entries_they_read(self, recorded_tables):
        sample = oracle_test_sample("beta", 1000, seed=1)
        ranks = [250, 400, 600]
        qexp_draws(sample, ranks, 1.0, RandomSource(3))
        query = QuantileQuery((0.3, 0.5, 0.7), PrivacyBudget(1.0, REPLACE))
        recexp(sample, query, RandomSource(3))
        assert len(recorded_tables) == 2
        assert_extent(recorded_tables[0], 250, 600)
        assert_extent(recorded_tables[1], 300, 700)
        for table, epsilon in zip(recorded_tables, (1.0, 0.5 / 2)):
            assert_equals_full_table(table, sample.values, epsilon)

    def test_slice_without_a_point_extends_nothing(self, recorded_tables):
        # with every point above 1/2 and this budget the root draw lands in
        # [0, x_1], so the left child's slice is empty at rank 0; B stays
        # uncomputed below the block of the smallest target rank
        sample = SortedSample(0.5 + oracle_test_sample("beta", 1000, seed=1).values / 2)
        query = QuantileQuery((0.3, 0.5, 0.7), PrivacyBudget(1e-3, ADD_REMOVE))
        out = recexp(sample, query, ScriptedUniforms([0.2, 0.5]))
        assert out[0] < out[1] < sample.values[0]
        (table,) = recorded_tables
        assert_extent(table, 300, 700)
        assert_equals_full_table(table, sample.values, 1e-3 / 2)

    def test_qexp_b_search_continues_below_the_computed_region(self, recorded_tables):
        # interval 3, just below rank 4, has zero length ([0.4, 0.4]); this
        # uniform picks the side from interval 4 on and its rounded target
        # exceeds B_4, so the capped search must stop at [0.4, 0.5] and read
        # nothing of B below the rank
        sample = SortedSample(np.array([0.1, 0.2, 0.4, 0.4, 0.5, 0.6]))
        cycle = [0.3955112494629539, 0.5]
        out = qexp_draws(sample, [4], 0.03, ScriptedUniforms(cycle))
        assert out[0] == 0.45
        (table,) = recorded_tables
        assert_extent(table, 4, 4)
        assert_equals_full_table(table, sample.values, 0.03)
        assert draw_reading_nothing_past_the_rank(sample.values, 0.03, 4, cycle, recorded_tables) == out[0]

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
        assert_extent(table, 2, 2)
        assert_equals_full_table(table, sample.values, 0.001)
        assert draw_reading_nothing_past_the_rank(sample.values, 0.001, 2, cycle, recorded_tables) == out[0]

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
        for table in recorded_tables:
            assert_extent(table, 5, 5)
        assert draw_reading_nothing_past_the_rank(sample.values, 0.001, 5, cycle, recorded_tables) == out[0]

    def test_recexp_extends_a_beyond_the_largest_rank(self, recorded_tables, monkeypatch):
        # at this budget the draws are nearly uniform on their domains, so a
        # root draw near 0.5 or 0.7 has more of the 1000 points below it than
        # the largest target rank, and more than the block that holds it: the
        # right child's slice starts above every rank and clamps its rank there
        sample = oracle_test_sample("beta", 1000, seed=50)
        for m, u_pick in itertools.product((3, 7), (0.5, 0.7)):
            orders = tuple((i + 1) / 50 for i in range(m))
            query = QuantileQuery(orders, PrivacyBudget(1e-3, ADD_REMOVE))
            top_rank = target_rank(1000, orders[-1])
            cycle = [u_pick, 0.5]
            out = recexp(sample, query, ScriptedUniforms(cycle))
            table = recorded_tables[-1]
            assert summed_extent(table)[1] > -(-top_rank // table.block) * table.block, m
            assert_equals_full_table(table, sample.values, 1e-3 / recexp_depth(m))
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
            full = one_row(quantiles._GapTable([sample.values], epsilon, 0, sample.n + 1))
            x, c, A, B = full.x, full.c, full.A, full.B
            ranks = range(sample.n + 1)
            for u_pick in EXTREME_PICKS:
                draws = qexp_draws(sample, ranks, epsilon, ScriptedUniforms([u_pick, 0.5]))
                for r, q in zip(ranks, draws):
                    assert_side_rule(x, A, B, c, (0, sample.n, 0.0, 1.0, r), u_pick, q)

    def test_recexp_slices_at_extreme_pick_uniforms(self, monkeypatch):
        # every slice of every level, and every slice redrawn on a table of
        # its own, keeps the side rule, and each call draws the same on a
        # table whose unsummed blocks hold NaN and on the full table: no
        # entry that was never needed feeds a draw
        calls, draws = [], quantiles._draws

        def recording(table, *slices):
            q = draws(table, *slices)
            calls.append((table.x[0], *summed_extent(table), slices, q))
            return q

        for sample, epsilon in itertools.product(SIDE_RULE_SAMPLES, SIDE_RULE_EPSILONS):
            for m, u_pick in itertools.product((3, 7), EXTREME_PICKS):
                query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(epsilon, ADD_REMOVE))
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(quantiles, "_draws", recording)
                    recexp(sample, query, ScriptedUniforms([u_pick, 0.5]))
                eps_call = epsilon / recexp_depth(m)
                tables = {}
                for x, b_lo, a_hi, slices, q in calls:
                    values, edges, key = x[1:-1], (x[0], x[-1]), (x.tobytes(), b_lo, a_hi)
                    if key not in tables:
                        poisoned = quantiles._GapTable([values], eps_call, b_lo, a_hi, *edges)
                        poison_unsummed(poisoned)
                        full = quantiles._GapTable([values], eps_call, 0, values.size + 1, *edges)
                        tables[key] = poisoned, full, one_row(full)
                    poisoned, full, row = tables[key]
                    assert draws(poisoned, *slices).tobytes() == q.tobytes()
                    assert draws(full, *slices).tobytes() == q.tobytes()
                    slice_arrays = (s.ravel() for s in np.broadcast_arrays(*slices))
                    for a, b, lo, hi, R, u, _, q_i in zip(*slice_arrays, q.ravel()):
                        if a < b and lo < hi:  # else the slice has one interval
                            slice_ = (a, b, lo, hi, R)
                            assert_side_rule(row.x, row.A, row.B, row.c, slice_, u, q_i)

    def test_slice_whose_side_masses_round_to_zero_draws_inside(self):
        # at this budget both side masses of the slice of gaps 1..3 on
        # [2e-300, 3e-300] round to zero against the table mass outside it;
        # its cut gaps 1 and 3 have zero length, so the draw must fall in gap
        # 2 for every pick uniform, not on the slice's edge 3e-300
        values = oracle_test_sample("tiny-gaps", 5, seed=5).values
        table = quantiles._GapTable([values], 1e-6, 0, 6)
        u_pick = np.array([EXTREME_PICKS + (0.5,)])
        ones = np.ones(u_pick.shape, dtype=np.int64)
        q = quantiles._draws(table, ones, 3 * ones, values[1], values[2], 2 * ones, u_pick, 0.5)
        assert np.all(q == values[1] + 0.5 * (values[2] - values[1])), q

    def test_slice_without_computed_mass_keeps_its_draw_inside(self):
        # at this budget both side masses of the slice [2e-300, 3e-300] round
        # to zero against the table mass outside it; forcing the side below
        # the rank there would take gap 0, below the slice
        values = oracle_test_sample("tiny-gaps", 5, seed=5).values
        table = quantiles._GapTable([values], 1e-6, 0, 6)
        lo, hi = values[1], values[2]
        u_pick = np.array([EXTREME_PICKS])
        q = quantiles._draws(table, 1, 2, lo, hi, np.ones(u_pick.shape, dtype=np.int64), u_pick, 0.5)
        assert np.all((lo <= q) & (q <= hi)), q


ROW_SHAPES = ("beta", "duplicates", "endpoints", "tiny-gaps", "ulps")


def assert_rows_are_own_calls(estimator, samples, query, streams):
    # each row of the stacked call holds the bits of its sample's own call on
    # the same stream, and leaves that stream where the own call does
    rngs = [stream() for stream in streams]
    stacked = estimator(samples, query, rngs)
    assert stacked.shape == (len(samples), query.m)
    for sample, row, rng, stream in zip(samples, stacked, rngs, streams):
        own_rng = stream()
        assert row.tobytes() == estimator(sample, query, own_rng).tobytes()
        assert rng.random() == own_rng.random()


class TestRowAxis:
    """A sequence of samples of one size is one estimator call with a row
    per sample, on one table with a row per sample."""

    @pytest.mark.parametrize("n", [0, 1, 5, 10_000])
    @pytest.mark.parametrize("m", [1, 2, 5, 100])
    @pytest.mark.parametrize("estimator", [indexp, recexp])
    def test_each_row_is_its_own_call(self, estimator, m, n, recorded_tables):
        # the tiny-gaps row has points below 2^-969, so only its weights are
        # lifted by 2^64; duplicates and points at 0 and 1 give zero-length
        # gaps, and at eps = 1e300 recexp collapses domains in some rows
        samples = [oracle_test_sample(shape, n, seed=n + i) for i, shape in enumerate(ROW_SHAPES)]
        grid = RECEXP_GRID if n < 10_000 else RECEXP_GRID[::3]
        for epsilon, relation in grid:
            query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(epsilon, relation))
            streams = [lambda i=i: RandomSource(11, (n, m, i)) for i in range(len(samples))]
            recorded_tables.clear()
            assert_rows_are_own_calls(estimator, samples, query, streams)
            lifts = recorded_tables[0]._log_scale
            assert lifts.shape == (len(samples),)
            assert np.count_nonzero(lifts) == (1 if n else 0)

    @pytest.mark.parametrize("estimator", [indexp, recexp])
    def test_scripted_rows_with_collapsed_domains(self, estimator, monkeypatch):
        # position uniforms of 0 and 1 put draws on sample points, so at a
        # saturated budget some recexp nodes get a domain with lo == hi in
        # some rows and not in others
        draws, mixed = quantiles._draws, []

        def spying(table, a, b, lo, hi, *rest):
            collapsed = np.broadcast_to(lo == hi, np.shape(rest[0]))
            mixed.append(collapsed.any(axis=1).any() and not collapsed.any(axis=1).all())
            return draws(table, a, b, lo, hi, *rest)

        monkeypatch.setattr(quantiles, "_draws", spying)
        samples = [oracle_test_sample(shape, 5, seed=5) for shape in ROW_SHAPES]
        cycles = ([0.5, 0.0], [0.3, 1.0 - 2.0**-53], [0.0, 0.5], [1.0 - 2.0**-53, 0.0], [0.7, 0.5])
        for m, epsilon in itertools.product((3, 7, 100), (1e-3, 1.0, 1e300)):
            query = QuantileQuery(recexp_test_orders(m), PrivacyBudget(epsilon, ADD_REMOVE))
            streams = [lambda cycle=cycle: ScriptedUniforms(cycle) for cycle in cycles]
            assert_rows_are_own_calls(estimator, samples, query, streams)
        assert any(mixed) == (estimator is recexp)

    def test_lost_slice_is_drawn_again_in_its_row(self, recorded_tables):
        # at this budget both side masses of row 0's slice of 1e-300 gaps
        # round to zero against the table mass outside it, so that slice is
        # drawn again on a table of its own gaps; row 1's slice is not.
        # Each row equals its one-row call.
        tiny = oracle_test_sample("tiny-gaps", 5, seed=5).values
        beta = oracle_test_sample("beta", 5, seed=5).values
        u_pick = np.array([EXTREME_PICKS + (0.5,)] * 2)
        ones = np.ones(u_pick.shape, dtype=np.int64)
        lo, hi = np.array([[tiny[1]], [beta[1]]]), np.array([[tiny[2]], [beta[2]]])
        slices = (ones, 3 * ones, lo, hi, 2 * ones, u_pick, 0.5)
        stacked = quantiles._draws(quantiles._GapTable([tiny, beta], 1e-6, 0, 6), *slices)
        own_tables = [table.x[0, 0] for table in recorded_tables[1:]]
        assert own_tables and set(own_tables) == {tiny[1]}
        for i, values in enumerate((tiny, beta)):
            row = np.s_[i : i + 1]
            own = quantiles._draws(
                quantiles._GapTable([values], 1e-6, 0, 6), *(s[row] for s in slices[:-1]), 0.5
            )
            assert stacked[row].tobytes() == own.tobytes()
        assert np.all(stacked[0] == tiny[1] + 0.5 * (tiny[2] - tiny[1]))

    def test_rejects_mismatched_rows(self):
        samples = [evenly_spaced_sample(3), evenly_spaced_sample(3)]
        query = QuantileQuery((0.5,), PrivacyBudget(1.0, ADD_REMOVE))
        for estimator in (indexp, recexp):
            with pytest.raises(InvalidArgumentError):
                estimator(samples, query, [RandomSource(0)])
            with pytest.raises(InvalidArgumentError):
                estimator([samples[0], evenly_spaced_sample(4)], query, [RandomSource(0)] * 2)


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
        direct = qexp_draws(sample, [target_rank(999, 0.5)] * 10_000, 0.5, rng_b)
        rng = RandomSource(2000)
        assert [qexp(sample, 0.5, 0.5, rng) for _ in range(5)] == direct[:5].tolist()
        assert ks_2samp(rec, direct).statistic < 0.03

    def test_budget_record_m4(self):
        sample = evenly_spaced_sample(100)
        query = QuantileQuery((0.3, 0.4, 0.5, 0.6), PrivacyBudget(0.3, ADD_REMOVE))
        out, record = release("recexp", sample, query, RandomSource(2), None)
        assert record.levels == 3 and record.eps_per_call == 0.3 / 3
        assert max(level for _, level, _ in recexp_calls(sample.values, out)) <= 3
        assert math.fsum([record.eps_per_call] * record.levels) == 0.3

    def test_replace_relation_halves_the_budget(self):
        query = QuantileQuery((0.3, 0.6), PrivacyBudget(1.0, REPLACE))
        _, record = release("recexp", evenly_spaced_sample(100), query, RandomSource(2), None)
        assert record.epsilon_effective == 0.5
        assert record.eps_per_call == 0.25

    def test_visits_every_order_once(self):
        sample = evenly_spaced_sample(64)
        orders = tuple(np.linspace(0.1, 0.9, 7))
        query = QuantileQuery(orders, PrivacyBudget(1.0, ADD_REMOVE))
        out = recexp(sample, query, RandomSource(4))
        assert sorted(j for j, _, _ in recexp_calls(sample.values, out)) == list(range(7))

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
    def test_record_paths_always_sum_to_the_budget(self, sample, orders, seed):
        query = QuantileQuery(orders, PrivacyBudget(0.9, ADD_REMOVE))
        out, record = release("recexp", sample, query, RandomSource(seed), None)
        assert math.fsum([record.eps_per_call] * record.levels) == pytest.approx(0.9, abs=1e-15)
        assert max(level for _, level, _ in recexp_calls(sample.values, out)) <= record.levels


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
        dens = qexp_density(sample, 1, 1.0)
        draws = sample_piecewise(dens, RandomSource(3), size=5000)
        assert np.all((draws <= 0.5) | (draws >= 0.5))
        assert len(dens.breakpoints) == 5
