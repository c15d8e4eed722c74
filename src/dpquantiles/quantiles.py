"""Private quantile estimators on sorted samples in [0, 1].

Three estimators share the same exponential-mechanism core: a single
quantile draw with density proportional to ``exp((eps/2) * u)`` for the
rank-error utility ``u(q) = -abs(#{X_i < q} - r)``, an independent
composition over many orders, and a recursive budget-splitting scheme that
halves the data range at a privately estimated middle quantile.

Draws on the full domain (qexp, indexp) come from :func:`qexp_draws`, which
serves any number of target ranks from one O(n) log-space prefix table. The
recursive estimator draws on sub-samples with their own domains through
:func:`qexp_density` and :func:`sample_piecewise`; that density sampler is
also the reference the table is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    WeightedIntervalDensity,
    sample_piecewise,
)


@dataclass(frozen=True)
class SortedSample:
    """Nondecreasing vector of reals in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise InvalidArgumentError("sample must be one-dimensional")
        if v.size and (v[0] < 0.0 or v[-1] > 1.0 or np.any(np.isnan(v))):
            raise InvalidArgumentError("sample values must lie in [0, 1]")
        if np.any(np.diff(v) < 0):
            raise InvalidArgumentError("sample values must be nondecreasing")

    @classmethod
    def from_unsorted(cls, values) -> "SortedSample":
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class QuantileQuery:
    """Strictly increasing orders in (0, 1) plus the total privacy budget."""

    orders: tuple[float, ...]
    budget: PrivacyBudget

    def __post_init__(self):
        orders = tuple(float(p) for p in self.orders)
        object.__setattr__(self, "orders", orders)
        if len(orders) < 1:
            raise InvalidArgumentError("need at least one order")
        if not all(math.isfinite(p) for p in orders):
            raise InvalidArgumentError("orders must be finite numbers")
        if orders[0] <= 0.0 or orders[-1] >= 1.0:
            raise InvalidArgumentError("orders must lie strictly inside (0, 1)")
        if any(a >= b for a, b in zip(orders, orders[1:])):
            raise InvalidArgumentError("orders must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class RankTarget:
    """Target count of points strictly below the output, on a sub-domain."""

    rank: int
    domain_lo: float = 0.0
    domain_hi: float = 1.0

    def __post_init__(self):
        if self.rank < 0:
            raise InvalidArgumentError(f"rank must be nonnegative, got {self.rank}")
        if not 0.0 <= self.domain_lo <= self.domain_hi <= 1.0:
            raise InvalidArgumentError(
                f"need 0 <= lo <= hi <= 1, got [{self.domain_lo}, {self.domain_hi}]"
            )


def target_rank(n: int, p: float) -> int:
    """floor(n * p), nudged one ulp up first so exact integer boundaries
    are not lost to floating-point rounding."""
    if n < 0:
        raise InvalidArgumentError(f"n must be nonnegative, got {n}")
    return int(math.floor(math.nextafter(n * p, math.inf)))


def empirical_error(sample: SortedSample, q: float, r: int) -> int:
    """Absolute rank error: abs(#{X_i < q} - r)."""
    if not 0.0 <= q <= 1.0:
        raise InvalidArgumentError(f"q must lie in [0, 1], got {q}")
    below = int(np.searchsorted(sample.values, q, side="left"))
    return abs(below - r)


# Two positive double gaps differ by less than e^745, so from c = 1490 on the
# intervals beyond the nearest positive-length ones hold less than e^-745 of
# the mass, far below the 2^-53 resolution of a uniform, and no draw depends
# on c any more. Capping c there keeps c * k finite for any finite epsilon.
_SATURATED_C = 1500.0


def qexp_density(sample: SortedSample, target: RankTarget, epsilon: float) -> WeightedIntervalDensity:
    """Exponential-mechanism density for one quantile on the target's domain.

    Interval ``k`` (between consecutive sample points, with the domain edges
    as outer breakpoints) has ``k`` sample points to its left and gets
    log-weight ``-(epsilon / 2) * abs(k - r)``; the utility has sensitivity 1
    under both neighboring relations. Duplicated sample points produce
    zero-length intervals, which the sampler ignores. ``epsilon = 0`` is
    accepted and degenerates to the uniform law on the domain. As in
    :func:`qexp_draws`, ``epsilon / 2`` is capped at ``_SATURATED_C``, so the
    log-weights stay finite and the gap lengths keep their say at any budget.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilon}")
    values = sample.values
    if sample.n and (values[0] < target.domain_lo or values[-1] > target.domain_hi):
        raise InvalidArgumentError("sample values must lie inside the target domain")
    if target.rank > sample.n:
        raise InvalidArgumentError(
            f"rank {target.rank} exceeds sub-sample size {sample.n}"
        )
    breakpoints = np.concatenate(([target.domain_lo], values, [target.domain_hi]))
    ranks = np.arange(sample.n + 1)
    log_weights = -min(epsilon / 2.0, _SATURATED_C) * np.abs(ranks - target.rank)
    return WeightedIntervalDensity(breakpoints, log_weights)


def qexp_draws(sample: SortedSample, ranks, epsilon: float, rng: RandomSource) -> np.ndarray:
    """One exponential-mechanism draw on [0, 1] per target rank, all at ``epsilon``.

    Draw ``j`` has the law of ``sample_piecewise(qexp_density(sample,
    RankTarget(ranks[j]), epsilon), rng)`` and consumes the same two
    uniforms in the same order, but every rank is served by one O(n) table
    instead of its own density, so m ranks cost O(n + m log n).

    With gaps ``g_k`` of ``[0, x_1, ..., x_n, 1]`` and ``c = epsilon / 2``,
    the table holds ``A_k = log sum_{j<k} g_j e^{cj}`` (non-decreasing) and
    ``B_k = log sum_{j>=k} g_j e^{-cj}`` (non-increasing). The mass left of
    interval ``r`` is ``e^{A_r - cr}``, the mass from ``r`` on is
    ``e^{B_r + cr}``, and inverting the CDF is a side choice plus one
    ``searchsorted``. Zero-length intervals repeat a table entry, so the
    strict comparisons never select one. The chosen interval equals the
    density sampler's except when a uniform falls within rounding of an
    interval boundary of the CDF.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilon}")
    n = sample.n
    r = np.asarray(ranks, dtype=np.int64)
    if r.ndim != 1 or (r.size and (r.min() < 0 or r.max() > n)):
        raise InvalidArgumentError(f"ranks must be a list of integers in [0, {n}]")
    b = np.concatenate(([0.0], sample.values, [1.0]))
    c = min(epsilon / 2.0, _SATURATED_C)
    ck = c * np.arange(n + 1)
    with np.errstate(divide="ignore"):
        log_gaps = np.log(np.diff(b))
    A = np.empty(n + 2)
    A[0] = -np.inf
    np.logaddexp.accumulate(log_gaps + ck, out=A[1:])
    B = np.empty(n + 2)
    B[n + 1] = -np.inf
    B[: n + 1] = np.logaddexp.accumulate((log_gaps - ck)[::-1])[::-1]
    cr = c * r
    log_z = np.logaddexp(A[r] - cr, B[r] + cr)
    u_pick, u_pos = rng.random(2 * r.size).reshape(r.size, 2).T
    with np.errstate(divide="ignore"):
        left_target = np.log(u_pick) + log_z + cr
    left = left_target < A[r]
    k = np.where(
        left,
        np.searchsorted(A[1:], left_target, side="right"),
        np.searchsorted(-B[1:], -(np.log1p(-u_pick) + log_z - cr), side="right"),
    )
    return b[k] + u_pos * (b[k + 1] - b[k])


def qexp(sample: SortedSample, p: float, epsilon: float, rng: RandomSource) -> float:
    """Single private quantile of order ``p`` on the full domain [0, 1]:
    the one-rank case of :func:`qexp_draws`."""
    if not 0.0 < p < 1.0:
        raise InvalidArgumentError(f"p must lie in (0, 1), got {p}")
    return float(qexp_draws(sample, [target_rank(sample.n, p)], epsilon, rng)[0])


@dataclass(frozen=True)
class MechanismCall:
    """One exponential-mechanism invocation recorded by a ledger."""

    order_index: int
    level: int
    epsilon: float
    subsample_size: int


@dataclass
class BudgetLedger:
    """Instrumentation for the budget accounting of composed estimators.

    ``levels`` is the number of sequential composition levels the total
    budget is split across (the tree depth for the recursive estimator, the
    number of quantiles for independent composition); each level is charged
    ``eps_per_call`` whether or not a branch actually reaches it, so the
    budget spent along any root-to-leaf accounting path is the same.
    """

    epsilon_total: float = 0.0
    epsilon_effective: float = 0.0
    levels: int = 0
    eps_per_call: float = 0.0
    calls: list[MechanismCall] = field(default_factory=list)

    def allocate(self, total: float, effective: float, levels: int):
        self.epsilon_total = total
        self.epsilon_effective = effective
        self.levels = levels
        self.eps_per_call = effective / levels

    def record(self, order_index: int, level: int, epsilon: float, subsample_size: int):
        self.calls.append(MechanismCall(order_index, level, epsilon, subsample_size))

    def root_to_leaf_total(self) -> float:
        """Budget charged along any root-to-leaf path: one charge per level."""
        return math.fsum([self.eps_per_call] * self.levels)


def indexp(
    sample: SortedSample,
    query: QuantileQuery,
    rng: RandomSource,
    ledger: BudgetLedger | None = None,
) -> np.ndarray:
    """Independent composition: one qexp draw per order, each at eps / m.

    All m draws come from one shared :func:`qexp_draws` table, in O(n + m
    log n), and equal m sequential :func:`qexp` calls on the same stream.
    The utility sensitivity is 1 under both neighboring relations, so no
    relation adjustment is needed. Outputs are not forced monotone.
    """
    eps_each = query.budget.epsilon / query.m
    if ledger is not None:
        ledger.allocate(query.budget.epsilon, query.budget.epsilon, query.m)
        for j in range(query.m):
            ledger.record(j, 1, eps_each, sample.n)
    ranks = [target_rank(sample.n, p) for p in query.orders]
    return qexp_draws(sample, ranks, eps_each, rng)


def recexp_depth(m: int) -> int:
    """Depth of the balanced recursion tree over m ordered targets:
    floor(log2(m)) + 1, computed exactly."""
    if m < 1:
        raise InvalidArgumentError(f"m must be at least 1, got {m}")
    return int(m).bit_length()


def recexp(
    sample: SortedSample,
    query: QuantileQuery,
    rng: RandomSource,
    ledger: BudgetLedger | None = None,
) -> np.ndarray:
    """Recursive estimator: split the data at a private middle quantile.

    Each tree level touches disjoint sub-samples, so one level costs a
    single per-call budget and the total is ``eps_per_call * depth``. The
    per-call budget is ``eps / depth`` under add/remove neighboring and
    ``(eps / 2) / depth`` under replacement (a replacement is an addition
    plus a removal). Outputs are nondecreasing because child domains nest.
    """
    m = query.m
    depth = recexp_depth(m)
    eps = query.budget.epsilon
    eps_effective = eps if query.budget.relation is NeighboringRelation.ADD_REMOVE else eps / 2.0
    eps_call = eps_effective / depth
    if ledger is not None:
        ledger.allocate(eps, eps_effective, depth)

    values = sample.values
    n = sample.n
    out = np.empty(m)

    def recurse(j_lo: int, j_hi: int, a: int, b: int, lo: float, hi: float, level: int):
        if j_lo > j_hi:
            return
        if lo == hi:
            # a collapsed domain pins every quantile in the subtree; no
            # mechanism call is made, so no budget is recorded
            out[j_lo - 1 : j_hi] = lo
            return
        j_mid = (j_lo + j_hi) // 2
        sub = SortedSample(values[a:b])
        r = min(max(target_rank(n, query.orders[j_mid - 1]) - a, 0), b - a)
        density = qexp_density(sub, RankTarget(r, lo, hi), eps_call)
        q = sample_piecewise(density, rng)
        if ledger is not None:
            ledger.record(j_mid - 1, level, eps_call, b - a)
        out[j_mid - 1] = q
        s = int(np.searchsorted(values[a:b], q, side="left"))
        recurse(j_lo, j_mid - 1, a, a + s, lo, q, level + 1)
        recurse(j_mid + 1, j_hi, a + s, b, q, hi, level + 1)

    recurse(1, m, 0, n, 0.0, 1.0, 1)
    return out
