"""Private quantile estimators on sorted samples in [0, 1].

Three estimators share the same exponential-mechanism core: a single
quantile draw with density proportional to ``exp((eps/2) * u)`` for the
rank-error utility ``u(q) = -abs(#{X_i < q} - r)``, an independent
composition over many orders, and a recursive budget-splitting scheme that
halves the data range at a privately estimated middle quantile.

Every draw is made by one function, :func:`_draws`, over slices of the
sample on sub-domains, all read off one log-space prefix table over the gaps
of the whole sample (:class:`_GapTable`) by subtracting the table entries
outside each slice. :func:`qexp_draws` (qexp, indexp) makes one call with
every slice on the full domain; :func:`recexp` makes one call per level of
its recursion tree. A draw searches only the side of its rank that its pick
uniform chose, so the table is computed only where the draws read it: its
left half up to the largest target rank and its right half from the
smallest, each extended when a recursion slice's rank lies beyond it. One
order costs about one pass over the sample instead of two. The per-density
sampler (:func:`qexp_density` with :func:`sample_piecewise`) draws the same
law on the same uniforms; it stays as the reference the table is tested
against, and the privacy audits read its densities.
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
    sample_piecewise,  # noqa: F401  (the reference sampler, see above)
)


@dataclass(frozen=True)
class SortedSample:
    """Nondecreasing vector of reals in [0, 1].

    ``values`` is a read-only view: one sample may feed many estimates (the
    benchmark runs every estimator and m of a trial on one sample), so none
    of them may write to it. The caller's own array stays writeable.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).view()
        v.flags.writeable = False
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
    return WeightedIntervalDensity(breakpoints, qexp_log_weights(sample.n, target.rank, epsilon))


def qexp_log_weights(n: int, rank: int, epsilon: float) -> np.ndarray:
    """The log-weights ``-min(epsilon / 2, _SATURATED_C) * abs(k - rank)``
    of the intervals k = 0..n of :func:`qexp_density`; ``epsilon`` is not
    validated here."""
    return -min(epsilon / 2.0, _SATURATED_C) * np.abs(np.arange(n + 1) - rank)


class _GapTable:
    """The log-space prefix table every exponential-mechanism draw reads,
    computed only where the draws read it.

    With breakpoints ``x = [0, x_1, ..., x_n, 1]``, gaps ``g_k = x[k+1] -
    x[k]`` and ``c = min(epsilon / 2, _SATURATED_C)``, the table holds ``A_k
    = log sum_{j<k} g_j e^{cj}`` (non-decreasing) and ``B_k = log sum_{j>=k}
    g_j e^{-cj}`` (non-increasing), plus ``neg_B = -B`` for ascending
    searches, for k = 0..n+1. Only ``A[0..a_hi]`` and ``B[b_lo..n+1]`` are
    computed. Above ``a_hi`` A holds +inf and below ``b_lo`` neg_B holds
    -inf, so both stay sorted for searches over whole arrays; a draw's
    search never passes its rank's computed entry. Zero-length gaps repeat a
    table entry.

    ``A_k`` depends only on the gaps below k and ``B_k`` only on the gaps
    from k on, and ``np.logaddexp.accumulate`` is a left fold, so extending
    a table from its last computed entry gives the bits of the full pass.
    """

    __slots__ = ("x", "c", "A", "B", "neg_B", "a_hi", "b_lo")

    def __init__(self, values: np.ndarray, epsilon: float, b_lo: int, a_hi: int):
        n = values.size
        self.x = np.concatenate(([0.0], values, [1.0]))
        self.c = min(epsilon / 2.0, _SATURATED_C)
        self.A = np.full(n + 2, np.inf)
        self.B = np.empty(n + 2)
        self.neg_B = np.full(n + 2, -np.inf)
        self.A[0] = -np.inf
        self.B[n + 1] = -np.inf
        self.neg_B[n + 1] = np.inf
        self.a_hi = 0
        self.b_lo = n + 1
        self.extend_a(a_hi)
        self.extend_b(b_lo)

    def _log_gaps(self, lo: int, hi: int):
        """``log g_j`` and ``c * j`` for j = lo..hi-1."""
        with np.errstate(divide="ignore"):
            log_gaps = np.log(np.diff(self.x[lo : hi + 1]))
        return log_gaps, self.c * np.arange(lo, hi)

    def extend_a(self, k: int) -> None:
        """Compute A up to index k."""
        lo = self.a_hi
        if k > lo:
            log_gaps, ck = self._log_gaps(lo, k)
            terms = np.concatenate(([self.A[lo]], log_gaps + ck))
            self.A[lo : k + 1] = np.logaddexp.accumulate(terms)
            self.a_hi = k

    def extend_b(self, k: int) -> None:
        """Compute B and neg_B down to index k."""
        hi = self.b_lo
        if k < hi:
            log_gaps, ck = self._log_gaps(k, hi)
            terms = np.concatenate(([self.B[hi]], (log_gaps - ck)[::-1]))
            self.B[k : hi + 1] = np.logaddexp.accumulate(terms)[::-1]
            np.negative(self.B[k:hi], out=self.neg_B[k:hi])
            self.b_lo = k


def _draws(table: _GapTable, a, b, lo, hi, R, u_pick, u_pos) -> np.ndarray:
    """One exponential-mechanism draw per slice ``values[a:b]`` on ``[lo,
    hi]`` with global rank ``R`` in ``a..b``, read off the whole sample's
    :class:`_GapTable`; the slice bounds may be scalars.

    The slice's gaps are ``a..b``, gap ``a`` cut to ``[lo, x[a+1]]`` and gap
    ``b`` to ``[x[b], hi]``; gap ``k`` has log-weight ``-c * abs(k - R)``.
    With the table masses outside the slice, ``D_A = e^{A_a} + (lo - x[a])
    e^{ca}`` and ``D_B = e^{B_{b+1}} + (x[b+1] - hi) e^{-cb}``, gaps
    ``a..R-1`` hold ``e^{-cR} (e^{A_R} - D_A)`` and gaps ``R..b`` hold
    ``e^{cR} (e^{B_R} - D_B)``, plus the cut gap ``a`` when ``R = a``. On
    the full domain both D's are zero and the masses are the table's own.

    ``u_pick`` chooses the side, the left one also where only it has mass,
    and one ``searchsorted`` in that side's table, a B target capped at
    ``B_R``, a gap on that side of ``R`` that moves the entry (``A_{k+1} >
    A_k`` or ``B_k > B_{k+1}``), so a zero-length gap is never chosen. For
    a slice with a point inside, the table is extended to ``A[0..R]`` and
    ``B[R..n+1]``, the only entries read. No search returns a gap below
    ``a``, and capping ``k`` at ``b`` keeps rounding inside the slice; so a
    slice without a point inside (``a = b``), or of zero length, is drawn
    on its one interval whatever the table holds. ``u_pos`` places the draw
    in its gap, cut to ``[lo, hi]``.
    """
    x, c, A, B = table.x, table.c, table.A, table.B
    table.extend_a(int(R.max(where=a < b, initial=0)))
    table.extend_b(int(R.min(where=a < b, initial=x.size - 1)))
    cR = c * R
    A_R = A[R]
    with np.errstate(all="ignore"):
        log_da = np.logaddexp(A[a], np.log(lo - x[a]) + c * a)
        log_db = np.logaddexp(B[b + 1], np.log(x[b + 1] - hi) - c * b)
        # log(e^x - e^y) is -inf where e^x <= e^y: fmax drops the NaN that
        # the log of a negative difference gives
        log_left = np.fmax(A_R + np.log(-np.expm1(log_da - A_R)), -np.inf) - cR
        a1 = a + 1
        B_right = B[np.maximum(R, a1)]  # the right side's uncut gaps
        log_right = np.fmax(B_right + np.log(-np.expm1(log_db - B_right)), -np.inf) + cR
        # the cut gap a lies on the right side when R = a
        log_right = np.logaddexp(log_right, np.log((x[a1] - lo) * (R == a)))
        log_z = np.logaddexp(log_left, log_right)
        left_target = np.logaddexp(np.log(u_pick) + log_z + cR, log_da)
        right_target = np.minimum(np.logaddexp(np.log1p(-u_pick) + log_z - cR, log_db), B[R])
    left = left_target < A_R
    k = np.where(
        left,
        A.searchsorted(left_target, "right"),
        table.neg_B.searchsorted(-right_target, "right"),
    ) - 1
    # a u_pick within rounding of 1 can choose the right side where it has
    # no mass: take the last gap below R that has some
    massless = log_right == -np.inf
    if massless.any():
        massless &= ~left & (log_left > -np.inf)
        k[massless] = A.searchsorted(A_R[massless], "left") - 1
    k = np.minimum(k, b)
    left_edge = np.maximum(x[k], lo)
    return left_edge + u_pos * (np.minimum(x[k + 1], hi) - left_edge)


def qexp_draws(sample: SortedSample, ranks, epsilon: float, rng: RandomSource) -> np.ndarray:
    """One exponential-mechanism draw on [0, 1] per target rank, all at ``epsilon``.

    Draw ``j`` has the law of ``sample_piecewise(qexp_density(sample,
    RankTarget(ranks[j]), epsilon), rng)`` on the same two uniforms, but
    all ranks are full-domain slices of one :func:`_draws` call on one
    table, so m ranks cost O(n + m log n). The chosen interval equals the
    density sampler's except when a uniform falls within rounding of an
    interval boundary of the CDF.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilon}")
    n = sample.n
    r = np.asarray(ranks, dtype=np.int64)
    if r.ndim != 1 or (r.size and (r.min() < 0 or r.max() > n)):
        raise InvalidArgumentError(f"ranks must be a list of integers in [0, {n}]")
    table = _GapTable(sample.values, epsilon, int(r.min(initial=n + 1)), int(r.max(initial=0)))
    u_pick, u_pos = rng.random(2 * r.size).reshape(r.size, 2).T
    return _draws(table, 0, n, 0.0, 1.0, r, u_pick, u_pos)


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

    Every node draws from ``qexp_density`` on its slice and domain, as
    :func:`sample_piecewise` would on the same two uniforms, but each tree
    level is one :func:`_draws` call on one table over the whole sample, so
    m orders cost O(n + m log n); the table grows only where a slice's
    clamped rank leaves ``[min rank, max rank]``. Node ``i`` in preorder
    takes uniforms ``2i`` and ``2i + 1`` of one ``rng.random(2 * m)`` and
    is recorded in that order. A collapsed domain (``lo == hi``) pins its
    subtree at ``lo``: no call, no record, its uniforms unused.
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
    ranks = np.array([target_rank(n, p) for p in query.orders])
    table = _GapTable(values, eps_call, int(ranks.min()), int(ranks.max()))
    u_pick, u_pos = rng.random(2 * m).reshape(m, 2).T
    # q[j] is the draw of order j and s[j] = #{values < q[j]}, with q = s = 0
    # at j = 0 and q = 1, s = n at j = m + 1. A node over orders below + 1..
    # above - 1 draws order (below + above) // 2 on [q[below], q[above]]
    # from values[s[below]:s[above]]; pre is its preorder index.
    q = np.empty(m + 2)
    s = np.empty(m + 2, dtype=np.int64)
    q[0], q[m + 1], s[0], s[m + 1] = 0.0, 1.0, 0, n
    below, above, pre = np.array([0]), np.array([m + 1]), np.array([0])
    records = []
    for level in range(1, depth + 1):
        j = (below + above) // 2
        lo, hi, a, b = q[below], q[above], s[below], s[above]
        # a collapsed domain is a one-interval slice, which _draws draws at lo
        R = np.minimum(np.maximum(ranks[j - 1], a), b)
        drawn = _draws(table, a, b, lo, hi, R, u_pick[pre], u_pos[pre])
        q[j] = drawn
        # a draw lies in [lo, hi], so this counts values[:a] and none of values[b:]
        s[j] = values.searchsorted(drawn, "left")
        if ledger is not None:
            live = lo < hi
            calls = zip(pre[live].tolist(), j[live].tolist(), (b - a)[live].tolist())
            records += [(node, order - 1, level, size) for node, order, size in calls]
        # the left child's subtree comes next in preorder, the right one's
        # after the j - below - 1 nodes of the left
        below, above, pre = (
            np.concatenate((below, j)),
            np.concatenate((j, above)),
            np.concatenate((pre + 1, pre + j - below)),
        )
        has_orders = above - below > 1
        below, above, pre = below[has_orders], above[has_orders], pre[has_orders]
    if ledger is not None:
        for _, order_index, level, size in sorted(records):
            ledger.record(order_index, level, eps_call, size)
    return q[1 : m + 1]
