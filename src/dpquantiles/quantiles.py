"""Private quantile estimators on sorted samples in [0, 1].

Three estimators share the same exponential-mechanism core: a single
quantile draw with density proportional to ``exp((eps/2) * u)`` for the
rank-error utility ``u(q) = -abs(#{X_i < q} - r)``, an independent
composition over many orders, and a recursive budget-splitting scheme that
halves the data range at a privately estimated middle quantile.

Every draw reads one log-space prefix table over the gaps of the whole
sample (:class:`_GapTable`): :func:`qexp_draws` serves any number of target
ranks on the full domain (qexp, indexp), and :func:`recexp` serves each
slice of its recursion, on its own sub-domain, by subtracting the table
entries outside the slice. A draw searches only the side of its rank that
its pick uniform chose, so the table is computed only where the draws read
it: its left half up to the largest target rank and its right half from the
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


def qexp_draws(sample: SortedSample, ranks, epsilon: float, rng: RandomSource) -> np.ndarray:
    """One exponential-mechanism draw on [0, 1] per target rank, all at ``epsilon``.

    Draw ``j`` has the law of ``sample_piecewise(qexp_density(sample,
    RankTarget(ranks[j]), epsilon), rng)`` and consumes the same two
    uniforms in the same order, but every rank is served by one table
    (:class:`_GapTable`) instead of its own density, so m ranks cost O(n +
    m log n). Only ``A[0..max r]`` and ``B[min r..n+1]`` are computed.

    The mass left of interval ``r`` is ``e^{A_r - cr}``, the mass from ``r``
    on is ``e^{B_r + cr}``. The pick uniform chooses the left side when its
    target lies below ``A_r`` or the right side has no mass, and one
    ``searchsorted`` in that side's table, a B target capped at ``B_r``,
    finds an interval that moves the entry (``A_{k+1} > A_k`` or ``B_k >
    B_{k+1}``); a zero-length interval repeats an entry and is never chosen.
    The chosen interval equals the density sampler's except when a uniform
    falls within rounding of an interval boundary of the CDF.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilon}")
    n = sample.n
    r = np.asarray(ranks, dtype=np.int64)
    if r.ndim != 1 or (r.size and (r.min() < 0 or r.max() > n)):
        raise InvalidArgumentError(f"ranks must be a list of integers in [0, {n}]")
    table = _GapTable(sample.values, epsilon, int(r.min(initial=n + 1)), int(r.max(initial=0)))
    x, c, A, neg_B = table.x, table.c, table.A, table.neg_B
    cr = c * r
    B_r = table.B[r]
    log_z = np.logaddexp(A[r] - cr, B_r + cr)
    u_pick, u_pos = rng.random(2 * r.size).reshape(r.size, 2).T
    with np.errstate(divide="ignore"):
        left_target = np.log(u_pick) + log_z + cr
    left = left_target < A[r]
    right_target = np.minimum(np.log1p(-u_pick) + log_z - cr, B_r)
    k = np.where(
        left,
        np.searchsorted(A[1:], left_target, side="right"),
        np.searchsorted(neg_B, -right_target, side="right") - 1,
    )
    # a u_pick within rounding of 1 can choose the right side where it has
    # no mass (only zero-length intervals from r on)
    massless = ~left & (B_r == -np.inf)
    if massless.any():
        k[massless] = np.searchsorted(A, A[r[massless]], side="left") - 1
    return x[k] + u_pos * (x[k + 1] - x[k])


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


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _logaddexp(x: float, y: float) -> float:
    """Scalar ``np.logaddexp``, with the same formula."""
    if x < y:
        x, y = y, x
    if y == -math.inf:
        return x
    return x + math.log1p(math.exp(y - x))


def _logsubexp(x: float, y: float) -> float:
    """``log(e^x - e^y)``, or ``-inf`` where ``e^x <= e^y``."""
    if x <= y:
        return -math.inf
    return x + math.log(-math.expm1(y - x))


def _slice_draw(table: _GapTable, a, b, lo, hi, R, u_pick, u_pos) -> float:
    """One exponential-mechanism draw for the slice ``values[a:b]`` on
    ``[lo, hi]`` with clamped global rank ``R``, read off the whole sample's
    :class:`_GapTable`, which it extends to ``A[0..R]`` and ``B[R..n+1]``.

    The slice's intervals are the global gaps ``a..b``, with gap ``a`` cut
    to ``[lo, x[a+1]]`` and gap ``b`` to ``[x[b], hi]``; gap ``k`` has
    log-weight ``-c * abs(k - R)``. ``D_A = e^{A_a} + (lo - x[a]) e^{ca}`` is
    the A-mass below ``lo`` and ``D_B = e^{B_{b+1}} + (x[b+1] - hi) e^{-cb}``
    the B-mass above ``hi``, so the mass of gaps ``a..R-1`` is ``e^{-cR}
    (e^{A_R} - D_A)`` and that of gaps ``R..b`` is ``e^{cR} (e^{B_R} -
    D_B)``; for ``R = a`` the cut gap ``a`` is added to gaps ``a+1..b``
    explicitly. The uniforms are used as in :func:`qexp_draws`: ``u_pick``
    chooses the side, the left one where only it has mass, and one
    ``searchsorted`` in A or B the interval, on that side of ``R`` and
    inside ``a..b``, so a slice costs O(log n) plus the table entries it is
    the first to read.
    """
    x = table.x
    if a == b:
        k = a  # no sample point inside: the one interval [lo, hi]
    else:
        # tested here, not only in the methods, to spare two calls per slice
        if R > table.a_hi:
            table.extend_a(R)
        if R < table.b_lo:
            table.extend_b(R)
        c, A, B = table.c, table.A, table.B
        log_da = _logaddexp(A[a], _log(lo - x[a]) + c * a)
        log_db = _logaddexp(B[b + 1], _log(x[b + 1] - hi) - c * b)
        cr = c * R
        if R > a:
            log_left = _logsubexp(A[R], log_da) - cr
            log_right = _logsubexp(B[R], log_db) + cr
        else:
            log_left = -math.inf
            log_right = _logaddexp(_log(x[a + 1] - lo), _logsubexp(B[a + 1], log_db) + cr)
        log_z = _logaddexp(log_left, log_right)
        target = _logaddexp(_log(u_pick) + log_z + cr, log_da)
        if target < A[R]:
            k = int(np.searchsorted(A, target, side="right")) - 1
        elif log_right == -math.inf and log_left > -math.inf:
            # rounding chose the side without mass: take the last gap below
            # R that has some
            k = int(np.searchsorted(A, A[R], side="left")) - 1
        else:
            target = min(_logaddexp(math.log1p(-u_pick) + log_z - cr, log_db), B[R])
            # rounding must not leave the slice
            k = min(int(np.searchsorted(table.neg_B, -target, side="right")) - 1, b)
    left = max(x[k], lo)
    right = min(x[k + 1], hi)
    return float(left + u_pos * (right - left))


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

    Node ``j`` draws from ``qexp_density`` on its slice of the sample and
    its domain, as :func:`sample_piecewise` would, on the same two uniforms,
    but every slice is read off one table over the whole sample
    (:func:`_slice_draw`), so m orders cost O(n + m log n). The table starts
    on ``A[0..max rank]`` and ``B[min rank..n+1]`` and grows only when a
    slice's clamped rank leaves that region. The tree is walked depth-first,
    left before right, with an explicit stack.
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
    ranks = [target_rank(n, p) for p in query.orders]
    table = _GapTable(values, eps_call, min(ranks), max(ranks))
    out = np.empty(m)
    # a node holds orders j_lo..j_hi (1-based) of the slice values[a:b] on
    # [lo, hi]; the right child is pushed first, so the left one runs first
    stack = [(1, m, 0, n, 0.0, 1.0, 1)]
    while stack:
        j_lo, j_hi, a, b, lo, hi, level = stack.pop()
        if j_lo > j_hi:
            continue
        if lo == hi:
            # a collapsed domain pins every quantile in the subtree; no
            # mechanism call is made, so no budget is recorded
            out[j_lo - 1 : j_hi] = lo
            continue
        j_mid = (j_lo + j_hi) // 2
        R = min(max(ranks[j_mid - 1], a), b)
        u_pick, u_pos = rng.random(2)
        q = _slice_draw(table, a, b, lo, hi, R, u_pick, u_pos)
        if ledger is not None:
            ledger.record(j_mid - 1, level, eps_call, b - a)
        out[j_mid - 1] = q
        s = a + int(np.searchsorted(values[a:b], q, side="left"))
        stack.append((j_mid + 1, j_hi, s, b, q, hi, level + 1))
        stack.append((j_lo, j_mid - 1, a, s, lo, q, level + 1))
    return out
