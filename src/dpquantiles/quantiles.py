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
uniform chose, so the table is computed only where the draws read it, in
whole blocks: its left half up to the largest target rank and its right
half from the smallest, each extended when a recursion slice's rank lies
beyond it. The table is built from blocked float prefix sums, one ``log``
per entry and one ``logaddexp`` per block, and every entry lies within a
stated bound of its exact value. The per-density sampler
(:func:`qexp_density` with :func:`sample_piecewise`) draws the same law on
the same uniforms, and picks the same interval except within rounding of a
boundary of the CDF; it stays as the reference the draws are tested
against, and the privacy audits read its densities.

The core has a leading row axis: :func:`qexp_draws`, :func:`indexp` and
:func:`recexp` take one sample and its :class:`RandomSource` (one row), or
samples of one size with a source each, and draw all rows in each call, on
one table with a row per sample. A row's uniforms and arithmetic are those
of its own call, so it holds that call's bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


# A release keeps a few arrays and tuples of one number per order, about 100
# bytes an order, so this cap keeps its orders under about a gigabyte.
MAX_ORDER_COUNT = 10**7


def check_order_count(m: int) -> None:
    """The one rule for a number of orders, checked where one enters the
    program, before any per-order allocation: 1 to ``MAX_ORDER_COUNT``."""
    if not 1 <= m <= MAX_ORDER_COUNT:
        raise InvalidArgumentError(f"order count must be between 1 and {MAX_ORDER_COUNT}, got {m}")


@dataclass(frozen=True)
class QuantileQuery:
    """Strictly increasing orders in (0, 1) plus the total privacy budget."""

    orders: tuple[float, ...]
    budget: PrivacyBudget

    def __post_init__(self):
        orders = tuple(float(p) for p in self.orders)
        object.__setattr__(self, "orders", orders)
        check_order_count(len(orders))
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


def target_rank(n: int, p):
    """floor(n * p), nudged one ulp up first so exact integer boundaries
    are not lost to floating-point rounding: an int for one order ``p``,
    an int64 array for an array of orders, each by the same arithmetic."""
    if n < 0:
        raise InvalidArgumentError(f"n must be nonnegative, got {n}")
    ranks = np.floor(np.nextafter(n * np.asarray(p, dtype=float), np.inf)).astype(np.int64)
    return int(ranks) if ranks.ndim == 0 else ranks


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


# The gap table sums at most _BLOCK gaps per block in doubles, and fewer
# where c is large, so that no in-block weight e^{c i} exceeds
# e^_BLOCK_LOG_SPAN and no block sum can overflow.
_BLOCK = 256
_BLOCK_LOG_SPAN = 500.0
# Only a gap between two points below 2^-969 can be subnormal, and its
# product with an in-block weight would lose bits: a table with such a point
# lifts its weights by 2^64. So every positive gap times its weight, and
# every positive block sum, is at least 2^-1022.
_TINY = 2.0**-969
_TINY_SCALE_BITS = 64


class _GapTable:
    """The log-space prefix table every exponential-mechanism draw reads,
    computed only where the draws read it.

    With breakpoints ``x = [lo, x_1, ..., x_n, hi]`` (``lo = 0`` and ``hi =
    1`` unless given), gaps ``g_k = x[k+1] - x[k]`` and ``c = min(epsilon /
    2, _SATURATED_C)``, the table holds ``A_k = log sum_{j<k} g_j e^{cj}``
    (non-decreasing) and ``B_k = log sum_{j>=k} g_j e^{-cj}``
    (non-increasing), plus ``neg_B = -B`` for ascending searches, for k =
    0..n+1. Only ``A[0..a_hi]`` and ``B[b_lo..n+1]`` are computed. Above
    ``a_hi`` A holds +inf and below ``b_lo`` neg_B holds -inf, so both stay
    sorted for searches over whole arrays; a draw's search never passes its
    rank's computed entry. Zero-length gaps repeat a table entry exactly.

    ``values`` is a sequence of equal-length rows, and ``x``, ``A``, ``B``
    and ``neg_B`` hold one row each, all computed over the same index range
    and each with its own ``_TINY`` lift, so a row holds its one-row bits.

    A is built in blocks of ``L = min(_BLOCK, floor(_BLOCK_LOG_SPAN / c))``
    gaps (at least 1) on a grid fixed from gap 0, B the same way on the
    reversed gaps from gap n down, so that every in-block weight is at least
    1 and at most e^500. A block starting at gap j0 takes the double
    ``cumsum`` ``S`` of ``g_j e^{c (j - j0)}``, and its entries are ``c j0 +
    log(S + e^{C - c j0})``, where the carry ``C`` is the log-mass of the
    gaps before the block, chained over the block totals by one
    ``np.logaddexp.accumulate``. A positive ``S`` is a normal double (see
    ``_TINY``), so ``e^{C - c j0}`` rounds or underflows by less than one
    rounding of ``S``. Entries whose block sum is still zero are -inf, and a
    running maximum, taken where an entry falls below the one before it,
    makes them repeat the entry before the block and keeps A and B monotone
    across block edges. Each entry thus depends only on the entries before
    it, its own block and the carry into that block; extensions compute
    whole blocks of the grid from the stored carry, so a table extended in
    steps holds the bits of one computed in full.

    Error bound: a computed ``A_k`` is within ``ceil(k / L) (M + 1000)
    2^-50`` of its exact value for the gaps of ``x`` and this ``c``, and a
    computed ``B_k`` within ``ceil((n + 1 - k) / L) (M + 1000) 2^-50``,
    where ``M`` is the largest of ``c (n + 1)`` and the magnitudes of that
    side's finite exact entries; an entry of exact value -inf is -inf. Each
    block's sums, weights and ``log`` contribute at most ``(L + 510)
    2^-53``, and each link of the chain and each offset a few roundings of
    numbers below ``M + 800`` (the logs of the gaps lie above -745).
    """

    __slots__ = (
        "x", "c", "A", "B", "neg_B", "a_hi", "b_lo", "_weights", "_log_scale", "_a_carry", "_b_carry"
    )

    def __init__(self, values, epsilon: float, b_lo: int, a_hi: int, lo: float = 0.0, hi: float = 1.0):
        rows, n = len(values), len(values[0])
        # one allocation for the four arrays: glibc's malloc gives freed heap
        # back beyond twice the largest block it has unmapped, and with four
        # smaller blocks every table would fault its pages in again
        self.x, self.A, self.B, self.neg_B = np.empty((4, rows, n + 2))
        self.x[:, 0], self.x[:, n + 1] = lo, hi
        for row, v in zip(self.x, values):
            row[1 : n + 1] = v
        self.c = c = min(epsilon / 2.0, _SATURATED_C)
        block = _BLOCK if c * _BLOCK <= _BLOCK_LOG_SPAN else max(1, int(_BLOCK_LOG_SPAN / c))
        tiny = [row.searchsorted(_TINY) > row.searchsorted(0.0, "right") for row in self.x]
        scale_bits = np.where(tiny, _TINY_SCALE_BITS, 0)
        self._weights = np.ldexp(np.exp(c * np.arange(block)), scale_bits[:, None])
        self._log_scale = scale_bits * math.log(2.0)
        self.A[:], self.neg_B[:] = np.inf, -np.inf
        self.A[:, 0], self.B[:, n + 1], self.neg_B[:, n + 1] = -np.inf, -np.inf, np.inf
        self.a_hi = 0
        self.b_lo = n + 1
        self._a_carry = self._b_carry = np.full(rows, -np.inf)
        self.extend_a(a_hi)
        self.extend_b(b_lo)

    def _blocks(self, lower, upper, start: int, carry: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``out[:, i + 1] = log(e^carry + sum_{j<=i} g_j e^{c (start
        + j)})`` per row, with gaps ``g = upper - lower`` in whole blocks that
        start on the grid and ``out[:, 0]`` the entry before them; returns
        the carries after them."""
        weights = self._weights
        (rows, count), size = lower.shape, weights.shape[1]
        S = np.zeros((rows, -(-count // size), size))
        np.subtract(upper, lower, out=S.reshape(rows, -1)[:, :count])
        S *= weights[:, None]
        np.cumsum(S, axis=2, out=S)
        offsets = self.c * np.arange(start, start + S.shape[1] * size, size) - self._log_scale[:, None]
        with np.errstate(divide="ignore"):
            chain = np.concatenate((carry[:, None], offsets + np.log(S[:, :, -1])), axis=1)
            chain = np.logaddexp.accumulate(chain, axis=1)
            # e^t can underflow, but what it loses, at most 2^-1075, is
            # below one rounding of any positive S, which is at least 2^-1022
            t = chain[:, :-1] - offsets
            # a block's leading zero-length gaps get -inf, which the running
            # maximum below turns into the entry before the block
            empty = S[:, :, 0] == 0.0
            any_empty = empty.any()
            if any_empty:
                empty_at = S[empty] == 0.0
            S += np.exp(t)[:, :, None]
            np.log(S, out=S)
        S += offsets[:, :, None]
        if any_empty:
            S[empty] = np.where(empty_at, -np.inf, S[empty])
        out[:, 1:] = S.reshape(rows, -1)[:, :count]
        # rounding can also put an entry below the one before it, mostly at a
        # block edge
        if (out[:, 1:] < out[:, :-1]).any():
            np.maximum.accumulate(out, axis=1, out=out)
        return chain[:, -1]

    @property
    def block(self) -> int:
        """The block length L."""
        return self._weights.shape[1]

    def _grid_end(self, k: int) -> int:
        """The first block edge from 0 at or above k, capped at n + 1."""
        return min(-(-k // self.block) * self.block, self.x.shape[1] - 1)

    def extend_a(self, k: int) -> None:
        """Compute A up to index k, in whole blocks."""
        lo = self.a_hi
        if k > lo:
            hi = self._grid_end(k)
            x = self.x
            lower, upper, out = x[:, lo:hi], x[:, lo + 1 : hi + 1], self.A[:, lo : hi + 1]
            self._a_carry = self._blocks(lower, upper, lo, self._a_carry, out)
            self.a_hi = hi

    def extend_b(self, k: int) -> None:
        """Compute B and neg_B down to index k, in whole blocks from n + 1."""
        top = self.x.shape[1] - 1
        hi = self.b_lo
        if k < hi:
            lo = top - self._grid_end(top - k)
            # reversed, gap hi - 1 comes first and weighs e^{-c (hi - 1)}
            x, out = self.x, self.B[:, lo : hi + 1][:, ::-1]
            lower, upper = x[:, lo:hi][:, ::-1], x[:, lo + 1 : hi + 1][:, ::-1]
            self._b_carry = self._blocks(lower, upper, 1 - hi, self._b_carry, out)
            np.negative(self.B[:, lo:hi], out=self.neg_B[:, lo:hi])
            self.b_lo = lo


def _draws(table: _GapTable, a, b, lo, hi, R, u_pick, u_pos) -> np.ndarray:
    """One exponential-mechanism draw per slice ``values[a:b]`` on ``[lo,
    hi]`` with global rank ``R`` in ``a..b``, read off the whole sample's
    :class:`_GapTable`. The slice arrays have the table's rows as leading
    axis, slice ``[i, j]`` lying in row ``i``; the slice bounds may be
    scalars, shared by every slice.

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
    ``B[R..n+1]``, the only entries read, rounded out to whole blocks of the
    table's grid. No search returns a gap below ``a``, and capping ``k`` at
    ``b`` keeps rounding inside the slice; so a slice without a point inside
    (``a = b``), or of zero length, is drawn on its one interval whatever
    the table holds. ``u_pos`` places the draw in its gap, cut to ``[lo,
    hi]``.

    On gaps far smaller than the table mass outside a slice of positive
    length, both side masses can round to zero; such a slice is drawn again,
    by this function, on a :class:`_GapTable` of its own gaps with edges
    ``lo`` and ``hi``, where both D's are zero. The searches, and such
    redraws, go row by row; the rest is elementwise over all slices.
    """
    x, c, A, B = table.x, table.c, table.A, table.B
    rows = np.arange(x.shape[0])[:, None]
    table.extend_a(int(R.max(where=a < b, initial=0)))
    table.extend_b(int(R.min(where=a < b, initial=x.shape[1] - 1)))
    cR = c * R
    A_R = A[rows, R]
    with np.errstate(all="ignore"):
        log_da = np.logaddexp(A[rows, a], np.log(lo - x[rows, a]) + c * a)
        log_db = np.logaddexp(B[rows, b + 1], np.log(x[rows, b + 1] - hi) - c * b)
        # log(e^x - e^y) is -inf where e^x <= e^y: fmax drops the NaN that
        # the log of a negative difference gives
        log_left = np.fmax(A_R + np.log(-np.expm1(log_da - A_R)), -np.inf) - cR
        a1 = a + 1
        B_right = B[rows, np.maximum(R, a1)]  # the right side's uncut gaps
        log_right = np.fmax(B_right + np.log(-np.expm1(log_db - B_right)), -np.inf) + cR
        # the cut gap a lies on the right side when R = a
        log_right = np.logaddexp(log_right, np.log((x[rows, a1] - lo) * (R == a)))
        log_z = np.logaddexp(log_left, log_right)
        left_target = np.logaddexp(np.log(u_pick) + log_z + cR, log_da)
        right_target = np.minimum(np.logaddexp(np.log1p(-u_pick) + log_z - cR, log_db), B[rows, R])
    left = left_target < A_R
    k = np.empty(R.shape, dtype=np.int64)
    for i, (A_i, neg_B_i) in enumerate(zip(A, table.neg_B)):  # searchsorted is 1-D
        left_k = A_i.searchsorted(left_target[i], "right")
        k[i] = np.where(left[i], left_k, neg_B_i.searchsorted(-right_target[i], "right")) - 1
    # a u_pick within rounding of 1 can choose the right side where it has
    # no mass: take the last gap below R that has some
    massless = log_right == -np.inf
    if massless.any():
        massless &= ~left & (log_left > -np.inf)
        for i, j in zip(*np.nonzero(massless)):
            k[i, j] = A[i].searchsorted(A_R[i, j], "left") - 1
    k = np.minimum(k, b)
    left_edge = np.maximum(x[rows, k], lo)
    q = left_edge + u_pos * (np.minimum(x[rows, k + 1], hi) - left_edge)
    # both side masses of a slice of tiny gaps can round to zero against the
    # table mass outside it: such a slice is drawn on a table of its own gaps,
    # at the same c
    lost = (log_z == -np.inf) & (lo < hi)
    if lost.any():
        a, b, lo, hi, R, u_pick, u_pos = np.broadcast_arrays(a, b, lo, hi, R, u_pick, u_pos)
        for i, j in zip(*np.nonzero(lost)):
            one, r = np.s_[i : i + 1, j : j + 1], R[i, j] - a[i, j]
            own = _GapTable(x[i : i + 1, a[i, j] + 1 : b[i, j] + 1], 2.0 * c, r, r, lo[i, j], hi[i, j])
            slice_ = (0, b[one] - a[one], lo[one], hi[one], R[one] - a[one], u_pick[one], u_pos[one])
            q[i, j] = _draws(own, *slice_)[0, 0]
    return q


def _rows(sample, rng, ledger=None) -> tuple[list[np.ndarray], list[RandomSource]]:
    """A call's rows, the values of one sample each, and their streams: a
    :class:`SortedSample` with its :class:`RandomSource` is the one-row case
    of a sequence of samples of one size with one source each. A ledger
    records the release of one sample."""
    if isinstance(sample, SortedSample):
        return [sample.values], [rng]
    values, rngs = [s.values for s in sample], list(rng)
    if len({v.size for v in values}) != 1 or len(rngs) != len(values) or (
        ledger is not None and len(rngs) > 1
    ):
        raise InvalidArgumentError("need samples of one size, a source each, and one for a ledger")
    return values, rngs


def _uniforms(rngs: list[RandomSource], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``rng.random(2 * m)``: slice j picks with 2j, places with 2j + 1."""
    u = np.stack([rng.random(2 * m) for rng in rngs]).reshape(len(rngs), m, 2)
    return u[:, :, 0], u[:, :, 1]


def qexp_draws(sample, ranks, epsilon: float, rng) -> np.ndarray:
    """One exponential-mechanism draw on [0, 1] per target rank, all at ``epsilon``.

    Draw ``j`` has the law of ``sample_piecewise(qexp_density(sample,
    RankTarget(ranks[j]), epsilon), rng)`` on the same two uniforms, but
    all ranks are full-domain slices of one :func:`_draws` call on one
    table, so m ranks cost O(n + m log n). The chosen interval equals the
    density sampler's except when a uniform falls within rounding of an
    interval boundary of the CDF. Samples of one size with a source each
    give a row of draws each, the bits of their own one-sample calls.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilon}")
    values, rngs = _rows(sample, rng)
    n = values[0].size
    r = np.asarray(ranks, dtype=np.int64)
    if r.ndim != 1 or (r.size and (r.min() < 0 or r.max() > n)):
        raise InvalidArgumentError(f"ranks must be a list of integers in [0, {n}]")
    table = _GapTable(values, epsilon, int(r.min(initial=n + 1)), int(r.max(initial=0)))
    R = np.broadcast_to(r, (len(rngs), r.size))
    draws = _draws(table, 0, n, 0.0, 1.0, R, *_uniforms(rngs, r.size))
    return draws[0] if isinstance(sample, SortedSample) else draws


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
    sample: SortedSample | Sequence[SortedSample],
    query: QuantileQuery,
    rng: RandomSource | Sequence[RandomSource],
    ledger: BudgetLedger | None = None,
) -> np.ndarray:
    """Independent composition: one qexp draw per order, each at eps / m.

    All m draws come from one shared :func:`qexp_draws` table, in O(n + m
    log n), and equal m sequential :func:`qexp` calls on the same stream.
    The utility sensitivity is 1 under both neighboring relations, so no
    relation adjustment is needed. Outputs are not forced monotone. Samples
    of one size with a source each give a row each (see :func:`qexp_draws`).
    """
    eps_each = query.budget.epsilon / query.m
    n = _rows(sample, rng, ledger)[0][0].size
    if ledger is not None:
        ledger.allocate(query.budget.epsilon, query.budget.epsilon, query.m)
        for j in range(query.m):
            ledger.record(j, 1, eps_each, n)
    return qexp_draws(sample, target_rank(n, query.orders), eps_each, rng)


def recexp_depth(m: int) -> int:
    """Depth of the balanced recursion tree over m ordered targets:
    floor(log2(m)) + 1, computed exactly."""
    if m < 1:
        raise InvalidArgumentError(f"m must be at least 1, got {m}")
    return int(m).bit_length()


def recexp(
    sample: SortedSample | Sequence[SortedSample],
    query: QuantileQuery,
    rng: RandomSource | Sequence[RandomSource],
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

    A sequence of samples of one size, with one source each, walks the tree
    once for all of them: its shape depends on m alone, so the rows share
    every level's nodes, and each row holds the bits of its own call.
    """
    m = query.m
    depth = recexp_depth(m)
    eps = query.budget.epsilon
    eps_effective = eps if query.budget.relation is NeighboringRelation.ADD_REMOVE else eps / 2.0
    eps_call = eps_effective / depth
    values, rngs = _rows(sample, rng, ledger)
    if ledger is not None:
        ledger.allocate(eps, eps_effective, depth)

    n = values[0].size
    ranks = target_rank(n, query.orders)
    table = _GapTable(values, eps_call, int(ranks.min()), int(ranks.max()))
    u_pick, u_pos = _uniforms(rngs, m)
    # in each row, q[j] is the draw of order j and s[j] = #{values < q[j]},
    # with q = s = 0 at j = 0 and q = 1, s = n at j = m + 1. A node over
    # orders below + 1..above - 1 draws order (below + above) // 2 on
    # [q[below], q[above]] from values[s[below]:s[above]]; pre is its
    # preorder index. Every row shares below, above and pre.
    q = np.empty((len(values), m + 2))
    s = np.empty((len(values), m + 2), dtype=np.int64)
    q[:, 0], q[:, m + 1], s[:, 0], s[:, m + 1] = 0.0, 1.0, 0, n
    below, above, pre = np.array([0]), np.array([m + 1]), np.array([0])
    records = []
    for level in range(1, depth + 1):
        j = (below + above) // 2
        lo, hi, a, b = q[:, below], q[:, above], s[:, below], s[:, above]
        # a collapsed domain is a one-interval slice, which _draws draws at lo
        R = np.minimum(np.maximum(ranks[j - 1], a), b)
        drawn = _draws(table, a, b, lo, hi, R, u_pick[:, pre], u_pos[:, pre])
        q[:, j] = drawn
        # a draw lies in [lo, hi], so this counts values[:a] and none of values[b:]
        for i, row in enumerate(values):  # searchsorted is 1-D
            s[i, j] = row.searchsorted(drawn[i], "left")
        if ledger is not None:
            live = lo[0] < hi[0]
            calls = zip(pre[live].tolist(), j[live].tolist(), (b - a)[0, live].tolist())
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
    return q[0, 1 : m + 1] if isinstance(sample, SortedSample) else q[:, 1 : m + 1]
