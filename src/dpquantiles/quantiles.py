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
its recursion tree. The table holds blocked float prefix sums, summed in
whole blocks only as far as the draws read (its left half up to the largest
target rank, its right half from the smallest, extended when a recursion
slice's rank lies beyond), one ``logaddexp`` per block and one stored
``log`` entry per run of 16; a draw evaluates the few entries it reads, and
searches only the side of its rank that its pick uniform chose. Every entry
lies within a stated bound of its exact value. The per-density sampler
(:func:`qexp_density` with :func:`sample_piecewise`) draws the same law on
the same uniforms, and picks the same interval except within rounding of a
boundary of the CDF; it stays as the reference the draws are tested
against. The audits in :mod:`dpquantiles.bench` compute the same law from
:func:`qexp_log_weights`.

The core has a leading row axis: :func:`qexp_draws`, :func:`indexp` and
:func:`recexp` take one sample and its :class:`RandomSource` (one row), or
samples of one size with a source each, and draw all rows in each call, on
one table with a row per sample. A row's uniforms and arithmetic are those
of its own call, so it holds that call's bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

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


def target_rank(n: int, p):
    """floor(n * p), nudged one ulp up first so exact integer boundaries
    are not lost to floating-point rounding: an int for one order ``p``,
    an int64 array for an array of orders, each by the same arithmetic."""
    if n < 0:
        raise InvalidArgumentError(f"n must be nonnegative, got {n}")
    ranks = np.floor(np.nextafter(n * np.asarray(p, dtype=float), np.inf)).astype(np.int64)
    return int(ranks) if ranks.ndim == 0 else ranks


# Two positive double gaps differ by less than e^745, so from c = 1490 on the
# intervals beyond the nearest positive-length ones hold less than e^-745 of
# the mass, far below the 2^-53 resolution of a uniform, and no draw depends
# on c any more. Capping c there keeps c * k finite for any finite epsilon.
_SATURATED_C = 1500.0


def qexp_density(
    sample: SortedSample, rank: int, epsilon: float, lo: float = 0.0, hi: float = 1.0
) -> WeightedIntervalDensity:
    """Exponential-mechanism density for one quantile of target ``rank``, the
    count of points strictly below the output, on the domain ``[lo, hi]``.

    Interval ``k`` (between consecutive sample points, with the domain edges
    as outer breakpoints) has ``k`` sample points to its left and gets
    log-weight ``-(epsilon / 2) * abs(k - rank)``; the utility has
    sensitivity 1 under both neighboring relations. Duplicated sample points
    produce zero-length intervals, which the sampler ignores. ``epsilon = 0``
    is accepted and degenerates to the uniform law on the domain. As in
    :func:`qexp_draws`, ``epsilon / 2`` is capped at ``_SATURATED_C``, so the
    log-weights stay finite and the gap lengths keep their say at any budget.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not 0 <= rank <= sample.n:
        raise InvalidArgumentError(f"rank must lie in [0, {sample.n}], got {rank}")
    if not 0.0 <= lo <= hi <= 1.0:
        raise InvalidArgumentError(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
    values = sample.values
    if sample.n and (values[0] < lo or values[-1] > hi):
        raise InvalidArgumentError("sample values must lie inside the domain")
    breakpoints = np.concatenate(([lo], values, [hi]))
    return WeightedIntervalDensity(breakpoints, qexp_log_weights(sample.n, rank, epsilon))


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
# A table stores the entry ending each of the about _RUNS runs of a block, and
# a search evaluates the entries of one run
_RUNS = 16


def _log_entries(sums, offsets, lifts) -> np.ndarray:
    """The entries ``o + log(S + e^{C - o})`` of :class:`_GapTable` before
    the clamp, -inf where ``S`` is zero; the caller ignores the division by
    zero that the log of zero raises."""
    return offsets + np.log(sums + lifts * (sums > 0.0))


class _GapTable:
    """The log-space prefix table every exponential-mechanism draw reads. It
    holds block sums and one entry in 16, and evaluates any other entry only
    where a draw reads it.

    With breakpoints ``x = [lo, x_1, ..., x_n, hi]`` (``lo = 0`` and ``hi =
    1`` unless given), gaps ``g_k = x[k+1] - x[k]`` and ``c = min(epsilon /
    2, _SATURATED_C)``, the entries are ``A_k = log sum_{j<k} g_j e^{cj}``
    (non-decreasing) and ``B_k = log sum_{j>=k} g_j e^{-cj}``
    (non-increasing), k = 0..n+1. Side 0 sums the gaps from gap 0 up, side 1
    from gap n down, and entry ``e`` of a side sums its first ``e`` gaps:
    ``A_k`` is side 0's entry ``k``, ``B_k`` side 1's entry ``n + 1 - k``.
    ``values`` is a sequence of equal-length rows, each with its own
    ``_TINY`` lift, so a row holds its one-row bits.

    A side is summed in blocks of ``L = min(_BLOCK, floor(_BLOCK_LOG_SPAN /
    c), n + 1)`` gaps (at least 1) on a grid from its first gap, so that every
    in-block weight lies in [1, e^500], and only as far as the draws read: in
    whole blocks up to the largest target rank on side 0 and down to the
    smallest on side 1, extended when a recursion slice's rank lies beyond.
    A block from gap j0 stores the double ``cumsum`` ``S`` of its gaps times
    ``e^{c (j - j0)}``, its offset ``o = c j0`` (``c (j0 - n)`` on side 1)
    and ``e^{C - o}``, with the carry ``C``, the log-mass of the gaps before
    it, chained over the block totals by one ``np.logaddexp.accumulate``.
    The entry after its i-th gap is ``o + log(S_i + e^{C - o})``, -inf where
    ``S_i`` is zero (the block opens with zero-length gaps), clamped below by
    the entry at the block's lower edge. The entry ending each run of ``G``
    entries, ``G`` the largest divisor of ``L`` up to ``ceil(L / _RUNS)``,
    is stored: edge ``j`` is entry ``j G``.

    Monotone rule: unclamped entries never decrease inside a block (sums of
    nonnegative terms, a monotone ``log``), and the block edges are the
    running maximum of the blocks' last entries; so every entry is the
    running maximum of the unclamped ones up to it, both sides are monotone,
    and a zero-length gap repeats an entry exactly. An entry depends only on
    its block, its carry and its lower edge: a table extended in steps holds
    the bits of one summed in full, however its entries are evaluated.
    :meth:`count` searches the edges, then the run after the last edge at or
    below its target.

    Error bound: a computed ``A_k`` is within ``ceil(k / L) (M + 1000)
    2^-50`` of its exact value for the gaps of ``x`` and this ``c``, and a
    computed ``B_k`` within ``ceil((n + 1 - k) / L) (M + 1000) 2^-50``,
    where ``M`` is the largest of ``c (n + 1)`` and the magnitudes of that
    side's finite exact entries; an entry of exact value -inf is -inf. Each
    block's sums, weights and ``log`` contribute at most ``(L + 510)
    2^-53``, and each link of the chain and each offset a few roundings of
    numbers below ``M + 800`` (the logs of the gaps lie above -745).
    """

    __slots__ = ("x", "c", "block", "run", "summed", "_weights", "_log_scale", "_sums", "_terms", "_edges", "_carry")

    def __init__(self, values, epsilon: float, b_lo: int, a_hi: int, lo: float = 0.0, hi: float = 1.0):
        rows, n = len(values), len(values[0])
        self.c = c = min(epsilon / 2.0, _SATURATED_C)
        L = _BLOCK if c * _BLOCK <= _BLOCK_LOG_SPAN else max(1, int(_BLOCK_LOG_SPAN / c))
        self.block = L = min(L, n + 1)  # rows of a few points get short blocks
        self.run = G = max(d for d in range(1, -(-L // _RUNS) + 1) if L % d == 0)
        blocks = -(-(n + 1) // L)
        # one allocation for x and the sums (glibc's malloc would give two
        # freed blocks back, and fault them in again for the next table): a
        # group per side and row, side 0's rows first, and a spare block of
        # zeros, whose entries are -inf
        size = rows * (n + 2)
        buffer = np.empty(size + 2 * rows * (blocks + 1) * L)
        self.x = buffer[:size].reshape(rows, n + 2)
        self._sums = buffer[size:].reshape(2 * rows, blocks + 1, L)
        self._sums[:, -1] = 0.0
        self.x[:, 0], self.x[:, n + 1] = lo, hi
        for row, v in zip(self.x, values):
            row[1 : n + 1] = v
        tiny = [row.searchsorted(_TINY) > row.searchsorted(0.0, "right") for row in self.x]
        scale_bits = np.where(tiny, _TINY_SCALE_BITS, 0)
        self._weights = np.ldexp(np.exp(c * np.arange(L)), scale_bits[:, None])
        self._log_scale = scale_bits * math.log(2.0)
        # each block's offset o, e^{C - o} and lower edge entry
        self._terms = np.full((3, 2 * rows, blocks + 1), np.array([0.0, 0.0, -np.inf])[:, None, None])
        # the edges, +inf where unsummed, as the imaginary parts of keys whose
        # real parts number the group: one searchsorted finds every target's run
        self._edges = np.full((2 * rows, 1 + blocks * (L // G)), complex(0, np.inf))
        self._edges.real, self._edges.imag[:, 0] = np.arange(2 * rows)[:, None], -np.inf
        self._carry = np.full(2 * rows, -np.inf)
        self.summed = [0, 0]  # blocks, per side
        self.extend(0, a_hi)
        self.extend(1, n + 1 - b_lo)

    def extend(self, side: int, e: int) -> None:
        """Sum ``side`` up to its entry ``e``, in whole blocks."""
        L, G, (rows, n) = self.block, self.run, (self.x.shape[0], self.x.shape[1] - 2)
        k0, k1 = self.summed[side], min(-(-e // L), self._sums.shape[1] - 1)
        if k1 <= k0:
            return
        group = np.s_[side * rows : (side + 1) * rows]
        j0, j1 = k0 * L, min(k1 * L, n + 1)
        S = self._sums[group, k0:k1]
        # side 1 takes the gaps from gap n down: x reversed, upper edges first
        x = self.x if side == 0 else self.x[:, ::-1]
        lower, upper = (x[:, j0:j1], x[:, j0 + 1 : j1 + 1])[:: -1 if side else 1]
        gaps = self._sums.reshape(2 * rows, -1)[group, j0 : k1 * L]
        np.subtract(upper, lower, out=gaps[:, : j1 - j0])
        gaps[:, j1 - j0 :] = 0.0
        S *= self._weights[:, None]
        np.cumsum(S, axis=2, out=S)
        offsets = self.c * np.arange(j0 - side * n, k1 * L - side * n, L) - self._log_scale[:, None]
        with np.errstate(divide="ignore"):
            chain = np.concatenate((self._carry[group, None], offsets + np.log(S[:, :, -1])), axis=1)
            chain = np.logaddexp.accumulate(chain, axis=1)
            # e^{C - o} can underflow, but what it loses, at most 2^-1075, is
            # below one rounding of any positive S, which is at least 2^-1022
            lifts = np.exp(chain[:, :-1] - offsets)
            ends = _log_entries(S[:, :, G - 1 :: G], offsets[:, :, None], lifts[:, :, None])
        self._carry[group] = chain[:, -1]
        edges = self._edges.imag[group, k0 * (L // G) : k1 * (L // G) + 1]
        lower_edges = np.maximum.accumulate(np.concatenate((edges[:, :1], ends[:, :, -1]), axis=1), axis=1)
        edges[:, 1:] = np.maximum(ends, lower_edges[:, :-1, None]).reshape(rows, -1)
        self._terms[:, group, k0:k1] = offsets, lifts, lower_edges[:, :-1]
        self.summed[side] = k1

    def _unclamped(self, block, at):
        """The unclamped entries of the sums at ``at`` in ``block``, both
        indices counted over all groups, and the block's lower edges."""
        offsets, lifts, lower = np.take(self._terms.reshape(3, -1), block, axis=1)
        return _log_entries(self._sums.reshape(-1)[at], offsets, lifts), lower

    def entries(self, side, row, e) -> np.ndarray:
        """Entries ``e`` of ``side`` in rows ``row``, integer arrays that
        broadcast; one past the summed blocks reads as the last summed one."""
        L, (groups, blocks, _) = self.block, self._sums.shape
        gap = np.minimum(e, np.where(side, self.summed[1] * L, self.summed[0] * L)) - 1
        # entry 0 has no gap: it reads the spare block before its group's
        at = (side * self.x.shape[0] + row) * (blocks * L) + gap
        with np.errstate(divide="ignore"):
            raw, lower = self._unclamped(at // L, at)
        return np.maximum(raw, lower)

    def count(self, side, row, limit) -> np.ndarray:
        """How many entries of ``side`` in rows ``row`` lie at or below
        ``limit``: ``searchsorted(limit, "right")`` over them, for a limit
        below the entry that ends the summed blocks (the search reads the run
        after the last edge at or below it). ``row`` broadcasts to the 2-D
        shape of the other arguments."""
        L, G, (groups, blocks, _), n = self.block, self.run, self._sums.shape, self.x.shape[1] - 2
        group, edges = side * self.x.shape[0] + row, self._edges.shape[1]
        query = np.empty(np.shape(limit), dtype=complex)
        query.real, query.imag = group, limit
        # in the run after the last edge at or below the limit, an entry is at
        # or below the limit where its unclamped value is
        after = (self._edges.reshape(-1).searchsorted(query, "right") - group * edges - 1) * G
        at = group * (blocks * L) + after
        with np.errstate(divide="ignore"):
            inside = (self._unclamped(at // L, at + np.arange(G - 1)[:, None, None])[0] <= limit).sum(axis=0)
        return np.minimum(after + 1 + inside, n + 2)


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
    and one search of that side's entries, a B target capped at ``B_R``, a
    gap on that side of ``R`` that moves the entry (``A_{k+1} > A_k`` or
    ``B_k > B_{k+1}``), so a zero-length gap is never chosen. For a slice
    with a point inside, the table is summed up to ``A_R`` and from ``B_R``,
    in whole blocks of its grid, and the draw reads only ``A_a``, ``A_R``,
    ``B_{b+1}``, ``B_{max(R, a+1)}``, ``B_R`` and its search's entries.
    Clipping ``k`` to ``[a, b]`` keeps rounding inside the slice; so a slice
    without a point inside (``a = b``), or of zero length, is drawn on its
    one interval whatever the table holds. ``u_pos`` places the draw in its
    gap, cut to ``[lo, hi]``.

    On gaps far smaller than the table mass outside a slice of positive
    length, both side masses can round to zero; such a slice is drawn again,
    by this function, on a :class:`_GapTable` of its own gaps with edges
    ``lo`` and ``hi``, where both D's are zero. Such redraws go row by row;
    the rest is elementwise over all slices.
    """
    x, c = table.x, table.c
    n = x.shape[1] - 2
    rows = np.arange(x.shape[0])[:, None]
    table.extend(0, int(R.max(where=a < b, initial=0)))
    table.extend(1, n + 1 - int(R.min(where=a < b, initial=n + 1)))
    cR = c * R
    a1 = a + 1
    # A_R, A_a, B_{b+1}, B_{max(R, a+1)} (the right side's uncut gaps) and B_R
    reads = np.empty((5,) + R.shape, dtype=np.int64)
    reads[0], reads[1], reads[2], reads[3], reads[4] = R, a, n - b, n + 1 - np.maximum(R, a1), n + 1 - R
    A_R, A_a, B_after, B_right, B_R = table.entries(np.array([0, 0, 1, 1, 1])[:, None, None], rows, reads)
    with np.errstate(all="ignore"):
        log_da = np.logaddexp(A_a, np.log(lo - x[rows, a]) + c * a)
        log_db = np.logaddexp(B_after, np.log(x[rows, b + 1] - hi) - c * b)
        # log(e^x - e^y) is -inf where e^x <= e^y: fmax drops the NaN that
        # the log of a negative difference gives
        log_left = np.fmax(A_R + np.log(-np.expm1(log_da - A_R)), -np.inf) - cR
        log_right = np.fmax(B_right + np.log(-np.expm1(log_db - B_right)), -np.inf) + cR
        # the cut gap a lies on the right side when R = a
        log_right = np.logaddexp(log_right, np.log((x[rows, a1] - lo) * (R == a)))
        log_z = np.logaddexp(log_left, log_right)
        left_target = np.logaddexp(np.log(u_pick) + log_z + cR, log_da)
        right_target = np.minimum(np.logaddexp(np.log1p(-u_pick) + log_z - cR, log_db), B_R)
        left = left_target < A_R
        # the right side's search counts the entries below its target, those
        # at or below the double before it (a target of -inf is a lost slice)
        on_b, limit = ~left, np.where(left, left_target, np.nextafter(right_target, -np.inf))
        # a u_pick within rounding of 1 can choose the right side where it
        # has no mass: take the last gap below R that has some
        massless = log_right == -np.inf
        if massless.any():
            massless &= on_b & (log_left > -np.inf)
            on_b, limit = on_b & ~massless, np.where(massless, np.nextafter(A_R, -np.inf), limit)
        found = table.count(on_b, rows, limit)
    k = np.minimum(np.maximum(np.where(on_b, n + 1 - found, found - 1), a), b)
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


def _rows(sample, rng) -> tuple[list[np.ndarray], list[RandomSource]]:
    """A call's rows, the values of one sample each, and their streams: a
    :class:`SortedSample` with its :class:`RandomSource` is the one-row case
    of a sequence of samples of one size with one source each."""
    if isinstance(sample, SortedSample):
        return [sample.values], [rng]
    values, rngs = [s.values for s in sample], list(rng)
    if len({v.size for v in values}) != 1 or len(rngs) != len(values):
        raise InvalidArgumentError("need samples of one size and a source each")
    return values, rngs


def _uniforms(rngs: list[RandomSource], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``rng.random(2 * m)``: slice j picks with 2j, places with 2j + 1."""
    u = np.stack([rng.random(2 * m) for rng in rngs]).reshape(len(rngs), m, 2)
    return u[:, :, 0], u[:, :, 1]


def qexp_draws(sample, ranks, epsilon: float, rng) -> np.ndarray:
    """One exponential-mechanism draw on [0, 1] per target rank, all at ``epsilon``.

    Draw ``j`` has the law of ``sample_piecewise(qexp_density(sample,
    ranks[j], epsilon), rng, 1)`` on the same two uniforms, but
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
class ReleaseRecord:
    """How a release of m orders by ``method`` (indexp, recexp or histogram)
    splits its budget; :meth:`of` is the one split rule. ``epsilon_effective``
    of ``epsilon_total`` is charged over ``levels`` sequential levels,
    ``eps_per_call`` each: indexp's m draws are a level each; recexp's tree
    levels draw on disjoint sub-samples, and it halves the budget under
    replacement (an addition plus a removal); the histogram of ``bins`` counts
    is one level. Every root-to-leaf path is charged every level."""

    method: str
    relation: NeighboringRelation
    epsilon_total: float
    epsilon_effective: float
    levels: int
    eps_per_call: float
    bins: int | None = None

    @classmethod
    def of(cls, method: str, m: int, budget: PrivacyBudget, bins: int | None = None) -> "ReleaseRecord":
        levels = {"indexp": m, "recexp": recexp_depth(m), "histogram": 1}.get(method)
        if levels is None:
            raise InvalidArgumentError(f"unknown estimator id: {method!r}")
        halved = method == "recexp" and budget.relation is NeighboringRelation.REPLACE
        effective = budget.epsilon / 2.0 if halved else budget.epsilon
        histogram_bins = bins if method == "histogram" else None
        return cls(method, budget.relation, budget.epsilon, effective, levels, effective / levels, histogram_bins)


def indexp(
    sample: SortedSample | Sequence[SortedSample],
    query: QuantileQuery,
    rng: RandomSource | Sequence[RandomSource],
) -> np.ndarray:
    """Independent composition: one qexp draw per order, each at eps / m
    (see :class:`ReleaseRecord`).

    All m draws come from one shared :func:`qexp_draws` table, in O(n + m
    log n), and equal m sequential :func:`qexp` calls on the same stream.
    The utility sensitivity is 1 under both neighboring relations, so no
    relation adjustment is needed. Outputs are not forced monotone. Samples
    of one size with a source each give a row each (see :func:`qexp_draws`).
    """
    eps_each = ReleaseRecord.of("indexp", query.m, query.budget).eps_per_call
    n = _rows(sample, rng)[0][0].size
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
) -> np.ndarray:
    """Recursive estimator: split the data at a private middle quantile.

    Each tree level touches disjoint sub-samples, so one level costs a
    single per-call budget, ``eps / depth`` under add/remove neighboring and
    ``(eps / 2) / depth`` under replacement (see :class:`ReleaseRecord`).
    Outputs are nondecreasing because child domains nest.

    Every node draws from ``qexp_density`` on its slice and domain, as
    :func:`sample_piecewise` would on the same two uniforms, but each tree
    level is one :func:`_draws` call on one table over the whole sample, so
    m orders cost O(n + m log n); the table grows only where a slice's
    clamped rank leaves ``[min rank, max rank]``. Node ``i`` in preorder
    takes uniforms ``2i`` and ``2i + 1`` of one ``rng.random(2 * m)``. A
    collapsed domain (``lo == hi``) pins its subtree at ``lo``: no call, its
    uniforms unused. As the tree depends on m alone, the output fixes every
    node's call: a node draws on the domain between its bounding orders'
    outputs, from the values in it, and calls where that domain has
    positive length.

    A sequence of samples of one size, with one source each, walks the tree
    once for all of them: its shape depends on m alone, so the rows share
    every level's nodes, and each row holds the bits of its own call.
    """
    m = query.m
    record = ReleaseRecord.of("recexp", m, query.budget)
    values, rngs = _rows(sample, rng)
    n = values[0].size
    ranks = target_rank(n, query.orders)
    table = _GapTable(values, record.eps_per_call, int(ranks.min()), int(ranks.max()))
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
    for _ in range(record.levels):
        j = (below + above) // 2
        lo, hi, a, b = q[:, below], q[:, above], s[:, below], s[:, above]
        # a collapsed domain is a one-interval slice, which _draws draws at lo
        R = np.minimum(np.maximum(ranks[j - 1], a), b)
        drawn = _draws(table, a, b, lo, hi, R, u_pick[:, pre], u_pos[:, pre])
        q[:, j] = drawn
        # a draw lies in [lo, hi], so this counts values[:a] and none of values[b:]
        for i, row in enumerate(values):  # searchsorted is 1-D
            s[i, j] = row.searchsorted(drawn[i], "left")
        # the left child's subtree comes next in preorder, the right one's
        # after the j - below - 1 nodes of the left
        below, above, pre = (
            np.concatenate((below, j)),
            np.concatenate((j, above)),
            np.concatenate((pre + 1, pre + j - below)),
        )
        has_orders = above - below > 1
        below, above, pre = below[has_orders], above[has_orders], pre[has_orders]
    return q[0, 1 : m + 1] if isinstance(sample, SortedSample) else q[:, 1 : m + 1]
