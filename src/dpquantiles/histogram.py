"""Private histogram density estimator and its generalized quantile function.

The histogram adds Laplace noise to per-bin counts (sensitivity 2 under
replacement neighboring, 1 under add/remove) and normalizes by ``n * h``;
the resulting piecewise-constant estimate may be negative or integrate away
from 1, so quantiles are read off through an exact first-crossing infimum
that is well defined for any integrable piecewise-constant function.

:func:`quantile_from_histogram` also takes a sequence of samples with a
source each: each row is one sample's histogram, with its own noise stream,
and the quantiles of all rows are read off in one pass.
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
    laplace_draw,
)
from .quantiles import SortedSample


@dataclass(frozen=True)
class HistogramEstimate:
    """Per-bin density estimates on the uniform partition of [0, 1].

    Bin ``b`` spans ``[b*h, (b+1)*h)`` with the last bin closed at 1, so the
    partition covers [0, 1] exactly. Values may be negative once noise is in.
    """

    values: np.ndarray
    epsilon: float
    relation: NeighboringRelation

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise InvalidArgumentError("need at least one bin")

    @property
    def bin_count(self) -> int:
        return int(self.values.size)

    @property
    def h(self) -> float:
        return 1.0 / self.bin_count

    def integral(self) -> float:
        return math.fsum(self.values) * self.h


# A release keeps a few arrays of one float per bin alive at once (edges,
# counts, noise, heights, running integral), about 50 bytes a bin, so this
# cap keeps one histogram under about half a gigabyte.
MAX_BIN_COUNT = 10**7


def check_bin_count(bin_count: int) -> None:
    """The one rule for a bin count, checked where one enters the program:
    at least 1 and at most ``MAX_BIN_COUNT``."""
    if not 1 <= bin_count <= MAX_BIN_COUNT:
        raise InvalidArgumentError(
            f"bin count must be between 1 and {MAX_BIN_COUNT}, got {bin_count}"
        )


def bin_counts(sample: SortedSample, bin_count: int) -> np.ndarray:
    """Raw per-bin counts; the last bin is closed at 1.

    The sample is sorted and lies in [0, 1], so the values below each inner
    edge are one ``searchsorted`` away, and bin ``b`` counts those below
    edge ``b + 1`` but not below edge ``b``.
    """
    check_bin_count(bin_count)
    inner = np.linspace(0.0, 1.0, bin_count + 1)[1:-1]
    below = sample.values.searchsorted(inner, "left")
    return np.diff(below, prepend=0, append=sample.n)


def noise_scale(budget: PrivacyBudget) -> float:
    """Laplace scale per bin, ``sensitivity / epsilon``: the count vector has
    sensitivity 2 under replacement (one point moves between two bins) and 1
    under add/remove. It is ``inf`` when epsilon is too small for the ratio
    to be a double."""
    sensitivity = 2.0 if budget.relation is NeighboringRelation.REPLACE else 1.0
    return sensitivity / budget.epsilon


def private_histogram(
    sample: SortedSample,
    bin_count: int,
    budget: PrivacyBudget,
    rng: RandomSource,
    zero_noise: bool = False,
) -> HistogramEstimate:
    """Laplace-noised histogram density estimate.

    The per-bin noise scale on the raw counts is :func:`noise_scale`.
    Dividing by ``n`` costs no budget under replacement, where ``n`` is a
    constant of the problem; the same normalization is applied under
    add/remove but is then a heuristic.

    ``zero_noise=True`` is a NON-PRIVATE test mode that skips the noise
    entirely; production paths must leave it off.
    """
    if sample.n == 0:
        raise InvalidArgumentError(
            "empty sample: the histogram normalizes by n, which must be positive"
        )
    counts = bin_counts(sample, bin_count)
    if zero_noise:
        noisy = counts.astype(float)
    else:
        noisy = counts + laplace_draw(noise_scale(budget), rng, bin_count)
    values = noisy * (bin_count / sample.n)  # divide by n * h
    return HistogramEstimate(values, budget.epsilon, budget.relation)


def generalized_quantile(values: np.ndarray, p: float) -> float:
    """First-crossing infimum ``inf{q : integral_0^q of the estimate >= p}``.

    ``values`` are per-bin heights of a piecewise-constant function on the
    uniform partition of [0, 1] (negative heights allowed). The first
    crossing is the exact infimum even when later negative bins dip back
    below ``p``; if the running integral never reaches ``p`` the convention
    ``inf emptyset = 1`` applies.
    """
    out = generalized_quantiles(values, [p])
    return float(out[0])


def generalized_quantiles(values: np.ndarray, ps) -> np.ndarray:
    """Vector version of :func:`generalized_quantile` for nondecreasing ``ps``.

    The running integral at the start of bin k (zero at k = 0) need not be
    monotone, but its running maximum is, and the first k at which that
    maximum reaches p is the first crossing of p: for k > 0 the crossing lies
    inside bin k - 1, whose height is then positive. Cost
    O(len(values) + len(ps) log len(values)).

    ``values`` may also be a (rows, bins) array, one function per row: the
    running integrals and maxima of all rows are one ``cumsum`` and one
    ``fmax.accumulate`` along axis 1, then each row takes one search, and
    row ``r`` of the (rows, len(ps)) result is bit for bit the quantiles of
    ``values[r]`` alone.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 1:
        raise InvalidArgumentError("need a vector of bin values, or a (rows, bins) array")
    ps = np.asarray(ps, dtype=float)
    # written as "not all valid" so that a NaN order fails both checks
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise InvalidArgumentError("quantile orders must lie in [0, 1]")
    if not np.all(np.diff(ps) >= 0):
        raise InvalidArgumentError("quantile orders must be nondecreasing")

    heights = values.reshape(-1, values.shape[-1])
    bins = heights.shape[1]
    h = 1.0 / bins
    running = np.zeros((heights.shape[0], bins + 1))
    np.cumsum(heights * h, axis=1, out=running[:, 1:])
    # fmax skips NaN: from a NaN bin on the integral is NaN and never crosses
    peaks = np.fmax.accumulate(running, axis=1)
    out = np.empty((len(heights), ps.size))
    for row, peak, integral, height in zip(out, peaks, running, heights):
        first = peak.searchsorted(ps)
        row[:] = np.where(first == 0, 0.0, 1.0)
        inside = (first > 0) & (first <= bins)
        b = first[inside] - 1
        row[inside] = b * h + (ps[inside] - integral[b]) / height[b]
    return out.reshape(values.shape[:-1] + ps.shape)


def quantile_from_histogram(
    sample: SortedSample | Sequence[SortedSample],
    bin_count: int,
    budget: PrivacyBudget,
    orders,
    rng: RandomSource | Sequence[RandomSource],
    zero_noise: bool = False,
) -> np.ndarray:
    """Quantiles of all ``orders`` read off one private histogram.

    A single histogram is built no matter how many orders are requested, so
    the spent budget does not depend on m.

    A sequence of samples with a source each gives one histogram per sample,
    each noised from its own source, and a (samples, len(orders)) array whose
    row ``r`` is bit for bit the call on sample ``r`` and source ``r`` alone;
    the rows are inverted by one :func:`generalized_quantiles` call.
    """
    one = isinstance(sample, SortedSample)
    samples, rngs = ([sample], [rng]) if one else (list(sample), list(rng))
    if not samples or len(rngs) != len(samples):
        raise InvalidArgumentError("need at least one sample and a source each")
    heights = np.stack([
        private_histogram(s, bin_count, budget, r, zero_noise=zero_noise).values
        for s, r in zip(samples, rngs)
    ])
    estimates = generalized_quantiles(heights, orders)
    return estimates[0] if one else estimates
