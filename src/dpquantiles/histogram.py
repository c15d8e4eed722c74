"""Private histogram density estimator and its generalized quantile function.

The histogram adds Laplace noise to per-bin counts (sensitivity 2 under
replacement neighboring, 1 under add/remove) and normalizes by ``n * h``;
the resulting piecewise-constant estimate may be negative or integrate away
from 1, so quantiles are read off through an exact first-crossing infimum
that is well defined for any integrable piecewise-constant function.
"""

from __future__ import annotations

import math
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
    """Raw per-bin counts; the last bin is closed at 1."""
    check_bin_count(bin_count)
    edges = np.linspace(0.0, 1.0, bin_count + 1)
    counts, _ = np.histogram(sample.values, bins=edges)
    return counts


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
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise InvalidArgumentError("need a one-dimensional vector of bin values")
    ps = np.asarray(ps, dtype=float)
    if np.any(ps < 0.0) or np.any(ps > 1.0):
        raise InvalidArgumentError("quantile orders must lie in [0, 1]")
    if np.any(np.diff(ps) < 0):
        raise InvalidArgumentError("quantile orders must be nondecreasing")

    h = 1.0 / values.size
    running = np.concatenate(([0.0], np.cumsum(values * h)))
    # fmax skips NaN: from a NaN bin on the integral is NaN and never crosses
    first = np.searchsorted(np.fmax.accumulate(running), ps)
    out = np.where(first == 0, 0.0, 1.0)
    inside = (first > 0) & (first < running.size)
    b = first[inside] - 1
    out[inside] = b * h + (ps[inside] - running[b]) / values[b]
    return out


def quantile_from_histogram(
    sample: SortedSample,
    bin_count: int,
    budget: PrivacyBudget,
    orders,
    rng: RandomSource,
    zero_noise: bool = False,
) -> np.ndarray:
    """Quantiles of all ``orders`` read off one private histogram.

    A single histogram is built no matter how many orders are requested, so
    the spent budget does not depend on m.
    """
    estimate = private_histogram(sample, bin_count, budget, rng, zero_noise=zero_noise)
    return generalized_quantiles(estimate.values, orders)
