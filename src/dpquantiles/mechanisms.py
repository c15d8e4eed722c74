"""Seedable randomness and the two DP primitives every estimator builds on.

All algorithmic randomness in the package flows through :class:`RandomSource`,
a thin wrapper around numpy's PCG64 generator keyed by ``(seed, stream)``.
The module also provides Laplace noise and the exponential-mechanism law of
piecewise-constant utilities on sub-intervals of [0, 1], with all weight
arithmetic kept in log space (max-subtraction) so large ``n * epsilon``
products cannot overflow; that law is the tests' reference for the draws.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDensityError, InvalidArgumentError

_MAX_SEED = 2**64


def check_seed(seed) -> None:
    """A seed must be an integer in [0, 2^64)."""
    if not (isinstance(seed, int) and 0 <= seed < _MAX_SEED):
        raise InvalidArgumentError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


class NeighboringRelation(enum.Enum):
    """Which dataset pairs count as adjacent for the privacy guarantee."""

    ADD_REMOVE = "add-remove"
    REPLACE = "replace"


@dataclass(frozen=True)
class PrivacyBudget:
    """A total privacy budget together with its neighboring relation."""

    epsilon: float
    relation: NeighboringRelation

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidArgumentError(f"epsilon must be positive, got {self.epsilon}")
        if not isinstance(self.relation, NeighboringRelation):
            raise InvalidArgumentError(f"not a neighboring relation: {self.relation!r}")


class RandomSource:
    """Reproducible random stream keyed by a 64-bit seed and a stream path.

    Identical ``(seed, stream)`` pairs produce bit-identical draw sequences.
    Child sources obtained via :meth:`child` extend the stream path and are
    statistically independent of the parent and of siblings (numpy
    ``SeedSequence`` spawn keys). A source is stateful and must be confined
    to one thread; hand out children for parallel work.
    """

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        check_seed(seed)
        self.seed = seed
        self.stream = tuple(int(s) for s in stream)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=self.stream)
        self._generator = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream={self.stream})"

    def child(self, *indices: int) -> "RandomSource":
        """Independent source for stream path ``self.stream + indices``."""
        return RandomSource(self.seed, self.stream + indices)

    def random(self, size: int | None = None):
        """Uniform draw(s) on [0, 1)."""
        return self._generator.random(size)

    def standard_gamma(self, shape: float, size: int | None = None):
        """Gamma(shape, 1) draw(s) via numpy's rejection sampler."""
        return self._generator.standard_gamma(shape, size)


def laplace_draw(scale: float, rng: RandomSource, size: int) -> np.ndarray:
    """``size`` centered Laplace draws with the given scale (variance 2 * scale**2).

    Uses the inverse-CDF transform of a single uniform per draw; a draw at
    ``scale`` equals ``scale`` times the unit draw from the same stream
    position. The measure-zero uniform value that would send the transform
    to infinity is resampled.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidArgumentError(f"scale must be positive, got {scale}")
    u = rng.random(size) - 0.5
    while True:
        bad = u == -0.5
        if not bad.any():
            break
        u[bad] = rng.random(int(bad.sum())) - 0.5
    return -scale * np.copysign(np.log1p(-2.0 * np.abs(u)), u)


@dataclass(frozen=True)
class WeightedIntervalDensity:
    """Unnormalized piecewise-constant log-density on a sub-interval of [0, 1].

    ``breakpoints`` is a nondecreasing vector ``b_0 <= ... <= b_K`` inside
    [0, 1]; interval ``k`` spans ``(b_k, b_{k+1})`` and carries unnormalized
    log-weight ``log_weights[k]``. Zero-length intervals carry no mass no
    matter their weight; ``-inf`` log-weights are allowed and mean zero mass.
    The support may be a proper sub-interval ``[b_0, b_K]`` of [0, 1], which
    the recursive estimator relies on.
    """

    breakpoints: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        w = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "log_weights", w)
        if b.ndim != 1 or w.ndim != 1 or len(b) != len(w) + 1 or len(w) < 1:
            raise InvalidArgumentError(
                f"need K+1 breakpoints for K>=1 weights, got {len(b)} and {len(w)}"
            )
        if np.any(np.diff(b) < 0):
            raise InvalidArgumentError("breakpoints must be nondecreasing")
        if b[0] < 0.0 or b[-1] > 1.0:
            raise InvalidArgumentError("breakpoints must lie in [0, 1]")
        if np.any(np.isnan(w)) or np.any(w == np.inf):
            raise InvalidArgumentError("log-weights must be real or -inf")

    @cached_property
    def _log_masses(self) -> np.ndarray:
        lengths = np.diff(self.breakpoints)
        with np.errstate(divide="ignore"):
            return np.log(lengths) + self.log_weights

    @cached_property
    def log_normalizer(self) -> float:
        """log of the total unnormalized mass, via max-subtraction."""
        lm = self._log_masses
        top = float(np.max(lm))
        if top == -np.inf:
            raise DegenerateDensityError(
                "every positive-length interval has log-weight -inf"
            )
        return top + math.log(float(np.sum(np.exp(lm - top))))

    @cached_property
    def interval_probabilities(self) -> np.ndarray:
        """Probability of landing in each interval; sums to 1."""
        raw = np.exp(self._log_masses - self.log_normalizer)
        return raw / raw.sum()

    @cached_property
    def _cumulative(self) -> np.ndarray:
        cum = np.cumsum(self.interval_probabilities)
        # The intervals after the last one that moves the rounded cumulative
        # (zero-length ones among them) hold less mass than its rounding
        # error. Pinning 1.0 from that interval on keeps the uniforms in the
        # gap between the rounded total and 1 from selecting them.
        cum[np.searchsorted(cum, cum[-1]) :] = 1.0
        return cum


def sample_piecewise(density: WeightedIntervalDensity, rng: RandomSource, size: int) -> np.ndarray:
    """``size`` draws from the normalized law of ``density``.

    An interval is selected with probability proportional to
    ``length * exp(log_weight)`` and the point is uniform inside it; each
    draw consumes exactly two uniforms, all interval uniforms before all
    position uniforms.
    """
    cum = density._cumulative
    b = density.breakpoints
    ks = np.searchsorted(cum, rng.random(size), side="right")
    return b[ks] + rng.random(size) * (b[ks + 1] - b[ks])


def log_density_grid(density: WeightedIntervalDensity, qs) -> np.ndarray:
    """Normalized log-density of the sampling law at every point of ``qs``.

    At an interior breakpoint the right interval decides; at the right edge
    of the support the last positive-length interval does. Points of [0, 1]
    outside the support have density zero (``-inf``).
    """
    qs = np.asarray(qs, dtype=float)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise InvalidArgumentError("points must lie in [0, 1]")
    log_norm = density.log_normalizer  # raises on degenerate densities
    b = density.breakpoints
    # a density that did not raise has a positive-length interval; every
    # interval after the last one is a zero-length run at the right edge
    last = np.flatnonzero(b[1:] > b[:-1])[-1]
    ks = np.minimum(np.searchsorted(b, qs, side="right") - 1, last)
    outside = (qs < b[0]) | (qs > b[-1])
    return np.where(outside, -np.inf, density.log_weights[ks] - log_norm)
