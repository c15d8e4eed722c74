"""Ground-truth distribution oracles for benchmark error measurement.

Beta distributions on [0, 1] (Uniform is Beta(1, 1)) with an i.i.d. sampler
and a true quantile function accurate far below any benchmark error scale.
:class:`DensityEnvelope` is the density bound (min, max, Lipschitz constant)
that the utility bounds take as input.

``scipy.special.betaincinv`` is imported inside
:meth:`DistributionOracle.quantile`, not here. Only the truth oracle of
``dpq bench`` needs it, and its import is about two thirds of ``import
dpquantiles.cli``, so ``dpq estimate`` and ``dpq verify`` start without
loading scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .mechanisms import RandomSource
from .quantiles import SortedSample


@dataclass(frozen=True)
class DensityEnvelope:
    """Bounds on a density over a sub-interval; ``math.inf`` marks unbounded."""

    lower: float
    upper: float
    lipschitz: float

    def __post_init__(self):
        if self.lower < 0 or (math.isfinite(self.upper) and self.lower > self.upper):
            raise InvalidArgumentError(
                f"need 0 <= lower <= upper, got [{self.lower}, {self.upper}]"
            )


def _shape_text(value: float) -> str:
    """Shortest round-trip text of a shape parameter, without a trailing
    ``.0``: distinct parameters never share a label or a file name."""
    return repr(float(value)).removesuffix(".0")


@dataclass(frozen=True)
class DistributionOracle:
    """Beta(alpha, beta) ground truth on [0, 1], Beta(1, 1) being Uniform:
    seeded samples and the true quantiles they are measured against."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not all(0 < shape < math.inf for shape in (self.alpha, self.beta)):
            raise InvalidArgumentError(
                f"shape parameters must be positive and finite, got ({self.alpha}, {self.beta})"
            )

    @classmethod
    def uniform(cls) -> "DistributionOracle":
        return cls(1.0, 1.0)

    @classmethod
    def make_beta(cls, alpha: float, beta: float) -> "DistributionOracle":
        return cls(float(alpha), float(beta))

    @property
    def is_uniform(self) -> bool:
        return self.alpha == 1.0 and self.beta == 1.0

    @property
    def label(self) -> str:
        if self.is_uniform:
            return "uniform"
        return f"beta({_shape_text(self.alpha)},{_shape_text(self.beta)})"

    @property
    def slug(self) -> str:
        """Filesystem-friendly name for per-distribution output files."""
        if self.is_uniform:
            return "uniform"
        return f"beta-{_shape_text(self.alpha)}-{_shape_text(self.beta)}"

    def sample(self, n: int, rng: RandomSource) -> SortedSample:
        """n i.i.d. draws, sorted. Beta draws use the ratio of two gamma
        variables (numpy's Marsaglia-Tsang rejection sampler)."""
        if n < 0:
            raise InvalidArgumentError(f"n must be nonnegative, got {n}")
        if self.is_uniform:
            xs = rng.random(n)
        else:
            ga = rng.standard_gamma(self.alpha, n)
            gb = rng.standard_gamma(self.beta, n)
            total = ga + gb
            while True:  # both gammas underflowing to zero is measure-zero
                bad = total == 0.0
                if not bad.any():
                    break
                k = int(bad.sum())
                ga[bad] = rng.standard_gamma(self.alpha, k)
                gb[bad] = rng.standard_gamma(self.beta, k)
                total = ga + gb
            xs = ga / total
        return SortedSample(np.sort(xs))

    def quantile(self, p):
        """Inverse CDF on (0, 1): ``|F(result) - p| <= 1e-10`` for the CDF F."""
        from scipy.special import betaincinv

        p = np.asarray(p, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise InvalidArgumentError("quantile order must lie strictly in (0, 1)")
        out = betaincinv(self.alpha, self.beta, p)
        return out if out.ndim else float(out)
