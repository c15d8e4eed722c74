"""Closed-form utility bounds as executable arithmetic.

Every evaluator is a pure function of its numeric inputs, evaluates the
bound exactly as printed (values above 1 are returned unclipped so callers
can see vacuity), and lives apart from the estimators so the formulas can
never drift into algorithm code. Guard violations raise
:class:`BoundPreconditionError` naming the guard.
"""

from __future__ import annotations

import math

from .distributions import DensityEnvelope
from .errors import BoundPreconditionError, InvalidArgumentError


def _require(condition: bool, description: str):
    if not condition:
        raise InvalidArgumentError(description)


def fact_qexp_threshold(delta_gap: float, beta: float, epsilon: float) -> float:
    """Empirical-error level the single-quantile mechanism exceeds with
    probability at most beta, given minimum gap delta_gap:
    2 (ln(1/delta) + ln(1/beta)) / eps."""
    _require(0.0 < delta_gap <= 1.0, f"delta_gap must lie in (0, 1], got {delta_gap}")
    _require(0.0 < beta < 1.0, f"beta must lie in (0, 1), got {beta}")
    _require(epsilon > 0.0, f"epsilon must be positive, got {epsilon}")
    return 2.0 * (math.log(1.0 / delta_gap) + math.log(1.0 / beta)) / epsilon


def fact_recexp_threshold(delta_gap: float, beta: float, epsilon: float, m: int) -> float:
    """Recursive-estimator analogue of :func:`fact_qexp_threshold`:
    2 (log2(m) + 1)^2 (ln(1/delta) + ln(m) + ln(1/beta)) / eps.
    log2(m) enters un-floored, exactly as printed."""
    _require(0.0 < delta_gap <= 1.0, f"delta_gap must lie in (0, 1], got {delta_gap}")
    _require(0.0 < beta < 1.0, f"beta must lie in (0, 1), got {beta}")
    _require(epsilon > 0.0, f"epsilon must be positive, got {epsilon}")
    _require(m >= 1, f"m must be at least 1, got {m}")
    depth = math.log2(m) + 1.0
    return 2.0 * depth * depth * (
        math.log(1.0 / delta_gap) + math.log(m) + math.log(1.0 / beta)
    ) / epsilon


def _check_tail_inputs(n: int, gamma: float, epsilon: float, envelope: DensityEnvelope):
    _require(n >= 1, f"n must be at least 1, got {n}")
    _require(gamma > 0.0, f"gamma must be positive, got {gamma}")
    _require(epsilon > 0.0, f"epsilon must be positive, got {epsilon}")
    _require(envelope.lower > 0.0, "the density lower bound must be positive")
    _require(math.isfinite(envelope.upper), "the density upper bound must be finite")


def _log_prefactor(n: int, pi_max: float) -> float:
    """log(4 n sqrt(2 e pi_max)). The privacy terms multiply this prefactor
    by exp(-(...) n), so they are formed as one exp of a sum: at huge n the
    product itself would be inf * 0 = nan, while the term tends to 0."""
    return math.log(4.0) + math.log(n) + 0.5 * math.log(2.0 * math.e * pi_max)


def thm_qexp_tail(n: int, gamma: float, epsilon: float, envelope: DensityEnvelope) -> float:
    """Tail bound on the statistical error of the single-quantile mechanism:
    4 n sqrt(2 e pi_max) exp(-eps n gamma pi_min / 32) + 4 exp(-gamma^2 pi_min^2 n / 8)."""
    _check_tail_inputs(n, gamma, epsilon, envelope)
    pi_min, pi_max = envelope.lower, envelope.upper
    privacy = math.exp(_log_prefactor(n, pi_max) - epsilon * n * gamma * pi_min / 32.0)
    sampling = 4.0 * math.exp(-gamma * gamma * pi_min * pi_min * n / 8.0)
    return privacy + sampling


def thm_indexp_tail(
    n: int, m: int, gamma: float, epsilon: float, envelope: DensityEnvelope
) -> float:
    """Union bound over m independent calls, each at eps / m:
    4 n m sqrt(2 e pi_max) exp(-eps n gamma pi_min / (32 m)) + 4 m exp(-gamma^2 pi_min^2 n / 8)."""
    _check_tail_inputs(n, gamma, epsilon, envelope)
    _require(m >= 1, f"m must be at least 1, got {m}")
    pi_min, pi_max = envelope.lower, envelope.upper
    privacy = math.exp(
        _log_prefactor(n, pi_max) + math.log(m) - epsilon * n * gamma * pi_min / (32.0 * m)
    )
    sampling = 4.0 * m * math.exp(-gamma * gamma * pi_min * pi_min * n / 8.0)
    return privacy + sampling


def thm_recexp_tail(
    n: int, m: int, gamma: float, epsilon: float, envelope: DensityEnvelope
) -> float:
    """Tail bound for the recursive estimator; log2(2m) enters un-floored:
    4 n sqrt(2 e pi_max m) exp(-eps n gamma pi_min / (32 log2(2m)^2)) + 4 m exp(-gamma^2 pi_min^2 n / 8)."""
    _check_tail_inputs(n, gamma, epsilon, envelope)
    _require(m >= 1, f"m must be at least 1, got {m}")
    pi_min, pi_max = envelope.lower, envelope.upper
    depth = math.log2(2.0 * m)
    privacy = math.exp(
        _log_prefactor(n, pi_max) + 0.5 * math.log(m)
        - epsilon * n * gamma * pi_min / (32.0 * depth * depth)
    )
    sampling = 4.0 * m * math.exp(-gamma * gamma * pi_min * pi_min * n / 8.0)
    return privacy + sampling


def thm_hist_tail(
    n: int, gamma: float, epsilon: float, envelope: DensityEnvelope, h: float
) -> float:
    """Tail bound on the sup-norm quantile error of the histogram estimator:
    (1/h) exp(-gamma pi_min h n eps / 8) + (2/h) exp(-(h^2/4)(gamma pi_min / 2 - L h)^2 n),
    valid for gamma in (2 L h / pi_min, 1/2)."""
    _check_tail_inputs(n, gamma, epsilon, envelope)
    _require(0.0 < h <= 1.0, f"h must lie in (0, 1], got {h}")
    _require(math.isfinite(envelope.lipschitz), "the Lipschitz constant must be finite")
    pi_min, lipschitz = envelope.lower, envelope.lipschitz
    if not gamma > 2.0 * lipschitz * h / pi_min:
        raise BoundPreconditionError(
            "gamma > 2 L h / pi_min",
            f"gamma = {gamma} is not above 2 L h / pi_min = {2.0 * lipschitz * h / pi_min}",
        )
    if not gamma < 0.5:
        raise BoundPreconditionError(
            "gamma < 1/2", f"gamma = {gamma} is not below 1/2"
        )
    privacy = (1.0 / h) * math.exp(-gamma * pi_min * h * n * epsilon / 8.0)
    slack = gamma * pi_min / 2.0 - lipschitz * h
    sampling = (2.0 / h) * math.exp(-(h * h / 4.0) * slack * slack * n)
    return privacy + sampling


def lemma_hist_density_tail(
    n: int, gamma: float, epsilon: float, lipschitz: float, h: float
) -> float:
    """Tail bound on the sup-norm density error of the histogram:
    (1/h) exp(-gamma h n eps / 4) + (2/h) exp(-h^2 (gamma - L h)^2 n / 4),
    valid for gamma > L h."""
    _require(n >= 1, f"n must be at least 1, got {n}")
    _require(epsilon > 0.0, f"epsilon must be positive, got {epsilon}")
    _require(0.0 < h <= 1.0, f"h must lie in (0, 1], got {h}")
    _require(lipschitz >= 0.0, f"the Lipschitz constant must be nonnegative, got {lipschitz}")
    if not gamma > lipschitz * h:
        raise BoundPreconditionError(
            "gamma > L h", f"gamma = {gamma} is not above L h = {lipschitz * h}"
        )
    privacy = (1.0 / h) * math.exp(-gamma * h * n * epsilon / 4.0)
    slack = gamma - lipschitz * h
    sampling = (2.0 / h) * math.exp(-h * h * slack * slack * n / 4.0)
    return privacy + sampling


def lemma_qexp_lower(n: int, epsilon: float) -> float:
    """Universal error floor of the single-quantile mechanism for
    gamma in (0, 1/4]: (1/2) exp(-n eps / 2)."""
    _require(n >= 0, f"n must be nonnegative, got {n}")
    _require(epsilon > 0.0, f"epsilon must be positive, got {epsilon}")
    return 0.5 * math.exp(-n * epsilon / 2.0)


def indexp_lower(n: int, m: int, epsilon: float) -> float:
    """Error floor under independent composition: (1/2) exp(-n eps / (2 m))."""
    _require(n >= 0, f"n must be nonnegative, got {n}")
    _require(m >= 1, f"m must be at least 1, got {m}")
    _require(epsilon > 0.0, f"epsilon must be positive, got {epsilon}")
    return 0.5 * math.exp(-n * epsilon / (2.0 * m))


def recexp_lower(n: int, m: int, epsilon: float) -> float:
    """Error floor of the recursive estimator:
    (1/2) exp(-n eps / (2 (log2(m) + 1)))."""
    _require(n >= 0, f"n must be nonnegative, got {n}")
    _require(m >= 1, f"m must be at least 1, got {m}")
    _require(epsilon > 0.0, f"epsilon must be positive, got {epsilon}")
    return 0.5 * math.exp(-n * epsilon / (2.0 * (math.log2(m) + 1.0)))


def gap_survival_uniform(n: int, gamma: float) -> float:
    """Exact survival law of the minimum gap of n uniform order statistics
    (with 0 and 1 as boundary points): (1 - (n+1) gamma)^n for
    gamma < 1/(n+1), zero beyond (the event is impossible)."""
    _require(n >= 1, f"n must be at least 1, got {n}")
    _require(gamma > 0.0, f"gamma must be positive, got {gamma}")
    if gamma >= 1.0 / (n + 1):
        return 0.0
    return (1.0 - (n + 1) * gamma) ** n


def lemma_gap_lower(gamma: float, pi_upper: float) -> float:
    """Lower bound on P(min gap > gamma / n^2) for densities bounded above
    by pi_upper: exp(-4 pi_upper gamma), valid for gamma < 1/(4 pi_upper)."""
    _require(pi_upper > 0.0, f"pi_upper must be positive, got {pi_upper}")
    _require(gamma > 0.0, f"gamma must be positive, got {gamma}")
    if not gamma < 1.0 / (4.0 * pi_upper):
        raise BoundPreconditionError(
            "gamma < 1 / (4 pi_max)",
            f"gamma = {gamma} is not below 1 / (4 pi_max) = {1.0 / (4.0 * pi_upper)}",
        )
    return math.exp(-4.0 * pi_upper * gamma)


def lemma_quantile_concentration_tail(n: int, p: float, gamma: float, pi_lower: float) -> float:
    """Tail bound for the buffered order statistics around a true quantile:
    2 exp(-gamma^2 pi_min^2 n / (8 p)) + 2 exp(-gamma^2 pi_min^2 n / (8 (1-p)))."""
    _require(n >= 1, f"n must be at least 1, got {n}")
    _require(0.0 < p < 1.0, f"p must lie in (0, 1), got {p}")
    _require(gamma > 0.0, f"gamma must be positive, got {gamma}")
    _require(pi_lower > 0.0, f"pi_lower must be positive, got {pi_lower}")
    base = gamma * gamma * pi_lower * pi_lower * n
    return 2.0 * math.exp(-base / (8.0 * p)) + 2.0 * math.exp(-base / (8.0 * (1.0 - p)))


def quantile_concentration_buffer(n: int, gamma: float, pi_lower: float) -> int:
    """Half-width of the index buffer the concentration bound covers:
    floor(n gamma pi_min / 2) - 1."""
    _require(n >= 0, f"n must be nonnegative, got {n}")
    _require(gamma > 0.0, f"gamma must be positive, got {gamma}")
    _require(pi_lower > 0.0, f"pi_lower must be positive, got {pi_lower}")
    return int(math.floor(math.nextafter(0.5 * n * gamma * pi_lower, math.inf))) - 1

