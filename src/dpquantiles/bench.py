"""Monte-Carlo experiment engine and statistical verification suites.

Experiments measure the expected sup-norm error of each estimator against
the true quantiles of a ground-truth distribution, averaged over seeded
independent trials. Seeds derive from ``(base_seed, distribution index,
estimator index, m index, trial index)``, so results are byte-identical
across reruns and parallelism degrees.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    gap_survival_uniform,
    lemma_qexp_lower,
    lemma_quantile_concentration_tail,
    quantile_concentration_buffer,
)
from .distributions import DistributionOracle
from .errors import InvalidArgumentError
from .histogram import noise_scale, quantile_from_histogram
from .mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    interval_mass,
    log_density_grid,
)
from .quantiles import (
    QuantileQuery,
    RankTarget,
    SortedSample,
    indexp,
    qexp_density,
    recexp,
    target_rank,
)

ESTIMATOR_IDS = ("indexp", "recexp", "histogram")


def centered_grid(m: int) -> tuple[float, ...]:
    """Benchmark quantile grid p_j = 1/4 + j / (2 (m + 1)), j = 1..m.

    The orders stay inside (1/4, 3/4), away from regions where the target
    densities get small.
    """
    if m < 1:
        raise InvalidArgumentError(f"m must be at least 1, got {m}")
    return tuple(0.25 + j / (2.0 * (m + 1)) for j in range(1, m + 1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run."""

    distributions: tuple[DistributionOracle, ...]
    estimators: tuple[str, ...]
    n: int
    epsilon: float
    relation: NeighboringRelation
    m_grid: tuple[int, ...]
    trials: int
    histogram_bin_count: int
    base_seed: int
    explicit_orders: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "distributions", tuple(self.distributions))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        if not self.distributions:
            raise InvalidArgumentError("need at least one distribution")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if unknown or not self.estimators:
            raise InvalidArgumentError(f"unknown estimators: {unknown}")
        if self.trials < 1:
            raise InvalidArgumentError(f"trials must be >= 1, got {self.trials}")
        if self.explicit_orders is not None:
            orders = tuple(float(p) for p in self.explicit_orders)
            object.__setattr__(self, "explicit_orders", orders)
            object.__setattr__(self, "m_grid", (len(orders),))
        elif not self.m_grid or any(m < 1 for m in self.m_grid):
            raise InvalidArgumentError("m_grid must be a nonempty list of counts >= 1")
        # a repeat would run its cells twice under indistinguishable labels
        for key in ("distributions", "estimators", "m_grid"):
            entries = [getattr(e, "label", e) for e in getattr(self, key)]
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise InvalidArgumentError(f"key {key!r}: {repeated[0]} is given twice")
        budget = PrivacyBudget(self.epsilon, self.relation)  # validates epsilon > 0
        if "histogram" in self.estimators and math.isinf(noise_scale(budget)):
            raise InvalidArgumentError(
                f"epsilon {self.epsilon!r} is too small: the histogram's Laplace "
                f"scale sensitivity / epsilon overflows"
            )
        if self.explicit_orders is not None:
            QuantileQuery(self.explicit_orders, budget)  # validates the orders
        if self.n < 1:
            raise InvalidArgumentError(f"n must be >= 1, got {self.n}")
        if self.histogram_bin_count < 1:
            raise InvalidArgumentError("histogram bin count must be >= 1")

    def orders_for(self, m: int) -> tuple[float, ...]:
        if self.explicit_orders is not None:
            return self.explicit_orders
        return centered_grid(m)


@dataclass(frozen=True)
class CellResult:
    """Aggregated errors of one (distribution, estimator, m) cell."""

    distribution: str
    estimator: str
    m: int
    mean_error: float
    std_error: float
    trials: int
    wall_time: float
    errors: tuple[float, ...] | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    cells: list[CellResult] = field(default_factory=list)


def run_trial(
    oracle: DistributionOracle,
    estimator: str,
    m: int,
    config: ExperimentConfig,
    rng: RandomSource,
) -> float:
    """One fresh sample, one estimate, one sup-norm error vs. true quantiles."""
    orders = config.orders_for(m)
    sample = oracle.sample(config.n, rng)
    budget = PrivacyBudget(config.epsilon, config.relation)
    if estimator == "indexp":
        estimate = indexp(sample, QuantileQuery(orders, budget), rng)
    elif estimator == "recexp":
        estimate = recexp(sample, QuantileQuery(orders, budget), rng)
    elif estimator == "histogram":
        estimate = quantile_from_histogram(
            sample, config.histogram_bin_count, budget, orders, rng
        )
    else:
        raise InvalidArgumentError(f"unknown estimator id: {estimator!r}")
    truth = oracle.quantile(np.asarray(orders))
    return float(np.max(np.abs(estimate - truth)))


def _trial_chunks(config: ExperimentConfig, workers: int) -> list[tuple]:
    """Every cell's trials as ``((d_idx, e_idx, m_idx), start, stop)`` ranges,
    in cell order and then trial order; a chunk never spans two cells.

    A chunk holds ``min(trials, ceil(total trials / (4 workers)))`` trials, so
    each worker gets about four chunks to balance the load with, and a
    config with few cells still spreads over every worker.
    """
    cells = list(
        itertools.product(
            range(len(config.distributions)),
            range(len(config.estimators)),
            range(len(config.m_grid)),
        )
    )
    size = min(config.trials, math.ceil(len(cells) * config.trials / (4 * workers)))
    return [
        (cell, start, min(start + size, config.trials))
        for cell in cells
        for start in range(0, config.trials, size)
    ]


def _run_chunk(config: ExperimentConfig, chunk: tuple) -> tuple[list[float], float]:
    """The errors of one chunk's trials, in trial order, and the seconds they took."""
    (d_idx, e_idx, m_idx), start, stop = chunk
    oracle = config.distributions[d_idx]
    estimator = config.estimators[e_idx]
    m = config.m_grid[m_idx]
    began = time.perf_counter()
    errors = []
    for t in range(start, stop):
        rng = RandomSource(config.base_seed, (d_idx, e_idx, m_idx, t))
        try:
            errors.append(run_trial(oracle, estimator, m, config, rng))
        except Exception as exc:
            raise RuntimeError(
                f"trial {t} of cell ({oracle.label}, {estimator}, m={m}) failed"
            ) from exc
    return errors, time.perf_counter() - began


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    keep_trial_errors: bool = False,
) -> ExperimentResult:
    """Run every (distribution, estimator, m) cell for ``config.trials`` trials.

    Trials are embarrassingly parallel; each owns a child random source
    keyed by its indices, and aggregation is an ordered reduction, so the
    result does not depend on ``workers``. The trials are cut into chunks
    (:func:`_trial_chunks`) that run in this process at one worker, or in
    one ``map`` over a pool of ``min(workers, chunks)`` processes, with no
    barrier between cells. A cell's ``wall_time`` is the summed time of its
    chunks in the processes that ran them.
    """
    if workers < 1:
        raise InvalidArgumentError(f"workers must be at least 1, got {workers}")
    chunks = _trial_chunks(config, workers)
    if workers == 1:
        outputs = [_run_chunk(config, chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            outputs = list(pool.map(_run_chunk, itertools.repeat(config), chunks))
    cell_errors: dict[tuple, list[float]] = defaultdict(list)
    cell_walls: dict[tuple, float] = defaultdict(float)
    for (cell, _, _), (errors, seconds) in zip(chunks, outputs):
        cell_errors[cell] += errors
        cell_walls[cell] += seconds
    result = ExperimentResult(config)
    for (d_idx, e_idx, m_idx), errors in cell_errors.items():
        mean = math.fsum(errors) / config.trials
        if config.trials > 1:
            variance = math.fsum((e - mean) ** 2 for e in errors) / (config.trials - 1)
            std_error = math.sqrt(variance / config.trials)
        else:
            std_error = 0.0
        result.cells.append(
            CellResult(
                distribution=config.distributions[d_idx].label,
                estimator=config.estimators[e_idx],
                m=config.m_grid[m_idx],
                mean_error=mean,
                std_error=std_error,
                trials=config.trials,
                wall_time=cell_walls[d_idx, e_idx, m_idx],
                errors=tuple(errors) if keep_trial_errors else None,
            )
        )
    return result


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class CheckReport:
    """One verification suite outcome with per-case evidence rows."""

    name: str
    passed: bool
    rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "rows": self.rows}


def _wilson_interval(successes: int, trials: int, z: float = 2.5758293035489004) -> tuple[float, float]:
    # 99% two-sided score interval; z is the 0.995 normal quantile
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def verify_gap_law(n: int, gammas, trials: int, rng: RandomSource) -> CheckReport:
    """Exact minimum-gap survival law vs. Monte-Carlo frequency.

    For each gamma the empirical survival frequency of the minimum gap of n
    sorted uniforms (with 0 and 1 as boundary points) is compared with the
    closed form; PASS iff the exact value falls inside the 99% binomial
    confidence interval around the frequency.
    """
    draws = np.sort(rng.random((trials, n)), axis=1)
    padded = np.concatenate(
        [np.zeros((trials, 1)), draws, np.ones((trials, 1))], axis=1
    )
    min_gaps = np.min(np.diff(padded, axis=1), axis=1)
    rows = []
    all_pass = True
    for gamma in gammas:
        exact = gap_survival_uniform(n, float(gamma))
        hits = int(np.sum(min_gaps > gamma))
        freq = hits / trials
        if exact == 0.0:
            ok = hits == 0
            ci = (0.0, 0.0)
        else:
            ci = _wilson_interval(hits, trials)
            ok = ci[0] <= exact <= ci[1]
        all_pass &= ok
        rows.append(
            {
                "n": n,
                "gamma": float(gamma),
                "bound": exact,
                "empirical": freq,
                "trials": trials,
                "ci_low": ci[0],
                "ci_high": ci[1],
                "passed": ok,
            }
        )
    return CheckReport("gap-law", all_pass, rows)


def neighboring_sample_pairs(
    grid, max_n: int, relation: NeighboringRelation
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Exhaustive unordered neighbor pairs with entries from ``grid``.

    Add/remove pairs one sample of size <= max_n - 1 with each one-point
    extension; replacement pairs samples of equal size <= max_n differing
    in a single entry.
    """
    grid = tuple(float(g) for g in grid)
    pairs = set()
    if relation is NeighboringRelation.ADD_REMOVE:
        for size in range(max_n):
            for base in itertools.combinations_with_replacement(grid, size):
                for value in grid:
                    bigger = tuple(sorted(base + (value,)))
                    pairs.add((base, bigger))
    else:
        for size in range(1, max_n + 1):
            for base in itertools.combinations_with_replacement(grid, size):
                for i in range(size):
                    for value in grid:
                        if value == base[i]:
                            continue
                        other = tuple(sorted(base[:i] + (value,) + base[i + 1 :]))
                        pairs.add((min(base, other), max(base, other)))
    return sorted(pairs)


# Entries allowed in one chunk's log-density table and in each of its
# per-pair difference arrays. A single pair that needs more gets a chunk of
# its own, the size of its two densities.
_TABLE_ENTRIES = 1 << 20


def _pair_chunks(pairs):
    """Split ``pairs`` into consecutive chunks that fit ``_TABLE_ENTRIES``.

    Yields ``(samples, values, ia, ib)``: the distinct samples of the chunk
    in row order, the set of their values, and each pair's two row indices.
    A chunk has at most ``2 * len(ia)`` rows and ``len(values) + 3`` grid
    points: one per cell between 0, the values and 1, plus 0 and 1.
    """
    rows: dict[tuple, int] = {}
    values: set[float] = set()
    ia: list[int] = []
    ib: list[int] = []
    for first, second in pairs:
        first, second = tuple(first), tuple(second)
        fresh = {v for key in (first, second) if key not in rows for v in key}
        fresh.difference_update(values)
        if ia and 2 * (len(ia) + 1) * (len(values) + len(fresh) + 3) > _TABLE_ENTRIES:
            yield list(rows), values, ia, ib
            rows, values, ia, ib = {}, set(), [], []
            fresh = set(first) | set(second)
        values |= fresh
        ia.append(rows.setdefault(first, len(rows)))
        ib.append(rows.setdefault(second, len(rows)))
    if ia:
        yield list(rows), values, ia, ib


def max_log_density_ratio(pairs, p: float, epsilon: float) -> np.ndarray:
    """Exact sup over [0, 1] of the absolute log-density difference of the
    single-quantile mechanism of order ``p``, one value per pair of samples.

    Each density is piecewise constant between 0, its sample values and 1.
    One table serves a whole chunk of pairs: a row per distinct sample, each
    row that sample's log-density at the midpoints of the cells cut by all
    values of the chunk, plus the endpoints 0 and 1. These cells refine the
    merged cells of every pair, and a piecewise-constant density takes one
    value on a cell, so the largest difference between a pair's two rows is
    the pair's exact sup, the same float as on the pair's own cells.
    """
    sups = np.empty(len(pairs))
    start = 0
    for samples, values, ia, ib in _pair_chunks(pairs):
        cuts = np.unique(np.fromiter(values | {0.0, 1.0}, float))
        points = np.concatenate([(cuts[:-1] + cuts[1:]) / 2.0, [0.0, 1.0]])
        table = np.empty((len(samples), len(points)))
        for row, values_of in enumerate(samples):
            sample = SortedSample(np.asarray(values_of, dtype=float))
            target = RankTarget(target_rank(sample.n, p))
            table[row] = log_density_grid(qexp_density(sample, target, epsilon), points)
        sups[start : start + len(ia)] = np.max(np.abs(table[ia] - table[ib]), axis=1)
        start += len(ia)
    return sups


def verify_dp_ratio(
    pairs, epsilon: float, orders=(0.5,)
) -> CheckReport:
    """Analytic privacy check: the worst log-density ratio over all given
    neighbor pairs and quantile orders must not exceed epsilon (up to 1e-9
    arithmetic slack).

    Each order takes one :func:`max_log_density_ratio` call over the whole
    pair list, so a distinct sample's density is built once per order, not
    once per pair it belongs to. ``trials`` counts (pair, order) checks.
    """
    pairs = list(pairs)
    worst = 0.0
    for p in orders:
        sups = max_log_density_ratio(pairs, p, epsilon)
        worst = max(worst, float(np.max(sups, initial=0.0)))
    count = len(pairs) * len(orders)
    ok = worst <= epsilon + 1e-9
    rows = [
        {
            "epsilon": epsilon,
            "bound": epsilon,
            "empirical": worst,
            "trials": count,
            "ci_low": worst,
            "ci_high": worst,
            "passed": ok,
        }
    ]
    return CheckReport("dp-ratio", ok, rows)


def verify_quantile_concentration(
    oracle: DistributionOracle,
    n: int,
    p: float,
    gamma: float,
    trials: int,
    rng: RandomSource,
    pi_lower: float = 1.0,
) -> CheckReport:
    """Monte-Carlo check of the buffered order-statistic deviation bound.

    The event is ``sup over the buffer J of |X_(floor(np)+k) - F^{-1}(p)|
    exceeds gamma``; its frequency must stay below the closed-form tail
    plus three binomial standard deviations.
    """
    truth = oracle.quantile(p)
    bound = lemma_quantile_concentration_tail(n, p, gamma, pi_lower)
    half = quantile_concentration_buffer(n, gamma, pi_lower)
    center = target_rank(n, p)
    k_lo = max(-center + 1, -half)
    k_hi = min(n - center, half)
    hits = 0
    if k_lo <= k_hi:  # an empty buffer makes the event impossible
        for _ in range(trials):
            values = oracle.sample(n, rng).values
            window = values[center + k_lo - 1 : center + k_hi]
            if np.max(np.abs(window - truth)) > gamma:
                hits += 1
    freq = hits / trials
    capped = min(bound, 1.0)
    slack = 3.0 * math.sqrt(max(capped * (1.0 - capped), 1.0 / trials) / trials)
    ok = freq <= bound + slack
    rows = [
        {
            "n": n,
            "p": p,
            "gamma": gamma,
            "bound": bound,
            "empirical": freq,
            "trials": trials,
            "ci_low": max(0.0, freq - slack),
            "ci_high": freq + slack,
            "passed": ok,
        }
    ]
    return CheckReport("quantile-concentration", ok, rows)


def worst_case_samples(n: int, t: float) -> list[SortedSample]:
    """Adversarial datasets used by the lower-bound verification."""
    shapes = [np.full(n, t)]
    if n:
        shapes.append(np.clip(np.linspace(t - 5e-4, t + 5e-4, n), 0.0, 1.0))
        shapes.append(np.linspace(0.0, 1.0, n + 2)[1:-1])
    else:
        shapes.append(np.empty(0))
    return [SortedSample(np.sort(s)) for s in shapes]


def verify_lower_bound_qexp(
    ns, epsilons, t: float, gamma: float, orders=(0.25, 0.5, 0.75)
) -> CheckReport:
    """Exact check that no sample makes the single-quantile mechanism
    concentrate faster than its error floor.

    P(|q - t| > gamma) is integrated in closed form from the piecewise
    output density on adversarial samples and must stay at or above
    (1/2) exp(-n eps / 2).
    """
    rows = []
    all_pass = True
    for n in ns:
        for eps in epsilons:
            floor = lemma_qexp_lower(n, eps)
            worst = math.inf
            for sample in worst_case_samples(n, t):
                for p in orders:
                    target = RankTarget(target_rank(sample.n, p))
                    density = qexp_density(sample, target, eps)
                    inside = interval_mass(density, max(0.0, t - gamma), min(1.0, t + gamma))
                    worst = min(worst, 1.0 - inside)
            ok = worst >= floor
            all_pass &= ok
            rows.append(
                {
                    "n": n,
                    "epsilon": eps,
                    "t": t,
                    "gamma": gamma,
                    "bound": floor,
                    "empirical": worst,
                    "trials": 0,
                    "ci_low": worst,
                    "ci_high": worst,
                    "passed": ok,
                }
            )
    return CheckReport("lower-bound", all_pass, rows)
