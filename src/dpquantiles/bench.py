"""Monte-Carlo experiment engine and statistical verification suites.

Experiments measure the expected sup-norm error of each estimator against
the true quantiles of a ground-truth distribution, averaged over seeded
independent trials. Trial ``t`` of a distribution draws one sample, from the
stream ``(base_seed, distribution index, t)``, and every estimator and m runs
on it with noise from the child stream ``(estimator index, m index)``, so
the cells are paired trial by trial and results are byte-identical across
reruns and parallelism degrees.
"""

from __future__ import annotations

import bisect
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
from .histogram import check_bin_count, noise_scale, quantile_from_histogram
from .mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    check_seed,
    interval_mass,
    log_density_grid,  # noqa: F401  (a benchmark trace point)
)
from .quantiles import (
    QuantileQuery,
    RankTarget,
    SortedSample,
    indexp,
    qexp_density,
    qexp_log_weights,
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
        try:
            check_bin_count(self.histogram_bin_count)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"key 'bins': {exc}") from None
        try:
            check_seed(self.base_seed)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"key 'base_seed': {exc}") from None

    def orders_for(self, m: int) -> tuple[float, ...]:
        if self.explicit_orders is not None:
            return self.explicit_orders
        return centered_grid(m)


@dataclass(frozen=True)
class CellResult:
    """Aggregated errors of one (distribution, estimator, m) cell, with its
    per-trial errors in trial order. ``wall_time`` sums the seconds of the
    cell's own trials, without drawing their shared samples."""

    distribution: str
    estimator: str
    m: int
    mean_error: float
    std_error: float
    trials: int
    wall_time: float
    errors: tuple[float, ...]


@dataclass
class ExperimentResult:
    """The cells of one run, in cell order, and the summed seconds spent
    drawing the trials' samples."""

    config: ExperimentConfig
    cells: list[CellResult] = field(default_factory=list)
    sample_time: float = 0.0


def run_trial(
    sample: SortedSample,
    estimator: str,
    orders: tuple[float, ...],
    truth: np.ndarray,
    config: ExperimentConfig,
    rng: RandomSource,
) -> float:
    """One estimate of ``orders`` on ``sample``, with noise from ``rng``, and
    its sup-norm error against ``truth``, the true quantiles at ``orders``."""
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
    return float(np.max(np.abs(estimate - truth)))


def _trial_chunks(config: ExperimentConfig, workers: int) -> list[tuple[int, int, int]]:
    """Every distribution's trials as ``(d_idx, start, stop)`` ranges, in
    distribution order and then trial order; a chunk never spans two
    distributions, and it runs every (estimator, m) cell of its trials.

    A chunk holds ``min(trials, ceil(distributions * trials / (4 workers)))``
    trials, so each worker gets about four chunks to balance the load with,
    and a config with few distributions still spreads over every worker.
    """
    size = min(
        config.trials, math.ceil(len(config.distributions) * config.trials / (4 * workers))
    )
    return [
        (d_idx, start, min(start + size, config.trials))
        for d_idx in range(len(config.distributions))
        for start in range(0, config.trials, size)
    ]


def _cells(config: ExperimentConfig) -> list[tuple[int, int]]:
    """The ``(e_idx, m_idx)`` cells of one distribution, in cell order."""
    return list(itertools.product(range(len(config.estimators)), range(len(config.m_grid))))


def _run_chunk(
    config: ExperimentConfig, chunk: tuple[int, int, int]
) -> tuple[list[list[float]], list[float], float]:
    """Run one chunk: each trial draws one sample and runs every cell on it.

    Returns, per cell of :func:`_cells`, the errors in trial order and the
    seconds its :func:`run_trial` calls took, then the seconds the samples
    took. Trial ``t`` draws its sample from ``RandomSource(base_seed,
    (d_idx, t))``, and cell ``(e_idx, m_idx)`` its noise from that source's
    ``child(e_idx, m_idx)``. The true quantiles are computed once per m.
    """
    d_idx, start, stop = chunk
    oracle = config.distributions[d_idx]
    grids = []
    for m in config.m_grid:
        orders = config.orders_for(m)
        grids.append((m, orders, oracle.quantile(np.asarray(orders))))
    cells = _cells(config)
    errors: list[list[float]] = [[] for _ in cells]
    walls = [0.0] * len(cells)
    sample_time = 0.0
    for t in range(start, stop):
        began = time.perf_counter()
        source = RandomSource(config.base_seed, (d_idx, t))
        sample = oracle.sample(config.n, source)
        sample_time += time.perf_counter() - began
        for i, (e_idx, m_idx) in enumerate(cells):
            estimator = config.estimators[e_idx]
            m, orders, truth = grids[m_idx]
            began = time.perf_counter()
            try:
                error = run_trial(
                    sample, estimator, orders, truth, config, source.child(e_idx, m_idx)
                )
            except Exception as exc:
                raise RuntimeError(
                    f"trial {t} of cell ({oracle.label}, {estimator}, m={m}) failed"
                ) from exc
            walls[i] += time.perf_counter() - began
            errors[i].append(error)
    return errors, walls, sample_time


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
) -> ExperimentResult:
    """Run every (distribution, estimator, m) cell for ``config.trials`` trials.

    Trial ``t`` of a distribution draws one sample, which every (estimator,
    m) cell of that trial shares, each with its own noise stream
    (:func:`_run_chunk`). A cell's trials are still independent draws of
    sample and noise; only cells of the same distribution and trial are
    paired. Every stream is keyed by its indices and aggregation is an
    ordered reduction, so the result does not depend on ``workers``. The
    trials are cut into chunks (:func:`_trial_chunks`) that run in this
    process at one worker, or in one ``map`` over a pool of ``min(workers,
    chunks)`` processes. A cell's ``wall_time`` is the summed time of its own
    :func:`run_trial` calls, and the result's ``sample_time`` the summed time
    of drawing the samples.
    """
    if workers < 1:
        raise InvalidArgumentError(f"workers must be at least 1, got {workers}")
    chunks = _trial_chunks(config, workers)
    if workers == 1:
        outputs = [_run_chunk(config, chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            outputs = list(pool.map(_run_chunk, itertools.repeat(config), chunks))
    cells = _cells(config)
    cell_errors: dict[tuple, list[float]] = defaultdict(list)
    cell_walls: dict[tuple, float] = defaultdict(float)
    result = ExperimentResult(config)
    for (d_idx, _, _), (errors, walls, sample_time) in zip(chunks, outputs):
        for cell, cell_trials, seconds in zip(cells, errors, walls):
            cell_errors[(d_idx, *cell)] += cell_trials
            cell_walls[(d_idx, *cell)] += seconds
        result.sample_time += sample_time
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
                errors=tuple(errors),
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


def _multisets(grid: tuple[float, ...], max_size: int) -> list[tuple[float, ...]]:
    """Every nondecreasing tuple of at most ``max_size`` values of the sorted,
    distinct ``grid``, in tuple order: a tuple comes before its extensions,
    and an extension by a smaller value before one by a larger value."""
    out = []

    def extend(prefix, start):
        out.append(prefix)
        if len(prefix) < max_size:
            for i in range(start, len(grid)):
                extend(prefix + (grid[i],), i)

    extend((), 0)
    return out


def neighboring_sample_pairs(
    grid, max_n: int, relation: NeighboringRelation
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Exhaustive unordered neighbor pairs with entries from ``grid``, in
    sorted order, each pair's smaller sample first.

    The grid is sorted and its repeats dropped first. Add/remove pairs one
    sample of size <= max_n - 1 with each one-point extension; replacement
    pairs samples of equal size <= max_n differing in a single entry. Each
    pair is made once, in order: an add/remove pair is a base plus one
    inserted value, and a replacement pair a sample plus, for one of its
    distinct values ``a``, a partner with one copy of ``a`` replaced by a
    larger grid value ``b``. Inserting a larger value gives a larger tuple,
    and so does replacing a smaller ``a``, which changes an earlier entry;
    so the partners come largest ``a`` first, then smallest ``b`` first.
    """
    grid = tuple(sorted({float(g) for g in grid}))
    pairs = []
    if max_n < 1:
        return pairs
    if relation is NeighboringRelation.ADD_REMOVE:
        for base in _multisets(grid, max_n - 1):
            for value in grid:
                i = bisect.bisect_right(base, value)
                pairs.append((base, base[:i] + (value,) + base[i:]))
        return pairs
    for first in _multisets(grid, max_n)[1:]:  # without the empty sample
        for j in reversed(range(len(first))):
            a = first[j]
            if j + 1 < len(first) and first[j + 1] == a:
                continue  # replace the last copy of each distinct value
            rest = first[:j] + first[j + 1 :]
            for b in grid[bisect.bisect_right(grid, a) :]:
                i = bisect.bisect_right(rest, b, j)
                pairs.append((first, rest[:i] + (b,) + rest[i:]))
    return pairs


def max_log_density_ratio(pairs, p: float, epsilons) -> np.ndarray:
    """Exact sup over [0, 1] of the absolute log-density difference of the
    single-quantile mechanism of order ``p``, one value per budget in
    ``epsilons`` and pair of samples, as an array of shape ``(len(epsilons),
    len(pairs))``.

    Each density is piecewise constant between 0, its sample values and 1.
    One table per budget serves the whole list: a row per distinct sample,
    each row that sample's log-density at the midpoints of the cells cut by
    0, 1 and every value in the list. These cells refine the merged cells of
    every pair, and a piecewise-constant density takes one value on a cell,
    so the largest difference between a pair's two rows is the pair's exact
    sup, the same float as on the pair's own cells.

    The pair index, the cells, the interval each row's density takes on
    each cell and the log-lengths of the intervals are built once, for every
    budget. The samples of one size share their rank and log-weights
    (:func:`qexp_log_weights`), so each budget evaluates them in one numpy
    pass, with the arithmetic of ``log_density_grid(qexp_density(...))``:
    the normaliser is the max-subtracted row sum with ``math.log`` per row,
    as in :attr:`WeightedIntervalDensity.log_normalizer`, so every sup is
    the same float as there. Inputs are checked here: sample values in
    [0, 1] and nondecreasing, ``p`` in [0, 1], each budget finite and >= 0.
    """
    epsilons = [float(epsilon) for epsilon in epsilons]
    if not all(math.isfinite(epsilon) and epsilon >= 0 for epsilon in epsilons):
        raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilons}")
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"p must lie in [0, 1], got {p}")
    # a row per distinct sample, in first-seen order: each sample is looked
    # up once, keyed by the position where it first occurs
    samples = list(map(tuple, itertools.chain.from_iterable(pairs)))
    first_seen: dict[tuple, int] = {}
    seen_at = map(first_seen.setdefault, samples, itertools.count())
    firsts, index = np.unique(np.fromiter(seen_at, int, len(samples)), return_inverse=True)
    left, right = index.reshape(-1, 2).T.copy()
    distinct = [samples[first] for first in firsts.tolist()]
    cuts = np.unique(np.fromiter(itertools.chain((0.0, 1.0), *distinct), float))
    points = (cuts[:-1] + cuts[1:]) / 2.0
    # the last cut at or below each point: a sample value lies at or below a
    # point exactly when its own cut index is at most this one
    at = cuts.searchsorted(points, "right") - 1
    rows_of_size: dict[int, list[int]] = defaultdict(list)
    for row, sample in enumerate(distinct):
        rows_of_size[len(sample)].append(row)
    groups = []
    for n, rows in rows_of_size.items():
        values = np.array([distinct[row] for row in rows], dtype=float).reshape(len(rows), n)
        if np.any(np.isnan(values) | (values < 0.0) | (values > 1.0)):
            raise InvalidArgumentError("sample values must lie in [0, 1]")
        if np.any(np.diff(values, axis=1) < 0):
            raise InvalidArgumentError("sample values must be nondecreasing")
        lengths = np.diff(values, axis=1, prepend=0.0, append=1.0)
        with np.errstate(divide="ignore"):
            log_lengths = np.log(lengths)
        # the values at or below each point, row by row, by one search over
        # the rows' cut indices laid end to end, row i offset by i * len(cuts)
        row_index = np.arange(len(rows))[:, None]
        below = (cuts.searchsorted(values) + row_index * len(cuts)).ravel()
        counts = below.searchsorted((at + row_index * len(cuts)).ravel(), "right")
        counts = counts.reshape(len(rows), -1) - row_index * n
        # as in log_density_grid, the interval to the right of a breakpoint
        # decides, but none past the last positive-length one (a zero-length
        # run at 1)
        last = n - np.argmax(lengths[:, ::-1] > 0, axis=1)
        intervals = np.minimum(counts, last[:, None])
        groups.append((n, rows, target_rank(n, p), log_lengths, intervals))
    table = np.empty((len(firsts), len(points)))
    sups = np.empty((len(epsilons), len(left)))
    for e, epsilon in enumerate(epsilons):
        for n, rows, rank, log_lengths, intervals in groups:
            log_weights = qexp_log_weights(n, rank, epsilon)
            log_masses = log_lengths + log_weights
            top = np.max(log_masses, axis=1)
            total = np.sum(np.exp(log_masses - top[:, None]), axis=1)
            log_norm = top + np.array([math.log(t) for t in total.tolist()])
            table[rows] = log_weights[intervals] - log_norm[:, None]
        gaps = np.subtract(table.take(left, axis=0), table.take(right, axis=0))
        np.max(np.abs(gaps, out=gaps), axis=1, out=sups[e])
    return sups


def verify_dp_ratio(pairs, epsilons, orders=(0.5,)) -> CheckReport:
    """Analytic privacy check: at each budget, the worst log-density ratio
    over all given neighbor pairs and quantile orders must not exceed that
    budget (up to 1e-9 arithmetic slack). One row per budget, in order.

    Each order takes one :func:`max_log_density_ratio` call over the whole
    pair list and every budget, so a pair list's index and cells are built
    once per order. ``trials`` counts (pair, order) checks per budget.
    """
    pairs = list(pairs)
    epsilons = list(epsilons)
    worst = np.zeros(len(epsilons))
    for p in orders:
        sups = max_log_density_ratio(pairs, p, epsilons)
        worst = np.maximum(worst, np.max(sups, axis=1, initial=0.0))
    count = len(pairs) * len(orders)
    report = CheckReport("dp-ratio", True)
    for epsilon, empirical in zip(epsilons, worst.tolist()):
        ok = empirical <= epsilon + 1e-9
        report.passed &= ok
        report.rows.append(
            {
                "epsilon": epsilon,
                "bound": epsilon,
                "empirical": empirical,
                "trials": count,
                "ci_low": empirical,
                "ci_high": empirical,
                "passed": ok,
            }
        )
    return report


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
