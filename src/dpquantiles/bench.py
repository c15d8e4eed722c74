"""Estimator releases, Monte-Carlo experiment engine and verification suites.

Experiments measure the expected sup-norm error of each estimator against
the true quantiles of a ground-truth distribution, averaged over seeded
independent trials. Trial ``t`` of a distribution draws one sample, from the
stream ``(base_seed, distribution index, t)``, and every estimator and m runs
on it with noise from the child stream ``(estimator index, m index)``, so
the cells are paired trial by trial and results are byte-identical across
reruns and parallelism degrees. The (distribution, trial) pairs, laid flat in
protocol order, are cut into chunks of consecutive trials that may span
distributions, and each cell runs once per chunk, over all of the chunk's
samples as the rows of one estimator call.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    gap_survival_uniform,
    lemma_qexp_lower,
    lemma_quantile_concentration_tail,
    quantile_concentration_buffer,
)
from .distributions import DistributionOracle
from .errors import InvalidArgumentError, prefixed
from .histogram import check_bin_count, check_noise_scale, quantile_from_histogram
from .mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    check_seed,
    log_density_grid,  # noqa: F401  (a benchmark trace point)
)
from .quantiles import qexp_density  # noqa: F401  (a benchmark trace point)
from .quantiles import (
    QuantileQuery,
    ReleaseRecord,
    SortedSample,
    check_order_count,
    indexp,
    qexp_log_weights,
    recexp,
    target_rank,
)

ESTIMATOR_IDS = ("indexp", "recexp", "histogram")


def centered_grid(m: int) -> tuple[float, ...]:
    """Benchmark quantile grid p_j = 1/4 + j / (2 (m + 1)), j = 1..m.

    The orders stay inside (1/4, 3/4), away from regions where the target
    densities get small. ``m`` is checked before the grid is built.
    """
    check_order_count(m)
    return tuple(0.25 + j / (2.0 * (m + 1)) for j in range(1, m + 1))


# A trial holds about 50 bytes a sample value at its peak (the Beta sampler's
# draws; the gap table then takes about 27 on top of the sample's 8), so this
# cap keeps one trial under about half a gigabyte.
MAX_SAMPLE_SIZE = 10**7
# A run keeps about 50 bytes a trial for each cell (its error as a float in
# lists and a tuple), so this cap keeps a cell's errors under about 50 MB.
MAX_TRIALS = 10**6


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
        if not 1 <= self.trials <= MAX_TRIALS:
            raise InvalidArgumentError(f"key 'trials': must be between 1 and {MAX_TRIALS}, got {self.trials}")
        if self.explicit_orders is not None:
            orders = tuple(float(p) for p in self.explicit_orders)
            object.__setattr__(self, "explicit_orders", orders)
            object.__setattr__(self, "m_grid", (len(orders),))
        elif not self.m_grid:
            raise InvalidArgumentError("m_grid must be a nonempty list of counts >= 1")
        key = "m_grid" if self.explicit_orders is None else "orders"
        with prefixed(f"key {key!r}: "):
            for m in self.m_grid:  # before any grid is built
                check_order_count(m)
        # a repeat would run its cells twice under indistinguishable labels
        for key in ("distributions", "estimators", "m_grid"):
            entries = [getattr(e, "label", e) for e in getattr(self, key)]
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise InvalidArgumentError(f"key {key!r}: {repeated[0]} is given twice")
        budget = PrivacyBudget(self.epsilon, self.relation)  # validates epsilon > 0
        if "histogram" in self.estimators:
            with prefixed("epsilon "):
                check_noise_scale(budget)
        if self.explicit_orders is not None:
            QuantileQuery(self.explicit_orders, budget)  # validates the orders
        if not 1 <= self.n <= MAX_SAMPLE_SIZE:
            raise InvalidArgumentError(f"key 'n': must be between 1 and {MAX_SAMPLE_SIZE}, got {self.n}")
        with prefixed("key 'bins': "):
            check_bin_count(self.histogram_bin_count)
        with prefixed("key 'base_seed': "):
            check_seed(self.base_seed)

    def orders_for(self, m: int) -> tuple[float, ...]:
        if self.explicit_orders is not None:
            return self.explicit_orders
        return centered_grid(m)


@dataclass(frozen=True)
class CellResult:
    """Aggregated errors of one (distribution, estimator, m) cell, with its
    per-trial errors in trial order. ``wall_time`` sums the cell's share of
    the seconds of the calls that ran its trials, without drawing their
    shared samples (see :func:`run_experiment`)."""

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


def release(
    method: str,
    sample: SortedSample | Sequence[SortedSample],
    query: QuantileQuery,
    rng: RandomSource | Sequence[RandomSource],
    bins: int | None,
    zero_noise: bool = False,
) -> tuple[np.ndarray, ReleaseRecord]:
    """The estimates of ``query`` on ``sample`` by ``method``, one of
    ``ESTIMATOR_IDS``, with noise from ``rng``, and the record of how the
    release split its budget: the one place that picks an estimator, for the
    CLI and the experiment engine. ``bins`` and the NON-PRIVATE
    ``zero_noise`` mode are the histogram's. Samples of one size with a
    source each are the rows of one estimator call, a row of estimates each."""
    record = ReleaseRecord.of(method, query.m, query.budget, bins)
    if method == "indexp":
        estimates = indexp(sample, query, rng)
    elif method == "recexp":
        estimates = recexp(sample, query, rng)
    else:
        estimates = quantile_from_histogram(sample, bins, query.budget, query.orders, rng, zero_noise=zero_noise)
    return estimates, record


def run_trial(
    sample: SortedSample | Sequence[SortedSample],
    estimator: str,
    orders: tuple[float, ...],
    truth: np.ndarray,
    config: ExperimentConfig,
    rng: RandomSource | Sequence[RandomSource],
) -> float | list[float]:
    """One estimate of ``orders`` on ``sample``, with noise from ``rng``, and
    its sup-norm error against ``truth``, the true quantiles at ``orders``.
    Samples of one size with a source each are the rows of one estimator
    call, giving their one-sample errors; ``truth`` is then one array for
    every row or a (rows, m) array, a row per sample's distribution."""
    query = QuantileQuery(orders, PrivacyBudget(config.epsilon, config.relation))
    estimate, _ = release(estimator, sample, query, rng, config.histogram_bin_count)
    return np.max(np.abs(estimate - truth), axis=-1).tolist()


# The most sample values, ``rows * (n + 2)``, that one chunk stacks; from
# n = 65 535 on a chunk has one row. Measured under tracemalloc, a full
# chunk's one-order indexp or recexp call peaks at about 3.4 MiB for n = 10 000
# (13 rows) and n = 65 534 (2 rows), 12.3 MiB for n = 100 (1 285 rows) and
# 21.4 MiB for n = 5 (18 724 rows), where per-row arrays outweigh the values.
_CHUNK_VALUES = 2**17


def _trial_chunks(config: ExperimentConfig, workers: int) -> list[tuple[int, int]]:
    """The protocol's (distribution, trial) pairs as ``(start, stop)`` runs.

    Pair ``(d_idx, t)`` is row ``d_idx * trials + t`` of the flat list in
    protocol order, so a chunk may span two or more distributions; it runs
    every (estimator, m) cell of its rows. The chunks are as few as fit
    ``rows * (n + 2) <= _CHUNK_VALUES`` (one row when none fit more), and at
    more than one worker at least ``min(rows, 2 workers)``, about two per
    worker to balance the load with. Their sizes differ by at most one row.
    """
    total = len(config.distributions) * config.trials
    count = -(-total // max(1, _CHUNK_VALUES // (config.n + 2)))
    if workers > 1:
        count = max(count, min(total, 2 * workers))
    return [(k * total // count, (k + 1) * total // count) for k in range(count)]


def _cells(config: ExperimentConfig) -> list[tuple[int, int]]:
    """The ``(e_idx, m_idx)`` cells of one distribution, in cell order."""
    return list(itertools.product(range(len(config.estimators)), range(len(config.m_grid))))


def _chunk_rows(config: ExperimentConfig, chunk: tuple[int, int]) -> list[tuple[int, int]]:
    """The ``(d_idx, t)`` pairs of a chunk, in protocol order."""
    return [divmod(row, config.trials) for row in range(*chunk)]


def _trials_by_distribution(rows: list[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """``rows`` grouped into ``(d_idx, trials)``, in protocol order."""
    groups = itertools.groupby(rows, lambda row: row[0])
    return [(d_idx, [t for _, t in group]) for d_idx, group in groups]


def _run_chunk(
    config: ExperimentConfig, chunk: tuple[int, int], truths: list[list[np.ndarray]]
) -> tuple[list[list[float]], list[float], float]:
    """Run one chunk: draw every trial's sample, then run each cell once over
    all of them.

    Returns, per cell of :func:`_cells`, the errors of the chunk's rows in
    protocol order and the seconds its :func:`run_trial` call took, then the
    seconds the samples took. Trial ``t`` of distribution ``d_idx`` draws
    its sample from ``RandomSource(base_seed, (d_idx, t))``, and cell
    ``(e_idx, m_idx)`` its noise from that source's ``child(e_idx,
    m_idx)``; one :func:`run_trial` call takes the chunk's samples as rows,
    each with its own trial's stream and its own distribution's truth, so
    each error is the one a call on that trial alone gives. ``truths``
    holds the true quantiles of the chunk's distributions, from its first
    on, one array per m of the grid each.
    """
    rows = _chunk_rows(config, chunk)
    first = rows[0][0]
    began = time.perf_counter()
    sources = [RandomSource(config.base_seed, row) for row in rows]
    samples = [
        config.distributions[d_idx].sample(config.n, source)
        for (d_idx, _), source in zip(rows, sources)
    ]
    sample_time = time.perf_counter() - began
    grids = [
        (m, config.orders_for(m), np.stack([truths[d_idx - first][m_idx] for d_idx, _ in rows]))
        for m_idx, m in enumerate(config.m_grid)
    ]
    errors, walls = [], []
    for e_idx, m_idx in _cells(config):
        estimator = config.estimators[e_idx]
        m, orders, truth = grids[m_idx]
        began = time.perf_counter()
        rngs = [source.child(e_idx, m_idx) for source in sources]
        try:
            errors.append(run_trial(samples, estimator, orders, truth, config, rngs))
        except Exception as exc:
            spans = " and ".join(
                f"trials {ts[0]}-{ts[-1]} of cell ({config.distributions[d_idx].label}, "
                f"{estimator}, m={m})"
                for d_idx, ts in _trials_by_distribution(rows)
            )
            raise RuntimeError(f"{spans} failed") from exc
        walls.append(time.perf_counter() - began)
    return errors, walls, sample_time


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _process_pool(workers: int):
    """A pool of ``workers`` processes; a run without one loads no multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


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
    chunks, usable CPUs)`` processes; the chunks, not the pool, follow
    ``workers``. The true quantiles are computed once per
    (distribution, m) in this process, before any worker starts, so no worker
    imports the truth oracle's scipy.special itself. A cell's ``wall_time``
    sums its share of the :func:`run_trial` calls that ran its trials: a call
    that spans distributions is split over them by row count, so the cells'
    times add up to the calls' times. The result's ``sample_time`` is the
    summed time of drawing the samples.
    """
    if workers < 1:
        raise InvalidArgumentError(f"workers must be at least 1, got {workers}")
    chunks = _trial_chunks(config, workers)
    truths = [
        [oracle.quantile(np.asarray(config.orders_for(m))) for m in config.m_grid]
        for oracle in config.distributions
    ]
    # each chunk gets the truths of the distributions it spans
    chunk_truths = [
        truths[start // config.trials : (stop - 1) // config.trials + 1] for start, stop in chunks
    ]
    if workers == 1:
        outputs = [_run_chunk(config, chunk, span) for chunk, span in zip(chunks, chunk_truths)]
    else:
        with _process_pool(min(workers, len(chunks), _usable_cpus())) as pool:
            outputs = list(pool.map(_run_chunk, itertools.repeat(config), chunks, chunk_truths))
    cells = _cells(config)
    keys = [(d_idx, *cell) for d_idx in range(len(config.distributions)) for cell in cells]
    cell_errors: dict[tuple, list[float]] = {key: [] for key in keys}
    cell_walls: dict[tuple, float] = dict.fromkeys(keys, 0.0)
    result = ExperimentResult(config)
    for chunk, (errors, walls, sample_time) in zip(chunks, outputs):
        rows = _chunk_rows(config, chunk)
        for cell, row_errors, seconds in zip(cells, errors, walls):
            for (d_idx, _), error in zip(rows, row_errors):
                cell_errors[(d_idx, *cell)].append(error)
                cell_walls[(d_idx, *cell)] += seconds / len(rows)
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
    """One verification suite outcome: its per-case evidence rows, each with
    its own verdict. The suite passes when every row does."""

    name: str
    rows: list[dict]

    @property
    def passed(self) -> bool:
        return all(row["passed"] for row in self.rows)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "rows": self.rows}


def _row(case: dict, bound: float, empirical: float, trials: int, ci, passed: bool) -> dict:
    """An evidence row: the case's own keys, then the bound, the measured
    value, the trial count, the interval ``ci`` around the measured value
    and the verdict."""
    return {**case, "bound": bound, "empirical": empirical, "trials": trials,
            "ci_low": ci[0], "ci_high": ci[1], "passed": passed}


def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    # 99% two-sided score interval; z is the 0.995 normal quantile
    z = 2.5758293035489004
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
    for gamma in gammas:
        exact = gap_survival_uniform(n, float(gamma))
        hits = int(np.sum(min_gaps > gamma))
        if exact == 0.0:
            ci, ok = (0.0, 0.0), hits == 0
        else:
            ci = _wilson_interval(hits, trials)
            ok = ci[0] <= exact <= ci[1]
        rows.append(_row({"n": n, "gamma": float(gamma)}, exact, hits / trials, trials, ci, ok))
    return CheckReport("gap-law", rows)


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


@dataclass(frozen=True, eq=False)
class SamplePairs(Sequence):
    """A list of sample pairs as two row-index arrays into one tuple of
    distinct samples: pair ``k`` is ``(samples[left[k]], samples[right[k]])``.

    A read-only sequence of ``(tuple, tuple)`` pairs; a slice is a
    ``SamplePairs`` over the same samples. :func:`max_log_density_ratio`
    reads the indices directly, so an audit builds no tuple per pair.
    """

    samples: tuple[tuple[float, ...], ...]
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            rows = np.asarray(getattr(self, name), dtype=np.int64).view()
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @classmethod
    def of(cls, pairs) -> SamplePairs:
        """``pairs`` as they are if already indexed; otherwise one row per
        distinct sample, in first-seen order, each sample hashed once."""
        if isinstance(pairs, cls):
            return pairs
        rows: dict[tuple[float, ...], int] = {}
        index = [rows.setdefault(tuple(sample), len(rows)) for pair in pairs for sample in pair]
        left, right = np.array(index, dtype=np.int64).reshape(-1, 2).T
        return cls(tuple(rows), left, right)

    def __len__(self) -> int:
        return len(self.left)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SamplePairs(self.samples, self.left[k], self.right[k])
        return self.samples[self.left[k]], self.samples[self.right[k]]

    def __iter__(self):
        samples = self.samples
        for i, j in zip(self.left.tolist(), self.right.tolist()):
            yield samples[i], samples[j]


def neighboring_sample_pairs(grid, max_n: int, relation: NeighboringRelation) -> SamplePairs:
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

    The samples are those of :func:`_multisets` (without the empty one under
    replacement), each held as a vector of per-value counts. A partner adds
    a unit vector to its sample's counts (add/remove) or moves one count to
    a larger value (replacement), and every partner's row is found by one
    ``searchsorted`` over the rows' counts read as byte strings.
    """
    grid = tuple(sorted({float(g) for g in grid}))
    if max_n < 1 or not grid:
        return SamplePairs((), [], [])
    samples = _multisets(grid, max_n)
    if relation is NeighboringRelation.REPLACE:
        samples = samples[1:]  # without the empty sample
    sizes = np.fromiter(map(len, samples), np.int64, len(samples))
    values = np.fromiter(itertools.chain.from_iterable(samples), float, int(sizes.sum()))
    cells = np.repeat(np.arange(len(samples)) * len(grid), sizes) + np.searchsorted(grid, values)
    counts = np.bincount(cells, minlength=len(samples) * len(grid))
    counts = counts.reshape(len(samples), len(grid)).astype(np.min_scalar_type(max_n))
    if relation is NeighboringRelation.ADD_REMOVE:
        left = np.repeat(np.flatnonzero(sizes < max_n), len(grid))
        added = np.tile(np.arange(len(grid)), len(left) // len(grid))
        partners = counts[left]
        partners[np.arange(len(left)), added] += 1
    else:
        # the moves a -> b with a < b, largest a first, then smallest b first
        a, b = np.triu_indices(len(grid), 1)
        by_a = np.argsort(-a, kind="stable")
        a, b = a[by_a], b[by_a]
        left, move = np.nonzero(counts[:, a] > 0)
        partners, at = counts[left], np.arange(len(left))
        partners[at, a[move]] -= 1
        partners[at, b[move]] += 1
    key = np.dtype((np.void, counts.shape[1] * counts.itemsize))
    keys = counts.view(key).ravel()
    by_key = np.argsort(keys)
    right = by_key[keys[by_key].searchsorted(partners.view(key).ravel())]
    return SamplePairs(tuple(samples), left, right)


def max_log_density_ratio(pairs, p: float, epsilons) -> np.ndarray:
    """Exact sup over [0, 1] of the absolute log-density difference of the
    single-quantile mechanism of order ``p``, one value per budget in
    ``epsilons`` and pair of samples, as an array of shape ``(len(epsilons),
    len(pairs))``.

    Each density is piecewise constant between 0, its sample values and 1.
    One table per budget serves the whole list: a row per distinct sample
    (``pairs`` as a :class:`SamplePairs`, whose rows are read as they are;
    any other list of pairs is indexed by :meth:`SamplePairs.of`), each row
    that sample's log-density at the midpoints of the cells cut by
    0, 1 and every value in the list. These cells refine the merged cells of
    every pair, and a piecewise-constant density takes one value on a cell,
    so the largest difference between a pair's two rows is the pair's exact
    sup, the same float as on the pair's own cells.

    The cells, the interval each row's density takes on
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
    pairs = SamplePairs.of(pairs)
    distinct, left, right = pairs.samples, pairs.left, pairs.right
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
    table = np.empty((len(distinct), len(points)))
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

    The pair list is indexed once (:meth:`SamplePairs.of`), and each order
    takes one :func:`max_log_density_ratio` call over the whole list and
    every budget, so the cells are built once per order. ``trials`` counts
    (pair, order) checks per budget.
    """
    pairs = SamplePairs.of(pairs)
    epsilons = list(epsilons)
    worst = np.zeros(len(epsilons))
    for p in orders:
        sups = max_log_density_ratio(pairs, p, epsilons)
        worst = np.maximum(worst, np.max(sups, axis=1, initial=0.0))
    count = len(pairs) * len(orders)
    return CheckReport("dp-ratio", [
        _row({"epsilon": epsilon}, epsilon, empirical, count, (empirical, empirical),
             empirical <= epsilon + 1e-9)
        for epsilon, empirical in zip(epsilons, worst.tolist())
    ])


def verify_quantile_concentration(
    n: int, p: float, gamma: float, trials: int, rng: RandomSource
) -> CheckReport:
    """Monte-Carlo check of the buffered order-statistic deviation bound on
    samples of n uniforms: density at least 1, true p-quantile p.

    The event is ``sup over the buffer J of |X_(floor(np)+k) - p| > gamma``;
    its frequency must stay below the closed-form tail plus three
    binomial standard deviations.
    """
    bound = lemma_quantile_concentration_tail(n, p, gamma, 1.0)
    half = quantile_concentration_buffer(n, gamma, 1.0)
    center = target_rank(n, p)
    k_lo = max(-center + 1, -half)
    k_hi = min(n - center, half)
    hits = 0
    if k_lo <= k_hi:  # an empty buffer makes the event impossible
        for _ in range(trials):
            values = np.sort(rng.random(n))
            window = values[center + k_lo - 1 : center + k_hi]
            if np.max(np.abs(window - p)) > gamma:
                hits += 1
    freq = hits / trials
    capped = min(bound, 1.0)
    slack = 3.0 * math.sqrt(max(capped * (1.0 - capped), 1.0 / trials) / trials)
    ci = (max(0.0, freq - slack), freq + slack)
    row = _row({"n": n, "p": p, "gamma": gamma}, bound, freq, trials, ci, freq <= bound + slack)
    return CheckReport("quantile-concentration", [row])


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
    (1/2) exp(-n eps / 2). Each interval between 0, the sample values and 1
    has a log-weight of :func:`qexp_log_weights`, and its overlap with [t -
    gamma, t + gamma] a mass summed in log space, as in the per-density law.
    """
    lo, hi = max(0.0, t - gamma), min(1.0, t + gamma)
    if hi < lo:
        raise InvalidArgumentError(f"empty integration interval [{lo}, {hi}]")
    rows = []
    for n in ns:
        for eps in epsilons:
            floor = lemma_qexp_lower(n, eps)
            worst = math.inf
            for sample in worst_case_samples(n, t):
                breakpoints = np.concatenate(([0.0], sample.values, [1.0]))
                with np.errstate(divide="ignore"):
                    log_lengths = np.log(np.diff(breakpoints))
                overlap = np.clip(breakpoints[1:], lo, hi) - np.clip(breakpoints[:-1], lo, hi)
                inside = overlap > 0
                log_overlaps = np.log(overlap[inside])
                for p in orders:
                    log_weights = qexp_log_weights(sample.n, target_rank(sample.n, p), eps)
                    log_masses = log_lengths + log_weights
                    top = float(np.max(log_masses))
                    log_norm = top + math.log(float(np.sum(np.exp(log_masses - top))))
                    mass = float(np.sum(np.exp(log_overlaps + log_weights[inside] - log_norm)))
                    worst = min(worst, 1.0 - mass)
            case = {"n": n, "epsilon": eps, "t": t, "gamma": gamma}
            rows.append(_row(case, floor, worst, 0, (worst, worst), worst >= floor))
    return CheckReport("lower-bound", rows)
