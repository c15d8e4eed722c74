"""Command-line front end: estimate quantiles, run benchmarks, evaluate
bounds, run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 bound
precondition violated.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .bench import (
    CheckReport,
    ESTIMATOR_IDS,
    ExperimentConfig,
    ExperimentResult,
    centered_grid,
    neighboring_sample_pairs,
    release,
    run_experiment,
    verify_dp_ratio,
    verify_gap_law,
    verify_lower_bound_qexp,
    verify_quantile_concentration,
)
from .distributions import DensityEnvelope, DistributionOracle
from .errors import BoundPreconditionError, InvalidArgumentError, prefixed
from .histogram import check_bin_count, check_noise_scale
from .histogram import quantile_from_histogram  # noqa: F401  (a benchmark trace point)
from .mechanisms import NeighboringRelation, PrivacyBudget, RandomSource, check_seed
from .quantiles import QuantileQuery, SortedSample
from .quantiles import indexp  # noqa: F401  (a benchmark trace point)
from .quantiles import recexp  # noqa: F401  (a benchmark trace point)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BOUND_PRECONDITION = 3

@contextlib.contextmanager
def _naming(path):
    """An OSError inside is an input error naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise InvalidArgumentError(f"{path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _open_text(path: str):
    """``path`` opened as UTF-8 text; a file that cannot be read or a byte
    that does not decode is an input error naming the path."""
    try:
        with _naming(path), open(path, "r", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _write_text(path, text: str) -> None:
    """``text`` into the file at ``path`` as UTF-8, or to stdout without
    a path."""
    if not path:
        sys.stdout.write(text)
        return
    with _naming(path):
        Path(path).write_text(text, encoding="utf-8")


def load_data_file(path: str) -> SortedSample:
    """Newline-delimited decimal reals in [0, 1]; '#' lines are comments.

    Unsorted input is sorted on load. Malformed or out-of-range values are
    reported with their line number.
    """
    with _open_text(path) as handle:
        # fast path, parsed in C: one number in range per line that is not
        # blank; anything else (comments, a line loadtxt splits in two, bytes
        # that do not decode) takes the line loop, which names the bad line
        import warnings

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty file
                values = np.loadtxt(path, dtype=float, comments=None, ndmin=2, encoding="utf-8")
        except ValueError:
            values = np.empty((0, 0))
        if values.shape[1:] == (1,) and np.all((values >= 0.0) & (values <= 1.0)):
            values = values[:, 0]
        else:
            handle.seek(0)
            values = []
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    value = float(line)
                except ValueError:
                    raise InvalidArgumentError(f"{path}:{lineno}: not a decimal number: {line!r}")
                if math.isnan(value) or not 0.0 <= value <= 1.0:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: value {value} outside [0, 1]"
                    )
                values.append(value)
    return SortedSample.from_unsorted(values)


def _parse_relation(text: str) -> NeighboringRelation:
    try:
        return NeighboringRelation(text)
    except ValueError:
        raise InvalidArgumentError(
            f"unknown relation {text!r} (choose add-remove or replace)"
        )


def _parse_distribution(text: str) -> DistributionOracle:
    text = text.strip()
    if text == "uniform":
        return DistributionOracle.uniform()
    if text.startswith("beta:"):
        parts = text.split(":")
        if len(parts) == 3:
            try:
                alpha, beta = float(parts[1]), float(parts[2])
            except ValueError:
                pass
            else:
                return DistributionOracle.make_beta(alpha, beta)
    raise InvalidArgumentError(
        f"unknown distribution {text!r} (use 'uniform' or 'beta:ALPHA:BETA')"
    )


def _parser(convert, complaint: str):
    """``convert`` with its ValueError reported as ``complaint``."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise InvalidArgumentError(complaint)

    return parse


_parse_int = _parser(int, "not an integer")
_parse_ints = _parser(
    lambda text: tuple(int(item) for item in text.split(",")), "not a list of integers"
)
_parse_floats = _parser(
    lambda text: tuple(float(item) for item in text.split(",")),
    "use 'centered-grid' or a comma-separated list",
)


def _parse_version(text: str) -> int:
    if _parse_int(text) != 1:
        raise InvalidArgumentError("only version 1 is supported")
    return 1


def _as_is(value):
    return value


# config key -> (ExperimentConfig field, parser of the value text, JSON form
# in summary.json). config_version names no field; m_grid goes with
# `orders = centered-grid` only, since explicit orders fix m themselves.
_CONFIG_FIELDS = {
    "config_version": (None, _parse_version, lambda _: 1),
    "distributions": (
        "distributions",
        lambda text: tuple(_parse_distribution(item) for item in text.split(",")),
        lambda ds: [{"label": d.label, "alpha": d.alpha, "beta": d.beta} for d in ds],
    ),
    "estimators": ("estimators", lambda text: tuple(s.strip() for s in text.split(",")), list),
    "n": ("n", _parse_int, _as_is),
    "epsilon": ("epsilon", _parser(float, "not a number"), _as_is),
    "relation": ("relation", _parse_relation, lambda relation: relation.value),
    "m_grid": ("m_grid", _parse_ints, list),
    "orders": (
        "explicit_orders",
        lambda text: None if text == "centered-grid" else _parse_floats(text),
        lambda orders: "centered-grid" if orders is None else list(orders),
    ),
    "trials": ("trials", _parse_int, _as_is),
    "bins": ("histogram_bin_count", _parse_int, _as_is),
    "base_seed": ("base_seed", _parse_int, _as_is),
}


def parse_config_file(path: str) -> ExperimentConfig:
    """Flat, versioned key/value benchmark configuration.

    One `key = value` pair per line, '#' comments; unknown or duplicate
    keys are errors so a typo cannot silently corrupt an experiment.
    """
    entries: dict[str, str] = {}
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_FIELDS:
                raise InvalidArgumentError(f"{path}:{lineno}: unknown key {key!r}")
            if key in entries:
                raise InvalidArgumentError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value

    centered = entries.get("orders") == "centered-grid"
    if "m_grid" in entries and "orders" in entries and not centered:
        raise InvalidArgumentError(
            f"{path}: key 'm_grid' conflicts with explicit orders (remove one)"
        )
    fields = {"m_grid": ()}
    for key, (name, parse, _) in _CONFIG_FIELDS.items():
        if key not in entries:
            if key == "m_grid" and not centered:
                continue
            raise InvalidArgumentError(f"{path}: missing required key {key!r}")
        with prefixed(f"{path}: key {key!r}: "):
            value = parse(entries[key])
        if name is not None:
            fields[name] = value
    with prefixed(f"{path}: "):
        return ExperimentConfig(**fields)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        key: dump(None if name is None else getattr(config, name))
        for key, (name, _, dump) in _CONFIG_FIELDS.items()
    }


def write_experiment_outputs(result: ExperimentResult, outdir: Path) -> list[Path]:
    """One CSV per distribution plus a JSON summary for exact replay, in the
    existing directory ``outdir``."""
    written = []
    cells = {(cell.distribution, cell.estimator, cell.m): cell for cell in result.cells}
    for oracle in result.config.distributions:
        path = outdir / f"{oracle.slug}.csv"
        lines = ["m,estimator,mean_error,std_error,trials"]
        for m in result.config.m_grid:
            for estimator in result.config.estimators:
                cell = cells[oracle.label, estimator, m]
                lines.append(f"{m},{estimator},{cell.mean_error!r},{cell.std_error!r},{cell.trials}")
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    summary = {
        "config": config_to_dict(result.config),
        "seed_derivation": (
            "trial t of a distribution draws its sample from RandomSource(base_seed, "
            "stream=(distribution_index, trial_index)); every (estimator, m) cell runs "
            "on that sample with noise from its child stream (distribution_index, "
            "trial_index, estimator_index, m_index), via numpy SeedSequence spawn keys"
        ),
        "sample_time_s": result.sample_time,
        "cells": [
            {
                "distribution": c.distribution,
                "estimator": c.estimator,
                "m": c.m,
                "mean_error": c.mean_error,
                "std_error": c.std_error,
                "trials": c.trials,
                "wall_time_s": c.wall_time,
            }
            for c in result.cells
        ],
    }
    summary_path = outdir / "summary.json"
    _write_text(summary_path, json.dumps(summary, indent=2) + "\n")
    written.append(summary_path)
    return written


# how the budget line of `dpq estimate` words each estimator's ReleaseRecord
_SPLIT_WORDS = {
    "indexp": "{levels} calls at {eps_per_call!r} each",
    "recexp": "tree depth {levels}, per-call epsilon_0 = {eps_per_call!r}",
    "histogram": "{bins} bins",
}


def cmd_estimate(args) -> int:
    sample = load_data_file(args.data)
    relation = _parse_relation(args.relation)
    if (args.orders is None) == (args.m is None):
        raise InvalidArgumentError("give exactly one of --orders or --m")
    if args.orders is not None:
        try:
            orders = tuple(float(p) for p in args.orders.split(","))
        except ValueError:
            raise InvalidArgumentError(f"--orders: not a list of numbers: {args.orders!r}")
    else:
        with prefixed("--m: "):
            orders = centered_grid(args.m)
    budget = PrivacyBudget(args.epsilon, relation)
    if args.method == "histogram":
        with prefixed("--bins: "):
            check_bin_count(args.bins)
        with prefixed("--epsilon "):
            check_noise_scale(budget)
    query = QuantileQuery(orders, budget)
    with prefixed("--seed: "):
        rng = RandomSource(args.seed)
    estimates, record = release(args.method, sample, query, rng, args.bins)
    split = _SPLIT_WORDS[record.method].format_map(vars(record))
    print(f"spent budget: epsilon = {record.epsilon_total!r} ({record.relation.value}), {split}", file=sys.stderr)
    lines = ["p,q_hat"] + [f"{float(p)!r},{float(q)!r}" for p, q in zip(orders, estimates)]
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.workers < 1:
        raise InvalidArgumentError(f"--workers must be at least 1, got {args.workers}")
    outdir = Path(args.output)
    config = parse_config_file(args.config)
    with _naming(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    written = write_experiment_outputs(run_experiment(config, workers=args.workers), outdir)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


# formula -> (evaluator, the guards echoed once it evaluates). The name=value
# arguments are the evaluator's required parameters, renamed by _ALIASES, with
# `envelope` given as pi_lower and pi_upper (and lipschitz for thm_hist).
_BOUNDS = {
    "fact_qexp": (bounds.fact_qexp_threshold, ["0 < delta <= 1", "0 < beta < 1", "eps > 0"]),
    "fact_recexp": (
        bounds.fact_recexp_threshold,
        ["0 < delta <= 1", "0 < beta < 1", "eps > 0", "m >= 1"],
    ),
    "thm_qexp": (bounds.thm_qexp_tail, ["n >= 1", "gamma > 0", "eps > 0", "pi_lower > 0"]),
    "thm_indexp": (
        bounds.thm_indexp_tail,
        ["n >= 1", "m >= 1", "gamma > 0", "eps > 0", "pi_lower > 0"],
    ),
    "thm_recexp": (
        bounds.thm_recexp_tail,
        ["n >= 1", "m >= 1", "gamma > 0", "eps > 0", "pi_lower > 0"],
    ),
    "thm_hist": (bounds.thm_hist_tail, ["gamma > 2 L h / pi_lower", "gamma < 1/2"]),
    "lemma_hist_density": (bounds.lemma_hist_density_tail, ["gamma > L h"]),
    "lemma_qexp_lower": (bounds.lemma_qexp_lower, []),
    "indexp_lower": (bounds.indexp_lower, []),
    "recexp_lower": (bounds.recexp_lower, []),
    "gap_survival": (
        bounds.gap_survival_uniform,
        ["0 < gamma (zero is returned beyond 1/(n+1))"],
    ),
    "lemma_gap_lower": (bounds.lemma_gap_lower, ["0 < gamma < 1 / (4 pi_upper)"]),
    "lemma_quantile_concentration": (
        bounds.lemma_quantile_concentration_tail,
        ["n >= 1", "0 < p < 1", "gamma > 0", "pi_lower > 0"],
    ),
}
_ALIASES = {"delta_gap": "delta", "epsilon": "eps"}


def _bound_form(evaluator):
    """The name=value arguments of ``evaluator`` in order, each with its type,
    and a function that evaluates it on their values."""
    arguments, getters = {}, []
    for param in inspect.signature(evaluator, eval_str=True).parameters.values():
        if param.default is not param.empty:
            continue
        if param.annotation is DensityEnvelope:
            arguments.update(pi_lower=float, pi_upper=float)
            if evaluator is bounds.thm_hist_tail:
                arguments["lipschitz"] = float
            getters.append(lambda v: DensityEnvelope(
                v["pi_lower"], v["pi_upper"], v.get("lipschitz", math.inf)
            ))
        else:
            name = _ALIASES.get(param.name, param.name)
            arguments[name] = param.annotation
            getters.append(lambda v, name=name: v[name])
    return arguments, lambda values: evaluator(*(get(values) for get in getters))


def cmd_bounds(args) -> int:
    if args.formula not in _BOUNDS:
        raise InvalidArgumentError(
            f"unknown formula {args.formula!r}; choose from: {', '.join(sorted(_BOUNDS))}"
        )
    evaluator, guards = _BOUNDS[args.formula]
    expected, evaluate = _bound_form(evaluator)
    values: dict[str, float] = {}
    for item in args.assignments:
        key, sep, raw = item.partition("=")
        if not sep:
            raise InvalidArgumentError(f"expected name=value, got {item!r}")
        if key not in expected:
            raise InvalidArgumentError(
                f"formula {args.formula!r} does not take {key!r}; expected: {', '.join(expected)}"
            )
        if key in values:
            raise InvalidArgumentError(f"argument {key!r} is given twice")
        try:
            value = float(raw)
        except ValueError:
            raise InvalidArgumentError(f"argument {key!r}: not a number: {raw!r}")
        if expected[key] is int:
            if not value.is_integer():
                raise InvalidArgumentError(f"argument {key!r}: not an integer: {raw!r}")
            value = int(value)
        values[key] = value
    missing = [k for k in expected if k not in values]
    if missing:
        raise InvalidArgumentError(f"formula {args.formula!r} is missing: {', '.join(missing)}")
    value = evaluate(values)
    print(f"{value:.12g}")
    for guard in guards:
        print(f"guard satisfied: {guard}", file=sys.stderr)
    return EXIT_OK


# The verification suites' cases. Acceptance criteria 2, 3 and 5 check the
# same cases, at more trials (2) and more quantile orders (3).
GAP_LAW_CASES = ((1, (0.25,)), (5, (0.05,)), (10, (0.02,)))  # (n, gammas)
DP_RATIO_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DP_RATIO_MAX_N = 4
DP_RATIO_EPSILONS = (0.5, 1.0, 4.0)
LOWER_BOUND_NS = range(21)
LOWER_BOUND_EPSILONS = (0.5, 1.0)
LOWER_BOUND_TS = (0.3, 0.5)
LOWER_BOUND_GAMMAS = (0.1, 0.25)
# (n, p, gamma)
QUANTILE_CONCENTRATION_CASES = ((1000, 0.5, 0.2), (1000, 0.25, 0.1), (200, 0.5, 0.3))
# gap-law draws all its trials at once, about 280 bytes a trial at its largest
# n = 10, so this cap on --trials keeps a suite under about 300 MB
MAX_VERIFY_TRIALS = 10**6


def _combined(name: str, parts) -> CheckReport:
    return CheckReport(name, [row for part in parts for row in part.rows])


def _suite_gap_law(seed: int, trials: int) -> CheckReport:
    rng = RandomSource(seed)
    return _combined("gap-law", (
        verify_gap_law(n, gammas, trials, rng.child(i))
        for i, (n, gammas) in enumerate(GAP_LAW_CASES)
    ))


def _suite_dp_ratio(seed: int, trials: int) -> CheckReport:
    del seed, trials  # analytic check, no randomness
    parts = []
    for relation in NeighboringRelation:
        pairs = neighboring_sample_pairs(DP_RATIO_GRID, DP_RATIO_MAX_N, relation)
        part = verify_dp_ratio(pairs, DP_RATIO_EPSILONS)
        for row in part.rows:
            row["relation"] = relation.value
        parts.append(part)
    return _combined("dp-ratio", parts)


def _suite_lower_bound(seed: int, trials: int) -> CheckReport:
    del seed, trials  # exact integration, no randomness
    return _combined("lower-bound", (
        verify_lower_bound_qexp(LOWER_BOUND_NS, LOWER_BOUND_EPSILONS, t, gamma)
        for t in LOWER_BOUND_TS
        for gamma in LOWER_BOUND_GAMMAS
    ))


def _suite_quantile_concentration(seed: int, trials: int) -> CheckReport:
    rng = RandomSource(seed)
    return _combined("quantile-concentration", (
        verify_quantile_concentration(n, p, gamma, trials, rng.child(i))
        for i, (n, p, gamma) in enumerate(QUANTILE_CONCENTRATION_CASES)
    ))


_SUITES = {
    "gap-law": _suite_gap_law,
    "dp-ratio": _suite_dp_ratio,
    "lower-bound": _suite_lower_bound,
    "quantile-concentration": _suite_quantile_concentration,
}


def cmd_verify(args) -> int:
    if not 1 <= args.trials <= MAX_VERIFY_TRIALS:
        raise InvalidArgumentError(f"--trials must be between 1 and {MAX_VERIFY_TRIALS}, got {args.trials}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    with prefixed("--seed: "):
        check_seed(args.seed)
    reports = [_SUITES[name](args.seed, args.trials) for name in names]
    for report in reports:
        for row in report.rows:
            keys = ", ".join(
                f"{k}={row[k]}" for k in row if k not in ("bound", "empirical", "passed")
            )
            verdict = "PASS" if row["passed"] else "FAIL"
            print(
                f"[{report.name}] {keys}: bound={row['bound']:.6g} "
                f"empirical={row['empirical']:.6g} {verdict}",
                file=sys.stderr,
            )
        print(
            f"suite {report.name}: {'PASS' if report.passed else 'FAIL'}", file=sys.stderr
        )
    payload = json.dumps({"suites": [r.to_dict() for r in reports]}, indent=2) + "\n"
    _write_text(args.output, payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpq",
        description="Differentially private estimation of many statistical quantiles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="estimate quantiles of a data file")
    est.add_argument("--data", required=True, help="newline-delimited reals in [0, 1]")
    est.add_argument("--method", required=True, choices=ESTIMATOR_IDS)
    est.add_argument("--orders", help="comma-separated quantile orders in (0, 1)")
    est.add_argument(
        "--m", type=int,
        help="use the built-in m-point centered grid, orders 1/4 + j/(2(m+1))",
    )
    est.add_argument("--epsilon", type=float, required=True)
    est.add_argument("--relation", choices=("add-remove", "replace"), default="replace")
    est.add_argument("--bins", type=int, default=200, help="histogram bins")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--output", help="CSV output path (default: stdout)")
    est.set_defaults(func=cmd_estimate)

    ben = sub.add_parser("bench", help="run a Monte-Carlo benchmark from a config file")
    ben.add_argument("--config", required=True)
    ben.add_argument("--output", required=True, help="output directory")
    ben.add_argument("--workers", type=int, default=1)
    ben.set_defaults(func=cmd_bench)

    bnd = sub.add_parser("bounds", help="evaluate a closed-form bound")
    bnd.add_argument("formula")
    bnd.add_argument("assignments", nargs="*", metavar="name=value")
    bnd.set_defaults(func=cmd_bounds)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=20000)
    ver.add_argument("--output", help="JSON report path (default: stdout)")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and map its errors to exit codes: an input error
    or a file that cannot be read or written exits 2, a bound evaluated
    outside its guard exits 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BoundPreconditionError as exc:
        print(f"precondition violated: {exc.guard}", file=sys.stderr)
        return EXIT_BOUND_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
