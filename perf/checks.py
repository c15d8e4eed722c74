"""Output checks of the three workloads.

Each check returns a list of problems; an empty list means the output passed.
An operation whose check reports a problem counts as failed. The checks only
read what the program wrote (CSV text, CSV bytes, a JSON report, an exit
code), so they can be handed corrupted outputs directly.
"""

from __future__ import annotations

import json
import math

# Sup-norm error allowed between a release and the true beta(2,5) quantiles.
# At n = 100 000, epsilon = 1 and replacement neighbours, the worst of 60
# seeded releases per (method, m) of the release mix was 0.0088 (indexp at
# m = 100); every other pair stayed below 0.0034, about the sampling error of
# the data itself.
RELEASE_SUP_ERROR_TOL = 0.03

# A protocol cell's mean error may differ from the recorded reference by at
# most this many standard errors of the difference, using the reference's
# per-trial spread: |mean - ref| <= K * sd_ref * sqrt(1/trials + 1/ref_trials).
MC_MEAN_ERROR_SIGMAS = 5.0


def expected_orders(m: int) -> list[float]:
    """The CLI's built-in centered grid, restated independently."""
    return [0.25 + j / (2.0 * (m + 1)) for j in range(1, m + 1)]


def check_release_csv(text: str, method: str, m: int, truth: list[float]) -> list[str]:
    """``dpq estimate`` CSV: exactly m rows with the requested orders, finite
    estimates in [0, 1], nondecreasing for recexp and histogram, and within
    RELEASE_SUP_ERROR_TOL of the true quantiles ``truth``."""
    lines = text.splitlines()
    if not lines or lines[0] != "p,q_hat":
        return [f"{method} m={m}: missing 'p,q_hat' header"]
    rows = lines[1:]
    if len(rows) != m:
        return [f"{method} m={m}: {len(rows)} rows, expected {m}"]
    problems = []
    estimates = []
    for i, (row, p_expected) in enumerate(zip(rows, expected_orders(m))):
        try:
            p_text, q_text = row.split(",")
            p, q = float(p_text), float(q_text)
        except ValueError:
            return [f"{method} m={m}: row {i + 1} is not 'p,q_hat': {row!r}"]
        if abs(p - p_expected) > 1e-12:
            problems.append(f"{method} m={m}: row {i + 1} has order {p}, expected {p_expected}")
        if not (math.isfinite(q) and 0.0 <= q <= 1.0):
            problems.append(f"{method} m={m}: row {i + 1} estimate {q} not finite in [0, 1]")
        estimates.append(q)
    if problems:
        return problems
    if method != "indexp" and any(a > b for a, b in zip(estimates, estimates[1:])):
        problems.append(f"{method} m={m}: estimates are not nondecreasing")
    sup_error = max(abs(q - t) for q, t in zip(estimates, truth))
    if sup_error > RELEASE_SUP_ERROR_TOL:
        problems.append(
            f"{method} m={m}: sup-norm error {sup_error:.4g} > {RELEASE_SUP_ERROR_TOL}"
        )
    return problems


def check_mc_determinism(csv_1w: dict[str, bytes], csv_2w: dict[str, bytes]) -> list[str]:
    """The 1-worker and 2-worker CSVs must be byte-identical."""
    if sorted(csv_1w) != sorted(csv_2w):
        return [f"CSV files differ: {sorted(csv_1w)} vs {sorted(csv_2w)}"]
    return [
        f"{name}: 1-worker and 2-worker outputs differ"
        for name in sorted(csv_1w)
        if csv_1w[name] != csv_2w[name]
    ]


def parse_protocol_csv(name: str, data: bytes) -> dict[tuple, tuple[float, float, int]]:
    """``{(csv name, m, estimator): (mean_error, std_error, trials)}``."""
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "m,estimator,mean_error,std_error,trials":
        raise ValueError(f"{name}: unexpected header")
    cells = {}
    for row in lines[1:]:
        m, estimator, mean, std, trials = row.split(",")
        cells[(name, int(m), estimator)] = (float(mean), float(std), int(trials))
    return cells


def check_mc_against_reference(csvs: dict[str, bytes], reference: dict) -> list[str]:
    """Every cell's mean error must sit within MC_MEAN_ERROR_SIGMAS standard
    errors of the recorded reference cell. A change that keeps the law of the
    estimators passes, even when it changes the random stream."""
    try:
        cells = {}
        for name, data in csvs.items():
            cells.update(parse_protocol_csv(name, data))
    except ValueError as exc:
        return [f"unreadable protocol CSV: {exc}"]
    ref_trials = reference["trials"]
    problems = []
    ref_keys = set()
    for ref in reference["cells"]:
        key = (ref["csv"], ref["m"], ref["estimator"])
        ref_keys.add(key)
        if key not in cells:
            problems.append(f"{key}: cell missing from the output")
            continue
        mean, _, trials = cells[key]
        if not math.isfinite(mean):
            problems.append(f"{key}: mean error {mean} is not finite")
            continue
        sd_ref = ref["std_error"] * math.sqrt(ref_trials)
        tol = MC_MEAN_ERROR_SIGMAS * sd_ref * math.sqrt(1.0 / trials + 1.0 / ref_trials)
        if abs(mean - ref["mean_error"]) > tol:
            problems.append(
                f"{key}: mean error {mean:.6g} differs from reference "
                f"{ref['mean_error']:.6g} by more than {tol:.3g}"
            )
    for key in sorted(set(cells) - ref_keys):
        problems.append(f"{key}: cell not in the reference")
    return problems


def check_audit(exit_code: int, report_text: str) -> tuple[list[str], int]:
    """``dpq verify dp-ratio``: exit code 0 and every report row passes.
    Returns the problems and the number of log-density-ratio checks the
    report says were made."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        suites = json.loads(report_text)["suites"]
        rows = [row for suite in suites for row in suite["rows"]]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc}"], 0
    if not rows:
        problems.append("report has no rows")
    failed_rows = [row for row in rows if row.get("passed") is not True]
    if failed_rows:
        problems.append(f"{len(failed_rows)} of {len(rows)} report rows failed")
    if not all(suite.get("passed") is True for suite in suites):
        problems.append("a suite reports failure")
    checks = sum(int(row.get("trials", 0)) for row in rows)
    return problems, checks
