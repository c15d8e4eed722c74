"""Smoke test of the performance benchmark at tiny sizes.

    python3 -m pytest -q perf/test_perf_smoke.py

Runs every workload once untraced and once traced with ``--smoke``, checks
that each metric named in ``BENCHMARK.json`` is emitted with its unit, and
hands the output checks corrupted outputs, which they must reject. It lives
outside ``tests/`` so the project's test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import checks  # noqa: E402
import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer counts that must be positive on each workload
EXERCISED = {
    "release": ["cli.load_data_file.calls", "quantiles.qexp_density.intervals",
                "mechanisms.laplace_draw.draws", "histogram.generalized_quantiles.calls"],
    "mc-protocol": ["bench.run_trial.calls", "distributions.sample.values",
                    "mechanisms.RandomSource.constructions", "bench.scaling_efficiency_2w"],
    "dp-audit": ["bench.max_log_density_ratio.calls", "mechanisms.log_density_grid.calls",
                 "bench.neighboring_sample_pairs.calls"],
}


def run_bench(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perf/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--smoke",
           "--out", str(tmp_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    proc = run_bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name in EXERCISED[workload]:
            assert metrics[name] > 0, name
        # the per-layer self times and the residual add up to the traced wall time
        self_times = sum(v for k, v in metrics.items()
                         if k.endswith(".s") and not k.startswith("trace."))
        assert self_times + metrics["trace.residual_s"] == pytest.approx(metrics["trace.wall_s"])
        assert abs(metrics["trace.residual_s"]) < 0.05 * metrics["trace.wall_s"]
    records = list(tmp_path.glob("*.json"))
    assert len(records) == 1
    provenance = json.loads(records[0].read_text())["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "mp_start_method",
                "git_commit", "workload_seed"):
        assert key in provenance


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "out", "release", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _release_csv(orders, estimates) -> str:
    return "p,q_hat\n" + "".join(f"{p!r},{q!r}\n" for p, q in zip(orders, estimates))


def test_release_check_rejects_corrupted_csv():
    m = 4
    orders = checks.expected_orders(m)
    truth = [0.2, 0.21, 0.3, 0.35]
    assert checks.check_release_csv(_release_csv(orders, truth), "recexp", m, truth) == []
    corrupted = {
        "row dropped": _release_csv(orders[:-1], truth[:-1]),
        "wrong order": _release_csv([0.1] + orders[1:], truth),
        "nan estimate": _release_csv(orders, [math.nan] + truth[1:]),
        "estimate above 1": _release_csv(orders, truth[:-1] + [1.5]),
        "decreasing": _release_csv(orders, [0.21, 0.2, 0.3, 0.35]),
        "far from truth": _release_csv(orders, [0.2, 0.21, 0.3, 0.6]),
        "no header": _release_csv(orders, truth).split("\n", 1)[1],
    }
    for what, text in corrupted.items():
        assert checks.check_release_csv(text, "recexp", m, truth), what
    # indexp outputs are not forced monotone
    assert checks.check_release_csv(corrupted["decreasing"], "indexp", m, truth) == []


def _reference_csvs(reference: dict, shift: float = 0.0) -> dict[str, bytes]:
    lines: dict[str, list[str]] = {}
    for cell in reference["cells"]:
        lines.setdefault(cell["csv"], ["m,estimator,mean_error,std_error,trials"]).append(
            f"{cell['m']},{cell['estimator']},{cell['mean_error'] + shift!r},"
            f"{cell['std_error']!r},{reference['trials']}")
    return {name: ("\n".join(rows) + "\n").encode() for name, rows in lines.items()}


def test_mc_checks_reject_corrupted_outputs():
    reference = json.loads((PERF / "mc_reference.json").read_text())
    good = _reference_csvs(reference)
    assert checks.check_mc_against_reference(good, reference) == []
    assert checks.check_mc_determinism(good, dict(good)) == []

    name = sorted(good)[0]
    flipped = dict(good)
    flipped[name] = good[name].replace(b"0.", b"1.", 1)
    assert checks.check_mc_determinism(good, flipped)
    assert checks.check_mc_against_reference(_reference_csvs(reference, 0.05), reference)
    missing = dict(good)
    missing[name] = b"\n".join(good[name].split(b"\n")[:-2]) + b"\n"
    assert checks.check_mc_against_reference(missing, reference)
    assert checks.check_mc_against_reference({name: b"garbage\n"}, reference)


def test_audit_check_rejects_corrupted_report():
    row = {"epsilon": 1.0, "trials": 10, "passed": True}
    good = json.dumps({"suites": [{"name": "dp-ratio", "passed": True, "rows": [row, row]}]})
    assert checks.check_audit(0, good) == ([], 20)
    bad_row = json.dumps({"suites": [{"name": "dp-ratio", "passed": True,
                                      "rows": [row, dict(row, passed=False)]}]})
    assert checks.check_audit(0, bad_row)[0]
    assert checks.check_audit(1, good)[0]
    assert checks.check_audit(0, "{not json")[0]
    assert checks.check_audit(0, json.dumps({"suites": []}))[0]


def _record(workload: str, seed: int, values: dict) -> dict:
    return {"workload": workload, "seed": seed, "trace": 0,
            "report": {k: {"value": v, "unit": "ms", "bound_of": k} for k, v in values.items()}}


def test_compare_verdicts():
    spec = {"end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1}]}
    base = [_record("w", s, {"t": 100.0 + s % 3}) for s in range(10)]

    def judged(values):
        new = [_record("w", s, {"t": v}) for s, v in enumerate(values)]
        return compare.compare(base, new, spec)[0]["metrics"]["t"]["verdict"]

    assert judged([100.0 + s % 3 for s in range(10)]) == "unchanged"
    assert judged([80.0 + s % 3 for s in range(10)]) == "improved"
    assert judged([120.0 + s % 3 for s in range(10)]) == "worse-beyond-bound"
    assert judged([60.0, 140.0] * 5) == "unresolved"
