"""Summarize and compare result sets of the dpquantiles performance benchmark.

A result set is a directory of result records written by ``perf/run.py``
(one JSON file per run) or a ``BENCH_*.json`` file made by ``summarize``.

    python3 perf/compare.py summarize DIR [--output perf/BENCH_label.json]
    python3 perf/compare.py compare BASE NEW

``summarize`` gives, for every workload and end-to-end metric, the median,
the quartiles and the spread (interquartile range as a share of the median)
over the untraced runs, the per-layer medians of the traced runs, and the
provenance of the runs.

``compare`` judges every pair of end-to-end metric and workload, one row per
workload, with the bounds of ``BENCHMARK.json``:

- ``unresolved``: the spread of either side exceeds the bound, unless every
  new run reads better than every base run (then ``improved``);
- ``worse-beyond-bound``: the new median is worse than the base median by
  more than the bound;
- ``improved``: there are at least ten pairs of runs (paired by seed), the
  new run beats its base run in at least nine tenths of them, and the medians
  differ by more than the base's interquartile range. A better median on
  fewer pairs is ``unresolved``;
- ``unchanged``: anything else.

Ratios are new median / base median, printed with the base median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_records(path: Path) -> list[dict]:
    if path.is_dir():
        return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(path.glob("*.json"))]
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for record in records:
        if record["trace"] == trace and not record.get("smoke"):
            out.setdefault(record["workload"], []).append(record)
    return out


def gated(record: dict) -> dict[str, str]:
    """Report metrics of a run that have a bound: ``{full name: generic name}``.
    Every ``end_to_end`` metric of ``BENCHMARK.json`` is among them under its
    full name; the extra rates borrow the bound of ``work_per_s``."""
    return {name: m["bound_of"] for name, m in record["report"].items() if m.get("bound_of")}


def metric_stats(runs: list[dict], name: str) -> dict:
    values = [r["report"][name]["value"] for r in runs]
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
        "runs": len(values), "unit": runs[0]["report"][name]["unit"],
        "bound_of": runs[0]["report"][name]["bound_of"],
    }


def summarize(records: list[dict]) -> dict:
    untraced, traced = by_workload(records, 0), by_workload(records, 1)
    summary = {}
    for workload, runs in sorted(untraced.items()):
        summary[workload] = {
            "seeds": sorted(r["seed"] for r in runs),
            "failed_ops": sum(r["failed"] for r in runs),
            "attempted_ops": sum(r["attempted"] for r in runs),
            "end_to_end": {name: metric_stats(runs, name) for name in gated(runs[0])},
        }
    for workload, runs in sorted(traced.items()):
        names = runs[0]["report"].keys()
        summary.setdefault(workload, {})["per_layer_medians"] = {
            name: {"value": statistics.median(r["report"][name]["value"] for r in runs),
                   "unit": runs[0]["report"][name]["unit"]}
            for name in names
        }
        summary[workload]["traced_runs"] = len(runs)
    return summary


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    spread = max((q3b - q1b) / abs(mb), (q3n - q1n) / abs(mn))
    if len(base) < 2 or len(new) < 2:
        spread = float("inf")  # no run-to-run spread to judge by
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if sign * (mn - mb) / abs(mb) > bound:
        return "worse-beyond-bound"
    pairs = list(zip(base, new))
    if sign * (mn - mb) < 0:
        if len(pairs) < MIN_PAIRS:
            return "unresolved"
        wins = sum(sign * (n - b) < 0 for b, n in pairs)
        if wins >= WIN_SHARE * len(pairs) and abs(mn - mb) > q3b - q1b:
            return "improved"
    return "unchanged"


def compare(base_records: list[dict], new_records: list[dict], spec: dict) -> list[dict]:
    base, new = by_workload(base_records, 0), by_workload(new_records, 0)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for workload in sorted(set(base) | set(new)):
        row = {"workload": workload, "metrics": {}}
        if workload not in base or workload not in new:
            row["missing_in"] = "base" if workload not in base else "new"
            rows.append(row)
            continue
        # pair runs by seed when the sets share seeds, else use all runs
        b_by_seed = {r["seed"]: r for r in base[workload]}
        n_by_seed = {r["seed"]: r for r in new[workload]}
        shared = sorted(set(b_by_seed) & set(n_by_seed))
        b_runs = [b_by_seed[s] for s in shared] or base[workload]
        n_runs = [n_by_seed[s] for s in shared] or new[workload]
        for name, gate in gated(b_runs[0]).items():
            b_vals = [r["report"][name]["value"] for r in b_runs]
            n_vals = [r["report"][name]["value"] for r in n_runs]
            mb, mn = statistics.median(b_vals), statistics.median(n_vals)
            rule = metrics[gate]
            row["metrics"][name] = {
                "base_median": mb, "new_median": mn, "ratio": mn / mb,
                "unit": b_runs[0]["report"][name]["unit"], "bound": rule["bound"],
                "verdict": verdict(b_vals, n_vals, rule["better"], rule["bound"]),
                "pairs": len(shared),
            }
        rows.append(row)
    return rows


def _format_row(row: dict) -> str:
    if "missing_in" in row:
        return f"{row['workload']}: no untraced runs in the {row['missing_in']} set"
    cells = [
        f"{name} x{m['ratio']:.3f} of {m['base_median']:.4g} {m['unit']} {m['verdict']}"
        for name, m in row["metrics"].items()
    ]
    return f"{row['workload']}: " + " | ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    summ = sub.add_parser("summarize", help="medians, quartiles and spreads of one result set")
    summ.add_argument("results")
    summ.add_argument("--output", help="write a BENCH_*.json with the summary and the runs")
    comp = sub.add_parser("compare", help="judge NEW against BASE")
    comp.add_argument("base")
    comp.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    if args.command == "summarize":
        records = load_records(Path(args.results))
        summary = summarize(records)
        for workload, entry in summary.items():
            for name, st in entry.get("end_to_end", {}).items():
                print(f"{workload}: {name} median {st['median']:.6g} {st['unit']} "
                      f"[{st['q1']:.6g}, {st['q3']:.6g}] spread {st['spread']:.4f} "
                      f"(bound {bounds[st['bound_of']]} of {st['bound_of']}, runs {st['runs']})")
        if args.output:
            # per-operation latencies stay in the run records, out of the summary
            runs = [{k: v for k, v in r.items() if k != "ops"}
                    for r in records if not r.get("smoke")]
            payload = {"summary": summary, "provenance": runs[0]["provenance"] if runs else {},
                       "runs": runs}
            Path(args.output).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return 0

    for row in compare(load_records(Path(args.base)), load_records(Path(args.new)), spec):
        print(_format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
