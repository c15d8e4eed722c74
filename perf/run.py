"""dpquantiles performance benchmark (not the program's Monte-Carlo runner,
``dpquantiles.bench``, which is one of the layers measured here).

Run one workload from the root of a checkout:

    python3 perf/run.py --workload release --seed 1 --seconds 30 --trace 0

or all three, each in its own process, with ``--workload all``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json``
with ``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``. The line
before it, ``report {...}``, carries every metric under its full name plus the
run's provenance, and the same record is written under ``--out``.

The program is imported from ``src/`` of the checkout; the run stops with an
error, before any measurement, when that tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("release", "mc-protocol", "dp-audit")

# generic end-to-end metric -> full name, per workload (setup_s keeps its name)
FULL_NAMES = {
    "release": {"p50_ms": "release.p50_ms", "p90_ms": "release.p90_ms",
                "work_per_s": "release.releases_per_s",
                "peak_rss_mb": "release.peak_rss_mb"},
    "mc-protocol": {"p50_ms": "mc.pair_p50_ms", "p90_ms": "mc.pair_p90_ms",
                    "work_per_s": "mc.trials_per_s", "peak_rss_mb": "mc.peak_rss_mb"},
    "dp-audit": {"p50_ms": "audit.call_p50_ms", "p90_ms": "audit.call_p90_ms",
                 "work_per_s": "audit.checks_per_s", "peak_rss_mb": "audit.peak_rss_mb"},
}
PREFIX = {"release": "release", "mc-protocol": "mc", "dp-audit": "audit"}
# root span of a traced unit -> per-layer name of its self time
ROOT_SELF = {
    "cli.estimate": "cli.estimate_rest.s",
    "bench.run_experiment": "bench.run_experiment.s",
    "cli.verify": "cli.verify_rest.s",
}
CONSTRUCTED = ("quantiles.SortedSample", "mechanisms.WeightedIntervalDensity",
               "mechanisms.RandomSource")


def _import_program():
    """Import dpquantiles from this checkout's ``src/``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import dpquantiles

    location = Path(dpquantiles.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"dpquantiles imported from {location}, not from {SRC}")


def measure_setup_seconds(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import ``dpquantiles.cli``,
    after one untimed import that also writes the bytecode caches.

    The wait has no timeout on purpose: with one, ``subprocess`` polls the
    child in sleeps of up to 50 ms, which would quantize the measurement."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import dpquantiles.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, extra: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dpquantiles").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
        **extra,
    }


def end_to_end(workload, setup_times: list[float]) -> tuple[dict, dict]:
    """Generic end-to-end metrics ``{name: (value, unit)}``, and the report
    ``{full name: (value, unit, generic metric whose bound applies)}``."""
    from workloads import percentile, sustained_rate

    latencies = [op.seconds * 1e3 for op in workload.ops]
    generic = {
        "setup_s": (statistics.median(setup_times), "s"),
        "p50_ms": (percentile(latencies, 50), "ms"),
        "p90_ms": (percentile(latencies, 90), "ms"),
        "work_per_s": (sustained_rate(workload.ops, workload.units), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    names = FULL_NAMES[workload.name]
    full = {names.get(key, key): (*value, key) for key, value in generic.items()}
    full[f"{PREFIX[workload.name]}.latency_samples"] = (len(latencies), "count", None)
    for name, value in workload.extra_report().items():
        full[name] = (*value, "work_per_s")  # every extra is a rate
    return generic, full


def per_layer(workload, tracer) -> dict:
    """Per-unit self seconds, calls and work counts of every traced layer."""
    from spans import TRACE_POINTS

    units = workload.units
    self_s = tracer.self_seconds()
    out = {}
    for _, _, name, _ in TRACE_POINTS:
        calls = "constructions" if name in CONSTRUCTED else "calls"
        out[f"{name}.{calls}"] = (tracer.counts.get(f"{name}.calls", 0) / units, "count")
        out[f"{name}.s"] = (self_s.get(name, 0.0) / units, "s")
    for key in ("quantiles.qexp_density.intervals", "cli.load_data_file.values",
                "quantiles.SortedSample.elements_validated", "mechanisms.laplace_draw.draws",
                "distributions.sample.values"):
        out[key] = (tracer.counts.get(key, 0) / units, "count")
    for root, metric in ROOT_SELF.items():
        out[metric] = (self_s.get(root, 0.0) / units, "s")
    dispatch = workload.dispatch_figures()
    out["bench.scaling_efficiency_2w"] = (dispatch.get("bench.scaling_efficiency_2w", 0.0), "ratio")
    out["bench.dispatch_wait_s"] = (dispatch.get("bench.dispatch_wait_s", 0.0), "s")
    traced = sum(op.seconds for op in workload.traced_ops)
    untraced = workload.untraced_seconds()
    out["trace.units"] = (units, "count")
    out["trace.spans"] = (len(tracer.spans) / units, "count")
    out["trace.wall_s"] = (traced / units, "s")
    out["trace.untraced_wall_s"] = (untraced / units, "s")
    out["trace.overhead"] = (traced / untraced, "ratio")
    out["trace.residual_s"] = ((traced - sum(self_s.values())) / units, "s")
    return out


def run_workload(args) -> int:
    try:
        _import_program()
        import workloads
        from spans import Tracer
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    sizes = workloads.Sizes.smoke() if args.smoke else workloads.Sizes()
    workdir = ROOT / ".perf_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed, sizes)
    tracer = Tracer() if args.trace else None
    try:
        workload.setup()
        setup_times = [] if args.trace else measure_setup_seconds(sizes.setup_repeats)
        start = time.perf_counter()
        while True:
            workload.unit(tracer)
            elapsed = time.perf_counter() - start
            # stop once a next unit of the mean length so far would end more
            # than half a unit past the budget: runs last about --seconds
            if elapsed * (1.0 + 0.5 / workload.units) >= args.seconds:
                break
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    all_ops = workload.ops + workload.traced_ops
    attempted = len(all_ops)
    failed = sum(not op.ok for op in all_ops)
    record = {
        "benchmark": "dpquantiles-perf",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "units": workload.units,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "provenance": provenance(args.seed, workload.provenance()),
    }
    if args.trace:
        source = full = per_layer(workload, tracer)
        wanted = spec["per_layer"]
    else:
        source, full = end_to_end(workload, setup_times)
        record["setup_samples_s"] = setup_times
        record["ops"] = [[op.label, op.seconds, op.ok] for op in workload.ops]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this run does not make: {missing}")
    record["metrics"] = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
                         for m in wanted}
    record["report"] = {
        name: dict(zip(("value", "unit", "bound_of"), entry)) for name, entry in full.items()
    }

    out_dir = Path(args.out) if args.out else ROOT / ".perf_results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if tracer is not None:
        record["spans_file"] = f"{stem}.spans.csv.gz"
        tracer.write(out_dir / record["spans_file"])
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, entry in full.items():
        print(f"{args.workload}: {name} = {entry[0]:.6g} {entry[1]}")
    print(f"{args.workload}: attempted {attempted}, failed {failed}, units {workload.units}")
    print("report " + json.dumps({"workload": args.workload, "report": record["report"],
                                  "provenance": record["provenance"]}))
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        report = json.loads(lines[-2][len("report "):])["report"]
        for key, value in report.items():
            if args.trace:
                key = f"{name}:{key}"  # per-layer names repeat across workloads
            elif key == "setup_s":
                key = f"{PREFIX[name]}.setup_s"
            metrics[key] = value
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= result["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"],
                        help="measure for about this long, in whole units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result directory (default: .perf_results)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny mc-protocol and dp-audit units, for the smoke test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
