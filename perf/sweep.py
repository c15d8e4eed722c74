"""Run the benchmark over several seeds and summarize the spread.

    python3 perf/sweep.py --seeds 1-10 --out .perf_results/new [--trace 0]
        [--workloads release,mc-protocol,dp-audit]
        [--against ../parent --against-out .perf_results/base]

Runs ``perf/run.py`` once per workload and seed, for the ``run_seconds`` of
``BENCHMARK.json`` and one run at a time, from the root of this checkout. It
writes every result record under ``--out`` and ends with ``compare.py
summarize`` over that directory.

With ``--against``, the root of a second checkout (for example the parent
commit, made with ``git clone`` or ``git archive``), each seed also runs
there, into ``--against-out``. Its ``BENCHMARK.json`` and ``perf/`` must be
byte-identical to this checkout's (copy them in), so both sides run the same
benchmark code; the sweep refuses to start otherwise. The two sides
alternate which runs first, seed by seed, so that a drift in the machine's
speed favours neither; the sweep ends with ``compare.py compare`` of the
second checkout (base) against this one (new). Sets run minutes apart can
differ by more than their own spread on identical code.

A run that exits nonzero, or reports a failed operation, stops the sweep with
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def same_benchmark(other: Path) -> bool:
    files = [Path("BENCHMARK.json")]
    files += [p.relative_to(ROOT) for p in PERF.iterdir() if p.is_file()]
    return all((other / f).is_file() and (other / f).read_bytes() == (ROOT / f).read_bytes()
               for f in files)


def run_once(root: Path, out: Path, workload: str, seed: int, seconds, trace: int) -> bool:
    cmd = [sys.executable, str(root / "perf" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    print(f"{root.name} {workload} seed {seed}: exit {proc.returncode} in {elapsed:.1f} s",
          flush=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not json.loads(last)["correct"]:
        sys.stderr.write(proc.stderr)
        return False
    return True


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", help="root of a second checkout to alternate with")
    parser.add_argument("--against-out", help="result directory of the --against runs")
    args = parser.parse_args(argv)
    if bool(args.against) != bool(args.against_out):
        parser.error("--against and --against-out go together")
    sides = [(ROOT, Path(args.out).resolve())]
    if args.against:
        other = Path(args.against).resolve()
        if not same_benchmark(other):
            parser.error(f"{other} does not hold this checkout's BENCHMARK.json and perf/")
        sides.append((other, Path(args.against_out).resolve()))
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            for root, out in sides if seed % 2 else sides[::-1]:
                if not run_once(root, out, workload, seed, spec["run_seconds"], args.trace):
                    return 1
    compare = [sys.executable, str(PERF / "compare.py")]
    for _, out in sides:
        subprocess.run(compare + ["summarize", str(out)], check=True)
    if args.against:
        subprocess.run(compare + ["compare", str(sides[1][1]), str(sides[0][1])], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
