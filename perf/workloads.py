"""The three benchmark workloads, each a closed loop with one caller.

A workload is set up once, outside timing, and then runs *units* until the
time budget is spent: a unit is one cycle of the release mix, one protocol
pair (1 worker then 2 workers), or one audit call. An operation fails if it
raises, exits nonzero or fails its output check (see ``checks.py``).

With a tracer, each unit also runs the same work with the tracer installed,
so tracing overhead is measured on matched work. Only the program call is timed; output checks run outside the timer
and outside the root span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from dpquantiles import cli
from dpquantiles.bench import run_experiment
from dpquantiles.distributions import DistributionOracle

import checks
from spans import Tracer

PERF_DIR = Path(__file__).resolve().parent

RELEASE_N = 100_000
RELEASE_MIX = (
    [("indexp", m) for m in (1, 10, 100)]
    + [("recexp", m) for m in (1, 10, 100, 1000)]
    + [("histogram", m) for m in (1, 10, 100, 1000)]
)
RELEASE_ARGS = ("--epsilon", "1", "--relation", "replace", "--bins", "200")

MC_CONFIG = "configs/benchmark_default.cfg"
MC_TRIALS = 10
MC_REFERENCE = PERF_DIR / "mc_reference.json"

AUDIT_WARMUP_PAIRS = 300  # neighbour pairs per relation in the untimed warm-up audit

# work_per_s takes each kind of operation at this percentile of its times
RATE_PERCENTILE = 90


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sustained_rate(ops: list["Op"], units: int) -> float:
    """Work per second of a unit in which every operation takes the 90th
    percentile of the times that operations of its label took in the run.

    The host's speed shifts between a fast and a slow state, about 1.5x
    apart, that last for seconds, and the share of fast time differs from run
    to run. A mean rate follows that share; this rate follows the slow state,
    which every run meets, so it moves less between runs."""
    times: dict[str, list[float]] = {}
    for op in ops:
        times.setdefault(op.label, []).append(op.seconds)
    seconds = sum(percentile(t, RATE_PERCENTILE) for t in times.values())
    return sum(op.work for op in ops if op.ok) / units / seconds


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Work per run. ``smoke`` shrinks the mc-protocol and dp-audit units and
    the set-up timing for the smoke test; the release mix keeps its size."""

    mc_trials: int = MC_TRIALS
    audit_pairs: int | None = None  # neighbour pairs kept per relation
    setup_repeats: int = 5  # fresh-interpreter imports timed for setup_s

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(mc_trials=2, audit_pairs=300, setup_repeats=1)


@dataclasses.dataclass
class Op:
    label: str
    seconds: float  # wall time of the program call alone
    ok: bool
    work: int


class Workload:
    name = ""
    traced_root = ""  # name of the root span around a traced program call

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: Sizes, log=sys.stderr):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.log = log
        self.ops: list[Op] = []
        self.traced_ops: list[Op] = []
        self.units = 0
        self._tracer: Tracer | None = None  # set while a traced replay runs

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def unit(self, tracer: Tracer | None) -> None:
        """Run one unit. With a tracer, each operation is followed or preceded,
        in turn, by its traced replay, so both sides meet the same machine."""
        ops = self.unit_ops()
        if tracer is None:
            self.ops.extend(self._guarded(label, fn) for label, fn in ops)
        else:
            for i, (op, replay) in enumerate(zip(ops, self.replay(ops))):
                if (self.units + i) % 2:
                    self._traced(tracer, *replay)
                    self.ops.append(self._guarded(*op))
                else:
                    self.ops.append(self._guarded(*op))
                    self._traced(tracer, *replay)
        self.units += 1

    def _traced(self, tracer: Tracer, label: str, fn) -> None:
        tracer.run_id = self.units
        tracer.install()
        self._tracer = tracer
        try:
            self.traced_ops.append(self._guarded(label, fn))
        finally:
            self._tracer = None
            tracer.uninstall()

    def unit_ops(self):
        """``(label, fn)`` of one unit; ``fn`` returns (passed, work, seconds)."""
        raise NotImplementedError

    def replay(self, ops):
        """The traced replay of each operation of a unit."""
        return ops

    def untraced_seconds(self) -> float:
        """Program time of the untraced work that the traced replays repeat."""
        return sum(op.seconds for op in self.ops)

    def _timed(self, fn, *args, **kwargs):
        """Call into the program, inside the root span while tracing."""
        start = time.perf_counter()
        if self._tracer is None:
            result = fn(*args, **kwargs)
        else:
            sid = self._tracer.open(self.traced_root)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._tracer.close(sid)
        return result, time.perf_counter() - start

    def _call_cli(self, argv: list[str]) -> tuple[int, str, float]:
        """``cli.main`` in-process with stdout captured and stderr discarded."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, seconds = self._timed(cli.main, argv)
        return code, out.getvalue(), seconds

    def _guarded(self, label: str, fn) -> Op:
        start = time.perf_counter()
        try:
            ok, work, seconds = fn()
        except Exception:
            print(f"operation {label} raised:\n{traceback.format_exc()}", file=self.log)
            ok, work, seconds = False, 0, time.perf_counter() - start
        return Op(label, seconds, ok, work)

    def _passed(self, problems: list[str]) -> bool:
        for problem in problems:
            print(f"check failed: {problem}", file=self.log)
        return not problems

    def provenance(self) -> dict:
        return {}

    def extra_report(self) -> dict:
        """Workload-specific metrics under their full names: ``{name: (value, unit)}``."""
        return {}

    def dispatch_figures(self) -> dict:
        return {}


class ReleaseWorkload(Workload):
    """``dpq estimate`` in-process over a fixed method and m mix."""

    name = "release"
    traced_root = "cli.estimate"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        values = rng.beta(2.0, 5.0, RELEASE_N)
        rng.shuffle(values)
        self.data = self.workdir / "release_data.txt"
        self.data.write_text("\n".join(map(repr, values.tolist())) + "\n", encoding="utf-8")
        oracle = DistributionOracle(2.0, 5.0)
        self.truth = {
            m: [float(q) for q in oracle.quantile(np.asarray(checks.expected_orders(m)))]
            for _, m in RELEASE_MIX
        }
        self.call_seeds = np.random.default_rng([self.seed, 1])
        # warm-up: first-call costs, untimed
        for method in ("indexp", "recexp", "histogram"):
            self._release(method, 1, 0)

    def _release(self, method: str, m: int, call_seed: int) -> tuple[bool, int, float]:
        argv = ["estimate", "--data", str(self.data), "--method", method, "--m", str(m),
                *RELEASE_ARGS, "--seed", str(call_seed)]
        code, text, seconds = self._call_cli(argv)
        if code != 0:
            return self._passed([f"{method} m={m}: exit code {code}"]), 0, seconds
        problems = checks.check_release_csv(text, method, m, self.truth[m])
        return self._passed(problems), 1, seconds

    def unit_ops(self):
        seeds = [int(s) for s in self.call_seeds.integers(0, 2**63, len(RELEASE_MIX))]
        return [
            (f"{method} m={m}", lambda method=method, m=m, s=s: self._release(method, m, s))
            for (method, m), s in zip(RELEASE_MIX, seeds)
        ]

    def extra_report(self):
        out = {}
        for method in ("indexp", "recexp", "histogram"):
            ops = [op for op in self.ops if op.label.startswith(method + " ")]
            busy = sum(op.seconds for op in ops)
            out[f"release.{method}_per_s"] = (sum(op.ok for op in ops) / busy, "1/s")
        return out


class McProtocolWorkload(Workload):
    """``bench.run_experiment`` on the default protocol at 1 and 2 workers."""

    name = "mc-protocol"
    traced_root = "bench.run_experiment"

    def setup(self):
        config = cli.parse_config_file(str(self.root / MC_CONFIG))
        self.config = dataclasses.replace(config, trials=self.sizes.mc_trials)
        self.trials_per_pass = (
            len(self.config.distributions) * len(self.config.estimators)
            * len(self.config.m_grid) * self.config.trials
        )
        self.reference = json.loads(MC_REFERENCE.read_text(encoding="utf-8"))
        self.walls = {1: [], 2: []}

    def _pass(self, workers: int) -> tuple[dict[str, bytes], float]:
        """One protocol pass; returns its CSV outputs and its wall time."""
        result, seconds = self._timed(run_experiment, self.config, workers=workers)
        outdir = Path(tempfile.mkdtemp(prefix=f"mc-{workers}w-", dir=self.workdir))
        try:
            written = cli.write_experiment_outputs(result, outdir)
            return {p.name: p.read_bytes() for p in written if p.suffix == ".csv"}, seconds
        finally:
            shutil.rmtree(outdir)

    def _pair(self) -> tuple[bool, int, float]:
        csv_1w, wall_1w = self._pass(1)
        csv_2w, wall_2w = self._pass(2)
        self.walls[1].append(wall_1w)
        self.walls[2].append(wall_2w)
        problems = checks.check_mc_determinism(csv_1w, csv_2w)
        problems += checks.check_mc_against_reference(csv_1w, self.reference)
        return self._passed(problems), 2 * self.trials_per_pass, wall_1w + wall_2w

    def _traced_pass(self) -> tuple[bool, int, float]:
        csvs, seconds = self._pass(1)
        problems = checks.check_mc_against_reference(csvs, self.reference)
        return self._passed(problems), self.trials_per_pass, seconds

    def unit_ops(self):
        return [("pair", self._pair)]

    def replay(self, ops):
        # tracing covers the 1-worker pass only
        return [("traced 1-worker pass", self._traced_pass)]

    def untraced_seconds(self):
        return sum(self.walls[1])

    def provenance(self):
        return {"mc_trials_per_cell": self.config.trials,
                "mc_trials_per_pass": self.trials_per_pass}

    def extra_report(self):
        return {
            f"mc.trials_per_s_{w}w": (len(self.walls[w]) * self.trials_per_pass
                                      / sum(self.walls[w]), "1/s")
            for w in (1, 2)
        }

    def dispatch_figures(self):
        """2-worker figures from the untraced walls. At 1 worker a pass runs
        the trials back to back, so its wall time stands for the summed trial
        time."""
        wall_1w = statistics.fmean(self.walls[1])
        wall_2w = statistics.fmean(self.walls[2])
        return {
            "bench.scaling_efficiency_2w": wall_1w / (2.0 * wall_2w),
            "bench.dispatch_wait_s": wall_2w - wall_1w / 2.0,
        }


class DpAuditWorkload(Workload):
    """``dpq verify dp-ratio`` in-process."""

    name = "dp-audit"
    traced_root = "cli.verify"

    def setup(self):
        self._original_pairs = cli.neighboring_sample_pairs
        self._limit_pairs(AUDIT_WARMUP_PAIRS)
        self._audit()  # warm-up: first-call costs, untimed
        self._limit_pairs(self.sizes.audit_pairs)

    def _limit_pairs(self, limit: int | None) -> None:
        original = self._original_pairs
        cli.neighboring_sample_pairs = (
            original if limit is None else lambda *a, **k: original(*a, **k)[:limit]
        )

    def teardown(self):
        cli.neighboring_sample_pairs = self._original_pairs

    def _audit(self) -> tuple[bool, int, float]:
        code, text, seconds = self._call_cli(["verify", "dp-ratio"])
        problems, count = checks.check_audit(code, text)
        return self._passed(problems), count, seconds

    def unit_ops(self):
        return [("verify dp-ratio", self._audit)]

    def provenance(self):
        return {"audit_pairs_per_relation": self.sizes.audit_pairs or "all"}


WORKLOADS = {w.name: w for w in (ReleaseWorkload, McProtocolWorkload, DpAuditWorkload)}
