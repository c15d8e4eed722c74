"""In-memory span recorder and the wrappers that attach it to dpquantiles.

Tracing replaces the module-global bindings that the program's callers look
up (for example ``dpquantiles.quantiles.sample_piecewise``) with wrappers that
record one span per call. Classes whose construction is measured get their
``__post_init__`` or ``__init__`` wrapped on the class, and the two oracle
methods are wrapped on ``DistributionOracle``. Nothing under ``src/`` is
edited: :meth:`Tracer.uninstall` restores every original binding.

A span is ``[span_id, parent_id, run_id, name, start_ns, end_ns]``. Spans of
one benchmark operation share its run id. Spans stay in memory until
:meth:`Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict

import dpquantiles.bench
import dpquantiles.cli
import dpquantiles.distributions
import dpquantiles.histogram
import dpquantiles.mechanisms
import dpquantiles.quantiles

_perf_ns = time.perf_counter_ns


def _n_plus_one(counts, args, kwargs, result):
    sample = args[0] if args else kwargs["sample"]
    counts["quantiles.qexp_density.intervals"] += sample.n + 1


def _loaded_values(counts, args, kwargs, result):
    counts["cli.load_data_file.values"] += result.n


def _validated(counts, args, kwargs, result):
    counts["quantiles.SortedSample.elements_validated"] += args[0].values.size


def _laplace_draws(counts, args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    counts["mechanisms.laplace_draw.draws"] += 1 if size is None else int(size)


def _sampled_values(counts, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    counts["distributions.sample.values"] += int(n)


# (owner, attribute, span name, counter). The owner is a module whose global
# binding its callers look up, or a class whose method is wrapped in place.
_M = dpquantiles
TRACE_POINTS = (
    (_M.cli, "load_data_file", "cli.load_data_file", _loaded_values),
    (_M.cli, "indexp", "quantiles.indexp", None),
    (_M.bench, "indexp", "quantiles.indexp", None),
    (_M.cli, "recexp", "quantiles.recexp", None),
    (_M.bench, "recexp", "quantiles.recexp", None),
    (_M.cli, "quantile_from_histogram", "histogram.quantile_from_histogram", None),
    (_M.bench, "quantile_from_histogram", "histogram.quantile_from_histogram", None),
    (_M.quantiles, "qexp_density", "quantiles.qexp_density", _n_plus_one),
    (_M.bench, "qexp_density", "quantiles.qexp_density", _n_plus_one),
    (_M.quantiles.SortedSample, "__post_init__", "quantiles.SortedSample", _validated),
    (_M.quantiles, "sample_piecewise", "mechanisms.sample_piecewise", None),
    (
        _M.mechanisms.WeightedIntervalDensity,
        "__post_init__",
        "mechanisms.WeightedIntervalDensity",
        None,
    ),
    (_M.bench, "log_density_grid", "mechanisms.log_density_grid", None),
    (_M.histogram, "laplace_draw", "mechanisms.laplace_draw", _laplace_draws),
    (_M.mechanisms.RandomSource, "__init__", "mechanisms.RandomSource", None),
    (_M.histogram, "bin_counts", "histogram.bin_counts", None),
    (_M.histogram, "generalized_quantiles", "histogram.generalized_quantiles", None),
    (_M.distributions.DistributionOracle, "sample", "distributions.sample", _sampled_values),
    (_M.distributions.DistributionOracle, "quantile", "distributions.quantile", None),
    (_M.bench, "run_trial", "bench.run_trial", None),
    (_M.cli, "neighboring_sample_pairs", "bench.neighboring_sample_pairs", None),
    (_M.cli, "verify_dp_ratio", "bench.verify_dp_ratio", None),
    (_M.bench, "max_log_density_ratio", "bench.max_log_density_ratio", None),
)


class Tracer:
    """Records spans around calls into dpquantiles while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.run_id, name, _perf_ns(), 0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = _perf_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        counts = self.counts
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            counts[calls_key] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers -----------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in TRACE_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the part of the span's
        interval that its child spans cover."""
        covered = [0] * len(self.spans)
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        for parent, intervals in children.items():
            lo, hi = self.spans[parent][4], self.spans[parent][5]
            total, reach = 0, lo
            for start, end in sorted(intervals):
                start, end = max(start, reach), min(end, hi)
                if end > start:
                    total += end - start
                    reach = end
            covered[parent] = total
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += (end - start - covered[sid]) / 1e9
        return dict(out)

    def write(self, path) -> int:
        """Write every span as a gzipped CSV row; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span_id,parent_id,run_id,name,start_ns,end_ns\n")
            for sid, parent, run, name, start, end in self.spans:
                parent_text = "" if parent is None else parent
                handle.write(f"{sid},{parent_text},{run},{name},{start},{end}\n")
        return len(self.spans)
