"""Record the mc-protocol reference that the benchmark's output check uses.

    python3 perf/record_reference.py

Runs the default protocol (``configs/benchmark_default.cfg`` as it stands,
50 trials per cell) once and writes every cell's mean error and standard error
to ``perf/mc_reference.json``. The benchmark runs fewer trials per cell; the
check scales its tolerance by both trial counts. Re-record only when a change
is meant to alter the law of an estimator's output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dpquantiles import cli  # noqa: E402
from dpquantiles.bench import run_experiment  # noqa: E402

import checks  # noqa: E402
from workloads import MC_CONFIG, MC_REFERENCE  # noqa: E402


def main() -> int:
    config = cli.parse_config_file(str(ROOT / MC_CONFIG))
    result = run_experiment(config, workers=2)
    cells = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for path in cli.write_experiment_outputs(result, Path(tmp)):
            if path.suffix != ".csv":
                continue
            parsed = checks.parse_protocol_csv(path.name, path.read_bytes())
            for (name, m, estimator), (mean, std, _) in parsed.items():
                cells.append({"csv": name, "m": m, "estimator": estimator,
                              "mean_error": mean, "std_error": std})
    reference = {"config": MC_CONFIG, "trials": config.trials, "cells": cells}
    MC_REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MC_REFERENCE} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
