import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpquantiles import bench, cli, quantiles
from dpquantiles.bench import CheckReport
from dpquantiles.errors import InvalidArgumentError
from dpquantiles.histogram import MAX_BIN_COUNT
from dpquantiles.mechanisms import WeightedIntervalDensity
from dpquantiles.quantiles import MAX_ORDER_COUNT

DATA = "0.2\n0.5\n0.8\n"

CONFIG = """\
# tiny benchmark configuration
config_version = 1
distributions = uniform, beta:2:5
estimators = indexp, recexp, histogram
n = 400
epsilon = 1.0
relation = add-remove
m_grid = 1, 3
trials = 2
bins = 16
base_seed = 12
orders = centered-grid
"""


def line_loop_load(path):
    # the line-by-line parser that load_data_file falls back to, kept as the
    # reference its whole-file fast path must agree with
    values = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    value = float(line)
                except ValueError:
                    raise InvalidArgumentError(f"{path}:{lineno}: not a decimal number: {line!r}")
                if math.isnan(value) or not 0.0 <= value <= 1.0:
                    raise InvalidArgumentError(f"{path}:{lineno}: value {value} outside [0, 1]")
                values.append(value)
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return np.sort(np.asarray(values, dtype=float))


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(DATA)
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG)
    return str(path)


class TestEstimate:
    def test_recexp_single_order_reproducible(self, data_file, tmp_path, capsys):
        out = tmp_path / "est.csv"
        argv = [
            "estimate", "--data", data_file, "--method", "recexp", "--m", "1",
            "--epsilon", "10", "--seed", "7", "--output", str(out),
        ]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "p,q_hat"
        assert len(lines) == 2
        p, q = (float(x) for x in lines[1].split(","))
        assert p == 0.5 and 0.0 <= q <= 1.0
        assert "epsilon_0" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize(
        "target,reason", [("missing/est.csv", "No such file or directory"), (".", "Is a directory")]
    )
    def test_unwritable_output_exits_2_naming_it(self, data_file, tmp_path, capsys, target, reason):
        out = tmp_path / target
        argv = [
            "estimate", "--data", data_file, "--method", "indexp", "--m", "2",
            "--epsilon", "1", "--output", str(out),
        ]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: {out}: {reason}\n") and captured.out == ""

    def test_histogram_zero_noise_hand_value(self, data_file, capsys):
        argv = [
            "estimate", "--data", data_file, "--method", "histogram", "--orders", "0.5",
            "--epsilon", "1", "--bins", "2", "--zero-noise",
        ]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert "NON-PRIVATE" in captured.err
        q = float(captured.out.splitlines()[1].split(",")[1])
        # counts (1, 2) on two bins: density (2/3, 4/3), integral at 0.5 is
        # 1/3, so the median crossing sits at 0.5 + (1/6) / (4/3) = 0.625
        assert q == pytest.approx(0.625, abs=1e-12)

    @pytest.mark.parametrize("bins", ["0", "100000000000"])
    def test_unusable_bin_count_exits_2_naming_it(self, data_file, monkeypatch, capsys, bins):
        # 1e11 bins used to end in a numpy memory error (745 GiB), exit 1
        def no_release(*args, **kwargs):
            raise AssertionError("histogram built for a rejected bin count")

        monkeypatch.setattr(cli, "quantile_from_histogram", no_release)
        argv = [
            "estimate", "--data", data_file, "--method", "histogram", "--m", "3",
            "--epsilon", "1", "--bins", bins,
        ]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --bins: bin count must be between 1 and {MAX_BIN_COUNT}, got {bins}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("m", ["0", "100000000000"])
    def test_unusable_order_count_exits_2_naming_it(self, data_file, capsys, m):
        # --m 1e11 used to build a grid of 1e11 floats, running until killed
        argv = ["estimate", "--data", data_file, "--method", "recexp", "--m", m, "--epsilon", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --m: order count must be between 1 and {MAX_ORDER_COUNT}, got {m}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("method", ["indexp", "histogram"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_2_naming_it(self, data_file, capsys, method, seed):
        argv = ["estimate", "--data", data_file, "--method", method, "--m", "3",
                "--epsilon", "1", "--seed", seed]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed: seed must be a 64-bit unsigned integer, got {seed}\n"
        assert captured.out == ""

    def test_zero_noise_rejected_for_exponential_mechanisms(self, data_file):
        argv = [
            "estimate", "--data", data_file, "--method", "indexp", "--m", "1",
            "--epsilon", "1", "--zero-noise",
        ]
        assert cli.main(argv) == 2

    def test_unknown_method_exits_2(self, data_file):
        with pytest.raises(SystemExit) as err:
            cli.main(["estimate", "--data", data_file, "--method", "magic", "--m", "1", "--epsilon", "1"])
        assert err.value.code == 2

    def test_value_out_of_range_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n1.5\n")
        argv = ["estimate", "--data", str(path), "--method", "recexp", "--m", "1", "--epsilon", "1"]
        assert cli.main(argv) == 2
        assert ":2:" in capsys.readouterr().err

    def test_malformed_number_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\npotato\n")
        assert cli.main(["estimate", "--data", str(path), "--method", "recexp", "--m", "1", "--epsilon", "1"]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_empty_file_histogram_exits_2(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        argv = ["estimate", "--data", str(path), "--method", "histogram", "--orders", "0.5", "--epsilon", "1"]
        assert cli.main(argv) == 2

    def test_comments_and_sorting(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("# header\n0.9\n0.1\n\n0.5\n")
        argv = ["estimate", "--data", str(path), "--method", "indexp", "--orders", "0.25,0.75",
                "--epsilon", "5", "--seed", "3"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "p,q_hat"
        assert len(out.splitlines()) == 3

    def test_orders_and_m_are_exclusive(self, data_file):
        argv = ["estimate", "--data", data_file, "--method", "recexp", "--m", "2",
                "--orders", "0.5", "--epsilon", "1"]
        assert cli.main(argv) == 2
        assert cli.main(["estimate", "--data", data_file, "--method", "recexp", "--epsilon", "1"]) == 2

    @pytest.mark.parametrize("method", ["indexp", "recexp", "histogram"])
    def test_nan_order_exits_2(self, data_file, method, capsys):
        argv = ["estimate", "--data", data_file, "--method", method, "--orders", "0.3,nan",
                "--epsilon", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_nonpositive_epsilon_exits_2(self, data_file):
        argv = ["estimate", "--data", data_file, "--method", "recexp", "--m", "1", "--epsilon", "0"]
        assert cli.main(argv) == 2

    def test_huge_budget_on_tied_data(self, tmp_path, capsys):
        # uncapped, (epsilon / 2) * rank distance overflowed every log-weight to -inf
        path = tmp_path / "tied.txt"
        path.write_text("0.5\n" * 7)
        argv = ["estimate", "--data", str(path), "--method", "recexp", "--m", "1",
                "--epsilon", "1.7e308", "--relation", "add-remove"]
        assert cli.main(argv) == 0
        q = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert 0.0 <= q <= 1.0

    def test_huge_budget_keeps_the_gap_lengths(self, tmp_path, capsys):
        # the intervals [0, 1e-300] and [1e-300, 1] are both one rank off the
        # target, so the long one must take nearly all the mass, as in indexp
        path = tmp_path / "tiny_gap.txt"
        path.write_text("0\n1e-300\n1e-300\n")
        argv = ["estimate", "--data", str(path), "--orders", "0.7", "--epsilon", "1e100",
                "--relation", "add-remove", "--seed", "3"]
        estimates = {}
        for method in ("recexp", "indexp"):
            assert cli.main(argv + ["--method", method]) == 0
            estimates[method] = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert 1e-300 < estimates["recexp"] <= 1.0
        assert estimates["recexp"] == estimates["indexp"]

    @pytest.mark.parametrize(
        "text",
        [
            "0.3\n0.1\n0.2\n",
            "0.3\n0.1",  # no final newline
            "",
            "0.1 0.2\n",
            "# header\n0.3\n0.1\n",
            "0.3\n\n0.1\n",
            "0.3\r\n0.1\r\n",
            "0.3\r0.1\r",
            " 0.25 \n\t0.5\x0c\n",
            "0.3\nnan\n",
            "0.3\n1.5\n",
            "0.3\n-inf\n",
            "1e-400\n-0.0\n1\n",
            "1_0\n",
            "0.5\n0x1p-2\n",
            "0.1,0.2\n",
            "0.1\t0.2\n",
            "0.1 0.2",
            "0.5\n   \n0.25\n",
            "\u0660.\u0665\n",  # Arabic-Indic digits: float() reads 0.5, loadtxt does not
            "\ufeff0.5\n",
            "0.5 # note\n",
            "0.5\u20280.25\n",  # a line break to str.splitlines, one line to the loop
            b"0.5\n\xff0.25\n",
        ],
    )
    def test_fast_path_accepts_what_the_line_loop_accepts(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        try:
            expected = line_loop_load(str(path))
        except InvalidArgumentError as err:
            with pytest.raises(InvalidArgumentError) as got:
                cli.load_data_file(str(path))
            assert str(got.value) == str(err)
        else:
            loaded = cli.load_data_file(str(path)).values
            assert loaded.dtype == expected.dtype and np.array_equal(loaded, expected)

    def test_bad_line_exits_2_with_its_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n0.1 0.2\n")
        argv = ["estimate", "--data", str(path), "--method", "indexp", "--m", "1", "--epsilon", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}:2: not a decimal number: '0.1 0.2'\n"

    @pytest.mark.parametrize("relation", ["replace", "add-remove"])
    def test_too_small_epsilon_is_named(self, data_file, relation, capsys):
        # sensitivity / epsilon overflows: the message names --epsilon, not the noise scale
        argv = ["estimate", "--data", data_file, "--method", "histogram", "--m", "2",
                "--epsilon", "1e-320", "--relation", relation]
        assert cli.main(argv) == 2
        assert "--epsilon 1e-320 is too small" in capsys.readouterr().err
        # the noiseless test mode draws no noise, so it has no scale to overflow
        assert cli.main(argv + ["--zero-noise"]) == 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        argv = ["estimate", "--data", str(path), "--method", "recexp", "--m", "1", "--epsilon", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    def test_directory_as_data_exits_2_naming_it(self, tmp_path, capsys):
        argv = ["estimate", "--data", str(tmp_path), "--method", "recexp", "--m", "1", "--epsilon", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0.5\n0.25\xff\n")
        argv = ["estimate", "--data", str(path), "--method", "recexp", "--m", "1", "--epsilon", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"


# (method, relation, extra arguments) -> SHA-256 of stdout and of stderr of
# `dpq estimate` on PINNED_DATA: the estimates and the budget line, byte for byte
PINNED_ESTIMATES = {
    ("indexp", "add-remove", ()): (
        "dd62580fb6e65bfc5df1c587d39cee1f7e78432e7f80a7350738d670fd2049fd",
        "2c190acf77abe7f4152051e0a9e3c91095a0dd902f6751eb4d3a142f40c55655",
    ),
    ("indexp", "replace", ()): (
        "dd62580fb6e65bfc5df1c587d39cee1f7e78432e7f80a7350738d670fd2049fd",
        "9caac634b1f37271d2b976b524e0b68afe2e3845fa51336e7399e14194b92609",
    ),
    ("recexp", "add-remove", ()): (
        "0671783e52994e147a50b89b0208be9af686f3e434212d28822eaea855ff5f90",
        "909545ca57e8f1c29b2b8b25b1671e090567b732890c0af1c73d616fcb51991d",
    ),
    ("recexp", "replace", ()): (
        "af338ff0f91eddf1100b2680cd47b44fd0e7720402aaecf35a0d3a3b7b79cde2",
        "d28620ff39aad6ebacd55320494ae544b675793b3c18563c9487e3b02b17eed1",
    ),
    ("histogram", "add-remove", ()): (
        "b0c7a9fcfca81b7ffcdb85953198fd5a2c1d0acf7c4ecd62ba5af73ddb807015",
        "14be7dd6876897d46d12a7f5ea349bf34b2855ca273fc50bca01daa4b0026481",
    ),
    ("histogram", "replace", ()): (
        "050ae324afaa1639e7c9b26082b2a7f1cafc23fec3477b3e559cce9da677a399",
        "6a0f1fefd3ac87be00cf94975e3f87934f7f579a62b1982e71d338372167232f",
    ),
    ("histogram", "replace", ("--zero-noise",)): (
        "8572608f690979dd4a6758a94dda5c7a2b41ce0f9b0906c0d18f66e95ff7ca4a",
        "b4e4fead791cc956ced14726c9d64e004a5ce038d894d0e522ec2a845cac50e7",
    ),
}
# 300 points skewed towards 0, each written as its repr
PINNED_DATA = "".join(f"{((k * 0.6180339887498949) % 1.0) ** 2.5!r}\n" for k in range(1, 301))


class TestEstimateBytes:
    @pytest.mark.parametrize("case", list(PINNED_ESTIMATES), ids=lambda c: " ".join((*c[:2], *c[2])))
    def test_stdout_and_stderr_are_pinned(self, case, tmp_path, capsys):
        method, relation, extra = case
        path = tmp_path / "pinned.txt"
        path.write_text(PINNED_DATA)
        argv = [
            "estimate", "--data", str(path), "--method", method, "--m", "7", "--epsilon", "1.5",
            "--relation", relation, "--bins", "16", "--seed", "3", *extra,
        ]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        digests = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (captured.out, captured.err))
        assert digests == PINNED_ESTIMATES[case], (captured.out, captured.err)


class TestBench:
    def test_single_trial_smoke_run_is_fast(self, tmp_path):
        # full-size n with one trial per cell stays far under a minute
        import time

        path = tmp_path / "smoke.cfg"
        path.write_text(
            CONFIG.replace("n = 400", "n = 10000")
            .replace("m_grid = 1, 3", "m_grid = 1, 10")
            .replace("trials = 2", "trials = 1")
        )
        start = time.perf_counter()
        assert cli.main(["bench", "--config", str(path), "--output", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 60.0

    def test_byte_identical_reruns_and_parallelism(self, config_file, tmp_path):
        outputs = []
        for i, workers in enumerate((1, 2, 1)):
            outdir = tmp_path / f"run{i}"
            argv = ["bench", "--config", config_file, "--output", str(outdir), "--workers", str(workers)]
            assert cli.main(argv) == 0
            outputs.append({p.name: p.read_bytes() for p in outdir.glob("*.csv")})
        assert outputs[0] == outputs[1] == outputs[2]
        assert set(outputs[0]) == {"uniform.csv", "beta-2-5.csv"}

    def test_summary_embeds_config(self, config_file, tmp_path):
        outdir = tmp_path / "out"
        assert cli.main(["bench", "--config", config_file, "--output", str(outdir)]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["config"]["base_seed"] == 12
        assert summary["config"]["orders"] == "centered-grid"
        assert len(summary["cells"]) == 2 * 3 * 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG + "mystery_knob = 3\n")
        assert cli.main(["bench", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        assert "mystery_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["config_version", "n", "relation", "m_grid", "trials", "bins", "base_seed"]
    )
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        path = tmp_path / "missing.cfg"
        path.write_text("".join(
            line + "\n" for line in CONFIG.splitlines() if not line.startswith(key + " ")
        ))
        assert cli.main(["bench", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: missing required key {key!r}\n"

    def test_too_small_epsilon_is_named(self, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text(CONFIG.replace("epsilon = 1.0", "epsilon = 1e-320"))
        assert cli.main(["bench", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        assert "epsilon 1e-320 is too small" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_exits_2(self, config_file, tmp_path, capsys, workers):
        argv = ["bench", "--config", config_file, "--output", str(tmp_path / "o"), "--workers", workers]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
        assert cli.main(["bench", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid continuation byte)\n"
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert cli.main(["bench", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"
        assert not (tmp_path / "o").exists()

    def test_close_shape_parameters_get_their_own_files(self, tmp_path):
        # rounded to 6 digits, both shapes were labelled beta(2,5)
        path = tmp_path / "close.cfg"
        path.write_text(CONFIG.replace("uniform, beta:2:5", "beta:2:5, beta:2.0000001:5"))
        outdir = tmp_path / "o"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 0
        tables = {p.name: p.read_text() for p in outdir.glob("*.csv")}
        assert set(tables) == {"beta-2-5.csv", "beta-2.0000001-5.csv"}
        for text in tables.values():
            assert len(text.splitlines()) == 1 + 3 * 2  # header, estimators x m_grid
        assert tables["beta-2-5.csv"] != tables["beta-2.0000001-5.csv"]
        summary = json.loads((outdir / "summary.json").read_text())
        labels = [d["label"] for d in summary["config"]["distributions"]]
        assert labels == ["beta(2,5)", "beta(2.0000001,5)"]

    @pytest.mark.parametrize("entry", ["beta:inf:1", "beta:1:inf", "beta:0:1"])
    def test_unusable_shape_exits_2_naming_the_key(self, tmp_path, capsys, entry):
        # an infinite shape used to fail in the first trial, with exit 1
        path = tmp_path / "shape.cfg"
        path.write_text(CONFIG.replace("uniform, beta:2:5", f"uniform, {entry}"))
        outdir = tmp_path / "o"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: key 'distributions': shape parameters must be")
        assert not outdir.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_base_seed_exits_2_before_the_run(self, tmp_path, capsys, seed):
        # such a seed used to fail in the first trial, after the output
        # directory was made, without naming the config or the key
        path = tmp_path / "seed.cfg"
        path.write_text(CONFIG.replace("base_seed = 12", f"base_seed = {seed}"))
        outdir = tmp_path / "o"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: key 'base_seed': seed must be a 64-bit unsigned integer, got {seed}\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize("bins", ["0", "100000000000"])
    def test_unusable_bin_count_exits_2_before_the_run(self, tmp_path, monkeypatch, capsys, bins):
        # 1e11 bins used to fail in the first trial, exit 1, after the
        # output directory was made
        def no_run(*args, **kwargs):
            raise AssertionError("experiment run for a rejected bin count")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        path = tmp_path / "bins.cfg"
        path.write_text(CONFIG.replace("bins = 16", f"bins = {bins}"))
        outdir = tmp_path / "o"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: key 'bins': bin count must be between 1 and {MAX_BIN_COUNT}, "
            f"got {bins}\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "config,key,count",
        [
            (CONFIG.replace("m_grid = 1, 3", "m_grid = 1, 100000000000"), "m_grid", 100000000000),
            (
                CONFIG.replace("m_grid = 1, 3\n", "").replace("orders = centered-grid", "orders = 0.2,0.4,0.6"),
                "orders",
                3,
            ),
        ],
    )
    def test_unusable_order_count_exits_2_before_the_run(
        self, tmp_path, monkeypatch, capsys, config, key, count
    ):
        # explicit orders are checked at a cap of 2 here: a list past the
        # real cap would take a file of about 100 MB
        def no_run(*args, **kwargs):
            raise AssertionError("experiment run for a rejected order count")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        cap = 2 if key == "orders" else MAX_ORDER_COUNT
        monkeypatch.setattr(quantiles, "MAX_ORDER_COUNT", cap)
        path = tmp_path / "orders.cfg"
        path.write_text(config)
        outdir = tmp_path / "o"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: key '{key}': order count must be between 1 and {cap}, got {count}\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "key, value", [("n", "0"), ("n", "1000000000000"), ("trials", "0"), ("trials", "1000000000000")]
    )
    def test_unusable_sample_size_or_trial_count_exits_2_before_the_run(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # n = 1e12 used to end in a 7.28 TiB allocation error, exit 1
        def no_run(*args, **kwargs):
            raise AssertionError("experiment run for a rejected config")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        cap = bench.MAX_SAMPLE_SIZE if key == "n" else bench.MAX_TRIALS
        path = tmp_path / "sizes.cfg"
        path.write_text(CONFIG.replace({"n": "n = 400", "trials": "trials = 2"}[key], f"{key} = {value}"))
        expected = f"{path}: key '{key}': must be between 1 and {cap}, got {value}"
        with pytest.raises(InvalidArgumentError) as err:
            cli.parse_config_file(str(path))
        assert str(err.value) == expected
        outdir = tmp_path / "o"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not outdir.exists()

    def test_summary_reports_sample_time_and_stream_layout(self, config_file, tmp_path):
        outdir = tmp_path / "out"
        assert cli.main(["bench", "--config", config_file, "--output", str(outdir)]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["sample_time_s"] > 0.0
        assert all(cell["wall_time_s"] > 0.0 for cell in summary["cells"])
        assert "stream=(distribution_index, trial_index)" in summary["seed_derivation"]

    def test_bad_version_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG.replace("config_version = 1", "config_version = 2"))
        assert cli.main(["bench", "--config", str(path), "--output", str(tmp_path / "o")]) == 2

    def test_explicit_orders_config(self, tmp_path):
        path = tmp_path / "explicit.cfg"
        path.write_text(
            CONFIG.replace("m_grid = 1, 3\n", "").replace("orders = centered-grid", "orders = 0.3,0.6")
        )
        outdir = tmp_path / "out"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 0
        lines = (outdir / "uniform.csv").read_text().splitlines()
        assert lines[1].startswith("2,indexp,")

    @pytest.mark.parametrize("orders", ["0.5,1.5", "0.3,nan"])
    def test_invalid_explicit_orders_exit_2(self, tmp_path, capsys, orders):
        path = tmp_path / "explicit.cfg"
        path.write_text(
            CONFIG.replace("m_grid = 1, 3\n", "").replace("orders = centered-grid", f"orders = {orders}")
        )
        outdir = tmp_path / "out"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "orders" in err
        assert not outdir.exists()

    def test_unusable_output_directory_exits_2_before_the_run(
        self, config_file, tmp_path, capsys, monkeypatch
    ):
        def run_experiment(*args, **kwargs):
            raise AssertionError("the protocol ran")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        taken = tmp_path / "taken"
        taken.write_text("")
        for outdir, reason in ((taken, "File exists"), (taken / "o", "Not a directory")):
            assert cli.main(["bench", "--config", config_file, "--output", str(outdir)]) == 2
            assert capsys.readouterr().err == f"error: {outdir}: {reason}\n"

    def test_unwritable_output_file_exits_2_naming_it(self, config_file, tmp_path, capsys):
        summary = tmp_path / "o" / "summary.json"
        summary.mkdir(parents=True)
        assert cli.main(["bench", "--config", config_file, "--output", str(summary.parent)]) == 2
        assert capsys.readouterr().err == f"error: {summary}: Is a directory\n"

    @pytest.mark.parametrize(
        "key,value,repeated",
        [
            ("distributions", "uniform, beta:2:5, beta:2:5", "beta(2,5)"),
            ("distributions", "beta:2:5, beta:2.0:5", "beta(2,5)"),
            ("estimators", "indexp, indexp", "indexp"),
            ("m_grid", "2, 2", "2"),
        ],
    )
    def test_repeated_entry_exits_2_naming_the_key(self, tmp_path, capsys, key, value, repeated):
        # a repeat used to run its cells twice, as indistinguishable CSV rows
        path = tmp_path / "repeats.cfg"
        path.write_text("".join(
            f"{key} = {value}\n" if line.startswith(key + " ") else line + "\n"
            for line in CONFIG.splitlines()
        ))
        outdir = tmp_path / "o"
        assert cli.main(["bench", "--config", str(path), "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {path}: key {key!r}: {repeated} is given twice\n"
        assert not outdir.exists()


# expected values computed independently with 40-digit mpmath arithmetic
FORMULA_CASES = {
    "fact_qexp": (["delta=0.001", "beta=0.05", "eps=50"], 0.3961395021014451),
    "fact_recexp": (["delta=0.001", "beta=0.05", "eps=1", "m=4"], 203.21607444580834),
    "thm_qexp": (
        ["n=10000", "gamma=0.05", "eps=1", "pi_lower=0.5", "pi_upper=1.5"],
        48.05264022438691,
    ),
    "thm_indexp": (
        ["n=10000", "m=8", "gamma=0.05", "eps=1", "pi_lower=0.5", "pi_upper=1.5"],
        344160.1875127181,
    ),
    "thm_recexp": (
        ["n=10000", "m=8", "gamma=0.05", "eps=1", "pi_lower=0.5", "pi_upper=1.5"],
        198283.73488781145,
    ),
    "thm_hist": (
        ["n=10000", "gamma=0.3", "eps=1", "pi_lower=1", "pi_upper=1", "lipschitz=0", "h=0.1"],
        11.39565649461846,
    ),
    "lemma_hist_density": (
        ["n=10000", "gamma=5.5", "eps=1", "lipschitz=6", "h=0.01"],
        0.12244630967367259,
    ),
    "lemma_qexp_lower": (["n=5", "eps=1"], 0.0410424993119494),
    "indexp_lower": (["n=100", "m=4", "eps=2"], 6.94397193248201e-12),
    "recexp_lower": (["n=100", "m=8", "eps=2"], 6.94397193248201e-12),
    "gap_survival": (["n=2", "gamma=0.1"], 0.49),
    "lemma_gap_lower": (["gamma=0.1", "pi_upper=1"], 0.6703200460356393),
    "lemma_quantile_concentration": (
        ["n=400", "p=0.25", "gamma=0.1", "pi_lower=0.8"],
        1.8614367535676805,
    ),
}


class TestBounds:
    def test_gap_survival_value(self, capsys):
        assert cli.main(["bounds", "gap_survival", "n=1", "gamma=0.25"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    @pytest.mark.parametrize("formula", sorted(FORMULA_CASES))
    def test_every_formula_evaluates(self, formula, capsys):
        assignments, expected = FORMULA_CASES[formula]
        assert cli.main(["bounds", formula] + assignments) == 0
        printed = float(capsys.readouterr().out)
        assert printed == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("formula", ["thm_qexp", "thm_indexp", "thm_recexp"])
    def test_tail_at_huge_n_is_finite(self, formula, capsys):
        # the prefactor overflows and the exponential underflows there, so the
        # product is only finite when it is formed in log space
        assignments = ["n=1e308", "gamma=0.05", "eps=1", "pi_lower=0.5", "pi_upper=1.5"]
        if formula != "thm_qexp":
            assignments.append("m=8")
        assert cli.main(["bounds", formula] + assignments) == 0
        assert math.isfinite(float(capsys.readouterr().out))

    def test_fact_qexp_near_zero(self, capsys):
        assert cli.main(["bounds", "fact_qexp", "delta=1", "beta=0.999999", "eps=1"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(2e-6, rel=1e-4)

    def test_twelve_significant_digits(self, capsys):
        assert cli.main(["bounds", "lemma_qexp_lower", "n=5", "eps=1"]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "0.0410424993119"

    @pytest.mark.parametrize("formula", ["lemma_qexp_lower", "indexp_lower", "recexp_lower"])
    def test_floors_echo_no_guard(self, formula, capsys):
        # the floors take no gamma, so no guard on it is checked or claimed
        assert cli.main(["bounds", formula] + FORMULA_CASES[formula][0]) == 0
        assert capsys.readouterr().err == ""

    def test_guard_violation_exits_3(self, capsys):
        argv = ["bounds", "thm_hist", "n=1000", "gamma=0.01", "eps=1",
                "pi_lower=0.5", "pi_upper=1.5", "lipschitz=2", "h=0.01"]
        assert cli.main(argv) == 3
        assert "precondition" in capsys.readouterr().err

    def test_unknown_formula_exits_2(self):
        assert cli.main(["bounds", "mystery", "x=1"]) == 2

    def test_missing_argument_exits_2(self, capsys):
        assert cli.main(["bounds", "gap_survival", "n=1"]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_unexpected_argument_exits_2(self):
        assert cli.main(["bounds", "gap_survival", "n=1", "gamma=0.1", "zeta=2"]) == 2

    @pytest.mark.parametrize("formula", sorted(FORMULA_CASES))
    def test_arguments_follow_the_evaluator_signature(self, formula, capsys):
        # the names and their order come from the evaluator's signature
        assert cli.main(["bounds", formula]) == 2
        names = [item.partition("=")[0] for item in FORMULA_CASES[formula][0]]
        assert capsys.readouterr().err == (
            f"error: formula {formula!r} is missing: {', '.join(names)}\n"
        )

    @pytest.mark.parametrize(
        "assignments, message",
        [
            (["n=inf", "eps=1"], "not an integer"),
            (["n=nan", "eps=1"], "not an integer"),
            (["n=2.5", "eps=1"], "not an integer"),
            (["n=5", "n=6", "eps=1"], "given twice"),
        ],
        ids=["inf", "nan", "fraction", "repeated"],
    )
    def test_bad_integer_argument_exits_2(self, assignments, message, capsys):
        assert cli.main(["bounds", "lemma_qexp_lower"] + assignments) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "'n'" in captured.err
        assert captured.out == ""


# SHA-256 of the stdout of `dpq verify lower-bound` and `dpq verify dp-ratio`,
# recorded while the lower-bound suite still integrated a per-density law
# (x86-64, numpy 2.4): both suites are exact, so their reports keep these bytes
LOWER_BOUND_STDOUT_SHA256 = "7fa90e979f9070928420b36c1835538d98627737ffe71a10268f8ddfa5b48809"
DP_RATIO_STDOUT_SHA256 = "65873c06306fd598b79ab236a20a20fb3d14073394574daf7c686f380a040eb6"
GAP_LAW_STDOUT_SHA256 = "c81b38f8a69202520d2f5337252f6b6196fee79e6aafaf36533844da572276a3"
QUANTILE_CONCENTRATION_STDOUT_SHA256 = "ac1ff1f20395272db44e1505adbdc7df12b07a3e32151deaa27f4a87865dc464"


class TestVerify:
    def test_gap_law_suite_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        argv = ["verify", "gap-law", "--seed", "5", "--trials", "4000", "--output", str(report_path)]
        assert cli.main(argv) == 0
        payload = json.loads(report_path.read_text())
        assert payload["suites"][0]["name"] == "gap-law"
        assert payload["suites"][0]["passed"] is True
        rows = payload["suites"][0]["rows"]
        assert {"bound", "empirical", "trials", "ci_low", "ci_high", "passed"} <= set(rows[0])
        assert "PASS" in capsys.readouterr().err

    def test_lower_bound_suite_passes(self, capsys):
        assert cli.main(["verify", "lower-bound"]) == 0
        assert "suite lower-bound: PASS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, digest",
        [
            ("lower-bound", LOWER_BOUND_STDOUT_SHA256),
            ("dp-ratio", DP_RATIO_STDOUT_SHA256),
        ],
    )
    def test_exact_suite_report_keeps_its_bytes(self, capsys, suite, digest):
        assert cli.main(["verify", suite]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "suite, digest",
        [
            ("gap-law", GAP_LAW_STDOUT_SHA256),
            ("quantile-concentration", QUANTILE_CONCENTRATION_STDOUT_SHA256),
        ],
    )
    def test_monte_carlo_suite_report_keeps_its_bytes(self, capsys, suite, digest):
        # at the default seed 0
        assert cli.main(["verify", suite, "--trials", "2000"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_lower_bound_suite_builds_no_density(self, monkeypatch, capsys):
        # the suite reads the law off qexp_log_weights, with the same bytes
        def no_density(*args, **kwargs):
            raise AssertionError("the lower-bound suite built a per-density law")

        monkeypatch.setattr(bench, "qexp_density", no_density)
        monkeypatch.setattr(WeightedIntervalDensity, "__post_init__", no_density)
        assert cli.main(["verify", "lower-bound"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LOWER_BOUND_STDOUT_SHA256

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        def failing(seed, trials):
            return CheckReport("gap-law", [{
                "bound": 0.5, "empirical": 0.9, "trials": trials,
                "ci_low": 0.8, "ci_high": 1.0, "passed": False,
            }])

        monkeypatch.setitem(cli._SUITES, "gap-law", failing)
        assert cli.main(["verify", "gap-law"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_zero_noise_flag_rejected(self):
        # the suites add no noise, so verify has no zero-noise mode
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "lower-bound", "--zero-noise"])
        assert err.value.code == 2

    @pytest.mark.parametrize("suite", ["gap-law", "quantile-concentration", "all"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_exit_2(self, suite, trials, capsys):
        assert cli.main(["verify", suite, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials" in captured.err and captured.out == ""

    @pytest.mark.parametrize("suite", ["gap-law", "dp-ratio", "quantile-concentration", "all"])
    def test_trials_past_the_cap_exit_2_before_any_suite_runs(self, monkeypatch, capsys, suite):
        # gap-law at 1e9 trials used to end in a 7.45 GiB allocation error, exit 1
        def no_suite(seed, trials):
            raise AssertionError("a suite ran with a rejected trial count")

        for name in cli._SUITES:
            monkeypatch.setitem(cli._SUITES, name, no_suite)
        cap = cli.MAX_VERIFY_TRIALS
        assert cli.main(["verify", suite, "--trials", str(cap + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --trials must be between 1 and {cap}, got {cap + 1}\n"
        assert captured.out == ""

    def test_trials_at_the_cap_run(self, monkeypatch, capsys):
        seen = []

        def suite(seed, trials):
            seen.append(trials)
            return CheckReport("gap-law", [])

        monkeypatch.setitem(cli._SUITES, "gap-law", suite)
        assert cli.main(["verify", "gap-law", "--trials", str(cli.MAX_VERIFY_TRIALS)]) == 0
        assert seen == [cli.MAX_VERIFY_TRIALS]

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["verify", "gap-law", "--seed", "-1", "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err and captured.out == ""

    @pytest.mark.parametrize("suite", ["gap-law", "dp-ratio", "lower-bound", "quantile-concentration", "all"])
    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_bad_seed_exits_2_before_any_suite_runs(self, monkeypatch, capsys, suite, seed):
        # dp-ratio and lower-bound draw nothing, and used to ignore the seed
        def no_suite(seed, trials):
            raise AssertionError("a suite ran with a rejected seed")

        for name in cli._SUITES:
            monkeypatch.setitem(cli._SUITES, name, no_suite)
        assert cli.main(["verify", suite, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed: seed must be a 64-bit unsigned integer, got {seed}\n"
        assert captured.out == ""

    def test_quantile_concentration_suite_passes(self, capsys):
        assert cli.main(["verify", "quantile-concentration", "--trials", "2000"]) == 0
        assert "suite quantile-concentration: PASS" in capsys.readouterr().err

    def test_dp_ratio_suite_passes(self, capsys):
        assert cli.main(["verify", "dp-ratio"]) == 0
        err = capsys.readouterr().err
        assert "suite dp-ratio: PASS" in err
        assert "relation=add-remove" in err

    def test_dp_ratio_report_is_pinned(self, capsys):
        # the exact sups of the audit grid, as the tuple-pair audit gave them
        assert cli.main(["verify", "dp-ratio"]) == 0
        rows = json.loads(capsys.readouterr().out)["suites"][0]["rows"]
        assert [(row["relation"], row["epsilon"], repr(row["empirical"])) for row in rows] == [
            ("add-remove", 0.5, "0.44040532864419124"),
            ("add-remove", 1.0, "0.9049816739135957"),
            ("add-remove", 4.0, "3.8718601077843102"),
            ("replace", 0.5, "0.41963879469544374"),
            ("replace", 1.0, "0.8716909507169753"),
            ("replace", 4.0, "3.8410134710966126"),
        ]

    @pytest.mark.parametrize("passed", [True, False])
    def test_unwritable_output_exits_2_naming_it(self, monkeypatch, tmp_path, capsys, passed):
        def suite(seed, trials):
            return CheckReport("gap-law", [{
                "bound": 0.5, "empirical": 0.4, "trials": trials,
                "ci_low": 0.3, "ci_high": 0.5, "passed": passed,
            }])

        monkeypatch.setitem(cli._SUITES, "gap-law", suite)
        out = tmp_path / "missing" / "report.json"
        assert cli.main(["verify", "gap-law", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: {out}: No such file or directory\n")
        assert captured.out == ""

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "mystery"])
        assert err.value.code == 2


def test_estimate_and_dp_ratio_load_no_scipy(tmp_path):
    # only the Beta truth oracle needs scipy, whose import was about two thirds
    # of every command's start-up
    data = tmp_path / "data.txt"
    data.write_text(DATA)
    code = f"""
import contextlib, io, sys
from dpquantiles import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for method in ("indexp", "recexp", "histogram"):
        assert cli.main(["estimate", "--data", {str(data)!r}, "--method", method,
                         "--m", "3", "--epsilon", "1", "--seed", "1"]) == 0
    assert cli.main(["verify", "dp-ratio"]) == 0
    assert cli.main(["verify", "all", "--trials", "50"]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
import scipy.special
from dpquantiles.distributions import DistributionOracle
print(DistributionOracle(2.0, 5.0).quantile(0.5).hex() == scipy.special.betaincinv(2.0, 5.0, 0.5).hex())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\nTrue\n"
