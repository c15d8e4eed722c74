import json

import pytest

from dpquantiles import cli
from dpquantiles.bench import CheckReport

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

    def test_missing_file_exits_2(self):
        argv = ["estimate", "--data", "/nonexistent/x.txt", "--method", "recexp", "--m", "1",
                "--epsilon", "1"]
        assert cli.main(argv) == 2


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

    def test_fact_qexp_near_zero(self, capsys):
        assert cli.main(["bounds", "fact_qexp", "delta=1", "beta=0.999999", "eps=1"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(2e-6, rel=1e-4)

    def test_twelve_significant_digits(self, capsys):
        assert cli.main(["bounds", "lemma_qexp_lower", "n=5", "eps=1"]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "0.0410424993119"

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

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        def failing(seed, trials):
            return CheckReport("gap-law", False, [{
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

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["verify", "gap-law", "--seed", "-1", "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err and captured.out == ""

    def test_quantile_concentration_suite_passes(self, capsys):
        assert cli.main(["verify", "quantile-concentration", "--trials", "2000"]) == 0
        assert "suite quantile-concentration: PASS" in capsys.readouterr().err

    def test_dp_ratio_suite_passes(self, capsys):
        assert cli.main(["verify", "dp-ratio"]) == 0
        err = capsys.readouterr().err
        assert "suite dp-ratio: PASS" in err
        assert "relation=add-remove" in err

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "mystery"])
        assert err.value.code == 2
