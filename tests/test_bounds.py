import math

import mpmath
import numpy as np
import pytest

from dpquantiles import bounds
from dpquantiles.distributions import DensityEnvelope
from dpquantiles.errors import BoundPreconditionError, InvalidArgumentError

mpmath.mp.dps = 50

ENVELOPE = DensityEnvelope(lower=0.5, upper=1.5, lipschitz=2.0)


def hp(expr) -> float:
    """Evaluate a high-precision mpmath expression down to a float."""
    return float(expr)


class TestFactThresholds:
    def test_qexp_examples(self):
        assert bounds.fact_qexp_threshold(math.exp(-1), math.exp(-1), 2.0) == pytest.approx(2.0, abs=1e-14)
        value = bounds.fact_qexp_threshold(1e-3, 0.05, 50.0)
        expected = hp(2 * (mpmath.log(1000) + mpmath.log(20)) / 50)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(0.39613950210144513, rel=1e-12)

    def test_qexp_vanishes_when_logs_vanish(self):
        assert bounds.fact_qexp_threshold(1.0, 0.999999, 1.0) == pytest.approx(2e-6, rel=1e-5)

    def test_recexp_reduces_at_m1(self):
        assert bounds.fact_recexp_threshold(0.01, 0.1, 2.0, 1) == bounds.fact_qexp_threshold(0.01, 0.1, 2.0)

    def test_recexp_examples(self):
        value = bounds.fact_recexp_threshold(math.exp(-1), math.exp(-1), 8.0, 2)
        assert value == pytest.approx(2.0 + math.log(2.0), abs=1e-14)
        value = bounds.fact_recexp_threshold(1e-3, 0.05, 1.0, 4)
        expected = hp(2 * (mpmath.log(4, 2) + 1) ** 2 * (mpmath.log(1000) + mpmath.log(4) + mpmath.log(20)))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            bounds.fact_qexp_threshold(0.0, 0.1, 1.0)
        with pytest.raises(InvalidArgumentError):
            bounds.fact_qexp_threshold(0.5, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            bounds.fact_recexp_threshold(0.5, 0.5, 1.0, 0)


class TestUpperTails:
    def test_qexp_vacuous_at_tiny_gamma(self):
        assert bounds.thm_qexp_tail(100, 1e-12, 1.0, ENVELOPE) >= 4.0

    def test_qexp_arithmetic(self):
        value = bounds.thm_qexp_tail(10_000, 0.05, 1.0, ENVELOPE)
        expected = hp(
            4 * 10_000 * mpmath.sqrt(2 * mpmath.e * mpmath.mpf("1.5"))
            * mpmath.e ** (-mpmath.mpf("1") * 10_000 * mpmath.mpf("0.05") * mpmath.mpf("0.5") / 32)
            + 4 * mpmath.e ** (-(mpmath.mpf("0.05") ** 2) * mpmath.mpf("0.5") ** 2 * 10_000 / 8)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_qexp_eventually_decreasing_in_n(self):
        values = [bounds.thm_qexp_tail(n, 0.05, 1.0, ENVELOPE) for n in range(2000, 40_000, 2000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_indexp_reduces_at_m1(self):
        assert bounds.thm_indexp_tail(500, 1, 0.1, 1.0, ENVELOPE) == bounds.thm_qexp_tail(500, 0.1, 1.0, ENVELOPE)

    def test_indexp_arithmetic(self):
        value = bounds.thm_indexp_tail(10_000, 8, 0.05, 1.0, ENVELOPE)
        expected = hp(
            4 * 10_000 * 8 * mpmath.sqrt(2 * mpmath.e * mpmath.mpf("1.5"))
            * mpmath.e ** (-10_000 * mpmath.mpf("0.05") * mpmath.mpf("0.5") / (32 * 8))
            + 4 * 8 * mpmath.e ** (-(mpmath.mpf("0.05") ** 2) * mpmath.mpf("0.25") * 10_000 / 8)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_recexp_m1_uses_unit_depth(self):
        # log2(2 * 1) = 1, so the exponent denominator is exactly 32
        assert bounds.thm_recexp_tail(500, 1, 0.1, 1.0, ENVELOPE) == bounds.thm_qexp_tail(500, 0.1, 1.0, ENVELOPE)

    def test_recexp_arithmetic(self):
        value = bounds.thm_recexp_tail(10_000, 8, 0.05, 1.0, ENVELOPE)
        lg = mpmath.log(16, 2)
        expected = hp(
            4 * 10_000 * mpmath.sqrt(2 * mpmath.e * mpmath.mpf("1.5") * 8)
            * mpmath.e ** (-10_000 * mpmath.mpf("0.05") * mpmath.mpf("0.5") / (32 * lg * lg))
            + 4 * 8 * mpmath.e ** (-(mpmath.mpf("0.05") ** 2) * mpmath.mpf("0.25") * 10_000 / 8)
        )
        assert value == pytest.approx(expected, rel=1e-12)


class TestHistogramTails:
    def test_quantile_tail_guard(self):
        # gamma below 2 L h / pi_min violates the precondition
        with pytest.raises(BoundPreconditionError) as err:
            bounds.thm_hist_tail(1000, 0.01, 1.0, ENVELOPE, 0.01)
        assert "2 L h" in err.value.guard
        with pytest.raises(BoundPreconditionError):
            bounds.thm_hist_tail(1000, 0.6, 1.0, ENVELOPE, 0.01)

    def test_quantile_tail_arithmetic(self):
        flat = DensityEnvelope(lower=1.0, upper=1.0, lipschitz=0.0)
        value = bounds.thm_hist_tail(10_000, 0.3, 1.0, flat, 0.1)
        expected = hp(
            10 * mpmath.e ** (-mpmath.mpf("0.3") * mpmath.mpf("0.1") * 10_000 / 8)
            + 20 * mpmath.e ** (-(mpmath.mpf("0.01") / 4) * (mpmath.mpf("0.15") ** 2) * 10_000)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_quantile_tail_with_lipschitz(self):
        env = DensityEnvelope(lower=1.0, upper=2.0, lipschitz=1.0)
        value = bounds.thm_hist_tail(50_000, 0.4, 2.0, env, 0.05)
        slack = mpmath.mpf("0.4") / 2 - mpmath.mpf("0.05")
        expected = hp(
            20 * mpmath.e ** (-mpmath.mpf("0.4") * mpmath.mpf("0.05") * 50_000 * 2 / 8)
            + 40 * mpmath.e ** (-(mpmath.mpf("0.0025") / 4) * slack**2 * 50_000)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_density_tail_guard_and_values(self):
        with pytest.raises(BoundPreconditionError):
            bounds.lemma_hist_density_tail(1000, 0.05, 1.0, 6.0, 0.01)
        value = bounds.lemma_hist_density_tail(10_000, 5.5, 1.0, 6.0, 0.01)
        expected = hp(
            100 * mpmath.e ** (-mpmath.mpf("5.5") * mpmath.mpf("0.01") * 10_000 / 4)
            + 200 * mpmath.e ** (-mpmath.mpf("0.0001") * (mpmath.mpf("5.5") - mpmath.mpf("0.06")) ** 2 * 10_000 / 4)
        )
        assert value == pytest.approx(expected, rel=1e-12)
        value = bounds.lemma_hist_density_tail(100_000, 0.2, 1.0, 0.0, 0.1)
        expected = hp(
            10 * mpmath.e ** (-mpmath.mpf("0.2") * mpmath.mpf("0.1") * 100_000 / 4)
            + 20 * mpmath.e ** (-mpmath.mpf("0.01") * mpmath.mpf("0.04") * 100_000 / 4)
        )
        assert value == pytest.approx(expected, rel=1e-12)


class TestLowerBounds:
    def test_qexp_examples(self):
        assert bounds.lemma_qexp_lower(0, 1.0) == 0.5
        assert bounds.lemma_qexp_lower(5, 1.0) == pytest.approx(0.5 * math.exp(-2.5), rel=1e-14)
        assert bounds.lemma_qexp_lower(5, 1.0) == pytest.approx(0.0410424993, abs=1e-9)

    def test_composition_floors_are_larger(self):
        for m in (2, 4, 16):
            assert bounds.lemma_qexp_lower(50, 1.0) < bounds.indexp_lower(50, m, 1.0)

    def test_m1_reductions_are_exact(self):
        assert bounds.indexp_lower(30, 1, 0.7) == bounds.lemma_qexp_lower(30, 0.7)
        assert bounds.recexp_lower(30, 1, 0.7) == bounds.lemma_qexp_lower(30, 0.7)

    def test_arithmetic_points(self):
        assert bounds.indexp_lower(100, 4, 2.0) == pytest.approx(hp(mpmath.e ** (-25) / 2), rel=1e-12)
        expected = hp(mpmath.e ** (-100 * 2 / (2 * (mpmath.log(8, 2) + 1))) / 2)
        assert bounds.recexp_lower(100, 8, 2.0) == pytest.approx(expected, rel=1e-12)


class TestGapLaws:
    def test_exact_survival_examples(self):
        assert bounds.gap_survival_uniform(1, 0.25) == 0.5
        assert bounds.gap_survival_uniform(2, 0.1) == pytest.approx(0.49, abs=1e-14)
        assert bounds.gap_survival_uniform(3, 0.25) == 0.0
        assert bounds.gap_survival_uniform(10, 1.0 / 11) == 0.0

    def test_survival_guards(self):
        with pytest.raises(InvalidArgumentError):
            bounds.gap_survival_uniform(0, 0.1)
        with pytest.raises(InvalidArgumentError):
            bounds.gap_survival_uniform(3, 0.0)

    def test_gap_lower_examples(self):
        assert bounds.lemma_gap_lower(1e-9, 1.0) == pytest.approx(1.0, abs=1e-7)
        assert bounds.lemma_gap_lower(0.1, 1.0) == pytest.approx(math.exp(-0.4), rel=1e-14)
        with pytest.raises(BoundPreconditionError):
            bounds.lemma_gap_lower(0.3, 1.0)

    def test_gap_lower_is_below_the_rescaled_exact_law(self):
        # for uniform data: exp(-4 gamma) <= (1 - (n+1) gamma / n^2)^n
        for n in range(1, 51):
            for gamma in np.linspace(1e-4, 0.2499, 40):
                exact = (1.0 - (n + 1) * gamma / n**2) ** n
                assert bounds.lemma_gap_lower(gamma, 1.0) <= exact + 1e-15


class TestQuantileConcentration:
    def test_symmetric_at_half(self):
        value = bounds.lemma_quantile_concentration_tail(1000, 0.5, 0.2, 1.0)
        single = math.exp(-0.04 * 1000 / 4.0)
        assert value == pytest.approx(4.0 * single, rel=1e-14)

    def test_arithmetic(self):
        value = bounds.lemma_quantile_concentration_tail(400, 0.25, 0.1, 0.8)
        base = mpmath.mpf("0.01") * mpmath.mpf("0.64") * 400
        expected = hp(2 * mpmath.e ** (-base / 2) + 2 * mpmath.e ** (-base / 6))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_buffer_half_width(self):
        assert bounds.quantile_concentration_buffer(1000, 0.2, 1.0) == 99
        assert bounds.quantile_concentration_buffer(10, 0.02, 1.0) == -1


class TestPurity:
    def test_bit_identical_reevaluation(self):
        args = (12_345, 0.07, 0.9, ENVELOPE)
        assert bounds.thm_qexp_tail(*args) == bounds.thm_qexp_tail(*args)
        assert bounds.thm_recexp_tail(12_345, 9, 0.07, 0.9, ENVELOPE) == bounds.thm_recexp_tail(
            12_345, 9, 0.07, 0.9, ENVELOPE
        )

