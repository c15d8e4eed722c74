import math

import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import beta as beta_law
from scipy.stats import kstest

from dpquantiles.distributions import DensityEnvelope, DistributionOracle
from dpquantiles.errors import InvalidArgumentError
from dpquantiles.mechanisms import RandomSource

ORACLES = {
    "uniform": DistributionOracle.uniform(),
    "beta(2,5)": DistributionOracle.make_beta(2, 5),
    "beta(0.5,0.5)": DistributionOracle.make_beta(0.5, 0.5),
    "beta(2,2)": DistributionOracle.make_beta(2, 2),
    "beta(2,1)": DistributionOracle.make_beta(2, 1),
}


class TestSampler:
    def test_beta11_is_uniform(self):
        draws = DistributionOracle.make_beta(1, 1).sample(100_000, RandomSource(17)).values
        assert kstest(draws, "uniform").statistic < 0.01

    def test_beta22_mean(self):
        draws = DistributionOracle.make_beta(2, 2).sample(100_000, RandomSource(18)).values
        assert abs(np.mean(draws) - 0.5) < 0.005

    def test_beta25_mean(self):
        draws = DistributionOracle.make_beta(2, 5).sample(100_000, RandomSource(19)).values
        assert abs(np.mean(draws) - 2 / 7) < 0.005

    @pytest.mark.parametrize("name", ["beta(2,5)", "beta(0.5,0.5)", "beta(2,2)"])
    def test_sampler_agrees_with_cdf(self, name):
        oracle = ORACLES[name]
        draws = oracle.sample(100_000, RandomSource(20)).values
        # 1% critical value of the one-sample KS statistic
        critical = 1.6276 / math.sqrt(100_000)
        assert kstest(draws, beta_law(oracle.alpha, oracle.beta).cdf).statistic < critical

    def test_sampler_determinism_and_sorting(self):
        oracle = ORACLES["beta(2,5)"]
        a = oracle.sample(1000, RandomSource(3)).values
        b = oracle.sample(1000, RandomSource(3)).values
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)

    def test_empty_sample(self):
        assert DistributionOracle.uniform().sample(0, RandomSource(0)).n == 0


class TestQuantile:
    def test_examples(self):
        assert ORACLES["beta(2,2)"].quantile(0.5) == pytest.approx(0.5, abs=1e-10)
        assert ORACLES["beta(2,1)"].quantile(0.25) == pytest.approx(0.5, abs=1e-10)
        assert ORACLES["uniform"].quantile(0.731) == pytest.approx(0.731, abs=1e-10)

    @pytest.mark.parametrize("name", list(ORACLES))
    def test_round_trip(self, name):
        oracle = ORACLES[name]
        ps = 0.001 + 0.998 * RandomSource(8).random(1000)
        cdf = betainc(oracle.alpha, oracle.beta, oracle.quantile(ps))
        assert np.max(np.abs(cdf - ps)) <= 1e-10

    def test_rejects_boundary_orders(self):
        with pytest.raises(InvalidArgumentError):
            ORACLES["uniform"].quantile(0.0)
        with pytest.raises(InvalidArgumentError):
            ORACLES["uniform"].quantile(1.0)


class TestEnvelope:
    def test_envelope_validation(self):
        with pytest.raises(InvalidArgumentError):
            DensityEnvelope(2.0, 1.0, 0.0)


class TestShapes:
    def test_rejects_invalid_shapes(self):
        with pytest.raises(InvalidArgumentError):
            DistributionOracle.make_beta(0.0, 1.0)

    @pytest.mark.parametrize("shapes", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite_shapes(self, shapes):
        # an infinite shape used to fail only in the sampler, mid-run
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            DistributionOracle.make_beta(*shapes)


@pytest.mark.parametrize("method", ["quantile"])
@pytest.mark.parametrize("arg", [math.nan, [0.25, math.nan, 0.75]], ids=["scalar", "element"])
def test_nan_is_rejected(method, arg):
    # NaN fails every comparison, so range checks of the form any(x < lo) let it through
    with pytest.raises(InvalidArgumentError):
        getattr(ORACLES["beta(2,5)"], method)(arg)
