"""Unit tests for the hypoexponential distribution (paper Eq. 1-2)."""

import math

import numpy as np
import pytest

from scipy.special import gammainc

from repro.mathutils.hypoexponential import (
    Hypoexponential,
    _closed_form_cdf,
    _erlang_cdfs,
    _matrix_cdf,
    _repeated_rate_cdf,
    hypoexponential_cdf,
    path_delivery_probability,
)


class TestSingleHop:
    def test_matches_exponential_cdf(self):
        lam = 1.0 / 3600.0
        for t in (0.0, 100.0, 3600.0, 86400.0):
            expected = 1.0 - math.exp(-lam * t) if t > 0 else 0.0
            assert hypoexponential_cdf([lam], t) == pytest.approx(expected)

    def test_zero_time_is_zero(self):
        assert hypoexponential_cdf([0.5], 0.0) == 0.0

    def test_negative_time_is_zero(self):
        assert hypoexponential_cdf([0.5], -10.0) == 0.0


class TestClosedFormVsMatrix:
    def test_distinct_rates_agree(self):
        rates = [1.0, 0.5, 0.25]
        for t in (0.1, 1.0, 5.0, 20.0):
            assert _closed_form_cdf(rates, t) == pytest.approx(
                _matrix_cdf(rates, t), abs=1e-9
            )

    def test_repeated_rates_use_matrix_path(self):
        # Erlang(3, 1): CDF(t) = 1 - e^-t (1 + t + t^2/2)
        rates = [1.0, 1.0, 1.0]
        t = 2.0
        erlang = 1.0 - math.exp(-t) * (1 + t + t * t / 2)
        assert hypoexponential_cdf(rates, t) == pytest.approx(erlang, abs=1e-9)

    def test_nearly_equal_rates_stay_in_unit_interval(self):
        rates = [1.0, 1.0 + 1e-9, 1.0 + 2e-9]
        value = hypoexponential_cdf(rates, 3.0)
        assert 0.0 <= value <= 1.0


class TestRepeatedRateClosedForm:
    @pytest.mark.parametrize("order", [1, 2, 5, 13, 21])
    def test_erlang_cdfs_are_relatively_accurate(self, order):
        # The rounding gate scales each coefficient by its Erlang CDF, so
        # a tiny CDF must be accurate relative to itself, not just to 1.
        for x in [*np.logspace(-8, 3, 45), order - 1e-9, float(order), order + 0.5]:
            expected = gammainc(np.arange(1, order + 1), x)
            np.testing.assert_allclose(_erlang_cdfs(order, float(x)), expected, rtol=1e-13)

    @pytest.mark.parametrize("t", [0.5, 2.0, 9.0])
    def test_erlang_row_matches_textbook_formula(self, t):
        erlang = 1.0 - math.exp(-t) * (1 + t + t * t / 2)
        assert _repeated_rate_cdf([1.0, 1.0, 1.0], t) == pytest.approx(erlang, abs=1e-15)

    def test_two_rate_multiplicities_match_matrix_path(self):
        rates = [0.1] * 5 + [0.5] * 7
        for t in (1.0, 30.0, 200.0):
            assert _repeated_rate_cdf(rates, t) == pytest.approx(
                _matrix_cdf(rates, t), abs=1e-13
            )

    def test_rounding_gate_rejects_a_cancelling_sum_inside_the_unit_interval(self):
        # Distinct rates 10 % apart, four of each: the coefficients reach
        # ~1e8 and cancel.  The signed sum still lands in [0, 1] but is off
        # by ~1e-8, so only the gate keeps it from being returned.
        assert _repeated_rate_cdf([1.0] * 4 + [1.1] * 4, 5.0) is None

    @pytest.mark.parametrize(
        "rates",
        [
            # a rate ratio near 1e6 raised to the 60th power overflows
            [1.0] * 60 + [1.0000011] * 60,
            # each factor fits, their product overflows to ±inf
            [1.0] + [1.0000011] * 20 + [0.9999989] * 20 + [1.0000023] * 20,
        ],
    )
    def test_coefficients_past_the_float_range_are_rejected(self, rates):
        assert _repeated_rate_cdf(rates, 50.0) is None


class TestValidation:
    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [float("nan")], [float("inf")]])
    def test_invalid_rates_rejected(self, bad):
        with pytest.raises(ValueError):
            hypoexponential_cdf(bad, 1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            path_delivery_probability([1.0], -1.0)


class TestPathDeliveryProbability:
    def test_empty_path_is_certain(self):
        assert path_delivery_probability([], 0.0) == 1.0
        assert path_delivery_probability([], 100.0) == 1.0

    def test_extra_hop_decreases_probability(self):
        base = [1.0 / 3600, 1.0 / 7200]
        extended = base + [1.0 / 3600]
        t = 4 * 3600.0
        assert path_delivery_probability(extended, t) < path_delivery_probability(
            base, t
        )

    def test_monotone_in_time(self):
        rates = [0.001, 0.002, 0.0005]
        values = [path_delivery_probability(rates, t) for t in (10, 100, 1000, 10000)]
        assert values == sorted(values)


class TestDistributionObject:
    def test_mean_and_variance(self):
        dist = Hypoexponential([0.5, 0.25])
        assert dist.mean == pytest.approx(2.0 + 4.0)
        assert dist.variance == pytest.approx(4.0 + 16.0)

    def test_sf_complements_cdf(self):
        dist = Hypoexponential([0.1, 0.3])
        assert dist.sf(5.0) == pytest.approx(1.0 - dist.cdf(5.0))

    def test_pdf_integrates_roughly_to_cdf(self):
        dist = Hypoexponential([0.2, 0.4])
        grid = np.linspace(0.0, 30.0, 3001)
        integral = np.trapezoid([dist.pdf(t) for t in grid], grid)
        assert integral == pytest.approx(dist.cdf(30.0), abs=5e-3)

    def test_sampling_mean_close_to_analytic(self, rng):
        dist = Hypoexponential([1.0, 0.5])
        samples = dist.sample(rng, size=20000)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.05)

    def test_sampling_cdf_close_to_analytic(self, rng):
        dist = Hypoexponential([1.0, 0.5])
        samples = dist.sample(rng, size=20000)
        t = 3.0
        assert (samples <= t).mean() == pytest.approx(dist.cdf(t), abs=0.02)

    def test_rates_copy_is_defensive(self):
        dist = Hypoexponential([1.0])
        dist.rates.append(5.0)
        assert dist.rates == [1.0]
