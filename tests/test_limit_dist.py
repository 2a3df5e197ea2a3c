"""The rescaling law, the chi-square law behind it, and the KS test machinery."""

import math

import numpy as np
import pytest
import scipy.special

from spikescore.limit_dist import (
    KsOutcome,
    RLaw,
    ks_test,
    r_cdf,
    r_quantile,
)


def chi_square_sf(x, n):
    """P(chi2_n > x) read off the rescaling law: r_cdf(sqrt(n / x))."""
    with np.errstate(divide="ignore"):
        return r_cdf(np.sqrt(n / np.asarray(x, dtype=float)), RLaw(n))


def chi_square_cdf(x, n):
    return 1.0 - chi_square_sf(x, n)


def chi2_density(x, n):
    """Closed-form chi-square density, used as a derivative oracle."""
    return math.exp(
        (n / 2 - 1) * math.log(x) - x / 2 - math.lgamma(n / 2) - (n / 2) * math.log(2)
    )


class TestChiSquareCdf:
    """The chi-square CDF that r_cdf evaluates, P(chi2_n <= x) =
    1 - r_cdf(sqrt(n / x)), against closed forms and oracles."""

    def test_zero(self):
        for n in (1, 2, 7, 100):
            assert chi_square_cdf(0.0, n) == 0.0

    def test_two_dof_closed_form(self):
        # F(x; 2) = 1 - exp(-x/2); at x = 2 ln 2 this is exactly 1/2.
        assert chi_square_cdf(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-12)
        xs = np.linspace(0.01, 40, 200)
        assert np.allclose(chi_square_cdf(xs, 2), 1 - np.exp(-xs / 2), atol=1e-13)

    def test_one_dof_closed_form(self):
        xs = np.linspace(0.01, 30, 97)
        expected = np.array([math.erf(math.sqrt(x / 2)) for x in xs])
        assert np.allclose(chi_square_cdf(xs, 1), expected, atol=1e-12)

    def test_four_dof_closed_form(self):
        xs = np.linspace(0.01, 60, 103)
        expected = 1 - np.exp(-xs / 2) * (1 + xs / 2)
        assert np.allclose(chi_square_cdf(xs, 4), expected, atol=1e-13)

    def test_scipy_oracle_wide_range(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 10, 101, 1000, 10_000):
            xs = np.concatenate(
                [
                    rng.uniform(0, 3 * n, size=40),
                    rng.uniform(0, 1e6, size=10),
                    [1e-8, n / 2, float(n), 2.0 * n, 1e6],
                ]
            )
            ours = chi_square_cdf(xs, n)
            ref = scipy.special.gammainc(n / 2, xs / 2)
            assert np.abs(ours - ref).max() < 1e-10

    def test_monotone_in_x(self):
        xs = np.linspace(0, 500, 2000)
        for n in (3, 10, 100):
            f = chi_square_cdf(xs, n)
            assert np.all(np.diff(f) >= 0)
            assert f.min() >= 0 and f.max() <= 1

    def test_monte_carlo_oracle(self):
        n, draws = 10, 10_000_000
        rng = np.random.default_rng(2024)
        sample = rng.chisquare(n, size=draws)
        for x in (n / 2, float(n), 2.0 * n):
            f = chi_square_cdf(x, n)
            emp = np.mean(sample <= x)
            band = 4 * math.sqrt(f * (1 - f) / draws)
            assert abs(emp - f) < band

    def test_density_by_finite_differences(self):
        for n in (2, 5, 10, 100):
            for x in (n / 2, float(n), 2.0 * n):
                h = 1e-5 * x
                deriv = (chi_square_sf(x - h, n) - chi_square_sf(x + h, n)) / (2 * h)
                assert deriv == pytest.approx(chi2_density(x, n), rel=1e-5)

    def test_domain_errors(self):
        # A negative x maps to no r > 0; zero degrees of freedom to no law.
        with pytest.raises(ValueError):
            r_cdf(-math.sqrt(3 / 0.1), RLaw(3))
        with pytest.raises(ValueError):
            chi_square_cdf(1.0, 0)


class TestRLaw:
    def test_dof_validation(self):
        with pytest.raises(ValueError):
            RLaw(0)

    def test_cdf_closed_form_two_dof(self):
        # P(sqrt(2/chi2_2) <= 1) = P(chi2_2 >= 2) = exp(-1).
        assert r_cdf(1.0, RLaw(2)) == pytest.approx(math.exp(-1), abs=1e-10)

    def test_cdf_is_valid_distribution(self):
        law = RLaw(10)
        rs = np.linspace(0.4, 3.0, 500)  # non-saturated range in float64
        f = r_cdf(rs, law)
        assert np.all(np.diff(f) > 0)
        assert np.all((f >= 0) & (f <= 1))
        wide = r_cdf(np.geomspace(1e-3, 1e3, 100), law)
        assert np.all(np.diff(wide) >= 0)
        assert r_cdf(1e-6, law) < 1e-12
        assert r_cdf(1e6, law) > 1 - 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            r_cdf(0.0, RLaw(5))
        with pytest.raises(ValueError):
            r_cdf(-1.0, RLaw(5))

    def test_empirical_cdf_of_samples(self):
        law = RLaw(10)
        rng = np.random.default_rng(77)
        sample = np.sort(law.sample(1_000_000, rng))
        grid = np.linspace(0.4, 3.0, 100)
        emp = np.searchsorted(sample, grid, side="right") / sample.size
        assert np.abs(emp - r_cdf(grid, law)).max() < 0.002

    def test_sample_positive(self):
        law = RLaw(3)
        s = law.sample(1000, np.random.default_rng(1))
        assert s.shape == (1000,)
        assert np.all(s > 0)


class TestRQuantile:
    def test_round_trip(self):
        # r grids chosen so the CDF stays representable in float64.
        for n, rs in ((2, (0.5, 1.0, 2.0)), (10, (0.5, 1.0, 2.0)), (50, (0.8, 1.0, 1.5))):
            law = RLaw(n)
            for r in rs:
                assert r_quantile(r_cdf(r, law), law) == pytest.approx(r, abs=1e-8)
            for p in (0.01, 0.3, 0.5, 0.99):
                assert r_cdf(r_quantile(p, law), law) == pytest.approx(p, abs=1e-9)

    def test_closed_form_two_dof(self):
        assert r_quantile(math.exp(-1), RLaw(2)) == pytest.approx(1.0, abs=1e-9)

    def test_median_approaches_one(self):
        errs = [abs(r_quantile(0.5, RLaw(n)) - 1.0) for n in (10, 100, 1000)]
        assert errs[0] > errs[1] > errs[2]

    def test_lower_tail_closed_form_two_dof(self):
        # For n = 2, F(r) = exp(-1/r**2): 3.7e-44 at r = 0.1, and the
        # 1e-14 quantile is 1 / sqrt(14 ln 10).
        law = RLaw(2)
        assert r_cdf(0.1, law) == pytest.approx(math.exp(-100), rel=1e-12)
        assert r_quantile(1e-14, law) == pytest.approx(
            1 / math.sqrt(14 * math.log(10)), rel=1e-12
        )

    def test_domain_errors(self):
        law = RLaw(4)
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                r_quantile(p, law)


class TestKsTest:
    def test_plug_in_quantile_construction(self):
        # Samples at the quantiles of the midpoint grid fit as well as any
        # M-point sample can: D <= 1/(2M) + eps.
        law = RLaw(8)
        m = 500
        samples = [r_quantile((i - 0.5) / m, law) for i in range(1, m + 1)]
        out = ks_test(samples, lambda r: r_cdf(r, law))
        assert out.statistic <= 1 / (2 * m) + 1e-9
        assert not out.rejected_at_01
        assert out.p_value_approx == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_sample_rejected(self):
        law = RLaw(8)
        median = r_quantile(0.5, law)
        out = ks_test(np.full(100, median), lambda r: r_cdf(r, law))
        assert out.statistic == pytest.approx(0.5, abs=0.01)
        assert out.rejected_at_01
        assert out.p_value_approx < 1e-6

    def test_outcome_consistency(self):
        law = RLaw(5)
        rng = np.random.default_rng(3)
        out = ks_test(law.sample(200, rng), lambda r: r_cdf(r, law))
        assert isinstance(out, KsOutcome)
        assert out.sample_size == 200
        assert out.critical_value_01 == pytest.approx(1.628 / math.sqrt(200))
        assert out.rejected_at_01 == (out.statistic > out.critical_value_01)

    @pytest.mark.parametrize("shift", [-0.3, 0.0, 0.3])
    def test_one_sided_statistics(self, shift):
        # D+ and D- are scipy's one-sided statistics, and D is the larger;
        # samples shifted left of the law raise D+, shifted right raise D-.
        from scipy.stats import ks_1samp

        law = RLaw(8)
        samples = law.sample(300, np.random.default_rng(5)) + shift
        samples = samples[samples > 0]
        out = ks_test(samples, law.cdf)
        greater = ks_1samp(samples, law.cdf, alternative="greater", method="asymp")
        less = ks_1samp(samples, law.cdf, alternative="less", method="asymp")
        assert out.d_plus == pytest.approx(greater.statistic, rel=1e-12, abs=1e-15)
        assert out.d_minus == pytest.approx(less.statistic, rel=1e-12, abs=1e-15)
        assert out.statistic == max(out.d_plus, out.d_minus)
        if shift < 0:
            assert out.d_plus > out.d_minus
        elif shift > 0:
            assert out.d_minus > out.d_plus

    def test_invariant_under_increasing_transform(self):
        law = RLaw(6)
        rng = np.random.default_rng(4)
        samples = law.sample(300, rng)
        base = ks_test(samples, lambda r: r_cdf(r, law))
        warped = ks_test(np.exp(samples), lambda y: r_cdf(np.log(y), law))
        assert warped.statistic == pytest.approx(base.statistic, abs=1e-12)

    def test_self_consistency_rejection_rate(self):
        law = RLaw(10)
        rng = np.random.default_rng(991)
        rejections = sum(
            ks_test(law.sample(2000, rng), lambda r: r_cdf(r, law)).rejected_at_01
            for _ in range(30)
        )
        assert rejections <= 2  # alpha = 0.01, so ~0.3 expected

    def test_input_validation(self):
        law = RLaw(5)
        with pytest.raises(ValueError, match="at least 10"):
            ks_test([1.0] * 9, lambda r: r_cdf(r, law))
        bad = np.ones(20)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            ks_test(bad, lambda r: r_cdf(r, law))

    @pytest.mark.parametrize("m", [10, 12, 50, 2000])
    def test_exact_p_value_against_kstwo(self, m):
        # Twice the exact one-sided tail leaves out only the chance that both
        # one-sided statistics exceed D, about p**3 / 8 relative: 1e-3 at
        # p = 0.2, where the asymptotic series puts it at large M.
        from scipy.stats import kstwo

        for p in np.geomspace(1e-8, 0.2, 60):
            d = kstwo.isf(p, m)
            ref = kstwo.sf(d, m)
            samples = np.arange(1, m + 1) / m - d  # D = d against U(0, 1)
            out = ks_test(samples, lambda x: np.clip(x, 0.0, 1.0))
            assert out.statistic == pytest.approx(d, rel=1e-12)
            assert abs(out.p_value_exact - ref) <= 1.01 * ref**4 / 8 + 1e-9 * ref

    @pytest.mark.parametrize("m, size", [(10, 0.0055), (12, 0.0059)])
    def test_decision_size_at_small_m(self, m, size):
        # The 1.628 / sqrt(M) critical value rejects a true law with
        # probability well under 0.01 at small M.
        from scipy.stats import kstwo

        samples = np.arange(1, m + 1) / m - 1.628 / math.sqrt(m)  # D at the critical value
        out = ks_test(samples, lambda x: np.clip(x, 0.0, 1.0))
        assert out.statistic == pytest.approx(out.critical_value_01, rel=1e-12)
        assert kstwo.sf(out.critical_value_01, m) == pytest.approx(size, abs=5e-5)
        assert out.p_value_exact == pytest.approx(size, abs=5e-5)

    def test_p_value_monotone_in_statistic(self):
        ts = np.linspace(0.0, 4.0, 400)
        ps = [scipy.special.kolmogorov(t) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))
        assert ps[0] == 1.0
        assert ps[-1] < 1e-12
