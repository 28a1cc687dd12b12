"""Sandwich covariance, confidence intervals, normality tests, and the
normal quantile. scipy serves as the oracle for the special functions."""

import hashlib
import math
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import inar
from inar import (
    CountPath,
    DimensionMismatch,
    DomainError,
    InvalidLevel,
    ModelParams,
    RngStream,
    SampleSizeOutOfRange,
    SandwichCovariance,
    SingularDesign,
    ThetaVector,
    ZeroVariance,
)


class TestNormalQuantile:
    def test_against_scipy(self):
        grid = np.concatenate(
            [
                np.linspace(1e-6, 1 - 1e-6, 2001),
                [1e-12, 1e-10, 1e-3, 0.025, 0.5, 0.975, 1 - 1e-10, 1 - 1e-12],
            ]
        )
        for u in grid:
            mine = inar.normal_quantile(float(u))
            ref = float(scipy.special.ndtri(u))
            if ref == 0.0:
                assert mine == 0.0
            else:
                assert abs(mine - ref) <= 1e-13 * abs(ref)

    def test_pinned_value(self):
        assert abs(inar.normal_quantile(0.975) - 1.959964) <= 1e-6

    def test_median_is_zero(self):
        assert inar.normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain(self, u):
        with pytest.raises(DomainError):
            inar.normal_quantile(u)

    def test_inverse_of_cdf(self):
        for u in np.linspace(1e-6, 1 - 1e-6, 501):
            z = inar.normal_quantile(float(u))
            assert abs(inar.normal_cdf(z) - u) <= 1e-8


class TestConfidenceIntervals:
    def _unit_cov(self, m):
        eye = np.eye(m)
        return SandwichCovariance(J_hat=2 * eye, K_hat=4 * eye, Sigma_hat=eye)

    def test_z_value_95(self):
        theta = ThetaVector(mu=10.0, betas=(0.5,))
        ci = inar.confidence_intervals(theta, self._unit_cov(2), T=400, level=0.95)
        half = (ci[0][1] - ci[0][0]) / 2.0
        z = half / np.sqrt(1.0 / 400)
        assert abs(z - 1.959964) <= 1e-5
        assert ci[0][0] + half == pytest.approx(10.0)
        assert ci[1][0] + half == pytest.approx(0.5)

    def test_z_value_99(self):
        theta = ThetaVector(mu=0.0, betas=())
        ci = inar.confidence_intervals(theta, self._unit_cov(1), T=100, level=0.99)
        half = (ci[0][1] - ci[0][0]) / 2.0
        assert abs(half * 10.0 - 2.5758293) <= 1e-5

    def test_degenerate_covariance(self):
        theta = ThetaVector(mu=3.0, betas=(0.1,))
        zero = SandwichCovariance(
            J_hat=2 * np.eye(2), K_hat=np.zeros((2, 2)), Sigma_hat=np.zeros((2, 2))
        )
        ci = inar.confidence_intervals(theta, zero, T=50)
        assert ci[0] == (3.0, 3.0)
        assert ci[1] == (0.1, 0.1)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2])
    def test_invalid_level(self, level):
        theta = ThetaVector(mu=1.0, betas=())
        with pytest.raises(InvalidLevel):
            inar.confidence_intervals(theta, self._unit_cov(1), T=10, level=level)

    # An int beyond the float range is converted as +-inf, then refused
    # as any level outside (0, 1) is.
    @pytest.mark.parametrize("level, shown", [(10**400, "inf"), (-(10**400), "-inf")],
                             ids=["10**400", "-10**400"])
    def test_level_beyond_float_range(self, level, shown):
        theta = ThetaVector(mu=1.0, betas=())
        with pytest.raises(InvalidLevel, match=rf"^level must be in \(0, 1\), got {shown}$"):
            inar.confidence_intervals(theta, self._unit_cov(1), T=10, level=level)

    @pytest.mark.parametrize("T", [0, -1, 0.5, math.inf, pytest.param(10**400, id="10**400")])
    def test_horizon_below_one(self, T):
        theta = ThetaVector(mu=1.0, betas=())
        with pytest.raises(ValueError, match="T must be >= 1"):
            inar.confidence_intervals(theta, self._unit_cov(1), T=T)

    def test_theta_covariance_mismatch(self):
        theta = ThetaVector(mu=1.0, betas=(0.5,))
        with pytest.raises(DimensionMismatch, match="covariance dimension 3 does not match theta 2"):
            inar.confidence_intervals(theta, self._unit_cov(3), T=10)

    @pytest.mark.parametrize("J_hat, K_hat, Sigma_hat", [
        (np.eye(2), np.eye(3), np.ones(2)),
        (np.eye(2), np.eye(2), np.ones(2)),
        (np.eye(2), np.eye(2), np.ones((2, 3))),
        (np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))),
        (np.ones((0, 0)), np.ones((0, 0)), np.ones((0, 0))),
        (np.ones((2, 2, 2)), np.eye(2), np.eye(2)),
    ])
    def test_sandwich_record_shapes(self, J_hat, K_hat, Sigma_hat):
        # Three (m, m) matrices with one m >= 1, as DesignSystem checks Y.
        with pytest.raises(DimensionMismatch, match="expected J_hat, K_hat and Sigma_hat"):
            SandwichCovariance(J_hat=J_hat, K_hat=K_hat, Sigma_hat=Sigma_hat)


class TestJarqueBera:
    def test_hand_case(self):
        sample = np.array([-1.0, 0.0, 1.0] * 4)
        with pytest.warns(UserWarning):
            stat, p = inar.jarque_bera(sample)
        assert abs(stat - 1.125) <= 1e-12
        assert abs(p - np.exp(-0.5625)) <= 1e-12 * p
        assert p == pytest.approx(0.569782824730923, rel=1e-12)

    @pytest.mark.parametrize("n", [30, 200, 1000])
    def test_against_scipy(self, n):
        x = np.random.default_rng(n).normal(size=n)
        stat, p = inar.jarque_bera(x)
        ref = scipy.stats.jarque_bera(x)
        assert stat == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-300)

    def test_affine_invariance(self):
        x = np.random.default_rng(17).normal(size=64)
        s0, _ = inar.jarque_bera(x)
        s1, _ = inar.jarque_bera(3.5 * x - 2.0)
        s2, _ = inar.jarque_bera(-2.0 * x + 7.0)
        assert s1 == pytest.approx(s0, rel=1e-10)
        assert s2 == pytest.approx(s0, rel=1e-10)

    def test_symmetric_mesokurtic_is_null(self):
        # skewness 0 and kurtosis exactly 3 zero the statistic
        x = np.array([-3.0, -1.0, 1.0, 3.0] * 8)
        k = scipy.stats.kurtosis(x, fisher=False, bias=True)
        if abs(k - 3.0) < 1e-12:
            stat, p = inar.jarque_bera(x)
            assert stat == pytest.approx(0.0, abs=1e-12)
            assert p == pytest.approx(1.0)

    def test_small_sample_gate(self):
        with pytest.raises(SampleSizeOutOfRange):
            inar.jarque_bera(np.ones(7))
        with pytest.warns(UserWarning):
            inar.jarque_bera(np.random.default_rng(0).normal(size=8))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            inar.jarque_bera(np.full(25, 3.0))


class TestShapiroWilk:
    # AS R94 has small-sample weights up to n = 5 and p-values up to n = 11.
    @pytest.mark.parametrize("n", [4, 5, 7, 11, 12, 25, 50, 200, 999, 2000])
    def test_against_scipy_normal(self, n):
        x = np.random.default_rng(n).normal(size=n)
        w, p = inar.shapiro_wilk(x)
        ref = scipy.stats.shapiro(x)
        assert w == pytest.approx(ref.statistic, abs=1e-7)
        assert p == pytest.approx(ref.pvalue, abs=1e-5)

    @pytest.mark.parametrize("n", [20, 80, 300])
    def test_against_scipy_exponential(self, n):
        x = np.random.default_rng(n + 1).exponential(size=n)
        w, p = inar.shapiro_wilk(x)
        ref = scipy.stats.shapiro(x)
        assert w == pytest.approx(ref.statistic, abs=1e-7)
        assert p == pytest.approx(ref.pvalue, abs=1e-5)

    def test_power_on_exponential(self):
        x = np.random.default_rng(7).exponential(size=50)
        _, p = inar.shapiro_wilk(x)
        assert p < 0.01

    def test_sample_size_limits(self):
        with pytest.raises(SampleSizeOutOfRange):
            inar.shapiro_wilk(np.array([1.0, 2.0]))
        with pytest.raises(SampleSizeOutOfRange):
            inar.shapiro_wilk(np.zeros(5001) + np.arange(5001))
        w, p = inar.shapiro_wilk(np.array([1.0, 2.0, 4.0]))
        assert 0.0 < w <= 1.0 and 0.0 <= p <= 1.0

    def test_report_past_the_limit_keeps_jarque_bera(self):
        # Past n = 5000 the report leaves Shapiro-Wilk out (None) and keeps
        # Jarque-Bera; at n = 5000 it has both.
        x = np.random.default_rng(29).normal(size=5001)
        report = inar.inference.normality_report(x)
        assert report.sw_stat is None and report.sw_p is None
        assert (report.jb_stat, report.jb_p) == inar.jarque_bera(x)
        assert report.sample_size == 5001
        report = inar.inference.normality_report(x[:5000])
        assert (report.sw_stat, report.sw_p) == inar.shapiro_wilk(x[:5000])

    def test_affine_invariance(self):
        x = np.random.default_rng(23).normal(size=100)
        w0, _ = inar.shapiro_wilk(x)
        w1, _ = inar.shapiro_wilk(10.0 * x + 5.0)
        assert w1 == pytest.approx(w0, abs=1e-8)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            inar.shapiro_wilk(np.full(10, 1.0))

    def test_statistic_in_unit_interval(self):
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=40)
            w, p = inar.shapiro_wilk(x)
            assert 0.0 < w <= 1.0
            assert 0.0 <= p <= 1.0


class TestQQData:
    def test_single_point(self):
        z, v = inar.qq_data(np.array([5.0]))
        assert np.array_equal(z, [0.0]) and np.array_equal(v, [0.0])

    def test_values_sorted_and_standardized(self):
        x = np.random.default_rng(31).normal(3.0, 2.0, size=200)
        z, v = inar.qq_data(x)
        assert np.all(np.diff(v) >= 0)
        std = np.sort((x - x.mean()) / x.std(ddof=1))
        assert np.allclose(v, std, rtol=0, atol=1e-12)
        expect_z = [inar.normal_quantile((i - 0.5) / 200) for i in range(1, 201)]
        assert np.allclose(z, expect_z, rtol=0, atol=1e-12)

    def test_gaussian_slope_near_one(self):
        x = np.random.default_rng(41).normal(size=1000)
        z, v = inar.qq_data(x)
        slope = np.polyfit(z, v, 1)[0]
        assert 0.95 <= slope <= 1.05

    def test_order_invariance(self):
        x = np.random.default_rng(43).normal(size=64)
        z1, v1 = inar.qq_data(x)
        z2, v2 = inar.qq_data(x[::-1])
        assert np.array_equal(v1, v2) and np.array_equal(z1, z2)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            inar.qq_data(np.full(12, 2.0))


class TestHistogramData:
    def test_thirty_bins_default(self):
        x = np.random.default_rng(53).normal(size=500)
        left, right, count = inar.histogram_data(x)
        assert len(left) == len(right) == len(count) == 30
        assert count.sum() == 500
        assert left[0] == x.min() and right[-1] == x.max()
        widths = right - left
        assert np.allclose(widths, widths[0], rtol=1e-9)
        assert np.all(left[1:] == right[:-1])

    def test_custom_bins(self):
        x = np.arange(10, dtype=np.float64)
        left, right, count = inar.histogram_data(x, bins=5)
        assert len(count) == 5 and count.sum() == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            inar.histogram_data(np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "test",
    [inar.jarque_bera, inar.shapiro_wilk, inar.qq_data, inar.histogram_data,
     inar.inference.normality_report],
    ids=lambda f: f.__name__,
)
def test_non_finite_sample_rejected(test, bad):
    x = np.random.default_rng(59).normal(size=40)
    x[17] = bad
    with pytest.raises(DomainError, match="NaN or infinite"):
        test(x)


@pytest.mark.parametrize("scale, tests", [
    # The fourth moment overflows first, then the second.
    (1e80, [inar.jarque_bera]),
    (1e200, [inar.jarque_bera, inar.shapiro_wilk, inar.qq_data]),
    (1.7e308, [inar.jarque_bera, inar.shapiro_wilk, inar.qq_data]),
])
def test_overflowing_moments_rejected(scale, tests):
    # Finite values whose moments overflow float64 unscaled. They raised
    # DomainError until the diagnostics scaled each sample by a power of two
    # into (-1, 1). Now, with no overflow warning (an error under the
    # suite's filter), each gets the statistics of the same sample times
    # any power of two bit for bit, and those of the unit-scale sample to
    # within rounding.
    x = np.random.default_rng(61).normal(size=40)
    huge = x * (scale / np.abs(x).max())
    for test in tests:
        got = test(huge)
        assert np.isfinite(got).all()
        for exp in (-1100, -math.frexp(scale)[1], -1):
            assert np.asarray(test(np.ldexp(huge, exp))).tobytes() == np.asarray(got).tobytes()
        np.testing.assert_allclose(got[-1], test(x)[-1], rtol=1e-12)


@pytest.mark.parametrize("test", [inar.jarque_bera, inar.shapiro_wilk, inar.qq_data],
                         ids=lambda f: f.__name__)
def test_tiny_sample_has_statistics(test):
    # Distinct values whose second moment underflows unscaled: statistics,
    # not ZeroVariance.
    x = np.random.default_rng(67).normal(size=40)
    got = test(x * 1e-200)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, test(x), rtol=1e-12)


def test_histogram_of_a_range_beyond_float64():
    # max - min overflows float64: binned at unit scale, edges scaled back.
    left, right, count = inar.histogram_data([1e308, -1e308, 0.0], bins=4)
    assert np.isfinite(left).all() and np.isfinite(right).all()
    assert left[0] == -1e308 and right[-1] == 1e308
    assert count.tolist() == [1, 0, 1, 1]


def test_histogram_scale_free():
    # Counts keep their bins and edges scale exactly under a power of two;
    # a constant sample keeps numpy's unit-wide range around its value.
    x = np.random.default_rng(71).normal(size=200) * 37.0
    left, right, count = inar.histogram_data(x, bins=30)
    edges = np.histogram(x, bins=30)[1]
    assert left.tobytes() == edges[:-1].tobytes() and right.tobytes() == edges[1:].tobytes()
    for exp in (-900, 700):
        scaled = inar.histogram_data(np.ldexp(x, exp), bins=30)
        assert scaled[2].tolist() == count.tolist()
        assert scaled[0].tobytes() == np.ldexp(left, exp).tobytes()
    left, right, count = inar.histogram_data([5.0, 5.0, 5.0], bins=2)
    assert left.tolist() == [4.5, 5.0] and right.tolist() == [5.0, 5.5]


@pytest.mark.parametrize("value, bins", [
    (1e17, 1), (1e17, 30), (-1e17, 1), (-1e17, 30), (1e308, 1), (1e308, 30), (2.0 ** 50, 30)])
def test_histogram_of_a_huge_constant_sample(value, bins):
    # numpy widens a one-point range by 0.5 either way, which a value this
    # large absorbs (2**50 still fits one bin, not thirty): a DomainError
    # naming the value, not numpy's ValueError.
    with pytest.raises(DomainError, match=re.escape(f"constant sample of value {value!r} ")):
        inar.histogram_data([value] * 3, bins=bins)


@pytest.mark.parametrize("value, bins", [
    (5.0, 1), (5.0, 30), (-3.25, 30), (0.0, 7), (2.0 ** 40, 30), (-(2.0 ** 40), 30),
    (2.0 ** 50, 1), (2.0 ** 53 - 1, 2)])
def test_histogram_of_a_constant_sample_keeps_numpy_edges(value, bins):
    # Smaller constant samples keep numpy's edges, value - 0.5 to value +
    # 0.5, bit for bit.
    left, right, count = inar.histogram_data([value] * 3, bins=bins)
    want_count, edges = np.histogram([value] * 3, bins=bins)
    assert left.tobytes() == edges[:-1].tobytes() and right.tobytes() == edges[1:].tobytes()
    assert count.tolist() == want_count.tolist() and count.sum() == 3
    if abs(value) < 2.0 ** 52:
        assert left[0] == value - 0.5 and right[-1] == value + 0.5


class TestSandwich:
    def test_iid_poisson_scalar(self):
        # p=0: Sigma reduces to the residual variance, which is nu for Poisson
        params = ModelParams(nu=100.0)
        path = inar.simulate_path(params, 100_000, RngStream(19))
        theta = inar.solve_cls(inar.build_design(path, 0))
        cov = inar.sandwich_covariance(path, theta)
        sigma = float(cov.Sigma_hat[0, 0])
        assert abs(sigma - 100.0) / 100.0 <= 0.05
        assert cov.J_hat[0, 0] == 2.0

    def test_constant_path_zero_covariance(self):
        path = CountPath(counts=np.full(50, 7, dtype=np.int64))
        theta = inar.solve_cls(inar.build_design(path, 0))
        cov = inar.sandwich_covariance(path, theta)
        assert np.max(np.abs(cov.K_hat)) <= 1e-20
        assert np.max(np.abs(cov.Sigma_hat)) <= 1e-20

    def test_j_is_twice_design(self, case1_params):
        # Counts, and a non-integer path, whose sums depend on their order:
        # J_hat comes from the fit's own design build either way.
        counts = inar.simulate_path(case1_params, 2000, RngStream(29))
        gamma = np.random.default_rng(29).gamma(2.0, 3.0, size=500)
        for path in (counts, gamma):
            sys = inar.build_design(path, 5)
            theta = inar.solve_cls(sys)
            cov = inar.sandwich_covariance(path, theta)
            assert np.array_equal(cov.J_hat, 2.0 * sys.Y)

    def test_symmetry_and_psd(self, case1_params):
        path = inar.simulate_path(case1_params, 2000, RngStream(37))
        theta = inar.solve_cls(inar.build_design(path, 5))
        cov = inar.sandwich_covariance(path, theta)
        for m in (cov.K_hat, cov.Sigma_hat):
            assert np.max(np.abs(m - m.T)) <= 1e-12 * max(1.0, np.max(np.abs(m)))
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-10 * max(1.0, np.trace(m))

    def test_singular_design_rejected(self):
        path = CountPath(counts=np.zeros(60, dtype=np.int64))
        theta = ThetaVector(mu=0.0, betas=(0.0,))
        with pytest.raises(SingularDesign):
            inar.sandwich_covariance(path, theta)

    @pytest.mark.parametrize("path, theta", [
        (np.array([1.0, np.nan, 3.0, 4.0, 5.0]), ThetaVector(mu=1.0, betas=(0.1,))),
        (np.array([1.0, 2.0, 3.0, 4.0, 5.0]), ThetaVector(mu=np.nan, betas=(0.1,))),
        (np.array([1.0, np.inf, 3.0, 4.0, 5.0]), ThetaVector(mu=1.0, betas=(0.1,))),
        (np.full(5, 1e200), ThetaVector(mu=1.0, betas=(0.1,))),
    ])
    def test_non_finite_rejected(self, path, theta):
        with pytest.raises(ValueError, match="non-finite"):
            inar.sandwich_covariance(path, theta)

    def test_matches_known_sampling_variance(self):
        # nu=100, empty kernel, p=0: Var(nu_hat) should track Sigma/T across seeds
        params = ModelParams(nu=100.0)
        T = 2000
        mus = []
        for seed in range(200):
            path = inar.simulate_path(params, T, RngStream(1000 + seed))
            mus.append(inar.solve_cls(inar.build_design(path, 0)).mu)
        emp = np.var(mus, ddof=1)
        path = inar.simulate_path(params, T, RngStream(1000))
        theta = inar.solve_cls(inar.build_design(path, 0))
        pred = float(inar.sandwich_covariance(path, theta).Sigma_hat[0, 0]) / T
        assert abs(pred - emp) / emp <= 0.5


def count_paths(T):
    """One count path of length T: all zero, constant, sparse or busy."""
    return st.one_of(
        st.just([0] * T),
        st.integers(0, 400).map(lambda c: [c] * T),
        st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=T, max_size=T),
        st.lists(st.integers(0, 10 ** 6), min_size=T, max_size=T),
    )


def sandwich_bytes(path, theta, p):
    """The bytes of J_hat, K_hat and Sigma_hat, or the exception raised."""
    try:
        cov = inar.sandwich_covariance(path, theta, p)
    except (SingularDesign, ValueError) as exc:
        return type(exc), str(exc)
    return cov.J_hat.tobytes(), cov.K_hat.tobytes(), cov.Sigma_hat.tobytes()


def fitted(path, p):
    """solve_cls of the path's design at p, or None where it is singular."""
    try:
        return inar.solve_cls(inar.build_design(path, p))
    except SingularDesign:
        return None


class TestSandwichReusesTheFit:
    # sandwich_covariance takes J_hat's inverse from the solve of the same
    # design; a bare ThetaVector carries none, so J_hat is inverted afresh.
    # Both routes must give the same bytes.

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_design_bit_for_bit(self, data):
        T = data.draw(st.integers(2, 80), label="T")
        p = data.draw(st.integers(0, min(T - 1, 25)), label="p")
        path = np.array(data.draw(count_paths(T), label="path"), dtype=np.int64)
        theta = fitted(path, p)
        if theta is None:
            return
        bare = ThetaVector.from_array(theta.to_array())
        assert sandwich_bytes(path, theta, p) == sandwich_bytes(path, bare, p)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_other_path_or_p_bit_for_bit(self, data):
        T = data.draw(st.integers(3, 60), label="T")
        p = data.draw(st.integers(0, min(T - 1, 15)), label="p")
        q = data.draw(st.integers(0, min(T - 1, 15)), label="q")
        path = np.array(data.draw(count_paths(T), label="path"), dtype=np.int64)
        other = np.array(data.draw(count_paths(T), label="other"), dtype=np.int64)
        theta = fitted(path, p)
        if theta is None:
            return
        bare = ThetaVector.from_array(theta.to_array())
        assert sandwich_bytes(other, theta, p) == sandwich_bytes(other, bare, p)
        assert sandwich_bytes(path, theta, q) == sandwich_bytes(path, bare, q)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_path_changed_after_the_fit(self, data):
        # An array's fit keeps no counts: a path changed in place after
        # the fit gets its own sandwich, at the fit's p and at another. A
        # CountPath's counts and float view refuse writes and cannot be
        # made writable again; only their bases, which own the data (they
        # are sealed in place, not copied), can.
        T = data.draw(st.integers(3, 60), label="T")
        p = data.draw(st.integers(0, min(T - 1, 15)), label="p")
        q = data.draw(st.integers(0, min(T - 1, 15)).filter(lambda v: v != p), label="q")
        counts = np.array(data.draw(count_paths(T), label="path"), dtype=np.float64)
        t = data.draw(st.integers(0, T - 1), label="t")
        value = data.draw(st.integers(0, 10 ** 6).filter(lambda v: v != counts[t]), label="value")
        for path in (counts.copy(), CountPath(counts=counts.astype(np.int64))):
            theta = fitted(path, p)
            if theta is None:
                return
            bare = ThetaVector.from_array(theta.to_array())
            if isinstance(path, np.ndarray):
                path[t] = value
            else:
                for held in (path.counts, path.counts_float()):
                    with pytest.raises(ValueError, match="WRITEABLE"):
                        held.flags.writeable = True
                    with pytest.raises(ValueError, match="read-only"):
                        held[t] = value
            assert sandwich_bytes(path, theta, p) == sandwich_bytes(path, bare, p)
            assert sandwich_bytes(path, theta, q) == sandwich_bytes(path, bare, q)

    def test_fit_sealed_for_good(self, case1_params):
        # The Y, Y^-1 and row an estimate keeps are views of an immutable
        # bytes copy: numpy makes none of them, nor any array they are
        # views of, writable again. A write to the system's Y through its
        # base does not reach the sandwich of the estimate.
        path = inar.simulate_path(case1_params, 300, RngStream(5))
        for p in (0, 4):
            system = inar.build_design(path, p)
            theta = inar.solve_cls(system)
            want = sandwich_bytes(path, theta, p)
            assert want == sandwich_bytes(path, ThetaVector.from_array(theta.to_array()), p)
            for kept in theta._fit[1:]:
                assert not np.shares_memory(kept, system.Y)
                base = kept
                while isinstance(base, np.ndarray):
                    with pytest.raises(ValueError, match="WRITEABLE"):
                        base.flags.writeable = True
                    base = base.base
                assert isinstance(base, bytes)
            assert theta._fit[3].tobytes() == theta.to_array().tobytes()
            system.Y.base.flags.writeable = True
            system.Y.base[...] = 7.0
            assert sandwich_bytes(path, theta, p) == want

    def test_reuse_by_identity(self, monkeypatch, case1_params):
        # The sandwich of an estimate on its own CountPath knows the path by
        # its float view: no counts are compared. Equal counts in an array
        # or in a second CountPath, other counts or another p rebuild Y.
        # Every route gives the bare estimate's bytes.
        path = inar.simulate_path(case1_params, 400, RngStream(7))
        p = 3
        theta = inar.solve_cls(inar.build_design(path, p))
        bare = ThetaVector.from_array(theta.to_array())
        assert theta._fit[0] is path.counts_float()
        want = {q: sandwich_bytes(path, bare, q) for q in (p, p + 1)}
        other = path.counts[::-1].copy()
        want_other = sandwich_bytes(other, bare, p)
        builds = []
        real_build = inar._kernels.design_build

        def build(x, q):
            builds.append(q)
            return real_build(x, q)

        def no_compare(*args, **kwargs):
            raise AssertionError("counts compared")
        monkeypatch.setattr(inar._kernels, "design_build", build)
        with monkeypatch.context() as m:
            m.setattr(np, "array_equal", no_compare)
            assert sandwich_bytes(path, theta, p) == want[p]
        assert builds == []
        assert sandwich_bytes(path.counts.astype(np.float64), theta, p) == want[p]
        assert sandwich_bytes(path.counts, theta, p) == want[p]
        assert sandwich_bytes(CountPath(counts=path.counts), theta, p) == want[p]
        assert builds == [p, p, p]
        builds.clear()
        assert sandwich_bytes(CountPath(counts=other), theta, p) == want_other
        assert sandwich_bytes(other, theta, p) == want_other
        assert sandwich_bytes(path, theta, p + 1) == want[p + 1]
        assert builds == [p, p, p + 1]

    def test_simulated_paths_bit_for_bit(self, case1_params, case2_params):
        # The study's paths, and p = 30, a size the property above never
        # reaches.
        for params in (case1_params, case2_params):
            for stream_id in (1, 2):
                path = inar.simulate_path(params, 500, RngStream(41, stream_id))
                for p in (0, 1, 3, 10, 20, 30):
                    theta = inar.solve_cls(inar.build_design(path, p))
                    bare = ThetaVector.from_array(theta.to_array())
                    assert sandwich_bytes(path, theta, p) == sandwich_bytes(path, bare, p)

    def test_one_factorisation_per_fit(self, monkeypatch, case1_params, tmp_path, run_cli):
        path = inar.simulate_path(case1_params, 300, RngStream(3))
        calls = []
        builds = []

        def counted(name):
            real = getattr(np.linalg, name)

            def call(a, *args, **kwargs):
                calls.append((name, a.shape))
                return real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, call)

        counted("inv")
        counted("eigh")
        real_build = inar._kernels.design_build

        def build(x, p):
            builds.append((x.shape, p))
            return real_build(x, p)
        monkeypatch.setattr(inar._kernels, "design_build", build)
        # The sandwich of a fit on its own path and p builds nothing: it
        # takes Y and Y^-1 from the fit.
        theta = inar.solve_cls(inar.build_design(path, 5))
        inar.sandwich_covariance(path, theta, 5)
        assert calls == [("inv", (1, 6, 6))]
        assert builds == [((300, 1), 5)]
        # A hand-built estimate carries no inverse: the sandwich makes a
        # second one.
        calls.clear()
        builds.clear()
        theta = inar.solve_cls(inar.build_design(path, 5))
        inar.sandwich_covariance(path, ThetaVector.from_array(theta.to_array()), 5)
        assert calls == [("inv", (1, 6, 6)), ("inv", (1, 6, 6))]
        assert builds == [((300, 1), 5)] * 2
        # So does a sandwich at another p than the fit's, and it builds a
        # second design, as one on another path at the fit's p does.
        calls.clear()
        builds.clear()
        inar.sandwich_covariance(path, theta, 4)
        assert calls == [("inv", (1, 5, 5))]
        assert builds == [((300, 1), 4)]
        builds.clear()
        inar.sandwich_covariance(path.counts[::-1], theta, 5)
        assert builds == [((300, 1), 5)]
        # A system built from an array, here a non-integer path, keeps
        # neither the array nor a copy, and its estimate no inverse: the
        # sandwich builds its own design and makes its own inverse, and
        # gives the bare estimate's bytes.
        calls.clear()
        builds.clear()
        gamma = np.random.default_rng(29).gamma(2.0, 3.0, size=500)
        system = inar.build_design(gamma, 5)
        gamma_theta = inar.solve_cls(system)
        assert system._counts is None and gamma_theta._fit is None
        inar.sandwich_covariance(gamma, gamma_theta, 5)
        assert calls == [("inv", (1, 6, 6))] * 2
        assert builds == [((500, 1), 5)] * 2
        bare = ThetaVector.from_array(gamma_theta.to_array())
        assert sandwich_bytes(gamma, gamma_theta, 5) == sandwich_bytes(gamma, bare, 5)
        # A stacked fit of conditioned lanes makes one batched inverse.
        calls.clear()
        inar.fit_lanes(np.column_stack([path.counts, path.counts[::-1]]), 5)
        assert calls == [("inv", (2, 6, 6))]
        # `inar estimate --ci` is one fit, plus the eigh of its rcond field.
        inar.write_path_csv(path, tmp_path / "path.csv")
        calls.clear()
        builds.clear()
        proc = run_cli(["estimate", "--path", tmp_path / "path.csv", "--p", 5, "--ci"])
        assert proc.returncode == 0, proc.stderr
        assert calls == [("inv", (1, 6, 6)), ("eigh", (6, 6))]
        assert builds == [((300, 1), 5)]

    def test_estimate_is_its_values(self, case1_params):
        # The inverse an estimate keeps is not one of its fields.
        path = inar.simulate_path(case1_params, 300, RngStream(3))
        theta = inar.solve_cls(inar.build_design(path, 4))
        bare = ThetaVector.from_array(theta.to_array())
        assert [f.name for f in fields(theta)] == ["mu", "betas"]
        assert theta == bare and hash(theta) == hash(bare)
        assert repr(theta) == repr(bare)
        assert asdict(theta) == asdict(bare)
        assert replace(theta) == bare

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_to_array_is_a_fresh_copy(self, data):
        # to_array gives a new writable float64 array of (mu, *betas), bit
        # for bit, for an estimate that carries its fit and for hand-built
        # ones; writing into it reaches neither the estimate nor a later
        # sandwich.
        T = data.draw(st.integers(3, 60), label="T")
        p = data.draw(st.integers(0, min(T - 1, 15)), label="p")
        path = CountPath(counts=np.array(data.draw(count_paths(T), label="path"), dtype=np.int64))
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        hand = ThetaVector(mu=data.draw(finite, label="mu"),
                           betas=data.draw(st.lists(finite, min_size=p, max_size=p), label="betas"))
        theta = fitted(path, p)
        estimates = [hand] if theta is None else [theta, ThetaVector.from_array(theta.to_array()), hand]
        for est in estimates:
            values = (est.mu, *est.betas)
            want = sandwich_bytes(path, est, p)
            first, second = est.to_array(), est.to_array()
            for arr in (first, second):
                assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.owndata
                assert arr.tobytes() == np.array(values, dtype=np.float64).tobytes()
            assert not np.shares_memory(first, second)
            first[:] = np.nan
            assert (est.mu, *est.betas) == values
            assert est.to_array().tobytes() == second.tobytes()
            assert sandwich_bytes(path, est, p) == want


@pytest.mark.parametrize("T, p", [(200, 10), (1000, 30)])
def test_stacked_sandwich_is_the_one_lane_sandwich(case1_params, case2_params, T, p):
    # K_hat and Sigma of a (T, N) count stack, over more than one lane chunk,
    # are the one-lane sandwich's bit for bit. A lane whose fit fails (an
    # all-zero path: singular design) has a NaN theta, and its K_hat and
    # Sigma are NaN.
    k = inar._kernels
    n_lanes = 40
    assert n_lanes > k._LAG_VALUES // (T * (p + 1))
    for params in (case1_params, case2_params):
        counts, _ = inar.simulate_lanes(params, T, 43, range(n_lanes))
        counts[:, 3] = 0.0
        y, b = k.design_build(counts, p)
        fits = k.cls_solve(y, b)
        ok = fits.status == k.FIT_OK
        assert ok.sum() == n_lanes - 1 and not ok[3]
        k_hat = k.score_variance(counts, fits.theta)
        sigma = k.sandwich_solve(2.0 * y, 0.5 * fits.inv, k_hat)
        assert np.isnan(k_hat[3]).all() and np.isnan(sigma[3]).all()
        for j in np.flatnonzero(ok):
            theta = inar.solve_cls(inar.build_design(counts[:, j], p))
            cov = inar.sandwich_covariance(counts[:, j], theta, p)
            assert k_hat[j].tobytes() == cov.K_hat.tobytes()
            assert sigma[j].tobytes() == cov.Sigma_hat.tobytes()


# sha256 prefixes of the bytes of theta, J_hat, K_hat, Sigma_hat and the
# 95% intervals of `estimate --ci` on one case-1 path (T = 1000, seed 11,
# stream 1) at every p in 0..20. They pin the fit's bits on one build:
# numpy 2.4 with OpenBLAS 0.3.31 on x86-64, whose long double (the
# refinement residual's) is 80-bit. Another BLAS or platform may round
# differently.
GOLDEN_DIGESTS = {
    0: {"theta": "1b58030724a6724b", "J_hat": "3f710ac088db3336", "K_hat": "8875f60f41922f76",
        "Sigma_hat": "103684b8f54b57a0", "ci": "776c9b82f2a9e443"},
    1: {"theta": "e671329e14c3074e", "J_hat": "712cbc49058774a2", "K_hat": "9ddceea0326eb1ee",
        "Sigma_hat": "cad46b5394349731", "ci": "e8734bd6b60e88e3"},
    2: {"theta": "9b2dcebd611d3125", "J_hat": "ec46cb7e1af6f50b", "K_hat": "2372002e9d0c110f",
        "Sigma_hat": "aa3fa39ba71aff6d", "ci": "546eea9fe0d34954"},
    3: {"theta": "380bbbce2967caf0", "J_hat": "aaf17a656f40effd", "K_hat": "995e0be8461d793a",
        "Sigma_hat": "0133348df39246bb", "ci": "ac7cf27995f0f1ad"},
    4: {"theta": "ff695090d2d8b795", "J_hat": "12b32fb637cc1897", "K_hat": "b68aeb75d0a20830",
        "Sigma_hat": "7daac2bc48e6f70b", "ci": "2f8e16ac440a1073"},
    5: {"theta": "c9be281fc60403b3", "J_hat": "d8bdc98835e44f11", "K_hat": "56e6951981ce1ad6",
        "Sigma_hat": "d615e0c6afa2d5ff", "ci": "d4a926875104ce55"},
    6: {"theta": "f46bb11be3c7a8a1", "J_hat": "6ebce1be3e9d69e9", "K_hat": "de456fc3b4a5f96c",
        "Sigma_hat": "6bfd9ce968cdf04d", "ci": "5ea80581fb8e83ae"},
    7: {"theta": "07947a4413cada62", "J_hat": "a3c0c99ceaef92bc", "K_hat": "cdba309165ee5391",
        "Sigma_hat": "71b44540fc2d8750", "ci": "72c5b5a4aa650ba9"},
    8: {"theta": "18c36f85f8c8ed00", "J_hat": "fe294bbd11dcc0ef", "K_hat": "35cec9673ee0dc15",
        "Sigma_hat": "49b9d1f2d2f700d6", "ci": "64b9cd9efbb61f3f"},
    9: {"theta": "15a8d4adda660dbe", "J_hat": "a758e816d6402063", "K_hat": "27f29c81d9972279",
        "Sigma_hat": "7d625ffc0d6108d4", "ci": "e846095161490f68"},
    10: {"theta": "697095ca751291c1", "J_hat": "cdac560a6563bb08", "K_hat": "39e1a9b49cb7ad9b",
         "Sigma_hat": "19a643cb4d14c8ab", "ci": "87bd03feca7b4c80"},
    11: {"theta": "2df0ebb81f166aeb", "J_hat": "edbc8bfea33a5579", "K_hat": "51ef11dd0f6fcbde",
         "Sigma_hat": "cb9f2959aa48f9aa", "ci": "cf74e744fa922e56"},
    12: {"theta": "c27fc10431dfaac6", "J_hat": "02e97675f1d5422f", "K_hat": "ef1ad8d36746babd",
         "Sigma_hat": "e19fc9cb5e370530", "ci": "93401db75b39a718"},
    13: {"theta": "6348e7c6e60c12b9", "J_hat": "1632f80f1bac79c7", "K_hat": "3a2d8f65004297aa",
         "Sigma_hat": "8861bfd68ba8a5ae", "ci": "7d9f536429e59751"},
    14: {"theta": "46d2a8d55a8daf72", "J_hat": "1d100689fd8c2d7d", "K_hat": "831922d54d8778b1",
         "Sigma_hat": "71bbc83e0e2fc9ec", "ci": "91d8a6e903dc674d"},
    15: {"theta": "639d13c9ef8959c0", "J_hat": "a6657eb911c33620", "K_hat": "99a4ada8bc3b4f5d",
         "Sigma_hat": "4eedabf26765c2c0", "ci": "0c3958a89e951052"},
    16: {"theta": "e4df83bdfd360c96", "J_hat": "f839b819973e8ccd", "K_hat": "7a9eb13b734aa917",
         "Sigma_hat": "64f367d2bcfe59eb", "ci": "464c23d20ccace0a"},
    17: {"theta": "10ce56d775c8bc28", "J_hat": "13dc5251d63a114a", "K_hat": "3fd6c801df108c15",
         "Sigma_hat": "e84af429248beae6", "ci": "a409e122526ea01d"},
    18: {"theta": "a3168acb0695aa7b", "J_hat": "8fd59cc0267fc3de", "K_hat": "20f729a58d1d5f83",
         "Sigma_hat": "e591e2eb815c5950", "ci": "71fe634ee20940b3"},
    19: {"theta": "f0d075e6f4eb7867", "J_hat": "453ee9e50259f893", "K_hat": "3f6ec9001a32a4e4",
         "Sigma_hat": "fb4a37265d0452b7", "ci": "2797f5bdd1095a31"},
    20: {"theta": "9f469c6856904b8d", "J_hat": "deaf19fbc60973d2", "K_hat": "74a661add188bfcd",
         "Sigma_hat": "1d75fab363dce40d", "ci": "eafe0bc97256c8e5"},
}


@pytest.mark.parametrize("p", sorted(GOLDEN_DIGESTS))
def test_golden_digests(case1_params, p):
    # The estimate that carries its fit, and a bare one of its values.
    path = inar.simulate_path(case1_params, 1000, RngStream(11, 1))
    theta = inar.solve_cls(inar.build_design(path, p))
    for est in (theta, ThetaVector.from_array(theta.to_array())):
        cov = inar.sandwich_covariance(path, est, p)
        ci = inar.confidence_intervals(est, cov, len(path))
        parts = {"theta": est.to_array(), "J_hat": cov.J_hat, "K_hat": cov.K_hat,
                 "Sigma_hat": cov.Sigma_hat, "ci": np.array(ci, dtype=np.float64)}
        got = {k: hashlib.sha256(v.tobytes()).hexdigest()[:16] for k, v in parts.items()}
        assert got == GOLDEN_DIGESTS[p]


# sha256 prefixes of the bytes of fit_lanes' theta and fitted mask on 256
# lanes of each README case (T = 200, p = 10, seed 11, streams 0..255): the
# stacked fit of a study block, pinned on the build GOLDEN_DIGESTS names.
GOLDEN_LANE_DIGESTS = {
    "case1": {"theta": "9263bec7c7a363cf", "fitted": "2661920f2409dd6c"},
    "case2": {"theta": "f891ff6a073891c6", "fitted": "2661920f2409dd6c"},
}


@pytest.mark.parametrize("case", sorted(GOLDEN_LANE_DIGESTS))
def test_golden_lane_digests(case1_params, case2_params, case):
    params = {"case1": case1_params, "case2": case2_params}[case]
    counts, _ = inar.simulate_lanes(params, 200, 11, range(256))
    theta, fitted = inar.fit_lanes(counts, 10)
    got = {"theta": hashlib.sha256(theta.tobytes()).hexdigest()[:16],
           "fitted": hashlib.sha256(fitted.tobytes()).hexdigest()[:16]}
    assert got == GOLDEN_LANE_DIGESTS[case]
