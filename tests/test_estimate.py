"""CLS design construction, the normal-equation solve, and the contrast function.

The T=3 hand case is worked fully by hand and pinned exactly; the rest of the
algebra is checked against naive double-loop implementations of the defining
sums on simulated paths.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inar
from inar import (
    CountPath,
    DesignSystem,
    DimensionMismatch,
    LagTooLarge,
    RngStream,
    SingularDesign,
    ThetaVector,
)
from inar.simulate import simulate_lanes


def naive_design(x, p):
    """Textbook O(p^2 T) construction of (Y, b) with zero-padded lag vectors."""
    T = len(x)
    m = p + 1
    Y = np.zeros((m, m))
    b = np.zeros(m)
    for n in range(1, T + 1):
        z = np.zeros(m)
        z[0] = 1.0
        for k in range(1, p + 1):
            z[k] = x[n - 1 - k] if n - k >= 1 else 0.0
        Y += np.outer(z, z)
        b += z * x[n - 1]
    return Y / T, b / T


def hand_path():
    return CountPath(counts=np.array([1, 2, 1]))


class TestHandCase:
    def test_design_values(self):
        sys = inar.build_design(hand_path(), p=1)
        assert sys.b == pytest.approx([4.0 / 3.0, 4.0 / 3.0], abs=1e-15)
        assert sys.Y[0, 0] == 1.0
        assert sys.Y[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert sys.Y[1, 1] == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert sys.T == 3 and sys.p == 1

    def test_theta_hat(self):
        theta = inar.solve_cls(inar.build_design(hand_path(), p=1))
        assert abs(theta.mu - 4.0 / 3.0) <= 1e-12
        assert abs(theta.betas[0]) <= 1e-12

    def test_contrast_at_theta_hat(self):
        theta = ThetaVector(mu=4.0 / 3.0, betas=(0.0,))
        gamma = inar.contrast(hand_path(), theta)
        assert abs(gamma - (-16.0 / 9.0)) <= 1e-12


class TestBuildDesign:
    @pytest.mark.parametrize("p", [1, 3, 10])
    def test_matches_naive_loops(self, case1_params, p):
        path = inar.simulate_path(case1_params, 400, RngStream(61, p))
        sys = inar.build_design(path, p)
        Y0, b0 = naive_design(path.counts_float(), p)
        assert np.max(np.abs(sys.Y - Y0)) <= 1e-12 * max(1.0, np.max(np.abs(Y0)))
        assert np.max(np.abs(sys.b - b0)) <= 1e-12 * max(1.0, np.max(np.abs(b0)))

    def test_accepts_plain_array(self):
        sys = inar.build_design(np.array([1, 2, 1]), p=1)
        assert sys.b[0] == pytest.approx(4.0 / 3.0)

    def test_symmetric_and_psd(self, case1_params):
        path = inar.simulate_path(case1_params, 800, RngStream(62))
        sys = inar.build_design(path, 6)
        assert np.array_equal(sys.Y, sys.Y.T)
        eigs = np.linalg.eigvalsh(sys.Y)
        assert eigs.min() >= -1e-10 * np.trace(sys.Y)

    def test_lag_bounds(self):
        path = CountPath(counts=np.arange(1, 6))
        with pytest.raises(LagTooLarge):
            inar.build_design(path, 5)
        with pytest.raises(ValueError):
            inar.build_design(path, -1)
        theta = ThetaVector(mu=1.0, betas=(0.5,))
        with pytest.raises(LagTooLarge):
            inar.contrast(path, theta, p=5)
        with pytest.raises(ValueError, match="p must be >= 0"):
            inar.contrast(path, theta, p=-1)
        with pytest.raises(ValueError, match="p must be >= 0"):
            inar.intensity_series(path, theta, p=-1)

    # A lag order is an integer (a Python or numpy int); a float is
    # refused, not truncated.
    def test_lag_must_be_an_integer(self):
        path = CountPath(counts=np.arange(1, 6))
        with pytest.raises(ValueError, match=r"^p must be an integer, got 2\.7$"):
            inar.build_design(path, 2.7)
        with pytest.raises(ValueError, match=r"^p must be an integer, got 1\.0$"):
            inar.fit_lanes(np.ones((5, 2)), 1.0)
        assert inar.build_design(path, np.int64(2)).p == 2

    def test_design_system_shape_check(self):
        with pytest.raises(DimensionMismatch):
            DesignSystem(Y=np.eye(3), b=np.zeros(2), T=10, p=2)

    def test_lanes_need_a_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"counts must be a \(T, N\) array, got shape \(5,\)"):
            inar.fit_lanes(np.ones(5), 1)

    @pytest.mark.parametrize("p", [0, 3])
    def test_counts_near_int64_end(self, p):
        # Counts near 2**62 make products near 2**124, far inside float
        # range: a CountPath's design is finite and warns of nothing.
        counts = np.tile(np.array([2**62 - 1, 2**61], dtype=np.int64), 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = inar.build_design(CountPath(counts=counts), p)
        assert np.isfinite(system.Y).all() and np.isfinite(system.b).all()


@pytest.mark.parametrize("call", [
    lambda x, theta: inar.build_design(x, 1),
    lambda x, theta: inar.sandwich_covariance(x, theta),
    lambda x, theta: inar.intensity_series(x, theta),
    lambda x, theta: inar.contrast(x, theta),
], ids=["build_design", "sandwich_covariance", "intensity_series", "contrast"])
def test_path_must_be_one_dimensional(call):
    theta = ThetaVector(mu=1.0, betas=(0.5,))
    with pytest.raises(DimensionMismatch, match=r"path must be a \(T,\) array, got shape \(5, 2\)"):
        call(np.ones((5, 2)), theta)


class TestSolveCls:
    def test_identity_design(self):
        b = np.array([2.0, -0.5, 0.25])
        sys = DesignSystem(Y=np.eye(3), b=b, T=100, p=2)
        theta = inar.solve_cls(sys)
        assert np.allclose(theta.to_array(), b, rtol=0, atol=1e-14)
        assert inar.residual_norm(sys, theta) <= 1e-12

    def test_residual_bound(self, case1_params):
        path = inar.simulate_path(case1_params, 1000, RngStream(63))
        sys = inar.build_design(path, 10)
        theta = inar.solve_cls(sys)
        resid = np.linalg.norm(sys.Y @ theta.to_array() - sys.b)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(sys.b))

    def test_all_zero_path_singular(self):
        path = CountPath(counts=np.zeros(50, dtype=np.int64))
        with pytest.raises(SingularDesign):
            inar.solve_cls(inar.build_design(path, 2))

    def test_rcond_reflects_rank(self, case1_params):
        path = inar.simulate_path(case1_params, 500, RngStream(64))
        sys = inar.build_design(path, 3)
        assert inar.rcond(sys) > 1e-12
        zeros = inar.build_design(CountPath(counts=np.zeros(50, dtype=np.int64)), 2)
        assert inar.rcond(zeros) == 0.0

    @pytest.mark.parametrize("x", [
        [1.0, np.nan, 3.0, 4.0, 5.0],
        [1.0, np.inf, 3.0, 4.0, 5.0],
        [1e200] * 5,
    ], ids=["nan", "inf", "1e200"])
    def test_non_finite_path(self, x):
        # A NaN, inf or overflowing path ends in the documented error and a
        # NaN row, with no floating-point warning on the way.
        x = np.array(x)
        with pytest.raises(SingularDesign, match="non-finite"):
            inar.solve_cls(inar.build_design(x, 1))
        theta, fitted = inar.fit_lanes(np.stack([x, [3.0, 1.0, 4.0, 1.0, 5.0]], axis=1), 1)
        assert fitted.tolist() == [False, True]
        assert np.isnan(theta[0]).all() and np.isfinite(theta[1]).all()


class TestContrast:
    def test_quadratic_identity(self, case1_params):
        # gamma_T(theta) == -2 theta'b + theta'Y theta for arbitrary theta
        rng = np.random.default_rng(99)
        path = inar.simulate_path(case1_params, 200, RngStream(65))
        for _ in range(100):
            p = int(rng.integers(0, 6))
            sys = inar.build_design(path, p)
            arr = rng.normal(0.0, 50.0, size=p + 1)
            theta = ThetaVector.from_array(arr)
            direct = inar.contrast(path, theta, p=p)
            quad = float(-2.0 * arr @ sys.b + arr @ sys.Y @ arr)
            assert abs(direct - quad) <= 1e-10 * max(1.0, abs(quad))

    def test_zero_theta(self, case1_params):
        path = inar.simulate_path(case1_params, 100, RngStream(66))
        assert inar.contrast(path, ThetaVector(mu=0.0, betas=(0.0, 0.0))) == 0.0

    def test_minimum_value_identity(self, case1_params):
        # at the solution, gamma(theta_hat) = -theta_hat'b
        path = inar.simulate_path(case1_params, 1000, RngStream(67))
        sys = inar.build_design(path, 5)
        theta = inar.solve_cls(sys)
        gamma = inar.contrast(path, theta, p=5)
        expect = -float(theta.to_array() @ sys.b)
        assert abs(gamma - expect) <= 1e-10 * max(1.0, abs(expect))

    def test_theta_hat_is_global_min(self, case1_params):
        path = inar.simulate_path(case1_params, 400, RngStream(68))
        sys = inar.build_design(path, 4)
        theta = inar.solve_cls(sys)
        base = inar.contrast(path, theta, p=4)
        rng = np.random.default_rng(3)
        for _ in range(100):
            delta = rng.normal(size=5)
            delta /= max(1.0, np.linalg.norm(delta))
            other = ThetaVector.from_array(theta.to_array() + delta)
            assert inar.contrast(path, other, p=4) >= base - 1e-9


class TestGradient:
    def test_zero_at_solution(self, case1_params):
        path = inar.simulate_path(case1_params, 600, RngStream(69))
        sys = inar.build_design(path, 4)
        theta = inar.solve_cls(sys)
        grad = inar.contrast_gradient(sys, theta)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_at_origin(self, case1_params):
        path = inar.simulate_path(case1_params, 300, RngStream(70))
        sys = inar.build_design(path, 2)
        grad = inar.contrast_gradient(sys, ThetaVector.from_array(np.zeros(3)))
        assert np.allclose(grad, -2.0 * sys.b, rtol=0, atol=1e-14)

    def test_matches_finite_differences(self, case1_params):
        path = inar.simulate_path(case1_params, 300, RngStream(71))
        p = 3
        sys = inar.build_design(path, p)
        rng = np.random.default_rng(12)
        arr = rng.uniform(0.0, 10.0, size=p + 1)
        grad = inar.contrast_gradient(sys, ThetaVector.from_array(arr))
        h = 1e-5
        for j in range(p + 1):
            up, dn = arr.copy(), arr.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                inar.contrast(path, ThetaVector.from_array(up), p=p)
                - inar.contrast(path, ThetaVector.from_array(dn), p=p)
            ) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_dimension_mismatch(self, case1_params):
        path = inar.simulate_path(case1_params, 100, RngStream(72))
        sys = inar.build_design(path, 2)
        with pytest.raises(DimensionMismatch):
            inar.contrast_gradient(sys, ThetaVector(mu=1.0, betas=(0.1,)))


class TestIntensitySeries:
    def test_hand_values(self):
        path = CountPath(counts=np.array([1, 2, 1]))
        phi = inar.intensity_series(path, ThetaVector(mu=1.0, betas=(1.0,)))
        assert np.array_equal(phi, [1.0, 2.0, 3.0])

    def test_first_value_is_mu(self, case1_params):
        path = inar.simulate_path(case1_params, 50, RngStream(73))
        phi = inar.intensity_series(path, ThetaVector(mu=42.0, betas=(0.5,)))
        assert phi[0] == 42.0

    def test_zero_betas_constant(self):
        path = CountPath(counts=np.array([3, 1, 4, 1, 5]))
        phi = inar.intensity_series(path, ThetaVector(mu=2.5, betas=()), p=2)
        assert np.all(phi == 2.5)


class TestThetaVector:
    def test_roundtrip(self):
        theta = ThetaVector(mu=1.5, betas=(0.2, 0.1))
        assert theta.p == 2
        back = ThetaVector.from_array(theta.to_array())
        assert back == theta

    def test_from_array_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            ThetaVector.from_array(np.array([]))


def test_consistency_trend(case1_params):
    # mean distance to the truth shrinks from T=200 to T=1000 over 50 seeds
    truth = inar.truth_vector(case1_params, 10)
    err = {}
    for T in (200, 1000):
        dist = []
        for seed in range(50):
            path = inar.simulate_path(case1_params, T, RngStream(9000 + seed))
            theta = inar.solve_cls(inar.build_design(path, 10))
            dist.append(np.linalg.norm(theta.to_array() - truth))
        err[T] = np.mean(dist)
    assert err[1000] < err[200]


# The exact oracle: the rational solution of the same float system, by
# Gauss-Jordan elimination in Fractions, rounded once to float64. It does
# not depend on how the package solves. The tolerances were fixed before
# the tests first ran on either solve route (eigenvalues, or the LU
# inverse): ULPS from the largest errors measured on case-1 lanes at
# T=1000 (249 and 1,364 ulps for the inverse, 953 and 2,710 for the
# eigenvalues, at p = 10 and 20), SIGMA_REL as a normwise bound far above
# rounding and far below what an unrefined solve leaves at rcond ~ 1e-8.
ULPS = 4096
SIGMA_REL = 1e-10
EPS = np.finfo(np.float64).eps


def exact_solve(a, rhs):
    """The exact X of A X = rhs for an (m, m) A and (m, k) rhs whose
    entries are floats or Fractions, as an (m, k) list of Fractions."""
    m = len(a)
    rows = [[Fraction(v) for v in a[i]] + [Fraction(v) for v in rhs[i]] for i in range(m)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[m:] for row in rows]


def exact_theta(system):
    """The exact solution of Y theta = b, rounded to float64."""
    return np.array([float(v[0]) for v in exact_solve(system.Y, system.b[:, None])])


def ulps(got, exact, scale):
    """|got - exact| in units of the float spacing at |scale|."""
    return np.abs(got - exact) / np.spacing(np.abs(scale))


def count_paths(T):
    """One count path of length T: sparse or busy (an all-zero or constant
    path is singular and has no exact solution to compare with)."""
    return st.one_of(
        st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=T, max_size=T),
        st.lists(st.integers(0, 300), min_size=T, max_size=T),
        st.lists(st.integers(0, 10 ** 6), min_size=T, max_size=T),
    )


class TestExactOracle:
    @pytest.mark.parametrize("p", [10, 20])
    def test_study_paths_every_component(self, case1_params, case2_params, p):
        for params in (case1_params, case2_params):
            counts, _ = simulate_lanes(params, 1000, 2024, range(1, 5))
            for j in range(counts.shape[1]):
                system = inar.build_design(counts[:, j], p)
                exact = exact_theta(system)
                got = inar.solve_cls(system).to_array()
                assert ulps(got, exact, exact).max() <= ULPS

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_path(self, data):
        T = data.draw(st.integers(2, 60), label="T")
        p = data.draw(st.integers(0, min(T - 1, 15)), label="p")
        path = np.array(data.draw(count_paths(T), label="path"), dtype=np.int64)
        system = inar.build_design(path, p)
        try:
            got = inar.solve_cls(system).to_array()
        except SingularDesign:
            return
        exact = exact_theta(system)
        # One refinement step leaves a normwise error of about
        # eps (1 + eps kappa^2) |theta| (Higham 2002, sec. 12.1); a
        # component far below the largest is measured at that scale.
        kappa = 1.0 / inar.rcond(system)
        floor = (1.0 + EPS * kappa * kappa) * np.abs(exact).max()
        assert ulps(got, exact, np.maximum(np.abs(exact), floor)).max() <= ULPS

    def test_sandwich(self, case1_params, case2_params):
        # Sigma = J^-1 K J^-1 exactly from the record's own J_hat and K_hat.
        for params in (case1_params, case2_params):
            for stream_id in (1, 2):
                path = inar.simulate_path(params, 1000, RngStream(2024, stream_id))
                for p in (3, 10):
                    theta = inar.solve_cls(inar.build_design(path, p))
                    cov = inar.sandwich_covariance(path, theta, p)
                    half = exact_solve(cov.J_hat, cov.K_hat)
                    sigma = exact_solve(cov.J_hat, [list(col) for col in zip(*half)])
                    exact = np.array([[float(v) for v in row] for row in sigma])
                    err = np.abs(cov.Sigma_hat - exact).max()
                    assert err <= SIGMA_REL * np.abs(exact).max()
