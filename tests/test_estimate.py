"""CLS design construction, the normal-equation solve, and the contrast function.

The T=3 hand case is worked fully by hand and pinned exactly; the rest of the
algebra is checked against naive double-loop implementations of the defining
sums on simulated paths.
"""

import numpy as np
import pytest

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

    def test_design_system_shape_check(self):
        with pytest.raises(DimensionMismatch):
            DesignSystem(Y=np.eye(3), b=np.zeros(2), T=10, p=2)


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
