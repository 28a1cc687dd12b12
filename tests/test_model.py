"""Renewal sequence, moment bounds, and parameter validation.

The renewal tests lean on a brute-force convolution-power oracle: within a
window of length n the sum of the first n convolution powers of the kernel
is exact, because the m-th power has no mass below lag m.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import inar
from inar import DimensionMismatch, ModelParams, NonStationaryKernel


def brute_renewal(kernel, n_max):
    """Sum the convolution powers of the kernel explicitly (exact for lags <= n_max)."""
    al = np.zeros(n_max + 1)
    for i, a in enumerate(kernel):
        if i + 1 <= n_max:
            al[i + 1] = float(a)
    total = np.zeros(n_max + 1)
    power = al.copy()
    for _ in range(n_max):
        total += power
        nxt = np.zeros(n_max + 1)
        for i in range(1, n_max + 1):
            if power[i] != 0.0:
                for j in range(1, n_max - i + 1):
                    nxt[i + j] += power[i] * al[j]
        power = nxt
        if not power.any():
            break
    return total[1:]


def random_kernel(rng, max_len=8, l1_max=0.9):
    q = int(rng.integers(1, max_len + 1))
    raw = rng.random(q) + 0.05
    target = rng.uniform(0.1, l1_max)
    return tuple(raw * (target / raw.sum()))


EXACT_QUARTER = tuple(0.25 ** k for k in range(1, 21))


class TestRenewalSequence:
    def test_matches_convolution_power_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            kern = random_kernel(rng)
            seq = inar.renewal_sequence(kern, 40)
            oracle = brute_renewal(kern, 40)
            assert np.max(np.abs(seq.values - oracle)) <= 1e-10

    def test_n_max_is_a_size(self):
        with pytest.raises(ValueError, match=r"^n_max must be an integer, got 2\.5$"):
            inar.renewal_sequence((0.5,), 2.5)
        with pytest.raises(ValueError, match=r"^n_max must be >= 1, got 0$"):
            inar.renewal_sequence((0.5,), 0)
        assert inar.renewal_sequence((0.5,), np.int64(3)).values.tolist() == [0.5, 0.25, 0.125]

    def test_single_lag_closed_form(self):
        # kernel (a,): A_n = a^n
        seq = inar.renewal_sequence((0.5,), 30)
        expect = 0.5 ** np.arange(1, 31)
        assert np.max(np.abs(seq.values - expect) / expect) <= 1e-12

    def test_empty_kernel_is_zero(self):
        seq = inar.renewal_sequence((), 10)
        assert len(seq) == 10
        assert np.all(seq.values == 0.0)

    def test_quarter_geometric_halving(self):
        # alpha_k = 4^{-k} gives A_n = 2^{-(n+1)}
        seq = inar.renewal_sequence(EXACT_QUARTER, 20)
        expect = 0.5 ** (np.arange(1, 21) + 1)
        assert np.max(np.abs(seq.values - expect) / expect) <= 1e-12

    def test_partial_sums_bounded(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            kern = random_kernel(rng)
            l1 = sum(kern)
            seq = inar.renewal_sequence(kern, 60)
            sums = np.cumsum(seq.values)
            assert np.all(np.diff(sums) >= -1e-15)
            assert sums[-1] <= l1 / (1.0 - l1) + 1e-12

    def test_nonstationary_raises(self):
        with pytest.raises(NonStationaryKernel):
            inar.renewal_sequence((0.6, 0.5), 5)

    # sha256 prefixes of the bytes of A_1..A_4000, recorded with the earlier
    # loop that summed each A_n on numpy scalars: the recursion's values are
    # kept bit for bit.
    @pytest.mark.parametrize("kernel, digest", [
        (inar.geometric_kernel(0.25), "842562a85b022890"),
        ((0.8,), "148a022bee700965"),
        (tuple(np.random.default_rng(2030).dirichlet(np.ones(12)) * 0.95), "1ea4c6ddc8b197e0"),
        (tuple(np.random.default_rng(2031).dirichlet(np.ones(200)) * 0.9), "651bcc3ca9c45950"),
    ], ids=["case1", "case2", "random12", "random200"])
    def test_digest(self, kernel, digest):
        values = inar.renewal_sequence(kernel, 4000).values
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest

    def test_container_semantics(self):
        seq = inar.renewal_sequence((0.5,), 4)
        assert len(seq) == 4
        assert seq[0] == seq.values[0]
        assert not seq.values.flags.writeable


class TestSolveRenewal:
    def test_empty_kernel_identity(self):
        y = np.array([3.0, 1.0, 4.0, 1.5])
        x = inar.solve_renewal(y, ())
        assert np.array_equal(x, y)

    def test_constant_forcing_closed_form(self):
        # y_n = 100 with the quarter kernel: x_n = 100 (3/2 - 2^{-n})
        y = np.full(20, 100.0)
        x = inar.solve_renewal(y, EXACT_QUARTER)
        n = np.arange(1, 21)
        expect = 100.0 * (1.5 - 0.5 ** n)
        assert np.max(np.abs(x - expect) / expect) <= 1e-12

    def test_resubstitution(self):
        # the solution must satisfy x_n = y_n + sum_s alpha_s x_{n-s}
        rng = np.random.default_rng(5150)
        for _ in range(10):
            kern = random_kernel(rng)
            y = rng.uniform(0.0, 50.0, size=40)
            x = inar.solve_renewal(y, kern)
            scale = max(1.0, float(np.max(np.abs(x))))
            for n in range(1, 41):
                acc = y[n - 1]
                for s, a in enumerate(kern, start=1):
                    if s < n:
                        acc += a * x[n - 1 - s]
                assert abs(x[n - 1] - acc) <= 1e-12 * scale

    def test_exact_resubstitution(self):
        # The solution is the recursion itself, summed from y_n in lag
        # order: resubstituted in that order it holds exactly.
        rng = np.random.default_rng(5151)
        for _ in range(200):
            kern = random_kernel(rng, max_len=12)
            y = rng.uniform(0.0, 50.0, size=int(rng.integers(1, 60)))
            x = inar.solve_renewal(y, kern)
            for n in range(1, len(y) + 1):
                acc = y[n - 1]
                for s, a in enumerate(kern, start=1):
                    if s < n:
                        acc += a * x[n - 1 - s]
                assert x[n - 1] == acc

    @pytest.mark.parametrize("y", [3.0, np.ones((4, 2))], ids=["0-d", "2-d"])
    def test_y_not_a_vector(self, y):
        with pytest.raises(DimensionMismatch, match="y must be a 1-d vector, got shape"):
            inar.solve_renewal(y, (0.5,))


class TestMomentBounds:
    def test_case1_values(self, case1_params):
        rep = inar.moment_bounds(case1_params, horizon_T=200)
        assert abs(rep.mean_bound - 150.0) / 150.0 <= 1e-9
        assert rep.second_moment_bound is not None
        assert abs(rep.second_moment_bound - 23250.0) / 23250.0 <= 1e-9
        assert rep.norm_K2 is not None
        assert rep.norm_L2 > 0.0
        assert rep.horizon_T == 200

    def test_unit_rate_empty_kernel(self):
        # nu=1, empty kernel, T=2: L^2 = min(1/3, 1/4), K^2 = max(2, 2.5)
        rep = inar.moment_bounds(ModelParams(nu=1.0), horizon_T=2)
        assert rep.mean_bound == 1.0
        assert rep.second_moment_bound == 3.0
        assert rep.norm_L2 == 0.25
        assert rep.norm_K2 == 2.5

    def test_mean_bound_equals_nu_iff_empty_kernel(self):
        assert inar.moment_bounds(ModelParams(nu=7.0), 10).mean_bound == 7.0
        rep = inar.moment_bounds(ModelParams(nu=7.0, kernel=(0.2,)), 10)
        assert rep.mean_bound > 7.0

    def test_zero_rate(self):
        # nu = 0: the second L^2 candidate collapses to 0; the first, 1, stays.
        rep = inar.moment_bounds(ModelParams(nu=0.0, kernel=(0.2,)), horizon_T=10)
        assert rep.mean_bound == 0.0 and rep.second_moment_bound == 0.0
        assert rep.norm_L2 == 1.0 and rep.norm_K2 == 2.0

    @pytest.mark.parametrize("T", [0, -3])
    def test_bad_horizon(self, T):
        with pytest.raises(ValueError, match=f"horizon_T must be >= 1, got {T}"):
            inar.moment_bounds(ModelParams(nu=1.0), horizon_T=T)

    def test_horizon_is_a_size(self):
        # A horizon is an int: a float is refused rather than truncated or
        # used as given, and one past the float range ends in a ValueError.
        with pytest.raises(ValueError, match=r"^horizon_T must be an integer, got 2\.5$"):
            inar.moment_bounds(ModelParams(nu=1.0), horizon_T=2.5)
        with pytest.raises(ValueError, match=r"^horizon_T must fit in a float, "
                                             r"got an integer of 1329 bits$"):
            inar.moment_bounds(ModelParams(nu=1.0), horizon_T=10**400)
        rep = inar.moment_bounds(ModelParams(nu=1.0), horizon_T=np.int64(10))
        assert rep.horizon_T == 10 and type(rep.horizon_T) is int

    def test_second_moment_none_past_l2_advisory(self, case2_params):
        # ||alpha||_2^2 = 0.64 >= 1/2: the second-moment machinery does not apply
        rep = inar.moment_bounds(case2_params, horizon_T=500)
        assert rep.second_moment_bound is None
        assert rep.norm_K2 is None
        assert rep.mean_bound == pytest.approx(500.0, rel=1e-12)
        assert rep.norm_L2 > 0.0


class TestValidation:
    def test_case1_report(self, case1_params):
        rep = inar.validate_params(case1_params)
        assert rep.ok
        assert rep.nonnegative and rep.stationary and rep.l2_advisory
        assert rep.norm_l1 == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert rep.norm_l2_sq == pytest.approx(1.0 / 15.0, rel=1e-9)

    def test_case2_l2_advisory_fails(self, case2_params):
        rep = inar.validate_params(case2_params)
        assert rep.nonnegative and rep.stationary
        assert not rep.l2_advisory
        assert rep.norm_l2_sq == pytest.approx(0.64)
        # the l2 condition is advisory: the model stays simulable
        assert rep.ok

    def test_nonstationary_and_negative(self):
        rep = inar.validate_params(ModelParams(nu=1.0, kernel=(0.7, 0.4)))
        assert not rep.stationary and not rep.ok
        rep = inar.validate_params(ModelParams(nu=1.0, kernel=(-0.1, 0.2)))
        assert not rep.nonnegative and not rep.ok

    @pytest.mark.parametrize(
        "nu,kernel", [(float("inf"), ()), (float("nan"), ()), (1.0, (0.1, float("nan")))]
    )
    def test_non_finite_rejected(self, nu, kernel):
        rep = inar.validate_params(ModelParams(nu=nu, kernel=kernel))
        assert not rep.finite and not rep.ok

    @pytest.mark.parametrize("kernel, l1, l2_sq", [
        ((1e200,), 1e200, np.inf),
        ((1e308, 1e308), np.inf, np.inf),
    ])
    def test_overflowing_norms(self, kernel, l1, l2_sq):
        # Finite entries, norms beyond the float range: inf, with no warning.
        params = ModelParams(nu=1.0, kernel=kernel)
        assert (params.norm_l1, params.norm_l2_sq) == (l1, l2_sq)
        rep = inar.validate_params(params)
        assert rep.finite and rep.nonnegative and not rep.stationary


# Every check of the model raises the simulator's messages, in its order.
_BAD_KERNELS = [
    pytest.param((0.2, float("nan")), "nu and all kernel entries must be finite", id="nan"),
    pytest.param((0.2, -0.1), "nu and all kernel entries must be >= 0", id="negative"),
    pytest.param((-0.1, float("nan")), "nu and all kernel entries must be finite", id="nan-first"),
    pytest.param((0.6, 0.6), "kernel has l1 norm 1.2 >= 1", id="l1"),
    pytest.param((1e308, 1e308), "kernel has l1 norm inf >= 1", id="l1-overflow"),
]
_BAD_RATES = [
    pytest.param(float("nan"), "nu and all kernel entries must be finite", id="nan"),
    pytest.param(-1.0, "nu and all kernel entries must be >= 0", id="negative"),
]
_KERNEL_CHECKS = {
    "renewal_sequence": lambda kernel: inar.renewal_sequence(kernel, 5),
    "solve_renewal": lambda kernel: inar.solve_renewal(np.ones(5), kernel),
}
_MODEL_CHECKS = {
    "simulate_path": lambda params: inar.simulate_path(params, 5, inar.RngStream(1)),
    "moment_bounds": lambda params: inar.moment_bounds(params, 10),
    "McConfig": lambda params: inar.McConfig(params, T=10, p=1, n_experiments=1, base_seed=1),
}


@pytest.mark.parametrize("check", sorted(_KERNEL_CHECKS) + sorted(_MODEL_CHECKS))
@pytest.mark.parametrize("kernel, message", _BAD_KERNELS)
def test_bad_kernel_rejected(check, kernel, message):
    with pytest.raises(NonStationaryKernel) as exc:
        if check in _KERNEL_CHECKS:
            _KERNEL_CHECKS[check](kernel)
        else:
            _MODEL_CHECKS[check](ModelParams(nu=1.0, kernel=kernel))
    assert str(exc.value) == message


@pytest.mark.parametrize("check", sorted(_KERNEL_CHECKS))
@pytest.mark.parametrize("kernel, shape", [
    pytest.param(0.3, "()", id="0-d"),
    pytest.param(np.full((2, 2), 0.1), "(2, 2)", id="2-d"),
])
def test_kernel_not_a_vector(check, kernel, shape):
    # Named by its shape before the model's conditions are checked.
    with pytest.raises(DimensionMismatch) as exc:
        _KERNEL_CHECKS[check](kernel)
    assert str(exc.value) == f"kernel must be a 1-d vector, got shape {shape}"


@pytest.mark.parametrize("check", sorted(_MODEL_CHECKS))
@pytest.mark.parametrize("nu, message", _BAD_RATES)
def test_bad_rate_rejected(check, nu, message):
    with pytest.raises(NonStationaryKernel) as exc:
        _MODEL_CHECKS[check](ModelParams(nu=nu, kernel=(0.2,)))
    assert str(exc.value) == message


class TestGeometricKernel:
    def test_quarter_ratio(self):
        kern = inar.geometric_kernel(0.25)
        assert kern[0] == 0.25
        ratios = np.array(kern[1:]) / np.array(kern[:-1])
        assert np.allclose(ratios, 0.25, rtol=1e-12)
        assert kern[-1] >= 1e-12 > kern[-1] * 0.25

    def test_ends_once_sum_reaches_one(self):
        # 0.6 + 0.36 + 0.216 >= 1: the kernel is non-stationary from there
        # on, and is not built out to its 1e-12 truncation.
        kern = inar.geometric_kernel(0.6)
        assert len(kern) == 3 and sum(kern) >= 1.0
        assert not inar.validate_params(ModelParams(nu=1.0, kernel=kern)).stationary
        assert len(inar.geometric_kernel(0.5)) == 39

    def test_ratio_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                inar.geometric_kernel(bad)


class TestModelParams:
    def test_frozen_and_coerced(self):
        p = ModelParams(nu=2, kernel=[0.1, 0.2])
        assert isinstance(p.kernel, tuple)
        assert p.kernel_array().dtype == np.float64
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.nu = 3.0

    # An integer past the float range is inf by its sign, as every number
    # from outside is, and the model check then refuses it.
    @pytest.mark.parametrize("nu, kernel, read", [
        (10**400, (), (math.inf, ())),
        (1.0, (10**400,), (1.0, (math.inf,))),
        (1.0, (0.5, -(10**400)), (1.0, (0.5, -math.inf))),
    ], ids=["nu", "kernel", "negative_lag"])
    def test_beyond_float_range(self, nu, kernel, read):
        params = ModelParams(nu=nu, kernel=kernel)
        assert (params.nu, params.kernel) == read
        with pytest.raises(NonStationaryKernel,
                           match="^nu and all kernel entries must be finite$"):
            inar.simulate_path(params, 5, inar.RngStream(1))

    def test_digest_stable(self):
        a = ModelParams(nu=100.0, kernel=(0.25, 0.0625))
        b = ModelParams(nu=100.0, kernel=(0.25, 0.0625))
        c = ModelParams(nu=100.0, kernel=(0.25,))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 16


def held_arrays(record):
    """Every array a record holds: its fields, and the float view, counts
    or fit kept beside them."""
    for value in vars(record).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def assert_sealed(record):
    # numpy refuses to make any of them writable again.
    for arr in held_arrays(record):
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.flags.writeable = True


# Each record stores read-only copies of its arrays: the caller's arrays
# stay writable, writing to them later leaves the record as it was, and
# the record's own arrays cannot be made writable again.
@pytest.mark.parametrize("build, arrays", [
    (lambda a: inar.CountPath(**a), {"counts": np.array([1, 2, 3], dtype=np.int64)}),
    (lambda a: inar.DesignSystem(**a, T=5, p=1), {"Y": np.eye(2), "b": np.ones(2)}),
    (lambda a: inar.RenewalSequence(**a), {"values": np.linspace(0.1, 0.3, 3)}),
    (lambda a: inar.SandwichCovariance(**a),
     {"J_hat": np.eye(2), "K_hat": 2 * np.eye(2), "Sigma_hat": 3 * np.eye(2)}),
    (lambda a: inar.McSummary(mse=0.0, rel_err_theta=0.0, rel_err_alpha=0.0, **a),
     {"mean_theta": np.ones(2), "per_component_samples": np.ones((3, 2)),
      "truth": np.zeros(2), "rep_ids": np.array([1, 4, 9], dtype=np.int64)}),
    (lambda a: inar.summarize(a["per_component_samples"], a["truth"]),
     {"per_component_samples": np.arange(6.0).reshape(3, 2), "truth": np.zeros(2)}),
], ids=["CountPath", "DesignSystem", "RenewalSequence", "SandwichCovariance",
        "McSummary", "summarize"])
def test_records_copy_caller_arrays(build, arrays):
    record = build(arrays)
    for name, arr in arrays.items():
        kept = getattr(record, name)
        before = kept.copy()
        assert arr.flags.writeable and not kept.flags.writeable
        arr[...] = 7
        assert np.array_equal(kept, before)
    assert_sealed(record)


def test_package_records_frozen_in_place(case1_params):
    # The records simulate_path, build_design, sandwich_covariance and
    # renewal_sequence return hold arrays the package has just made:
    # read-only, and so is every array they are views of; no two of them
    # share memory. No array of a record the package returns, nor the
    # float view, counts or fit kept beside its fields, can be made
    # writable again.
    path = inar.simulate_path(case1_params, 200, inar.RngStream(3))
    system = inar.build_design(path, 4)
    theta = inar.solve_cls(system)
    cov = inar.sandwich_covariance(path, theta, 4)
    renewal = inar.renewal_sequence(case1_params.kernel, 20)
    arrays = [path.counts, path.counts_float(), system.Y, system.b, cov.J_hat, cov.K_hat,
              cov.Sigma_hat, renewal.values]
    for i, arr in enumerate(arrays):
        base = arr
        while isinstance(base, np.ndarray):
            assert not base.flags.writeable
            base = base.base
        assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:])
    summary = inar.summarize(np.arange(6.0).reshape(3, 2), np.zeros(2))
    assert system._counts is path.counts_float() and theta._fit is not None
    for record in (path, system, theta, cov, summary, renewal):
        assert_sealed(record)
