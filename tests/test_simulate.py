"""Sampler statistics, path simulation, determinism, and CSV round trips."""

import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inar
from inar import _kernels as _k
from inar.simulate import (
    _CSV_BLOCK_ROWS,
    simulate_lanes,
    _csv_column,
    _write_csv,
    read_samples_csv,
    write_samples_csv,
)
from inar import (
    CountPath,
    InvalidRate,
    ModelParams,
    NonStationaryKernel,
    Overflow,
    RngStream,
)


class TestPoissonSample:
    def test_large_lambda_moments(self):
        x = inar.poisson_sample(150.0, RngStream(314), size=1_000_000)
        sigma = np.sqrt(150.0 / 1_000_000)
        assert abs(x.mean() - 150.0) <= 3 * sigma
        disp = x.var(ddof=1) / x.mean()
        assert 0.99 <= disp <= 1.01

    @pytest.mark.parametrize("lam", [0.4, 3.0])
    def test_small_lambda_moments(self, lam):
        x = inar.poisson_sample(lam, RngStream(271, 1), size=500_000)
        sigma = np.sqrt(lam / 500_000)
        assert abs(x.mean() - lam) <= 4 * sigma
        disp = x.var(ddof=1) / x.mean()
        assert 0.98 <= disp <= 1.02

    def test_zero_rate(self):
        assert inar.poisson_sample(0.0, RngStream(1)) == 0
        assert np.all(inar.poisson_sample(0.0, RngStream(1), size=100) == 0)

    # From 2**62 on, draws may not fit in int64.
    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf"), 2.0 ** 62, 1e19])
    def test_invalid_rate(self, lam):
        with pytest.raises(InvalidRate):
            inar.poisson_sample(lam, RngStream(1))

    # An int beyond the float range is converted as +-inf, then rejected
    # as any infinite rate is.
    @pytest.mark.parametrize("lam, shown", [(10**400, "inf"), (-(10**400), "-inf")],
                             ids=["10**400", "-10**400"])
    def test_rate_beyond_float_range(self, lam, shown):
        with pytest.raises(InvalidRate, match=rf"^rate must be finite and >= 0, got {shown}$"):
            inar.poisson_sample(lam, RngStream(1))

    def test_negative_size(self):
        with pytest.raises(ValueError, match="size must be >= 0, got -1"):
            inar.poisson_sample(1.0, RngStream(1), size=-1)

    def test_size_is_an_integer(self):
        # A float size is refused, not truncated.
        with pytest.raises(ValueError, match=r"^size must be an integer, got 2\.5$"):
            inar.poisson_sample(3.0, RngStream(1), size=2.5)
        got = inar.poisson_sample(3.0, RngStream(1), size=np.int64(4))
        assert got.tolist() == inar.poisson_sample(3.0, RngStream(1), size=4).tolist()

    def test_largest_rate_draws_fit(self):
        lam = np.nextafter(2.0 ** 62, 0.0)
        x = inar.poisson_sample(lam, RngStream(1, 0), size=8)
        assert x.dtype == np.int64
        assert np.all(np.abs(x - lam) < 1e3 * np.sqrt(lam))

    def test_determinism(self):
        a = inar.poisson_sample(150.0, RngStream(9, 2), size=1000)
        b = inar.poisson_sample(150.0, RngStream(9, 2), size=1000)
        c = inar.poisson_sample(150.0, RngStream(9, 3), size=1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_is_pure(self):
        # drawing does not mutate the stream: repeated calls agree
        rng = RngStream(123, 7)
        first = inar.poisson_sample(42.0, rng, size=16)
        again = inar.poisson_sample(42.0, rng, size=16)
        assert np.array_equal(first, again)
        assert inar.poisson_sample(42.0, rng) == first[0]

    def test_substream_matches_explicit_stream(self):
        base = RngStream(55)
        x = inar.poisson_sample(10.0, base.substream(4), size=8)
        y = inar.poisson_sample(10.0, RngStream(55, 4), size=8)
        assert np.array_equal(x, y)


# Goodness of fit of poisson_sample against the Poisson pmf, on both sides
# of each route switch (inversion below 10, PTRS above). The moment tests
# above cannot catch a wrong PTRS constant; a chi-square test of the whole
# law can. The rates, the stream and the threshold (Bonferroni over the
# rates at 1e-3 overall) were fixed before the first run.
GOF_RATES = (0.05, 0.5, 3.0, 9.99, 10.0, 10.5, 30.0, 150.0, 1e4)
GOF_DRAWS = 1_000_000


@pytest.mark.parametrize("lam", GOF_RATES)
def test_poisson_sample_matches_pmf(lam):
    x = inar.poisson_sample(lam, RngStream(7, 3), size=GOF_DRAWS)
    law = scipy.stats.poisson(lam)
    # Cells k with an expected count of at least 5 (a contiguous run, the
    # pmf being unimodal), the two tails pooled into the end cells.
    k = np.arange(int(lam + 20.0 * math.sqrt(lam) + 20.0))
    kept = k[GOF_DRAWS * law.pmf(k) >= 5.0]
    lo, hi = int(kept[0]), int(kept[-1])
    expected = GOF_DRAWS * law.pmf(np.arange(lo, hi + 1))
    expected[0] = GOF_DRAWS * law.cdf(lo)
    expected[-1] = GOF_DRAWS * law.sf(hi - 1)
    got = np.bincount(np.clip(x, lo, hi) - lo, minlength=hi - lo + 1)
    stat = float(((got - expected) ** 2 / expected).sum())
    assert scipy.stats.chi2.sf(stat, got.shape[0] - 1) >= 1e-3 / len(GOF_RATES)


def population_moments(params, max_lag, n_terms=4000):
    """The stationary mean mu = nu / (1 - |alpha|_1) and autocovariances
    gamma(0..max_lag) of the process with ``params``. As a linear process
    in its martingale-difference innovations (variance mu), X_n = mu +
    sum_j psi_j eps_{n-j} with psi_0 = 1 and psi_j = A_j of
    ``renewal_sequence``, so gamma(h) = mu sum_j psi_j psi_{j+h}; the sum
    runs over the first ``n_terms`` psi."""
    kern = params.kernel_array()
    mu = params.nu / (1.0 - kern.sum())
    psi = np.concatenate(([1.0], inar.renewal_sequence(kern, n_terms).values))
    gamma = [mu * float(psi[: psi.size - h] @ psi[h:]) for h in range(max_lag + 1)]
    return mu, np.array(gamma)


# Paths against their population law: the mean and gamma(0..5) of 400
# lanes over T = 1200 steps, the first 200 dropped, against the closed
# forms above. The lanes are independent, so each statistic's SE is the
# spread of its per-lane value across lanes over sqrt(400); the window, 4
# SE, the lanes, T, the burn-in and the seed were fixed before the first
# run. Bit-equality with the scalar loop cannot catch a wrong constant the
# two routes share; this can.
LAW_LANES, LAW_T, LAW_BURN, LAW_LAGS = 400, 1200, 200, 5


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_paths_match_population_law(case, request):
    params = request.getfixturevalue(f"{case}_params")
    mu, gamma = population_moments(params, LAW_LAGS)
    counts, overflow_at = simulate_lanes(params, LAW_T, 11, range(1, LAW_LANES + 1))
    assert np.all(overflow_at == -1)
    x = counts[LAW_BURN:] - mu
    n = x.shape[0]
    # Per lane: the mean and, with the known mu, gamma_hat(h) = mean over t
    # of (x_t - mu)(x_{t+h} - mu), whose expectation is gamma(h).
    stats = [x.mean(axis=0)] + [(x[: n - h] * x[h:]).mean(axis=0) for h in range(LAW_LAGS + 1)]
    names = ["mean - mu", *(f"gamma({h})" for h in range(LAW_LAGS + 1))]
    for name, per_lane, target in zip(names, stats, [0.0, *gamma]):
        se = per_lane.std(ddof=1) / math.sqrt(LAW_LANES)
        z = (per_lane.mean() - target) / se
        assert abs(z) <= 4.0, f"{case} {name}: {per_lane.mean():.4g} vs {target:.4g}, z = {z:.2f}"


def test_population_moments_closed_forms(case1_params, case2_params):
    # Case 1: mu = 150, gamma(0) = 162.5, gamma(1) = 43.75; case 2 (one
    # lag, psi_j = 0.8**j): mu = 500, gamma(h) = 500 * 0.8**h / 0.36.
    mu, gamma = population_moments(case1_params, 1)
    assert mu == pytest.approx(150.0, rel=1e-9)
    assert gamma == pytest.approx([162.5, 43.75], rel=1e-9)
    mu, gamma = population_moments(case2_params, 5)
    assert mu == pytest.approx(500.0, rel=1e-12)
    assert gamma == pytest.approx(500.0 * 0.8 ** np.arange(6) / 0.36, rel=1e-9)


class TestPinnedDraws:
    """Draws fixed as literals: the same (seed, stream_id) gives the same
    draws across versions and machines, not only within one run."""

    @pytest.mark.parametrize("lam, want", [
        (0.4, [0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0]),
        (3.0, [2, 6, 2, 4, 2, 3, 1, 2, 5, 4, 2, 4]),
        (9.99, [7, 15, 7, 12, 9, 10, 7, 8, 13, 11, 9, 11]),
        (10.0, [7, 9, 6, 9, 14, 10, 9, 6, 8, 6, 7, 12]),
        (150.0, [138, 145, 136, 164, 147, 165, 149, 147, 134, 144, 137, 138]),
        (2e5, [199613, 199584, 199814, 199511, 200511, 199896,
               200544, 199970, 199895, 199433, 199790, 199536]),
    ])
    def test_poisson_sample(self, lam, want):
        assert inar.poisson_sample(lam, RngStream(11, 0), size=12).tolist() == want

    @pytest.mark.parametrize("seed", [-1, 2 ** 64 - 1])
    def test_stream_keys(self, seed):
        keys = _k.stream_keys(seed, [0, 1, 2 ** 64 - 1])
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            17020132932256205796, 12799278014855634190, 14752056802710546819,
        ]

    def test_case1_path(self, case1_params):
        path = inar.simulate_path(case1_params, 12, RngStream(11, 0))
        assert path.counts.tolist() == [
            90, 118, 122, 153, 145, 163, 152, 148, 134, 140, 134, 133,
        ]


class TestSimulatePath:
    def test_zero_nu_is_all_zero(self):
        params = ModelParams(nu=0.0, kernel=(0.5, 0.25))
        path = inar.simulate_path(params, 200, RngStream(11))
        assert np.all(path.counts == 0)

    def test_empty_kernel_iid_poisson(self):
        params = ModelParams(nu=100.0)
        path = inar.simulate_path(params, 10_000, RngStream(21))
        x = path.counts_float()
        assert abs(x.mean() - 100.0) <= 3 * np.sqrt(100.0 / 10_000)
        disp = x.var(ddof=1) / x.mean()
        assert 0.95 <= disp <= 1.05

    def test_case1_stationary_mean(self, case1_params):
        path = inar.simulate_path(case1_params, 10_000, RngStream(33))
        bound = inar.moment_bounds(case1_params, 10_000).mean_bound
        m = path.counts_float().mean()
        assert abs(m - 150.0) / 150.0 <= 0.05
        assert m <= 1.05 * bound

    def test_first_observation_is_immigration_draw(self, case1_params):
        # X_1 ~ Poisson(nu), and bitwise equal to the bare sampler on the same stream
        for i in range(5):
            rng = RngStream(77, i)
            path = inar.simulate_path(case1_params, 3, rng)
            assert path.counts[0] == inar.poisson_sample(100.0, rng)

    def test_first_observation_marginal(self):
        params = ModelParams(nu=100.0, kernel=(0.3,))
        firsts = np.array(
            [
                inar.simulate_path(params, 1, RngStream(500, i)).counts[0]
                for i in range(3000)
            ],
            dtype=np.float64,
        )
        assert abs(firsts.mean() - 100.0) <= 4 * np.sqrt(100.0 / 3000)
        disp = firsts.var(ddof=1) / firsts.mean()
        assert 0.9 <= disp <= 1.1

    def test_overflow_cap(self):
        params = ModelParams(nu=500.0, kernel=(0.9,))
        with pytest.raises(Overflow) as exc:
            inar.simulate_path(params, 5000, RngStream(2), lam_cap=1e3)
        assert "step" in str(exc.value)

    def test_first_observation_checked_against_cap(self):
        with pytest.raises(Overflow, match="at step 1$"):
            inar.simulate_path(ModelParams(nu=500.0), 10, RngStream(2), lam_cap=100.0)

    @pytest.mark.parametrize("nu, kernel, step", [
        (1e20, (), 1), (5e18, (0.9,), 1), (3e18, (0.9,), 2),
    ])
    def test_count_beyond_int64(self, nu, kernel, step):
        # The cap lets rates through whose counts may pass int64, but the
        # bound 2**62 does not: the path ends at the first rate past it,
        # and the Overflow names the bound in place of the cap.
        params = ModelParams(nu=nu, kernel=kernel)
        message = rf"^intensity exceeded cap 4\.61169e\+18 at step {step}$"
        with pytest.raises(Overflow, match=message):
            inar.simulate_path(params, 3, RngStream(1), lam_cap=1e300)

    @pytest.mark.parametrize("nu, kernel", [(3.0, ()), (150.0, ()), (3.0, (0.3, 0.2))])
    def test_simulated_float_view(self, nu, kernel):
        # A simulated path's float view is the simulation's own float64
        # counts, sealed in place (a T-long array is not copied): the
        # counts as float64 bit for bit, one array kept by build_design and
        # reused by the fit, and made afresh for a replaced path. numpy
        # refuses to make the view writable again, but not its base, which
        # owns the data: a caller who reaches x.base can re-enable writes
        # there. So of the base only its seal is checked here.
        path = inar.simulate_path(ModelParams(nu=nu, kernel=kernel), 20_000, RngStream(4, 2))
        x = path.counts_float()
        assert x is path.counts_float()
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert x.tobytes() == path.counts.astype(np.float64).tobytes()
        with pytest.raises(ValueError, match="WRITEABLE"):
            x.flags.writeable = True
        assert not x.base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x.base[0] = 1.0
        system = inar.build_design(path, 1)
        assert system._counts is x
        assert inar.solve_cls(system)._fit[0] is x
        again = dataclasses.replace(path)
        assert again.counts_float() is not x
        assert again.counts_float().tobytes() == x.tobytes()

    @pytest.mark.parametrize("cap", [float("inf"), float("nan")])
    def test_non_finite_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="lambda_cap"):
            inar.simulate_path(ModelParams(nu=1.0), 10, RngStream(2), lam_cap=cap)

    # An int cap beyond the float range is converted as +-inf, then
    # rejected as any infinite cap is, by every simulator.
    @pytest.mark.parametrize("cap, shown", [(10**400, "inf"), (-(10**400), "-inf")],
                             ids=["10**400", "-10**400"])
    def test_cap_beyond_float_range(self, cap, shown):
        message = rf"^lambda_cap must be finite, got {shown}$"
        with pytest.raises(ValueError, match=message):
            inar.simulate_path(ModelParams(nu=1.0), 10, RngStream(2), lam_cap=cap)
        with pytest.raises(ValueError, match=message):
            inar.simulate_lanes(ModelParams(nu=1.0), 10, 2, [0, 1], lam_cap=cap)

    # A cap is positive: one of 0 or below, which would stop a path at its
    # first positive rate, is refused before anything is simulated, by
    # every simulator and by a study's config.
    @pytest.mark.parametrize("cap, shown", [(0.0, "0.0"), (-0.0, "-0.0"), (0, "0.0"),
                                            (-1, "-1.0"), (-1e300, r"-1e\+300")])
    def test_cap_must_be_positive(self, cap, shown):
        message = rf"^lambda_cap must be > 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            inar.simulate_path(ModelParams(nu=0.0), 10, RngStream(2), lam_cap=cap)
        with pytest.raises(ValueError, match=message):
            inar.simulate_lanes(ModelParams(nu=0.0), 10, 2, [0, 1], lam_cap=cap)
        with pytest.raises(ValueError, match=message):
            inar.McConfig(params=ModelParams(nu=1.0), T=10, p=0, n_experiments=2,
                          base_seed=2, lam_cap=cap)

    # Seeds and stream ids are integers: a float is refused, not truncated
    # to another stream. A numpy integer is read as its int, and every int
    # wraps modulo 2**64.
    def test_seeds_and_stream_ids_must_be_integers(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            RngStream(1.5)
        with pytest.raises(ValueError, match=r"^stream_id must be an integer, got 2\.0$"):
            RngStream(1, 2.0)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got '1'$"):
            RngStream("1")
        for seed, ids in ((7.7, [1, 2]), (7, [1.2, 2.8]), (7, [1, np.float64(2.0)])):
            with pytest.raises(TypeError):
                inar.simulate_lanes(ModelParams(nu=3.0), 5, seed, ids)
        rng = RngStream(np.int64(7), np.uint64(2))
        assert type(rng.seed) is int and type(rng.stream_id) is int
        assert rng == RngStream(7, 2)
        wrapped = RngStream(7 - 2 ** 64, 2 + 2 ** 64)
        assert wrapped.state().tolist() == rng.state().tolist()
        params = ModelParams(nu=3.0)
        counts, _ = inar.simulate_lanes(params, 5, np.int64(7), [np.uint64(2), 3])
        assert counts[:, 0].tolist() == inar.simulate_path(params, 5, rng).counts.tolist()

    # A horizon is an integer (a Python or numpy int); a float or a string
    # is refused, not truncated or parsed.
    @pytest.mark.parametrize("T, shown", [(10.5, r"10\.5"), (12.0, r"12\.0"), ("12", "'12'")],
                             ids=["10.5", "12.0", "str"])
    def test_horizon_must_be_an_integer(self, T, shown):
        message = rf"^T must be an integer, got {shown}$"
        with pytest.raises(ValueError, match=message):
            inar.simulate_path(ModelParams(nu=1.0), T, RngStream(2))
        with pytest.raises(ValueError, match=message):
            inar.simulate_lanes(ModelParams(nu=1.0), T, 2, [0, 1])

    def test_numpy_integer_horizon(self):
        a = inar.simulate_path(ModelParams(nu=3.0), np.int64(12), RngStream(2))
        b = inar.simulate_path(ModelParams(nu=3.0), 12, RngStream(2))
        assert a.counts.tobytes() == b.counts.tobytes()

    def test_determinism_and_provenance(self, case1_params):
        a = inar.simulate_path(case1_params, 256, RngStream(42, 3))
        b = inar.simulate_path(case1_params, 256, RngStream(42, 3))
        c = inar.simulate_path(case1_params, 256, RngStream(42, 4))
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)
        assert a.seed == 42 and a.stream_id == 3
        assert a.params_digest == case1_params.digest()
        assert len(a) == 256

    def test_bad_horizon(self, case1_params):
        with pytest.raises(ValueError):
            inar.simulate_path(case1_params, 0, RngStream(1))

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationaryKernel):
            inar.simulate_path(ModelParams(nu=1.0, kernel=(1.0,)), 10, RngStream(1))
        with pytest.raises(NonStationaryKernel):
            inar.simulate_path(ModelParams(nu=1.0, kernel=(-0.2,)), 10, RngStream(1))
        with pytest.raises(NonStationaryKernel, match="finite"):
            inar.simulate_path(ModelParams(nu=float("inf")), 10, RngStream(1))

    def test_intensity_matches_definition(self, case1_params):
        # lambda_n = nu + sum_{k<n} alpha_k X_{n-k}, checked by brute force
        path = inar.simulate_path(case1_params, 300, RngStream(8))
        kern = case1_params.kernel
        theta = inar.ThetaVector(mu=case1_params.nu, betas=kern)
        phi = inar.intensity_series(path, theta)
        x = path.counts_float()
        for n in range(1, 301):
            lam = case1_params.nu
            for k, a in enumerate(kern, start=1):
                if k <= n - 1:
                    lam += a * x[n - 1 - k]
            assert abs(phi[n - 1] - lam) <= 1e-10 * max(1.0, lam)


class TestCountPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountPath(counts=np.array([], dtype=np.int64))
        for counts in ([1, -2, 3], [-1, 0], [5, 4, -(2 ** 63)]):
            with pytest.raises(ValueError, match="^counts must be nonnegative$"):
                CountPath(counts=np.array(counts))

    # The provenance is a stream's: integers, checked as RngStream checks
    # them, a numpy integer stored as its int.
    def test_provenance_is_integers(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            CountPath(counts=[1, 2], seed=1.5)
        with pytest.raises(ValueError, match=r"^stream_id must be an integer, got 'x'$"):
            CountPath(counts=[1, 2], stream_id="x")
        path = CountPath(counts=[1, 2], seed=np.int64(7), stream_id=np.uint64(2))
        assert type(path.seed) is int and type(path.stream_id) is int
        assert (path.seed, path.stream_id) == (7, 2)

    def test_counts_read_only(self):
        # For good: writes to the counts cannot be turned back on.
        path = CountPath(counts=np.array([1, 2, 3]))
        assert not path.counts.flags.writeable
        assert path.counts.dtype == np.int64
        with pytest.raises(ValueError):
            path.counts.flags.writeable = True

    def test_one_shared_float_view(self):
        # counts_float is one read-only float64 array, made with the path
        # and handed to every caller: the fit and its sandwich share it. It
        # is no field: repr and replace ignore it.
        path = CountPath(counts=np.array([4, 0, 7, 2]), seed=3)
        x = path.counts_float()
        assert x is path.counts_float()
        assert x.dtype == np.float64 and x.flags.c_contiguous and not x.flags.writeable
        with pytest.raises(ValueError):
            x.flags.writeable = True
        assert x.tolist() == [4.0, 0.0, 7.0, 2.0]
        assert inar.build_design(path, 1)._counts is x
        assert repr(CountPath(counts=path.counts, seed=3)) == repr(path)
        again = dataclasses.replace(path)
        assert again.counts_float() is not x and again.counts_float().tolist() == x.tolist()

    # simulate_path adopts the counts it has just drawn and their float64
    # array, skipping the constructor's checks: its record must equal the
    # constructor's on the same counts, field by field, with the same
    # float view.
    @settings(max_examples=100, deadline=None)
    @given(nu=st.floats(0.0, 200.0), kernel=st.lists(st.floats(0.0, 0.3), max_size=3),
           T=st.integers(1, 300), seed=st.integers(0, 2**64 - 1),
           stream=st.integers(0, 2**64 - 1))
    def test_simulated_path_equals_constructed(self, nu, kernel, T, seed, stream):
        params = ModelParams(nu=nu, kernel=tuple(kernel))
        path = inar.simulate_path(params, T, RngStream(seed, stream))
        built = CountPath(counts=path.counts, seed=seed, stream_id=stream,
                          params_digest=params.digest())
        for f in dataclasses.fields(CountPath):
            mine, theirs = getattr(path, f.name), getattr(built, f.name)
            if isinstance(theirs, np.ndarray):
                assert type(mine) is np.ndarray and mine.dtype == theirs.dtype
                assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
            else:
                assert type(mine) is type(theirs) and mine == theirs
        counts = path.counts
        assert counts.dtype == np.int64 and counts.shape == (T,) and counts.flags.c_contiguous
        x = path.counts_float()
        assert x is path.counts_float()
        assert x.dtype == np.float64 and x.shape == (T,) and x.flags.c_contiguous
        assert x.tobytes() == counts.astype(np.float64).tobytes()
        for arr in (counts, x):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True

    def test_csv_roundtrip_file_object(self):
        path = CountPath(counts=np.array([5, 0, 12, 3]), seed=9, stream_id=1)
        buf = io.StringIO()
        inar.write_path_csv(path, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "n,x"
        back = inar.read_path_csv(io.StringIO(text))
        assert np.array_equal(back.counts, path.counts)

    def test_csv_roundtrip_disk(self, tmp_path, case1_params):
        src = inar.simulate_path(case1_params, 128, RngStream(4))
        fname = tmp_path / "path.csv"
        inar.write_path_csv(src, fname)
        back = inar.read_path_csv(fname)
        assert np.array_equal(back.counts, src.counts)

    @settings(max_examples=150, deadline=None)
    @given(counts=st.lists(
        st.one_of(st.sampled_from([0, 2 ** 63 - 1]), st.integers(0, 2 ** 63 - 1)),
        min_size=1, max_size=200,
    ))
    @example(counts=[2 ** 63 - 1])
    @example(counts=[0, 2 ** 63 - 1] * 100)
    def test_csv_roundtrip_any_counts(self, counts):
        path = CountPath(counts=np.array(counts, dtype=np.int64))
        buf = io.StringIO()
        inar.write_path_csv(path, buf)
        back = inar.read_path_csv(io.StringIO(buf.getvalue()))
        assert back.counts.dtype == np.int64
        assert back.counts.tolist() == counts

    @pytest.mark.parametrize("n", [4, _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 3])
    def test_csv_bytes_on_disk_match_csv_writer(self, tmp_path, n):
        # Paths longer than a block of rows are written block by block.
        counts = np.arange(n, dtype=np.int64) * 7919 % 1000
        counts[-2:] = [2 ** 63 - 1, 0]
        path = CountPath(counts=counts)
        inar.write_path_csv(path, tmp_path / "new.csv")
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "x"])
            writer.writerows(enumerate(path.counts.tolist(), start=1))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            inar.read_path_csv(io.StringIO("a,b\n1,2\n"))

    # int() takes all of these; a count is digits 0-9 only.
    @pytest.mark.parametrize("body, line, count", [
        ("1,3\n2,1_0\n3,4\n", 3, "'1_0'"),
        ("1,3\n2,1\n3, 4\n", 4, "' 4'"),
        ("1,3\n2,+4\n", 3, "'+4'"),
        ("1,-2\n", 2, "'-2'"),
        ("1,\u0663\n", 2, "'\u0663'"),
    ])
    def test_csv_rejects_non_digit_counts(self, body, line, count):
        want = re.escape(f"path CSV line {line}: count {count} is not an integer")
        with pytest.raises(ValueError, match=f"^{want}"):
            inar.read_path_csv(io.StringIO("n,x\n" + body))

    def test_csv_counts_with_leading_zeros(self):
        text = "n,x\n1,007\n2," + "0" * 5000 + "9223372036854775807\n"
        assert inar.read_path_csv(io.StringIO(text)).counts.tolist() == [7, 2 ** 63 - 1]
        too_big = "n,x\n1,00009223372036854775808\n"
        with pytest.raises(ValueError, match="^path CSV line 2: count '0+9223372036854775808' does not"):
            inar.read_path_csv(io.StringIO(too_big))


# The CSV writer shared by every table the package writes, against
# csv.writer as the oracle.
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-310, 1.8e308, -1.8e308, 0.1, 1e16]
_EDGE_INTS = [-(2 ** 63), 2 ** 63 - 1, -1, 0, 1]


@st.composite
def _csv_columns(draw):
    n_rows = draw(st.integers(0, 50))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            value = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True))
            dtype = np.float64
        else:
            value = st.one_of(st.sampled_from(_EDGE_INTS), st.integers(-(2 ** 63), 2 ** 63 - 1))
            dtype = np.int64
        columns.append(np.array(draw(st.lists(value, min_size=n_rows, max_size=n_rows)),
                                dtype=dtype))
    return columns


@settings(max_examples=200, deadline=None)
@given(columns=_csv_columns())
def test_csv_writer_bytes_match_csv_module(columns):
    header = [f"c{j}" for j in range(len(columns))]
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows(zip(*(col.tolist() for col in columns)))
    got = io.StringIO(newline="")
    _write_csv(got, header, columns)
    assert got.getvalue() == want.getvalue()
    # A column given as its rendered text writes the same bytes.
    again = io.StringIO(newline="")
    _write_csv(again, header, [_csv_column(columns[0]), *columns[1:]])
    assert again.getvalue() == want.getvalue()


_finite_floats = st.one_of(st.sampled_from([f for f in _EDGE_FLOATS if math.isfinite(f)]),
                           st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_samples_csv_round_trip(data):
    # The samples grammar accepts the text write_samples_csv makes of any
    # finite float64, and reads it back bit for bit.
    n_rows, n_cols = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 4))
    rows = st.lists(_finite_floats, min_size=n_cols, max_size=n_cols)
    values = np.array(data.draw(st.lists(rows, min_size=n_rows, max_size=n_rows)))
    reps = np.array(data.draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=n_rows,
                                       max_size=n_rows)), dtype=np.int64)
    labels = [f"c{j}" for j in range(n_cols)]
    buf = io.StringIO(newline="")
    write_samples_csv(buf, labels, reps, values)
    got_labels, got = read_samples_csv(io.StringIO(buf.getvalue(), newline=""))
    assert got_labels == labels
    assert got.tobytes() == values.tobytes()
