"""Replication harness: seeding, aggregation, capping, failures, diagnostics."""

import numpy as np
import pytest

import inar
from inar import (
    AllReplicationsFailed,
    DimensionMismatch,
    LagTooLarge,
    McConfig,
    ModelParams,
    Overflow,
    RngStream,
    SingularDesign,
)


def small_config(params, T=150, p=3, n=12, seed=7, **kw):
    return McConfig(
        params=params, T=T, p=p, n_experiments=n, base_seed=seed, **kw
    )


class TestSeeding:
    def test_single_rep_equals_direct_pipeline(self, case1_params):
        cfg = small_config(case1_params, n=1, seed=101)
        summary = inar.run_experiment(cfg)
        path = inar.simulate_path(case1_params, cfg.T, RngStream(101, 1), lam_cap=cfg.lam_cap)
        theta = inar.solve_cls(inar.build_design(path, cfg.p))
        assert np.array_equal(summary.per_component_samples[0], theta.to_array())
        assert summary.rep_ids.tolist() == [1]

    def test_row_i_is_stream_i(self, case1_params):
        cfg = small_config(case1_params, n=5, seed=202)
        summary = inar.run_experiment(cfg)
        path = inar.simulate_path(case1_params, cfg.T, RngStream(202, 3), lam_cap=cfg.lam_cap)
        theta = inar.solve_cls(inar.build_design(path, cfg.p))
        assert np.array_equal(summary.per_component_samples[2], theta.to_array())

    def test_base_seed_matters(self, case1_params):
        a = inar.run_experiment(small_config(case1_params, seed=1))
        b = inar.run_experiment(small_config(case1_params, seed=2))
        assert not np.array_equal(a.per_component_samples, b.per_component_samples)


class TestSummarize:
    def test_exact_estimates(self):
        truth = np.array([100.0, 0.25])
        est = np.tile(truth, (6, 1))
        s = inar.summarize(est, truth)
        assert s.mse == 0.0
        assert s.rel_err_theta == 0.0 and s.rel_err_alpha == 0.0
        assert np.array_equal(s.mean_theta, truth)

    def test_symmetric_pair(self):
        # estimates s +/- e average back to s; MSE is ||e||^2
        s0 = np.array([100.0, 0.25])
        e = np.array([1.0, 0.125])
        est = np.stack([s0 + e, s0 - e])
        s = inar.summarize(est, s0)
        assert np.array_equal(s.mean_theta, s0)
        assert s.mse == float(e @ e)
        assert s.rel_err_theta == 0.0

    def test_capping_applies_to_mse_only(self):
        est = np.array([[100.0, -0.01]])
        truth = np.array([100.0, 0.0])
        s = inar.summarize(est, truth, cap_negatives=True)
        assert s.mse == 0.0
        assert s.mean_theta[1] == -0.01
        assert np.array_equal(s.per_component_samples, est)

    def test_capping_disabled(self):
        est = np.array([[100.0, -0.01]])
        truth = np.array([100.0, 0.0])
        s = inar.summarize(est, truth, cap_negatives=False)
        assert s.mse == pytest.approx(0.0001)

    def test_mu_never_capped(self):
        est = np.array([[-5.0, 0.1]])
        truth = np.array([0.0, 0.1])
        s = inar.summarize(est, truth)
        assert s.mse == pytest.approx(25.0)

    def test_rel_err_guards(self):
        est = np.array([[2.0, 0.0]])
        truth = np.array([0.0, 0.0])
        s = inar.summarize(est, truth)
        assert s.rel_err_theta == np.inf
        assert s.rel_err_alpha == 0.0

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            inar.summarize(np.zeros((3,)), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            inar.summarize(np.zeros((3, 2)), np.zeros(3))


class TestFailureHandling:
    def test_all_replications_failed(self):
        # nu=0 paths are identically zero, so every design is singular
        cfg = McConfig(
            params=ModelParams(nu=0.0), T=60, p=1, n_experiments=4, base_seed=3
        )
        with pytest.raises(AllReplicationsFailed):
            inar.run_experiment(cfg)

    def test_partial_failures_counted(self):
        # At nu=0.1 over 10 steps some paths are all zero, or nonzero only
        # at the last step, so their designs are singular; the others fit.
        params = ModelParams(nu=0.1)
        cfg = McConfig(params=params, T=10, p=1, n_experiments=12, base_seed=11)
        summary = inar.run_experiment(cfg)
        fitted = {}
        for i in range(1, 13):
            path = inar.simulate_path(params, cfg.T, RngStream(11, i))
            try:
                fitted[i] = inar.solve_cls(inar.build_design(path, cfg.p)).to_array()
            except SingularDesign:
                continue
        assert 0 < len(fitted) < 12
        assert summary.failures == 12 - len(fitted)
        assert summary.n_success == len(fitted)
        assert summary.rep_ids.tolist() == sorted(fitted)
        assert summary.per_component_samples.shape == (len(fitted), cfg.p + 1)
        for row, rep in zip(summary.per_component_samples, summary.rep_ids):
            assert np.array_equal(row, fitted[int(rep)])

    def test_overflowed_replications_counted(self):
        # Stationary mean 1000 against a cap of 1100: some replications
        # overflow, and each is dropped and counted, not fatal.
        params = ModelParams(nu=100.0, kernel=(0.9,))
        cfg = McConfig(params=params, T=200, p=1, n_experiments=20, base_seed=3, lam_cap=1100.0)
        summary = inar.run_experiment(cfg)
        survivors = []
        for i in range(1, 21):
            try:
                inar.simulate_path(params, cfg.T, RngStream(3, i), lam_cap=cfg.lam_cap)
            except Overflow:
                continue
            survivors.append(i)
        assert 0 < len(survivors) < 20
        assert summary.rep_ids.tolist() == survivors
        assert summary.failures == 20 - len(survivors)

    def test_all_replications_overflowed(self):
        cfg = McConfig(
            params=ModelParams(nu=100.0, kernel=(0.5,)), T=50, p=1,
            n_experiments=4, base_seed=3, lam_cap=99.0,
        )
        with pytest.raises(AllReplicationsFailed, match="4 intensity overflows"):
            inar.run_experiment(cfg)

    @pytest.mark.parametrize("cap", [float("nan"), float("inf")])
    def test_non_finite_cap_rejected_at_build(self, cap):
        with pytest.raises(ValueError, match="lambda_cap must be finite"):
            McConfig(params=ModelParams(nu=100.0, kernel=(0.5,)), T=50, p=1,
                     n_experiments=4, base_seed=3, lam_cap=cap)

    def test_cap_beyond_float_range_rejected_at_build(self):
        with pytest.raises(ValueError, match=r"^lambda_cap must be finite, got inf$"):
            McConfig(params=ModelParams(nu=100.0, kernel=(0.5,)), T=50, p=1,
                     n_experiments=4, base_seed=3, lam_cap=10**400)

    # Sizes are integers: a float T, p or n_experiments is refused when the
    # config is built, not truncated or left to fail in run_experiment.
    @pytest.mark.parametrize("size, shown", [
        ({"T": 50.0}, r"T must be an integer, got 50\.0"),
        ({"p": 1.0}, r"p must be an integer, got 1\.0"),
        ({"n_experiments": 4.0}, r"n_experiments must be an integer, got 4\.0"),
    ], ids=["T", "p", "n_experiments"])
    def test_sizes_must_be_integers(self, size, shown):
        sizes = {"T": 50, "p": 1, "n_experiments": 4, **size}
        with pytest.raises(ValueError, match=rf"^{shown}$"):
            McConfig(params=ModelParams(nu=100.0, kernel=(0.5,)), base_seed=3, **sizes)

    # The base seed too: a float or a string is refused when the config is
    # built, not at its first simulated block.
    @pytest.mark.parametrize("seed, shown", [(3.0, r"3\.0"), ("x", "'x'")], ids=["float", "str"])
    def test_base_seed_must_be_an_integer(self, seed, shown):
        with pytest.raises(ValueError, match=rf"^base_seed must be an integer, got {shown}$"):
            McConfig(params=ModelParams(nu=100.0, kernel=(0.5,)), T=50, p=1, n_experiments=4,
                     base_seed=seed)
        cfg = McConfig(params=ModelParams(nu=100.0, kernel=(0.5,)), T=50, p=1, n_experiments=4,
                       base_seed=np.uint64(3))
        assert type(cfg.base_seed) is int and cfg.base_seed == 3

    def test_numpy_integer_sizes_stored_as_int(self):
        cfg = McConfig(params=ModelParams(nu=100.0, kernel=(0.5,)), T=np.int64(50),
                       p=np.int32(1), n_experiments=np.uint8(4), base_seed=3)
        assert (cfg.T, cfg.p, cfg.n_experiments) == (50, 1, 4)
        assert all(type(v) is int for v in (cfg.T, cfg.p, cfg.n_experiments))

    def test_counts_beyond_int64_counted_as_overflows(self):
        # Rates of 1e19 pass a cap of 1e300, but not the bound 2**62.
        cfg = McConfig(
            params=ModelParams(nu=1e19, kernel=(0.3,)), T=50, p=1,
            n_experiments=4, base_seed=3, lam_cap=1e300,
        )
        with pytest.raises(AllReplicationsFailed, match="0 singular designs, 4 intensity overflows"):
            inar.run_experiment(cfg)


class TestTruthVector:
    def test_case1_padding(self, case1_params):
        truth = inar.truth_vector(case1_params, 10)
        assert truth[0] == 100.0
        assert np.allclose(truth[1:], 0.25 ** np.arange(1, 11), rtol=1e-12)

    def test_case2_padding(self, case2_params):
        truth = inar.truth_vector(case2_params, 3)
        assert truth.tolist() == [100.0, 0.8, 0.0, 0.0]

    def test_truncation(self, case1_params):
        truth = inar.truth_vector(case1_params, 2)
        assert truth.tolist() == [100.0, 0.25, 0.0625]


@pytest.fixture(scope="module")
def summary(case1_params):
    cfg = McConfig(params=case1_params, T=400, p=3, n_experiments=120, base_seed=5)
    return inar.run_experiment(cfg)


class TestNormalitySuite:
    def test_default_components(self, summary):
        diags = inar.normality_suite(summary)
        assert [d.label for d in diags] == ["mu_hat", "beta_1", "beta_2"]
        for d in diags:
            assert d.report.sample_size == 120
            assert 0.0 <= d.report.jb_p <= 1.0
            assert 0.0 <= d.report.sw_p <= 1.0
            assert 0.0 < d.report.sw_stat <= 1.0
            assert d.qq_z.shape == (120,) and d.qq_value.shape == (120,)
            assert d.hist_count.sum() == 120
            assert len(d.hist_left) == 30

    def test_component_selection(self, summary):
        diags = inar.normality_suite(summary, components=(3,))
        assert [d.label for d in diags] == ["beta_3"]
        with pytest.raises(DimensionMismatch):
            inar.normality_suite(summary, components=(4,))

    @pytest.mark.parametrize("n", [8, 11, 12, 1000])
    @pytest.mark.filterwarnings("ignore:Jarque-Bera on n=")
    def test_shared_quantiles_match_standalone_calls(self, n):
        # The suite calls the public tests, whose normal quantiles come
        # from inference's per-n cache; every result must be the standalone
        # call's, bit for bit, and every qq_z its own writable array.
        rng = np.random.default_rng(n)
        est = rng.normal(size=(n, 4)) * np.array([3.0, 0.1, 0.05, 0.02])
        summary = inar.summarize(est, np.zeros(4))
        diags = inar.normality_suite(summary)
        again = inar.normality_suite(summary)
        for j, d in enumerate(diags):
            col = est[:, j]
            z, value = inar.qq_data(col)
            assert d.qq_z.tobytes() == z.tobytes()
            assert d.qq_value.tobytes() == value.tobytes()
            assert (d.report.sw_stat, d.report.sw_p) == inar.shapiro_wilk(col)
            assert (d.report.jb_stat, d.report.jb_p) == inar.jarque_bera(col)
        first = diags[0].qq_z
        assert first.flags.writeable
        for d in diags[1:] + again:
            assert not np.shares_memory(first, d.qq_z)
        first[:] = 7.0
        for d in diags[1:] + again:
            assert d.qq_z.tobytes() == inar.qq_data(est[:, 0])[0].tobytes()
        later = inar.normality_suite(summary, components=(0,))[0]
        assert later.qq_z.tobytes() == again[0].qq_z.tobytes()

    def test_small_run_leaves_jarque_bera_out(self, case1_params):
        # 5 replications are below Jarque-Bera's n = 8: its fields are None
        # and the rest of the suite is made as for any other size.
        summary = inar.run_experiment(small_config(case1_params, n=5))
        for j, diag in enumerate(inar.normality_suite(summary)):
            col = summary.per_component_samples[:, j]
            assert (diag.report.jb_stat, diag.report.jb_p) == (None, None)
            assert (diag.report.sw_stat, diag.report.sw_p) == inar.shapiro_wilk(col)
            assert diag.report.sample_size == 5
            assert np.array_equal(diag.qq_value, inar.qq_data(col)[1])
            assert diag.hist_count.sum() == 5


class TestConfigValidation:
    def test_bad_values(self, case1_params):
        with pytest.raises(ValueError):
            McConfig(params=case1_params, T=0, p=0, n_experiments=1, base_seed=1)
        with pytest.raises(LagTooLarge, match=r"^p = 10 exceeds T - 1 = 9$"):
            McConfig(params=case1_params, T=10, p=10, n_experiments=1, base_seed=1)
        with pytest.raises(ValueError, match=r"^n_experiments must be >= 1, got 0$"):
            McConfig(params=case1_params, T=10, p=1, n_experiments=0, base_seed=1)

    def test_seed_wraps_like_rng_stream(self, case1_params):
        # any int is a valid seed; negatives wrap to their 64-bit complement
        neg = inar.run_experiment(small_config(case1_params, n=3, seed=-1))
        wrap = inar.run_experiment(small_config(case1_params, n=3, seed=2 ** 64 - 1))
        assert np.array_equal(neg.per_component_samples, wrap.per_component_samples)

    def test_component_labels(self):
        assert inar.component_label(0) == "mu_hat"
        assert inar.component_label(3) == "beta_3"
