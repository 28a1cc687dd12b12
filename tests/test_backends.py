"""Parity between the lane routes and the one-lane routes.

The lane engine (``simulate_lanes``, used by ``run_experiment``) steps many
streams together; the scalar loop (``simulate_path``, ``poisson_sample``)
runs one. The scalar loop is the oracle: every lane must reproduce it bit
for bit, including the step at which a lane's intensity overflows.

The stacked fit (``fit_lanes``) builds and solves the designs of many
count paths together; ``build_design`` and ``solve_cls`` fit one. Every
lane's design, estimate and failure must equal the one-lane call's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inar
from inar import _kernels as _k
from inar import ModelParams, Overflow, RngStream, SingularDesign
from inar.simulate import simulate_lanes


def scalar_path(params, T, seed, stream_id, cap):
    """The one-lane loop: (counts, 0-based overflow step or -1)."""
    key = RngStream(seed, stream_id).state()
    return _k.sim_path(params.nu, params.kernel_array(), T, float(cap), key)


def assert_lanes_match(params, T, seed, ids, cap):
    counts, overflow_at = simulate_lanes(params, T, seed, ids, cap)
    assert counts.shape == (T, len(ids)) and overflow_at.shape == (len(ids),)
    for j, sid in enumerate(ids):
        x, step = scalar_path(params, T, seed, sid, cap)
        assert overflow_at[j] == step
        assert np.array_equal(counts[:, j], x)
        if step < 0:
            path = inar.simulate_path(params, T, RngStream(seed, sid), cap)
            assert np.array_equal(counts[:, j], path.counts)
        else:
            with pytest.raises(Overflow, match=f"at step {step + 1}$"):
                inar.simulate_path(params, T, RngStream(seed, sid), cap)
    return overflow_at


kernels = st.lists(st.floats(0.0, 0.3), max_size=4).filter(lambda k: sum(k) < 0.95)
rates = st.one_of(
    st.sampled_from([0.0, 0.5, 3.0, 9.99, 10.0, 150.0]),
    st.floats(0.0, 12.0),
    st.floats(10.0, 400.0),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2 ** 63), 2 ** 64 - 1),
    ids=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=12),
    nu=rates,
    kernel=kernels,
    T=st.integers(1, 40),
    cap=st.floats(0.0, 600.0),
)
def test_paths_bit_identical(seed, ids, nu, kernel, T, cap):
    assert_lanes_match(ModelParams(nu=nu, kernel=tuple(kernel)), T, seed, ids, cap)


def test_study_lanes_bit_identical(case1_params, case2_params):
    ids = range(1, 41)
    for params in (case1_params, case2_params):
        overflow_at = assert_lanes_match(params, 120, 11, ids, 1e9)
        assert np.all(overflow_at == -1)


def test_some_lanes_overflow():
    # Stationary mean 1000 against a cap of 1100: some lanes cross it.
    overflow_at = assert_lanes_match(ModelParams(nu=100.0, kernel=(0.9,)), 200, 3, range(20), 1100.0)
    assert 0 < np.count_nonzero(overflow_at >= 0) < 20


def test_first_observation_checked_against_cap():
    counts, overflow_at = simulate_lanes(ModelParams(nu=50.0), 5, 1, range(4), 49.0)
    assert np.all(overflow_at == 0) and not counts.any()


def test_poisson_draws_bit_identical():
    # Without a kernel each lane is an i.i.d. stream: the sampler's draws.
    for lam in (0.5, 3.0, 9.99, 10.0, 150.0, 2e5):
        counts, _ = simulate_lanes(ModelParams(nu=lam), 64, 5, range(6))
        for j in range(6):
            want = inar.poisson_sample(lam, RngStream(5, j), size=64)
            assert np.array_equal(counts[:, j], want)


def test_stream_uniforms_cross_blocks():
    # The one-stream generator, read over several blocks, equals the lane
    # generator stepped one uniform at a time, and leaves the key as it was.
    key = RngStream(5, 2).state()
    n = 3 * _k._BLOCK + 7
    gen = _k._stream_uniforms(key)
    got = [next(gen) for _ in range(n)]
    state = key.copy()
    assert got == [_k._uniforms(state)[0] for _ in range(n)]
    assert key.tolist() == RngStream(5, 2).state().tolist()


def test_tie_recheck_matches_oracle(monkeypatch, case1_params):
    # An infinite margin sends every slow PTRS test to the scalar re-check.
    monkeypatch.setattr(_k, "_TIE", np.inf)
    assert_lanes_match(case1_params, 60, 7, range(1, 21), 1e9)


def test_mc_summary_identical(case1_params, case2_params):
    # Each replication's estimate equals the scalar simulate-and-fit.
    for params in (case1_params, case2_params):
        cfg = inar.McConfig(params=params, T=150, p=3, n_experiments=20, base_seed=13)
        summary = inar.run_experiment(cfg)
        assert summary.rep_ids.tolist() == list(range(1, 21))
        for row, rep in zip(summary.per_component_samples, summary.rep_ids):
            path = inar.simulate_path(params, cfg.T, RngStream(13, int(rep)), cfg.lam_cap)
            theta = inar.solve_cls(inar.build_design(path, cfg.p))
            assert np.array_equal(row, theta.to_array())


def lane_counts(T):
    """One count path of length T: all zero, constant, sparse or busy."""
    return st.one_of(
        st.just([0] * T),
        st.integers(0, 400).map(lambda c: [c] * T),
        st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=T, max_size=T),
        st.lists(st.integers(0, 300), min_size=T, max_size=T),
    )


def integer_design(x, p):
    """(Y, b) from exact int64 sums over the zero-padded lag matrix."""
    T = x.shape[0]
    z = np.zeros((T, p + 1), dtype=np.int64)
    z[:, 0] = 1
    for j in range(1, p + 1):
        z[j:, j] = x[: T - j]
    return (z.T @ z) / T, (z.T @ x) / T


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacked_fit_matches_one_lane(data):
    T = data.draw(st.integers(1, 30), label="T")
    p = data.draw(st.integers(0, T - 1), label="p")
    # More lanes than one design-build chunk, so chunk edges are crossed.
    lanes = data.draw(st.lists(lane_counts(T), min_size=1, max_size=40), label="lanes")
    counts = np.array(lanes, dtype=np.int64).T
    y, b = _k.design_build(counts.astype(np.float64), p)
    theta, fitted = inar.fit_lanes(counts, p)
    assert theta.shape == (len(lanes), p + 1) and fitted.shape == (len(lanes),)
    for j in range(len(lanes)):
        system = inar.build_design(counts[:, j], p)
        assert y[j].tobytes() == system.Y.tobytes()
        assert b[j].tobytes() == system.b.tobytes()
        y_int, b_int = integer_design(counts[:, j], p)
        y_int[0, 0] = 1.0
        assert y_int.tobytes() == system.Y.tobytes()
        assert b_int.tobytes() == system.b.tobytes()
        try:
            want = inar.solve_cls(system).to_array()
        except SingularDesign:
            assert not fitted[j] and np.isnan(theta[j]).all()
            continue
        assert fitted[j] and theta[j].tobytes() == want.tobytes()


def test_failed_lanes_keep_other_lanes(case1_params):
    # One stack with a non-finite lane and an all-zero lane among ordinary
    # ones: each failed lane gets its own status, and every ordinary lane
    # gets exactly its one-lane estimate and rcond.
    counts, _ = simulate_lanes(case1_params, 200, 5, range(1, 21))
    counts[50, 3] = np.nan
    counts[:, 11] = 0.0
    y, b = _k.design_build(counts, 4)
    fits = _k.cls_solve(y, b)
    failed = {3: _k.FIT_NONFINITE, 11: _k.FIT_RCOND}
    assert fits.status.tolist() == [failed.get(j, _k.FIT_OK) for j in range(20)]
    assert np.isnan(fits.rcond[3]) and fits.rcond[11] == 0.0
    for j in range(20):
        system = inar.build_design(counts[:, j], 4)
        if j in failed:
            assert np.isnan(fits.theta[j]).all()
            with pytest.raises(SingularDesign):
                inar.solve_cls(system)
            continue
        assert fits.theta[j].tobytes() == inar.solve_cls(system).to_array().tobytes()
        assert fits.rcond[j] == inar.rcond(system)
